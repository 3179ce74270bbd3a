"""Tests for threshold schedules and the broadcast decision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdopt.trigger import (
    ScheduleError,
    every_n,
    exponential,
    max_threshold_envelope,
    parse_schedule,
    polynomial,
    row_norms,
    should_broadcast,
    threshold,
    threshold_envelope,
    zero,
)


class TestThreshold:
    def test_polynomial_first_round(self):
        assert threshold(polynomial(20.0, 1.2), agent=0, k=1) == 20.0

    def test_exponential_reparameterized_decade(self):
        # ratio 0.9**0.1 gives 0.9 after ten rounds
        sched = exponential(1.0, 0.9**0.1)
        assert threshold(sched, agent=0, k=10) == pytest.approx(0.9, rel=1e-12)

    def test_zero_any_round(self):
        assert threshold(zero(), agent=3, k=17) == 0.0

    def test_round_zero_is_contract_violation(self):
        with pytest.raises(ValueError):
            threshold(polynomial(1.0, 2.0), agent=0, k=0)

    def test_every_n_returns_marker(self):
        assert threshold(every_n(4), agent=0, k=3) is None

    def test_per_agent_override(self):
        sched = polynomial(10.0, 2.0)
        custom = type(sched)(kind=sched.kind, e0=1.0, p=2.0, overrides={})
        with_override = type(sched)(
            kind=sched.kind, e0=10.0, p=2.0, overrides={1: custom}
        )
        assert threshold(with_override, agent=0, k=1) == 10.0
        assert threshold(with_override, agent=1, k=1) == 1.0


class TestScheduleValidation:
    def test_poly_requires_p_above_one(self):
        with pytest.raises(ScheduleError):
            polynomial(1.0, 1.0)

    def test_exp_requires_ratio_below_one(self):
        with pytest.raises(ScheduleError):
            exponential(1.0, 1.0)

    def test_exp_requires_positive_ratio(self):
        with pytest.raises(ScheduleError):
            exponential(1.0, 0.0)

    def test_every_n_requires_positive_period(self):
        with pytest.raises(ScheduleError):
            every_n(0)

    def test_periodic_is_not_event_rule(self):
        assert not every_n(2).is_event_rule
        assert not every_n(2).is_summable
        assert polynomial(1.0, 2.0).is_event_rule
        assert exponential(1.0, 0.5).is_summable
        assert zero().is_summable


class TestShouldBroadcast:
    def test_deviation_above_threshold(self):
        assert should_broadcast(np.array([0.6]), np.array([0.0]), 0.5)

    def test_tie_does_not_trigger(self):
        assert not should_broadcast(np.array([0.5]), np.array([0.0]), 0.5)

    def test_zero_deviation_zero_threshold(self):
        assert not should_broadcast(np.zeros(3), np.zeros(3), 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            should_broadcast(np.zeros(2), np.zeros(2), -1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        dev=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        e=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_strict_inequality_semantics(self, dev, e):
        fired = should_broadcast(np.array([dev]), np.array([0.0]), e)
        assert fired == (dev > e)

    def test_tiny_tie_does_not_fire(self):
        # squaring 1.5e-158 goes subnormal, and the plain norm reads it as
        # slightly larger than itself
        e = 1.5058657803867238e-158
        assert not should_broadcast(np.array([e]), np.array([0.0]), e)

    def test_tiny_deviation_above_threshold_fires(self):
        # squaring 3e-200 gives zero, and the plain norm reads it as zero
        assert should_broadcast(np.array([3e-200, 0.0]), np.zeros(2), 1e-200)


class TestRowNorms:
    def test_normal_rows_match_plain_norm_bitwise(self):
        rows = np.random.default_rng(4).standard_normal((20, 7)) * 10.0 ** np.arange(-20, 20, 2)[:, None]
        assert np.array_equal(row_norms(rows), np.linalg.norm(rows, axis=1))

    def test_tiny_huge_and_zero_rows(self):
        rows = np.array([[3e-200, 4e-200], [3e200, 4e200], [0.0, 0.0], [5e-324, 0.0]])
        out = row_norms(rows)
        assert out[0] == pytest.approx(5e-200, rel=1e-15)
        assert out[1] == pytest.approx(5e200, rel=1e-15)
        assert out[2] == 0.0
        assert out[3] == 5e-324


class TestMonotonicityAndSums:
    @pytest.mark.parametrize(
        "sched",
        [polynomial(20.0, 1.2), polynomial(1.0, 2.0), exponential(5.0, 0.9), zero()],
    )
    def test_thresholds_non_increasing(self, sched):
        values = [threshold(sched, 0, k) for k in range(1, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_polynomial_partial_sums_bounded(self):
        e0, p = 20.0, 1.2
        ks = np.arange(1, 100_001, dtype=np.float64)
        total = float(np.sum(e0 / ks**p))
        assert total <= e0 * (1.0 + 1.0 / (p - 1.0))

    def test_exponential_partial_sums_bounded(self):
        e0, rho = 5.0, 0.9
        ks = np.arange(1, 100_001, dtype=np.float64)
        total = float(np.sum(e0 * rho**ks))
        assert total <= e0 * rho / (1.0 - rho) + 1e-9

    def test_envelope_extends_to_round_zero(self):
        assert threshold_envelope(polynomial(20.0, 1.2), 0, 0) == 20.0
        assert threshold_envelope(exponential(4.0, 0.5), 0, 0) == 4.0
        assert threshold_envelope(zero(), 0, 0) == 0.0
        assert threshold_envelope(polynomial(20.0, 1.2), 0, 2) == threshold(
            polynomial(20.0, 1.2), 0, 2
        )

    def test_envelope_rejects_periodic(self):
        with pytest.raises(ScheduleError):
            threshold_envelope(every_n(2), 0, 1)

    def test_max_envelope_over_agents(self):
        base = polynomial(1.0, 2.0)
        big = polynomial(7.0, 2.0)
        sched = type(base)(kind=base.kind, e0=1.0, p=2.0, overrides={2: big})
        assert max_threshold_envelope(sched, n=4, k=1) == 7.0


class TestParseSchedule:
    def test_poly_spec(self):
        sched = parse_schedule("poly:20:1.2")
        assert (sched.kind, sched.e0, sched.p) == ("poly", 20.0, 1.2)

    def test_exp_spec_with_power_form(self):
        sched = parse_schedule("exp:1:0.9^0.1")
        assert sched.rho == pytest.approx(0.9**0.1)

    def test_zero_spec(self):
        assert parse_schedule("ZERO").kind == "zero"

    def test_every_n_case_insensitive(self):
        assert parse_schedule("everyn:4").period == 4
        assert parse_schedule("EveryN:2").period == 2

    def test_malformed_reports_position(self):
        with pytest.raises(ScheduleError, match="field 3"):
            parse_schedule("poly:20:abc")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            parse_schedule("linear:1:2")

    def test_missing_fields_rejected(self):
        with pytest.raises(ScheduleError):
            parse_schedule("poly:20")

    def test_overflowing_power_rejected(self):
        with pytest.raises(ScheduleError, match="field 2"):
            parse_schedule("poly:2^1e5:1")

    def test_complex_power_rejected(self):
        with pytest.raises(ScheduleError, match="not a real number"):
            parse_schedule("poly:-8^0.5:1")

    def test_zero_to_negative_power_rejected(self):
        with pytest.raises(ScheduleError, match="field 3"):
            parse_schedule("exp:1:0^-1")

    @pytest.mark.parametrize("spec", ["poly:nan:2", "exp:nan:0.5"])
    def test_nan_base_rejected(self, spec):
        with pytest.raises(ScheduleError):
            parse_schedule(spec)

    def test_spec_string_keeps_every_digit(self):
        assert parse_schedule("poly:20:1.2").spec_string() == "poly:20:1.2"
        a, b = parse_schedule("poly:1:1.2"), parse_schedule("poly:1.0000001:1.2")
        assert a.spec_string() != b.spec_string()
        assert parse_schedule(b.spec_string()) == b
