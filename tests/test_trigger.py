"""Tests for threshold schedules and the broadcast decision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdopt.trigger import (
    ScheduleError,
    TriggerSchedule,
    broadcasts,
    parse_schedule,
    row_norms,
    threshold,
)


def polynomial(e0, p):
    return TriggerSchedule("poly", e0=e0, p=p)


def exponential(e0, rho):
    return TriggerSchedule("exp", e0=e0, rho=rho)


ZERO = TriggerSchedule("zero")


def fires(x, x_tilde, e):
    """One agent's decision at round 1 of a schedule whose round-1 threshold
    is e."""
    fired, _ = broadcasts(polynomial(e, 2.0), 1, np.array([x], dtype=float),
                          np.array([x_tilde], dtype=float))
    return bool(fired[0])


class TestThreshold:
    def test_polynomial_first_round(self):
        assert threshold(polynomial(20.0, 1.2), k=1) == 20.0

    def test_exponential_reparameterized_decade(self):
        # ratio 0.9**0.1 gives 0.9 after ten rounds
        sched = exponential(1.0, 0.9**0.1)
        assert threshold(sched, k=10) == pytest.approx(0.9, rel=1e-12)

    def test_zero_any_round(self):
        assert threshold(ZERO, k=17) == 0.0

    def test_negative_round_is_contract_violation(self):
        with pytest.raises(ValueError):
            threshold(polynomial(1.0, 2.0), k=-1)

    def test_every_n_returns_marker(self):
        assert threshold(TriggerSchedule("everyN", period=4), k=3) is None

    @pytest.mark.parametrize("p, k", [(200.0, 35), (100.0, 1210), (200.0, 10**6)])
    def test_polynomial_past_float_range_underflows(self, p, k):
        # k**p overflows a float here; the threshold is its underflowed value.
        with pytest.raises(OverflowError):
            float(k) ** p
        sched = polynomial(1.0, p)
        assert threshold(sched, k) == float(k) ** -p
        assert 0.0 <= threshold(sched, k) < 1e-300

    def test_polynomial_in_float_range_unchanged(self):
        sched = polynomial(20.0, 1.2)
        for k in (1, 2, 7, 1000, 10**9):
            assert threshold(sched, k) == 20.0 / float(k) ** 1.2
        assert threshold(polynomial(1.0, 200.0), 34) == 1.0 / 34.0**200


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
            TriggerSchedule("everyN", period=0)

    def test_periodic_is_not_event_rule(self):
        every_2 = TriggerSchedule("everyN", period=2)
        assert not every_2.is_event_rule
        assert not every_2.is_summable
        assert polynomial(1.0, 2.0).is_event_rule
        assert exponential(1.0, 0.5).is_summable
        assert ZERO.is_summable


class TestShouldBroadcast:
    """When an agent should broadcast, as `broadcasts` decides it."""

    def test_deviation_above_threshold(self):
        assert fires([0.6], [0.0], 0.5)

    def test_tie_does_not_trigger(self):
        assert not fires([0.5], [0.0], 0.5)

    def test_zero_deviation_zero_threshold(self):
        assert not fires(np.zeros(3), np.zeros(3), 0.0)

    def test_negative_threshold_rejected(self):
        for kind in ("poly", "exp"):
            with pytest.raises(ScheduleError, match="base"):
                TriggerSchedule(kind, e0=-1.0, p=2.0, rho=0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        dev=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        e=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_strict_inequality_semantics(self, dev, e):
        assert fires([dev], [0.0], e) == (dev > e)

    def test_tiny_tie_does_not_fire(self):
        # squaring 1.5e-158 goes subnormal, and the plain norm reads it as
        # slightly larger than itself
        e = 1.5058657803867238e-158
        assert not fires([e], [0.0], e)

    def test_tiny_deviation_above_threshold_fires(self):
        # squaring 3e-200 gives zero, and the plain norm reads it as zero
        assert fires([3e-200, 0.0], np.zeros(2), 1e-200)


def exhaustive_row_norms(rows):
    """The rule row by row: the plain `np.linalg.norm` value when the row's
    largest magnitude s lies in [1e-150, 1e150] (or is zero or nan), else
    s times the plain norm of row / s."""
    out = []
    with np.errstate(all="ignore"):
        for row in rows[:, None, :]:
            s = np.max(np.abs(row))
            if s > 0.0 and not 1e-150 <= s <= 1e150:
                out.append(s * np.linalg.norm(row / s, axis=1)[0])
            else:
                out.append(np.linalg.norm(row, axis=1)[0])
    return np.array(out)


# Entries around every edge of the plain band and of its norm band, and the
# values that break squaring: subnormals, inf and nan.
_EDGES = [0.0, 1.0, 3.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 3.3e-155, 7.7e-155,
          1.3e-154, 1e-141, 1e-140, 3.3e149, 7.7e149, 1.3e150, 1e151, 1e200, np.inf, np.nan]
_EDGES += [np.nextafter(v, d) for v in (1e-150, 1e150) for d in (0.0, np.inf)] + [1e-150, 1e150]
_ENTRY = st.one_of(st.sampled_from(_EDGES), st.floats(width=64)).flatmap(
    lambda v: st.sampled_from([v, -v]))


class TestRowNorms:
    @settings(max_examples=300, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 5)), data=st.data())
    def test_bitwise_equal_to_the_exhaustive_rule(self, shape, data):
        entries = data.draw(st.lists(_ENTRY, min_size=shape[0] * shape[1],
                                     max_size=shape[0] * shape[1]))
        rows = np.array(entries, dtype=np.float64).reshape(shape)
        if data.draw(st.booleans()):  # a zero row beside the drawn ones
            rows[data.draw(st.integers(0, shape[0] - 1))] = 0.0
        with np.errstate(all="ignore"):
            out = row_norms(rows)
        expected = exhaustive_row_norms(rows)
        assert np.array_equal(np.isnan(out), np.isnan(expected))
        numbers = ~np.isnan(expected)
        assert np.array_equal(out[numbers].view(np.uint64), expected[numbers].view(np.uint64))

    def test_rows_just_past_the_band_take_the_scaled_value(self):
        # Largest entries just outside [1e-150, 1e150] and plain norms near
        # them, where the plain and the scaled norm differ in the last bit.
        for row in ([1.1e150, 7.8461592039975415e149, 5.343717586028342e149],
                    [9e-151, 4.2145130045902074e-151, 5.3517088701517826e-151]):
            rows = np.array([row])
            out = row_norms(rows)
            assert np.array_equal(out, exhaustive_row_norms(rows))
            assert out[0] != np.linalg.norm(rows, axis=1)[0]

    def test_normal_rows_match_plain_norm_bitwise(self):
        rows = np.random.default_rng(4).standard_normal((20, 7)) * 10.0 ** np.arange(-20, 20, 2)[:, None]
        assert np.array_equal(row_norms(rows), np.linalg.norm(rows, axis=1))

    def test_tiny_huge_and_zero_rows(self):
        rows = np.array([[3e-200, 4e-200], [3e200, 4e200], [0.0, 0.0], [5e-324, 0.0]])
        with np.errstate(over="ignore"):  # the caller's error state for the squares
            out = row_norms(rows)
        assert out[0] == pytest.approx(5e-200, rel=1e-15)
        assert out[1] == pytest.approx(5e200, rel=1e-15)
        assert out[2] == 0.0
        assert out[3] == 5e-324


class TestMonotonicityAndSums:
    @pytest.mark.parametrize(
        "sched",
        [polynomial(20.0, 1.2), polynomial(1.0, 2.0), exponential(5.0, 0.9), ZERO],
    )
    def test_thresholds_non_increasing(self, sched):
        values = [threshold(sched, k) for k in range(200)]
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
        # the certificate's summable envelope is the threshold from round 0 on
        assert threshold(polynomial(20.0, 1.2), 0) == 20.0
        assert threshold(exponential(4.0, 0.5), 0) == 4.0
        assert threshold(ZERO, 0) == 0.0


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

    @pytest.mark.parametrize("spec", ["poly:inf:2", "poly:1e400:2", "exp:inf:0.97",
                                      "poly:1:inf"])
    def test_non_finite_parameter_rejected(self, spec):
        with pytest.raises(ScheduleError, match="finite"):
            parse_schedule(spec)

    def test_spec_string_keeps_every_digit(self):
        assert parse_schedule("poly:20:1.2").spec_string() == "poly:20:1.2"
        a, b = parse_schedule("poly:1:1.2"), parse_schedule("poly:1.0000001:1.2")
        assert a.spec_string() != b.spec_string()
        assert parse_schedule(b.spec_string()) == b
