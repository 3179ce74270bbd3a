"""Tests for composite objectives, generators, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdopt.objective import (
    CompositeObjective,
    DiagonalQuadraticLoss,
    LeastSquaresLoss,
    LogisticLoss,
    ScaledL1,
    ZeroNonsmooth,
    ZeroSmooth,
    instance_hash,
    instance_to_text,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
    quadratic_minimizer,
    soft_threshold,
)


def finite_difference_gradient(fn, theta, h=1e-6):
    """Central-difference oracle for gradients."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def grid_prox_oracle(g_value, step, y, lo=-10.0, hi=10.0, points=2_000_001):
    """Brute-force scalar prox: minimize g(x) + (1/(2 step)) (x - y)^2 on a grid."""
    xs = np.linspace(lo, hi, points)
    vals = np.array([g_value(x) for x in xs]) + (xs - y) ** 2 / (2.0 * step)
    return xs[np.argmin(vals)]


class TestSoftThreshold:
    def test_shrinks_positive(self):
        assert soft_threshold(np.array([3.0]), 1.0) == pytest.approx([2.0])

    def test_small_magnitude_zeroed(self):
        assert soft_threshold(np.array([-0.5]), 1.0) == pytest.approx([0.0])

    def test_zero_shift_is_identity(self):
        y = np.array([1.5, -2.0, 0.0])
        assert np.array_equal(soft_threshold(y, 0.0), y)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        y=st.floats(min_value=-100, max_value=100, allow_nan=False),
        t=st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_magnitude_never_grows(self, y, t):
        out = float(soft_threshold(np.array([y]), t)[0])
        assert abs(out) <= abs(y)
        assert out == 0.0 or np.sign(out) == np.sign(y)

    def test_matches_grid_prox_oracle(self):
        tau, step, y = 0.7, 0.9, 2.3
        expected = grid_prox_oracle(lambda x: tau * abs(x), step, y)
        got = ScaledL1(tau, 1).prox(step, np.array([y]))[0]
        assert got == pytest.approx(expected, abs=2e-5)


class TestProxProperties:
    def test_l1_prox_optimality_inclusion(self):
        # eta (v - x+) must be a subgradient of tau |.|_1 at x+
        rng = np.random.default_rng(3)
        tau, step = 0.4, 1.7
        part = ScaledL1(tau, 6)
        for _ in range(20):
            v = rng.standard_normal(6) * 3
            x_plus = part.prox(step, v)
            s = (v - x_plus) / step
            for j in range(6):
                if x_plus[j] != 0.0:
                    assert s[j] == pytest.approx(tau * np.sign(x_plus[j]), abs=1e-10)
                else:
                    assert abs(s[j]) <= tau + 1e-10

    def test_prox_nonexpansive_on_sampled_pairs(self):
        rng = np.random.default_rng(4)
        part = ScaledL1(0.8, 5)
        for _ in range(50):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            pa, pb = part.prox(0.5, a), part.prox(0.5, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def check_curvature_bounds(part, rng, pairs=100):
    """Gradient must satisfy the reported Lipschitz and strong-convexity
    inequalities on random point pairs."""
    for _ in range(pairs):
        x = rng.standard_normal(part.m)
        y = rng.standard_normal(part.m)
        gx, gy = part.gradient(x), part.gradient(y)
        dx = x - y
        lhs = float(np.linalg.norm(gx - gy))
        assert lhs <= part.lipschitz * float(np.linalg.norm(dx)) + 1e-9
        inner = float((gx - gy) @ dx)
        assert inner >= part.strong_convexity * float(dx @ dx) - 1e-9


class TestLassoInstance:
    def test_paper_scale_dimensions(self):
        obj, raw = make_lasso_instance(n=100, p=3, m=50, tau=0.1, seed=1)
        assert (obj.n, obj.m) == (100, 50)
        assert raw["a"].shape == (100, 3, 50)
        assert raw["b"].shape == (100, 3)

    def test_normalization(self):
        _, raw = make_lasso_instance(n=5, p=3, m=8, tau=0.1, seed=2)
        row_norms = np.linalg.norm(raw["a"], axis=2)
        assert np.allclose(row_norms, 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(raw["b"], axis=1), 1.0, atol=1e-12)

    def test_identity_sensing_special_case(self):
        part = LeastSquaresLoss(np.eye(4), np.zeros(4))
        theta = np.array([1.0, -2.0, 0.5, 3.0])
        assert part.value(theta) == pytest.approx(0.5 * float(theta @ theta))
        assert np.allclose(part.gradient(theta), theta)
        assert part.lipschitz == pytest.approx(1.0)

    def test_scalar_agent_prox_oracle(self):
        # min 0.5 (x - 3)^2 + |x| has the shrinkage solution 2
        assert soft_threshold(np.array([3.0]), 1.0)[0] == pytest.approx(2.0)
        expected = grid_prox_oracle(lambda x: abs(x), 1.0, 3.0)
        assert expected == pytest.approx(2.0, abs=2e-5)

    def test_lipschitz_matches_dense_oracle(self):
        obj, raw = make_lasso_instance(n=6, p=3, m=10, tau=0.1, seed=5)
        for i in range(6):
            expected = np.linalg.eigvalsh(raw["a"][i].T @ raw["a"][i])[-1]
            assert obj.smooth[i].lipschitz == pytest.approx(expected, rel=1e-12)

    def test_curvature_inequalities_hold(self):
        obj, _ = make_lasso_instance(n=4, p=3, m=6, tau=0.1, seed=6)
        rng = np.random.default_rng(0)
        for part in obj.smooth:
            check_curvature_bounds(part, rng, pairs=25)

    def test_bit_deterministic(self):
        a = instance_to_text(make_lasso_instance(5, 3, 8, 0.1, seed=9)[0])
        b = instance_to_text(make_lasso_instance(5, 3, 8, 0.1, seed=9)[0])
        assert a == b


class TestLogisticInstance:
    def test_sample_budget(self):
        obj, raw = make_logistic_instance(n=100, m_i=8, m=10, seed=1)
        assert raw["features"].shape == (100, 8, 10)
        assert raw["features"].shape[0] * raw["features"].shape[1] == 800

    def test_bias_coordinate_forced_to_one(self):
        _, raw = make_logistic_instance(n=4, m_i=5, m=6, seed=2)
        assert np.all(raw["features"][:, :, -1] == 1.0)

    def test_single_sample_at_origin(self):
        feats = np.array([[0.5, -1.0, 1.0]])
        labels = np.array([1.0])
        part = LogisticLoss(feats, labels)
        theta = np.zeros(3)
        assert part.value(theta) == pytest.approx(np.log(2.0))
        assert np.allclose(part.gradient(theta), -0.5 * labels[0] * feats[0])

    def test_gradient_matches_finite_differences(self):
        obj, _ = make_logistic_instance(n=3, m_i=6, m=5, seed=3, ridge=0.1)
        rng = np.random.default_rng(1)
        for part in obj.smooth:
            for _ in range(10):
                theta = rng.standard_normal(5)
                numeric = finite_difference_gradient(part.value, theta)
                exact = part.gradient(theta)
                assert np.linalg.norm(exact - numeric) <= 1e-5 * max(
                    1.0, np.linalg.norm(exact)
                )

    def test_ridge_supplies_strong_convexity(self):
        obj, _ = make_logistic_instance(n=2, m_i=4, m=3, seed=4, ridge=0.25)
        assert all(p.strong_convexity == 0.25 for p in obj.smooth)
        plain, _ = make_logistic_instance(n=2, m_i=4, m=3, seed=4)
        assert all(p.strong_convexity == 0.0 for p in plain.smooth)

    def test_curvature_inequalities_hold(self):
        obj, _ = make_logistic_instance(n=3, m_i=5, m=4, seed=5, ridge=0.05)
        rng = np.random.default_rng(2)
        for part in obj.smooth:
            check_curvature_bounds(part, rng, pairs=25)

    def test_labels_are_signs(self):
        _, raw = make_logistic_instance(n=4, m_i=6, m=5, seed=6)
        assert set(np.unique(raw["labels"])) <= {-1.0, 1.0}


class TestQuadraticInstance:
    def test_two_agent_average(self):
        parts = [
            DiagonalQuadraticLoss(np.array([1.0]), np.array([0.0])),
            DiagonalQuadraticLoss(np.array([1.0]), np.array([2.0])),
        ]
        obj = CompositeObjective(parts, [ZeroNonsmooth(1), ZeroNonsmooth(1)],
                                 {"kind": "quadratic", "n": 2, "m": 1, "seed": 0})
        assert quadratic_minimizer(obj)[0] == pytest.approx(1.0)

    def test_single_agent_center(self):
        obj = make_quadratic_instance(n=1, m=4, seed=7)
        assert np.allclose(quadratic_minimizer(obj), obj.smooth[0].center)

    def test_total_gradient_vanishes_at_closed_form(self):
        obj = make_quadratic_instance(n=6, m=5, seed=8)
        x_star = quadratic_minimizer(obj)
        total = sum(part.gradient(x_star) for part in obj.smooth)
        assert np.linalg.norm(total) <= 1e-12

    def test_reported_constants_exact(self):
        obj = make_quadratic_instance(n=3, m=4, seed=9)
        for part in obj.smooth:
            assert part.lipschitz == float(np.max(part.diag))
            assert part.strong_convexity == float(np.min(part.diag))
            assert np.all(part.diag >= 1.0) and np.all(part.diag <= 2.0)

    def test_curvature_inequalities_hold(self):
        obj = make_quadratic_instance(n=3, m=4, seed=10)
        rng = np.random.default_rng(3)
        for part in obj.smooth:
            check_curvature_bounds(part, rng, pairs=25)


class TestNanParametersRejected:
    def test_l1_weight(self):
        with pytest.raises(ValueError):
            ScaledL1(float("nan"), 3)

    def test_logistic_ridge(self):
        with pytest.raises(ValueError):
            LogisticLoss(np.ones((1, 2)), np.ones(1), ridge=float("nan"))

    def test_quadratic_curvature(self):
        with pytest.raises(ValueError):
            DiagonalQuadraticLoss(np.array([np.nan]), np.zeros(1))


class TestCompositeObjective:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CompositeObjective([ZeroSmooth(3)], [ZeroNonsmooth(4)])

    def test_stacked_methods_match_per_agent_parts(self):
        # two least-squares shapes, ridge-logistic, quadratic and zero parts,
        # with l1 and zero regularizers interleaved
        rng = np.random.default_rng(8)
        m = 4
        smooth = [
            LeastSquaresLoss(rng.standard_normal((3, m)), rng.standard_normal(3)),
            LogisticLoss(rng.standard_normal((5, m)), np.array([1.0, -1.0, 1.0, 1.0, -1.0]),
                         ridge=0.3),
            ZeroSmooth(m),
            LeastSquaresLoss(rng.standard_normal((2, m)), rng.standard_normal(2)),
            DiagonalQuadraticLoss(rng.uniform(1.0, 2.0, m), rng.standard_normal(m)),
            LeastSquaresLoss(rng.standard_normal((3, m)), rng.standard_normal(3)),
        ]
        nonsmooth = [ScaledL1(0.2, m) if i % 2 else ZeroNonsmooth(m) for i in range(6)]
        obj = CompositeObjective(smooth, nonsmooth)
        assert len(obj.stacks) == 4  # lsq (3, m), logistic, lsq (2, m), quadratic
        x = rng.standard_normal((6, m))
        steps = rng.uniform(0.5, 2.0, 6)
        per_agent_grad = np.stack([f.gradient(x[i]) for i, f in enumerate(smooth)])
        per_agent_prox = np.stack([g.prox(steps[i], x[i]) for i, g in enumerate(nonsmooth)])
        per_agent_value = sum(f.value(x[i]) + g.value(x[i])
                              for i, (f, g) in enumerate(zip(smooth, nonsmooth)))
        assert np.allclose(obj.gradient_stack(x), per_agent_grad, rtol=0, atol=1e-12)
        assert np.array_equal(obj.prox_stack(steps, x), per_agent_prox)
        assert obj.stacked_value(x) == pytest.approx(per_agent_value, rel=1e-13)

    def test_part_without_stacked_form_rejected(self):
        class CubicLoss(ZeroSmooth):
            is_zero = False

        with pytest.raises(ValueError):
            CompositeObjective([CubicLoss(2)], [ZeroNonsmooth(2)])

    def test_stacked_vs_centralized_value(self):
        obj, _ = make_lasso_instance(3, 2, 4, 0.2, seed=1)
        theta = np.full(4, 0.3)
        stacked = np.tile(theta, (3, 1))
        assert obj.stacked_value(stacked) == pytest.approx(obj.centralized_value(theta))


class TestSerialization:
    def test_regeneration_reproduces_file(self):
        first = instance_to_text(make_logistic_instance(3, 4, 5, seed=21, ridge=0.1)[0])
        again = instance_to_text(make_logistic_instance(3, 4, 5, seed=21, ridge=0.1)[0])
        assert first == again

    def test_hash_distinguishes_seeds(self):
        a = instance_hash(make_quadratic_instance(3, 4, seed=1))
        b = instance_hash(make_quadratic_instance(3, 4, seed=2))
        assert a != b

