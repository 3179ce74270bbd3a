"""Tests for composite objectives, generators, and the instance digest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdopt.objective import (
    CompositeObjective,
    DiagonalQuadraticLoss,
    LeastSquaresLoss,
    LogisticLoss,
    ZeroSmooth,
    instance_hash,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
    _sigmoid,
    soft_threshold,
)


def finite_difference_gradient(fn, theta, h=1e-6):
    """Central-difference oracle for gradients, at a point of any shape."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for j in np.ndindex(theta.shape):
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


def l1_prox(tau, step, v):
    """The objective's prox of tau * ||.||_1 with step `step` at vector v."""
    obj = CompositeObjective([ZeroSmooth(v.size)], [tau])
    return obj.prox_stack(np.array([step]), v[None, :])[0]


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
        got = l1_prox(tau, step, np.array([y]))[0]
        assert got == pytest.approx(expected, abs=2e-5)


class TestProxProperties:
    def test_l1_prox_optimality_inclusion(self):
        # eta (v - x+) must be a subgradient of tau |.|_1 at x+
        rng = np.random.default_rng(3)
        tau, step = 0.4, 1.7
        for _ in range(20):
            v = rng.standard_normal(6) * 3
            x_plus = l1_prox(tau, step, v)
            s = (v - x_plus) / step
            for j in range(6):
                if x_plus[j] != 0.0:
                    assert s[j] == pytest.approx(tau * np.sign(x_plus[j]), abs=1e-10)
                else:
                    assert abs(s[j]) <= tau + 1e-10

    def test_prox_nonexpansive_on_sampled_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            pa, pb = l1_prox(0.8, 0.5, a), l1_prox(0.8, 0.5, b)
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
        a, raw_a = make_lasso_instance(5, 3, 8, 0.1, seed=9)
        b, raw_b = make_lasso_instance(5, 3, 8, 0.1, seed=9)
        assert all(np.array_equal(raw_a[k], raw_b[k]) for k in raw_a)
        assert np.array_equal(a.tau, b.tau)


def two_branch_sigmoid(u):
    """The sigmoid by boolean masks, one exp per branch: the oracle."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


_SIGMOID_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]),
    st.floats(700.0, 800.0).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-50.0, 50.0),
)


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from([(7,), (3, 4), (2, 3, 2)]), data=st.data())
    def test_bitwise_equal_to_the_two_branch_form(self, shape, data):
        size = int(np.prod(shape))
        u = np.array(data.draw(st.lists(_SIGMOID_ENTRY, min_size=size, max_size=size)),
                     dtype=np.float64).reshape(shape)
        with np.errstate(under="ignore"):
            got, want = _sigmoid(u), two_branch_sigmoid(u)
        assert got.shape == u.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_saturates_without_overflow(self):
        u = np.array([-800.0, -0.0, 0.0, 800.0])
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            assert _sigmoid(u).tolist() == [0.0, 0.5, 0.5, 1.0]


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

    @pytest.mark.parametrize("bad", [0.0, 0.5, -1.0000000000000002, 2.0, np.inf, np.nan])
    def test_non_sign_label_rejected(self, bad):
        LogisticLoss(np.ones((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="labels"):
            LogisticLoss(np.ones((2, 2)), np.array([1.0, bad]))

    def test_zero_ridge_value_finite_past_square_overflow(self):
        # theta^T theta overflows to inf; a zero ridge adds nothing, not 0 * inf = nan.
        obj, _ = make_logistic_instance(n=3, m_i=4, m=2, seed=7)
        theta = np.full((3, 2), 1e200)
        for part, row in zip(obj.smooth, theta):
            assert np.isfinite(part.value(row))
        assert np.isfinite(obj.stack.value(theta))
        assert obj.stack.value(theta) == pytest.approx(
            sum(p.value(r) for p, r in zip(obj.smooth, theta)), rel=1e-12)


class TestQuadraticInstance:
    def test_two_agent_average(self):
        parts = [
            DiagonalQuadraticLoss(np.array([1.0]), np.array([0.0])),
            DiagonalQuadraticLoss(np.array([1.0]), np.array([2.0])),
        ]
        obj = CompositeObjective(parts, [0.0, 0.0])
        assert obj.stack.pooled().center[0] == pytest.approx(1.0)

    def test_single_agent_center(self):
        obj = make_quadratic_instance(n=1, m=4, seed=7)
        assert np.allclose(obj.stack.pooled().center, obj.smooth[0].center)

    def test_total_gradient_vanishes_at_closed_form(self):
        obj = make_quadratic_instance(n=6, m=5, seed=8)
        x_star = obj.stack.pooled().center
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
            CompositeObjective([ZeroSmooth(3), ZeroSmooth(3)], [0.1, float("nan")])

    def test_negative_l1_weight(self):
        with pytest.raises(ValueError):
            CompositeObjective([ZeroSmooth(3), ZeroSmooth(3)], [0.1, -0.1])

    def test_logistic_ridge(self):
        with pytest.raises(ValueError):
            LogisticLoss(np.ones((1, 2)), np.ones(1), ridge=float("nan"))

    def test_quadratic_curvature(self):
        with pytest.raises(ValueError):
            DiagonalQuadraticLoss(np.array([np.nan]), np.zeros(1))


def one_family(kind, rng, n=6, m=4):
    """n losses of one family on dimension m."""
    if kind == "least-squares":
        return [LeastSquaresLoss(rng.standard_normal((3, m)), rng.standard_normal(3))
                for _ in range(n)]
    if kind == "ridge-logistic":
        return [LogisticLoss(rng.standard_normal((5, m)), rng.choice([-1.0, 1.0], 5),
                             ridge=rng.uniform(0.1, 0.5)) for _ in range(n)]
    if kind == "quadratic":
        return [DiagonalQuadraticLoss(rng.uniform(1.0, 2.0, m), rng.standard_normal(m))
                for _ in range(n)]
    return [ZeroSmooth(m) for _ in range(n)]


FAMILIES = ("least-squares", "ridge-logistic", "quadratic", "zero")


class TestCompositeObjective:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CompositeObjective([ZeroSmooth(3), ZeroSmooth(4)], [0.0, 0.0])

    def test_stacked_methods_match_per_agent_parts(self):
        # each family with l1 and zero weights interleaved
        rng = np.random.default_rng(8)
        tau = np.array([0.0, 0.2, 0.0, 0.5, 0.0, 0.2])
        for kind in FAMILIES:
            smooth = one_family(kind, rng)
            obj = CompositeObjective(smooth, tau)
            assert type(obj.stack) is type(smooth[0])
            x = rng.standard_normal((6, 4))
            steps = rng.uniform(0.5, 2.0, 6)
            per_agent_grad = np.stack([f.gradient(x[i]) for i, f in enumerate(smooth)])
            per_agent_prox = np.stack([soft_threshold(x[i], steps[i] * tau[i])
                                       for i in range(6)])
            per_agent_value = sum(f.value(x[i]) + tau[i] * np.sum(np.abs(x[i]))
                                  for i, f in enumerate(smooth))
            assert np.allclose(obj.gradient_stack(x), per_agent_grad, rtol=0, atol=1e-12)
            assert np.array_equal(obj.prox_stack(steps, x), per_agent_prox)
            assert obj.stacked_value(x) == pytest.approx(per_agent_value, rel=1e-13)

    @pytest.mark.parametrize("kind", FAMILIES[:3])
    @pytest.mark.parametrize("stacked", [False, True], ids=["agent", "stack"])
    def test_gradient_matches_finite_differences(self, kind, stacked):
        # The engine's gradients and the matrix-form oracle's share this
        # code; central differences of the value check it apart from both.
        rng = np.random.default_rng(11)
        smooth = one_family(kind, rng, n=3)
        loss = CompositeObjective(smooth, np.zeros(3)).stack if stacked else smooth[0]
        for _ in range(5):
            theta = rng.standard_normal((3, 4) if stacked else 4)
            exact = loss.gradient(theta)
            assert exact.shape == theta.shape
            numeric = finite_difference_gradient(loss.value, theta)
            assert np.linalg.norm(exact - numeric) <= 1e-6 * max(1.0, np.linalg.norm(exact))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_pooled_single_loss_is_that_loss(self, kind):
        # one agent's arrays are 1-D for the quadratic and 2-D otherwise
        rng = np.random.default_rng(12)
        loss = one_family(kind, rng, n=1)[0]
        for pooled in (loss.pooled(), CompositeObjective([loss], [0.0]).stack.pooled()):
            assert type(pooled) is type(loss)
            for _ in range(5):
                theta = 3.0 * rng.standard_normal(4)
                assert pooled.value(theta) == pytest.approx(loss.value(theta), rel=1e-12)
                assert np.allclose(pooled.gradient(theta), loss.gradient(theta),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_stack_curvature_equals_per_agent_constants(self, kind):
        # the stack's one batched eigensolve against each agent's own
        smooth = one_family(kind, np.random.default_rng(13))
        obj = CompositeObjective(smooth, np.zeros(len(smooth)))
        assert np.array_equal(obj.lipschitz(), [f.lipschitz for f in smooth])
        assert np.array_equal(obj.strong_convexity(), [f.strong_convexity for f in smooth])

    def test_class_or_shape_mix_rejected(self):
        rng = np.random.default_rng(9)
        lsq, logistic, quadratic, zero = (one_family(kind, rng, n=2) for kind in FAMILIES)
        short_lsq = LeastSquaresLoss(rng.standard_normal((2, 4)), rng.standard_normal(2))
        for parts in ([lsq[0], logistic[0]], [zero[0], quadratic[0]], [lsq[0], short_lsq]):
            with pytest.raises(ValueError):
                CompositeObjective(parts, [0.0, 0.0])
        with pytest.raises(ValueError):
            CompositeObjective(lsq, [0.0])  # one weight for two losses

    def test_part_without_stacked_form_rejected(self):
        class CubicLoss(ZeroSmooth):
            pass

        with pytest.raises(ValueError):
            CompositeObjective([CubicLoss(2)], [0.0])

    def test_stacked_vs_centralized_value(self):
        obj, _ = make_lasso_instance(3, 2, 4, 0.2, seed=1)
        theta = np.full(4, 0.3)
        stacked = np.tile(theta, (3, 1))
        assert obj.stacked_value(stacked) == pytest.approx(obj.centralized_value(theta))


class TestSerialization:
    """`instance_hash` digests the loss class, (n, m), the l1 weights and the
    stacked arrays' shapes and bytes."""

    def test_two_builds_share_a_digest(self):
        for build in (lambda: make_lasso_instance(5, 3, 8, 0.1, seed=21)[0],
                      lambda: make_logistic_instance(3, 4, 5, seed=21, ridge=0.1)[0],
                      lambda: make_quadratic_instance(3, 4, seed=21)):
            assert instance_hash(build()) == instance_hash(build())

    def test_hash_distinguishes_seeds(self):
        a = instance_hash(make_quadratic_instance(3, 4, seed=1))
        b = instance_hash(make_quadratic_instance(3, 4, seed=2))
        assert a != b

    def test_one_array_entry_changes_the_digest(self):
        obj, raw = make_lasso_instance(4, 3, 5, 0.1, seed=3)
        a = raw["a"].copy()
        a[2, 1, 3] = np.nextafter(a[2, 1, 3], np.inf)
        changed = CompositeObjective(
            [LeastSquaresLoss(a[i], raw["b"][i]) for i in range(4)], obj.tau)
        rebuilt = CompositeObjective(
            [LeastSquaresLoss(raw["a"][i], raw["b"][i]) for i in range(4)], obj.tau)
        assert instance_hash(rebuilt) == instance_hash(obj)
        assert instance_hash(changed) != instance_hash(obj)

    def test_tau_and_ridge_change_the_digest(self):
        assert (instance_hash(make_lasso_instance(4, 3, 5, 0.1, seed=3)[0])
                != instance_hash(make_lasso_instance(4, 3, 5, 0.2, seed=3)[0]))
        assert (instance_hash(make_logistic_instance(3, 4, 5, seed=3, ridge=0.1)[0])
                != instance_hash(make_logistic_instance(3, 4, 5, seed=3, ridge=0.2)[0]))

    @pytest.mark.parametrize("build, digest", [
        (lambda: make_lasso_instance(100, 3, 50, 0.1, 1)[0], "4b8b1e18b3b46236"),
        (lambda: make_logistic_instance(100, 8, 50, 1)[0], "bcf441f2464b5686"),
        (lambda: make_logistic_instance(50, 8, 10, 1, ridge=0.1)[0], "9a0a7ce6f072fb48"),
        (lambda: make_quadratic_instance(100, 50, 1), "05d786553b744eec"),
        (lambda: CompositeObjective([ZeroSmooth(4)] * 3, [0.1, 0.2, 0.3]), "7914a62780ea495c"),
    ], ids=["lasso", "logistic", "ridge-logistic", "quadratic", "zero"])
    def test_pinned_digest(self, build, digest):
        # the digest names the reference files written under cache/
        assert instance_hash(build()) == digest

    def test_zero_objectives_of_different_dimension_differ(self):
        a = CompositeObjective([ZeroSmooth(3), ZeroSmooth(3)], [0.0, 0.0])
        b = CompositeObjective([ZeroSmooth(4), ZeroSmooth(4)], [0.0, 0.0])
        assert instance_hash(a) != instance_hash(b)
