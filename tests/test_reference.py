"""Tests for the centralized solver, dual recovery, and optimality residuals."""

import numpy as np
import pytest

from etdopt.graph import Graph, generate_random_graph, laplacian_norm
from etdopt.objective import (
    CompositeObjective,
    LeastSquaresLoss,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
    soft_threshold,
)
from etdopt.reference import (
    dual_from_reference,
    kkt_residual,
    solve_centralized,
)


def quadratic_closed_form(obj):
    """(sum of diagonals)^-1 (weighted center sum), from the per-agent parts."""
    diag = np.array([part.diag for part in obj.smooth])
    center = np.array([part.center for part in obj.smooth])
    return (diag * center).sum(axis=0) / diag.sum(axis=0)


def scalar_lasso_objective():
    """Single agent, min 0.5 (x - 3)^2 + |x|."""
    return CompositeObjective([LeastSquaresLoss(np.array([[1.0]]), np.array([3.0]))], [1.0])


class TestSolveCentralized:
    def test_scalar_shrinkage_problem(self):
        sol = solve_centralized(scalar_lasso_objective(), tol=1e-12)
        assert sol.x_star[0] == pytest.approx(2.0, abs=1e-10)
        assert sol.f_star == pytest.approx(2.5, abs=1e-10)
        assert sol.certified

    def test_quadratic_uses_closed_form(self):
        obj = make_quadratic_instance(n=8, m=5, seed=3)
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.iterations == 0
        assert np.allclose(sol.x_star, quadratic_closed_form(obj), atol=1e-14)
        assert sol.certified

    def test_iterative_path_matches_closed_form(self):
        # same quadratic instance expressed through the generic solver route
        obj = make_quadratic_instance(n=5, m=4, seed=4)
        as_least_squares = CompositeObjective(
            [
                LeastSquaresLoss(np.diag(np.sqrt(p.diag)), np.sqrt(p.diag) * p.center)
                for p in obj.smooth
            ],
            np.zeros(5),
        )
        sol = solve_centralized(as_least_squares, tol=1e-12)
        assert np.allclose(sol.x_star, quadratic_closed_form(obj), atol=1e-10)

    def test_huge_tolerance_returns_start(self):
        sol = solve_centralized(scalar_lasso_objective(), tol=1e9)
        assert sol.iterations == 0
        assert np.array_equal(sol.x_star, np.zeros(1))
        assert sol.certified

    def test_budget_exhaustion_not_certified(self):
        obj, _ = make_lasso_instance(n=4, p=3, m=6, tau=0.1, seed=5)
        sol = solve_centralized(obj, tol=1e-14, max_iter=3)
        assert not sol.certified
        assert sol.iterations == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve_centralized(scalar_lasso_objective(), max_iter=-1)

    @pytest.mark.parametrize("max_iter", [0, 3, 10, 1_000_000])
    def test_residual_is_that_of_the_returned_point(self, max_iter):
        # the prox-gradient mapping norm of x_star at the solver's step, 1/L
        # of the pooled loss, is the residual the solve reports
        obj, _ = make_lasso_instance(n=4, p=3, m=6, tau=0.1, seed=5)
        sol = solve_centralized(obj, tol=1e-10, max_iter=max_iter)
        pooled = obj.stack.pooled()
        step = 1.0 / pooled.lipschitz
        x = sol.x_star
        moved = soft_threshold(x - step * pooled.gradient(x), step * float(np.sum(obj.tau)))
        assert np.linalg.norm(x - moved) / step == pytest.approx(sol.solver_residual, rel=1e-12)
        assert sol.certified == (max_iter == 1_000_000)

    def test_objective_monotone_along_iterations(self):
        obj, _ = make_lasso_instance(n=3, p=2, m=4, tau=0.2, seed=6)
        values = [
            solve_centralized(obj, tol=0.0, max_iter=k).f_star for k in range(0, 40, 4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("build", [
        lambda: make_logistic_instance(20, 8, 10, seed=1)[0],
        lambda: make_quadratic_instance(20, 10, seed=2),
    ], ids=["logistic", "quadratic"])
    def test_gap_at_replicated_minimizer_is_exactly_zero(self, build):
        obj = build()
        sol = solve_centralized(obj)
        assert obj.stacked_value(np.tile(sol.x_star, (obj.n, 1))) - sol.f_star == 0.0

    def test_certified_residual_meets_tolerance(self):
        obj, _ = make_lasso_instance(n=5, p=3, m=8, tau=0.1, seed=7)
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.certified
        assert sol.solver_residual <= 1e-10


class TestPooledSolve:
    @pytest.mark.parametrize("kind", ["lasso", "ridge-logistic", "quadratic"])
    def test_pooled_gradient_matches_per_agent_sum(self, kind):
        if kind == "lasso":
            obj, _ = make_lasso_instance(n=20, p=3, m=7, tau=0.1, seed=2)
        elif kind == "ridge-logistic":
            obj, _ = make_logistic_instance(20, 6, 7, seed=2, ridge=0.2)
        else:
            obj = make_quadratic_instance(n=20, m=7, seed=2)
        pooled = obj.stack.pooled()
        rng = np.random.default_rng(5)
        for _ in range(5):
            theta = rng.standard_normal(obj.m)
            per_agent = sum(f.gradient(theta) for f in obj.smooth)
            got = pooled.gradient(theta)
            assert np.linalg.norm(got - per_agent) <= 1e-12 * np.linalg.norm(per_agent)

    @pytest.mark.parametrize("kind", ["lasso", "logistic", "ridge-logistic"])
    def test_pooled_bound_is_a_valid_lipschitz_constant(self, kind):
        if kind == "lasso":
            obj, _ = make_lasso_instance(n=20, p=3, m=7, tau=0.1, seed=3)
        else:
            ridge = 0.2 if kind == "ridge-logistic" else 0.0
            obj, _ = make_logistic_instance(20, 6, 7, seed=3, ridge=ridge)
        pooled = obj.stack.pooled()
        assert pooled.lipschitz <= float(np.sum(obj.lipschitz()))
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.standard_normal((2, obj.m)) * rng.uniform(0.01, 10.0)
            change = np.linalg.norm(pooled.gradient(a) - pooled.gradient(b))
            assert change <= pooled.lipschitz * np.linalg.norm(a - b) * (1 + 1e-12)

    def test_least_squares_bound_is_attained(self):
        # along the top right singular vector of the pooled A the gradient
        # changes by exactly L, so no longer step is safe
        obj, _ = make_lasso_instance(n=20, p=3, m=7, tau=0.1, seed=3)
        pooled = obj.stack.pooled()
        top = np.linalg.svd(pooled.a)[2][0]
        change = np.linalg.norm(pooled.gradient(top) - pooled.gradient(np.zeros(obj.m)))
        assert change == pytest.approx(pooled.lipschitz, rel=1e-12)

    def test_logistic_iteration_count_at_pooled_step(self):
        # 120 iterations with restarted momentum at the pooled loss's bound
        # 302.3 on this instance (n=100, 8 samples each, m=50, seed 1);
        # plain prox-gradient took 825 at that step, and 5,919 at the
        # per-agent sum 2,138, to the f* pinned here
        obj, _ = make_logistic_instance(100, 8, 50, seed=1)
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.certified
        assert sol.iterations == 120
        assert sol.f_star == pytest.approx(215.90050015841948, rel=1e-13)

    def test_lasso_iteration_count_at_pooled_step(self):
        # the tau = 0.01 lasso of TestNonDegenerateLasso: 40 iterations with
        # restarted momentum at the pooled bound; plain prox-gradient took
        # 73 at that step and 876 at the per-agent sum
        obj, _ = make_lasso_instance(100, 3, 50, tau=0.01, seed=1)
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.certified
        assert sol.iterations == 40
        assert sol.f_star == pytest.approx(43.92699346195383, rel=1e-13)

    def test_logistic_matches_damped_newton(self):
        # the logistic-compare instance against a Newton solve written here:
        # sigmoid through tanh, backtracking on the logaddexp objective
        obj, raw = make_logistic_instance(100, 8, 50, seed=1)
        feats = raw["features"].reshape(-1, obj.m)
        margin_rows = raw["labels"].reshape(-1)[:, None] * feats

        def value(x):
            return float(np.logaddexp(0.0, -margin_rows @ x).sum())

        x = np.zeros(obj.m)
        for _ in range(50):
            prob = 0.5 * (1.0 + np.tanh(0.5 * (margin_rows @ x)))
            grad = -margin_rows.T @ (1.0 - prob)
            if np.linalg.norm(grad) <= 1e-12:
                break
            hess = feats.T @ ((prob * (1.0 - prob))[:, None] * feats)
            direction = -np.linalg.solve(hess, grad)
            t, fx = 1.0, value(x)
            while value(x + t * direction) > fx + 0.25 * t * grad @ direction and t > 1e-10:
                t *= 0.5
            x = x + t * direction
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.certified
        assert np.max(np.abs(sol.x_star - x)) <= 1e-9
        assert sol.f_star == pytest.approx(value(x), rel=1e-13)

    def test_each_family_reaches_stationarity(self):
        for obj in (make_lasso_instance(n=6, p=3, m=4, tau=0.0, seed=2)[0],
                    make_logistic_instance(6, 5, 4, seed=2, ridge=0.2)[0],
                    make_quadratic_instance(n=6, m=4, seed=2)):
            sol = solve_centralized(obj, tol=1e-10)
            assert sol.certified
            total = sum(f.gradient(sol.x_star) for f in obj.smooth)
            assert np.linalg.norm(total) <= 1e-9


class TestDualRecovery:
    def test_rows_sum_to_zero(self):
        obj, _ = make_lasso_instance(n=6, p=3, m=5, tau=0.1, seed=8)
        sol = solve_centralized(obj, tol=1e-10)
        z_star = dual_from_reference(obj, sol.x_star)
        assert np.linalg.norm(z_star.sum(axis=0)) <= 1e-12

    def test_smooth_case_matches_negated_gradients(self):
        obj = make_quadratic_instance(n=4, m=3, seed=9)
        sol = solve_centralized(obj)
        z_star = dual_from_reference(obj, sol.x_star)
        grads = np.stack([p.gradient(sol.x_star) for p in obj.smooth])
        # total gradient vanishes at the optimum, so rows are just -grad rows
        assert np.allclose(z_star, -grads, atol=1e-10)


class TestKktResidual:
    def test_zero_at_exact_optimum(self):
        obj = make_quadratic_instance(n=5, m=3, seed=10)
        g = generate_random_graph(5, 0.6, seed=10)
        sol = solve_centralized(obj)
        x = np.tile(sol.x_star, (5, 1))
        z = dual_from_reference(obj, sol.x_star)
        assert kkt_residual(x, z, obj, g.laplacian) <= 1e-10

    def test_l1_case_small_at_optimum(self):
        obj, _ = make_lasso_instance(n=5, p=3, m=6, tau=0.1, seed=11)
        g = generate_random_graph(5, 0.6, seed=11)
        sol = solve_centralized(obj, tol=1e-12)
        x = np.tile(sol.x_star, (5, 1))
        z = dual_from_reference(obj, sol.x_star)
        assert kkt_residual(x, z, obj, g.laplacian) <= 10 * 1e-12 + 1e-11

    def test_non_consensus_dominates_laplacian_seminorm(self):
        obj = make_quadratic_instance(n=3, m=2, seed=12)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        lap = g.laplacian
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        z = np.zeros((3, 2))
        res = kkt_residual(x, z, obj, lap)
        assert res >= laplacian_norm(lap)(x)
        assert res > 0.0

