"""Tests for the centralized solver, dual recovery, and optimality residuals."""

import numpy as np
import pytest

from etdopt.graph import Graph, generate_random_graph, laplacian
from etdopt.objective import (
    CompositeObjective,
    DiagonalQuadraticLoss,
    LeastSquaresLoss,
    LogisticLoss,
    ScaledL1,
    ZeroNonsmooth,
    ZeroSmooth,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
    quadratic_minimizer,
)
from etdopt.reference import (
    _PooledSmooth,
    dual_from_reference,
    kkt_residual,
    solve_centralized,
)


def scalar_lasso_objective():
    """Single agent, min 0.5 (x - 3)^2 + |x|."""
    return CompositeObjective(
        [LeastSquaresLoss(np.array([[1.0]]), np.array([3.0]))],
        [ScaledL1(1.0, 1)],
        {"kind": "lasso", "n": 1, "p": 1, "m": 1, "tau": 1.0, "seed": 0},
    )


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
        assert np.allclose(sol.x_star, quadratic_minimizer(obj), atol=1e-14)
        assert sol.certified

    def test_iterative_path_matches_closed_form(self):
        # same quadratic instance expressed through the generic solver route
        obj = make_quadratic_instance(n=5, m=4, seed=4)
        as_least_squares = CompositeObjective(
            [
                LeastSquaresLoss(np.diag(np.sqrt(p.diag)), np.sqrt(p.diag) * p.center)
                for p in obj.smooth
            ],
            [ZeroNonsmooth(4) for _ in range(5)],
            {"kind": "lasso", "n": 5, "p": 4, "m": 4, "tau": 0.0, "seed": 4},
        )
        sol = solve_centralized(as_least_squares, tol=1e-12)
        assert np.allclose(sol.x_star, quadratic_minimizer(obj), atol=1e-10)

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

    def test_objective_monotone_along_iterations(self):
        obj, _ = make_lasso_instance(n=3, p=2, m=4, tau=0.2, seed=6)
        values = [
            solve_centralized(obj, tol=0.0, max_iter=k).f_star for k in range(0, 40, 4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_certified_residual_meets_tolerance(self):
        obj, _ = make_lasso_instance(n=5, p=3, m=8, tau=0.1, seed=7)
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.certified
        assert sol.solver_residual <= 1e-10


def mixed_family_objective():
    """Least-squares, ridge-logistic, diagonal-quadratic and zero parts on
    one decision vector."""
    rng = np.random.default_rng(3)
    m = 4
    labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    smooth = [
        LeastSquaresLoss(rng.standard_normal((3, m)), rng.standard_normal(3)),
        LogisticLoss(rng.standard_normal((5, m)), labels, ridge=0.3),
        DiagonalQuadraticLoss(rng.uniform(1.0, 2.0, m), rng.standard_normal(m)),
        LeastSquaresLoss(rng.standard_normal((2, m)), rng.standard_normal(2)),
        LogisticLoss(rng.standard_normal((5, m)), -labels, ridge=0.1),
        ZeroSmooth(m),
    ]
    return CompositeObjective(smooth, [ZeroNonsmooth(m) for _ in smooth])


class TestPooledSolve:
    @pytest.mark.parametrize("kind", ["lasso", "ridge-logistic", "mixed"])
    def test_pooled_gradient_matches_per_agent_sum(self, kind):
        if kind == "lasso":
            obj, _ = make_lasso_instance(n=20, p=3, m=7, tau=0.1, seed=2)
        elif kind == "ridge-logistic":
            obj, _ = make_logistic_instance(20, 6, 7, seed=2, ridge=0.2)
        else:
            obj = mixed_family_objective()
        pooled = _PooledSmooth(obj)
        rng = np.random.default_rng(5)
        for _ in range(5):
            theta = rng.standard_normal(obj.m)
            per_agent = sum(f.gradient(theta) for f in obj.smooth)
            got = pooled.gradient(theta)
            assert np.linalg.norm(got - per_agent) <= 1e-12 * np.linalg.norm(per_agent)

    def test_logistic_iteration_count_unchanged(self):
        # 5,919 iterations is the count of the per-agent gradient sum on
        # this instance (n=100, 8 samples each, m=50, seed 1)
        obj, _ = make_logistic_instance(100, 8, 50, seed=1)
        sol = solve_centralized(obj, tol=1e-10)
        assert sol.certified
        assert sol.iterations == 5919

    def test_mixed_family_reaches_stationarity(self):
        obj = mixed_family_objective()
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
        assert kkt_residual(x, z, obj, laplacian(g)) <= 1e-10

    def test_l1_case_small_at_optimum(self):
        obj, _ = make_lasso_instance(n=5, p=3, m=6, tau=0.1, seed=11)
        g = generate_random_graph(5, 0.6, seed=11)
        sol = solve_centralized(obj, tol=1e-12)
        x = np.tile(sol.x_star, (5, 1))
        z = dual_from_reference(obj, sol.x_star)
        assert kkt_residual(x, z, obj, laplacian(g)) <= 10 * 1e-12 + 1e-11

    def test_non_consensus_dominates_laplacian_seminorm(self):
        obj = make_quadratic_instance(n=3, m=2, seed=12)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        lap = laplacian(g)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        z = np.zeros((3, 2))
        from etdopt.graph import laplacian_quadratic_norm

        res = kkt_residual(x, z, obj, lap)
        assert res >= laplacian_quadratic_norm(lap, x)
        assert res > 0.0

