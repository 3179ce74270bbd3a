"""Tests for trace post-processing and the ergodic rate certificate."""

import numpy as np
import pytest

from conftest import lasso_run_config, logistic_run_config, quadratic_run_config
from etdopt.engine import RunTrace, TraceRecord, run, suggested_stepsizes
from etdopt.graph import Graph, laplacian
from etdopt.metrics import (
    CertificateError,
    broadcast_summary,
    consensus_error,
    ergodic_average,
    ergodic_rate_certificate,
    ergodic_series,
    objective_gap,
    primal_residual,
    rate_fit,
    signed_objective_gap,
)
from etdopt.objective import (
    CompositeObjective,
    LeastSquaresLoss,
    ScaledL1,
    quadratic_minimizer,
)
from etdopt.reference import solve_centralized


def synthetic_trace(snapshots):
    """Trace with prescribed per-round primal stacks and exact running sums."""
    trace = RunTrace(config=None, instance_digest="synthetic")
    total = np.zeros_like(snapshots[0])
    for k, x in enumerate(snapshots):
        if k > 0:
            total = total + x
        trace.records.append(
            TraceRecord(
                k=k,
                broadcasts=np.ones(x.shape[0], dtype=np.uint8),
                x=np.asarray(x, dtype=np.float64),
                z=np.zeros_like(x),
                ergodic_sum=total.copy(),
            )
        )
    return trace


def scalar_lasso_objective():
    return CompositeObjective(
        [LeastSquaresLoss(np.array([[1.0]]), np.array([3.0]))],
        [ScaledL1(1.0, 1)],
        {"kind": "lasso", "n": 1, "p": 1, "m": 1, "tau": 1.0, "seed": 0},
    )


class TestErgodicAverage:
    def test_constant_trajectory(self):
        c = np.full((3, 2), 1.7)
        trace = synthetic_trace([c] * 6)
        assert np.allclose(ergodic_average(trace, 5), c)

    def test_scalar_ramp_mean(self):
        snaps = [np.array([[float(k)]]) for k in range(0, 5)]
        trace = synthetic_trace(snaps)
        assert ergodic_average(trace, 4)[0, 0] == pytest.approx(2.5)

    def test_matches_direct_recomputation(self):
        cfg = lasso_run_config(n=6, rounds=80, schedule="poly:1:1.2")
        trace = run(cfg)
        t = 80
        direct = np.zeros((6, 5))
        for k in range(1, t + 1):
            direct += trace.x_at(k)
        direct /= t
        assert np.max(np.abs(ergodic_average(trace, t) - direct)) <= 1e-14

    def test_out_of_range_rejected(self):
        trace = synthetic_trace([np.zeros((2, 1))] * 3)
        with pytest.raises(ValueError):
            ergodic_average(trace, 0)
        with pytest.raises(ValueError):
            ergodic_average(trace, 3)


class TestConsensusError:
    def test_uniform_rows_give_zero(self):
        lap = laplacian(Graph.from_edges(3, [(0, 1), (1, 2)]))
        v = np.tile(np.array([2.0, -1.0]), (3, 1))
        assert consensus_error(lap, v) == 0.0

    def test_pair_value_from_matrix_product_oracle(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = np.array([[1.0], [0.0]])
        expected = float(np.sqrt(v[:, 0] @ (lap @ v[:, 0])))  # explicit 2x2 product
        assert expected == pytest.approx(1.0)
        assert consensus_error(lap, v) == pytest.approx(expected, abs=1e-15)

    def test_matches_eigendecomposition_square_root(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        lap = laplacian(g)
        w, vecs = np.linalg.eigh(lap)
        sqrt_lap = vecs @ np.diag(np.sqrt(np.clip(w, 0, None))) @ vecs.T
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 3))
        assert consensus_error(lap, v) == pytest.approx(
            float(np.linalg.norm(sqrt_lap @ v)), abs=1e-12
        )


class TestObjectiveGap:
    def test_replicated_optimum_gap_is_solver_level(self):
        obj = scalar_lasso_objective()
        sol = solve_centralized(obj, tol=1e-12)
        v = sol.x_star[None, :]
        assert objective_gap(obj, v, sol.f_star) <= 1e-12

    def test_origin_gap_on_scalar_problem(self):
        obj = scalar_lasso_objective()
        # F(0) = 4.5 and F* = 2.5
        assert objective_gap(obj, np.zeros((1, 1)), 2.5) == pytest.approx(2.0)

    def test_nonnegative(self):
        obj = scalar_lasso_objective()
        assert objective_gap(obj, np.array([[5.0]]), 100.0) >= 0.0
        assert signed_objective_gap(obj, np.array([[5.0]]), 100.0) < 0.0


class TestPrimalResidual:
    def test_round_zero_is_one(self):
        trace = synthetic_trace([np.zeros((3, 2)), np.ones((3, 2))])
        x_star = np.array([4.0, -1.0])
        assert primal_residual(trace, 0, x_star) == pytest.approx(1.0)

    def test_zero_denominator_rejected(self):
        x_star = np.array([1.0, 2.0])
        trace = synthetic_trace([np.tile(x_star, (3, 1))])
        with pytest.raises(ValueError):
            primal_residual(trace, 0, x_star)

    def test_converged_run_residual_small(self):
        cfg = quadratic_run_config(n=8, m=3, seed=4, rounds=2500, schedule="exp:1:0.9")
        trace = run(cfg)
        from etdopt.objective import quadratic_minimizer

        x_star = quadratic_minimizer(cfg.objective)
        assert primal_residual(trace, 2500, x_star) <= 1e-4
        assert primal_residual(trace, 0, x_star) == pytest.approx(1.0)


class TestBroadcastSummary:
    def test_periodic_two_over_ten_rounds(self):
        cfg = lasso_run_config(n=4, rounds=10, schedule="everyN:2")
        summary = broadcast_summary(run(cfg))
        assert np.all(summary.totals == 6)  # round 0 plus rounds 2,4,...,10

    def test_always_broadcast_counts(self):
        cfg = lasso_run_config(n=4, rounds=15, schedule="zero")
        summary = broadcast_summary(run(cfg))
        assert np.all(summary.totals == 16)

    def test_frozen_schedule_counts_stay_one(self):
        from etdopt.trigger import polynomial

        cfg = lasso_run_config(n=4, rounds=15, schedule="zero")
        cfg.schedule = polynomial(float("inf"), 2.0)
        summary = broadcast_summary(run(cfg))
        assert np.all(summary.totals == 1)

    def test_cumulative_curve_monotone(self):
        cfg = lasso_run_config(n=5, rounds=30, schedule="poly:1:1.2")
        summary = broadcast_summary(run(cfg))
        assert np.all(np.diff(summary.cumulative, axis=0) >= 0)


class TestRateFit:
    def test_exact_power_law(self):
        series = [(t, 3.0 / t) for t in range(1, 40)]
        fit = rate_fit(series, model="loglog")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_geometric_decay(self):
        rho = 0.93
        series = [(t, 2.0 * rho**t) for t in range(1, 40)]
        fit = rate_fit(series, model="semilog")
        assert fit.slope == pytest.approx(np.log(rho), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law_slope_near_minus_one(self):
        rng = np.random.default_rng(7)
        series = [
            (t, (5.0 / t) * (1.0 + 0.01 * rng.standard_normal())) for t in range(1, 500)
        ]
        fit = rate_fit(series, model="loglog")
        assert -1.1 <= fit.slope <= -0.9
        assert fit.r_squared >= 0.9

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            rate_fit([(t, 1.0 / t) for t in range(1, 6)])

    def test_nonpositive_values_rejected(self):
        series = [(t, 1.0 / t) for t in range(1, 20)]
        series[3] = (4, 0.0)
        with pytest.raises(ValueError):
            rate_fit(series)


class TestErgodicRateCertificate:
    def make_run(self, schedule="poly:1:1.2", rounds=400, n=10, **kwargs):
        cfg = lasso_run_config(n=n, m=5, rounds=rounds, schedule=schedule, **kwargs)
        trace = run(cfg)
        reference = solve_centralized(cfg.objective, tol=1e-12)
        return cfg, trace, reference

    def test_trigger_gain_floor_at_one(self):
        # triangle Laplacian: 2 * beta * max-eig = 0.6 < 1
        cfg = lasso_run_config(n=3, m=2, rounds=30, schedule="poly:1:1.2", graph_r=1.0)
        cfg.beta = 0.1
        trace = run(cfg)
        reference = solve_centralized(cfg.objective, tol=1e-12)
        cert = ergodic_rate_certificate(cfg, trace, reference)
        assert cert.trigger_gain == pytest.approx(1.0)

    def test_zero_schedule_budget_is_zero(self):
        cfg, trace, reference = self.make_run(schedule="zero", rounds=50)
        cert = ergodic_rate_certificate(cfg, trace, reference)
        assert np.all(cert.error_budget == 0.0)

    def test_bounds_hold_on_triggered_run(self):
        cfg, trace, reference = self.make_run(schedule="poly:1:1.2", rounds=2000)
        cert = ergodic_rate_certificate(cfg, trace, reference)
        assert cert.consensus_ok
        assert cert.objective_ok
        assert cert.t_values[-1] == 2000

    def test_radius_must_exceed_dual_norm(self):
        cfg, trace, reference = self.make_run(rounds=30)
        with pytest.raises(CertificateError):
            ergodic_rate_certificate(cfg, trace, reference, dual_radius=0.0)

    def test_periodic_schedule_rejected(self):
        cfg, trace, reference = self.make_run(schedule="everyN:2", rounds=30)
        with pytest.raises(CertificateError):
            ergodic_rate_certificate(cfg, trace, reference)

    def test_nonzero_initial_dual_rejected(self):
        cfg = lasso_run_config(n=5, m=3, rounds=20, schedule="zero")
        z0 = np.random.default_rng(1).standard_normal((5, 3))
        cfg.z0 = z0 - z0.mean(axis=0)  # keep the column sums at zero
        trace = run(cfg)
        reference = solve_centralized(cfg.objective, tol=1e-12)
        with pytest.raises(CertificateError):
            ergodic_rate_certificate(cfg, trace, reference)

    def test_oversized_network_rejected(self):
        cfg, trace, reference = self.make_run(rounds=10, n=70)
        with pytest.raises(CertificateError):
            ergodic_rate_certificate(cfg, trace, reference)

    def test_reads_the_series_it_is_given(self):
        cfg, trace, reference = self.make_run(rounds=60)
        series = ergodic_series(trace, cfg.objective, laplacian(cfg.graph), reference.f_star)
        assert np.array_equal(series.objective_gap, np.abs(series.signed_gap))
        own = ergodic_rate_certificate(cfg, trace, reference)
        given = ergodic_rate_certificate(cfg, trace, reference, series=series)
        assert np.array_equal(own.objective_measured, series.signed_gap[1:])
        assert np.array_equal(given.consensus_measured, series.consensus_error[1:])
        assert own.to_text() == given.to_text()

    def test_report_text_shape(self):
        cfg, trace, reference = self.make_run(rounds=50)
        cert = ergodic_rate_certificate(cfg, trace, reference)
        text = cert.to_text()
        assert "consensus_bound_holds 1" in text
        assert "trigger_gain" in text


class TestEmpiricalRegularities:
    def test_gap_mostly_nonincreasing_after_burn_in(self):
        cfg = lasso_run_config(n=10, m=5, rounds=600, schedule="poly:1:1.2")
        trace = run(cfg)
        reference = solve_centralized(cfg.objective, tol=1e-12)
        gaps = [
            objective_gap(cfg.objective, ergodic_average(trace, t), reference.f_star)
            for t in range(51, 601)
        ]
        drops = sum(1 for a, b in zip(gaps, gaps[1:]) if b <= a + 1e-15)
        assert drops / (len(gaps) - 1) >= 0.9

    def test_summable_schedule_broadcasts_at_most_zero_schedule(self):
        kwargs = dict(n=8, m=4, rounds=300)
        triggered = broadcast_summary(run(lasso_run_config(schedule="poly:1:1.2", **kwargs)))
        always = broadcast_summary(run(lasso_run_config(schedule="zero", **kwargs)))
        assert triggered.totals.sum() <= always.totals.sum()


class TestLinearRateUnderStrongConvexity:
    """The paper's linear-rate claim: on a strongly convex smooth problem,
    with exponentially decaying thresholds and the strongly-convex
    stepsizes, the primal residual decays geometrically. Semilog fits of
    these runs measured slopes -0.108 (quadratic) and -0.033 (logistic),
    both with R^2 above 0.99."""

    R_SQUARED_FLOOR = 0.95

    @pytest.mark.parametrize("kind", ["quadratic", "ridge-logistic"])
    def test_primal_residual_decays_geometrically(self, kind):
        if kind == "quadratic":
            rounds = 200
            cfg = quadratic_run_config(n=10, m=3, seed=2, rounds=rounds, schedule="exp:1:0.9",
                                       regime="strongly-convex")
            x_star = quadratic_minimizer(cfg.objective)
        else:
            rounds = 500
            cfg = logistic_run_config(n=10, m_i=8, m=5, seed=1, ridge=1.0, rounds=rounds,
                                      schedule="exp:1:0.9", graph_r=0.5)
            cfg.eta, cfg.beta = suggested_stepsizes(cfg.graph, cfg.objective,
                                                    regime="strongly-convex")
            x_star = solve_centralized(cfg.objective, tol=1e-12).x_star
        trace = run(cfg)
        assert trace.stepsize_margin > 0.0
        residuals = [(k, primal_residual(trace, k, x_star)) for k in range(1, rounds + 1)]
        fit = rate_fit(residuals, model="semilog")
        assert fit.slope < 0.0
        assert fit.r_squared >= self.R_SQUARED_FLOOR
