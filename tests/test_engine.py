"""Tests for the synchronous round loop, checked against the matrix form of
the iteration."""

import numpy as np
import pytest

from conftest import (
    consensus_run_config,
    drive_states,
    lasso_run_config,
    matrix_lalm_step,
    max_relative_deviation,
    pure_l1_run_config,
    quadratic_run_config,
)
from etdopt.engine import (
    ConfigError,
    DivergenceError,
    RunConfig,
    dual_step,
    initial_state,
    primal_step,
    run,
    run_round,
    state_broadcast,
    state_dual,
    state_primal,
    suggested_stepsizes,
)
from etdopt.graph import Graph
from etdopt.objective import (
    CompositeObjective,
    DiagonalQuadraticLoss,
    LeastSquaresLoss,
    ZeroSmooth,
    make_quadratic_instance,
    soft_threshold,
)
from etdopt.reference import dual_from_reference, solve_centralized
from etdopt.trigger import parse_schedule, row_norms, threshold


def round_flags(trace):
    """(rounds+1, n) broadcast flags, one row per trace record."""
    return np.stack([rec.broadcasts for rec in trace.records])


def k2_graph():
    return Graph.from_edges(2, [(0, 1)])


def p3_graph():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


ISOLATED = np.zeros((1, 1))  # Laplacian of a single agent
K2_LAP = k2_graph().laplacian
P3_LAP = p3_graph().laplacian


def agents(smooth, tau=None):
    """Objective of len(smooth) agents; zero l1 weights unless given."""
    return CompositeObjective(smooth, np.zeros(len(smooth)) if tau is None else tau)


def rows(*values):
    return np.array(values, dtype=np.float64).reshape(len(values), -1)


def coupling(lap, tilde, beta):
    """The coupling term the state carries: beta L x_tilde."""
    return beta * (lap @ tilde)


class TestLaplacianDisagreement:
    """beta * L x_tilde, read off the dual step from z = 0 with beta = 1."""

    def test_consensus_gives_zero(self):
        tilde = np.array([[1.5, 1.5], [1.5, 1.5]])
        out = dual_step(np.zeros((2, 2)), coupling(K2_LAP, tilde, 1.0))
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_pair_difference(self):
        out = dual_step(np.zeros((2, 1)), coupling(K2_LAP, rows(1.0, 0.0), 1.0))
        assert out[0] == pytest.approx([1.0])

    def test_path_middle_node(self):
        # row 1 collects (own copy - neighbor copy) over both neighbors
        out = dual_step(np.zeros((3, 1)), coupling(P3_LAP, rows(1.0, 0.0, 1.0), 1.0))
        assert out[1] == pytest.approx([-2.0])


class TestPrimalSteps:
    def test_composite_isolated_shrinkage(self):
        # f = 0.5 (x-3)^2 at x=3 has zero gradient; prox of |.| moves 3 to 2
        obj = agents([LeastSquaresLoss(np.array([[1.0]]), np.array([3.0]))], [1.0])
        out = primal_step(obj, rows(3.0), rows(0.0), coupling(ISOLATED, rows(3.0), 0.5), np.ones(1))
        assert out == pytest.approx(soft_threshold(rows(3.0), 1.0))

    def test_composite_with_zero_regularizer_matches_smooth(self, rng):
        # a smooth objective takes the plain linearized step, bitwise
        obj = make_quadratic_instance(n=2, m=4, seed=1)
        x, z, tilde = (rng.standard_normal((2, 4)) for _ in range(3))
        eta = np.array([2.0, 3.0])
        out = primal_step(obj, x, z, coupling(K2_LAP, tilde, 0.7), eta)
        plain = x - (z + obj.gradient_stack(x) + 0.7 * (K2_LAP @ tilde)) / eta[:, None]
        assert np.array_equal(out, plain)

    def test_smooth_scalar_example(self):
        # isolated agent, f = 0.5 x^2: step from 2 with unit weight lands at 0
        obj = agents([DiagonalQuadraticLoss(np.ones(1), np.zeros(1))])
        out = primal_step(obj, rows(2.0), rows(0.0), coupling(ISOLATED, rows(2.0), 1.0), np.ones(1))
        assert out == pytest.approx(rows(0.0))

    def test_smooth_pair_averaging(self):
        obj = agents([ZeroSmooth(1), ZeroSmooth(1)])
        x = rows(1.0, 0.0)
        out = primal_step(obj, x, np.zeros((2, 1)), coupling(K2_LAP, x, 0.5), np.ones(2))
        assert out == pytest.approx(rows(0.5, 0.5))

    def test_smooth_consensus_fixed_point(self):
        obj = agents([ZeroSmooth(1), ZeroSmooth(1)])
        x = rows(1.0, 1.0)
        out = primal_step(obj, x, np.zeros((2, 1)), coupling(K2_LAP, x, 0.3), np.ones(2))
        assert out == pytest.approx(x)

    def test_nonsmooth_shrinkage(self):
        obj = agents([ZeroSmooth(1)], [1.0])
        out = primal_step(obj, rows(3.0), rows(0.0), coupling(ISOLATED, rows(3.0), 0.5), np.ones(1))
        assert out == pytest.approx(rows(2.0))

    def test_nonsmooth_zero_regularizer_identity(self):
        obj = agents([ZeroSmooth(1)])
        out = primal_step(obj, rows(1.3), rows(0.0), coupling(ISOLATED, rows(1.3), 0.5), np.ones(1))
        assert out == pytest.approx(rows(1.3))

    def test_nonsmooth_dual_shift(self):
        eta, delta = 2.0, 0.4
        obj = agents([ZeroSmooth(1)])
        out = primal_step(obj, rows(1.0), rows(eta * delta), coupling(ISOLATED, rows(1.0), 0.5),
                          np.full(1, eta))
        assert out == pytest.approx(rows(1.0 - delta))

    def test_mixed_regularizers_per_row(self):
        # row 0 carries an l1 weight, row 1 none; neither row sees the other's
        obj = agents([ZeroSmooth(1), ZeroSmooth(1)], [1.0, 0.0])
        x = rows(3.0, 3.0)
        out = primal_step(obj, x, np.zeros((2, 1)), coupling(K2_LAP, x, 0.5), np.ones(2))
        assert out == pytest.approx(rows(2.0, 3.0))

    def test_composite_fixed_point_at_optimum(self):
        obj = make_quadratic_instance(n=4, m=3, seed=5)
        sol = solve_centralized(obj)
        z_star = dual_from_reference(obj, sol.x_star)
        x = np.tile(sol.x_star, (4, 1))
        lap = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).laplacian
        out = primal_step(obj, x, z_star, coupling(lap, x, 0.5), np.full(4, 2.0))
        assert np.allclose(out, x, atol=1e-12)


class TestDualStep:
    def test_consensus_leaves_dual_unchanged(self):
        z = np.array([[0.7, -0.2], [0.1, 0.3]])
        tilde = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(dual_step(z, coupling(K2_LAP, tilde, 0.8)), z)

    def test_pair_antisymmetric_update(self):
        out = dual_step(np.zeros((2, 1)), coupling(K2_LAP, rows(1.0, 0.0), 1.0))
        assert out == pytest.approx(rows(1.0, -1.0))

    def test_dual_sum_conserved_over_run(self):
        cfg = lasso_run_config(n=6, rounds=50, schedule="poly:1:1.5")
        for state in drive_states(cfg):
            z = state.z
            assert np.max(np.abs(z.sum(axis=0))) <= 1e-9 * max(np.max(np.abs(z)), 1e-300) * 6


class TestRunRound:
    def test_zero_schedule_matches_matrix_step(self):
        cfg = lasso_run_config(n=6, m=4, rounds=0, schedule="zero")
        state = initial_state(cfg)
        lap = cfg.graph.laplacian
        x, z = state_primal(state), state_dual(state)
        for _ in range(5):
            state = run_round(state, cfg)
            x, z = matrix_lalm_step(x, z, cfg.objective, lap, cfg.eta, cfg.beta)
            assert max_relative_deviation(state_primal(state), x) <= 1e-12
            assert max_relative_deviation(state_dual(state), z) <= 1e-12

    def test_infinite_threshold_freezes_broadcasts(self):
        cfg = lasso_run_config(n=5, rounds=20, schedule="zero")
        # No deviation comes near this threshold (an infinite base is rejected).
        cfg.schedule = parse_schedule("poly:1e300:2")
        trace = run(cfg)
        assert np.all(trace.cumulative_broadcasts()[-1] == 1)
        assert np.array_equal(state_broadcast(trace.final_state), trace.x0)

    def test_pure_consensus_conserves_column_sums(self):
        cfg = consensus_run_config(n=10, m=2, rounds=300, schedule="poly:0.5:1.3")
        states = drive_states(cfg)
        start = states[0].x.sum(axis=0)
        for state in states:
            drift = np.max(np.abs(state.x.sum(axis=0) - start))
            assert drift <= 1e-12

    def test_every_n_modulus_rule(self):
        cfg = lasso_run_config(n=4, rounds=10, schedule="everyN:2")
        trace = run(cfg)
        flags = round_flags(trace)
        for k in range(11):
            expected = 1 if (k % 2 == 0) else 0
            assert np.all(flags[k] == expected)
        assert np.all(trace.cumulative_broadcasts()[-1] == 6)

    @pytest.mark.parametrize("schedule", ["poly:1:1.2", "exp:1:0.9", "everyN:3", "zero"])
    def test_round_flags_sum_to_final_counts(self, schedule):
        trace = run(lasso_run_config(n=6, rounds=40, schedule=schedule))
        flags = round_flags(trace)
        cumulative = trace.cumulative_broadcasts()
        assert cumulative.shape == (41, 6) and cumulative.dtype == np.int64
        assert np.array_equal(cumulative, np.cumsum(flags, axis=0))
        assert np.array_equal(flags[-1], trace.final_state.fired)


class TestCarriedCoupling:
    @pytest.mark.parametrize("schedule", ["poly:1:1.2", "exp:1:0.9", "everyN:2", "zero"])
    def test_coupling_is_the_product_of_the_copies(self, schedule):
        cfg = lasso_run_config(n=6, rounds=60, schedule=schedule)
        states = drive_states(cfg)
        lap = cfg.graph.laplacian
        assert np.array_equal(states[0].coupling, cfg.beta * (lap @ states[0].x_tilde))
        quiet = 0
        for previous, state in zip(states, states[1:]):
            assert np.array_equal(state.x_tilde[state.fired], state.x[state.fired])
            assert np.array_equal(state.coupling, cfg.beta * (lap @ state.x_tilde))
            if not state.fired.any():
                quiet += 1
                assert state.x_tilde is previous.x_tilde
                assert state.coupling is previous.coupling
        if schedule == "everyN:2":
            assert quiet == 30
        elif schedule != "zero":
            assert quiet > 0


class TestMatrixStep:
    def test_trajectory_equivalence_lasso(self):
        cfg = lasso_run_config(n=10, m=5, rounds=100, schedule="zero", seed=1)
        states = drive_states(cfg)
        assert states[-1].round == 100
        lap = cfg.graph.laplacian
        x, z = states[0].x, states[0].z
        for state in states[1:]:
            x, z = matrix_lalm_step(x, z, cfg.objective, lap, cfg.eta, cfg.beta)
            assert max_relative_deviation(state.x, x) <= 1e-12
            assert max_relative_deviation(state.z, z) <= 1e-12

    def test_single_node_decouples_to_proximal_gradient(self):
        obj = CompositeObjective(
            [LeastSquaresLoss(np.array([[1.0]]), np.array([3.0]))],
            [1.0],
        )
        lap = np.zeros((1, 1))
        eta = np.array([1.0])
        x, z = np.zeros((1, 1)), np.zeros((1, 1))
        x1, z1 = matrix_lalm_step(x, z, obj, lap, eta, beta=0.5)
        # plain proximal gradient step: prox_{|.|}(0 - (0 - 3)) = 2
        assert x1[0, 0] == pytest.approx(2.0)
        assert z1[0, 0] == 0.0

    def test_fixed_point_at_consensus_optimum(self):
        obj = make_quadratic_instance(n=5, m=2, seed=6)
        cfg = quadratic_run_config(n=5, m=2, seed=6, rounds=0)
        sol = solve_centralized(obj)
        x = np.tile(sol.x_star, (5, 1))
        z = dual_from_reference(obj, sol.x_star)
        x1, z1 = matrix_lalm_step(x, z, obj, cfg.graph.laplacian, cfg.eta, cfg.beta)
        assert np.allclose(x1, x, atol=1e-12)
        assert np.allclose(z1, z, atol=1e-12)


class TestRun:
    def test_zero_rounds_trace(self):
        cfg = lasso_run_config(n=4, rounds=0)
        trace = run(cfg)
        assert trace.completed_rounds == 0
        assert len(trace.records) == 1
        assert np.array_equal(trace.x0, np.zeros((4, 5)))

    def test_quadratic_converges_to_closed_form(self):
        cfg = quadratic_run_config(n=10, m=3, seed=2, rounds=3000, schedule="exp:1:0.9")
        trace = run(cfg)
        x_star = cfg.objective.stack.pooled().center
        assert trace.final_state.round == 3000
        err = np.max(np.linalg.norm(trace.final_state.x - x_star[None, :], axis=1))
        assert err <= 1e-6

    def test_repeat_runs_identical(self):
        for schedule in ("zero", "poly:1:1.2", "everyN:3"):
            a = run(lasso_run_config(n=5, rounds=40, schedule=schedule))
            b = run(lasso_run_config(n=5, rounds=40, schedule=schedule))
            assert np.array_equal(a.final_state.x, b.final_state.x)
            assert np.array_equal(a.final_state.z, b.final_state.z)
            assert np.array_equal(a.cumulative_broadcasts(), b.cumulative_broadcasts())
            states_a = drive_states(lasso_run_config(n=5, rounds=40, schedule=schedule))
            states_b = drive_states(lasso_run_config(n=5, rounds=40, schedule=schedule))
            for sa, sb in zip(states_a, states_b, strict=True):
                assert np.array_equal(sa.x, sb.x)
                assert np.array_equal(sa.z, sb.z)

    def test_record_count_and_flags(self):
        cfg = lasso_run_config(n=4, rounds=25, schedule="poly:5:1.4")
        trace = run(cfg)
        assert len(trace.records) == 26
        flags = round_flags(trace)
        assert np.all(flags[0] == 1)
        assert flags.min() >= 0 and flags.max() <= 1

    def test_no_per_round_arrays_beyond_round_zero(self):
        cfg = lasso_run_config(n=6, rounds=500, schedule="poly:1:1.2")
        trace = run(cfg)
        assert trace.completed_rounds == 500
        first, *rest = trace.records
        assert first.x is not None and first.z is not None
        assert all(rec.x is None and rec.z is None and rec.ergodic_sum is None for rec in rest)
        assert all(rec.broadcasts.nbytes == 6 for rec in trace.records)

    def test_observer_sees_every_state_in_order(self):
        cfg = lasso_run_config(n=5, rounds=30, schedule="poly:1:1.2")
        seen = []
        trace = run(cfg, observe=seen.append)
        assert [s.round for s in seen] == list(range(31))
        assert seen[-1] is trace.final_state
        for observed, driven in zip(seen, drive_states(cfg), strict=True):
            assert np.array_equal(observed.x, driven.x)
            assert np.array_equal(observed.z, driven.z)

    def test_divergence_flagged_with_partial_trace(self):
        cfg = quadratic_run_config(n=6, m=2, seed=3, rounds=500, schedule="zero",
                                   enforce_stepsize=False)
        cfg.eta = np.full(6, 1e-3)  # badly undersized weights blow up
        state = initial_state(cfg)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            for _ in range(cfg.rounds):
                state = run_round(state, cfg)
        assert (err.value.round, err.value.agent) == (88, 0)
        with pytest.warns(UserWarning):
            trace = run(cfg)
        assert trace.diverged
        assert (trace.diverged_round, trace.diverged_agent) == (88, 0)
        assert trace.completed_rounds == trace.final_state.round == 87
        assert np.array_equal(state_primal(trace.final_state), state_primal(state))
        assert np.array_equal(state_dual(trace.final_state), state_dual(state))
        assert not trace.broadcast_flags[88:].any()
        with pytest.raises(AttributeError):
            trace.diverged_round = None

    def test_trigger_bound_holds_every_round(self):
        for schedule in ("poly:2:1.3", "exp:1:0.92", "zero"):
            cfg = lasso_run_config(n=6, rounds=120, schedule=schedule)
            trace = run(cfg)
            assert trace.max_trigger_slack is not None
            assert trace.max_trigger_slack <= 0.0
            sched = cfg.schedule
            # spot-check directly at the final state
            final = trace.final_state
            dev = row_norms(state_primal(final) - state_broadcast(final))
            for i in range(6):
                assert dev[i] <= threshold(sched, final.round) + 0.0

    @pytest.mark.parametrize("schedule", ["poly:0.05:1.2", "exp:1:0.92", "zero", "everyN:3"])
    def test_state_slack_is_the_deviation_after_broadcast(self, schedule):
        cfg = lasso_run_config(n=6, rounds=60, schedule=schedule)
        states = drive_states(cfg)
        assert states[0].trigger_slack is None
        worst = -np.inf
        for state in states[1:]:
            if not cfg.schedule.is_event_rule:
                assert state.trigger_slack is None
                continue
            dev = row_norms(state.x - state.x_tilde) - threshold(cfg.schedule, state.round)
            assert np.array_equal(state.trigger_slack, dev)
            worst = max(worst, float(np.max(dev)))
        if cfg.schedule.is_event_rule:
            assert run(cfg).max_trigger_slack == worst

    def test_dual_imbalance_small(self):
        cfg = lasso_run_config(n=8, rounds=150, schedule="poly:1:1.2")
        trace = run(cfg)
        assert trace.max_dual_imbalance <= 1e-9

    def test_nonsmooth_variant_runs_and_matches_matrix_path(self):
        cfg = pure_l1_run_config(n=6, m=3, rounds=60, schedule="zero")
        trace = run(cfg)
        assert trace.completed_rounds == 60
        states = drive_states(cfg)
        assert states[-1].round == 60
        lap = cfg.graph.laplacian
        x, z = states[0].x, states[0].z
        for state in states[1:]:
            x, z = matrix_lalm_step(x, z, cfg.objective, lap, cfg.eta, cfg.beta)
            assert max_relative_deviation(state.x, x) <= 1e-12
            assert max_relative_deviation(state.z, z) <= 1e-12

    def test_primal_step_prox_inclusion_along_run(self):
        cfg = lasso_run_config(n=5, rounds=30, schedule="poly:1:1.2")
        trace = run(cfg)
        # recompute one step from the final state and verify the prox optimality
        state = trace.final_state
        lap = cfg.graph.laplacian
        grad = np.stack([f.gradient(state.x[i]) for i, f in enumerate(cfg.objective.smooth)])
        v = state.x - (state.z + grad + cfg.beta * (lap @ state.x_tilde)) / cfg.eta[:, None]
        for i in range(5):
            tau = cfg.objective.tau[i]
            x_plus = soft_threshold(v[i], tau / cfg.eta[i])
            s = cfg.eta[i] * (v[i] - x_plus)
            for j in range(cfg.m):
                if x_plus[j] != 0.0:
                    assert abs(s[j] - tau * np.sign(x_plus[j])) <= 1e-10
                else:
                    assert abs(s[j]) <= tau + 1e-10


class TestConfigValidation:
    def test_negative_beta_rejected(self):
        cfg = lasso_run_config(n=4, rounds=1)
        cfg.beta = -1.0
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("name, value", [
        ("beta", float("nan")), ("beta", float("inf")),
        ("eta", float("nan")), ("eta", float("inf")),
    ])
    def test_non_finite_stepsize_rejected(self, name, value):
        # Unchecked, these reach the spectral margin, where LAPACK returns a
        # finite but wrong spectrum for a NaN entry and NaN for an infinite one.
        cfg = lasso_run_config(n=6, rounds=1, enforce_stepsize=False)
        if name == "beta":
            cfg.beta = value
        else:
            cfg.eta = np.full(6, value)
        with pytest.raises(ConfigError, match="finite"):
            cfg.validate()

    def test_disconnected_graph_rejected(self):
        cfg = lasso_run_config(n=4, rounds=1)
        cfg.graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_stepsize_violation_enforced(self):
        cfg = lasso_run_config(n=4, rounds=1)
        cfg.eta = np.full(4, 1e-6)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_stepsize_violation_warns_when_not_enforced(self):
        cfg = lasso_run_config(n=4, rounds=1, enforce_stepsize=False)
        cfg.eta = np.full(4, 1e-6)
        with pytest.warns(UserWarning):
            cfg.validate()

    def test_bad_x0_shape_rejected(self):
        cfg = lasso_run_config(n=4, rounds=1)
        cfg.x0 = np.zeros((3, 5))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_suggested_stepsizes_pass_check(self):
        cfg = lasso_run_config(n=9, rounds=0)
        margin, strong_margin = cfg.validate()
        assert margin > 0
        assert strong_margin is None  # the lasso's moduli are zero

    def test_margins_match_eigenvalues(self):
        cfg = quadratic_run_config(n=8, m=3, seed=4, rounds=0, regime="strongly-convex")
        margin, strong_margin = cfg.validate()
        lap = cfg.graph.laplacian
        lf, mu = cfg.objective.lipschitz(), cfg.objective.strong_convexity()
        weight = np.diag(cfg.eta) - cfg.beta * lap
        assert margin == pytest.approx(np.linalg.eigvalsh(weight - np.diag(lf))[0], abs=1e-12)
        expected = np.linalg.eigvalsh(weight - np.diag(lf**2) / np.min(mu))[0]
        assert strong_margin == pytest.approx(expected, abs=1e-12)
        assert strong_margin < margin

    def test_margins_recorded_on_trace(self):
        cfg = quadratic_run_config(n=6, m=2, seed=5, rounds=3)
        trace = run(cfg)
        assert (trace.stepsize_margin, trace.strong_convexity_margin) == cfg.validate()
