"""Shared builders for engine-level tests, and the stacked matrix form of the
iteration they check the engine against."""

import numpy as np
import pytest

from etdopt.engine import (
    RunConfig,
    initial_state,
    nonfinite_agent,
    run,
    run_round,
    suggested_stepsizes,
)
from etdopt.graph import generate_random_graph
from etdopt.metrics import ErgodicRecorder
from etdopt.objective import (
    CompositeObjective,
    ZeroSmooth,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
    soft_threshold,
)
from etdopt.trigger import parse_schedule


def lasso_run_config(n=10, p=3, m=5, tau=0.1, seed=1, schedule="zero", rounds=100,
                     graph_r=0.5, **kwargs):
    objective, _ = make_lasso_instance(n, p, m, tau, seed)
    graph = generate_random_graph(n, graph_r, seed)
    eta, beta = suggested_stepsizes(graph, objective)
    return RunConfig(
        graph=graph,
        objective=objective,
        schedule=parse_schedule(schedule),
        beta=beta,
        eta=eta,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


def quadratic_run_config(n=10, m=3, seed=1, schedule="zero", rounds=100, graph_r=0.5,
                         regime="convex", **kwargs):
    objective = make_quadratic_instance(n, m, seed)
    graph = generate_random_graph(n, graph_r, seed)
    eta, beta = suggested_stepsizes(graph, objective, regime=regime)
    return RunConfig(
        graph=graph,
        objective=objective,
        schedule=parse_schedule(schedule),
        beta=beta,
        eta=eta,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


def logistic_run_config(n=10, m_i=8, m=10, seed=1, ridge=0.1, schedule="zero",
                        rounds=100, graph_r=0.3, **kwargs):
    objective, _ = make_logistic_instance(n, m_i, m, seed, ridge=ridge)
    graph = generate_random_graph(n, graph_r, seed)
    eta, beta = suggested_stepsizes(graph, objective)
    return RunConfig(
        graph=graph,
        objective=objective,
        schedule=parse_schedule(schedule),
        beta=beta,
        eta=eta,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


def pure_l1_run_config(n=8, m=4, tau=0.3, seed=2, schedule="zero", rounds=100,
                       graph_r=0.5, x0_scale=1.0, **kwargs):
    """All-zero smooth parts: a regularizer-only objective."""
    objective = CompositeObjective([ZeroSmooth(m) for _ in range(n)], np.full(n, tau))
    graph = generate_random_graph(n, graph_r, seed)
    rng = np.random.default_rng(seed)
    x0 = x0_scale * rng.standard_normal((n, m))
    lam, beta = suggested_stepsizes(graph, objective)  # lf = 0 -> eta = 1
    return RunConfig(
        graph=graph,
        objective=objective,
        schedule=parse_schedule(schedule),
        beta=beta,
        eta=lam,
        rounds=rounds,
        seed=seed,
        x0=x0,
        **kwargs,
    )


def consensus_run_config(n=12, m=3, seed=3, schedule="zero", rounds=200, graph_r=0.4,
                         **kwargs):
    """No objective at all: pure averaging dynamics with unit weights."""
    objective = CompositeObjective([ZeroSmooth(m) for _ in range(n)], np.zeros(n))
    graph = generate_random_graph(n, graph_r, seed)
    _, beta = suggested_stepsizes(graph, objective)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n, m))
    return RunConfig(
        graph=graph,
        objective=objective,
        schedule=parse_schedule(schedule),
        beta=beta,
        eta=np.ones(n),
        rounds=rounds,
        seed=seed,
        x0=x0,
        **kwargs,
    )


def matrix_lalm_step(x: np.ndarray, z: np.ndarray, objective: CompositeObjective,
                     lap: np.ndarray, eta: np.ndarray, beta: float):
    """Stacked always-broadcast iteration: a proximal step on the linearized
    augmented Lagrangian followed by dual ascent. Reference path for the
    event-triggered engine under an all-zero schedule; it takes gradients
    agent by agent from the losses in `smooth`, and the prox as a soft
    threshold at each agent's l1 weight over eta_i. Those gradients run the
    same code as the objective's stack, so `test_objective.py` checks that
    code against central differences."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    grad = np.stack([f.gradient(x[i]) for i, f in enumerate(objective.smooth)])
    v = x - (z + grad + beta * (lap @ x)) / eta[:, None]
    x_new = soft_threshold(v, ((1.0 / eta) * objective.tau)[:, None])
    z_new = z + beta * (lap @ x_new)
    return x_new, z_new


def zero_schedule_rate(objective: CompositeObjective, graph, beta: float, eta) -> float:
    """rho_0 = max_j rho(M_j), the rate of the always-broadcast iteration on a
    diagonal quadratic instance. With E = diag(eta), D_j the agents'
    curvatures in coordinate j, A = I - E^-1 (D_j + beta L) and U an
    orthonormal basis of the complement of the consensus line (the dual
    stays in it), coordinate j of (x, U^T z) steps by the affine map with
    linear part M_j = [[A, -E^-1 U], [U^T beta L A, I - U^T beta L E^-1 U]]."""
    n = graph.n
    lap = beta * graph.laplacian
    e_inv = 1.0 / np.broadcast_to(np.asarray(eta, dtype=np.float64), (n,))
    basis = np.linalg.eigh(graph.laplacian)[1][:, 1:]  # drops eigenvalue 0, the consensus line
    dual_in = -e_inv[:, None] * basis
    rates = []
    for d in objective.stack.diag.T:
        a = np.eye(n) - e_inv[:, None] * (np.diag(d) + lap)
        step = np.block([[a, dual_in],
                         [basis.T @ lap @ a, np.eye(n - 1) + basis.T @ lap @ dual_in]])
        rates.append(np.abs(np.linalg.eigvals(step)).max())
    return float(max(rates))


def drive_states(config: RunConfig) -> list:
    """The network states of rounds 0, 1, ..., config.rounds, driven one
    `run_round` call at a time; a diverging run stops at its last finite
    round, as `run` does."""
    states = [initial_state(config)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.rounds):
            state = run_round(states[-1], config)
            if nonfinite_agent(state) is not None:
                break
            states.append(state)
    return states


def run_with_series(config: RunConfig, f_star: float, x_star: np.ndarray):
    """`run` with an `ErgodicRecorder` observing it: (trace, series)."""
    recorder = ErgodicRecorder(config.objective, config.graph.laplacian, f_star, x_star)
    trace = run(config, observe=recorder)
    return trace, recorder.series()


def max_relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(b)), 1.0)
    return float(np.linalg.norm(a - b)) / scale


@pytest.fixture
def rng():
    return np.random.default_rng(0)
