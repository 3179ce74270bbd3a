"""Shared builders for engine-level tests, and the stacked matrix form of the
iteration they check the engine against."""

import numpy as np
import pytest

from etdopt.engine import (
    DivergenceError,
    RunConfig,
    initial_state,
    run,
    run_round,
    suggested_stepsizes,
)
from etdopt.graph import generate_random_graph, laplacian
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


def drive_states(config: RunConfig) -> list:
    """The network states of rounds 0, 1, ..., config.rounds, driven one
    `run_round` call at a time; a diverging run stops at its last finite
    round."""
    state = initial_state(config)
    states = [state]
    for _ in range(config.rounds):
        try:
            state = run_round(state, config)
        except DivergenceError:
            break
        states.append(state)
    return states


def run_with_series(config: RunConfig, f_star: float, x_star: np.ndarray):
    """`run` with an `ErgodicRecorder` observing it: (trace, series)."""
    recorder = ErgodicRecorder(config.objective, laplacian(config.graph), f_star, x_star)
    trace = run(config, observe=recorder)
    return trace, recorder.series()


def max_relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(b)), 1.0)
    return float(np.linalg.norm(a - b)) / scale


@pytest.fixture
def rng():
    return np.random.default_rng(0)
