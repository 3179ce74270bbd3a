"""Shared builders for engine-level tests."""

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
    ScaledL1,
    ZeroNonsmooth,
    ZeroSmooth,
    make_lasso_instance,
    make_logistic_instance,
    make_quadratic_instance,
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
        variant="composite",
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
        variant="smooth",
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
        variant="smooth",
        **kwargs,
    )


def pure_l1_run_config(n=8, m=4, tau=0.3, seed=2, schedule="zero", rounds=100,
                       graph_r=0.5, x0_scale=1.0, **kwargs):
    """All-zero smooth parts: the regularizer-only variant."""
    smooth = [ZeroSmooth(m) for _ in range(n)]
    nonsmooth = [ScaledL1(tau, m) for _ in range(n)]
    objective = CompositeObjective(smooth, nonsmooth)
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
        variant="nonsmooth",
        x0=x0,
        **kwargs,
    )


def consensus_run_config(n=12, m=3, seed=3, schedule="zero", rounds=200, graph_r=0.4,
                         **kwargs):
    """No objective at all: pure averaging dynamics with unit weights."""
    smooth = [ZeroSmooth(m) for _ in range(n)]
    nonsmooth = [ZeroNonsmooth(m) for _ in range(n)]
    objective = CompositeObjective(smooth, nonsmooth)
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
        variant="smooth",
        x0=x0,
        **kwargs,
    )


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
