"""Synchronous multi-agent round loop on stacked arrays.

The network state is four (n, m) stacks, row i belonging to agent i: the
primal iterates x, the dual variables z, the last broadcast copies x_tilde
and their coupling. One round is three network-wide phases, each a few
array operations:

  A. primal: v = x - (z + grad F(x) + beta L x_tilde) / eta, then the
     objective's stacked prox (the identity for smooth objectives; the
     gradient is zero for regularizer-only ones);
  B. trigger (`trigger.broadcasts`): agent i broadcasts when
     ||x_i - x_tilde_i|| exceeds the round's threshold, which all agents
     share (any movement for the zero schedule, every N-th round for the
     periodic one), and its copy becomes x_i;
  C. dual: z + beta L x_tilde, the coupling of the fully updated copies.

Delivery is implicit: the state carries the coupling beta L x_tilde, the one
term that reads other agents' copies. Only a round with a broadcast recomputes
it; both steps add the carried array, bitwise equal to a fresh product.

`run` keeps the starting point, each round's broadcast flags (the one record
of who broadcast when), the stepsize margins found at validation, two
running diagnostics (trigger slack, dual imbalance) and the final state; it
stores no per-round iterates. Anything else a caller wants from every round it
computes in an `observe` callable as the round happens (see
`metrics.ErgodicRecorder`).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import trigger as trig
from .graph import Graph, is_connected
from .objective import CompositeObjective


class ConfigError(ValueError):
    """Rejected run configuration."""


def suggested_stepsizes(graph: Graph, objective: CompositeObjective,
                        regime: str = "convex", k1: Optional[float] = None):
    """Reasonable (eta, beta) for a given topology and objective.

    beta is 1/(max Laplacian eigenvalue + 1). In the "convex" regime eta_i is
    1 + l_i (one plus the local gradient Lipschitz bound); in the
    "strongly-convex" regime eta_i is 1 + l_i**2 / k1 with k1 defaulting to
    the smallest local strong-convexity modulus mu_min; a k1 outside
    (0, 2 mu_min) raises ConfigError.
    """
    lam_max = float(np.linalg.eigvalsh(graph.laplacian)[-1])
    beta = 1.0 / (lam_max + 1.0)
    lf = objective.lipschitz()
    if regime == "convex":
        eta = 1.0 + lf
    elif regime == "strongly-convex":
        mu = objective.strong_convexity()
        if np.any(mu <= 0.0):
            raise ConfigError("strongly-convex regime needs positive moduli for every agent")
        mu_min = float(np.min(mu))
        if k1 is None:
            k1 = mu_min
        if not (0.0 < k1 < 2.0 * mu_min):
            raise ConfigError(f"k1 must lie in (0, {2.0 * mu_min}), got {k1}")
        eta = 1.0 + lf**2 / k1
    else:
        raise ConfigError(f"regime must be 'convex' or 'strongly-convex', got {regime!r}")
    return eta, beta


def stepsize_margin(eta, beta: float, graph: Graph, curvature) -> float:
    """Smallest eigenvalue of diag(eta) - beta L - diag(curvature) (LAPACK);
    its sign is reliable down to roundoff in the matrix entries, so margins
    near zero are classified correctly."""
    return float(np.linalg.eigvalsh(np.diag(eta) - beta * graph.laplacian - np.diag(curvature))[0])


class DivergenceError(RuntimeError):
    def __init__(self, agent: int, round_: int):
        super().__init__(f"non-finite iterate at agent {agent}, round {round_}")
        self.agent = agent
        self.round = round_


@dataclass
class RunConfig:
    """Everything a run needs: topology, objectives, schedule, stepsizes."""

    graph: Graph
    objective: CompositeObjective
    schedule: trig.TriggerSchedule
    beta: float
    eta: np.ndarray
    rounds: int
    seed: int = 0
    x0: Optional[np.ndarray] = None
    enforce_stepsize: bool = True

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.float64)
        if eta.ndim == 0:
            eta = np.full(self.graph.n, float(eta))
        self.eta = eta

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.objective.m

    def validate(self):
        """Check shapes, positivity and the stepsize condition. Returns the two
        `stepsize_margin`s: over diag(L_f), which must be positive (else a
        ConfigError, or a warning when `enforce_stepsize` is off), and, where
        every modulus mu_i > 0, over diag(L_f**2) / k1 with k1 = min mu, the
        midpoint of its interval (0, 2 min mu); else None."""
        g, obj = self.graph, self.objective
        if g.n != obj.n:
            raise ConfigError(f"graph has {g.n} nodes but objective has {obj.n} agents")
        if not is_connected(g):
            raise ConfigError("communication graph must be connected")
        if not 0.0 < self.beta < np.inf:
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")
        if self.eta.shape != (g.n,) or not np.all((self.eta > 0.0) & (self.eta < np.inf)):
            raise ConfigError("eta must be positive and finite, one entry per agent")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.x0 is not None and np.asarray(self.x0).shape != (g.n, obj.m):
            raise ConfigError(f"x0 must have shape ({g.n}, {obj.m})")
        lf = obj.lipschitz()
        margin = stepsize_margin(self.eta, self.beta, g, lf)
        if not margin > 0.0:
            msg = f"stepsize condition violated (margin {margin:.3e})"
            if self.enforce_stepsize:
                raise ConfigError(msg)
            warnings.warn(msg, stacklevel=2)
        mu = obj.strong_convexity()
        if np.any(mu <= 0.0):
            return margin, None
        return margin, stepsize_margin(self.eta, self.beta, g, lf**2 / float(np.min(mu)))


@dataclass(frozen=True)
class NetworkState:
    """All agents at one synchronization point, as read-only stacks: row i
    of `x`, `z` and `x_tilde` is agent i's primal iterate, dual variable and
    last broadcast copy, row i of `coupling` is (beta L x_tilde)_i, and
    `fired` flags this round's broadcasters. A round in which nobody fired
    keeps the previous state's `x_tilde` and `coupling` arrays.
    `trigger_slack` is each agent's deviation ||x_i - x_tilde_i|| after this
    round's broadcasts minus the round's threshold; it is None at round 0
    and under the periodic schedule."""

    x: np.ndarray
    z: np.ndarray
    x_tilde: np.ndarray
    coupling: np.ndarray
    fired: np.ndarray
    round: int
    trigger_slack: Optional[np.ndarray] = None


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def state_primal(state: NetworkState) -> np.ndarray:
    return state.x


def state_dual(state: NetworkState) -> np.ndarray:
    return state.z


def state_broadcast(state: NetworkState) -> np.ndarray:
    return state.x_tilde


def initial_state(config: RunConfig) -> NetworkState:
    """Round 0: dual variables at zero and an unconditional broadcast of
    every agent's starting point."""
    n, m = config.n, config.m
    x0 = np.zeros((n, m)) if config.x0 is None else np.array(config.x0, dtype=np.float64)
    x0 = _frozen(x0)
    return NetworkState(x=x0, z=_frozen(np.zeros((n, m))), x_tilde=x0,
                        coupling=_frozen(config.beta * (config.graph.laplacian @ x0)),
                        fired=_frozen(np.ones(n, dtype=bool)), round=0)


def primal_step(objective: CompositeObjective, x, z, coupling, eta):
    """Prox-linear step of every agent on the linearized augmented
    Lagrangian, for the coupling beta L x_tilde: row i is
    prox_i(1/eta_i, x_i - (z_i + grad_i(x_i) + coupling_i) / eta_i)."""
    v = x - (z + objective.gradient_stack(x) + coupling) / eta[:, None]
    return objective.prox_stack(1.0 / eta, v)


def dual_step(z, coupling):
    """Dual ascent of every agent by the coupling beta L x_tilde of the
    post-broadcast copies."""
    return z + coupling


def _check_finite(arr: np.ndarray, round_: int):
    # One BLAS dot is finite whenever the stack is, bar squares that overflow.
    flat = arr.ravel()
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(arr).all():
        bad = ~np.all(np.isfinite(arr), axis=1)
        raise DivergenceError(int(np.argmax(bad)), round_)


def run_round(state: NetworkState, config: RunConfig) -> NetworkState:
    """Advance the whole network by one synchronous round: every agent's
    primal step from round-k data, every agent's trigger decision and
    broadcast, then every agent's dual step on the delivered copies."""
    k = state.round + 1
    # Overflow is not an error here; it surfaces as a divergence below.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x = primal_step(config.objective, state.x, state.z, state.coupling, config.eta)
        _check_finite(x, k)

        fired, slack = trig.broadcasts(config.schedule, k, x, state.x_tilde)
        if fired.any():
            x_tilde = _frozen(np.where(fired[:, None], x, state.x_tilde))
            coupling = _frozen(config.beta * (config.graph.laplacian @ x_tilde))
        else:
            x_tilde, coupling = state.x_tilde, state.coupling

        z = dual_step(state.z, coupling)
        _check_finite(z, k)
    return NetworkState(x=_frozen(x), z=_frozen(z), x_tilde=x_tilde, coupling=coupling,
                        fired=_frozen(fired), round=k,
                        trigger_slack=None if slack is None else _frozen(slack))


@dataclass
class TraceRecord:
    """One round of a run: its broadcast flags. Only round 0 holds the
    starting stacks x and z; later rounds hold none, and no record holds an
    ergodic sum (the field stays for readers of the record layout)."""

    k: int
    broadcasts: np.ndarray  # 0/1 per agent, this round
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    ergodic_sum: Optional[np.ndarray] = None


@dataclass
class RunTrace:
    """Per-round broadcast flags plus run-level diagnostics.

    `broadcast_flags` is a (rounds+1, n) 0/1 matrix, row k flagging round
    k's broadcasters; rows past `completed_rounds` stay zero.
    `max_trigger_slack` is the worst observed deviation-minus-threshold
    (must stay <= 0 for event rules; None for the periodic scheme) and
    `max_dual_imbalance` the worst |sum_i z_i| relative to n * ||z||_inf.
    `stepsize_margin` and `strong_convexity_margin` are the two margins
    `RunConfig.validate` returned.
    """

    config: RunConfig
    x0: np.ndarray
    broadcast_flags: np.ndarray
    completed_rounds: int = 0
    diverged: bool = False
    diverged_round: Optional[int] = None
    diverged_agent: Optional[int] = None
    max_trigger_slack: Optional[float] = None
    max_dual_imbalance: float = 0.0
    final_state: Optional[NetworkState] = None
    elapsed_seconds: float = 0.0
    stepsize_margin: float = float("nan")
    strong_convexity_margin: Optional[float] = None

    @property
    def records(self) -> list:
        """One `TraceRecord` per round 0..completed, its flags a row of
        `broadcast_flags`; round 0's also holds the starting stacks."""
        flags = self.broadcast_flags[:self.completed_rounds + 1]
        records = [TraceRecord(k=k, broadcasts=row) for k, row in enumerate(flags)]
        records[0].x, records[0].z = self.x0, np.zeros_like(self.x0)
        return records

    def cumulative_broadcasts(self) -> np.ndarray:
        """(rounds+1, n) running broadcast counts per agent, round 0
        included; the last row is each agent's total."""
        return np.cumsum(self.broadcast_flags[:self.completed_rounds + 1], axis=0,
                         dtype=np.int64)

    @property
    def seconds_per_round(self) -> float:
        done = self.completed_rounds
        return self.elapsed_seconds / done if done else 0.0


def run(config: RunConfig,
        observe: Optional[Callable[[NetworkState], None]] = None) -> RunTrace:
    """Execute the full round loop, keeping broadcast flags and diagnostics.

    `observe`, when given, is called with the state of round 0 and then with
    each completed round's state, in order, before the next round starts.
    Divergence does not raise: the returned trace is flagged and holds the
    rounds completed before the non-finite iterate appeared. The loop,
    `observe` included, runs with numpy's overflow and invalid warnings off.
    """
    margin, strong_margin = config.validate()
    n = config.n
    event_rule = config.schedule.is_event_rule
    started = time.perf_counter()

    state = initial_state(config)
    flags = np.zeros((config.rounds + 1, n), dtype=np.uint8)
    flags[0] = state.fired
    trace = RunTrace(config=config, x0=state.x, broadcast_flags=flags,
                     stepsize_margin=margin, strong_convexity_margin=strong_margin)
    if observe is not None:
        observe(state)
    if event_rule:
        trace.max_trigger_slack = -np.inf

    # A finite dual stack's column sums can overflow; the imbalance is then inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.rounds + 1):
            try:
                state = run_round(state, config)
            except DivergenceError as err:
                trace.diverged, trace.diverged_round = True, err.round
                trace.diverged_agent = err.agent
                break
            if event_rule:
                trace.max_trigger_slack = max(trace.max_trigger_slack,
                                              float(state.trigger_slack.max()))
            z = state.z
            z_scale = float(np.abs(z).max()) if z.size else 0.0
            if z_scale > 0.0:
                imbalance = float(np.abs(z.sum(axis=0)).max()) / (n * z_scale)
                if imbalance > trace.max_dual_imbalance:
                    trace.max_dual_imbalance = imbalance

            flags[k] = state.fired
            trace.completed_rounds = k
            if observe is not None:
                observe(state)

    trace.final_state = state
    trace.elapsed_seconds = time.perf_counter() - started
    return trace
