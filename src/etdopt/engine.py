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

A round never raises on a non-finite value; `run` stops at the first round
that yields one (`nonfinite_agent` names the agent) and keeps the last state.
`run` keeps the starting point, each round's broadcast flags (the one record
of who broadcast when), the stepsize margins found at validation, two
running diagnostics (trigger slack, dual imbalance) and the final state; it
stores no per-round iterates. It holds them in locals and builds its
`RunTrace` once, when the run ends. Anything else a caller wants from every
round it computes in an `observe` callable as the round happens (see
`metrics.ErgodicRecorder`).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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


class NetworkState(NamedTuple):
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


def nonfinite_agent(state: NetworkState) -> Optional[int]:
    """The first row of `state.x` holding a non-finite entry, failing that
    the first such row of `state.z`, else None. Its dot may overflow: callers
    outside `run`'s loop set `np.errstate` themselves."""
    for arr in (state.x, state.z):
        # One BLAS dot is finite whenever the stack is, bar squares that overflow.
        flat = arr.ravel()
        if not math.isfinite(flat.dot(flat)) and not np.isfinite(arr).all():
            return int(np.argmax(~np.isfinite(arr).all(axis=1)))
    return None


def run_round(state: NetworkState, config: RunConfig) -> NetworkState:
    """Advance the whole network by one synchronous round: every agent's
    primal step from round-k data, every agent's trigger decision and
    broadcast, then every agent's dual step on the delivered copies. It
    never raises on non-finite values; they pass into the returned state,
    where `nonfinite_agent` finds them."""
    k = state.round + 1
    # Overflow is not an error here; it surfaces in the returned state.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x = primal_step(config.objective, state.x, state.z, state.coupling, config.eta)

        fired, slack = trig.broadcasts(config.schedule, k, x, state.x_tilde)
        if fired.any():
            x_tilde = _frozen(np.where(fired[:, None], x, state.x_tilde))
            coupling = _frozen(config.beta * (config.graph.laplacian @ x_tilde))
        else:
            x_tilde, coupling = state.x_tilde, state.coupling

        z = dual_step(state.z, coupling)
    return NetworkState(x=_frozen(x), z=_frozen(z), x_tilde=x_tilde, coupling=coupling,
                        fired=_frozen(fired), round=k,
                        trigger_slack=None if slack is None else _frozen(slack))


class TraceRecord(NamedTuple):
    """One round of a run: its broadcast flags. Only round 0 holds the
    starting stacks x and z; later rounds hold none, and no record holds an
    ergodic sum (the field stays for readers of the record layout)."""

    k: int
    broadcasts: np.ndarray  # 0/1 per agent, this round
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    ergodic_sum: Optional[np.ndarray] = None


class RunTrace(NamedTuple):
    """Per-round broadcast flags plus run-level diagnostics, built once when
    the run ends.

    `broadcast_flags` is a (rounds+1, n) 0/1 matrix, row k flagging round
    k's broadcasters; rows past `completed_rounds` stay zero. Round
    `diverged_round`, the one after `final_state`, is the first non-finite
    one and `diverged_agent` the agent `nonfinite_agent` named in it (both
    None if the run finished). `max_trigger_slack` is the worst observed
    deviation-minus-threshold (must stay <= 0 for event rules; None for the
    periodic scheme) and `max_dual_imbalance` the worst |sum_i z_i| relative
    to n * ||z||_inf. `stepsize_margin` and `strong_convexity_margin` are
    the two margins `RunConfig.validate` returned.
    """

    config: RunConfig
    x0: np.ndarray
    broadcast_flags: np.ndarray
    diverged_agent: Optional[int]
    max_trigger_slack: Optional[float]
    max_dual_imbalance: float
    final_state: NetworkState
    elapsed_seconds: float
    stepsize_margin: float
    strong_convexity_margin: Optional[float]

    @property
    def diverged(self) -> bool:
        return self.diverged_agent is not None

    @property
    def completed_rounds(self) -> int:
        return self.final_state.round

    @property
    def diverged_round(self) -> Optional[int]:
        return self.final_state.round + 1 if self.diverged else None

    @property
    def records(self) -> list:
        """One `TraceRecord` per round 0..completed, its flags a row of
        `broadcast_flags`; round 0's also holds the starting stacks."""
        flags = self.broadcast_flags[:self.completed_rounds + 1]
        return [TraceRecord(0, flags[0], self.x0, np.zeros_like(self.x0))] + [
            TraceRecord(k, row) for k, row in enumerate(flags[1:], start=1)]

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
    Divergence does not raise: the run stops at the first round whose state
    holds a non-finite value, and the trace is flagged and holds the rounds
    before it. The loop, `observe` included, ignores overflow and invalid.
    """
    margin, strong_margin = config.validate()
    n = config.n
    event_rule = config.schedule.is_event_rule
    started = time.perf_counter()

    state = initial_state(config)
    x0 = state.x
    flags = np.zeros((config.rounds + 1, n), dtype=np.uint8)
    flags[0] = state.fired
    if observe is not None:
        observe(state)
    slack = -np.inf if event_rule else None
    imbalance = 0.0
    diverged_agent = None

    # A finite dual stack's column sums can overflow; the imbalance is then inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.rounds + 1):
            new = run_round(state, config)
            diverged_agent = nonfinite_agent(new)
            if diverged_agent is not None:
                break
            state = new
            if event_rule:
                slack = max(slack, float(state.trigger_slack.max()))
            z = state.z
            z_scale = float(np.abs(z).max()) if z.size else 0.0
            if z_scale > 0.0:
                imbalance = max(imbalance, float(np.abs(z.sum(axis=0)).max()) / (n * z_scale))

            flags[k] = state.fired
            if observe is not None:
                observe(state)

    return RunTrace(config=config, x0=x0, broadcast_flags=flags, diverged_agent=diverged_agent,
                    max_trigger_slack=slack, max_dual_imbalance=imbalance, final_state=state,
                    elapsed_seconds=time.perf_counter() - started, stepsize_margin=margin,
                    strong_convexity_margin=strong_margin)
