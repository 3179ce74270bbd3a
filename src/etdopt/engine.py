"""Synchronous multi-agent round loop on stacked arrays.

The network state is three (n, m) stacks, row i belonging to agent i: the
primal iterates x, the dual variables z and the last broadcast copies
x_tilde. One round is three network-wide phases, each a few array
operations:

  A. primal: v = x - (z + grad F(x) + beta L x_tilde) / eta, then the
     objective's stacked prox (the identity for smooth objectives; the
     gradient is zero for regularizer-only ones);
  B. trigger: agent i broadcasts when ||x_i - x_tilde_i|| exceeds its
     threshold (any movement for the zero schedule, every N-th round for
     the periodic one), and its copy becomes x_i;
  C. dual: z + beta L x_tilde on the fully updated copies.

Delivery is implicit: L x_tilde reads every agent's current copy. A stacked
always-broadcast stepper built from the per-agent parts is kept as an
independent reference path for equivalence checks.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import trigger as trig
from .graph import Graph, check_stepsize_composite, is_connected, laplacian, max_eigenvalue
from .objective import CompositeObjective, instance_hash

VARIANTS = ("composite", "smooth", "nonsmooth")

SNAPSHOT_FULL_LIMIT = 10_000  # n*m above this thins snapshots to every 10th round
THINNED_STRIDE = 10


class ConfigError(ValueError):
    """Rejected run configuration."""


def suggested_stepsizes(graph: Graph, objective: CompositeObjective,
                        regime: str = "convex", k1: Optional[float] = None):
    """Reasonable (eta, beta) for a given topology and objective.

    beta is 1/(max Laplacian eigenvalue + 1). In the "convex" regime eta_i is
    1 + l_i (one plus the local gradient Lipschitz bound); in the
    "strongly-convex" regime eta_i is 1 + l_i**2 / k1 with k1 defaulting to
    the smallest local strong-convexity modulus.
    """
    lam_max = max_eigenvalue(laplacian(graph))
    beta = 1.0 / (lam_max + 1.0)
    lf = objective.lipschitz()
    if regime == "convex":
        eta = 1.0 + lf
    elif regime == "strongly-convex":
        mu = objective.strong_convexity()
        if np.any(mu <= 0.0):
            raise ConfigError("strongly-convex regime needs positive moduli for every agent")
        if k1 is None:
            k1 = float(np.min(mu))
        if not (0.0 < k1 < 2.0 * float(np.min(mu))):
            raise ConfigError(f"k1 must lie in (0, {2.0 * float(np.min(mu))}), got {k1}")
        eta = 1.0 + lf**2 / k1
    else:
        raise ConfigError(f"regime must be 'convex' or 'strongly-convex', got {regime!r}")
    return eta, beta


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
    # A label checked against the objective by `validate`; every variant
    # runs the same composite step.
    variant: str = "composite"
    x0: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None
    enforce_stepsize: bool = True
    snapshot_stride: Optional[int] = None

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

    def effective_stride(self) -> int:
        if self.snapshot_stride is not None:
            return self.snapshot_stride
        return 1 if self.n * self.m <= SNAPSHOT_FULL_LIMIT else THINNED_STRIDE

    def validate(self):
        """Check shapes, positivity, variant consistency and the stepsize
        condition. Returns the stepsize check result for reporting."""
        g, obj = self.graph, self.objective
        if g.n != obj.n:
            raise ConfigError(f"graph has {g.n} nodes but objective has {obj.n} agents")
        if not is_connected(g):
            raise ConfigError("communication graph must be connected")
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if self.eta.shape != (g.n,) or np.any(self.eta <= 0):
            raise ConfigError("eta must be positive, one entry per agent")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "smooth" and not obj.is_smooth:
            raise ConfigError("smooth variant requires every nonsmooth part to be zero")
        if self.variant == "nonsmooth" and not obj.is_nonsmooth_only:
            raise ConfigError("nonsmooth variant requires every smooth part to be zero")
        for name, arr in (("x0", self.x0), ("z0", self.z0)):
            if arr is not None and np.asarray(arr).shape != (g.n, obj.m):
                raise ConfigError(f"{name} must have shape ({g.n}, {obj.m})")
        check = check_stepsize_composite(self.eta, self.beta, laplacian(g), obj.lipschitz())
        if not check.ok:
            msg = f"stepsize condition violated (margin {check.margin:.3e})"
            if self.enforce_stepsize:
                raise ConfigError(msg)
            warnings.warn(msg, stacklevel=2)
        return check


@dataclass(frozen=True)
class NetworkState:
    """All agents at one synchronization point, as read-only stacks: row i
    of `x`, `z` and `x_tilde` is agent i's primal iterate, dual variable and
    last broadcast copy. `broadcast_count` counts each agent's broadcasts
    from round 0 on, and `fired` flags this round's broadcasters."""

    x: np.ndarray
    z: np.ndarray
    x_tilde: np.ndarray
    broadcast_count: np.ndarray
    fired: np.ndarray
    round: int


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
    """Round 0: dual variables at zero (unless overridden) and an
    unconditional broadcast of every agent's starting point."""
    n, m = config.n, config.m
    x0 = np.zeros((n, m)) if config.x0 is None else np.array(config.x0, dtype=np.float64)
    z0 = np.zeros((n, m)) if config.z0 is None else np.array(config.z0, dtype=np.float64)
    x0 = _frozen(x0)
    return NetworkState(x=x0, z=_frozen(z0), x_tilde=x0,
                        broadcast_count=_frozen(np.ones(n, dtype=np.int64)),
                        fired=_frozen(np.ones(n, dtype=bool)), round=0)


def primal_step(objective: CompositeObjective, x, z, lap, x_tilde, eta, beta: float):
    """Prox-linear step of every agent on the linearized augmented
    Lagrangian: row i is prox_i(1/eta_i, x_i - (z_i + grad_i(x_i) +
    beta (L x_tilde)_i) / eta_i)."""
    v = x - (z + objective.gradient_stack(x) + beta * (lap @ x_tilde)) / eta[:, None]
    return objective.prox_stack(1.0 / eta, v)


def dual_step(z, lap, x_tilde, beta: float):
    """Dual ascent of every agent on the post-broadcast copies."""
    return z + beta * (lap @ x_tilde)


def _check_finite(arr: np.ndarray, round_: int):
    bad = ~np.all(np.isfinite(arr), axis=1)
    if np.any(bad):
        raise DivergenceError(int(np.argmax(bad)), round_)


def run_round(state: NetworkState, config: RunConfig) -> NetworkState:
    """Advance the whole network by one synchronous round: every agent's
    primal step from round-k data, every agent's trigger decision and
    broadcast, then every agent's dual step on the delivered copies."""
    k = state.round + 1
    lap, eta, beta = laplacian(config.graph), config.eta, config.beta
    # Overflow is not an error here; it surfaces as a divergence below.
    with np.errstate(over="ignore", invalid="ignore"):
        x = primal_step(config.objective, state.x, state.z, lap, state.x_tilde, eta, beta)
    _check_finite(x, k)

    schedule = config.schedule
    if schedule.kind == trig.EVERY_N:
        fired = np.full(config.n, k % schedule.period == 0)
    else:
        fired = trig.row_norms(x - state.x_tilde) > trig.thresholds(schedule, config.n, k)
    x_tilde = np.where(fired[:, None], x, state.x_tilde)

    z = dual_step(state.z, lap, x_tilde, beta)
    _check_finite(z, k)
    return NetworkState(x=_frozen(x), z=_frozen(z), x_tilde=_frozen(x_tilde),
                        broadcast_count=_frozen(state.broadcast_count + fired),
                        fired=_frozen(fired), round=k)


def matrix_lalm_step(x: np.ndarray, z: np.ndarray, objective: CompositeObjective,
                     lap: np.ndarray, eta: np.ndarray, beta: float):
    """Stacked always-broadcast iteration: a proximal step on the linearized
    augmented Lagrangian followed by dual ascent. Reference path for the
    event-triggered engine under an all-zero schedule; it takes gradients
    and proxes from the per-agent parts, apart from the objective's stacks."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    grad = np.stack([f.gradient(x[i]) for i, f in enumerate(objective.smooth)])
    v = x - (z + grad + beta * (lap @ x)) / eta[:, None]
    x_new = np.empty_like(v)
    for i in range(objective.n):
        x_new[i] = objective.nonsmooth[i].prox(1.0 / eta[i], v[i])
    z_new = z + beta * (lap @ x_new)
    return x_new, z_new


@dataclass
class TraceRecord:
    k: int
    broadcasts: np.ndarray  # 0/1 per agent, this round
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    ergodic_sum: Optional[np.ndarray] = None  # sum of x over rounds 1..k


@dataclass
class RunTrace:
    """Per-round records plus run-level diagnostics.

    `max_trigger_slack` is the worst observed deviation-minus-threshold
    (must stay <= 0 for event rules; None for the periodic scheme) and
    `max_dual_imbalance` the worst |sum_i z_i| relative to n * ||z||_inf.
    """

    config: RunConfig
    instance_digest: str
    records: list = field(default_factory=list)
    diverged: bool = False
    diverged_round: Optional[int] = None
    diverged_agent: Optional[int] = None
    max_trigger_slack: Optional[float] = None
    max_dual_imbalance: float = 0.0
    final_state: Optional[NetworkState] = None
    elapsed_seconds: float = 0.0
    stepsize_margin: float = float("nan")

    @property
    def completed_rounds(self) -> int:
        return len(self.records) - 1

    def record_at(self, k: int) -> TraceRecord:
        if not (0 <= k < len(self.records)):
            raise IndexError(f"round {k} outside completed range 0..{self.completed_rounds}")
        return self.records[k]

    def x_at(self, k: int) -> np.ndarray:
        rec = self.record_at(k)
        if rec.x is None:
            raise ValueError(f"no primal snapshot stored at round {k} (thinned trace)")
        return rec.x

    def z_at(self, k: int) -> np.ndarray:
        rec = self.record_at(k)
        if rec.z is None:
            raise ValueError(f"no dual snapshot stored at round {k} (thinned trace)")
        return rec.z

    def ergodic_sum_at(self, k: int) -> np.ndarray:
        rec = self.record_at(k)
        if rec.ergodic_sum is None:
            raise ValueError(f"no ergodic sum stored at round {k} (thinned trace)")
        return rec.ergodic_sum

    def broadcast_matrix(self) -> np.ndarray:
        return np.stack([rec.broadcasts for rec in self.records])

    def stored_rounds(self):
        return [rec.k for rec in self.records if rec.x is not None]

    @property
    def initial_dual_is_zero(self) -> bool:
        return bool(np.all(self.records[0].z == 0.0))

    @property
    def seconds_per_round(self) -> float:
        done = self.completed_rounds
        return self.elapsed_seconds / done if done else 0.0


def _digest(objective: CompositeObjective) -> str:
    try:
        return instance_hash(objective)
    except ValueError:
        return "unserialized"


def run(config: RunConfig, instance_digest: Optional[str] = None) -> RunTrace:
    """Execute the full round loop, collecting snapshots and diagnostics.

    `instance_digest` is recorded in the trace; callers that have already
    serialized the objective pass its digest, otherwise it is computed here.
    Divergence does not raise: the returned trace is flagged and holds the
    rounds completed before the non-finite iterate appeared.
    """
    check = config.validate()
    stride = config.effective_stride()
    n, m = config.n, config.m
    event_rule = config.schedule.is_event_rule
    if instance_digest is None:
        instance_digest = _digest(config.objective)
    trace = RunTrace(config=config, instance_digest=instance_digest)
    started = time.perf_counter()

    state = initial_state(config)
    ergodic = np.zeros((n, m))
    trace.records.append(
        TraceRecord(k=0, broadcasts=state.fired.astype(np.uint8), x=state.x, z=state.z,
                    ergodic_sum=ergodic.copy())
    )
    if event_rule:
        trace.max_trigger_slack = -np.inf

    for k in range(1, config.rounds + 1):
        try:
            state = run_round(state, config)
        except DivergenceError as err:
            trace.diverged = True
            trace.diverged_round = err.round
            trace.diverged_agent = err.agent
            break
        x_k, z_k = state.x, state.z
        ergodic += x_k

        if event_rule:
            slack = trig.row_norms(x_k - state.x_tilde) - trig.thresholds(config.schedule, n, k)
            trace.max_trigger_slack = max(trace.max_trigger_slack, float(np.max(slack)))
        z_scale = float(np.max(np.abs(z_k))) if z_k.size else 0.0
        if z_scale > 0.0:
            imbalance = float(np.max(np.abs(z_k.sum(axis=0)))) / (n * z_scale)
            if imbalance > trace.max_dual_imbalance:
                trace.max_dual_imbalance = imbalance

        store = (k % stride == 0) or (k == config.rounds)
        trace.records.append(
            TraceRecord(
                k=k,
                broadcasts=state.fired.astype(np.uint8),
                x=x_k if store else None,
                z=z_k if store else None,
                ergodic_sum=ergodic.copy() if store else None,
            )
        )

    trace.final_state = state
    trace.elapsed_seconds = time.perf_counter() - started
    trace.stepsize_margin = check.margin
    return trace
