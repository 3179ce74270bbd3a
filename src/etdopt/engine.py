"""Synchronous multi-agent round loop.

Each round has three phases separated by network-wide barriers:

  A. every agent computes its next primal iterate from round-k quantities;
  B. every agent checks its trigger rule, updates its broadcast copy, and
     delivers it to all neighbors;
  C. every agent runs the dual ascent step on the fully updated copies.

A stacked matrix-form stepper of the same iteration (always-broadcast form)
is provided as an independent reference path for equivalence checks.
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


class ProtocolError(RuntimeError):
    """Message-passing contract violated (missing or stale neighbor data)."""


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
        lf = np.zeros(g.n) if self.variant == "nonsmooth" else obj.lipschitz()
        check = check_stepsize_composite(self.eta, self.beta, laplacian(g), lf)
        if not check.ok:
            msg = f"stepsize condition violated (margin {check.margin:.3e})"
            if self.enforce_stepsize:
                raise ConfigError(msg)
            warnings.warn(msg, stacklevel=2)
        return check


@dataclass(frozen=True)
class AgentState:
    x: np.ndarray
    z: np.ndarray
    x_tilde: np.ndarray
    neighbor_tilde: dict
    broadcast_count: int


@dataclass(frozen=True)
class NetworkState:
    """All agents at one synchronization point. `events` holds one
    (round, broadcasters) entry per completed round."""

    agents: tuple
    round: int
    events: tuple

    def broadcast_records(self):
        """Flat (round, agent) pairs, one per broadcast."""
        return [(k, i) for k, agents in self.events for i in agents]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def state_primal(state: NetworkState) -> np.ndarray:
    return np.stack([a.x for a in state.agents])


def state_dual(state: NetworkState) -> np.ndarray:
    return np.stack([a.z for a in state.agents])


def state_broadcast(state: NetworkState) -> np.ndarray:
    return np.stack([a.x_tilde for a in state.agents])


def initial_state(config: RunConfig) -> NetworkState:
    """Round 0: dual variables at zero (unless overridden) and an
    unconditional broadcast of every agent's starting point."""
    n, m = config.n, config.m
    x0 = np.zeros((n, m)) if config.x0 is None else np.asarray(config.x0, dtype=np.float64)
    z0 = np.zeros((n, m)) if config.z0 is None else np.asarray(config.z0, dtype=np.float64)
    xs = [_frozen(x0[i]) for i in range(n)]
    zs = [_frozen(z0[i]) for i in range(n)]
    agents = tuple(
        AgentState(
            x=xs[i],
            z=zs[i],
            x_tilde=xs[i],
            neighbor_tilde={j: xs[j] for j in config.graph.neighbors[i]},
            broadcast_count=1,
        )
        for i in range(n)
    )
    return NetworkState(agents=agents, round=0, events=((0, tuple(range(n))),))


def laplacian_disagreement(agent: int, own_tilde: np.ndarray, neighbor_tilde: dict, neighbors) -> np.ndarray:
    """Sum over neighbors of (own broadcast - neighbor broadcast), accumulated
    in ascending neighbor order for bitwise reproducibility."""
    acc = np.zeros_like(own_tilde)
    for j in neighbors:
        received = neighbor_tilde.get(j)
        if received is None:
            raise ProtocolError(f"agent {agent} is missing the broadcast of neighbor {j}")
        acc += own_tilde - received
    return acc


def primal_step_composite(x, z, grad, disagreement, eta_i: float, beta: float, nonsmooth_part):
    v = x - (z + grad + beta * disagreement) / eta_i
    return nonsmooth_part.prox(1.0 / eta_i, v)


def primal_step_smooth(x, z, grad, disagreement, eta_i: float, beta: float):
    return x - (z + grad + beta * disagreement) / eta_i


def primal_step_nonsmooth(x, z, disagreement, eta_i: float, beta: float, nonsmooth_part):
    v = x - (z + beta * disagreement) / eta_i
    return nonsmooth_part.prox(1.0 / eta_i, v)


def dual_step(agent: int, z, own_tilde, neighbor_tilde: dict, neighbors, beta: float):
    """Dual ascent on the post-broadcast copies. Requires one fresh entry per
    neighbor; incomplete delivery is a protocol violation."""
    missing = [j for j in neighbors if j not in neighbor_tilde]
    if missing:
        raise ProtocolError(f"agent {agent} has no broadcast from neighbors {missing}")
    acc = laplacian_disagreement(agent, own_tilde, neighbor_tilde, neighbors)
    return z + beta * acc


def run_round(state: NetworkState, config: RunConfig, order=None) -> NetworkState:
    """Advance the whole network by one synchronous round.

    The result is independent of the per-phase processing `order` (it exists
    so that tests can verify exactly that).
    """
    g = config.graph
    n = g.n
    k_next = state.round + 1
    if order is None:
        order = range(n)
    agents = state.agents

    # Phase A: primal updates from round-k data only. Overflow is not an
    # error here; it surfaces as a divergence diagnostic below.
    x_new = [None] * n
    with np.errstate(over="ignore", invalid="ignore"):
        for i in order:
            ag = agents[i]
            disagreement = laplacian_disagreement(i, ag.x_tilde, ag.neighbor_tilde, g.neighbors[i])
            if config.variant == "composite":
                grad = config.objective.smooth[i].gradient(ag.x)
                nxt = primal_step_composite(
                    ag.x, ag.z, grad, disagreement, config.eta[i], config.beta,
                    config.objective.nonsmooth[i],
                )
            elif config.variant == "smooth":
                grad = config.objective.smooth[i].gradient(ag.x)
                nxt = primal_step_smooth(ag.x, ag.z, grad, disagreement, config.eta[i], config.beta)
            else:
                nxt = primal_step_nonsmooth(
                    ag.x, ag.z, disagreement, config.eta[i], config.beta,
                    config.objective.nonsmooth[i],
                )
            if not np.all(np.isfinite(nxt)):
                raise DivergenceError(i, k_next)
            x_new[i] = _frozen(nxt)

    # Phase B: trigger checks and broadcasts.
    tilde_new = [None] * n
    broadcasters = []
    periodic = config.schedule.kind == trig.EVERY_N
    for i in order:
        if periodic:
            fire = k_next % config.schedule.period == 0
        else:
            e = trig.threshold(config.schedule, i, k_next)
            fire = trig.should_broadcast(x_new[i], agents[i].x_tilde, e)
        if fire:
            tilde_new[i] = x_new[i]
            broadcasters.append(i)
        else:
            tilde_new[i] = agents[i].x_tilde

    # Barrier: every broadcast is delivered before any dual update runs.
    delivered = [{j: tilde_new[j] for j in g.neighbors[i]} for i in range(n)]

    # Phase C: dual updates on the fully synchronized copies.
    z_new = [None] * n
    for i in order:
        nxt = dual_step(i, agents[i].z, tilde_new[i], delivered[i], g.neighbors[i], config.beta)
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(i, k_next)
        z_new[i] = _frozen(nxt)

    fired = set(broadcasters)
    new_agents = tuple(
        AgentState(
            x=x_new[i],
            z=z_new[i],
            x_tilde=tilde_new[i],
            neighbor_tilde=delivered[i],
            broadcast_count=agents[i].broadcast_count + (1 if i in fired else 0),
        )
        for i in range(n)
    )
    events = state.events + ((k_next, tuple(sorted(broadcasters))),)
    return NetworkState(agents=new_agents, round=k_next, events=events)


def matrix_lalm_step(x: np.ndarray, z: np.ndarray, objective: CompositeObjective,
                     lap: np.ndarray, eta: np.ndarray, beta: float):
    """Stacked always-broadcast iteration: a proximal step on the linearized
    augmented Lagrangian followed by dual ascent. Reference path for the
    event-triggered engine under an all-zero schedule."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    grad = objective.gradient_stack(x)
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
    flags0 = np.ones(n, dtype=np.uint8)
    trace.records.append(
        TraceRecord(k=0, broadcasts=flags0, x=state_primal(state), z=state_dual(state),
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
        x_k = state_primal(state)
        z_k = state_dual(state)
        ergodic += x_k

        if event_rule:
            for i in range(n):
                dev = float(np.linalg.norm(state.agents[i].x - state.agents[i].x_tilde))
                slack = dev - trig.threshold(config.schedule, i, k)
                if slack > trace.max_trigger_slack:
                    trace.max_trigger_slack = slack
        z_scale = float(np.max(np.abs(z_k))) if z_k.size else 0.0
        if z_scale > 0.0:
            imbalance = float(np.max(np.abs(z_k.sum(axis=0)))) / (n * z_scale)
            if imbalance > trace.max_dual_imbalance:
                trace.max_dual_imbalance = imbalance

        fired = np.zeros(n, dtype=np.uint8)
        fired[list(state.events[-1][1])] = 1
        store = (k % stride == 0) or (k == config.rounds)
        trace.records.append(
            TraceRecord(
                k=k,
                broadcasts=fired,
                x=x_k if store else None,
                z=z_k if store else None,
                ergodic_sum=ergodic.copy() if store else None,
            )
        )

    trace.final_state = state
    trace.elapsed_seconds = time.perf_counter() - started
    trace.stepsize_margin = check.margin
    return trace
