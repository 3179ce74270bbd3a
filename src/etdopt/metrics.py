"""Per-round errors of a run, decay rate fits, and a computable certificate for
the ergodic O(1/t) bound that the always-valid threshold budget implies for
summable schedules. Broadcast counts are the trace's own
(`RunTrace.cumulative_broadcasts`).

`ErgodicRecorder` is the observer `engine.run` calls once per round: it keeps
the running sum of the primal stacks and records, as each round happens, the
signed objective gap and consensus error of the ergodic average and the
primal residual of the iterate. The run itself stores no per-round iterates,
so everything downstream (CSV, summary, comparison table, certificate) reads
the resulting `ErgodicSeries` plus the trace's round 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trigger as trig
from .engine import NetworkState, RunTrace
from .graph import laplacian_norm
from .objective import CompositeObjective
from .reference import ReferenceSolution, dual_from_reference

_ZERO_EIG_RTOL = 1e-9


class CertificateError(ValueError):
    """Certificate preconditions not met."""


@dataclass
class ErgodicSeries:
    """Errors of one run at each of its rounds 0..completed: the gap and
    consensus error of the starting point at round 0 and of the ergodic
    average from round 1 on, and the primal residual of the iterate."""

    rounds: np.ndarray           # 0, 1, ..., completed rounds
    signed_gap: np.ndarray       # F(point) - F*
    consensus_error: np.ndarray  # Laplacian seminorm of the point
    primal_residual: np.ndarray  # see `ErgodicRecorder`

    @property
    def objective_gap(self) -> np.ndarray:
        """|F(point) - F*|."""
        return np.abs(self.signed_gap)


class ErgodicRecorder:
    """Observer for `engine.run` that fills an `ErgodicSeries` round by round.

    The primal residual is ||x_k - 1 x*|| relative to its round-0 value; when
    the start point coincides with the replicated minimizer (a
    regularizer-pinned optimum at the all-zero start) the unnormalized
    distance is recorded instead.
    """

    def __init__(self, objective: CompositeObjective, lap: np.ndarray, f_star: float,
                 x_star: np.ndarray):
        self._objective = objective
        self._norm = laplacian_norm(lap)
        self._f_star = f_star
        self._x_star = np.asarray(x_star, dtype=np.float64)[None, :]
        self._sum = self._start = None
        self._rows: list = []  # (signed gap, consensus error, primal residual) per round

    def __call__(self, state: NetworkState):
        k = state.round
        if k != len(self._rows):
            raise ValueError(f"expected round {len(self._rows)}, got round {k}")
        # Overflowing squares are handled below; a diverging run's errors go inf.
        with np.errstate(over="ignore", invalid="ignore"):
            diff = state.x - self._x_star
            flat = diff.ravel(order="K")
            dist = math.sqrt(flat.dot(flat))  # the `np.linalg.norm(diff)` expression
            if not math.isfinite(dist) and np.isfinite(diff).all():
                # The squares overflow: divide by the power of two <= the largest entry.
                scale = math.ldexp(1.0, math.frexp(float(np.abs(diff).max()))[1] - 1)
                dist = scale * float(np.linalg.norm(diff / scale))
            if k == 0:
                self._sum, self._start = np.zeros_like(state.x), dist
                point = state.x
            else:
                self._sum += state.x
                point = self._sum / k
            resid = dist / self._start if self._start > 0.0 else dist
            self._rows.append((self._objective.stacked_value(point) - self._f_star,
                               self._norm(point), resid))

    def series(self) -> ErgodicSeries:
        """The rounds observed so far."""
        gap, cons, resid = np.array(self._rows, dtype=np.float64).reshape(-1, 3).T
        return ErgodicSeries(rounds=np.arange(len(self._rows)), signed_gap=gap,
                             consensus_error=cons, primal_residual=resid)


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def rate_fit(series, model: str = "loglog") -> RateFit:
    """Least-squares decay fit over (t, value) pairs.

    "loglog" fits log v against log t (power laws); "semilog" fits log v
    against t (geometric decay). Values must be positive; at least 10 points
    are required.
    """
    pairs = [(float(t), float(v)) for t, v in series]
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 points, got {len(pairs)}")
    ts = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    if np.any(vs <= 0.0):
        raise ValueError("rate fit requires positive values")
    if model == "loglog":
        if np.any(ts <= 0.0):
            raise ValueError("loglog fit requires positive t")
        xs = np.log(ts)
    elif model == "semilog":
        xs = ts
    else:
        raise ValueError(f"model must be 'loglog' or 'semilog', got {model!r}")
    ys = np.log(vs)
    x_mean, y_mean = xs.mean(), ys.mean()
    var = float(np.sum((xs - x_mean) ** 2))
    if var == 0.0:
        raise ValueError("degenerate fit: all t identical")
    slope = float(np.sum((xs - x_mean) * (ys - y_mean))) / var
    intercept = y_mean - slope * x_mean
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass
class ErgodicRateCertificate:
    """Computable O(1/t) bound for ergodic consensus and objective errors.

    `trigger_gain` multiplies the threshold budget, `residual_gain` lower
    bounds the residual curvature, `error_budget[i]` is the accumulated
    triggering contribution at t_values[i], and `dual_radius` is the free
    constant of the bound, fixed at 2 (dual_norm + 1) so that it exceeds the
    optimal dual norm.
    """

    trigger_gain: float
    residual_gain: float
    dual_radius: float
    dual_norm: float
    start_distance: float      # weighted distance of the start point to the optimum
    coupling_norm: float       # norm of L (beta L + 11^T/n)^{-1}
    t_values: np.ndarray
    error_budget: np.ndarray
    consensus_bound: np.ndarray
    consensus_measured: np.ndarray
    objective_upper: np.ndarray
    objective_lower: np.ndarray
    objective_measured: np.ndarray

    @property
    def consensus_ok(self) -> bool:
        return bool(np.all(self.consensus_measured <= self.consensus_bound))

    @property
    def objective_ok(self) -> bool:
        return bool(
            np.all(self.objective_measured <= self.objective_upper)
            and np.all(self.objective_measured >= self.objective_lower)
        )

    def to_text(self) -> str:
        lines = [
            f"trigger_gain {self.trigger_gain:.17g}",
            f"residual_gain {self.residual_gain:.17g}",
            f"dual_radius {self.dual_radius:.17g}",
            f"dual_norm {self.dual_norm:.17g}",
            f"start_distance {self.start_distance:.17g}",
            f"coupling_norm {self.coupling_norm:.17g}",
            f"rounds_checked {len(self.t_values)}",
            f"consensus_bound_holds {int(self.consensus_ok)}",
            f"objective_bounds_hold {int(self.objective_ok)}",
        ]
        return "\n".join(lines) + "\n"


def ergodic_rate_certificate(
    trace: RunTrace,
    reference: ReferenceSolution,
    series: ErgodicSeries,
) -> ErgodicRateCertificate:
    """Evaluate the ergodic error bounds at every round of the trace, for
    the run that `trace.config` describes, and compare them with the
    measured trajectory, read from the trace's `series`.

    Requires: a summable schedule, a certified reference, a positive
    stepsize margin (the trace's), strictly positive smooth curvature
    bounds, a completed round and error bounds that do not overflow. The
    trace-only requirements are checked before any spectral work.
    """
    config = trace.config
    g, obj = config.graph, config.objective
    n = g.n
    if not config.schedule.is_summable:
        raise CertificateError("certificate requires a summable threshold schedule")
    if not reference.certified:
        raise CertificateError("reference solution is not certified to its tolerance")
    lf = obj.lipschitz()
    if np.any(lf <= 0.0):
        raise CertificateError("certificate requires positive smooth curvature for every agent")
    if not trace.stepsize_margin > 0.0:
        raise CertificateError(f"stepsize margin is not positive ({trace.stepsize_margin:.3e})")
    after_start = series.rounds >= 1
    t_values = series.rounds[after_start]
    if t_values.size == 0:
        raise CertificateError("trace holds no completed round to certify")

    lap = g.laplacian
    eigvals = np.linalg.eigvalsh(lap)
    lam_max = float(eigvals[-1])
    if int(np.sum(eigvals <= _ZERO_EIG_RTOL * max(lam_max, 1.0))) != 1:
        raise CertificateError("graph Laplacian must have a single zero eigenvalue (connected)")

    # The least-norm y solving (sqrt L) y = z* has norm^2 tr(z*^T L^+ z*); the columns
    # of z* sum to zero, and on that subspace (L + 11^T/n)^{-1} is L^+.
    z_star = dual_from_reference(obj, reference.x_star)
    dual_norm = float(np.sqrt(np.sum(z_star * np.linalg.solve(lap + 1.0 / n, z_star))))
    dual_radius = 2.0 * (dual_norm + 1.0)

    # Spectrum of beta*L + 11^T/n: 1 on the all-ones line, beta*lambda elsewhere.
    coupling_max = max(1.0, config.beta * lam_max)
    coupling_norm = 1.0 / config.beta  # lambda / (beta * lambda) on every positive eigenvalue
    trigger_gain = max(2.0 * config.beta * lam_max, 1.0)
    residual_gain = min(float(np.min(lf)), 1.0 / coupling_max)

    diff0 = trace.x0 - reference.x_star[None, :]
    p_mat = np.diag(config.eta) - config.beta * lap
    start_distance = float(np.sqrt(max(np.sum(diff0 * (p_mat @ diff0)), 0.0)))

    # Threshold budget: cumulative network-wide threshold sums through t-1.
    max_t = int(t_values[-1])
    cum_env = np.cumsum([trig.threshold(config.schedule, k) for k in range(max_t)])
    # A huge schedule base overflows these to inf, a bound that holds vacuously.
    with np.errstate(over="ignore", invalid="ignore"):
        budget = (2.0 * trigger_gain * np.sqrt(n) / residual_gain) * cum_env[t_values - 1]
        numerator = (
            start_distance + dual_radius * coupling_norm + np.sqrt(2.0 * residual_gain) * budget
        ) ** 2
        margin = dual_radius - dual_norm
        consensus_bound = numerator / (2.0 * t_values * margin)
        objective_upper = numerator / (2.0 * t_values)
        objective_lower = -dual_norm * numerator / (2.0 * t_values * margin)
    if not np.all(np.isfinite([consensus_bound, objective_upper, objective_lower])):
        raise CertificateError("error bounds are not finite (threshold budget overflows)")

    return ErgodicRateCertificate(
        trigger_gain=trigger_gain,
        residual_gain=residual_gain,
        dual_radius=dual_radius,
        dual_norm=dual_norm,
        start_distance=start_distance,
        coupling_norm=coupling_norm,
        t_values=t_values,
        error_budget=budget,
        consensus_bound=consensus_bound,
        consensus_measured=series.consensus_error[after_start],
        objective_upper=objective_upper,
        objective_lower=objective_lower,
        objective_measured=series.signed_gap[after_start],
    )
