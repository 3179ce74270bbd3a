"""Broadcast threshold schedules and the event-trigger decision.

A schedule assigns each agent a per-round threshold on the deviation between
its true iterate and its last broadcast copy. Supported kinds:

* ``poly``    -- E0 / k**p with p > 1 (summable)
* ``exp``     -- E0 * rho**k with 0 < rho < 1 (summable)
* ``zero``    -- always broadcast on any movement
* ``everyN``  -- periodic comparison scheme; bypasses the deviation rule
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

POLYNOMIAL = "poly"
EXPONENTIAL = "exp"
ZERO = "zero"
EVERY_N = "everyN"


class ScheduleError(ValueError):
    """Malformed or inconsistent schedule configuration."""


@dataclass(frozen=True)
class TriggerSchedule:
    kind: str
    e0: float = 0.0
    p: float = 0.0
    rho: float = 0.0
    period: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == POLYNOMIAL:
            if not self.p > 1.0:
                raise ScheduleError(f"poly exponent must be > 1, got {self.p}")
            if not self.e0 >= 0.0:
                raise ScheduleError(f"poly base must be >= 0, got {self.e0}")
        elif self.kind == EXPONENTIAL:
            if not (0.0 < self.rho < 1.0):
                raise ScheduleError(f"exp ratio must be in (0, 1), got {self.rho}")
            if not self.e0 >= 0.0:
                raise ScheduleError(f"exp base must be >= 0, got {self.e0}")
        elif self.kind == ZERO:
            pass
        elif self.kind == EVERY_N:
            if self.period < 1:
                raise ScheduleError(f"period must be >= 1, got {self.period}")
        else:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        for agent, sub in self.overrides.items():
            if not isinstance(sub, TriggerSchedule):
                raise ScheduleError(f"override for agent {agent} is not a schedule")
            if sub.overrides:
                raise ScheduleError("nested overrides are not supported")

    @property
    def is_event_rule(self) -> bool:
        """False for the periodic scheme, which ignores deviations."""
        if self.kind == EVERY_N:
            return False
        return all(s.is_event_rule for s in self.overrides.values())

    @property
    def is_summable(self) -> bool:
        if self.kind == EVERY_N:
            return False
        return all(s.is_summable for s in self.overrides.values())

    def spec_string(self) -> str:
        """The spec `parse_schedule` reads back as this schedule (without
        overrides)."""
        if self.kind == POLYNOMIAL:
            return f"poly:{_spec_number(self.e0)}:{_spec_number(self.p)}"
        if self.kind == EXPONENTIAL:
            return f"exp:{_spec_number(self.e0)}:{_spec_number(self.rho)}"
        if self.kind == ZERO:
            return "zero"
        return f"everyN:{self.period}"


def _spec_number(value: float) -> str:
    """Six significant digits when they are exact, else the shortest exact
    form, so distinct schedules never share a spec."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def polynomial(e0: float, p: float) -> TriggerSchedule:
    return TriggerSchedule(kind=POLYNOMIAL, e0=float(e0), p=float(p))


def exponential(e0: float, rho: float) -> TriggerSchedule:
    return TriggerSchedule(kind=EXPONENTIAL, e0=float(e0), rho=float(rho))


def zero() -> TriggerSchedule:
    return TriggerSchedule(kind=ZERO)


def every_n(period: int) -> TriggerSchedule:
    return TriggerSchedule(kind=EVERY_N, period=int(period))


def threshold(schedule: TriggerSchedule, agent: int, k: int) -> Optional[float]:
    """Threshold for the given agent at round k >= 1.

    Round 0 is an unconditional broadcast, so k = 0 is a contract violation.
    Returns None for the periodic kind: the engine consults the modulus rule
    instead of a deviation threshold.
    """
    if k < 1:
        raise ValueError(f"threshold is defined for rounds k >= 1, got k={k}")
    sched = schedule.overrides.get(agent, schedule)
    if sched.kind == POLYNOMIAL:
        return sched.e0 / float(k) ** sched.p
    if sched.kind == EXPONENTIAL:
        return sched.e0 * sched.rho**k
    if sched.kind == ZERO:
        return 0.0
    return None


def threshold_envelope(schedule: TriggerSchedule, agent: int, k: int) -> float:
    """Summable bound on the broadcast deviation at round k >= 0.

    Matches `threshold` for k >= 1. At k = 0 the deviation is exactly zero
    (everyone broadcasts), and the polynomial formula has no value there, so
    the envelope extends it non-increasingly with the k = 1 value; the
    exponential kind evaluates to its base. Periodic schedules have no
    summable envelope and are rejected.
    """
    if k < 0:
        raise ValueError(f"round must be >= 0, got {k}")
    sched = schedule.overrides.get(agent, schedule)
    if sched.kind == EVERY_N:
        raise ScheduleError("periodic schedules have no summable threshold envelope")
    if k == 0:
        if sched.kind == ZERO:
            return 0.0
        return sched.e0
    return threshold(schedule, agent, k)


def max_threshold_envelope(schedule: TriggerSchedule, n: int, k: int) -> float:
    """Envelope maximized over all n agents (the network-wide bound)."""
    if not schedule.overrides:
        return threshold_envelope(schedule, 0, k)
    return max(threshold_envelope(schedule, i, k) for i in range(n))


def thresholds(schedule: TriggerSchedule, n: int, k: int) -> np.ndarray:
    """`threshold` of each of n agents at round k >= 1, for an event rule."""
    if not schedule.overrides:
        return np.full(n, threshold(schedule, 0, k))
    return np.array([threshold(schedule, i, k) for i in range(n)])


# Outside these bounds on a row's largest entry, squaring the row's entries
# underflows (or loses precision) or overflows, so the row is divided by its
# largest entry first.
_PLAIN_MIN, _PLAIN_MAX = 1e-150, 1e150


def row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    Rows whose largest magnitude s lies in [1e-150, 1e150] take the plain
    `np.linalg.norm` value. Any other nonzero row is measured as
    s * ||row / s||, since squaring its entries would go subnormal, to zero
    or to infinity. A row is then zero exactly when its norm is.
    """
    diff = np.asarray(diff, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(diff, axis=1)
    scale = np.max(np.abs(diff), axis=1, initial=0.0)
    rescale = (scale > 0.0) & ((scale < _PLAIN_MIN) | (scale > _PLAIN_MAX))
    if np.any(rescale):
        s = scale[rescale]
        norms[rescale] = s * np.linalg.norm(diff[rescale] / s[:, None], axis=1)
    return norms


def should_broadcast(x_new: np.ndarray, x_tilde_prev: np.ndarray, e: float) -> bool:
    """True iff the Euclidean deviation strictly exceeds the threshold."""
    if e < 0.0:
        raise ValueError(f"threshold must be >= 0, got {e}")
    diff = np.asarray(x_new, dtype=np.float64) - np.asarray(x_tilde_prev, dtype=np.float64)
    return bool(row_norms(diff.reshape(1, -1))[0] > e)


def _parse_value(token: str, position: str) -> float:
    # "a^b" means a**b, so decay ratios can be written in power form.
    try:
        if "^" in token:
            base_s, exp_s = token.split("^", 1)
            value = float(base_s) ** float(exp_s)
        else:
            value = float(token)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ScheduleError(f"cannot parse number {token!r} at {position}") from None
    if isinstance(value, complex):
        raise ScheduleError(f"{token!r} at {position} is not a real number")
    return value


def parse_schedule(spec: str) -> TriggerSchedule:
    """Parse a schedule spec string: "poly:E0:p", "exp:E0:rho", "zero",
    "everyN:N". Case-insensitive."""
    text = spec.strip()
    if not text:
        raise ScheduleError("empty schedule spec")
    parts = text.split(":")
    kind = parts[0].strip().lower()
    if kind == "zero":
        if len(parts) != 1:
            raise ScheduleError(f"'zero' takes no parameters, got {spec!r}")
        return zero()
    if kind == "poly":
        if len(parts) != 3:
            raise ScheduleError(f"'poly' needs poly:E0:p, got {spec!r}")
        return polynomial(
            _parse_value(parts[1], f"{spec!r} field 2"),
            _parse_value(parts[2], f"{spec!r} field 3"),
        )
    if kind == "exp":
        if len(parts) != 3:
            raise ScheduleError(f"'exp' needs exp:E0:rho, got {spec!r}")
        return exponential(
            _parse_value(parts[1], f"{spec!r} field 2"),
            _parse_value(parts[2], f"{spec!r} field 3"),
        )
    if kind == "everyn":
        if len(parts) != 2:
            raise ScheduleError(f"'everyN' needs everyN:N, got {spec!r}")
        try:
            period = int(parts[1])
        except ValueError:
            raise ScheduleError(f"cannot parse period {parts[1]!r} in {spec!r}") from None
        return every_n(period)
    raise ScheduleError(f"unknown schedule kind {parts[0]!r} in {spec!r}")
