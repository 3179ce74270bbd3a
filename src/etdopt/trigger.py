"""Broadcast threshold schedules and the event-trigger decision.

One schedule is shared by all agents: at round k every agent compares the
deviation between its true iterate and its last broadcast copy with the same
threshold. A schedule is written as one of these specs (the kind in any case;
a number may be written "a^b" for a**b, so decay ratios can take power form):

* ``poly:E0:p``   -- E0 / k**p with p > 1 (summable)
* ``exp:E0:rho``  -- E0 * rho**k with 0 < rho < 1 (summable)
* ``zero``        -- always broadcast on any movement
* ``everyN:N``    -- periodic comparison scheme; bypasses the deviation rule
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Each kind's parameters, in the order its spec lists them after the kind.
_PARAMS = {"poly": ("e0", "p"), "exp": ("e0", "rho"), "zero": (), "everyN": ("period",)}


class ScheduleError(ValueError):
    """Malformed or inconsistent schedule configuration."""


@dataclass(frozen=True)
class TriggerSchedule:
    kind: str
    e0: float = 0.0
    p: float = 0.0
    rho: float = 0.0
    period: int = 0

    def __post_init__(self):
        # Bases and exponents must be finite: an infinite one gives a threshold
        # no deviation exceeds and a certificate with an infinite bound.
        if self.kind == "poly":
            if not 1.0 < self.p < np.inf:
                raise ScheduleError(f"poly exponent must be > 1 and finite, got {self.p}")
            if not 0.0 <= self.e0 < np.inf:
                raise ScheduleError(f"poly base must be >= 0 and finite, got {self.e0}")
        elif self.kind == "exp":
            if not (0.0 < self.rho < 1.0):
                raise ScheduleError(f"exp ratio must be in (0, 1), got {self.rho}")
            if not 0.0 <= self.e0 < np.inf:
                raise ScheduleError(f"exp base must be >= 0 and finite, got {self.e0}")
        elif self.kind == "everyN":
            if self.period < 1:
                raise ScheduleError(f"period must be >= 1, got {self.period}")
        elif self.kind != "zero":
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")

    @property
    def is_event_rule(self) -> bool:
        """False for the periodic scheme, which ignores deviations."""
        return self.kind != "everyN"

    @property
    def is_summable(self) -> bool:
        return self.kind != "everyN"

    def spec_string(self) -> str:
        """The spec `parse_schedule` reads back as this schedule."""
        fields = [str(self.period) if name == "period" else _spec_number(getattr(self, name))
                  for name in _PARAMS[self.kind]]
        return ":".join([self.kind, *fields])


def _spec_number(value: float) -> str:
    """Six significant digits when they are exact, else the shortest exact
    form, so distinct schedules never share a spec."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def threshold(schedule: TriggerSchedule, k: int) -> Optional[float]:
    """Every agent's threshold at round k >= 0.

    Round 0 is an unconditional broadcast; its value is the base, which
    keeps the sequence non-increasing: E0 for ``poly`` (its k = 1 value; the
    formula has none at 0) and ``exp``, 0 for ``zero``. The certificate's
    threshold budget sums this sequence from round 0. Returns None for the
    periodic kind, which has no deviation threshold.
    """
    if k < 0:
        raise ValueError(f"threshold is defined for rounds k >= 0, got k={k}")
    if schedule.kind == "poly":
        if k == 0:
            return schedule.e0
        try:
            return schedule.e0 / float(k) ** schedule.p
        except OverflowError:  # k**p is past the float range; the quotient underflows
            return schedule.e0 * float(k) ** -schedule.p
    if schedule.kind == "exp":
        return schedule.e0 * schedule.rho**k
    if schedule.kind == "zero":
        return 0.0
    return None


# Outside these bounds on a row's largest entry, squaring the row's entries
# underflows (or loses precision) or overflows, so the row is divided by its
# largest entry first.
_PLAIN_MIN, _PLAIN_MAX = 1e-150, 1e150
# A plain norm is above 1e149 if the largest entry exceeds 1e150, and below
# sqrt(2 m) 1e-150 < 1e-140 if it is under 1e-150 (for m < 5e19 entries).
_NORM_MIN, _NORM_MAX = 1e-140, 1e149


def row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    Rows whose largest magnitude s lies in [1e-150, 1e150] take the plain
    `np.linalg.norm` value. Any other nonzero row is measured as
    s * ||row / s||, since squaring its entries would go subnormal, to zero
    or to infinity. A row is then zero exactly when its norm is. s is formed
    only when some plain norm leaves [1e-140, 1e149] and is not the zero norm
    of a row that is exactly zero. The caller sets numpy's error state for
    the squares (`engine.run_round` does).
    """
    diff = np.asarray(diff, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(diff * diff, axis=1))  # the np.linalg.norm expression
    if norms.size and norms.max() <= _NORM_MAX:
        if _NORM_MIN <= norms.min():
            return norms
        # A zero norm comes from a zero row or from squares that underflow.
        small = norms < _NORM_MIN
        if not norms[small].any() and not diff[small].any():
            return norms
    scale = np.abs(diff).max(axis=1, initial=0.0)
    rescale = (scale > 0.0) & ((scale < _PLAIN_MIN) | (scale > _PLAIN_MAX))
    if rescale.any():
        s = scale[rescale]
        d = diff[rescale] / s[:, None]
        norms[rescale] = s * np.sqrt(np.add.reduce(d * d, axis=1))
    return norms


def broadcasts(schedule: TriggerSchedule, k: int, x: np.ndarray, x_tilde: np.ndarray):
    """The broadcast decision of every agent at round k >= 1: returns
    (fired, slack) for the primal stack x and the last broadcast copies
    x_tilde.

    Agent i fires when ||x_i - x_tilde_i|| strictly exceeds the round's
    threshold, and its slack is its deviation after the round's broadcasts
    (zero for a broadcaster, whose copy becomes x_i) minus the threshold.
    Under ``everyN`` every agent fires on multiples of N and slack is None.
    """
    if schedule.kind == "everyN":
        return np.full(len(x), k % schedule.period == 0), None
    thr = threshold(schedule, k)
    norms = row_norms(x - x_tilde)
    fired = norms > thr
    return fired, np.where(fired, 0.0, norms) - thr


def _parse_value(name: str, token: str, position: str):
    """One spec field: the integer period, or a real number ("a^b" is a**b)."""
    try:
        if name == "period":
            return int(token)
        if "^" in token:
            base_s, exp_s = token.split("^", 1)
            value = float(base_s) ** float(exp_s)
        else:
            value = float(token)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ScheduleError(f"cannot parse {name} {token!r} at {position}") from None
    if isinstance(value, complex):
        raise ScheduleError(f"{token!r} at {position} is not a real number")
    return value


def parse_schedule(spec: str) -> TriggerSchedule:
    """Parse a schedule spec (one of the forms the module docstring lists)."""
    text = spec.strip()
    if not text:
        raise ScheduleError("empty schedule spec")
    head, *tokens = text.split(":")
    kind = next((name for name in _PARAMS if name.lower() == head.strip().lower()), None)
    if kind is None:
        raise ScheduleError(f"unknown schedule kind {head!r} in {spec!r}")
    names = _PARAMS[kind]
    if len(tokens) != len(names):
        raise ScheduleError(f"expected {':'.join((kind,) + names)}, got {spec!r}")
    return TriggerSchedule(kind, **{
        name: _parse_value(name, token, f"{spec!r} field {i}")
        for i, (name, token) in enumerate(zip(names, tokens), start=2)})
