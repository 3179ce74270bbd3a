"""Per-agent composite objectives, evaluated on stacked arrays.

Each agent holds a smooth loss (value, gradient, curvature constants) plus a
proximable nonsmooth regularizer; `CompositeObjective` groups them into
stacked arrays, so that the whole network is evaluated at once. Instance
generators build the benchmark problems: sparse least squares, logistic
regression, and a separable quadratic with a closed-form minimizer.
Instances serialize to a plain text format that regenerates bit-exactly from
(kind, parameters, seed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

FORMAT_MAGIC = "etdopt-instance"
FORMAT_VERSION = 1


def soft_threshold(y: np.ndarray, t) -> np.ndarray:
    """Component-wise sign(y) * max(|y| - t, 0); t may be an array that
    broadcasts against y."""
    if np.any(np.asarray(t) < 0.0):
        raise ValueError(f"shrinkage amount must be >= 0, got {t}")
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


class ZeroSmooth:
    """Identically-zero smooth part."""

    is_zero = True

    def __init__(self, m: int):
        self.m = m
        self.lipschitz = 0.0
        self.strong_convexity = 0.0

    def value(self, theta) -> float:
        return 0.0

    def gradient(self, theta) -> np.ndarray:
        return np.zeros(self.m)


class LeastSquaresLoss:
    """0.5 * ||b - A theta||^2."""

    is_zero = False

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.a.ndim != 2 or self.b.shape != (self.a.shape[0],):
            raise ValueError("need A of shape (p, m) and b of shape (p,)")
        self.m = self.a.shape[1]
        # lambda_max(A^T A) computed on the smaller Gram side.
        p = self.a.shape[0]
        gram = self.a @ self.a.T if p <= self.m else self.a.T @ self.a
        self.lipschitz = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
        self.strong_convexity = 0.0

    def value(self, theta) -> float:
        r = self.b - self.a @ theta
        return 0.5 * float(r @ r)

    def gradient(self, theta) -> np.ndarray:
        return self.a.T @ (self.a @ theta - self.b)


class LogisticLoss:
    """Sum of ln(1 + exp(-y <x_j, theta>)) over local samples, with an
    optional ridge term (ridge/2)*||theta||^2 supplying strong convexity."""

    is_zero = False

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float = 0.0):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("need features (s, m) and labels (s,)")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be +/-1")
        if not ridge >= 0.0:
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        self.ridge = float(ridge)
        self.m = self.features.shape[1]
        s = self.features.shape[0]
        gram = self.features @ self.features.T if s <= self.m else self.features.T @ self.features
        self.lipschitz = 0.25 * float(np.linalg.eigvalsh(gram)[-1]) + self.ridge
        self.strong_convexity = self.ridge

    def value(self, theta) -> float:
        margins = self.labels * (self.features @ theta)
        val = float(np.sum(np.logaddexp(0.0, -margins)))
        if self.ridge:
            val += 0.5 * self.ridge * float(theta @ theta)
        return val

    def gradient(self, theta) -> np.ndarray:
        margins = self.labels * (self.features @ theta)
        coeff = -self.labels * _sigmoid(-margins)
        g = self.features.T @ coeff
        if self.ridge:
            g = g + self.ridge * np.asarray(theta, dtype=np.float64)
        return g


class DiagonalQuadraticLoss:
    """0.5 * (theta - c)^T diag(d) (theta - c) with d > 0."""

    is_zero = False

    def __init__(self, diag: np.ndarray, center: np.ndarray):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.center = np.asarray(center, dtype=np.float64)
        if self.diag.shape != self.center.shape or self.diag.ndim != 1:
            raise ValueError("diag and center must be 1-D with matching shape")
        if not np.all(self.diag > 0):
            raise ValueError("diagonal curvature must be positive")
        self.m = self.diag.shape[0]
        self.lipschitz = float(np.max(self.diag))
        self.strong_convexity = float(np.min(self.diag))

    def value(self, theta) -> float:
        d = np.asarray(theta, dtype=np.float64) - self.center
        return 0.5 * float(d @ (self.diag * d))

    def gradient(self, theta) -> np.ndarray:
        return self.diag * (np.asarray(theta, dtype=np.float64) - self.center)


class ZeroNonsmooth:
    """Identically-zero regularizer; its prox is the identity."""

    is_zero = True

    def __init__(self, m: int):
        self.m = m

    def value(self, theta) -> float:
        return 0.0

    def prox(self, step: float, y: np.ndarray) -> np.ndarray:
        return np.array(y, dtype=np.float64, copy=True)


class ScaledL1:
    """tau * ||theta||_1; prox is soft thresholding at step * tau."""

    is_zero = False

    def __init__(self, tau: float, m: int):
        if not tau >= 0.0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        self.tau = float(tau)
        self.m = m

    def value(self, theta) -> float:
        return self.tau * float(np.sum(np.abs(theta)))

    def prox(self, step: float, y: np.ndarray) -> np.ndarray:
        if step <= 0.0:
            raise ValueError(f"prox step must be > 0, got {step}")
        return soft_threshold(y, step * self.tau)


class _LeastSquaresStack:
    """k least-squares losses with one (p, m) shape: A (k, p, m), b (k, p)."""

    def __init__(self, parts):
        self.a = np.stack([f.a for f in parts])
        self.b = np.stack([f.b for f in parts])

    def _residual(self, x):
        return np.einsum("kpm,km->kp", self.a, x) - self.b

    def gradient(self, x):
        return np.einsum("kpm,kp->km", self.a, self._residual(x))

    def value(self, x) -> float:
        r = self._residual(x)
        return 0.5 * float(np.sum(r * r))

    def pooled(self) -> LeastSquaresLoss:
        """One loss over all k agents' rows."""
        return LeastSquaresLoss(self.a.reshape(-1, self.a.shape[-1]), self.b.reshape(-1))


class _LogisticStack:
    """k logistic losses with one (s, m) shape: features (k, s, m), labels
    (k, s), ridge (k,)."""

    def __init__(self, parts):
        self.features = np.stack([f.features for f in parts])
        self.labels = np.stack([f.labels for f in parts])
        self.ridge = np.array([f.ridge for f in parts])

    def _margins(self, x):
        return self.labels * np.einsum("ksm,km->ks", self.features, x)

    def gradient(self, x):
        coeff = -self.labels * _sigmoid(-self._margins(x))
        return np.einsum("ksm,ks->km", self.features, coeff) + self.ridge[:, None] * x

    def value(self, x) -> float:
        val = float(np.sum(np.logaddexp(0.0, -self._margins(x))))
        return val + 0.5 * float(self.ridge @ np.sum(x * x, axis=1))

    def pooled(self) -> LogisticLoss:
        """One loss over all k agents' samples, with the ridges summed."""
        m = self.features.shape[-1]
        return LogisticLoss(self.features.reshape(-1, m), self.labels.reshape(-1),
                            ridge=float(np.sum(self.ridge)))


class _QuadraticStack:
    """k diagonal quadratics: diag (k, m), center (k, m)."""

    def __init__(self, parts):
        self.diag = np.stack([f.diag for f in parts])
        self.center = np.stack([f.center for f in parts])

    def gradient(self, x):
        return self.diag * (x - self.center)

    def value(self, x) -> float:
        d = x - self.center
        return 0.5 * float(np.sum(self.diag * d * d))

    def pooled(self) -> DiagonalQuadraticLoss:
        """The sum of the k quadratics, up to a constant."""
        total = self.diag.sum(axis=0)
        return DiagonalQuadraticLoss(total, np.sum(self.diag * self.center, axis=0) / total)


# Smooth-part classes with a stacked form, each with the attribute whose
# shape must agree within one stack.
_STACKS = {
    LeastSquaresLoss: (_LeastSquaresStack, "a"),
    LogisticLoss: (_LogisticStack, "features"),
    DiagonalQuadraticLoss: (_QuadraticStack, "diag"),
}


@dataclass
class CompositeObjective:
    """n agent-indexed (smooth, nonsmooth) pairs sharing one dimension.

    The per-agent parts stay readable in `smooth` and `nonsmooth`, but the
    stacked methods never loop over agents: at construction the smooth parts
    are grouped once by loss class and array shape into `stacks`, pairs of
    (agent rows, stacked arrays), with zero parts dropped; the regularizers
    become one per-agent l1 weight vector `tau`, zero where the regularizer
    is zero. Gradients and values of an (n, m) stack are then a few einsums
    per group, and the prox a single soft threshold (the identity when every
    weight is zero).
    """

    smooth: tuple
    nonsmooth: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.smooth = tuple(self.smooth)
        self.nonsmooth = tuple(self.nonsmooth)
        if len(self.smooth) != len(self.nonsmooth) or not self.smooth:
            raise ValueError("need matching, non-empty smooth/nonsmooth lists")
        dims = {part.m for part in self.smooth} | {part.m for part in self.nonsmooth}
        if len(dims) != 1:
            raise ValueError(f"all parts must share one dimension, got {sorted(dims)}")
        groups: dict = {}
        for i, f in enumerate(self.smooth):
            if f.is_zero:
                continue
            if type(f) not in _STACKS:
                raise ValueError(f"no stacked form for smooth part {type(f).__name__}")
            groups.setdefault((type(f), getattr(f, _STACKS[type(f)][1]).shape), []).append(i)
        self.stacks = [
            (np.array(rows), _STACKS[cls][0]([self.smooth[i] for i in rows]))
            for (cls, _), rows in groups.items()
        ]
        for g in self.nonsmooth:
            if not isinstance(g, (ZeroNonsmooth, ScaledL1)):
                raise ValueError(f"no stacked form for regularizer {type(g).__name__}")
        self.tau = np.array([0.0 if g.is_zero else g.tau for g in self.nonsmooth])

    @property
    def n(self) -> int:
        return len(self.smooth)

    @property
    def m(self) -> int:
        return self.smooth[0].m

    def lipschitz(self) -> np.ndarray:
        return np.array([f.lipschitz for f in self.smooth])

    def strong_convexity(self) -> np.ndarray:
        return np.array([f.strong_convexity for f in self.smooth])

    def centralized_value(self, theta: np.ndarray) -> float:
        """Total objective at one shared decision vector."""
        return sum(
            f.value(theta) + g.value(theta) for f, g in zip(self.smooth, self.nonsmooth)
        )

    def stacked_value(self, x: np.ndarray) -> float:
        """Total objective with agent i evaluated at row i of x."""
        x = np.asarray(x, dtype=np.float64)
        total = float(self.tau @ np.sum(np.abs(x), axis=1))
        for rows, stack in self.stacks:
            total += stack.value(x[rows])
        return total

    def gradient_stack(self, x: np.ndarray) -> np.ndarray:
        """Row i: gradient of agent i's smooth part at row i of x."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros((self.n, self.m))
        for rows, stack in self.stacks:
            out[rows] = stack.gradient(x[rows])
        return out

    def prox_stack(self, steps: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row i: prox of agent i's regularizer with step steps[i] at v[i]."""
        if not np.any(self.tau):
            return v
        return soft_threshold(v, (np.asarray(steps) * self.tau)[:, None])


def make_lasso_instance(n: int, p: int, m: int, tau: float, seed: int):
    """Sparse least-squares instance: per agent a p-by-m sensing matrix with
    unit-norm rows, a unit-norm target, and an l1 weight tau.

    Returns (objective, raw) where raw holds the stacked A and b arrays.
    """
    if min(n, p, m) < 1:
        raise ValueError("n, p, m must all be positive")
    rng = np.random.default_rng(seed)
    a_all = np.empty((n, p, m))
    b_all = np.empty((n, p))
    smooth, nonsmooth = [], []
    for i in range(n):
        a = rng.standard_normal((p, m))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal(p)
        b /= np.linalg.norm(b)
        a_all[i], b_all[i] = a, b
        smooth.append(LeastSquaresLoss(a, b))
        nonsmooth.append(ScaledL1(tau, m))
    meta = {"kind": "lasso", "n": n, "p": p, "m": m, "tau": float(tau), "seed": int(seed)}
    obj = CompositeObjective(smooth, nonsmooth, meta)
    return obj, {"a": a_all, "b": b_all}


def make_logistic_instance(n: int, m_i: int, m: int, seed: int, ridge: float = 0.0):
    """Binary classification instance: standard-normal features with the last
    coordinate forced to 1 (bias), labels from a seeded ground-truth
    direction with 5% flips. Returns (objective, raw)."""
    if min(n, m_i, m) < 1:
        raise ValueError("n, m_i, m must all be positive")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(m)
    feats = np.empty((n, m_i, m))
    labels = np.empty((n, m_i))
    smooth, nonsmooth = [], []
    for i in range(n):
        x = rng.standard_normal((m_i, m))
        x[:, -1] = 1.0
        y = np.where(x @ w_true >= 0.0, 1.0, -1.0)
        flips = rng.random(m_i) < 0.05
        y[flips] *= -1.0
        feats[i], labels[i] = x, y
        smooth.append(LogisticLoss(x, y, ridge=ridge))
        nonsmooth.append(ZeroNonsmooth(m))
    meta = {
        "kind": "logistic",
        "n": n,
        "m_i": m_i,
        "m": m,
        "ridge": float(ridge),
        "seed": int(seed),
    }
    obj = CompositeObjective(smooth, nonsmooth, meta)
    return obj, {"features": feats, "labels": labels, "w_true": w_true}


def make_quadratic_instance(n: int, m: int, seed: int) -> CompositeObjective:
    """Separable strongly convex instance with per-agent diagonal curvature
    in [1, 2] and seeded centers. The centralized minimizer has the closed
    form given by `quadratic_minimizer`."""
    if min(n, m) < 1:
        raise ValueError("n, m must be positive")
    rng = np.random.default_rng(seed)
    smooth, nonsmooth = [], []
    for _ in range(n):
        d = rng.uniform(1.0, 2.0, m)
        c = rng.standard_normal(m)
        smooth.append(DiagonalQuadraticLoss(d, c))
        nonsmooth.append(ZeroNonsmooth(m))
    meta = {"kind": "quadratic", "n": n, "m": m, "seed": int(seed)}
    return CompositeObjective(smooth, nonsmooth, meta)


def quadratic_minimizer(objective: CompositeObjective) -> np.ndarray:
    """Closed-form centralized minimizer (sum of diagonals)^-1 (weighted
    center sum) for a pure diagonal-quadratic instance."""
    total_d = np.zeros(objective.m)
    total_dc = np.zeros(objective.m)
    for f, g in zip(objective.smooth, objective.nonsmooth):
        if not isinstance(f, DiagonalQuadraticLoss) or not g.is_zero:
            raise ValueError("closed form only applies to pure diagonal-quadratic instances")
        total_d += f.diag
        total_dc += f.diag * f.center
    return total_dc / total_d


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_row(row) -> str:
    return " ".join(_fmt(v) for v in np.asarray(row, dtype=np.float64))


def instance_to_text(objective: CompositeObjective) -> str:
    """Self-describing text serialization: a header with kind, dimensions and
    seed, then per-agent row-major numeric blocks at 17 significant digits."""
    meta = objective.meta
    kind = meta.get("kind")
    if kind not in ("lasso", "logistic", "quadratic"):
        raise ValueError(f"cannot serialize instance of kind {kind!r}")
    lines = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", f"kind {kind}"]
    if kind == "lasso":
        lines += [
            f"n {meta['n']}",
            f"p {meta['p']}",
            f"m {meta['m']}",
            f"tau {_fmt(meta['tau'])}",
            f"seed {meta['seed']}",
        ]
        for i, f in enumerate(objective.smooth):
            lines.append(f"agent {i}")
            lines.extend(_fmt_row(row) for row in f.a)
            lines.append(_fmt_row(f.b))
    elif kind == "logistic":
        lines += [
            f"n {meta['n']}",
            f"m_i {meta['m_i']}",
            f"m {meta['m']}",
            f"ridge {_fmt(meta['ridge'])}",
            f"seed {meta['seed']}",
        ]
        for i, f in enumerate(objective.smooth):
            lines.append(f"agent {i}")
            lines.extend(_fmt_row(row) for row in f.features)
            lines.append(" ".join(str(int(v)) for v in f.labels))
    else:
        lines += [f"n {meta['n']}", f"m {meta['m']}", f"seed {meta['seed']}"]
        for i, f in enumerate(objective.smooth):
            lines.append(f"agent {i}")
            lines.append(_fmt_row(f.diag))
            lines.append(_fmt_row(f.center))
    return "\n".join(lines) + "\n"


class LineCursor:
    """Bounds-checked reader over the lines of a text format: running past
    the end, a wrong field name or a wrong count of numbers raises
    ValueError, so truncated text fails like any other malformed text."""

    def __init__(self, text: str, what: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.what = what

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ValueError(f"{self.what} ends early, at line {self.pos + 1}")
        self.pos += 1
        return self.lines[self.pos - 1]

    def field(self, key: str) -> str:
        """Value of the next line, which must read "key value"."""
        line = self.next()
        name, _, value = line.partition(" ")
        if name != key:
            raise ValueError(f"expected field {key!r} at line {self.pos}, got {line!r}")
        return value

    def floats(self, count: int) -> np.ndarray:
        """The next line as exactly `count` numbers."""
        values = [float(v) for v in self.next().split()]
        if len(values) != count:
            raise ValueError(f"expected {count} numbers at line {self.pos}, got {len(values)}")
        return np.array(values)


def instance_from_text(text: str) -> CompositeObjective:
    """Inverse of `instance_to_text`; malformed or truncated text raises
    ValueError."""
    cur = LineCursor(text, "instance text")
    magic = cur.next().split()
    if len(magic) != 2 or magic[0] != FORMAT_MAGIC:
        raise ValueError("not an instance file")
    if magic[1] != str(FORMAT_VERSION):
        raise ValueError(f"unsupported instance format version {magic[1]}")
    kind = cur.field("kind")
    if kind == "lasso":
        n, p, m = int(cur.field("n")), int(cur.field("p")), int(cur.field("m"))
        tau, seed = float(cur.field("tau")), int(cur.field("seed"))
        meta = {"kind": kind, "n": n, "p": p, "m": m, "tau": tau, "seed": seed}
    elif kind == "logistic":
        n, m_i, m = int(cur.field("n")), int(cur.field("m_i")), int(cur.field("m"))
        ridge, seed = float(cur.field("ridge")), int(cur.field("seed"))
        meta = {"kind": kind, "n": n, "m_i": m_i, "m": m, "ridge": ridge, "seed": seed}
    elif kind == "quadratic":
        n, m, seed = int(cur.field("n")), int(cur.field("m")), int(cur.field("seed"))
        meta = {"kind": kind, "n": n, "m": m, "seed": seed}
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    smooth, nonsmooth = [], []
    for i in range(n):
        if cur.next() != f"agent {i}":
            raise ValueError(f"expected 'agent {i}' at line {cur.pos}")
        if kind == "lasso":
            a = np.array([cur.floats(m) for _ in range(p)])
            smooth.append(LeastSquaresLoss(a, cur.floats(p)))
            nonsmooth.append(ScaledL1(tau, m))
        elif kind == "logistic":
            x = np.array([cur.floats(m) for _ in range(m_i)])
            smooth.append(LogisticLoss(x, cur.floats(m_i), ridge=ridge))
            nonsmooth.append(ZeroNonsmooth(m))
        else:
            d = cur.floats(m)
            smooth.append(DiagonalQuadraticLoss(d, cur.floats(m)))
            nonsmooth.append(ZeroNonsmooth(m))
    return CompositeObjective(smooth, nonsmooth, meta)


def text_digest(text: str) -> str:
    """Stable 16-hex-digit digest of an instance's serialized text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def instance_hash(objective: CompositeObjective) -> str:
    """Stable 16-hex-digit digest of the serialized instance."""
    return text_digest(instance_to_text(objective))
