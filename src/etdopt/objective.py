"""Per-agent composite objectives, evaluated on stacked arrays.

Each agent holds a smooth loss (value, gradient, curvature constants) plus an
l1 weight. All agents share one loss family and one array shape, so
`CompositeObjective` stacks the losses once and evaluates the whole network
with a few array operations; the weights form one vector whose prox is a
soft threshold. Instance generators build the benchmark problems: sparse
least squares, logistic regression, and a separable quadratic with a
closed-form minimizer. `instance_hash` names an instance in outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


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


# Loss classes with a stacked form, each with the attribute whose shape must
# agree across agents. Every attribute of a stack is one of its arrays.
_STACKS = {
    LeastSquaresLoss: (_LeastSquaresStack, "a"),
    LogisticLoss: (_LogisticStack, "features"),
    DiagonalQuadraticLoss: (_QuadraticStack, "diag"),
}


@dataclass
class CompositeObjective:
    """n agents' smooth losses `smooth` plus their l1 weights `tau`.

    The losses share one class, one dimension and one array shape. They stay
    readable one by one in `smooth`, but the stacked methods never loop over
    agents: at construction the losses become one stack of (n, ...) arrays,
    `stack` (None when every loss is zero). Gradients and values of an
    (n, m) stack are then a few einsums, and the prox a single soft
    threshold (the identity when every weight is zero).
    """

    smooth: tuple
    tau: np.ndarray

    def __post_init__(self):
        self.smooth = tuple(self.smooth)
        self.tau = np.array(self.tau, dtype=np.float64)
        if not self.smooth or self.tau.shape != (len(self.smooth),):
            raise ValueError("need a non-empty loss list and one l1 weight per loss")
        if not np.all(self.tau >= 0.0):
            raise ValueError(f"l1 weights must be >= 0, got {self.tau}")
        dims = {f.m for f in self.smooth}
        if len(dims) != 1:
            raise ValueError(f"all losses must share one dimension, got {sorted(dims)}")
        cls = type(self.smooth[0])
        if any(type(f) is not cls for f in self.smooth):
            raise ValueError("all losses must be of one class")
        self.stack = None
        if cls is not ZeroSmooth:
            if cls not in _STACKS:
                raise ValueError(f"no stacked form for loss {cls.__name__}")
            stack_cls, attr = _STACKS[cls]
            if len({getattr(f, attr).shape for f in self.smooth}) != 1:
                raise ValueError("all losses must share one array shape")
            self.stack = stack_cls(self.smooth)

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
        l1 = float(np.sum(np.abs(theta)))
        return sum(f.value(theta) + t * l1 for f, t in zip(self.smooth, self.tau.tolist()))

    def stacked_value(self, x: np.ndarray) -> float:
        """Total objective with agent i evaluated at row i of x."""
        x = np.asarray(x, dtype=np.float64)
        total = float(self.tau @ np.sum(np.abs(x), axis=1))
        if self.stack is not None:
            total += self.stack.value(x)
        return total

    def gradient_stack(self, x: np.ndarray) -> np.ndarray:
        """Row i: gradient of agent i's smooth loss at row i of x."""
        x = np.asarray(x, dtype=np.float64)
        if self.stack is None:
            return np.zeros((self.n, self.m))
        return self.stack.gradient(x)

    def prox_stack(self, steps: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row i: prox of agent i's l1 term with step steps[i] at v[i]."""
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
    smooth = []
    for i in range(n):
        a = rng.standard_normal((p, m))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal(p)
        b /= np.linalg.norm(b)
        a_all[i], b_all[i] = a, b
        smooth.append(LeastSquaresLoss(a, b))
    obj = CompositeObjective(smooth, np.full(n, float(tau)))
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
    smooth = []
    for i in range(n):
        x = rng.standard_normal((m_i, m))
        x[:, -1] = 1.0
        y = np.where(x @ w_true >= 0.0, 1.0, -1.0)
        flips = rng.random(m_i) < 0.05
        y[flips] *= -1.0
        feats[i], labels[i] = x, y
        smooth.append(LogisticLoss(x, y, ridge=ridge))
    obj = CompositeObjective(smooth, np.zeros(n))
    return obj, {"features": feats, "labels": labels, "w_true": w_true}


def make_quadratic_instance(n: int, m: int, seed: int) -> CompositeObjective:
    """Separable strongly convex instance with per-agent diagonal curvature
    in [1, 2] and seeded centers. The centralized minimizer has a closed
    form: the center of `objective.stack.pooled()`."""
    if min(n, m) < 1:
        raise ValueError("n, m must be positive")
    rng = np.random.default_rng(seed)
    smooth = []
    for _ in range(n):
        d = rng.uniform(1.0, 2.0, m)
        c = rng.standard_normal(m)
        smooth.append(DiagonalQuadraticLoss(d, c))
    return CompositeObjective(smooth, np.zeros(n))


def instance_hash(objective: CompositeObjective) -> str:
    """Stable 16-hex-digit digest of an instance: its loss class, (n, m), its
    l1 weights and the shape and little-endian float64 bytes of each stacked
    array."""
    digest = hashlib.sha256(
        f"{type(objective.smooth[0]).__name__} {objective.n} {objective.m}".encode())
    arrays = [objective.tau]
    if objective.stack is not None:
        arrays += vars(objective.stack).values()
    for arr in arrays:
        digest.update(str(arr.shape).encode())
        digest.update(np.asarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]
