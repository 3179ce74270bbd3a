"""Per-agent composite objectives, evaluated on stacked arrays.

Each agent holds a smooth loss (value, gradient, curvature constants) plus an
l1 weight. There are three loss families: least squares, logistic and
diagonal quadratic; a least-squares loss with no rows is the zero smooth part
of a regularizer-only agent. All agents share one family and one array
shape, so `CompositeObjective` stacks the losses once, through the family's
own constructor, into one loss of the same class whose methods run the
one-agent matmul code on a leading agent axis; the weights form one vector
whose prox is a soft threshold. Instance generators build the benchmark
problems: sparse least squares, logistic regression, and a separable
quadratic with a closed-form minimizer. `instance_hash` names an instance in
outputs.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

import numpy as np


def soft_threshold(y: np.ndarray, t) -> np.ndarray:
    """Component-wise sign(y) * max(|y| - t, 0); t may be an array that
    broadcasts against y."""
    if np.any(np.asarray(t) < 0.0):
        raise ValueError(f"shrinkage amount must be >= 0, got {t}")
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-u)) for u >= 0 and exp(u) / (1 + exp(u)) otherwise, so
    exp never overflows. e = exp(-|u|) serves both branches; `minimum(u, -u)`
    is -|u| that keeps a nan's sign and payload."""
    e = np.exp(np.minimum(u, -u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _top_gram_eigenvalue(a: np.ndarray):
    """lambda_max(A^T A) of each (p, m) matrix in a, on the smaller Gram side."""
    at = a.swapaxes(-1, -2)
    gram = a @ at if a.shape[-2] <= a.shape[-1] else at @ a
    return np.max(np.linalg.eigvalsh(gram), axis=-1) if gram.size else 0.0


class LeastSquaresLoss:
    """0.5 * ||b - A theta||^2 for A (..., p, m) and b (..., p), any leading
    axes being agents: a stack holds A (n, p, m) and b (n, p), and sums the n
    losses at theta (n, m). With p = 0 rows it is the zero smooth part."""

    strong_convexity = 0.0

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.a.ndim < 2 or self.b.shape != self.a.shape[:-1]:
            raise ValueError("need A of shape (..., p, m) and b of shape (..., p)")
        self.m = self.a.shape[-1]

    @cached_property
    def lipschitz(self):
        return _top_gram_eigenvalue(self.a)

    def _residual(self, theta):
        return (self.a @ theta[..., None])[..., 0] - self.b

    def value(self, theta) -> float:
        r = self._residual(theta)
        return 0.5 * float((r[..., None, :] @ r[..., None]).sum())

    def gradient(self, theta) -> np.ndarray:
        return (self._residual(theta)[..., None, :] @ self.a)[..., 0, :]

    def pooled(self) -> LeastSquaresLoss:
        """One loss over all the rows."""
        return LeastSquaresLoss(self.a.reshape(-1, self.m), self.b.reshape(-1))


class LogisticLoss:
    """Sum of ln(1 + exp(-y <x_j, theta>)) over local samples, with an
    optional ridge term (ridge/2)*||theta||^2 supplying strong convexity.
    Any leading axes are agents: a stack holds features (n, s, m), labels
    (n, s) and ridge (n,)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge=0.0):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.ridge = np.asarray(ridge, dtype=np.float64)
        if self.features.ndim < 2 or self.labels.shape != self.features.shape[:-1]:
            raise ValueError("need features (..., s, m) and labels (..., s)")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +/-1")
        if not np.all(self.ridge >= 0.0):
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        self.m = self.features.shape[-1]

    @cached_property
    def lipschitz(self):
        return 0.25 * _top_gram_eigenvalue(self.features) + self.ridge

    @property
    def strong_convexity(self):
        return self.ridge

    def _margins(self, theta):
        return self.labels * (self.features @ theta[..., None])[..., 0]

    def value(self, theta) -> float:
        loss = float(np.logaddexp(0.0, -self._margins(theta)).sum())
        if not self.ridge.any():
            return loss
        squares = (theta[..., None, :] @ theta[..., None])[..., 0, 0]
        return loss + float((0.5 * self.ridge * squares).sum())

    def gradient(self, theta) -> np.ndarray:
        coeff = -self.labels * _sigmoid(-self._margins(theta))
        return (coeff[..., None, :] @ self.features)[..., 0, :] + self.ridge[..., None] * theta

    def pooled(self) -> LogisticLoss:
        """One loss over all the samples, with the ridges summed."""
        return LogisticLoss(self.features.reshape(-1, self.m), self.labels.reshape(-1),
                            ridge=np.sum(self.ridge))


class DiagonalQuadraticLoss:
    """0.5 * (theta - c)^T diag(d) (theta - c) with d > 0 for d (..., m) and
    c (..., m), any leading axes being agents: a stack holds d (n, m) and
    c (n, m)."""

    def __init__(self, diag: np.ndarray, center: np.ndarray):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.center = np.asarray(center, dtype=np.float64)
        if self.diag.shape != self.center.shape or self.diag.ndim < 1:
            raise ValueError("diag and center must match in shape, with m the last axis")
        if not np.all(self.diag > 0):
            raise ValueError("diagonal curvature must be positive")
        self.m = self.diag.shape[-1]

    @property
    def lipschitz(self):
        return np.max(self.diag, axis=-1)

    @property
    def strong_convexity(self):
        return np.min(self.diag, axis=-1)

    def value(self, theta) -> float:
        d = theta - self.center
        return 0.5 * float((self.diag * d * d).sum())

    def gradient(self, theta) -> np.ndarray:
        return self.diag * (theta - self.center)

    def pooled(self) -> DiagonalQuadraticLoss:
        """The sum of the losses, up to a constant."""
        diag = self.diag.reshape(-1, self.m)
        total = diag.sum(axis=0)
        return DiagonalQuadraticLoss(
            total, np.sum(diag * self.center.reshape(-1, self.m), axis=0) / total)


# Each loss family's arrays, in its constructor's order, which is also the
# order `instance_hash` digests them. The family's stack holds each one
# stacked along a new leading agent axis.
_ARRAYS = {
    LeastSquaresLoss: ("a", "b"),
    LogisticLoss: ("features", "labels", "ridge"),
    DiagonalQuadraticLoss: ("diag", "center"),
}


class CompositeObjective:
    """n agents' smooth losses `smooth` plus their l1 weights `tau`.

    The losses share one of the three families, one dimension and one array
    shape. They stay readable one by one in `smooth`, but the stacked methods
    never loop over agents: at construction the family's constructor, which
    validates its arrays, builds `stack` from their (n, ...) stacks, one loss
    whose methods run the same code as one agent's on a leading agent axis.
    Its curvature constants are per-agent vectors (or one scalar for all),
    computed once; the prox is a single soft threshold (the identity, and the
    value has no l1 term, if not `has_l1`).
    """

    def __init__(self, smooth, tau):
        self.smooth = tuple(smooth)
        self.tau = np.array(tau, dtype=np.float64)
        if not self.smooth or self.tau.shape != (len(self.smooth),):
            raise ValueError("need a non-empty loss list and one l1 weight per loss")
        if not np.all(self.tau >= 0.0):
            raise ValueError(f"l1 weights must be >= 0, got {self.tau}")
        self.has_l1 = bool(self.tau.any())
        dims = {f.m for f in self.smooth}
        if len(dims) != 1:
            raise ValueError(f"all losses must share one dimension, got {sorted(dims)}")
        cls = type(self.smooth[0])
        if cls not in _ARRAYS or any(type(f) is not cls for f in self.smooth):
            names = sorted({type(f).__name__ for f in self.smooth})
            raise ValueError(f"need losses of one class with a stacked form, got {names}")
        # np.stack raises ValueError when the agents' shapes differ.
        self.stack = cls(*(np.stack([getattr(f, name) for f in self.smooth])
                           for name in _ARRAYS[cls]))

    @property
    def n(self) -> int:
        return len(self.smooth)

    @property
    def m(self) -> int:
        return self.smooth[0].m

    def lipschitz(self) -> np.ndarray:
        return np.full(self.n, self.stack.lipschitz)

    def strong_convexity(self) -> np.ndarray:
        return np.full(self.n, self.stack.strong_convexity)

    def stacked_value(self, x: np.ndarray) -> float:
        """Total objective with agent i evaluated at row i of x."""
        x = np.asarray(x, dtype=np.float64)
        l1 = float(self.tau @ np.abs(x).sum(axis=1)) if self.has_l1 else 0.0
        return l1 + self.stack.value(x)

    def gradient_stack(self, x: np.ndarray) -> np.ndarray:
        """Row i: gradient of agent i's smooth loss at row i of x."""
        return self.stack.gradient(np.asarray(x, dtype=np.float64))

    def prox_stack(self, steps: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row i: prox of agent i's l1 term with step steps[i] >= 0 at v[i]."""
        if not self.has_l1:
            return v
        return np.sign(v) * np.maximum(np.abs(v) - (np.asarray(steps) * self.tau)[:, None], 0.0)


def make_lasso_instance(n: int, p: int, m: int, tau: float, seed: int):
    """Sparse least-squares instance: per agent a p-by-m sensing matrix with
    unit-norm rows, a unit-norm target, and an l1 weight tau.

    Returns (objective, raw) where raw holds the stack's A and b arrays.
    """
    if min(n, p, m) < 1:
        raise ValueError("n, p, m must all be positive")
    rng = np.random.default_rng(seed)
    smooth = []
    for _ in range(n):
        a = rng.standard_normal((p, m))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal(p)
        smooth.append(LeastSquaresLoss(a, b / np.linalg.norm(b)))
    obj = CompositeObjective(smooth, np.full(n, float(tau)))
    return obj, {"a": obj.stack.a, "b": obj.stack.b}


def make_logistic_instance(n: int, m_i: int, m: int, seed: int, ridge: float = 0.0):
    """Binary classification instance: standard-normal features with the last
    coordinate forced to 1 (bias), labels from a seeded ground-truth
    direction with 5% flips. Returns (objective, raw)."""
    if min(n, m_i, m) < 1:
        raise ValueError("n, m_i, m must all be positive")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(m)
    smooth = []
    for _ in range(n):
        x = rng.standard_normal((m_i, m))
        x[:, -1] = 1.0
        y = np.where(x @ w_true >= 0.0, 1.0, -1.0)
        y[rng.random(m_i) < 0.05] *= -1.0
        smooth.append(LogisticLoss(x, y, ridge=ridge))
    obj = CompositeObjective(smooth, np.zeros(n))
    return obj, {"features": obj.stack.features, "labels": obj.stack.labels, "w_true": w_true}


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
    stack = objective.stack
    for arr in [objective.tau] + [getattr(stack, name) for name in _ARRAYS[type(stack)]]:
        digest.update(str(arr.shape).encode())
        digest.update(np.asarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]
