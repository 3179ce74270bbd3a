"""Stacked numpy re-implementation of the event-triggered iteration, and
reference values computed apart from the program.

The oracle shares only the generated inputs with `etdopt` (the instance
arrays and the graph's edge list); the iteration, the trigger, the objective
values, the Laplacian and the minimizers are computed here from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


_LEAD = {"lasso": "a", "logistic": "f", "quadratic": "d"}  # array whose shape gives (n, ..., m)


@dataclass
class Problem:
    """One instance as stacked arrays: agent i owns row i of every array."""

    kind: str                 # "lasso", "logistic" or "quadratic"
    arrays: dict              # lasso: a (n,p,m), b (n,p), tau; logistic: f (n,s,m), y (n,s);
                              # quadratic: d (n,m), c (n,m)
    edges: np.ndarray         # (E, 2) undirected edge list

    @property
    def n(self) -> int:
        return self.arrays[_LEAD[self.kind]].shape[0]

    @property
    def m(self) -> int:
        return self.arrays[_LEAD[self.kind]].shape[-1]

    def laplacian(self) -> np.ndarray:
        n = self.n
        lap = np.zeros((n, n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        np.add.at(lap, (i, j), -1.0)
        np.add.at(lap, (j, i), -1.0)
        lap[np.diag_indices(n)] = -lap.sum(axis=1)
        return lap

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Row i: gradient of agent i's smooth loss at x[i]."""
        a = self.arrays
        if self.kind == "lasso":
            resid = np.einsum("npm,nm->np", a["a"], x) - a["b"]
            return np.einsum("npm,np->nm", a["a"], resid)
        if self.kind == "logistic":
            margins = a["y"] * np.einsum("nsm,nm->ns", a["f"], x)
            coeff = -a["y"] * np.exp(-np.logaddexp(0.0, margins))  # -y * sigmoid(-margin)
            return np.einsum("nsm,ns->nm", a["f"], coeff)
        return a["d"] * (x - a["c"])

    def stacked_value(self, x: np.ndarray) -> float:
        """Total objective with agent i evaluated at row i of x."""
        a = self.arrays
        if self.kind == "lasso":
            resid = np.einsum("npm,nm->np", a["a"], x) - a["b"]
            return 0.5 * float(np.sum(resid**2)) + a["tau"] * float(np.sum(np.abs(x)))
        if self.kind == "logistic":
            margins = a["y"] * np.einsum("nsm,nm->ns", a["f"], x)
            return float(np.sum(np.logaddexp(0.0, -margins)))
        return 0.5 * float(np.sum(a["d"] * (x - a["c"]) ** 2))

    def lipschitz(self) -> np.ndarray:
        """Per-agent gradient Lipschitz constants from LAPACK eigenvalues."""
        a = self.arrays
        if self.kind == "lasso":
            return np.linalg.eigvalsh(np.einsum("npm,npk->nmk", a["a"], a["a"]))[:, -1]
        if self.kind == "logistic":
            return 0.25 * np.linalg.eigvalsh(np.einsum("nsm,nsk->nmk", a["f"], a["f"]))[:, -1]
        return a["d"].max(axis=1)


def consensus_error(lap: np.ndarray, v: np.ndarray) -> float:
    """sqrt(sum over edges of ||v_i - v_j||^2), read off the Laplacian."""
    ii, jj = np.nonzero(np.triu(-lap, 1))
    diff = v[ii] - v[jj]
    return float(np.sqrt(np.sum(diff * diff)))


@dataclass
class Schedule:
    kind: str           # "poly", "exp", "zero" or "everyN"
    e0: float = 0.0
    rate: float = 0.0   # poly exponent or exp ratio
    period: int = 0

    @classmethod
    def parse(cls, spec: str) -> "Schedule":
        parts = spec.split(":")
        if parts[0] == "poly":
            return cls("poly", float(parts[1]), float(parts[2]))
        if parts[0] == "exp":
            return cls("exp", float(parts[1]), float(parts[2]))
        if parts[0] == "everyN":
            return cls("everyN", period=int(parts[1]))
        if parts == ["zero"]:
            return cls("zero")
        raise ValueError(f"unknown schedule {spec!r}")

    def threshold(self, k: int) -> float:
        if self.kind == "poly":
            return self.e0 / float(k) ** self.rate
        if self.kind == "exp":
            return self.e0 * self.rate**k
        return 0.0

    def fires(self, k: int, deviation: np.ndarray) -> np.ndarray:
        """Per-agent broadcast decision at round k >= 1 from the stacked
        deviation x_new - x_tilde."""
        if self.kind == "everyN":
            return np.full(deviation.shape[0], k % self.period == 0)
        if self.kind == "zero":
            return np.any(deviation != 0.0, axis=1)
        return np.linalg.norm(deviation, axis=1) > self.threshold(k)


@dataclass
class OracleRun:
    objective_gap: np.ndarray      # |F(ergodic average at k) - f*|, k = 1..R
    consensus_error: np.ndarray    # consensus error of the ergodic average, k = 1..R
    final_primal_residual: float
    broadcasts_cum: np.ndarray     # network-wide cumulative broadcasts, k = 0..R


def run_oracle(problem: Problem, schedule: Schedule, beta: float, eta: np.ndarray,
               rounds: int, x_star: np.ndarray, f_star: float) -> OracleRun:
    """Event-triggered linearized augmented Lagrangian iteration on stacked
    arrays: a prox-linear primal step with beta L x_tilde, the per-agent
    trigger, then dual ascent with beta L x_tilde."""
    n, m = problem.n, problem.m
    lap = problem.laplacian()
    x = np.zeros((n, m))
    z = np.zeros((n, m))
    x_tilde = x.copy()
    ergodic = np.zeros((n, m))
    cum = [n]
    gaps, cons = [], []
    tau_over_eta = (problem.arrays["tau"] / eta)[:, None] if problem.kind == "lasso" else None
    for k in range(1, rounds + 1):
        x = x - (z + problem.gradient(x) + beta * (lap @ x_tilde)) / eta[:, None]
        if tau_over_eta is not None:  # prox of tau ||.||_1 with step 1/eta_i
            x = np.sign(x) * np.maximum(np.abs(x) - tau_over_eta, 0.0)
        fire = schedule.fires(k, x - x_tilde)
        x_tilde = np.where(fire[:, None], x, x_tilde)
        z = z + beta * (lap @ x_tilde)
        cum.append(cum[-1] + int(fire.sum()))
        ergodic += x
        avg = ergodic / k
        gaps.append(abs(problem.stacked_value(avg) - f_star))
        cons.append(consensus_error(lap, avg))
    start = float(np.sqrt(n) * np.linalg.norm(x_star))  # ||x0 - x*||_F with x0 = 0
    dist = float(np.linalg.norm(x - x_star[None, :]))
    return OracleRun(
        objective_gap=np.array(gaps),
        consensus_error=np.array(cons),
        final_primal_residual=dist / start if start > 0.0 else dist,
        broadcasts_cum=np.array(cum),
    )


def reference_value(problem: Problem):
    """(x*, f*) of the centralized problem, computed without the program's
    solver: an optimality certificate for lasso at zero, the closed form for
    the quadratic, and Newton's method for logistic."""
    a = problem.arrays
    if problem.kind == "lasso":
        # x* = 0 is optimal iff ||sum_i A_i^T b_i||_inf <= n * tau.
        corr = np.einsum("npm,np->m", a["a"], a["b"])
        if np.max(np.abs(corr)) > problem.n * a["tau"]:
            raise ValueError("lasso instance is not solved at zero; no independent value")
        x_star = np.zeros(problem.m)
        return x_star, 0.5 * float(np.sum(a["b"] ** 2))
    if problem.kind == "quadratic":
        x_star = np.sum(a["d"] * a["c"], axis=0) / np.sum(a["d"], axis=0)
        return x_star, problem.stacked_value(np.broadcast_to(x_star, a["d"].shape))
    # Logistic: damped Newton on the summed loss, which is smooth and, on these
    # non-separable instances, strictly convex.
    feats = a["f"].reshape(-1, problem.m)
    labels = a["y"].reshape(-1)

    def value(w):
        return float(np.sum(np.logaddexp(0.0, -labels * (feats @ w))))

    w = np.zeros(problem.m)
    for _ in range(100):
        s = np.exp(-np.logaddexp(0.0, labels * (feats @ w)))  # sigmoid(-margin)
        grad = feats.T @ (-labels * s)
        if np.linalg.norm(grad) <= 1e-10:
            return w, value(w)
        step = np.linalg.solve(feats.T @ ((s * (1.0 - s))[:, None] * feats), grad)
        t, f0 = 1.0, value(w)
        while value(w - t * step) > f0 and t > 1e-8:
            t *= 0.5
        w = w - t * step
    raise ValueError("independent logistic solve did not converge")
