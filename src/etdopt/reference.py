"""Centralized ground-truth solver and optimality residuals.

Provides the minimizer and optimal value used by the metrics as a baseline,
a first-order optimality (KKT) residual for network states, and the text
form in which the harness writes a solve out (nothing reads it back). The
solve works on the summed objective, with the per-agent losses pooled into
one loss per loss class (stacked rows or samples) and the per-agent l1
weights into one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import laplacian_quadratic_norm
from .objective import (
    CompositeObjective,
    DiagonalQuadraticLoss,
    quadratic_minimizer,
    soft_threshold,
)

CACHE_MAGIC = "etdopt-reference"
CACHE_VERSION = 1


@dataclass
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    solver_residual: float
    iterations: int
    certified: bool
    tol: float


class _PooledSmooth:
    """Gradient of the sum of the per-agent smooth parts, with one pooled
    loss per stack of the objective (see `CompositeObjective`): least
    squares over the stacked rows, logistic over the stacked samples with
    the ridges summed, one diagonal quadratic per stack of quadratics."""

    def __init__(self, objective: CompositeObjective):
        self.m = objective.m
        self.parts = [stack.pooled() for _, stack in objective.stacks]

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        g = np.zeros(self.m)
        for part in self.parts:
            g += part.gradient(theta)
        return g


def solve_centralized(
    objective: CompositeObjective, tol: float = 1e-10, max_iter: int = 1_000_000,
) -> ReferenceSolution:
    """Proximal gradient on the summed objective, started at zero, with
    fixed step 1/l, l being the sum of the per-agent gradient Lipschitz
    bounds. The gradient is taken through the pooled losses of
    `_PooledSmooth`.

    Stops when the prox-gradient mapping norm drops to `tol`; an exhausted
    iteration budget returns the best point flagged as non-certified. Pure
    diagonal-quadratic instances short-circuit to their closed form.
    """
    m = objective.m
    theta = np.zeros(m)
    smooth = _PooledSmooth(objective)

    if (
        all(isinstance(f, DiagonalQuadraticLoss) for f in objective.smooth)
        and all(g.is_zero for g in objective.nonsmooth)
    ):
        x_star = quadratic_minimizer(objective)
        residual = float(np.linalg.norm(smooth.gradient(x_star)))
        return ReferenceSolution(
            x_star=x_star,
            f_star=objective.centralized_value(x_star),
            solver_residual=residual,
            iterations=0,
            certified=residual <= tol,
            tol=tol,
        )

    lip = float(np.sum(objective.lipschitz()))
    step = 1.0 / lip if lip > 0.0 else 1.0
    # The regularizers sum to one l1 term with the weights added.
    total_tau = float(np.sum(objective.tau))

    residual = np.inf
    for it in range(max_iter + 1):
        theta_next = theta - step * smooth.gradient(theta)
        if total_tau > 0.0:
            theta_next = soft_threshold(theta_next, step * total_tau)
        residual = float(np.linalg.norm(theta - theta_next)) / step
        if residual <= tol:
            return ReferenceSolution(
                x_star=theta,
                f_star=objective.centralized_value(theta),
                solver_residual=residual,
                iterations=it,
                certified=True,
                tol=tol,
            )
        theta = theta_next
    return ReferenceSolution(
        x_star=theta,
        f_star=objective.centralized_value(theta),
        solver_residual=residual,
        iterations=max_iter,
        certified=False,
        tol=tol,
    )


def dual_from_reference(objective: CompositeObjective, x_star: np.ndarray) -> np.ndarray:
    """Optimal dual stack recovered from centralized stationarity.

    Row i is (mean of all gradients) - (gradient of agent i) at the
    minimizer; the rows sum to zero and the shared remainder is the
    regularizer subgradient selected by the centralized optimality
    condition.
    """
    grads = objective.gradient_stack(np.tile(x_star, (objective.n, 1)))
    return grads.mean(axis=0) - grads


def kkt_residual(x: np.ndarray, z: np.ndarray, objective: CompositeObjective,
                 lap: np.ndarray) -> float:
    """First-order optimality residual of a primal-dual stack.

    Sum of the stationarity distance (how far -z - grad f is from the
    regularizer subdifferential, agent by agent) and the consensus seminorm
    of x. Zero exactly at an optimal pair.
    """
    x = np.asarray(x, dtype=np.float64)
    target = -np.asarray(z, dtype=np.float64) - objective.gradient_stack(x)
    # Distance to tau * subdifferential of ||.||_1 at x, by exact projection
    # per coordinate; a zero regularizer has tau = 0.
    tau = objective.tau[:, None]
    d = np.where(x == 0.0, np.maximum(np.abs(target) - tau, 0.0), target - tau * np.sign(x))
    return float(np.sqrt(np.sum(d * d))) + laplacian_quadratic_norm(lap, x)


def reference_to_text(sol: ReferenceSolution, instance_digest: str) -> str:
    lines = [
        f"{CACHE_MAGIC} {CACHE_VERSION}",
        f"instance {instance_digest}",
        f"tol {sol.tol:.17g}",
        f"f_star {sol.f_star:.17g}",
        f"solver_residual {sol.solver_residual:.17g}",
        f"iterations {sol.iterations}",
        f"certified {int(sol.certified)}",
        "x_star",
        " ".join(f"{v:.17g}" for v in sol.x_star),
    ]
    return "\n".join(lines) + "\n"

