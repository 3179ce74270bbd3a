"""Centralized ground-truth solver and optimality residuals.

Provides the minimizer and optimal value used by the metrics as a baseline,
a first-order optimality (KKT) residual for network states, and the text
form in which the harness writes a solve out (nothing reads it back). The
solve works on the summed objective: the objective's stack pooled into one
loss of the same family (all agents' rows or samples, or for quadratics the
curvature-weighted center) and the per-agent l1 weights summed. Its
step is 1/L for L the pooled loss's own gradient Lipschitz bound
(lambda_max(A^T A) for least squares, 0.25 lambda_max(F^T F) plus the summed
ridge for logistic), not the looser sum of the per-agent bounds; those stay
with the decentralized stepsize checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import laplacian_norm
from .objective import CompositeObjective, DiagonalQuadraticLoss, soft_threshold

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


def solve_centralized(
    objective: CompositeObjective, tol: float = 1e-10, max_iter: int = 1_000_000,
) -> ReferenceSolution:
    """Proximal gradient on the summed objective, started at zero, with
    fixed step 1/L, L being the gradient Lipschitz bound of the pooled loss
    of the objective's stack (through which the gradient is taken).

    Stops when the prox-gradient mapping norm drops to `tol`. An exhausted
    iteration budget returns the last point whose mapping norm was
    measured, with that norm, flagged as non-certified. Pure
    diagonal-quadratic instances short-circuit to their closed form: the
    pooled quadratic's center, (sum of diagonals)^-1 (weighted center sum).
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    theta = np.zeros(objective.m)
    smooth = objective.stack.pooled()

    def solution(x, residual, iterations):
        return ReferenceSolution(x, objective.centralized_value(x), residual, iterations,
                                 residual <= tol, tol)

    if isinstance(smooth, DiagonalQuadraticLoss) and not np.any(objective.tau):
        return solution(smooth.center, float(np.linalg.norm(smooth.gradient(smooth.center))), 0)

    lip = smooth.lipschitz
    step = 1.0 / lip if lip > 0.0 else 1.0
    # The regularizers sum to one l1 term with the weights added.
    total_tau = float(np.sum(objective.tau))

    for it in range(max_iter + 1):
        theta_next = theta - step * smooth.gradient(theta)
        if total_tau > 0.0:
            theta_next = soft_threshold(theta_next, step * total_tau)
        residual = float(np.linalg.norm(theta - theta_next)) / step
        if residual <= tol or it == max_iter:
            return solution(theta, residual, it)
        theta = theta_next


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
    return float(np.sqrt(np.sum(d * d))) + laplacian_norm(lap)(x)


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

