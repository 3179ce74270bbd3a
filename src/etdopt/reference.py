"""Centralized ground-truth solver and optimality residuals.

Provides the minimizer and optimal value used by the metrics as a baseline,
a first-order optimality (KKT) residual for network states, and the text
form in which the harness writes a solve out (nothing reads it back). f* is
`stacked_value`, the evaluation behind every recorded gap, at the minimizer
replicated on every agent: a run sitting there records a gap of exactly 0.
The solve works on the summed objective: the objective's stack pooled into
one loss of the same family (all agents' rows or samples, or for quadratics
the curvature-weighted center) and the per-agent l1 weights summed. It runs
accelerated proximal gradient (FISTA, Beck & Teboulle 2009) with
gradient-based adaptive restart (O'Donoghue & Candes 2015). Its step is 1/L
for L the pooled loss's own gradient Lipschitz bound (lambda_max(A^T A) for
least squares, 0.25 lambda_max(F^T F) plus the summed ridge for logistic),
not the looser sum of the per-agent bounds; those stay with the
decentralized stepsize checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import laplacian_norm
from .objective import CompositeObjective, DiagonalQuadraticLoss, soft_threshold

CACHE_MAGIC = "etdopt-reference"
CACHE_VERSION = 1


class ReferenceSolution(NamedTuple):
    x_star: np.ndarray
    f_star: float
    solver_residual: float
    iterations: int
    certified: bool
    tol: float


def solve_centralized(
    objective: CompositeObjective, tol: float = 1e-10, max_iter: int = 1_000_000,
) -> ReferenceSolution:
    """FISTA with adaptive restart on the summed objective, started at zero,
    with fixed step 1/L, L being the gradient Lipschitz bound of the pooled
    loss of the objective's stack (through which the gradient is taken).

    Each iteration takes one prox-gradient step from the extrapolated point
    y. The momentum restarts (y is set to the new iterate) whenever that
    step points against the move from the previous iterate to the new one,
    the gradient restart test; the objective need not fall at every
    iteration. The residual is the prox-gradient mapping norm at y, and y is
    the point returned: the solve stops when that norm drops to `tol`. An
    exhausted iteration budget returns the last y whose mapping norm was
    measured, with that norm, flagged as non-certified. Pure
    diagonal-quadratic instances short-circuit to their closed form: the
    pooled quadratic's center, (sum of diagonals)^-1 (weighted center sum).
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    smooth = objective.stack.pooled()

    def solution(x, residual, iterations):
        f_star = objective.stacked_value(np.tile(x, (objective.n, 1)))
        return ReferenceSolution(x, f_star, residual, iterations, residual <= tol, tol)

    if isinstance(smooth, DiagonalQuadraticLoss) and not objective.has_l1:
        return solution(smooth.center, float(np.linalg.norm(smooth.gradient(smooth.center))), 0)

    lip = smooth.lipschitz
    step = 1.0 / lip if lip > 0.0 else 1.0
    # The regularizers sum to one l1 term with the weights added.
    total_tau = float(np.sum(objective.tau))

    x = y = np.zeros(objective.m)
    t = 1.0
    for it in range(max_iter + 1):
        x_next = y - step * smooth.gradient(y)
        if total_tau > 0.0:
            x_next = soft_threshold(x_next, step * total_tau)
        mapped = y - x_next
        residual = float(np.linalg.norm(mapped)) / step
        if residual <= tol or it == max_iter:
            return solution(y, residual, it)
        if np.dot(mapped, x_next - x) > 0.0:  # the step from y turns back on the last move
            t, y = 1.0, x_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        x = x_next


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

