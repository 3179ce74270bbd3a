"""Undirected communication topology.

Random connected graphs with a prescribed edge budget, Laplacian
construction, spectral quantities of symmetric matrices (LAPACK through
`numpy.linalg`), and the positive-definiteness margins used to validate
primal-dual stepsizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class GraphConfigError(ValueError):
    """Rejected graph configuration (infeasible edge count, bad ratio, ...)."""


# Connected samples tried by `generate_random_graph` before it gives up.
_MAX_ATTEMPTS = 1000


class StepsizeCheck(NamedTuple):
    ok: bool
    margin: float


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    `edges` is a lexicographically sorted tuple of (i, j) pairs with i < j;
    `neighbors[i]` is the ascending tuple of nodes adjacent to i.
    """

    n: int
    edges: tuple
    neighbors: tuple
    degrees: tuple

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise GraphConfigError(f"node count must be >= 1, got {n}")
        normalized = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise GraphConfigError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphConfigError(f"edge ({i},{j}) out of range for n={n}")
            key = (i, j) if i < j else (j, i)
            if key in normalized:
                raise GraphConfigError(f"duplicate edge {key}")
            normalized.add(key)
        sorted_edges = tuple(sorted(normalized))
        nbrs = [[] for _ in range(n)]
        for i, j in sorted_edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        neighbors = tuple(tuple(sorted(v)) for v in nbrs)
        degrees = tuple(len(v) for v in neighbors)
        return cls(n=n, edges=sorted_edges, neighbors=neighbors, degrees=degrees)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """See `laplacian`."""
        a = adjacency(self)
        lap = (np.diag(np.asarray(self.degrees, dtype=np.int64)) - a).astype(np.float64)
        lap.setflags(write=False)
        return lap


def generate_random_graph(n: int, r: float, seed: int) -> Graph:
    """Sample a connected graph with round(r * n(n-1)/2) edges, uniformly.

    `r` is the fraction of all possible links that are present. Sampling is
    repeated with an incremented sub-seed until the graph is connected, so
    the result is deterministic in (n, r, seed).
    """
    if n < 2:
        raise GraphConfigError(f"need at least 2 nodes, got {n}")
    if not (0.0 < r <= 1.0):
        raise GraphConfigError(f"connectivity ratio must be in (0, 1], got {r}")
    total = n * (n - 1) // 2
    m_edges = int(round(r * total))
    if m_edges < n - 1:
        raise GraphConfigError(
            f"edge budget {m_edges} cannot connect {n} nodes (needs >= {n - 1})"
        )
    iu, ju = np.triu_indices(n, 1)
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        pick = rng.choice(total, size=m_edges, replace=False)
        pick.sort()
        g = Graph.from_edges(n, [(int(iu[p]), int(ju[p])) for p in pick])
        if is_connected(g):
            return g
    raise GraphConfigError(
        f"no connected graph with {m_edges} edges on {n} nodes after {_MAX_ATTEMPTS} attempts"
    )


def is_connected(g: Graph) -> bool:
    """Breadth-first search from node 0 reaches every node."""
    if g.n == 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    count += 1
                    nxt.append(j)
        frontier = nxt
    return count == g.n


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = 1
        a[j, i] = 1
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency. Built in integers, then cast, so each
    row sums to zero exactly. Built once per graph and shared, so the array
    is read-only."""
    return g.laplacian_matrix


def laplacian_norm(lap: np.ndarray):
    """The map v -> sqrt(sum over coordinates of v^T lap v) for a graph
    Laplacian lap (zero row sums, nonpositive off-diagonal; any other matrix
    raises ValueError), with lap's structure read once; the square-root
    factor of lap is never formed.

    The quadratic form is expanded over edge differences, which is exact at
    consensus points where a matrix product leaves sqrt(eps) noise.
    """
    lap = np.asarray(lap, dtype=np.float64)
    n = lap.shape[0]
    off = lap - np.diag(np.diag(lap))
    if not (np.all(lap @ np.ones(n) == 0.0) and np.all(off <= 0.0)):
        raise ValueError("expected a graph Laplacian: zero row sums, nonpositive off-diagonal")
    ii, jj = np.nonzero(np.triu(off, 1) != 0.0)
    weights = -lap[ii, jj]
    # Edge-difference buffers, kept between calls: fresh arrays of this size
    # cost more in page faults than the arithmetic on them.
    buffers = {}

    def norm(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=np.float64)
        mat = v[:, None] if v.ndim == 1 else v
        shape = (ii.size, mat.shape[1])
        if shape not in buffers:
            buffers.clear()
            buffers[shape] = (np.empty(shape), np.empty(shape))
        diff, other = buffers[shape]
        np.take(mat, ii, axis=0, out=diff)
        np.take(mat, jj, axis=0, out=other)
        np.subtract(diff, other, out=diff)
        quad = float(weights @ np.einsum("em,em->e", diff, diff))
        return float(np.sqrt(max(quad, 0.0)))

    return norm


def laplacian_quadratic_norm(lap: np.ndarray, v: np.ndarray) -> float:
    """sqrt(sum over coordinates of v^T lap v), the consensus error of the
    rows of v; see `laplacian_norm`, which serves many vectors on one
    matrix."""
    return laplacian_norm(lap)(v)


def _check_symmetric(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.array_equal(mat, mat.T):
        raise ValueError("matrix is not exactly symmetric")
    return mat


def eigh(mat: np.ndarray):
    """Full eigendecomposition of a symmetric matrix (LAPACK).

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    return np.linalg.eigh(_check_symmetric(mat))


def max_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (LAPACK)."""
    return float(np.linalg.eigvalsh(_check_symmetric(mat))[-1])


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK); its sign is
    reliable down to roundoff in the matrix entries, so margins near zero
    are classified correctly."""
    return float(np.linalg.eigvalsh(_check_symmetric(mat))[0])


def _as_diag_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    return arr


def check_stepsize_composite(eta, beta: float, lap: np.ndarray, lipschitz) -> StepsizeCheck:
    """Margin of the weight matrix over the gradient curvature.

    Returns (ok, margin) with margin = smallest eigenvalue of
    diag(eta) - beta*lap - diag(lipschitz); ok means margin > 0.
    """
    lap = _check_symmetric(lap)
    n = lap.shape[0]
    eta = _as_diag_vector(eta, n, "eta")
    lf = _as_diag_vector(lipschitz, n, "lipschitz")
    if np.any(eta <= 0):
        raise ValueError("all eta entries must be positive")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    mat = np.diag(eta) - beta * lap - np.diag(lf)
    margin = min_eigenvalue(mat)
    return StepsizeCheck(margin > 0.0, margin)


def check_stepsize_strongly_convex(
    eta, beta: float, lap: np.ndarray, lipschitz, strong_convexity, k1: float
) -> StepsizeCheck:
    """Stricter margin used in the strongly convex regime: the composite
    margin of diag(eta) - beta*lap - diag(lipschitz**2)/k1.

    Requires 0 < k1 < 2*min(strong_convexity), so that
    2*diag(strong_convexity) - k1*I is positive definite.
    """
    n = np.shape(lap)[0]
    mu_min = float(np.min(_as_diag_vector(strong_convexity, n, "strong_convexity")))
    if not (0.0 < k1 < 2.0 * mu_min):
        raise ValueError(f"k1 must lie in (0, {2.0 * mu_min}), got {k1}")
    lf = _as_diag_vector(lipschitz, n, "lipschitz")
    return check_stepsize_composite(eta, beta, lap, lf**2 / k1)
