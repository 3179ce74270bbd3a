"""Undirected communication topology.

Random connected graphs with a prescribed edge budget, the graph Laplacian,
connectivity, and the Laplacian seminorm that measures consensus error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphConfigError(ValueError):
    """Rejected graph configuration (infeasible edge count, bad ratio, ...)."""


# Connected samples tried by `generate_random_graph` before it gives up.
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    `edges` is a lexicographically sorted tuple of (i, j) pairs with i < j.
    """

    n: int
    edges: tuple

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
        return cls(n=n, edges=tuple(sorted(normalized)))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Degree matrix minus adjacency. Built in integers, then cast, so each
        row sums to zero exactly. Built once per graph and shared, so the array
        is read-only."""
        i, j = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        lap = np.zeros((self.n, self.n), dtype=np.int64)
        lap[i, j] = lap[j, i] = -1
        np.fill_diagonal(lap, -lap.sum(axis=1))
        lap = lap.astype(np.float64)
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
        # sorted, unique and in range by construction: no per-edge checks
        g = Graph(n, tuple(zip(iu[pick].tolist(), ju[pick].tolist())))
        if is_connected(g):
            return g
    raise GraphConfigError(
        f"no connected graph with {m_edges} edges on {n} nodes after {_MAX_ATTEMPTS} attempts"
    )


def is_connected(g: Graph) -> bool:
    """Breadth-first search from node 0 reaches every node. Each step
    advances a boolean frontier through the Laplacian's negative
    off-diagonal entries, the edges."""
    adjacent = g.laplacian < 0.0
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def laplacian_norm(lap: np.ndarray):
    """The map v -> sqrt(sum over coordinates of v^T lap v) for a graph
    Laplacian lap (zero row sums, nonpositive off-diagonal; any other matrix
    raises ValueError), with lap checked once; the square-root factor of lap
    is never formed.

    Each point is first centred on its row 0, d = v - v[0], which leaves the
    form unchanged because lap annihilates constant rows. At consensus d is
    exactly zero, and near it lap @ d carries only the roundoff of the small
    differences, where the plain sum(v * (lap @ v)) leaves sqrt(eps) noise
    from the cancellation of large terms. Where the squares overflow, d is
    divided by the largest power of two not above its largest entry, which
    is exact, and the form taken again: a finite point has a finite norm
    unless the norm itself exceeds the float range. The caller sets numpy's
    error state for the squares (`metrics.ErgodicRecorder` does).
    """
    lap = np.asarray(lap, dtype=np.float64)
    n = lap.shape[0]
    off = lap - np.diag(np.diag(lap))
    if not (np.all(lap @ np.ones(n) == 0.0) and np.all(off <= 0.0)):
        raise ValueError("expected a graph Laplacian: zero row sums, nonpositive off-diagonal")

    def norm(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=np.float64)
        d = v - v[0]
        quad = float((d * (lap @ d)).sum())
        if math.isfinite(quad):
            return math.sqrt(max(quad, 0.0))
        peak = float(np.abs(d).max())
        if not peak < math.inf:
            return peak  # a non-finite point: inf, or nan
        scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)  # the power of two <= peak
        d /= scale
        return scale * math.sqrt(max(float((d * (lap @ d)).sum()), 0.0))

    return norm
