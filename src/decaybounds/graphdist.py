"""Geodesic distances on the sparsity-pattern graph.

Every banded bound generalizes to arbitrary Hermitian sparsity patterns by
replacing the band distance |k - t| / beta with the geodesic distance in
the undirected graph of the nonzero pattern.  Every bound takes its
distance as an argument, so either kind can be passed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DistanceVector:
    """Single-source geodesic distances; unreachable nodes carry inf."""

    source: int               # 1-based
    distances: np.ndarray     # float array, index j-1 holds d(source, j)

    def __getitem__(self, j):
        return float(self.distances[j - 1])

    @property
    def n(self):
        return self.distances.size


def geodesic_from(M, t, *, drop_tol=0.0):
    """Breadth-first distances from node t (1-based) in the pattern graph.

    Edges are off-diagonal stored entries with magnitude above
    ``drop_tol`` (default 0: the exact nonzero pattern).  Diagonal entries
    never contribute edges.  Disconnected nodes get distance inf.
    """
    n = M.n
    if not (1 <= t <= n):
        raise IndexError(f"source {t} outside 1..{n}")
    dist = np.full(n, np.inf)
    dist[t - 1] = 0.0
    queue = deque([t])
    while queue:
        i = queue.popleft()
        base = dist[i - 1]
        for j in M.pattern_neighbors(i, drop_tol=drop_tol):
            if np.isinf(dist[j - 1]):
                dist[j - 1] = base + 1.0
                queue.append(j)
    return DistanceVector(source=t, distances=dist)

