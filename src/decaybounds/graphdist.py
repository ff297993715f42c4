"""Geodesic distances on the sparsity-pattern graph.

Every banded bound generalizes to arbitrary Hermitian sparsity patterns by
replacing the band distance |k - t| / beta with the geodesic distance in
the undirected graph of the nonzero pattern.  Every bound takes its
distance as an argument, so either kind can be passed.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def geodesic_from(M, t):
    """Breadth-first distances from node t (1-based) in the pattern graph:
    a float array whose index j - 1 holds d(t, j).

    Edges are the off-diagonal stored entries that are not zero: the
    pattern of M itself, since (M^j)_{kt} = 0 for every j below d(t, k)
    only on that graph, and dropping an edge breaks the bound.  Diagonal
    entries never contribute edges.  Disconnected nodes get distance inf.
    """
    n = M.n
    if not (1 <= t <= n):
        raise IndexError(f"source {t} outside 1..{n}")
    indptr, indices = M.matrix.indptr.tolist(), M.matrix.indices.tolist()
    edge = (np.abs(M.matrix.data) > 0).tolist()
    dist = [math.inf] * n
    dist[t - 1] = 0.0
    queue = deque([t - 1])
    while queue:
        i = queue.popleft()
        step = dist[i] + 1.0
        # a diagonal entry is never taken: dist[i] is already finite
        for p in range(indptr[i], indptr[i + 1]):
            j = indices[p]
            if edge[p] and dist[j] == math.inf:
                dist[j] = step
                queue.append(j)
    return np.array(dist)
