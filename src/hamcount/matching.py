"""Maximum bipartite matching (Hopcroft-Karp) on CSR rows, iterative throughout.

Each phase's breadth-first search runs on arrays, a frontier at a time; its
distances do not depend on the order of the scan.  The depth-first phase
walks the rows in the order handed in, with an explicit stack so instances
with thousands of vertices cannot hit the interpreter recursion limit; that
order alone breaks ties, so results are deterministic for a given input.
"""
from __future__ import annotations

import numpy as np

from .digraph import csr_gather

INF = -1  # sentinel distance


def hopcroft_karp(n_left: int, n_right: int, indptr: np.ndarray,
                  heads: np.ndarray) -> tuple[int, list[int], list[int]]:
    """Maximum matching of the bipartite graph left -> right, given as CSR
    int64 arrays: the right-neighbours of left vertex u are
    heads[indptr[u]:indptr[u + 1]], tried in that order.  Returns (matching
    size, match_left, match_right) where match_left[u] is the right partner
    of u or -1, and symmetrically for match_right."""
    starts, flat = indptr.tolist(), heads.tolist()
    match_left, match_right = [-1] * n_left, [-1] * n_right
    size = 0
    while (dist := _bfs(indptr, heads, match_left, match_right)) is not None:
        for u in range(n_left):
            if match_left[u] == -1 and _dfs(u, starts, flat, match_left, match_right, dist):
                size += 1
    return size, match_left, match_right


def _bfs(indptr, heads, match_left, match_right) -> list[int] | None:
    """Alternating-path distances of the left vertices from the free ones
    (``INF`` where unreached), or None when no free right vertex is reached."""
    matched_to = np.array(match_right, dtype=np.int64)
    frontier = np.flatnonzero(np.array(match_left, dtype=np.int64) == -1)
    dist = np.full(len(match_left), INF)
    dist[frontier] = 0
    found, level = False, 0
    while frontier.size:
        level += 1
        left = matched_to[heads[csr_gather(indptr, frontier)[1]]]
        found = found or bool((left == -1).any())
        left = left[left >= 0]
        frontier = np.unique(left[dist[left] == INF])
        dist[frontier] = level
    return dist.tolist() if found else None


def _dfs(root, starts, flat, match_left, match_right, dist) -> bool:
    # Explicit stack of (vertex, position in flat); u's row ends at starts[u + 1].
    stack: list[tuple[int, int]] = [(root, starts[root])]
    path: list[tuple[int, int]] = []  # (left vertex, chosen right vertex)
    while stack:
        u, i = stack[-1]
        if i >= starts[u + 1]:
            dist[u] = INF
            stack.pop()
            if path:  # drop the edge by which we descended into u
                path.pop()
            continue
        stack[-1] = (u, i + 1)
        v = flat[i]
        w = match_right[v]
        if w == -1:
            # Augmenting path found: flip along the recorded choices.
            path.append((u, v))
            for pu, pv in path:
                match_left[pu] = pv
                match_right[pv] = pu
            return True
        if dist[w] == dist[u] + 1:
            path.append((u, v))
            stack.append((w, starts[w]))
    return False
