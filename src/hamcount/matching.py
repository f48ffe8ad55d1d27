"""Maximum bipartite matching (Hopcroft-Karp) on CSR rows, iterative throughout.

Each phase's breadth-first search runs on arrays, a frontier at a time: the
next frontier is the sorted set of left vertices that the level reaches
first, and the distances do not depend on the order of the scan.  The
depth-first phase walks the rows in the order handed in, holding its path
in three parallel lists (left vertices, next row positions, right vertices)
rather than a recursion, so instances with thousands of vertices cannot hit
the interpreter recursion limit; that order alone breaks ties, so results
are deterministic for a given input.
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
        dist[left[dist[left] == INF]] = level
        frontier = np.flatnonzero(dist == level)  # sorted, each vertex once
    return dist.tolist() if found else None


def _dfs(root, starts, flat, match_left, match_right, dist) -> bool:
    # The alternating path from root: its left vertices, the position in flat
    # of the next entry to try in each one's row (u's row ends at
    # starts[u + 1]), and the right vertex by which each later one is reached.
    lefts, nexts, rights = [root], [starts[root]], []
    while lefts:
        u = lefts[-1]
        i, end, level = nexts[-1], starts[u + 1], dist[u] + 1
        while i < end:
            v = flat[i]
            i += 1
            w = match_right[v]
            if w == -1:
                # Augmenting path found: flip along the recorded choices.
                rights.append(v)
                for pu, pv in zip(lefts, rights):
                    match_left[pu] = pv
                    match_right[pv] = pu
                return True
            if dist[w] == level:
                break
        else:
            dist[u] = INF  # a dead end for the rest of the phase
            lefts.pop()
            nexts.pop()
            if rights:  # drop the edge by which we descended into u
                rights.pop()
            continue
        nexts[-1] = i
        lefts.append(w)
        nexts.append(starts[w])
        rights.append(v)
    return False
