"""Maximum bipartite matching (Hopcroft-Karp), iterative throughout.

The DFS phase is explicit-stack so instances with thousands of vertices
cannot hit the interpreter recursion limit.  Tie-breaking is fixed by the
adjacency order handed in, so results are deterministic for a given input.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

INF = -1  # sentinel distance


def hopcroft_karp(n_left: int, n_right: int, adj: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """Maximum matching of the bipartite graph left -> right.

    ``adj[u]`` lists the right-neighbours of left vertex u.  Returns
    (matching size, match_left, match_right) where match_left[u] is the right
    partner of u or -1, and symmetrically for match_right.
    """
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    dist = [INF] * n_left
    size = 0
    while _bfs(n_left, adj, match_left, match_right, dist):
        for u in range(n_left):
            if match_left[u] == -1 and _dfs(u, adj, match_left, match_right, dist):
                size += 1
    return size, match_left, match_right


def _bfs(n_left, adj, match_left, match_right, dist) -> bool:
    queue: deque[int] = deque()
    for u in range(n_left):
        if match_left[u] == -1:
            dist[u] = 0
            queue.append(u)
        else:
            dist[u] = INF
    found = False
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            w = match_right[v]
            if w == -1:
                found = True
            elif dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return found


def _dfs(root, adj, match_left, match_right, dist) -> bool:
    # Explicit stack of (vertex, iterator position over adj).
    stack: list[tuple[int, int]] = [(root, 0)]
    path: list[tuple[int, int]] = []  # (left vertex, chosen right vertex)
    while stack:
        u, i = stack[-1]
        if i >= len(adj[u]):
            dist[u] = INF
            stack.pop()
            if path:  # drop the edge by which we descended into u
                path.pop()
            continue
        stack[-1] = (u, i + 1)
        v = adj[u][i]
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
            stack.append((w, 0))
    return False
