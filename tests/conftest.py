import itertools

import numpy as np
import pytest

from hamcount.digraph import Digraph
from hamcount.exact import _subset_sums


def brute_force_hamilton_count(d: Digraph) -> int:
    """Independent oracle: enumerate cyclic orders anchored at vertex 0."""
    n = d.n
    if n == 1:
        return 0
    count = 0
    for perm in itertools.permutations(range(1, n)):
        walk = (0,) + perm
        if all(d.has_edge(walk[i], walk[(i + 1) % n]) for i in range(n)):
            count += 1
    return count


def brute_force_factor_count(d: Digraph) -> int:
    """Independent oracle: enumerate all successor permutations."""
    n = d.n
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(d.has_edge(v, perm[v]) for v in range(n)):
            count += 1
    return count


def reference_hamilton_residue(adj: np.ndarray, p: int) -> int:
    """Reference for ``exact._hamilton_residue``: the same layered subset DP
    held in int64, with the subset order rebuilt for every residue."""
    k = adj.shape[0] - 1
    to_inner = np.ascontiguousarray(adj[1:, 1:].T)
    size = _subset_sums(np.ones((1, k), dtype=np.int8))[0]
    masks = np.argsort(size, kind="stable")
    ends = np.cumsum(np.bincount(size))
    bits = np.left_shift(1, np.arange(k, dtype=np.int64))[:, None]
    entries = adj[0, 1:]
    for r in range(1, k):
        inside = (masks[ends[r - 1]:ends[r]] & bits) != 0
        layer = np.zeros(inside.shape, dtype=np.int64)
        layer[inside] = entries
        layer = to_inner @ layer
        layer %= p
        entries = layer[~inside]
    return int(adj[1:, 0] @ entries) % p


def reference_permanent_residue(a: np.ndarray, p: int) -> int:
    """Reference for ``exact._permanent_residue``: Ryser's formula over all
    2^n column subsets, per(a) = (-1)^n sum over S of (-1)^|S| times the
    product of the row sums of a restricted to S, in blocks as before."""
    n = a.shape[0]
    low_n = (n + 1) // 2
    low = _subset_sums(a[:, :low_n])[:, None, :]
    high = _subset_sums(a[:, low_n:])[:, :, None]
    low_sign, high_sign = (1 - 2 * (_subset_sums(np.ones((1, c), dtype=np.int64))[0] & 1)
                           for c in (low_n, n - low_n))
    step = max(1, (1 << 16) >> low_n)
    total = 0
    for t in range(0, high.shape[1], step):
        block = slice(t, t + step)
        prod = np.ones((len(high_sign[block]), low.shape[2]), dtype=np.int64)
        for i in range(0, n, 2):
            prod *= np.multiply.reduce(low[i:i + 2] + high[i:i + 2, block])
            prod %= p
        total += int(high_sign[block] @ (prod @ low_sign))
    return (-total if n % 2 else total) % p


def random_digraph(rng: np.random.Generator, n: int, p: float, allow_loops: bool) -> Digraph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if (allow_loops or u != v) and rng.random() < p
    ]
    return Digraph(n, edges, allow_loops=allow_loops)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
