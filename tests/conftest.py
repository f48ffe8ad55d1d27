import itertools
from collections import Counter
from typing import Optional

import numpy as np
import pytest

from hamcount.digraph import Digraph
from hamcount.exact import _subset_sums
from hamcount.frieze import (MERGE_RETRY_CAP, _default_budget, _path_array, _rotated,
                             close_path)
from hamcount.rng import derive_seed, make_generator


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


def eager_close_path(path, d: Digraph, forbidden: frozenset, rng: np.random.Generator,
                     counts: Optional[Counter] = None):
    """Reference for ``frieze.close_path``: the same breadth-first rotation
    search, building every queued child's vertex array when it is queued.
    ``counts`` receives the paths expanded and the arrays built."""
    counts = Counter() if counts is None else counts
    verts = _path_array(path, d.n)
    v0, ell = int(verts[0]), verts.size - 1

    def closes(end: int) -> bool:
        return d.has_edge(end, v0) and (end, v0) not in forbidden

    if closes(int(verts[-1])):
        return verts.tolist(), 0
    pos = np.full(d.n, -1, dtype=np.int64)
    index = np.arange(verts.size)
    seen_ends = {int(verts[-1])}
    frontier = [verts]
    for depth in range(1, _default_budget(d.n) + 1):
        nxt: list[np.ndarray] = []
        for p in frontier:
            counts["expanded"] += 1
            pos[p] = index
            vl = int(p[-1])
            cands: list[tuple[int, int]] = []
            for u in d.out_neighbors(vl):
                pu = int(pos[u])
                if pu < 2 or pu > ell - 1 or (vl, u) in forbidden:
                    continue
                i = pu - 1
                vi = int(p[i])
                for w in d.out_neighbors(vi):
                    j = int(pos[w])
                    if j >= i + 2 and (vi, w) not in forbidden:
                        cands.append((i, j))
            if len(cands) > 1:
                rng.shuffle(cands)
            for i, j in cands:
                end = int(p[j - 1])
                if end in seen_ends:
                    continue
                counts["built"] += 1
                if closes(end):
                    return _rotated(p, i, j).tolist(), depth
                seen_ends.add(end)
                nxt.append(_rotated(p, i, j))
        if not nxt:
            return None
        frontier = nxt
    return None


def reference_merge_into(main: list, cyc: list, rot_d: Digraph, forbidden: frozenset, seed: int):
    """Reference for ``frieze._merge_into``: candidates listed by a Python
    loop over each cycle's out-neighbour rows, with dict positions."""
    main_pos = {v: i for i, v in enumerate(main)}
    cyc_pos = {v: i for i, v in enumerate(cyc)}
    candidates: list[tuple[int, int]] = []
    for a in cyc:
        for b in rot_d.out_neighbors(a):
            if b in main_pos and (a, b) not in forbidden:
                candidates.append((a, b))
    for a in main:
        for b in rot_d.out_neighbors(a):
            if b in cyc_pos and (a, b) not in forbidden:
                candidates.append((a, b))
    if not candidates:
        return None
    make_generator(seed).shuffle(candidates)
    for k, (a, b) in enumerate(candidates[:MERGE_RETRY_CAP]):
        if a in cyc_pos:
            ca, cb, apos, bpos = cyc, main, cyc_pos[a], main_pos[b]
        else:
            ca, cb, apos, bpos = main, cyc, main_pos[a], cyc_pos[b]
        path = ca[apos + 1:] + ca[: apos + 1] + cb[bpos:] + cb[: bpos]
        got = close_path(path, rot_d, forbidden, make_generator(derive_seed(seed, k)))
        if got is not None:
            cycle, used = got
            return cycle, k * _default_budget(rot_d.n) + used + 1
    return None


def reference_fresh_in_order(block: np.ndarray, seen_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``digraph._fresh_in_order``: one sorted mirror of every
    code seen, binary-searched and rebuilt by a masked merge for each block.
    Returns the block's unseen codes in order of first appearance and the
    merged mirror."""
    index_bits = max(1, (block.size - 1).bit_length())
    if block.size and int(block.max()) < 1 << (63 - index_bits):
        packed = np.sort((block << index_bits) | np.arange(block.size))
        ranked, order = packed >> index_bits, packed & ((1 << index_bits) - 1)
    else:
        order = np.argsort(block, kind="stable")
        ranked = block[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    distinct, where = ranked[first], order[first]
    slot = np.searchsorted(seen_sorted, distinct)
    hit = slot < seen_sorted.size
    hit[hit] = seen_sorted[slot[hit]] == distinct[hit]
    new = ~hit
    keep = np.zeros(block.size, dtype=bool)
    keep[where[new]] = True
    # Each new code lands at its search slot shifted by the new codes before it.
    merged = np.empty(seen_sorted.size + int(new.sum()), dtype=np.int64)
    dest = slot[new] + np.arange(merged.size - seen_sorted.size)
    old = np.ones(merged.size, dtype=bool)
    old[dest] = False
    merged[dest] = distinct[new]
    merged[old] = seen_sorted
    return block[keep], merged


class ReferenceDraws:
    """Reference for ``EdgeSequence``'s lazy-draw bookkeeping: the drawn codes
    and a single sorted mirror of them, rebuilt when its size disagrees."""

    def __init__(self):
        self.codes = np.empty(0, dtype=np.int64)
        self.sorted = np.empty(0, dtype=np.int64)

    def draw(self, block: np.ndarray) -> np.ndarray:
        """Append the unseen codes of ``block`` and return them."""
        if self.sorted.size != self.codes.size:
            self.sorted = np.sort(self.codes)
        fresh, self.sorted = reference_fresh_in_order(block, self.sorted)
        self.codes = np.concatenate([self.codes, fresh])
        return fresh


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
