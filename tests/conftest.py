import math
from collections import Counter, deque
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np
import pytest

from hamcount.analysis import _pmf_sum
from hamcount.digraph import CoupledProcess, Digraph, EdgeSequence
from hamcount.errors import DomainError, PreconditionError
from hamcount.exact import _subset_sums
from hamcount.frieze import (MERGE_RETRY_CAP, _default_budget, _path_array, _rotated,
                             close_path)
from hamcount.rng import derive_seed, make_generator


def _successors(d: Digraph) -> list[list[int]]:
    """The out-neighbours of each vertex, loops included, in edge order."""
    succ = [[] for _ in range(d.n)]
    for u, v in d.edges():
        succ[u].append(v)
    return succ


def brute_force_hamilton_count(d: Digraph) -> int:
    """Independent oracle: extend paths from vertex 0 by unused out-edges,
    and count those through every vertex that close back to 0."""
    n, succ = d.n, _successors(d)
    used = [True] + [False] * (n - 1)

    def paths(u: int, left: int) -> int:
        if left == 0:
            return int(n > 1 and 0 in succ[u])
        count = 0
        for v in succ[u]:
            if not used[v]:
                used[v] = True
                count += paths(v, left - 1)
                used[v] = False
        return count

    return paths(0, n - 1)


def brute_force_factor_count(d: Digraph) -> int:
    """Independent oracle: give each vertex in turn an unused successor
    among its out-neighbours, and count the complete choices."""
    n, succ = d.n, _successors(d)
    used = [False] * n

    def choices(u: int) -> int:
        if u == n:
            return 1
        count = 0
        for v in succ[u]:
            if not used[v]:
                used[v] = True
                count += choices(u + 1)
                used[v] = False
        return count

    return choices(0)


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


def virtual_successors(n: int, pairs=()) -> np.ndarray:
    """The successor array of the virtual edges ``pairs``, one per tail (the
    last one given wins): -1 at a vertex without one."""
    out = np.full(n, -1, dtype=np.int64)
    for u, v in pairs:
        out[u] = v
    return out


def _virtual_pairs(virtual_next: np.ndarray) -> set:
    return {(u, v) for u, v in enumerate(virtual_next.tolist()) if v >= 0}


def eager_close_path(path, d: Digraph, virtual_next: np.ndarray, rng: np.random.Generator,
                     counts: Optional[Counter] = None):
    """Reference for ``frieze.close_path``: the same breadth-first rotation
    search, building every queued child's vertex array when it is queued,
    with the virtual edges as a set of pairs.  ``counts`` receives the paths
    expanded and the arrays built."""
    counts = Counter() if counts is None else counts
    forbidden = _virtual_pairs(virtual_next)
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
            for u in d.out_neighbors(vl).tolist():
                pu = int(pos[u])
                if pu < 2 or pu > ell - 1 or (vl, u) in forbidden:
                    continue
                i = pu - 1
                vi = int(p[i])
                for w in d.out_neighbors(vi).tolist():
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


def reference_merge_into(main: list, cyc: list, rot_d: Digraph, virtual_next: np.ndarray,
                         seed: int):
    """Reference for ``frieze._merge_into``: candidates listed by a Python
    loop over each cycle's out-neighbour rows, with dict positions and the
    virtual edges as a set of pairs."""
    forbidden = _virtual_pairs(virtual_next)
    main_pos = {v: i for i, v in enumerate(main)}
    cyc_pos = {v: i for i, v in enumerate(cyc)}
    candidates: list[tuple[int, int]] = []
    for a in cyc:
        for b in rot_d.out_neighbors(a).tolist():
            if b in main_pos and (a, b) not in forbidden:
                candidates.append((a, b))
    for a in main:
        for b in rot_d.out_neighbors(a).tolist():
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
        got = close_path(path, rot_d, virtual_next, make_generator(derive_seed(seed, k)))
        if got is not None:
            cycle, used = got
            return cycle, k * _default_budget(rot_d.n) + used + 1
    return None


def audit_rows(d: Digraph) -> bool:
    """Verify ``d``'s CSR rows against its codes, cutting them if need be;
    raises ``AssertionError`` on corruption.  Each row must hold values in
    [0, n) in rising order, and the (row, value) pairs must be the codes:
    (tail, head) for the out-rows, (head, tail) for the in-rows."""
    n = d.n
    for (indptr, values), flip in ((d.out_rows(), False), (d.in_rows(), True)):
        counts = np.diff(indptr)
        if (indptr.size != n + 1 or indptr[0] != 0 or indptr[-1] != values.size
                or (counts < 0).any() or ((values < 0) | (values >= n)).any()):
            raise AssertionError("adjacency offsets inconsistent with edge set")
        rows = np.repeat(np.arange(n), counts)
        if (np.diff(rows * n + values) <= 0).any():
            raise AssertionError("adjacency row not sorted")
        if not np.array_equal(np.sort(values * n + rows) if flip else rows * n + values, d.codes):
            raise AssertionError("adjacency indices inconsistent with edge set")
    return True


def reference_hopcroft_karp(n_left: int, n_right: int, adj) -> tuple[int, list[int], list[int]]:
    """Reference for ``matching.hopcroft_karp``: the same phases on a list of
    rows, ``adj[u]`` the right-neighbours of u in the order tried, with a
    queue BFS and an explicit-stack DFS."""
    match_left, match_right = [-1] * n_left, [-1] * n_right
    dist = [-1] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            dist[u] = 0 if match_left[u] == -1 else -1
            if match_left[u] == -1:
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        stack, path = [(root, 0)], []
        while stack:
            u, i = stack[-1]
            if i >= len(adj[u]):
                dist[u] = -1
                stack.pop()
                if path:
                    path.pop()
                continue
            stack[-1] = (u, i + 1)
            v = adj[u][i]
            w = match_right[v]
            if w == -1:
                path.append((u, v))
                for pu, pv in path:
                    match_left[pu], match_right[pv] = pv, pu
                return True
            if dist[w] == dist[u] + 1:
                path.append((u, v))
                stack.append((w, 0))
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_left[u] == -1 and dfs(u):
                size += 1
    return size, match_left, match_right


def reference_patch_cycles(c1, c2, d: Digraph):
    """Reference for ``frieze.patch_cycles``: per vertex v1 of c1, a scan of
    its out-neighbours that lie on c2 and one ``has_edge`` probe each."""
    c1, c2 = list(c1), list(c2)
    len1, len2 = len(c1), len(c2)
    on1, pos = set(c1), {v: b for b, v in enumerate(c2)}
    if len(on1) != len1 or len(pos) != len2:
        raise PreconditionError("a cycle repeats a vertex")
    if on1 & pos.keys():
        raise PreconditionError("cycles must be vertex-disjoint")
    for a in range(len1):
        v1, w1 = c1[a], c1[(a + 1) % len1]
        best = len2
        for w2 in d.out_neighbors(v1).tolist():
            b = pos.get(w2)
            if b is not None:
                b = (b - 1) % len2
                if b < best and d.has_edge(c2[b], w1):
                    best = b
        if best < len2:
            return c1[: a + 1] + c2[best + 1:] + c2[: best + 1] + c1[a + 1:]
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


def sequence_from_order(n: int, loopful: bool, order) -> EdgeSequence:
    """An edge process with an explicit order, which must be a permutation
    of the full pair universe; raises ``DomainError`` otherwise."""
    Digraph(n, order, allow_loops=loopful)  # raises on repeated or inadmissible pairs
    if len(order) != (n * n if loopful else n * (n - 1)):
        raise DomainError("order is not a permutation of the pair universe")
    return EdgeSequence(n, loopful, _codes=np.array([u * n + v for u, v in order], dtype=np.int64))


def audit_every_prefix(cp: CoupledProcess) -> bool:
    """``cp.audit(m)`` for every m up to the loopless universe; raises at the
    first m whose coupling invariant fails."""
    for m in range(cp.loopless.universe_size + 1):
        cp.audit(m)
    return True


def reference_loopless_index_to_code(q: np.ndarray, n: int) -> np.ndarray:
    """Reference for ``digraph._loopless_index_to_code``, on a copy: index
    q = u*(n-1) + r is the pair (u, v) with v = r + (r >= u), so the code
    u*n + v."""
    u, r = np.divmod(q, n - 1)
    return u * n + r + (r >= u)


def reference_lazy_order(n: int, loopful: bool, seed: int, block: int) -> list[int]:
    """Reference for the whole order of a lazy ``EdgeSequence`` drawn in
    blocks of ``block`` codes: draw a block with ``rng.integers``, keep each
    code's first appearance, and repeat while fewer than half the universe's
    codes are held; then append ``rng.permutation`` of the sorted leftovers.
    One code at a time, in plain Python."""
    universe = n * n if loopful else n * (n - 1)
    rng = make_generator(seed)
    order, held = [], set()
    while len(order) < universe // 2:
        for q in rng.integers(0, universe, size=block, dtype=np.int64).tolist():
            if not loopful:  # compact index u*(n-1) + r: v skips the diagonal
                u, r = divmod(q, n - 1)
                q = u * n + r + (r >= u)
            if q not in held:
                held.add(q)
                order.append(q)
    rest = sorted(c for c in range(n * n) if c not in held and (loopful or c % (n + 1)))
    return order + rng.permutation(np.array(rest, dtype=np.int64)).tolist()


def reference_binomial_two_sided(n: int, p, eps) -> Fraction:
    """Pr(|X - EX| >= eps EX) for X ~ Bin(n, p), exact."""
    p = Fraction(p)
    mean = n * p
    margin = Fraction(eps) * mean
    return _pmf_sum(n, p, [k for k in range(n + 1) if abs(k - mean) >= margin])


def reference_pmf_sum(n: int, p: Fraction, ks: Iterable[int]) -> Fraction:
    """Reference for ``analysis._pmf_sum``: the sum of Pr(X = k) over ``ks``
    for X ~ Bin(n, p), one ``Fraction`` term at a time."""
    if p == 0:
        return Fraction(sum(1 for k in ks if k == 0))
    if p == 1:
        return Fraction(sum(1 for k in ks if k == n))
    q = 1 - p
    total = Fraction(0)
    for k in ks:
        total += math.comb(n, k) * p ** k * q ** (n - k)
    return total


def min_degrees(d: Digraph) -> tuple[int, int]:
    """Oracle for the hitting-time boundary: (min out-degree, min in-degree)
    of ``d``, a loop counting toward both at its vertex."""
    outd, ind = d.degrees()
    return int(outd.min()), int(ind.min())


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


def _reference_first_cover(keys: np.ndarray, pos: np.ndarray, size: int, past: int) -> np.ndarray:
    first = np.full(size, past)
    np.minimum.at(first, keys, pos)
    return first


def reference_coverage_scan(seq) -> tuple[int, int]:
    """Reference for ``digraph._coverage_scan``: (hitting time with loops
    counted, hitting time with loops deleted) from a scan of the
    materialised codes alone, in windows that double from max(n, 2^7) codes
    up to 2^16, each asked of ``ensure`` when nothing is left.  A lazy
    ``seq`` is deduplicated past its loop-deleted hitting time."""
    n = seq.n
    spare = 2 * n
    unseen = np.ones(spare + 1, dtype=bool)
    unseen[spare] = False
    unseen_looped = unseen.copy()
    with_loops = None
    loops = 0
    start, width = 0, min(max(n, 1 << 7), 1 << 16)
    while True:
        if start == seq.materialized:
            seq.ensure(min(start + width, seq.universe_size))
        codes = seq.codes(seq.materialized)[start:start + width]
        w = codes.size
        u = codes // n
        v = u * n
        np.subtract(codes, v, out=v)
        at = np.flatnonzero(u == v)
        looped = u[at]
        v += n
        u[at] = v[at] = spare
        out_at, in_at = np.flatnonzero(unseen[u]), np.flatnonzero(unseen[v])
        fresh = np.concatenate([u[out_at], v[in_at]])
        pos = np.concatenate([out_at, in_at])
        if with_loops is None:
            before = unseen_looped.copy()
            unseen_looped[fresh] = False
            unseen_looped[looped] = False
            unseen_looped[looped + n] = False
            if not np.count_nonzero(unseen_looped):
                first = _reference_first_cover(np.concatenate([fresh, looped, looped + n]),
                                               np.concatenate([pos, at, at]), spare + 1, w)
                with_loops = start + int(first[before].max()) + 1
        unseen[fresh] = False
        if not np.count_nonzero(unseen):
            last = int(_reference_first_cover(fresh, pos, spare + 1, w)[fresh].max())
            return with_loops, start + last + 1 - loops - int(np.count_nonzero(at < last))
        loops += at.size
        start += w
        width = min(2 * width, 1 << 16)
