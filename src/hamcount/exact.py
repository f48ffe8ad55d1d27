"""Exact exponential-time counting oracles.

Both counts first take out what a vertex of in- or out-degree 1 forces:
Hamilton cycles on a digraph whose forced edges are contracted, for n >= 12,
and the permanent on the minor that Laplace expansion along rows and columns
with one nonzero entry leaves.  Hamilton cycles are then counted with a
subset dynamic programme anchored at vertex 0, layered by subset size, whose
layers are float64 arrays so that each step is one BLAS matrix product.
Up to n = 11 the next layer is one gather from that product through a table
cached per n.  Past that, every layer is live: it has a column only for each
subset that some path from 0 covers, so on a sparse random digraph the work
follows the paths that exist.  1-factors (the permanent of the 0/1
adjacency matrix) are counted row by row over the live sets of matched
columns, those that some partial matching covers, first on Python ints,
then on int64 arrays, when six times a bound on its candidates is below the
n 2^(n-1) row factors of Glynn's formula, as on sparse matrices of every
order; dense ones take Glynn's formula over blocks of column subsets.
Up to n = 11 the table step counts Hamilton cycles exactly in float64.
Every other kernel computes exactly modulo primes, as many as a proven bound
on the count needs, and one Chinese remaindering makes the count exact.
Both counters refuse to run above a configurable size cap.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Optional

import numpy as np

from .digraph import Digraph
from .errors import DomainError, ResourceCapError

DEFAULT_CAP = 24

# The moduli: the three largest primes below 2^40.  A kernel reduces modulo
# p only once a bound hi that it tracks could pass the exact range.  A step
# of the Hamilton-cycle DP adds non-negative terms and raises its largest
# entry hi to at most D * hi, D (>= 1) the most in-edges from 1..n-1 at any
# vertex, so every BLAS partial sum is an integer of at most D * hi; the
# layer is reduced (hi = p - 1) once D * hi could reach 2^53, and
# D (p - 1) < 2^53 for D < 2^13.  In Glynn's formula
# |R_i - 2 a_i(S)| <= R_i, so rows i and i+1 raise |prod| by at most
# R_i R_(i+1) <= n^2, and a block sums at most max(2^16, 2^ceil((n-1)/2))
# products; a block is reduced once the next pair or the block sum could
# reach 2^63, and after a reduction both stay below 2^63 for n <= 47, far
# past any n whose subsets can be listed.
# In the row programme for the permanent a count is a sum of at most R
# counts of the previous row, R the entries of the row, so each row raises
# hi by the factor R.  Its rows on Python ints count exactly; the counts are
# reduced when they move to int64 arrays, and again once the next row could
# take them to 2^63, and R (p - 1) < 2^63 for R < 2^23.
_PRIMES = (1099511627689, 1099511627609, 1099511627581)


class OneFactor:
    """A spanning union of directed cycles, stored as the successor map.

    ``image[v]`` is the successor of v; the image is a permutation of the
    vertex set, so loops are fixed points and the cycles partition [0, n).
    """

    __slots__ = ("image", "_cycles")

    def __init__(self, image):
        img = tuple(int(x) for x in image)
        n = len(img)
        if sorted(img) != list(range(n)):
            raise DomainError("image is not a permutation of the vertex set")
        self.image = img
        self._cycles: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def n(self) -> int:
        return len(self.image)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its smallest vertex."""
        if self._cycles is None:
            seen = [False] * self.n
            out = []
            for start in range(self.n):
                if seen[start]:
                    continue
                cyc = []
                v = start
                while not seen[v]:
                    seen[v] = True
                    cyc.append(v)
                    v = self.image[v]
                out.append(tuple(cyc))
            self._cycles = tuple(out)
        return self._cycles

    @property
    def num_loops(self) -> int:
        return sum(1 for v, w in enumerate(self.image) if v == w)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles())

    def edges(self) -> list[tuple[int, int]]:
        return [(v, w) for v, w in enumerate(self.image)]

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "OneFactor":
        image = [-1] * n
        for cyc in cycles:
            for i, v in enumerate(cyc):
                image[v] = cyc[(i + 1) % len(cyc)]
        return cls(image)

    def __eq__(self, other) -> bool:
        return isinstance(other, OneFactor) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"OneFactor({list(self.image)})"


# -- exact counts from residues -----------------------------------------------


def _subset_sums(cols: np.ndarray) -> np.ndarray:
    """Column s of the result is the sum of the columns of ``cols`` in the
    bitmask s, for all 2^c subsets s of its c columns."""
    out = np.zeros((cols.shape[0], 1), dtype=cols.dtype)
    for j in range(cols.shape[1]):
        out = np.concatenate((out, out + cols[:, j:j + 1]), axis=1)
    return out


def _from_residues(bound: int, residue: Callable[[int], int]) -> int:
    """The integer x in [0, bound], rebuilt by Chinese remaindering from
    ``residue(p)`` = x mod p over the fewest leading primes whose product
    exceeds ``bound`` (none when the bound is 0)."""
    primes: list[int] = []
    modulus = 1
    for p in _PRIMES:
        if modulus > bound:
            break
        primes.append(p)
        modulus *= p
    if modulus <= bound:
        raise ResourceCapError(
            f"a count bound of {bound.bit_length()} bits exceeds the "
            f"{modulus.bit_length()}-bit product of the {len(_PRIMES)} moduli")
    x = 0
    for p in primes:
        q = modulus // p
        x += residue(p) * q * pow(q, -1, p)
    return x % modulus


# -- Hamilton cycle counting ---------------------------------------------------


def count_hamilton_cycles(d: Digraph, cap: int = DEFAULT_CAP) -> int:
    """Number of directed Hamilton cycles, each counted once.

    The programme anchors at vertex 0 and counts directed closed tours, so a
    cycle is not re-counted per starting vertex.  Loops are ignored: a
    Hamilton cycle is a 1-factor with a single cycle and no loops (hence 0
    for n = 1).  The cap applies to the order of ``d``; from n = 12 on, the
    programme runs on the digraph that ``_contracted`` leaves, of order n
    below, and up to n = 11 it takes no residues (``_hamilton_table_count``).

    Peak working memory, with k = n - 1, is at most 20 (k + 1) l + 9 * 2^k
    + 16 n^2 + 2^14 bytes for n >= 12, with l the most live subsets of a
    layer: the layer and its product in float64, the indices, values and
    grown subsets of the nonzero entries (at most (k + 1) l / 2 of them), a
    2^k bool and a 2^k int32 table over the subsets, the live subsets in
    int64 and int32 (12 l < 4 * 2^k bytes), the adjacency matrix in int64
    and float64, and a few kB of small arrays and interpreter objects.
    On the sparse hitting-time digraphs l is a small fraction of
    c = C(k, floor(k/2)); on K_n every subset is live and l = c.  For
    n <= 11, which takes the table step, it is at most 8 (3 k + 1) c
    + 8 k 2^k + 16 n^2 + 2^14 bytes: a step allocates the product of a
    layer with the (k + 1) x k step operator, then gathers the next layer
    from it while the layer is still held, and the intp tables,
    8 k (2^k - k - 1) bytes, stay cached; their build holds no more than a
    step (see ``_subsets_by_size`` for the bound on the cache).  There
    16 n^2 covers the operator and the float64 adjacency matrix, scattered
    from the edge codes with no int64 matrix, or cast once from a contracted
    one.  Contraction, before the DP, holds at most 32 N^2 bytes and a few
    kB, N the order of ``d``.
    """
    if d.n > cap:
        raise ResourceCapError(f"n={d.n} exceeds the Hamilton-cycle counting cap of {cap}")
    if d.n < _CONTRACT_MIN_N:
        adj = np.zeros(d.n * d.n)
        adj[d.codes] = 1
        return _hamilton_table_count(adj.reshape(d.n, d.n), _subsets_by_size(d.n - 1))
    adj, sums = _contracted(d.adjacency_matrix())
    n = adj.shape[0]
    if n < _CONTRACT_MIN_N:
        return _hamilton_table_count(adj.astype(np.float64), _subsets_by_size(n - 1))
    out_deg, in_deg = sums.tolist()
    # a Hamilton cycle leaves and enters every vertex by one loop-free edge
    bound = min(math.factorial(n - 1), math.prod(out_deg), math.prod(in_deg))
    return _from_residues(bound, lambda p: _hamilton_residue(adj, p))


# Every 1-factor uses the one nonzero entry (r, c) of a row or a column with
# no other.  For the permanent that is a Laplace expansion: per(a) is the
# permanent of the minor without row r and column c.  For Hamilton cycles on
# n >= 3 vertices, the edge r -> c is on every cycle, and contracting it to
# one vertex, with the in-edges of r and the out-edges of c, maps the cycles
# one to one onto those of the contracted digraph; the edge c -> r becomes a
# loop there and is dropped.  In the matrix that is again the minor without
# row r and column c, with row c in the place of row r.  A vertex left with
# no edge in or out makes the count bound 0, so no residue is computed.
# Contraction pays only past the table step of the Hamilton-cycle DP.  At
# n <= 11 a count takes 30-80 us, and a step of contraction costs about as
# much as the layer it saves: contracting there made counts of D(8, 0.6)
# take 39 us instead of 30, and of the n = 8 and n = 11 m* digraphs 56 and
# 73 us instead of 30 and 56.  So it starts at n = 12, the least n with no
# table step, where the m* digraphs count in a third of the time.  There the
# DP is also anchored at a vertex of least out-degree, whose few paths of
# length 1 keep the live layers small.  Every matrix goes through the
# Laplace steps: the permanent's kernels cost a tenth of a millisecond or
# more, and a step costs a few microseconds.
_CONTRACT_MIN_N = 12


def _forced_entry(a: np.ndarray, sums: np.ndarray) -> Optional[tuple[int, int]]:
    """(r, c) of a nonzero entry of ``a`` alone in its row or its column, if
    any, where ``sums`` holds the row sums of ``a`` over its column sums."""
    side, x = divmod(int(sums.argmin()), a.shape[0])
    if sums[side, x] != 1:
        return None
    return (x, int(a[x].argmax())) if side == 0 else (int(a[:, x].argmax()), x)


def _contracted(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency matrix ``adj`` of a digraph with its loops cleared, its
    forced edges contracted while 3 or more vertices are left and, if at
    least ``_CONTRACT_MIN_N`` are, a vertex of least out-degree moved to 0,
    with the out-degrees over the in-degrees of the result."""
    n = adj.shape[0]
    adj.reshape(-1)[::n + 1] = 0  # the diagonal, through a strided view
    sums = np.add.reduce((adj, adj.T), axis=2)  # one reduction gives both
    while adj.shape[0] >= 3 and (forced := _forced_entry(adj, sums)):
        r, c = forced
        rows = np.arange(adj.shape[0])
        cols = rows != c
        rows[r] = c  # the in-edges of r, the out-edges of c
        adj = adj[rows[cols]][:, cols]
        r -= r > c
        adj[r, r] = 0
        sums = np.add.reduce((adj, adj.T), axis=2)
    start = int(sums[0].argmin())
    if start and adj.shape[0] >= _CONTRACT_MIN_N:
        order = np.arange(adj.shape[0])
        order[[0, start]] = start, 0
        adj, sums = adj[order][:, order], sums[:, order]
    return adj, sums


# The DP takes one of two steps from a layer to the next.  For n <= 11,
# where no layer has more than C(10, 5) = 252 subsets, the table step
# gathers each layer from the product of the last through a table cached
# per n: one dgemm and one gather per layer, and no index arithmetic.  Its
# tables would take 8 k 2^k bytes, 1.5 GB at n = 24, so from n = 12 on
# (``_CONTRACT_MIN_N``) the live step holds each layer only at its live
# subsets, those that some path from 0 covers, and finds the next layer's
# from the nonzero entries of the product, so its work follows the paths
# that exist; on the sparse hitting-time digraphs that is a small fraction
# of the subsets.  On a dense digraph nearly every subset is live, and the
# step's index arithmetic makes HC(K_24) take about twice as long as
# layers with a column for every subset would; no workload counts such
# digraphs.


@functools.lru_cache(maxsize=None)
def _subsets_by_size(k: int) -> tuple[np.ndarray, ...]:
    """The gather tables of ``_hamilton_table_count`` over the subsets of k
    < 32 elements ordered by size, increasing within a size; it asks for
    k <= 10 only.  Table r, for r = 1..k-1, is a k x C(k, r+1) intp array
    whose entry (w, j), for the j-th (r+1)-subset T, is w C(k, r) + i if w
    is in T and T - {w} is the i-th r-subset, else k C(k, r): the flat index
    of the entry (w, T - {w}) of a k x C(k, r) layer, or of the first entry
    of a row appended to it.  The tables are intp, which indexing uses as
    they are (``take`` copies a read-only index on every call), and take
    8 k (2^k - k - 1) bytes.  Contraction hands the table step digraphs of
    every order up to 11, so the cache keeps an entry for every k asked for,
    and every table in it is read-only.  Together the entries of every
    k <= 10 hold less than 2^18 bytes: tracemalloc counts 153,087 bytes,
    143,952 of them in the tables."""
    size = _subset_sums(np.ones((1, k), dtype=np.int8))[0]
    masks = np.argsort(size, kind="stable")
    ends = np.cumsum(np.bincount(size))
    bits = np.left_shift(1, np.arange(k))[:, None]
    tables = []
    for r in range(1, k):
        below = masks[ends[r - 1]:ends[r]]  # increasing, so T - {w} is found by bisection
        grown = masks[ends[r]:ends[r + 1]]
        table = np.searchsorted(below, grown & ~bits)
        table += np.arange(0, k * len(below), len(below))[:, None]
        table[(grown & bits) == 0] = k * len(below)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _hamilton_table_count(adj: np.ndarray, tables: tuple[np.ndarray, ...]) -> int:
    """Hamilton cycles of the n x n float64 adjacency matrix ``adj``, n <= 11,
    by the table step through the ``tables`` of ``_subsets_by_size(n - 1)``,
    one ``ndarray.dot`` a layer (matmul's dgemm, at half the dispatch).  Layer
    r holds, for each r-subset T of the vertices 1..k (k = n - 1) in
    increasing bitmask order and each w in T, the number of paths from 0
    through exactly T that end at w, in row w-1 and the column of T, and 0
    elsewhere; so a loop w -> w adds only to entries (w, S) with w in S,
    which no gather reads.  No sum is reduced: every entry and partial sum
    counts paths from 0 through s <= 9 vertices, at most s! of them, then
    one more edge, and the last sums to HC <= 10! < 2^53."""
    k = adj.shape[0] - 1
    step = np.zeros((k + 1, k))  # the step, then 0s for w not in T
    step[:k] = adj[1:, 1:].T
    layer = np.zeros((k, k))
    layer.reshape(-1)[::k + 1] = adj[0, 1:]  # layer 1: the paths 0 -> w
    for table in tables:
        layer = step.dot(layer).ravel()[table]
    return int(adj[1:, 0].dot(layer.ravel()))  # the one k-subset, if k > 0


def _hamilton_residue(adj: np.ndarray, p: int) -> int:
    """Hamilton cycles mod p of the n x n adjacency matrix ``adj``, n >= 3,
    over the layers of ``_hamilton_table_count`` held live: layer r has a
    column only for each r-subset that some path from 0 covers, in
    increasing bitmask order (see the comment above ``_subsets_by_size``)."""
    k = adj.shape[0] - 1
    to_inner = adj[1:, 1:].T.astype(np.float64)
    growth = max(int(adj[1:].sum(axis=0).max()), 1)  # D in the comment by _PRIMES
    bits = np.left_shift(1, np.arange(k, dtype=np.int32))[:, None]
    first = np.flatnonzero(adj[0, 1:])  # layer 1: the paths 0 -> w
    live = bits[first, 0]
    layer = np.zeros((k, len(live)), dtype=np.float64)
    layer[first, np.arange(len(live))] = 1
    marked = np.zeros(1 << k, dtype=bool)
    rank = np.empty(1 << k, dtype=np.int32)
    hi = 1  # no entry exceeds hi (see the comment by _PRIMES)
    for _ in range(1, k):
        out = to_inner @ layer  # out[w, S]: paths through S, then on to w
        del layer
        hi *= growth
        if hi * growth >= 1 << 53:
            np.fmod(out, p, out=out)
            hi = p - 1
        grown = live | bits  # grown[w, j] = S + {w} for S = live[j]; S if w is in S
        flat = np.flatnonzero((grown != live) & (out != 0))
        values = out.ravel()[flat]
        del out
        grown = grown.ravel()[flat]
        marked[grown] = True
        flat //= len(live)  # the row w of each value
        live = np.flatnonzero(marked).astype(np.int32)
        if len(live) == 0:
            return 0
        marked[live] = False
        rank[live] = np.arange(len(live), dtype=np.int32)
        flat *= len(live)
        flat += rank[grown]
        del grown
        layer = np.zeros((k, len(live)), dtype=np.float64)
        layer.ravel()[flat] = values
        del flat, values
    return int(adj[1:, 0] @ layer[:, 0]) % p  # the one k-subset


# -- permanent / 1-factor counting ---------------------------------------------


def count_one_factors(d: Digraph, cap: int = DEFAULT_CAP) -> int:
    """Number of 1-factors: the permanent of the 0/1 adjacency matrix, whose
    diagonal holds the loops."""
    n = d.n
    if n > cap:
        raise ResourceCapError(f"n={n} exceeds the 1-factor counting cap of {cap}")
    return permanent(d.adjacency_matrix(), cap=cap)


def permanent(matrix: np.ndarray, cap: int = DEFAULT_CAP) -> int:
    """Permanent of a square 0/1 matrix, by a row-by-row programme over the
    live sets of matched columns or, for dense matrices, Glynn's formula (see
    the comment by ``_row_order``), on the minor that Laplace expansion
    along the rows and columns with a single nonzero entry leaves (see the
    comment by ``_CONTRACT_MIN_N``).  The cap applies to the order of
    ``matrix``; n below is the order of the minor.

    Glynn's row factors for a block of subsets of the columns 1..n-1 are a
    low-column term plus a high-column one, read from two tables of 2^h and
    2^l subsets, with h = ceil((n-1)/2) and l = floor((n-1)/2); its peak
    working memory is at most 8 n (2^h + 2^l) + 48 max(2^16, 2^h) bytes.
    The programme's rows on Python ints hold two dicts, the live sets before
    and after a row, of at most 2^8 entries each (``_INT_CANDIDATES``), at
    most 2^15 bytes each with their int keys and counts.  Its rows on int64
    arrays hold at most 32 c + 16 s bytes, with c the most candidate sets of
    a row and s the most live sets after a row: four int64 arrays over the
    candidates while they are sorted (the sets, their counts, the sort order
    and a sorted copy), and the live sets and their counts.  With the matrix
    and a few kB of small arrays and interpreter objects its peak is at most
    max(2^16, 32 c + 16 s) + 16 n^2 + 2^14 bytes.  It runs only when its
    bound W on the candidates, in all, is below n 2^(n-1) / 6, so
    s <= c <= W and the peak stays below 8 n 2^(n-1) bytes and a few kB,
    1.5 GiB at n = 24; on the m* digraph of n = 24 that
    ``scripts/check_exact_frontier.py`` checks at seed 1, whose minor has
    n = 18, c = 618 and s = 109.  Validation and the Laplace
    steps, before the kernels, hold at most 32 N^2 bytes and a few kB, N the
    order of ``matrix``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("permanent needs a square matrix")
    n = m.shape[0]
    if n > cap:
        raise ResourceCapError(f"n={n} exceeds the permanent cap of {cap}")
    if not ((m == 0) | (m == 1)).all():
        raise DomainError("permanent needs a 0/1 matrix")
    a, sums = _laplace_minor(m.astype(np.int64))
    rows, cols = sums.tolist()
    # a 1-factor picks one entry in each row and one in each column
    bound = min(math.factorial(a.shape[0]), math.prod(rows), math.prod(cols))
    return _from_residues(bound, lambda p: _permanent_residue(a, p))


def _laplace_minor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minor of ``a`` left once no row or column has a single nonzero
    entry, each such entry's row and column deleted in turn, with its row
    sums over its column sums."""
    sums = np.add.reduce((a, a.T), axis=2)
    while a.size and (forced := _forced_entry(a, sums)):
        r, c = forced
        keep = np.arange(a.shape[0])
        a = a[keep != r][:, keep != c]
        sums = np.add.reduce((a, a.T), axis=2)
    return a, sums


def _permanent_residue(a: np.ndarray, p: int) -> int:
    """per(a) mod p, by the row programme on the rows of ``a`` in the order
    of ``_row_order`` if the gate in the comment below expects it to cost
    less than Glynn's formula, else by Glynn's formula."""
    n = a.shape[0]
    if n == 0:
        return 1
    order, work = _row_order(a)
    if _CANDIDATE_COST * work < n << (n - 1):
        return _row_dp_residue(a[order], p)
    return _glynn_residue(a, p)


# The row programme matches rows 0, 1, .. in turn, each to a column that no
# earlier row took, and holds after row i the count of partial matchings
# onto each live set S of i+1 columns.  A column whose last nonzero row is
# past is closed: every live S holds it, as no later row can take it.  So S
# lies between the closed and the touched columns (those of some row so
# far), and with f free columns (touched, not closed) and g = i+1 - |closed|
# there are at most B_i = C(f, g) live sets, 0 if g < 0.  Row i+1, with R
# nonzero entries, grows each into at most R candidates, so the programme
# forms at most W = sum over rows of R_(i+1) B_i candidates.
# The rows are taken greedily, each time the one that leaves the fewest
# live sets by C(f, g), the lowest index among equals; as no row has more
# live sets than candidates, W counts at most R_(i+1) B_i with B_i the lesser
# of C(f, g) and the candidates of row i.
# At one BLAS thread Glynn's formula costs about 2 ns for each of the n row
# factors of its 2^(n-1) sign vectors, and the programme about 13 ns per
# candidate, so it runs when _CANDIDATE_COST W is below n 2^(n-1).  Sparse
# minors take the programme at every n, and J_n (W = n (2^n - 1)) takes
# Glynn's formula from n = 2 on.  The programme's first rows, while a row
# forms at most _INT_CANDIDATES candidates, run on Python ints, which beat
# a dozen numpy calls per row there.
_INT_CANDIDATES = 1 << 8
_CANDIDATE_COST = 6


def _row_order(a: np.ndarray) -> tuple[list[int], int]:
    """The greedy row order of the comment above and the bound W on the
    candidates of the row programme in that order."""
    n = a.shape[0]
    rows = (a @ np.left_shift(1, np.arange(n, dtype=np.int64))).tolist()
    left = a.sum(axis=0).tolist()  # rows not yet taken with an entry in each column
    once = sum(1 << c for c in range(n) if left[c] == 1)  # a single row left
    rest = list(range(n))
    order = []
    touched = closed = 0
    live = 1  # B of the rows so far
    work = 0
    for size in range(1, n + 1):
        best = None
        for r in rest:
            shut = (closed | (rows[r] & once)).bit_count()
            need = size - shut
            free = (touched | rows[r]).bit_count() - shut
            bound = math.comb(free, need) if need >= 0 else 0
            if best is None or bound < best[0]:
                best = (bound, r)
        bound, r = best
        work += live * rows[r].bit_count()
        live = min(bound, live * rows[r].bit_count())
        order.append(r)
        rest.remove(r)
        touched |= rows[r]
        closed |= rows[r] & once
        for c in range(n):
            if rows[r] >> c & 1:
                left[c] -= 1
                if left[c] == 1:
                    once |= 1 << c
    return order, work


def _row_dp_residue(a: np.ndarray, p: int) -> int:
    """per(a) mod p by the row programme (see the comment by ``_row_order``)
    on the rows of ``a`` in their order.  The live sets are column bitmasks
    with counts: exact Python ints while a row forms at most
    ``_INT_CANDIDATES`` candidates, then int64 arrays mod p, sets ascending."""
    n = a.shape[0]
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    rows = (a @ bits).tolist()
    sums = [row.bit_count() for row in rows] + [1]
    # the columns closed after each row, those of no later row; an empty
    # column is closed after row 0, so no set holds it and the count is 0
    closed = [0] * n
    later = 0
    for i in range(n - 1, -1, -1):
        closed[i] = ~later & ((1 << n) - 1)
        later |= rows[i]
    live = {0: 1}
    for i, row in enumerate(rows):
        if len(live) * sums[i] > _INT_CANDIDATES:
            break
        after: dict[int, int] = {}
        for s, count in live.items():
            free = row & ~s
            need = closed[i] & ~s  # the closed columns that s misses
            if need:  # of which the row can take one, no more
                free &= need if not need & (need - 1) else 0
            while free:
                t = s | (free & -free)
                free &= free - 1
                after[t] = after.get(t, 0) + count
        if not after:
            return 0
        live = after
    else:
        return live.popitem()[1] % p  # the one set of all n columns
    sets = np.array(sorted(live), dtype=np.int64)
    counts = np.array([live[s] % p for s in sets.tolist()], dtype=np.int64)
    del live
    hi = p - 1  # no count exceeds hi (see the comment by _PRIMES)
    nz = a != 0
    for i in range(i, n):
        # each column of the row gives an increasing run of candidates
        grown = bits[nz[i]][:, None] | sets
        keep = grown != sets
        keep &= (grown & closed[i]) == closed[i]
        grown = grown[keep]
        if len(grown) == 0:
            return 0
        counts = np.broadcast_to(counts, keep.shape)[keep]
        del keep
        order = np.argsort(grown, kind="stable")
        grown = grown[order]
        counts = counts[order]
        del order
        first = np.empty(len(grown), dtype=bool)
        first[0] = True
        np.not_equal(grown[1:], grown[:-1], out=first[1:])
        sets = grown[first]
        counts = np.add.reduceat(counts, np.flatnonzero(first))
        del grown, first
        hi *= sums[i]
        if hi * sums[i + 1] >= 1 << 63:
            np.fmod(counts, p, out=counts)
            hi = p - 1
    return int(counts[0]) % p


def _glynn_residue(a: np.ndarray, p: int) -> int:
    """per(a) mod p = 2^-(n-1) times the sum over subsets S of the columns
    1..n-1 of (-1)^|S| times the product over rows i of R_i - 2 a_i(S), where
    R_i is the sum of row i and a_i(S) its sum over S."""
    n = a.shape[0]
    low_n = n // 2  # ceil((n - 1) / 2) of the columns 1..n-1
    low = _subset_sums(-2 * a[:, 1:low_n + 1])
    low += a.sum(axis=1)[:, None]
    low = low[:, None, :]
    high = _subset_sums(-2 * a[:, low_n + 1:])[:, :, None]
    low_sign, high_sign = (1 - 2 * (_subset_sums(np.ones((1, c), dtype=np.int64))[0] & 1)
                           for c in (low_n, n - 1 - low_n))
    step = max(1, (1 << 16) >> low_n)  # high subsets per block
    rows = a.sum(axis=1).tolist()  # |prod| grows by at most R_i R_(i+1) per pair
    bounds = [math.prod(rows[i:i + 2]) for i in range(0, n, 2)] + [step << low_n]
    total = 0
    for t in range(0, high.shape[1], step):
        block = slice(t, t + step)
        prod = np.ones((len(high_sign[block]), low.shape[2]), dtype=np.int64)
        hi = 1  # no |entry| exceeds hi (see the comment by _PRIMES)
        for i, pair, after in zip(range(0, n, 2), bounds, bounds[1:]):
            for row in low[i:i + 2] + high[i:i + 2, block]:
                prod *= row
            hi *= pair
            if hi * after >= 1 << 63:
                prod %= p
                hi = p - 1
        total += int(high_sign[block] @ (prod @ low_sign))
    return total * pow(2, -(n - 1), p) % p


# -- enumeration ----------------------------------------------------------------


class FactorEnumeration:
    """Result of a (possibly truncated) 1-factor enumeration."""

    def __init__(self, factors: list[OneFactor], truncated: bool):
        self.factors = factors
        self.truncated = truncated

    def __iter__(self) -> Iterator[OneFactor]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def enumerate_one_factors(d: Digraph, limit: int) -> FactorEnumeration:
    """Distinct 1-factors in lexicographic order of the successor map.

    Collects at most ``limit`` factors; the result records whether the
    enumeration was cut short (detected by probing for one factor beyond).
    """
    if limit < 0:
        raise DomainError("limit must be non-negative")
    n = d.n
    out_sorted = [d.out_neighbors(v).tolist() for v in range(n)]
    target = limit + 1
    factors: list[OneFactor] = []
    image = [-1] * n
    used = [False] * n

    def backtrack(v: int) -> bool:
        if v == n:
            factors.append(OneFactor(image))
            return len(factors) >= target
        for w in out_sorted[v]:
            if not used[w]:
                image[v] = w
                used[w] = True
                done = backtrack(v + 1)
                used[w] = False
                image[v] = -1
                if done:
                    return True
        return False

    backtrack(0)
    truncated = len(factors) > limit
    return FactorEnumeration(factors[:limit], truncated)


# -- permutation fixed-point counts ----------------------------------------------


def derangements(m: int) -> int:
    """Permutations of m elements with no fixed point."""
    if m < 0:
        raise DomainError("negative size")
    a, b = 1, 0  # D(0), D(1)
    if m == 0:
        return a
    for k in range(2, m + 1):
        a, b = b, (k - 1) * (a + b)
    return b

def rencontres(n: int, k: int) -> int:
    """Permutations of n elements with exactly k fixed points."""
    if k < 0 or n < 0:
        raise DomainError("negative arguments")
    if k > n:
        raise DomainError(f"cannot have {k} fixed points among {n} elements")
    return math.comb(n, k) * derangements(n - k)
