"""Core digraph representation, random models, the edge process, and hitting times.

Vertices are 0-indexed.  A digraph either allows loops (all n^2 ordered pairs
admissible) or not (n(n-1) pairs).  The random edge *process* is a uniformly
random ordering of the admissible pairs; prefixes of it realise the uniform
m-edge model.  A loopful process can be coupled with a loopless one by
deleting loops while preserving relative order, so that for every m the
non-loop edges of the loopful prefix are contained in the loopless prefix.

Edges are int64 codes u*n + v throughout, from the process order to ``Digraph``.

Loop degree convention: a loop contributes 1 to both the in- and the
out-degree of its vertex.
"""
from __future__ import annotations

import threading
from itertools import chain
from math import isqrt, log1p
from typing import IO, Iterable, Optional

import numpy as np

from .errors import DomainError, FormatError
from .rng import make_generator, permutation_prefix

# Universes at most this size are materialised as prefixes of one seeded
# Fisher-Yates shuffle (``permutation_prefix``); larger ones are sampled
# lazily without replacement in fixed-size blocks so that hitting-time runs
# at n = 10^4 never touch all ~10^8 pairs.
_FULL_SHUFFLE_MAX = 1 << 22
_DRAW_BLOCK = 1 << 16
# Least codes in a hitting-time scan window (see _coverage_scan): below about
# this many a window costs numpy's per-call overhead, not its codes.
_MIN_WINDOW = 1 << 7
# Most draws in a hitting-time scan window.  A window of 2^16 draws makes
# 512 kB int64 temporaries, which glibc's malloc maps afresh for each one: at
# n = 10^4 a coupled trial with such windows took about twice the page faults
# of one with 2^14-draw windows (620 against 330), and 1.5-1.7 ms more.
_MAX_WINDOW = 1 << 14


class Digraph:
    """Immutable directed graph on vertex set {0, ..., n-1}.

    The edges are held once, as a sorted, duplicate-free int64 array of codes
    u*n + v (``codes``), given either so or as an iterable of (u, v) pairs.
    Duplicates, out-of-range vertices and loops in a loopless digraph raise
    ``DomainError`` in both forms, at build time, except in ``gen_binomial``,
    whose codes are valid as it makes them.  The neighbour rows are CSR
    slices (``csr_rows``): offsets into the codes as they lie, with heads
    codes - tail*n, and the same over one sort of head*n + tail for the
    in-rows; each row sorted, since matching and rotation order depend on
    it.  A direction is cut on its first row query and then holds
    8(m + n + 1) bytes for m edges; ``has_edge`` searches the codes and cuts
    nothing.  The rows are a function of the codes alone: concurrent first
    queries may each cut them, but they cut equal rows.  Edge lists,
    degrees and the adjacency matrix are derived on demand.
    """

    __slots__ = ("n", "allow_loops", "_codes", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = (),
                 allow_loops: bool = False, *, _valid: bool = False):
        if n <= 0:
            raise DomainError(f"vertex count must be positive, got {n}")
        self.n = n = int(n)
        self.allow_loops = bool(allow_loops)
        if _valid:
            # int64 codes that the caller made sorted, distinct, in range and
            # loop-free unless loops are allowed, and hands over
            codes = edges
        else:
            codes = _encode(n, edges)
            if (codes[1:] == codes[:-1]).any():
                raise DomainError("duplicate edges in input")
            if not self.allow_loops and (loop := loop_mask(codes, n)).any():
                u = int(codes[loop.argmax()]) // (n + 1)
                raise DomainError(f"loop ({u},{u}) in a loopless digraph")
        codes.flags.writeable = False
        self._codes = codes
        self._out = self._in = None  # (indptr, values), once cut

    def __reduce__(self):
        # Pickles and copies carry the codes alone, never the cut rows.
        return type(self), (self.n, self._codes, self.allow_loops)

    # -- queries ------------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The sorted edge codes u*n + v (read-only)."""
        return self._codes

    @property
    def edge_count(self) -> int:
        return self._codes.size

    def edges(self) -> list[tuple[int, int]]:
        """Edges in sorted order (deterministic iteration)."""
        u, v = np.divmod(self._codes, self.n)
        return list(zip(u.tolist(), v.tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        n, codes = self.n, self._codes
        if not (0 <= u < n and 0 <= v < n):  # u*n - 1 is the code of (u - 1, n - 1)
            return False
        at = int(codes.searchsorted(u * n + v))
        return at < codes.size and int(codes[at]) == u * n + v

    def has_codes(self, codes: np.ndarray) -> np.ndarray:
        """Which of the edge codes ``codes`` (each in [0, n^2)) are edges."""
        return _isin_sorted(self._codes, codes) if self._codes.size else np.zeros(len(codes), bool)

    def out_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, heads): the out-row of u is heads[indptr[u]:indptr[u + 1]]."""
        if self._out is None:
            self._out = csr_rows(self._codes, self.n)
        return self._out

    def in_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, tails): the in-row of v is tails[indptr[v]:indptr[v + 1]]."""
        if self._in is None:
            n, codes = self.n, self._codes
            self._in = csr_rows(np.sort(codes % n * n + codes // n), n)
        return self._in

    def out_neighbors(self, v: int) -> np.ndarray:
        indptr, heads = self.out_rows()
        return heads[indptr[v]:indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        indptr, tails = self.in_rows()
        return tails[indptr[v]:indptr[v + 1]]

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(out-degree array, in-degree array)."""
        u, v = np.divmod(self._codes, self.n)
        return np.bincount(u, minlength=self.n), np.bincount(v, minlength=self.n)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros(self.n * self.n, dtype=np.int64)
        a[self._codes] = 1
        return a.reshape(self.n, self.n)

    def with_edges(self, extra: Iterable[tuple[int, int]] | np.ndarray) -> "Digraph":
        """New digraph with ``extra`` (pairs or codes) unioned in."""
        return Digraph(self.n, sorted_union(self._codes, _encode(self.n, extra)),
                       allow_loops=self.allow_loops)

    @classmethod
    def complete(cls, n: int, allow_loops: bool = False) -> "Digraph":
        codes = np.arange(n * n, dtype=np.int64)
        if not allow_loops:
            codes = codes[~loop_mask(codes, n)]
        return cls(n, codes, allow_loops=allow_loops)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.allow_loops == other.allow_loops
            and np.array_equal(self._codes, other._codes)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.allow_loops, self._codes.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={self.edge_count}, loops={self.allow_loops})"


def _encode(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Sorted codes of ``edges`` (pairs or codes) in a new array; raises on an
    edge outside the n x n grid."""
    if isinstance(edges, np.ndarray) and edges.ndim == 1:
        codes = np.sort(edges.astype(np.int64, copy=False))
        if codes.size and not 0 <= codes[0] <= codes[-1] < n * n:
            raise DomainError(f"edge codes {codes[0]}..{codes[-1]} out of range for n={n}")
        return codes
    uv = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
    bad = ((uv < 0) | (uv >= n)).any(axis=1)
    if bad.any():
        u, v = uv[bad.argmax()].tolist()
        raise DomainError(f"edge ({u},{v}) out of range for n={n}")
    return np.sort(uv[:, 0] * n + uv[:, 1])


def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted, duplicate-free union of two int64 arrays.

    When both are sorted and duplicate-free, as edge-code arrays are, the
    stable sort of their concatenation is a linear merge of two runs and a
    code present in both lands twice in a row, so dropping adjacent repeats
    finishes the job.  (``np.union1d`` runs numpy's general unique pass over
    the concatenation instead, hash-based in numpy 2.x.)
    """
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    keep = np.ones(merged.size, dtype=bool)
    keep[1:] = merged[1:] != merged[:-1]
    return merged if keep.all() else merged[keep]


def csr_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (indptr, values) of the sorted codes ``keys`` =
    row*n + value: row r is values[indptr[r]:indptr[r + 1]], sorted."""
    indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n)).astype(np.int64, copy=False)
    values = keys % n
    indptr.flags.writeable = values.flags.writeable = False
    return indptr, values


def csr_gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, at): the length of each row in ``rows``, and the positions of
    their entries in CSR ``indptr``'s values, row after row."""
    first = indptr[rows]
    counts = indptr[rows + 1] - first
    return counts, np.arange(int(counts.sum())) + np.repeat(first - np.cumsum(counts) + counts, counts)


# -- pair <-> code translation ----------------------------------------------
# Internally every ordered pair (u, v) is the code u*n + v.  A loopless draw
# uses the compact index q in [0, n(n-1)) and skips the diagonal on decode.


def loop_mask(codes: np.ndarray, n: int) -> np.ndarray:
    """Which codes are loops: u*n + u = u*(n + 1)."""
    return codes % (n + 1) == 0


def _loopless_index_to_code(q: np.ndarray, n: int) -> np.ndarray:
    """Map compact loopless indices to codes, overwriting and returning ``q``.

    The loops are the codes j (n + 1), so the q-th code that is not a loop
    is q + floor(q / n) + 1.  Callers pass an array they own; working in
    place keeps the peak at two int64 copies.
    """
    q += q // n
    q += 1
    return q


def _isin_sorted(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Which entries of ``x`` the sorted, non-empty array ``a`` holds."""
    # A slot past the end holds a code above a[-1], so a[-1] serves there:
    # one gather, no masked indexing.
    slot = np.searchsorted(a, x)
    np.minimum(slot, a.size - 1, out=slot)
    return a[slot] == x


def _stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys[order], order), ``order`` the stable sort of nonnegative int64 keys.

    Keys narrow enough to pack with their indices into one int64 take a plain
    in-place sort of the packed values (two int64 copies of the keys), several
    times faster than argsort(kind="stable"), which wider keys take."""
    index_bits = max(1, (keys.size - 1).bit_length())
    if keys.size and int(keys.max()) < 1 << (63 - index_bits):
        order = keys << index_bits
        order |= np.arange(keys.size)
        order.sort()
        ranked = order >> index_bits
        order &= (1 << index_bits) - 1
        return ranked, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _fresh_in_order(block: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes of ``block`` absent from ``seen``, each once, in order of first
    appearance in the block, and the sorted union of ``seen`` and the block.

    ``seen`` holds every code seen so far, sorted and duplicate-free (int64).
    For a block of L codes over S seen: one ``_stable_sort`` of the block,
    one binary search of its distinct codes in ``seen`` (none while ``seen``
    is empty) and one linear merge of the new ones into it, so
    O(L log L + L log S + S).  Peak memory past the inputs:
    about 4L int64 for the block sort and 1.5(S + L) int64 for the merge.
    """
    ranked, order = _stable_sort(block)
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]  # stable: a run starts at its earliest index
    new, where = ranked[first], order[first]
    del ranked, order, first  # the sort's copies go before the search and merge allocate
    if seen.size:
        miss = ~_isin_sorted(seen, new)
        new, where = new[miss], where[miss]
    keep = np.zeros(block.size, dtype=bool)
    keep[where] = True
    del where
    return block[keep], sorted_union(seen, new)


def _random_block(rng: np.random.Generator, n: int, loopful: bool) -> np.ndarray:
    """One block of i.i.d. uniform codes from the admissible pair universe."""
    universe = n * n if loopful else n * (n - 1)
    block = rng.integers(0, universe, size=_DRAW_BLOCK, dtype=np.int64)
    return block if loopful else _loopless_index_to_code(block, n)


def _appended(buf: np.ndarray, start: int, end: int,
              values: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(buffer, start, end) of ``buf[start:end]`` then the int64 ``values``:
    ``buf`` if it has room past ``end``, else ``values`` itself if ``buf``
    holds none (so nothing else may write them), else a new buffer of at
    least twice the capacity with the old values at its front."""
    if end == start and values.size > buf.size:
        return values, 0, values.size
    if end + values.size > buf.size:
        grown = np.empty(max(end - start + values.size, 2 * buf.size), dtype=np.int64)
        grown[:end - start] = buf[start:end]
        buf, start, end = grown, 0, end - start
    buf[end:end + values.size] = values
    return buf, start, end + values.size


class EdgeSequence:
    """A uniformly random ordering of all admissible ordered pairs.

    ``prefix(m)`` realises the uniform m-edge digraph.  The full order is a
    permutation of the pair universe, and only a prefix of it is
    materialised, in one of two ways fixed by the universe size:

    - Up to ``_FULL_SHUFFLE_MAX`` pairs, the order is
      ``make_generator(seed).permutation(universe)``, as if shuffled whole.
      ``generate`` materialises its first ``_DRAW_BLOCK`` codes with
      ``permutation_prefix`` (all of them when that is at least half the
      universe), and a request past them recomputes the prefix at
      max(m, twice the codes held).  At n = 2000 that peaks near 19 MB
      (a 16 MB table of least swap steps, freed on return) and holds 0.5 MB
      of codes, where the whole shuffle held 32 MB.
    - Larger universes are drawn lazily (uniformity is preserved: the
      distinct values of an i.i.d. uniform stream, in order of first
      appearance, form a uniform permutation prefix).  Lazy draws come in
      fixed blocks of ``_DRAW_BLOCK`` codes, appended to the pending draws
      until a request deduplicates them.  A request sizes a segment to what
      it still lacks, draws blocks until the pending draws cover it, and
      deduplicates the segment at once.  A block is drawn only while the
      codes and the pending draws together are fewer than half the universe
      (``_draw_below_half``), so never one that deduplicating first would
      not draw; past half, the tail is shuffled in.

    Either way the order depends on the seed alone, not on the requests.  A
    loop-deleted shadow materialises only what its requests ask for: each
    step cuts its parent's next codes at the non-loop code that completes
    the request, and the parent draws only when it holds too few.  The
    shadow's hitting time is read off the parent's order (see
    ``hitting_time``), so it materialises nothing.  Materialisation is
    internally locked, so a constructed sequence may be shared across
    threads.

    The materialised codes are a prefix of a buffer whose capacity doubles,
    so appending a segment costs O(segment) amortised and ``codes(m)`` is a
    view; the pending draws are a slice of a second such buffer
    (``_appended``), which each request cuts from the front.  Lazy draws
    deduplicate against ``_seen``, the S codes materialised so far, sorted
    (see ``_fresh_in_order``).  The code buffer and ``_seen`` cost up to 24
    bytes per code, and the pending draws up to 16 bytes each (a request
    that leaves them under half their buffer copies them out): less than one
    block after a request, and after a hitting-time scan the blocks that its
    answer needs (two at n = 10^4).  A segment of L draws over S held codes
    peaks at about 8(7S + 6L) bytes written: the code buffer (capacity up to
    2S) and its doubled copy, ``_seen`` and the merged copy that replaces
    it, and the pending draws with the segment's sort, about 5L at once; the
    pending buffer's unwritten capacity, under L, comes on top.  ``_seen``
    is freed once the tail is shuffled in.
    """

    def __init__(self, n: int, loopful: bool, *, _codes: Optional[np.ndarray] = None,
                 _rng: Optional[np.random.Generator] = None,
                 _parent: Optional["EdgeSequence"] = None):
        if n < 2:
            raise DomainError(f"edge process needs n >= 2, got {n}")
        self.n = int(n)
        self.loopful = bool(loopful)
        self.universe_size = n * n if loopful else n * (n - 1)
        # _codes is always a prefix of _buf (see _append)
        self._buf = self._codes = _codes if _codes is not None else np.empty(0, dtype=np.int64)
        # The codes of a lazy sequence, sorted, and its i.i.d. draws not yet
        # deduplicated, in order: _pending[_pending_start:_pending_end].
        self._seen = self._pending = np.empty(0, dtype=np.int64)
        self._pending_start = self._pending_end = 0
        self._rng = _rng
        self._seed: Optional[int] = None  # set for a prefix of a seeded shuffle
        self._parent = _parent
        self._parent_scanned = 0
        # reentrant: a hitting-time scan holds it while it materialises
        self._lock = threading.RLock()
        # (loops counted, loops deleted) hitting times, kept on a root only
        self._hitting: Optional[tuple[int, int]] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def generate(cls, n: int, loopful: bool, seed: int) -> "EdgeSequence":
        seq = cls(n, loopful)
        if seq.universe_size <= _FULL_SHUFFLE_MAX:
            seq._seed = seed
            seq._shuffle_prefix(min(seq.universe_size, _DRAW_BLOCK))
        else:
            seq._rng = make_generator(seed)
        return seq

    @classmethod
    def _derived_loopless(cls, parent: "EdgeSequence") -> "EdgeSequence":
        return cls(parent.n, False, _parent=parent)

    # -- materialisation --------------------------------------------------

    @property
    def materialized(self) -> int:
        return int(self._codes.size)

    def ensure(self, m: int) -> None:
        if not 0 <= m <= self.universe_size:
            raise DomainError(f"prefix length {m} outside [0, {self.universe_size}]")
        if self._codes.size >= m:
            return
        with self._lock:
            while self._codes.size < m:
                if self._parent is not None:
                    self._extend_from_parent(m)
                elif self._seed is not None:
                    self._shuffle_prefix(max(m, 2 * self._codes.size))
                else:
                    # A segment of the draws that take the codes from S to m
                    # in expectation, N ln((N - S)/(N - m)) (a draw is new
                    # with chance (N - k)/N while k codes are held), and two
                    # standard deviations more, so that one segment seldom
                    # falls short; at least half the codes held, so that a
                    # run of small requests takes O(log S) segments.
                    # Its blocks are drawn first and deduplicated at once:
                    # one merge into _seen per segment, not per block.
                    held, universe = self._codes.size, self.universe_size
                    want = int(universe * log1p((m - held) / max(universe - m, 1)))
                    segment = max(want + 2 * isqrt(want) + 16, held // 2)
                    while (self._pending_end - self._pending_start < segment
                           and self._draw_below_half()):
                        pass
                    if self._pending_end > self._pending_start:
                        self._absorb(segment)
                    else:
                        self._finish_with_shuffle()

    def _shuffle_prefix(self, k: int) -> None:
        # The first k codes of the seeded shuffle; all of them once 2k
        # reaches the universe.
        assert self._seed is not None
        codes = permutation_prefix(self._seed, self.universe_size, k).astype(np.int64, copy=False)
        self._buf = self._codes = codes if self.loopful else _loopless_index_to_code(codes, self.n)

    def _append(self, codes: np.ndarray) -> None:
        self._buf, _, end = _appended(self._buf, 0, self._codes.size, codes)
        self._codes = self._buf[:end]

    def _draw_below_half(self) -> bool:
        """Draw one more block into the pending draws of a lazy sequence while
        its codes and pending draws are fewer than half the universe; whether
        it drew.  The distinct draws are fewer still, so the block is one that
        deduplicating every pending draw first would also draw: the rng is
        consumed alike whatever the requests and scans, and any request
        pattern yields the same order for one seed."""
        start, end = self._pending_start, self._pending_end
        if self._rng is None or self._codes.size + end - start >= self.universe_size // 2:
            return False
        self._pending, self._pending_start, self._pending_end = _appended(
            self._pending, start, end, _random_block(self._rng, self.n, self.loopful))
        return True

    def _absorb(self, count: int) -> None:
        # Deduplicate the next ``count`` > 0 pending draws (all, if fewer)
        # into the codes.  A tail left under half the buffer is copied out,
        # so that the consumed head does not pin the buffer's memory.
        start, end = self._pending_start, self._pending_end
        cut = min(start + count, end)
        fresh, self._seen = _fresh_in_order(self._pending[start:cut], self._seen)
        self._append(fresh)
        self._pending_start = cut
        if 2 * (end - cut) < self._pending.size:
            self._pending = self._pending[cut:end].copy()
            self._pending_start, self._pending_end = 0, end - cut

    def _finish_with_shuffle(self) -> None:
        # Past half the universe rejection stalls; finish with a shuffle of
        # the leftovers (the conditional law of a uniform permutation's tail).
        assert self._rng is not None and self._pending_start == self._pending_end
        have = self._codes
        all_codes = np.arange(self.universe_size, dtype=np.int64)
        if not self.loopful:
            all_codes = _loopless_index_to_code(all_codes, self.n)
        # Both arrays are free of repeats, and all_codes is sorted, so the
        # result is the sorted leftovers without numpy's costly unique pass.
        rest = np.setdiff1d(all_codes, have, assume_unique=True)
        self._buf = self._codes = np.concatenate([have, self._rng.permutation(rest)])
        self._seen = np.empty(0, dtype=np.int64)  # no draws follow

    def _extend_from_parent(self, m: int) -> None:
        # One step cuts a chunk of the lack plus its expected loops (about
        # one parent code in n) and a margin of two standard deviations at
        # the non-loop code that completes the request; it falls short, and
        # another step follows, only when the chunk holds more loops.
        parent = self._parent
        assert parent is not None
        scanned, lack = self._parent_scanned, m - self._codes.size
        loops = lack // (self.n - 1)
        end = min(scanned + lack + loops + 2 * isqrt(loops) + 1, parent.universe_size)
        parent.ensure(end)
        chunk = parent._codes[scanned:end]
        keep = np.flatnonzero(~loop_mask(chunk, self.n))
        if keep.size >= lack:
            keep = keep[:lack]
            end = scanned + int(keep[-1]) + 1
        self._append(chunk[keep])
        self._parent_scanned = end

    # -- access ------------------------------------------------------------

    def codes(self, m: int) -> np.ndarray:
        self.ensure(m)
        return self._codes[:m]

    def pair(self, i: int) -> tuple[int, int]:
        """The (i+1)-th edge of the process (0-based index)."""
        if i < 0:
            raise DomainError(f"edge index {i} is negative")
        self.ensure(i + 1)
        return divmod(int(self._codes[i]), self.n)

    def pairs(self, m: int) -> list[tuple[int, int]]:
        u, v = np.divmod(self.codes(m), self.n)
        return list(zip(u.tolist(), v.tolist()))

    def prefix(self, m: int) -> Digraph:
        """The digraph of the first m edges (the uniform m-edge model), built
        straight from their codes; m must lie in [0, universe size]."""
        return Digraph(self.n, self.codes(m), allow_loops=self.loopful)

    def __len__(self) -> int:
        return self.universe_size


class CoupledProcess:
    """Loopful edge process together with its loop-deleted loopless shadow.

    For every m, the non-loop edges of the loopful prefix of length m form a
    subset of the loopless prefix of length m (deleting loops only advances
    non-loop edges).
    """

    def __init__(self, loopful: EdgeSequence, loopless: EdgeSequence):
        self.loopful = loopful
        self.loopless = loopless

    @property
    def n(self) -> int:
        return self.loopful.n

    def audit(self, m: int) -> bool:
        """Check the coupling invariant at one m <= n(n-1); raises if violated."""
        ful = self.loopful.codes(m)
        if np.setdiff1d(ful[~loop_mask(ful, self.n)], self.loopless.codes(m),
                        assume_unique=True).size:
            raise AssertionError(f"coupling invariant violated at m={m}")
        return True


# -- operations ---------------------------------------------------------------


def gen_binomial(n: int, p: float, allow_loops: bool, seed: int) -> Digraph:
    """Each admissible pair present independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability p must lie in [0,1], got {p}")
    if n <= 0:
        raise DomainError(f"vertex count must be positive, got {n}")
    rng = make_generator(seed)
    universe = n * n if allow_loops else n * (n - 1)
    if universe > _FULL_SHUFFLE_MAX:
        # Draw the edge count, then a uniform set of that size: exactly the
        # same joint law, without touching all ~n^2 pairs.
        m = int(rng.binomial(universe, p))
        return Digraph(n, EdgeSequence(n, allow_loops, _rng=rng).codes(m), allow_loops=allow_loops)
    idx = (rng.random(universe) < p).nonzero()[0].astype(np.int64, copy=False)
    # increasing indices, mapped increasingly past the loops: valid codes
    codes = idx if allow_loops else _loopless_index_to_code(idx, n)
    return Digraph(n, codes, allow_loops=allow_loops, _valid=True)


def gen_process(n: int, universe: str, seed: int) -> EdgeSequence:
    """Uniformly random edge ordering; ``universe`` is 'loopless' or 'loopful'."""
    if universe not in ("loopless", "loopful"):
        raise DomainError(f"universe must be 'loopless' or 'loopful', got {universe!r}")
    return EdgeSequence.generate(n, universe == "loopful", seed)


def couple(loopful_seq: EdgeSequence) -> CoupledProcess:
    """Derive the loopless process by deleting loops, preserving order."""
    if not loopful_seq.loopful:
        raise DomainError("coupling requires a loopful sequence")
    return CoupledProcess(loopful_seq, EdgeSequence._derived_loopless(loopful_seq))


def hitting_time(seq: EdgeSequence) -> int:
    """Least m such that prefix(m) has all in- and out-degrees >= 1.

    A process and its loop-deleted shadow share one root, the loopful
    parent; any other process is its own root.  One scan of the root's
    order (``_coverage_scan``) gives the hitting time with loops counted and
    with loops deleted, and the root keeps both.  So the second side of a
    coupled process costs nothing, in either call order, and a shadow's
    hitting time materialises none of the shadow's codes.
    """
    root = seq if seq._parent is None else seq._parent
    with root._lock:
        if root._hitting is None:
            root._hitting = _coverage_scan(root)
    return root._hitting[seq is not root]


def _repeats(seq: EdgeSequence, cut: int, end: int) -> tuple[int, int, int]:
    """(repeats before ``cut``, repeats before ``end``, loops among the
    latter) in ``seq``'s stream, for cut <= end.

    The stream is the materialised codes, then the pending draws.  A draw
    repeats when its code came earlier: in the codes (searched in their
    sorted copy ``_seen``) or in an earlier pending draw.  A count needs no
    positions, only the codes on either side of the cut: the draws before
    it are sorted once and searched in ``_seen``, and those from it to
    ``end``, few when the two answers lie close, are sorted and searched in
    ``_seen`` and in the draws before the cut.
    """
    held = seq._codes.size
    if end <= held:  # no pending draw before end: a process that is not lazy
        return 0, 0, 0
    start = seq._pending_start
    cut, end = start + max(cut - held, 0), start + end - held
    # uint32, half the bytes and sorting time of int64, where the universe allows
    width = np.uint32 if seq.universe_size <= 1 << 32 else np.int64
    seen = [seq._seen] if seq._seen.size else []
    again = []
    for lo, hi in ((start, cut), (cut, end)):
        draws = seq._pending[lo:hi].astype(width)
        draws.sort()
        repeat = np.zeros(draws.size, dtype=bool)
        repeat[1:] = draws[1:] == draws[:-1]
        for level in seen:
            repeat |= _isin_sorted(level, draws)
        again.append(draws[repeat])
        if draws.size:
            seen.append(draws)
    before = again[0].size
    again = np.concatenate(again)
    return before, again.size, int(np.count_nonzero(loop_mask(again, seq.n)))


def _coverage_scan(seq: EdgeSequence) -> tuple[int, int]:
    """(hitting time with loops counted, hitting time with loops deleted) of
    ``seq``'s order, from one scan of its stream; equal when it has no loops.

    The stream is the materialised codes, then the pending draws of a lazy
    sequence, which may repeat a code.  A repeat never adds coverage, so the
    draw that completes it is a first appearance, and an answer is its
    position + 1 less the repeats before it (loops deleted: less the loops
    and the non-loop repeats).  ``_repeats`` counts those once the answers'
    positions are known, so the scan deduplicates nothing: the lazy
    sequence's codes stay as they were, and a later request deduplicates
    only the draws it needs.

    Key x < n is vertex x as a source and key n + x is x as a target; one
    "not yet seen" flag per key serves the loop-deleted side.  Windows of
    the stream are read in turn, the first of max(n, ``_MIN_WINDOW``) draws
    and each next one at most twice as long, up to ``_MAX_WINDOW``; a window
    ends where the codes or the pending draws end.  Once nothing unscanned
    is left, a lazy sequence draws one more block by the rule a request
    draws by (``_draw_below_half``: codes and pending draws fewer than half
    the universe).  Past that it deduplicates every pending draw and rescans
    its codes from position 0 (only tiny universes get there before their
    hitting time); once they are read it draws on while below half, or asks
    ``ensure`` for one more code, which shuffles in the tail as it would
    without the scan.  Any other sequence just asks ``ensure``.  So a lazy
    sequence draws exactly the blocks that it would draw to materialise its
    hitting time.  A window costs one floor division, gathers of its
    sources' and targets' keys from the flags (a loop's keys go to the spare
    key 2n, never unseen), and scatters of the few keys found unseen, into
    the flags and into their first positions, ``first``.  Its loops'
    positions and vertices are kept.  The window that clears the last flag
    fixes the loop-deleted answer, the latest first position.  A key's first
    cover with loops counted is the earlier of its first non-loop draw and
    its first loop, and that answer never comes after the loop-deleted one;
    so, once the scan ends, the kept loops lower their vertices' two keys in
    ``first``, and its latest entry is the loops-counted answer.  The caller
    holds the sequence's lock.
    """
    n = seq.n
    spare = 2 * n
    unseen = np.ones(spare + 1, dtype=bool)
    unseen[spare] = False
    first = np.full(spare, np.iinfo(np.int64).max)  # each key's first stream position
    loop_at, loop_vertex = [], []
    start, width = 0, min(max(n, _MIN_WINDOW), _MAX_WINDOW)
    while True:
        skip = start - seq._codes.size
        if skip < 0:
            codes = seq._codes[start:start + width]
        else:
            pending = seq._pending[seq._pending_start:seq._pending_end]
            codes = pending[skip:skip + width]
            if not codes.size:  # nothing unscanned is left
                if seq._draw_below_half():
                    continue
                if pending.size:  # past half: deduplicate them all and rescan
                    seq._absorb(pending.size)
                    return _coverage_scan(seq)
                seq.ensure(start + 1)
                continue
        u = codes // n
        v = u * n
        np.subtract(codes, v, out=v)
        at = np.flatnonzero(u == v)  # positions of the window's loops
        loop_at.append(at + start)
        loop_vertex.append(u[at])
        v += n
        u[at] = v[at] = spare
        out_at, in_at = np.flatnonzero(unseen[u]), np.flatnonzero(unseen[v])
        fresh = np.concatenate([u[out_at], v[in_at]])
        pos = np.concatenate([out_at, in_at])
        pos += start
        np.minimum.at(first, fresh, pos)  # a key can repeat within a window
        unseen[fresh] = False
        if not np.count_nonzero(unseen):
            break
        start += codes.size
        width = min(2 * width, _MAX_WINDOW)
    last = int(first.max())
    loop_at, loop_vertex = np.concatenate(loop_at), np.concatenate(loop_vertex)
    np.minimum.at(first, loop_vertex, loop_at)
    np.minimum.at(first, loop_vertex + n, loop_at)
    with_loops = int(first.max())
    loops = int(np.count_nonzero(loop_at < last))
    early, repeats, loop_repeats = _repeats(seq, with_loops, last)
    return with_loops + 1 - early, last + 1 - loops - (repeats - loop_repeats)


# -- edge-list text format -----------------------------------------------------
# First line: `n <n> loops <0|1>`; then one `u v` pair per line.


def write_edge_list(d: Digraph, stream: IO[str], one_indexed: bool = False) -> None:
    off = 1 if one_indexed else 0
    stream.write(f"n {d.n} loops {1 if d.allow_loops else 0}\n")
    for u, v in d.edges():
        stream.write(f"{u + off} {v + off}\n")


def read_edge_list(stream: IO[str], one_indexed: bool = False) -> Digraph:
    header = stream.readline().split()
    if len(header) != 4 or header[0] != "n" or header[2] != "loops" or header[3] not in ("0", "1"):
        raise FormatError("expected header 'n <n> loops <0|1>'")
    try:
        n = int(header[1])
    except ValueError:
        raise FormatError(f"bad vertex count {header[1]!r}") from None
    allow_loops = header[3] == "1"
    off = 1 if one_indexed else 0
    edges = []
    seen = set()
    for lineno, line in enumerate(stream, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line.rstrip()!r}")
        try:
            u, v = int(parts[0]) - off, int(parts[1]) - off
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex id out of range for n={n}")
        if u == v and not allow_loops:
            raise FormatError(f"line {lineno}: loop ({u},{u}) in a loopless file")
        if (u, v) in seen:
            raise FormatError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Digraph(n, edges, allow_loops=allow_loops)
