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
from itertools import accumulate, chain
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, FormatError
from .rng import make_generator

# Universes at most this size are materialised with one Fisher-Yates shuffle;
# larger ones are sampled lazily without replacement in fixed-size blocks so
# that hitting-time runs at n = 10^4 never touch all ~10^8 pairs.
_FULL_SHUFFLE_MAX = 1 << 22
_DRAW_BLOCK = 1 << 16
# Most codes the small level of the lazy-draw mirror holds before it is folded
# into the large one (see _fresh_in_order).
_DELTA_MAX = 1 << 18


class Digraph:
    """Immutable directed graph on vertex set {0, ..., n-1}.

    The edges are held once, as a sorted, duplicate-free int64 array of codes
    u*n + v (``codes``), given either so or as an iterable of (u, v) pairs.
    Duplicates, out-of-range vertices and loops in a loopless digraph raise
    ``DomainError`` in both forms, at build time.  The out- and in-neighbour
    rows are sorted tuples (matching and rotation order depend on them), each
    cut from the codes on its first query -- ``has_edge``, the neighbour and
    degree accessors, ``audit`` -- so a digraph whose rows are never read
    costs only its code array.  The rows are a function of the codes alone:
    concurrent first queries may each cut them, but they cut equal rows.
    Edge lists, edge sets, degrees and the adjacency matrix are derived on
    demand.
    """

    __slots__ = ("n", "allow_loops", "_codes", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = (),
                 allow_loops: bool = False):
        if n <= 0:
            raise DomainError(f"vertex count must be positive, got {n}")
        self.n = n = int(n)
        self.allow_loops = bool(allow_loops)
        codes = _encode(n, edges)
        if (codes[1:] == codes[:-1]).any():
            raise DomainError("duplicate edges in input")
        if not self.allow_loops and (loop := loop_mask(codes, n)).any():
            u = int(codes[loop.argmax()]) // (n + 1)
            raise DomainError(f"loop ({u},{u}) in a loopless digraph")
        codes.flags.writeable = False
        self._codes = codes

    def __getattr__(self, name: str):
        # Reached only while a row slot is still unset, so once cut the rows
        # cost a plain slot read on every query.
        if name not in ("_out", "_in"):
            raise AttributeError(f"'Digraph' object has no attribute {name!r}")
        n = self.n
        tails, heads = np.divmod(self._codes, n)
        if name == "_out":
            self._out = rows = _rows(heads, np.bincount(tails, minlength=n))
        else:
            self._in = rows = _rows(np.sort(heads * n + tails) % n, np.bincount(heads, minlength=n))
        return rows

    def __reduce__(self):
        # Pickles and copies carry the codes alone.  The default state reads
        # every slot through getattr, which would cut both rows on the way.
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

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._out[u]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(out-degree array, in-degree array)."""
        u, v = np.divmod(self._codes, self.n)
        return np.bincount(u, minlength=self.n), np.bincount(v, minlength=self.n)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros(self.n * self.n, dtype=np.int64)
        a[self._codes] = 1
        return a.reshape(self.n, self.n)

    def audit(self) -> bool:
        """Verify the neighbour rows against the codes; raises on corruption."""
        n = self.n
        rebuilt = [u * n + v for u in range(n) for v in self._out[u]]
        rebuilt_in = sorted(u * n + v for v in range(n) for u in self._in[v])
        if rebuilt != self._codes.tolist() or rebuilt_in != rebuilt:
            raise AssertionError("adjacency indices inconsistent with edge set")
        return True

    def with_edges(self, extra: Iterable[tuple[int, int]] | np.ndarray,
                   allow_loops: Optional[bool] = None) -> "Digraph":
        """New digraph with ``extra`` (pairs or codes) unioned in."""
        loops = self.allow_loops if allow_loops is None else allow_loops
        return Digraph(self.n, sorted_union(self._codes, _encode(self.n, extra)), allow_loops=loops)

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


def _rows(heads: np.ndarray, counts: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """``heads`` cut into consecutive tuples of the given lengths."""
    items, counts = heads.tolist(), counts.tolist()
    return tuple(tuple(items[end - count:end]) for count, end in zip(counts, accumulate(counts)))


# -- pair <-> code translation ----------------------------------------------
# Internally every ordered pair (u, v) is the code u*n + v.  A loopless draw
# uses the compact index q in [0, n(n-1)) and skips the diagonal on decode.


def loop_mask(codes: np.ndarray, n: int) -> np.ndarray:
    """Which codes are loops: u*n + u = u*(n + 1)."""
    return codes % (n + 1) == 0


def _loopless_index_to_code(q: np.ndarray, n: int) -> np.ndarray:
    """Map compact loopless indices to codes, overwriting and returning ``q``.

    Index q = u*(n-1) + r becomes u*n + v with v = r + (r >= u).  Callers pass
    an array they own; working in place keeps the peak at two int64 copies.
    """
    u = np.empty_like(q)
    np.divmod(q, n - 1, out=(u, q))
    q += q >= u
    u *= n
    q += u
    return q


def _fresh_in_order(block: np.ndarray, base: np.ndarray,
                    delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of ``block`` absent from the mirror ``base`` + ``delta``, and the
    updated mirror ``(base, delta)``.

    The mirror holds every code seen so far in two sorted, disjoint,
    duplicate-free int64 arrays: a large ``base`` that the block is searched
    against and a small ``delta`` that it is merged into (the two levels of a
    log-structured merge tree).  The first array returned keeps each new code
    once, in order of first appearance in the block.  The new codes join
    ``delta``; once it holds more than ``_DELTA_MAX`` codes it is folded into
    ``base``.  Per block of B codes: one sort of the block, one binary search
    of its distinct codes in ``base`` (skipped while ``base`` is empty) and
    one linear merge into ``delta``, so O(B log B + B log S_base + _DELTA_MAX),
    plus a linear fold of all S codes once per ``_DELTA_MAX`` new codes,
    O(S B / _DELTA_MAX) amortised.  Peak memory past the inputs: about 4B
    int64 for the block sort, ``delta`` + B for the merge, and S int64 plus S
    bools for a fold.
    """
    index_bits = max(1, (block.size - 1).bit_length())
    if block.size and int(block.max()) < 1 << (63 - index_bits):
        # (code, index) packed into one int64: a plain sort of the packed keys
        # gives the stable order, several times faster than argsort(kind="stable").
        packed = np.sort((block << index_bits) | np.arange(block.size))
        ranked, order = packed >> index_bits, packed & ((1 << index_bits) - 1)
    else:
        order = np.argsort(block, kind="stable")
        ranked = block[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]  # stable: a run starts at its earliest index
    rest, where = ranked[first], order[first]
    if base.size:
        # A slot past the end holds a code above base[-1], so base[-1] serves
        # there: one gather, no masked indexing.
        slot = np.searchsorted(base, rest)
        np.minimum(slot, base.size - 1, out=slot)
        miss = base[slot] != rest
        rest, where = rest[miss], where[miss]
    # A stable sort of two sorted runs is one linear merge; a code already in
    # delta lands twice in a row, its copy from rest second.
    merged = np.concatenate([delta, rest])
    merged.sort(kind="stable")
    again = merged[1:] == merged[:-1]
    if again.any():
        # The repeats are the codes of rest already in delta; one search of
        # them in rest marks them.
        new = np.ones(rest.size, dtype=bool)
        new[np.searchsorted(rest, merged[1:][again])] = False
        where = where[new]
        merged = merged[np.concatenate([[True], ~again])]
    keep = np.zeros(block.size, dtype=bool)
    keep[where] = True
    if merged.size > _DELTA_MAX:
        base, merged = sorted_union(base, merged), np.empty(0, dtype=np.int64)
    return block[keep], base, merged


def _random_block(rng: np.random.Generator, n: int, loopful: bool) -> np.ndarray:
    """One block of i.i.d. uniform codes from the admissible pair universe."""
    universe = n * n if loopful else n * (n - 1)
    block = rng.integers(0, universe, size=_DRAW_BLOCK, dtype=np.int64)
    return block if loopful else _loopless_index_to_code(block, n)


class EdgeSequence:
    """A uniformly random ordering of all admissible ordered pairs.

    ``prefix(m)`` realises the uniform m-edge digraph.  The full order is a
    permutation of the pair universe; for large universes only the prefix
    actually requested is materialised (uniformity is preserved: the distinct
    values of an i.i.d. uniform stream, in order of first appearance, form a
    uniform permutation prefix).  Lazy draws come in fixed blocks of
    ``_DRAW_BLOCK`` codes, so the order depends on the seed alone, not on the
    requests; a loop-deleted shadow takes its parent's already drawn codes
    first and asks for one more block only when none are left.  Materialisation is internally locked, so
    a constructed sequence may be shared across threads.

    Lazy draws deduplicate against a two-level mirror of the S codes drawn so
    far (see ``_fresh_in_order``): ``_base`` and ``_delta`` are sorted,
    disjoint and duplicate-free, their union is the set of ``_codes``, and
    ``_delta`` holds at most ``_DELTA_MAX`` codes.  The mirror costs 8 bytes
    per code beside the codes' own 8, and a draw step peaks at about three
    int64 copies of S (the codes, the mirror, and either a folded base or
    the grown code array).  The mirror is freed once the tail is shuffled in.
    """

    def __init__(self, n: int, loopful: bool, *, _codes: Optional[np.ndarray] = None,
                 _rng: Optional[np.random.Generator] = None,
                 _parent: Optional["EdgeSequence"] = None):
        if n < 2:
            raise DomainError(f"edge process needs n >= 2, got {n}")
        self.n = int(n)
        self.loopful = bool(loopful)
        self.universe_size = n * n if loopful else n * (n - 1)
        self._codes = _codes if _codes is not None else np.empty(0, dtype=np.int64)
        # Two-level sorted mirror of _codes for the dedup in _draw_block
        # (invariants above), built on demand.
        self._base = self._delta = np.empty(0, dtype=np.int64)
        self._rng = _rng
        self._parent = _parent
        self._parent_scanned = 0
        self._lock = threading.Lock()
        self._hitting: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def generate(cls, n: int, loopful: bool, seed: int) -> "EdgeSequence":
        rng = make_generator(seed)
        seq = cls(n, loopful, _rng=rng)
        if seq.universe_size <= _FULL_SHUFFLE_MAX:
            perm = rng.permutation(seq.universe_size).astype(np.int64, copy=False)
            if not loopful:
                perm = _loopless_index_to_code(perm, n)
            seq._codes = perm
        return seq

    @classmethod
    def from_order(cls, n: int, loopful: bool, order: Sequence[tuple[int, int]]) -> "EdgeSequence":
        """Explicit order (must be a permutation of the full universe)."""
        Digraph(n, order, allow_loops=loopful)  # raises on repeated or inadmissible pairs
        if len(order) != (n * n if loopful else n * (n - 1)):
            raise DomainError("order is not a permutation of the pair universe")
        return cls(n, loopful, _codes=np.array([u * n + v for u, v in order], dtype=np.int64))

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
                    self._extend_from_parent()
                elif self._codes.size < self.universe_size // 2:
                    # Consumption from the rng depends only on how much is
                    # already materialised, never on the request, so any
                    # request pattern yields the same order for one seed.
                    self._draw_block()
                else:
                    self._finish_with_shuffle()

    def _draw_block(self) -> None:
        assert self._rng is not None
        if self._base.size + self._delta.size != self._codes.size:
            self._base, self._delta = np.sort(self._codes), np.empty(0, dtype=np.int64)
        fresh, self._base, self._delta = _fresh_in_order(
            _random_block(self._rng, self.n, self.loopful), self._base, self._delta)
        self._codes = np.concatenate([self._codes, fresh])

    def _finish_with_shuffle(self) -> None:
        # Past half the universe rejection stalls; finish with a shuffle of
        # the leftovers (the conditional law of a uniform permutation's tail).
        assert self._rng is not None
        have = self._codes
        all_codes = np.arange(self.universe_size, dtype=np.int64)
        if not self.loopful:
            all_codes = _loopless_index_to_code(all_codes, self.n)
        # Both arrays are free of repeats, and all_codes is sorted, so the
        # result is the sorted leftovers without numpy's costly unique pass.
        rest = np.setdiff1d(all_codes, have, assume_unique=True)
        self._codes = np.concatenate([have, self._rng.permutation(rest)])
        self._base = self._delta = np.empty(0, dtype=np.int64)  # no draws follow; free the mirror

    def _extend_from_parent(self) -> None:
        # One step takes at most a block of the parent's unscanned codes; the
        # parent takes one more draw step only when none are left.
        parent = self._parent
        assert parent is not None
        scanned = self._parent_scanned
        if scanned == parent.materialized:
            parent.ensure(scanned + 1)
        chunk = parent._codes[scanned:scanned + _DRAW_BLOCK]
        self._codes = np.concatenate([self._codes, chunk[~loop_mask(chunk, self.n)]])
        self._parent_scanned = scanned + chunk.size

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

    def full_order(self) -> list[tuple[int, int]]:
        return self.pairs(self.universe_size)

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

    def audit_all(self, up_to: Optional[int] = None) -> bool:
        limit = self.loopless.universe_size if up_to is None else up_to
        for m in range(limit + 1):
            self.audit(m)
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
    if universe <= _FULL_SHUFFLE_MAX:
        mask = rng.random(universe) < p
        idx = np.nonzero(mask)[0].astype(np.int64, copy=False)
        codes = idx if allow_loops else _loopless_index_to_code(idx, n)
    else:
        # Draw the edge count, then a uniform set of that size: exactly the
        # same joint law, without touching all ~n^2 pairs.
        m = int(rng.binomial(universe, p))
        codes = EdgeSequence(n, allow_loops, _rng=rng).codes(m)
    return Digraph(n, codes, allow_loops=allow_loops)


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


def _first_positions(keys: np.ndarray, n: int, offset: int, absent: int) -> np.ndarray:
    """first[v] = offset + least i with keys[i] == v, or ``absent`` if v is
    not in ``keys``."""
    first = np.full(n, absent, dtype=np.int64)
    first[keys[::-1]] = np.arange(offset + keys.size - 1, offset - 1, -1)
    return first


def hitting_time(seq: EdgeSequence) -> int:
    """Least m such that prefix(m) has all in- and out-degrees >= 1.

    The process is scanned in windows of what is already materialised past
    the last one: the first at most n codes, each next one at most twice as
    long, up to ``_DRAW_BLOCK``.  One more draw step is taken only when
    nothing unscanned is left.  Per vertex the scan keeps the first position
    where it appears as a source and as a target, and it stops at the first
    window that covers every vertex.  So the scan stops at most
    max(answer + n, ``_DRAW_BLOCK``) codes past the answer, at O(n) cost per
    window, and a lazy process draws only the blocks the answer needs.
    """
    if seq._hitting is not None:
        return seq._hitting
    n, absent = seq.n, seq.universe_size
    first_out = np.full(n, absent, dtype=np.int64)
    first_in = first_out.copy()
    start, width = 0, min(n, _DRAW_BLOCK)
    while True:
        if start == seq.materialized:
            seq.ensure(start + 1)
        u, v = np.divmod(seq._codes[start:start + width], n)
        np.minimum(first_out, _first_positions(u, n, start, absent), out=first_out)
        np.minimum(first_in, _first_positions(v, n, start, absent), out=first_in)
        worst = int(max(first_out.max(), first_in.max()))
        if worst < absent:
            seq._hitting = worst + 1
            return worst + 1
        start += u.size
        width = min(2 * width, _DRAW_BLOCK)


def min_degrees(d: Digraph) -> tuple[int, int]:
    """(min out-degree, min in-degree); a loop counts toward both at its vertex."""
    outd, ind = d.degrees()
    return int(outd.min()), int(ind.min())


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
