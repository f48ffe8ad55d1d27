"""The 1-factor-to-Hamilton-cycle construction pipeline.

Stages: expose a two-thirds prefix of the loopful edge process, augment it
with every later edge touching a low-degree vertex (the star digraph),
extract a 1-factor from each vertex's few earliest edges in that graph (or,
failing that, from the whole hitting-time digraph), re-extract under random
right-side relabelings until the factor has few loops and few cycles, merge
loops into other cycles (recording virtual edges where a needed edge is
absent), then use the still-unexposed random edges to patch cycles together,
rotate-and-close the remaining cycles into one, and finally rotate away any
virtual edges.  The output is verified against the loopless prefix at its
hitting time.

``compress``/``CompressionMap`` implement the instance-shrinking step that
removes low-degree vertices by contracting them with their factor
neighbours; the pipeline keeps every vertex instead, because the step's
isolation precondition is never met at desk-scale n (see README).  The
star digraph's isolation, short-cycle and maximum-degree properties only
license that step, so nothing here checks them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, pairwise
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .digraph import (CoupledProcess, Digraph, _isin_sorted, _stable_sort, csr_gather, csr_rows,
                      hitting_time, loop_mask, sorted_union)
from .errors import DomainError, MergeFailureError, PreconditionError
from .exact import OneFactor
from .matching import hopcroft_karp
from .rng import derive_seed, make_generator

MIN_N = 16  # below this log log n is too small for the degree window
RELABEL_RETRIES = 25  # right-side relabelings tried for a good factor
MERGE_RETRY_CAP = 5   # unravel attempts per cycle merge


@dataclass(frozen=True)
class Constants:
    """Derived quantities controlling the pipeline at a given n.

    ``m0``/``m1`` bracket the degree-1 hitting time, ``m3`` is the two-thirds
    exposure milestone; all logs are natural.  ``overlap_floor`` is the least
    number of factor edges the final cycle must keep, and
    ``low_degree_budget`` the number of vertices outside the large set that
    the formula degree threshold may leave before the pipeline falls back.
    """

    n: int
    m0: int
    m1: int
    m3: int
    large_threshold: int
    early_edges_per_vertex: int
    degree_window_eps: float
    good_loop_cap: float
    good_cycle_cap: float
    overlap_floor: float
    low_degree_budget: float


def compute_constants(n: int) -> Constants:
    if n < MIN_N:
        raise DomainError(f"constants need n >= {MIN_N}, got {n}")
    log_n = math.log(n)
    loglog = math.log(log_n)
    m0 = math.floor(n * log_n - n * math.log(loglog))
    m1 = math.floor(n * log_n + n * math.log(loglog))
    m3 = math.ceil(2.0 / 3.0 * n * log_n)
    c = Constants(
        n=n,
        m0=m0,
        m1=m1,
        m3=m3,
        large_threshold=math.ceil(3.0 * log_n / loglog),
        early_edges_per_vertex=10,
        degree_window_eps=4.0 / loglog,
        good_loop_cap=loglog,
        good_cycle_cap=2.0 * log_n,
        overlap_floor=n - 10.0 * log_n ** 2,
        low_degree_budget=10.0 * math.sqrt(n),
    )
    # m0 == m1 can only happen at the very bottom of the range (n = 16).
    if not (c.m3 < c.m0 <= c.m1):
        raise AssertionError(f"milestone ordering violated at n={n}: {c}")
    return c


def compute_large(d: Digraph, thr: int) -> frozenset[int]:
    """Vertices with out-degree >= thr AND in-degree >= thr."""
    outd, ind = d.degrees()
    return frozenset(np.nonzero((outd >= thr) & (ind >= thr))[0].tolist())


def _inside(codes: np.ndarray, n: int, vertices: frozenset) -> np.ndarray:
    """Mask of the edge codes whose two endpoints both lie in ``vertices``."""
    member = np.zeros(n, dtype=bool)
    member[list(vertices)] = True
    u, v = np.divmod(codes, n)
    return member[u] & member[v]


def build_star_digraph(cp: CoupledProcess, base: Digraph, large: frozenset) -> Digraph:
    """``base`` (the two-thirds prefix) plus every edge of the loopful
    process up to its hitting time that touches a vertex outside ``large``."""
    codes = cp.loopful.codes(hitting_time(cp.loopful))
    return base.with_edges(codes[~_inside(codes, cp.n, large)])


# -- 1-factor extraction ---------------------------------------------------------


def find_one_factor(d: Digraph, seed: int = 0) -> Optional[OneFactor]:
    """A 1-factor of d (perfect matching of its bipartite form), if one exists.

    Tie-breaking is random but reproducible for a fixed seed.
    """
    rng = make_generator(seed)
    indptr, heads = d.out_rows()
    heads = heads.copy()  # a row's slice shuffles with the draws of the row as a list
    for lo, hi in pairwise(indptr.tolist()):
        rng.shuffle(heads[lo:hi])
    size, match_left, _ = hopcroft_karp(d.n, d.n, indptr, heads)
    if size < d.n:
        return None
    return OneFactor(match_left)


def _relabeled_out_rows(codes: np.ndarray, n: int, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR out-rows (indptr, heads) of the digraph with edge codes ``codes``
    on n vertices, every head v renamed sigma[v], each row sorted.

    One sort of the codes tail*n + sigma[head] orders every row at once.
    """
    tails, heads = np.divmod(codes, n)
    return csr_rows(np.sort(tails * n + sigma[heads]), n)


def is_good_factor(f: OneFactor, c: Constants) -> bool:
    """Few loops, few cycles (strict caps)."""
    return f.num_loops < c.good_loop_cap and f.num_cycles < c.good_cycle_cap


# -- loop merging -----------------------------------------------------------------


class VirtualEdgeSet:
    """Vertex-disjoint directed edges added formally (absent from the host)."""

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        es = [(int(u), int(v)) for u, v in edges]
        touched: set[int] = set()
        for u, v in es:
            if u == v:
                raise DomainError(f"virtual loop ({u},{u}) not allowed")
            if u in touched or v in touched:
                raise DomainError(f"virtual edges must be vertex-disjoint; ({u},{v}) collides")
            touched.update((u, v))
        self._edges = frozenset(es)

    def __contains__(self, edge) -> bool:
        return tuple(edge) in self._edges

    def __iter__(self):
        return iter(sorted(self._edges))

    def __len__(self) -> int:
        return len(self._edges)


def merge_loops(f: OneFactor, d: Digraph, large: frozenset, seed: int = 0) -> tuple[OneFactor, VirtualEdgeSet]:
    """Splice every loop of f into another cycle.

    A loop vertex v (required to lie in ``large``) is inserted after one of
    its in-neighbours v0 on a different cycle: the real edge (v0, v) replaces
    (v0, v1), and (v, v1) is recorded as a virtual edge unless d already has
    it.  Vertices used by earlier merges are avoided, keeping the virtual
    edges vertex-disjoint.
    """
    loops = sorted(v for v, w in enumerate(f.image) if v == w)
    outside = [v for v in loops if v not in large]
    if outside:
        raise PreconditionError(f"loop vertices outside the large set: {outside}", witnesses=outside)
    image = list(f.image)
    if not loops:
        return OneFactor(image), VirtualEdgeSet()

    input_cycles = {frozenset(cyc) for cyc in f.cycles() if len(cyc) <= 3}
    rng = make_generator(seed)
    pending = set(loops)
    used: set[int] = set()
    virtual: list[tuple[int, int]] = []
    for v in rng.permutation(loops).tolist():
        best = None
        best_real = None
        candidates = d.in_neighbors(v).tolist()
        rng.shuffle(candidates)
        for v0 in candidates:
            if v0 == v or v0 in pending or v0 in used:
                continue
            v1 = image[v0]
            if v1 in used or v1 == v or v1 == v0:
                continue
            if best is None:
                best = v0
            if d.has_edge(v, v1):
                best_real = v0
                break
        pick = best_real if best_real is not None else best
        if pick is None:
            raise MergeFailureError(
                f"no admissible neighbour to merge the loop at vertex {v}", vertex=v)
        v1 = image[pick]
        image[pick] = v
        image[v] = v1
        if not d.has_edge(v, v1):
            virtual.append((v, v1))
        used.update((pick, v1, v))
        pending.discard(v)

    out = OneFactor(image)
    if out.num_loops:
        raise AssertionError("loop merging left a fixed point")
    for cyc in out.cycles():
        if len(cyc) <= 3 and frozenset(cyc) not in input_cycles:
            if any(x not in large for x in cyc):
                raise MergeFailureError(
                    f"merge created a short cycle outside the large set: {cyc}")
    return out, VirtualEdgeSet(virtual)


# -- paths, rotations, patching ----------------------------------------------------


def _path_array(path: Sequence[int], n: int) -> np.ndarray:
    """The path as an int64 array of distinct vertices of 0..n-1, not empty."""
    verts = np.asarray(list(path), dtype=np.int64)
    if verts.size == 0:
        raise DomainError("empty path")
    if verts.min() < 0 or verts.max() >= n:
        raise DomainError("path vertex out of range")
    ranked = np.sort(verts)
    if (ranked[1:] == ranked[:-1]).any():
        raise DomainError("path vertices must be distinct")
    return verts


def _rotated(verts: np.ndarray, i: int, j: int) -> np.ndarray:
    """v0..vi vj..vl v_{i+1}..v_{j-1}; no edge checks (see ``rotate``)."""
    return np.concatenate([verts[: i + 1], verts[j:], verts[i + 1: j]])


def rotate(path: Sequence[int], i: int, j: int, d: Digraph) -> list[int]:
    """Path rotation using the chord (v_i, v_j) and the end edge (v_l, v_{i+1})."""
    verts = _path_array(path, d.n)
    ell = verts.size - 1
    if not (1 <= i < j <= ell):
        raise PreconditionError(f"rotation indices out of range: i={i}, j={j}, l={ell}")
    vi, vj, vl, vnext = verts[[i, j, ell, i + 1]].tolist()
    if not d.has_edge(vi, vj):
        raise PreconditionError(f"missing chord ({vi},{vj})")
    if not d.has_edge(vl, vnext):
        raise PreconditionError(f"missing end edge ({vl},{vnext})")
    return _rotated(verts, i, j).tolist()


def patch_cycles(c1: Sequence[int], c2: Sequence[int], d: Digraph) -> Optional[list[int]]:
    """Merge two vertex-disjoint cycles via a cross pair of edges.

    Looks for cycle edges (v1, w1) in c1 and (v2, w2) in c2 with both
    (v1, w2) and (v2, w1) present in d; returns the merged cycle or None.
    The first pair in index order (least a, then least b, for v1 = c1[a] and
    v2 = c2[b]) wins, so the search is reproducible.

    The search is driven by adjacency, on arrays: one gather of c1's
    out-rows gives every edge (v1, w2) with w2 on c2, and one sorted search
    of the codes v2*n + w1 keeps the pairs that close.  Work is
    O(|c1| + |c2| + sum of out-degrees over c1) plus that search, instead of
    |c1|·|c2| probes.
    """
    c1, c2 = list(c1), list(c2)
    len1, len2 = len(c1), len(c2)
    on1, on2 = set(c1), set(c2)
    if len(on1) != len1 or len(on2) != len2:
        raise PreconditionError("a cycle repeats a vertex")
    if on1 & on2:
        raise PreconditionError("cycles must be vertex-disjoint")
    v1, v2 = np.array(c1, dtype=np.int64), np.array(c2, dtype=np.int64)
    pos = np.full(d.n, -1, dtype=np.int64)
    pos[v2] = np.arange(len2)
    indptr, heads = d.out_rows()
    counts, at = csr_gather(indptr, v1)
    a, b = np.repeat(np.arange(len1), counts), pos[heads[at]]  # edges (c1[a], c2[b])
    a, b = a[b >= 0], (b[b >= 0] - 1) % len2
    close = d.has_codes(v2[b] * d.n + v1[(a + 1) % len1])
    if not close.any():
        return None
    a, b = divmod(int((a[close] * len2 + b[close]).min()), len2)
    return c1[: a + 1] + c2[b + 1:] + c2[: b + 1] + c1[a + 1:]


def _default_budget(n: int) -> int:
    return math.ceil(3.0 * math.log(n))


def close_path(path: Sequence[int], d: Digraph, virtual_next: np.ndarray,
               rng: np.random.Generator) -> Optional[tuple[list[int], int]]:
    """Rotate the path until its last vertex closes back to its first one.

    Breadth-first search over rotation sequences, at most
    ``_default_budget(n)`` rotations deep; no virtual edge (v,
    virtual_next[v]) is ever added.  Returns (cycle on exactly the path's
    vertex set, rotations used), or None if the budget is exhausted.

    A queued path is only its parent and the rotation (i, j) that makes it;
    its int64 vertex array is built when the path is expanded, and an
    expanded path stays alive while its children are queued.  So the peak is
    about 8n bytes per expanded path (for a path on n vertices), however
    many paths are queued.  An expanded path reads the positions of each
    row it scans with one gather, and probes the closing edges of all its
    candidate ends with one ``has_codes`` call.
    """
    verts = _path_array(path, d.n)
    v0, last, ell = int(verts[0]), int(verts[-1]), verts.size - 1
    if d.has_edge(last, v0) and virtual_next[last] != v0:
        return verts.tolist(), 0
    # Every path of the search has the same vertex set, so one position array,
    # refilled per expanded path, serves them all; off-path vertices stay -1.
    pos = np.full(d.n, -1, dtype=np.int64)
    index = np.arange(verts.size)
    seen_ends = {last}
    frontier = [(verts, ell, ell + 1)]  # the identity rotation
    for depth in range(1, _default_budget(d.n) + 1):
        nxt: list[tuple[np.ndarray, int, int]] = []
        for parent, pi, pj in frontier:
            p = _rotated(parent, pi, pj)
            pos[p] = index
            vl = int(p[-1])
            cands: list[tuple[int, int]] = []
            row, skip = d.out_neighbors(vl), int(virtual_next[vl])
            for u, pu in zip(row.tolist(), pos[row].tolist()):
                if pu < 2 or pu > ell - 1 or u == skip:
                    continue
                i = pu - 1
                vi = int(p[i])
                row_i, skip_i = d.out_neighbors(vi), int(virtual_next[vi])
                for w, j in zip(row_i.tolist(), pos[row_i].tolist()):
                    if j >= i + 2 and w != skip_i:
                        cands.append((i, j))
            if not cands:
                continue
            if len(cands) > 1:
                rng.shuffle(cands)
            # the last vertex after each rotation, and whether it closes
            ends = p[[j - 1 for _, j in cands]]
            edges = d.has_codes(ends * d.n + v0).tolist()
            for (i, j), end, edge in zip(cands, ends.tolist(), edges):
                if end in seen_ends:
                    continue
                if edge and virtual_next[end] != v0:
                    return _rotated(p, i, j).tolist(), depth
                seen_ends.add(end)
                nxt.append((p, i, j))
        if not nxt:
            return None
        frontier = nxt
    return None


def _forbidden_at(cycle: list[int], virtual_next: np.ndarray) -> list[int]:
    """Indices idx whose cycle edge (cycle[idx], cycle[idx + 1]) is virtual."""
    verts = np.asarray(cycle, dtype=np.int64)
    return np.flatnonzero(virtual_next[verts] == np.roll(verts, -1)).tolist()


def eliminate_forbidden(cycle: list[int], virtual_next: np.ndarray, d: Digraph,
                        seed: int) -> Optional[tuple[list[int], int, int]]:
    """Rotate the virtual edges (v, virtual_next[v]) out of a Hamilton cycle,
    one per round.  Returns (cycle, rounds, rotations), or None when stuck."""
    rounds = rotations = 0
    present = _forbidden_at(cycle, virtual_next)
    while present:
        # A removal can be unclosable (e.g. the freed head has no usable
        # in-edge); any of the present edges may be removed first, so try
        # them all before declaring the round stuck.
        for attempt, idx in enumerate(present):
            got = close_path(cycle[idx + 1:] + cycle[: idx + 1], d, virtual_next,
                             make_generator(derive_seed(seed, rounds, attempt)))
            if got is not None:
                break
        if got is None:
            return None
        cycle, used = got
        left = _forbidden_at(cycle, virtual_next)
        if len(left) >= len(present):
            raise AssertionError("forbidden-edge round did not make progress")
        present = left
        rounds += 1
        rotations += used
    return cycle, rounds, rotations


# -- compression ---------------------------------------------------------------------


class CompressionMap:
    """Bookkeeping for contracted (pred, v, succ) triples.

    ``triples`` maps a new compressed label to its (v-, v, v+); every other
    original vertex maps straight through.  ``map_edge`` translates an
    original edge to a compressed one (None if an endpoint's role drops it),
    and ``decompress_cycle`` expands a compressed Hamilton cycle back.
    """

    def __init__(self, n_orig: int, reps: list, triples: dict):
        self.n_orig = n_orig
        self.n_comp = len(reps)
        self.triples = triples  # comp id -> (v-, v, v+)
        self._out_map: dict[int, int] = {}
        self._in_map: dict[int, int] = {}
        self.expansion: dict[int, tuple[int, ...]] = {}
        for comp_id, rep in enumerate(reps):
            if isinstance(rep, tuple):
                vm, v, vp = rep
                self._out_map[vp] = comp_id
                self._in_map[vm] = comp_id
                self.expansion[comp_id] = (vm, v, vp)
            else:
                self._out_map[rep] = comp_id
                self._in_map[rep] = comp_id
                self.expansion[comp_id] = (rep,)

    def map_edge(self, x: int, y: int) -> Optional[tuple[int, int]]:
        cx = self._out_map.get(x)
        cy = self._in_map.get(y)
        if cx is None or cy is None:
            return None
        return cx, cy

    def decompress_cycle(self, cycle: Sequence[int]) -> list[int]:
        out: list[int] = []
        for cv in cycle:
            out.extend(self.expansion[int(cv)])
        return out


class CompressResult(NamedTuple):
    digraph: Digraph
    factor: OneFactor
    mapping: CompressionMap


def compress(d: Digraph, m: OneFactor, l_set: frozenset) -> CompressResult:
    """Contract every vertex outside ``l_set`` with its factor neighbours.

    Preconditions (validated, with offending vertices named): no two
    non-members within distance 10 along the factor's cycles, and every
    factor cycle of length <= 3 contained in ``l_set``.
    """
    n = d.n
    non_l = sorted(v for v in range(n) if v not in l_set)
    cycles = m.cycles()

    for cyc in cycles:
        outs = [v for v in cyc if v not in l_set]
        if len(cyc) <= 3 and outs:
            raise PreconditionError(
                f"short factor cycle {cyc} leaves the compression set", witnesses=outs)
        if len(outs) >= 2:
            k = len(cyc)
            pos = {v: i for i, v in enumerate(cyc)}
            for a in range(len(outs)):
                for b in range(a + 1, len(outs)):
                    gap = abs(pos[outs[a]] - pos[outs[b]])
                    dist = min(gap, k - gap)
                    if dist <= 10:
                        raise PreconditionError(
                            f"vertices {outs[a]} and {outs[b]} are within factor distance "
                            f"{dist}", witnesses=[outs[a], outs[b]])

    pred = [0] * n
    for v, w in enumerate(m.image):
        pred[w] = v
    triple_of: dict[int, tuple[int, int, int]] = {}
    absorbed: set[int] = set()
    for v in non_l:
        vm, vp = pred[v], m.image[v]
        if vm in absorbed or vp in absorbed or v in absorbed:
            raise PreconditionError(f"overlapping compression triples at vertex {v}",
                                    witnesses=[v])
        triple_of[v] = (vm, v, vp)
        absorbed.update((vm, v, vp))

    reps: list = sorted(set(range(n)) - absorbed)
    reps.extend(triple_of[v] for v in non_l)
    reps.sort(key=lambda r: r[1] if isinstance(r, tuple) else r)
    mapping = CompressionMap(n, reps, {i: r for i, r in enumerate(reps) if isinstance(r, tuple)})

    comp_edges = set()
    for x, y in d.edges():
        e = mapping.map_edge(x, y)
        if e is not None and e[0] != e[1]:
            comp_edges.add(e)

    comp_cycles = []
    for cyc in cycles:
        cc = []
        for v in cyc:
            if v in triple_of:
                cc.append(mapping._in_map[triple_of[v][0]])
            elif v not in absorbed:
                cc.append(mapping._in_map[v])
            # v- / v+ members are folded into their triple's label
        comp_cycles.append(cc)
    if any(len(cc) == 0 for cc in comp_cycles):
        raise AssertionError("a factor cycle vanished during compression")
    comp_factor = OneFactor.from_cycles(mapping.n_comp, comp_cycles)
    comp_digraph = Digraph(mapping.n_comp, comp_edges, allow_loops=False)
    return CompressResult(comp_digraph, comp_factor, mapping)


# -- the full pipeline ------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    include_timings: bool = False  # add per-phase durations to the phase log


@dataclass
class PipelineOutcome:
    ok: bool
    cycle: Optional[tuple[int, ...]]
    overlap: Optional[int]
    failure_phase: Optional[str]
    failure_reason: Optional[str]
    phase_log: dict
    m_star: int
    m_star_loopful: int

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cycle": list(self.cycle) if self.cycle is not None else None,
            "overlap": self.overlap,
            "failure_phase": self.failure_phase,
            "failure_reason": self.failure_reason,
            "phase_log": self.phase_log,
            "m_star": self.m_star,
            "m_star_loopful": self.m_star_loopful,
        }


def verify_hamilton_cycle(cycle: Sequence[int], d: Digraph) -> bool:
    """A permutation of d's n vertices whose closed walk's n edges all lie in d."""
    cyc = np.array(list(cycle), dtype=np.int64)
    if cyc.size != d.n or not np.array_equal(np.sort(cyc), np.arange(d.n)):
        return False
    return bool(d.has_codes(cyc * d.n + np.roll(cyc, -1)).all())


def _canonical_cycle(cyc: Sequence[int]) -> list[int]:
    k = list(cyc)
    i = k.index(min(k))
    return k[i:] + k[:i]


def find_hamilton(cp: CoupledProcess, c: Constants, seed: int,
                  config: PipelineConfig = PipelineConfig()) -> PipelineOutcome:
    """Run the full construction on a coupled process; verify against the
    loopless prefix at its hitting time."""
    n = cp.n
    log: dict = {}
    timings: dict = {}
    t_start = t_mark = time.perf_counter()

    def mark(stage: str) -> None:
        nonlocal t_mark
        if config.include_timings:
            now = time.perf_counter()
            timings[stage], t_mark = now - t_mark, now

    def fail(phase: str, reason: str) -> PipelineOutcome:
        if config.include_timings:
            log["durations"] = timings
        return PipelineOutcome(False, None, None, phase, reason, log, m_star, m_star_l)

    m_star_l = hitting_time(cp.loopful)
    m_star = hitting_time(cp.loopless)
    target = cp.loopless.prefix(m_star)
    d_m3 = cp.loopful.prefix(c.m3)
    log["m_star"] = m_star
    log["m_star_loopful"] = m_star_l
    mark("exposure")

    # Degree threshold for the working large set: the formula value when it
    # leaves only O(sqrt n) vertices outside.  Otherwise fall back to 2:
    # vertices with a side of degree <= 1 in the two-thirds prefix get all
    # their hitting-time edges (degree-1 vertices colliding on a single
    # neighbour are the dominant matching obstruction at moderate n).
    thr = c.large_threshold
    large = compute_large(d_m3, thr)
    if n - len(large) > c.low_degree_budget:
        thr = 2
        large = compute_large(d_m3, thr)
    star_codes = build_star_digraph(cp, d_m3, large).codes
    log["large_threshold_formula"] = c.large_threshold
    log["large_threshold_used"] = thr
    log["large_size"] = len(large)
    mark("star")

    # Factor-eligible edges: loops may enter the factor (they are merged away
    # later); non-loop edges must already lie in the verification target.
    eligible = star_codes[loop_mask(star_codes, n) | target.has_codes(star_codes)]
    log["eligible_edges"] = eligible.size
    log["trimmed_star_edges"] = star_codes.size - eligible.size
    early = _early_edges(cp, c, m_star_l)
    early = early[_isin_sorted(eligible, early)]  # eligible holds d_m3, so it is not empty
    mark("early")

    def factor_tiers():
        """(source, sorted codes) of the factor tiers, in the order tried."""
        yield "early", early
        # Last resort: the whole loopless prefix at its hitting time (degrees
        # >= 1 by definition) plus the exposed loops, unless it equals the
        # early tier, whose Hopcroft-Karp run it would only repeat.
        exposed = cp.loopful.codes(m_star_l)
        full = sorted_union(target.codes, exposed[loop_mask(exposed, n)])
        if not np.array_equal(full, early):
            yield "full", full

    # Extract a factor from the first tier that has one; re-extract under
    # fresh right-side relabelings until it is good and its loops sit inside
    # the large set.  A relabeling keeps whether a tier has a perfect
    # matching, so every attempt uses the tier chosen at attempt 0.
    def extract(tier: np.ndarray, sigma: np.ndarray) -> Optional[OneFactor]:
        # The matcher is positional, so the relabeled rows must be
        # re-sorted: that is what makes a fresh sigma reach a genuinely
        # different factor rather than replaying the same execution.
        size, match_left, _ = hopcroft_karp(n, n, *_relabeled_out_rows(tier, n, sigma))
        if size < n:
            return None
        return OneFactor(np.argsort(sigma)[match_left].tolist())  # undo the relabeling

    for factor_source, tier in factor_tiers():
        got = extract(tier, np.arange(n))
        if got is not None:
            break
    else:
        return fail("one_factor", "no 1-factor in the hitting-time edges")
    factor = None
    for attempt in range(RELABEL_RETRIES + 1):
        if attempt:
            got = extract(tier, make_generator(derive_seed(seed, 1, attempt)).permutation(n))
        if is_good_factor(got, c) and all(got.image[v] != v or v in large for v in range(n)):
            factor = got
            break
    log["relabel_attempts"] = attempt + 1
    log["factor_source"] = factor_source
    mark("factor")
    if factor is None:
        return fail("goodness", f"no good factor within {RELABEL_RETRIES} relabelings")
    log["factor_loops"] = factor.num_loops
    log["factor_cycles"] = factor.num_cycles

    # Merge loops away; only real non-loop eligible edges back the merge.
    work = Digraph(n, eligible[~loop_mask(eligible, n)], allow_loops=False)
    try:
        merged, virtual = merge_loops(factor, work, large, seed=derive_seed(seed, 2))
    except MergeFailureError as exc:
        return fail("merge", str(exc))
    log["virtual_edges"] = len(virtual)
    mark("merge")

    # No compression: every vertex is kept.  The contraction step is tested
    # on its own; at these sizes its isolation precondition is never met by
    # real instances.
    log["compression"] = "identity"

    # Patching uses every other unexposed loopless edge between large
    # vertices.  Rotations and closures may use every verified edge: the
    # search is breadth-first, so a denser supply means fewer edges changed.
    unexposed = cp.loopless.codes(m_star)[c.m3:]
    reserved = unexposed[_inside(unexposed, n, large)]
    patch_d = Digraph(n, reserved[1::2], allow_loops=False)
    log["reserved_edges"] = reserved.size
    log["patch_pool"] = patch_d.edge_count
    log["rotation_pool"] = target.edge_count
    mark("pools")

    # Phase 2: greedy patching, always of the first patchable pair in index order.
    cycles = sorted((_canonical_cycle(cy) for cy in merged.cycles()),
                    key=lambda cy: (-len(cy), cy[0]))
    log["cycles_before_patching"] = len(cycles)
    patches = 0
    while len(cycles) > 1:
        for i, j in combinations(range(len(cycles)), 2):
            got = patch_cycles(cycles[i], cycles[j], patch_d)
            if got is not None:
                break
        else:
            break
        rest = [cy for k, cy in enumerate(cycles) if k not in (i, j)]
        cycles = sorted(rest + [_canonical_cycle(got)], key=lambda cy: (-len(cy), cy[0]))
        patches += 1
    log["patches"] = patches
    log["cycles_after_patching"] = len(cycles)
    mark("patch")

    # Phase 3: unravel each remaining cycle into the main one and re-close;
    # a cycle that fails goes to the back of the queue once.  Its rotation
    # search sets the peak memory: the earlier phases' edges go.
    del d_m3, star_codes, eligible, early, tier, work, reserved, patch_d
    virtual_next = np.full(n, -1, dtype=np.int64)  # -1: none; the edges are vertex-disjoint
    virtual_next[[u for u, _ in virtual]] = [v for _, v in virtual]
    main = cycles[0]
    queue = [(cyc, False) for cyc in cycles[1:]]
    rotations_total = 0
    closes = 0
    while queue:
        cyc, retried = queue.pop(0)
        got = _merge_into(main, cyc, target, virtual_next, derive_seed(seed, 3, closes, len(cyc)))
        if got is None:
            if retried:
                return fail("phase3", f"could not merge the cycle starting at {cyc[0]} "
                                      f"(length {len(cyc)})")
            queue.append((cyc, True))
            continue
        main, used = got
        rotations_total += used
        closes += 1
    log["closes"] = closes
    log["rotations_total"] = rotations_total
    mark("phase3")

    # Rotate away virtual edges.
    got = eliminate_forbidden(main, virtual_next, target, derive_seed(seed, 4))
    if got is None:
        return fail("eliminate", "could not rotate a virtual edge out")
    main, rounds, used = got
    log["eliminate_rounds"] = rounds
    log["rotations_total"] += used
    mark("eliminate")

    if not verify_hamilton_cycle(main, target):
        return fail("verify", "result is not a Hamilton cycle of the loopless prefix")
    cyc = np.asarray(main, dtype=np.int64)
    overlap = int(np.count_nonzero(np.asarray(factor.image)[cyc] == np.roll(cyc, -1)))
    log["overlap"] = overlap
    log["overlap_floor"] = c.overlap_floor
    log["edges_changed"] = n - overlap
    if overlap < c.overlap_floor:
        return fail("overlap", f"overlap {overlap} below floor {c.overlap_floor:.1f}")
    if config.include_timings:
        timings["total"] = time.perf_counter() - t_start
        log["durations"] = timings
    return PipelineOutcome(True, tuple(_canonical_cycle(main)), overlap,
                           None, None, log, m_star, m_star_l)


def _early_edges(cp: CoupledProcess, c: Constants, m_star_l: int) -> np.ndarray:
    """Sorted codes of the early edges: in process order, each vertex's first
    few out-edges, then, among the rest, each vertex's first few in-edges."""
    width = c.early_edges_per_vertex
    codes = cp.loopful.codes(m_star_l)
    tails, heads = np.divmod(codes, cp.n)
    taken = _first_per_key(tails, width)
    rest = ~taken
    taken[rest] = _first_per_key(heads[rest], width)
    return np.sort(codes[taken])


def _first_per_key(keys: np.ndarray, width: int) -> np.ndarray:
    """Mask of the entries among the first ``width`` occurrences of their key."""
    ranked, order = _stable_sort(keys)
    rank = np.arange(keys.size) - np.searchsorted(ranked, ranked)
    first = np.empty(keys.size, dtype=bool)
    first[order] = rank < width
    return first


def _merge_into(main: list[int], cyc: list[int], rot_d: Digraph, virtual_next: np.ndarray,
                seed: int) -> Optional[tuple[list[int], int]]:
    """Unravel ``cyc`` into ``main`` via a connecting pool edge, then close.

    The candidates are the pool edges from ``cyc`` to ``main`` with tails in
    ``cyc`` order, then those from ``main`` to ``cyc`` with tails in ``main``
    order, heads ascending per tail; the shuffle that picks among them
    depends on that order.
    """
    n = rot_d.n
    # side[v]: 0 on cyc, 1 on main, -1 elsewhere; pos[v]: v's index on its cycle.
    side = np.full(n, -1, dtype=np.int64)
    pos = np.zeros(n, dtype=np.int64)
    for label, cycle in enumerate((cyc, main)):
        verts = np.asarray(cycle, dtype=np.int64)
        side[verts] = label
        pos[verts] = np.arange(verts.size)
    tails, heads = np.divmod(rot_d.codes, n)
    cross = side[heads] == 1 - side[tails]  # never true off the two cycles
    cross &= virtual_next[tails] != heads
    candidates, tails = rot_d.codes[cross], tails[cross]
    # The codes are sorted by (tail, head), so a stable sort by tail rank
    # keeps each tail's heads ascending.
    candidates = candidates[_stable_sort(side[tails] * n + pos[tails])[1]]
    if not candidates.size:
        return None
    # Shuffling an array draws exactly what shuffling a list of the same length draws.
    make_generator(seed).shuffle(candidates)
    for k, code in enumerate(candidates[:MERGE_RETRY_CAP].tolist()):
        a, b = divmod(code, n)
        ca, cb = (cyc, main) if side[a] == 0 else (main, cyc)
        apos, bpos = int(pos[a]), int(pos[b])
        path = ca[apos + 1:] + ca[: apos + 1] + cb[bpos:] + cb[: bpos]
        got = close_path(path, rot_d, virtual_next, make_generator(derive_seed(seed, k)))
        if got is not None:
            # a failed candidate counts as a full budget; +1 for the closing edge round
            cycle, used = got
            return cycle, k * _default_budget(rot_d.n) + used + 1
    return None
