import copy
import hashlib
import io
import math
import pickle
import sys
import threading
import tracemalloc
from collections import Counter
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcount import digraph
from hamcount.digraph import (
    _DRAW_BLOCK,
    _FULL_SHUFFLE_MAX,
    CoupledProcess,
    Digraph,
    EdgeSequence,
    _fresh_in_order,
    _loopless_index_to_code,
    _stable_sort,
    couple,
    gen_binomial,
    gen_process,
    hitting_time,
    loop_mask,
    read_edge_list,
    sorted_union,
    write_edge_list,
)
from hamcount.errors import DomainError, FormatError
from hamcount.exact import count_hamilton_cycles, count_one_factors

from conftest import (ReferenceDraws, audit_every_prefix, audit_rows, min_degrees,
                      reference_coverage_scan, reference_lazy_order,
                      reference_loopless_index_to_code, sequence_from_order)


def _sha256_codes(codes) -> str:
    return hashlib.sha256(np.ascontiguousarray(codes, dtype="<i8").tobytes()).hexdigest()


class TestDigraph:
    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Digraph(3, [(0, 1), (0, 1)])

    def test_rejects_loop_when_loopless(self):
        with pytest.raises(DomainError):
            Digraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Digraph(3, [(0, 3)])

    def test_adjacency_audit(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 3)], allow_loops=True)
        assert audit_rows(d)
        assert d.out_neighbors(0).tolist() == [1]
        assert d.in_neighbors(0).tolist() == [2]

    def test_complete_counts(self):
        assert Digraph.complete(5).edge_count == 20
        assert Digraph.complete(5, allow_loops=True).edge_count == 25


@st.composite
def _edge_lists(draw):
    """(n, loops, distinct admissible pairs in random order)."""
    n = draw(st.integers(1, 7))
    loops = draw(st.booleans())
    grid = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
    edges = draw(st.lists(st.sampled_from(grid), unique=True) if grid else st.just([]))
    return n, loops, edges


def _codes(n, edges):
    return np.array([u * n + v for u, v in edges], dtype=np.int64)


def _rows_of(edges, v):
    """(sorted out-neighbours, sorted in-neighbours) of v, from the pairs."""
    return sorted(w for u, w in edges if u == v), sorted(u for u, w in edges if w == v)


class TestEdgeForms:
    """Pairs and code arrays are two spellings of the same input."""

    @given(_edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_pairs_and_codes_agree(self, case):
        n, loops, edges = case
        a = Digraph(n, edges, allow_loops=loops)
        b = Digraph(n, _codes(n, edges), allow_loops=loops)
        assert a.edges() == b.edges() == sorted(edges)
        for v in range(n):
            want_out, want_in = _rows_of(edges, v)
            assert a.out_neighbors(v).tolist() == b.out_neighbors(v).tolist() == want_out
            assert a.in_neighbors(v).tolist() == b.in_neighbors(v).tolist() == want_in
        for x, y in zip(a.degrees(), b.degrees()):
            assert np.array_equal(x, y)
        assert a.degrees()[0].tolist() == [len(_rows_of(edges, v)[0]) for v in range(n)]
        assert a.degrees()[1].tolist() == [len(_rows_of(edges, v)[1]) for v in range(n)]
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v in edges:
            adj[u, v] = 1
        assert np.array_equal(a.adjacency_matrix(), adj)
        assert np.array_equal(b.adjacency_matrix(), adj)
        assert a == b and hash(a) == hash(b)
        assert audit_rows(a) and audit_rows(b)
        assert all(a.has_edge(u, v) == ((u, v) in edges) for u in range(-1, n + 1) for v in range(n))

    @given(_edge_lists(), st.sampled_from(["duplicate", "loop", "high", "low"]))
    @settings(max_examples=150, deadline=None)
    def test_pairs_and_codes_reject_alike(self, case, defect):
        n, loops, edges = case
        if defect == "duplicate":
            if not edges:
                return
            edges = edges + [edges[-1]]
            codes = _codes(n, edges)
        elif defect == "loop":
            loops = False
            edges = [e for e in edges if e[0] != e[1]] + [(n - 1, n - 1)]
            codes = _codes(n, edges)
        elif defect == "high":
            codes = np.append(_codes(n, edges), n * n)
            edges = edges + [(n, 0)]
        else:
            codes = np.append(_codes(n, edges), -1)
            edges = edges + [(0, -1)]
        with pytest.raises(DomainError):
            Digraph(n, edges, allow_loops=loops)
        with pytest.raises(DomainError):
            Digraph(n, codes, allow_loops=loops)

    @given(st.integers(2, 9), st.booleans(), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_matches_pairs(self, n, loopful, seed, data):
        seq = gen_process(n, "loopful" if loopful else "loopless", seed)
        m = data.draw(st.integers(0, seq.universe_size))
        assert seq.prefix(m) == Digraph(n, seq.pairs(m), allow_loops=loopful)

    @given(_edge_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_with_edges_is_union(self, case, data):
        n, loops, edges = case
        base = edges[: data.draw(st.integers(0, len(edges)))]
        extra = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
        want = Digraph(n, sorted(set(base) | set(extra)), allow_loops=loops)
        d = Digraph(n, base, allow_loops=loops)
        assert d.with_edges(extra) == want
        assert d.with_edges(_codes(n, extra)) == want


def _rows_cut(d: Digraph) -> tuple[bool, bool]:
    """Whether the out- and in-rows are cut, read from their slots directly
    so that the check itself cuts nothing."""
    return d._out is not None, d._in is not None


# first query -> (out-rows cut, in-rows cut) after it
_FIRST_QUERIES = {
    "has_edge": (lambda d: d.has_edge(0, d.n - 1), (False, False)),
    "out_neighbors": (lambda d: d.out_neighbors(d.n - 1), (True, False)),
    "out_rows": (lambda d: d.out_rows(), (True, False)),
    "in_neighbors": (lambda d: d.in_neighbors(0), (False, True)),
    "in_rows": (lambda d: d.in_rows(), (False, True)),
    "audit_rows": (audit_rows, (True, True)),
}


class TestLazyRows:
    """The neighbour rows are CSR slices of the codes, cut on first query."""

    def test_builds_leave_rows_uncut(self):
        built = [
            Digraph(5, [(0, 1), (1, 2), (4, 0)]),
            Digraph(5, np.array([7, 1, 13], dtype=np.int64)),
            Digraph.complete(6, allow_loops=True),
            Digraph(5, [(0, 1)]).with_edges([(1, 0), (0, 1)]),
            gen_process(9, "loopful", 3).prefix(40),
            gen_process(3000, "loopless", 1).prefix(5000),
            gen_binomial(8, 0.5, False, 1),
            gen_binomial(3000, 1e-5, False, 5),
        ]
        counted = gen_binomial(9, 0.6, False, 2)
        assert count_hamilton_cycles(counted) > 0 and count_one_factors(counted) > 0
        for d in built + [counted]:
            assert _rows_cut(d) == (False, False)

    @given(_edge_lists(), st.sampled_from(sorted(_FIRST_QUERIES)))
    @settings(max_examples=150, deadline=None)
    def test_first_query_cuts_the_eager_rows(self, case, query):
        n, loops, edges = case
        d = Digraph(n, _codes(n, edges), allow_loops=loops)
        ask, cut_after = _FIRST_QUERIES[query]
        ask(d)
        assert _rows_cut(d) == cut_after
        for v in range(n):
            assert (d.out_neighbors(v).tolist(), d.in_neighbors(v).tolist()) == _rows_of(edges, v)
        assert _rows_cut(d) == (True, True)
        assert audit_rows(d)

    @given(_edge_lists())
    @example((1, False, []))
    @example((1, True, [(0, 0)]))
    @example((4, True, [(3, 3), (0, 3), (3, 0)]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_codes(self, case):
        # empty rows, n = 1, loops and vertex n - 1 included
        n, loops, edges = case
        d = Digraph(n, edges, allow_loops=loops)
        for indptr, values in (d.out_rows(), d.in_rows()):
            assert indptr.dtype == values.dtype == np.int64
            assert indptr.size == n + 1 and values.size == len(edges)
            assert not indptr.flags.writeable and not values.flags.writeable
        for v in range(n):
            want_out, want_in = _rows_of(edges, v)
            out, into = d.out_neighbors(v), d.in_neighbors(v)
            assert (out.tolist(), into.tolist()) == (want_out, want_in)
            assert not out.flags.writeable and not into.flags.writeable
        pairs = set(edges)
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                assert d.has_edge(u, v) is ((u, v) in pairs)
        probe = np.arange(n * n, dtype=np.int64)
        assert d.has_codes(probe).tolist() == [divmod(c, n) in pairs for c in range(n * n)]
        assert audit_rows(d)

    @pytest.mark.parametrize("corrupt", ["out_value", "out_offset", "in_order"])
    def test_audit_catches_corrupt_rows(self, corrupt):
        d = Digraph(4, [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1)])
        (out_ptr, heads), (in_ptr, tails) = d.out_rows(), d.in_rows()
        if corrupt == "out_value":
            heads = heads.copy()
            heads[0] = 3
        elif corrupt == "out_offset":
            out_ptr = out_ptr.copy()
            out_ptr[1] = 1
        else:
            tails = tails[::-1].copy()
        d._out, d._in = (out_ptr, heads), (in_ptr, tails)
        with pytest.raises(AssertionError):
            audit_rows(d)

    def test_cut_rows_within_stated_bound(self):
        # the Digraph docstring: both directions hold 16(m + n + 1) bytes
        d = gen_process(3000, "loopless", 1).prefix(40_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d.out_rows(), d.in_rows()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 16 * (40_000 + 3000 + 1) <= held < 16 * (40_000 + 3000 + 1) + 2048

    @pytest.mark.parametrize("clone", [
        lambda d: pickle.loads(pickle.dumps(d)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_carry_codes_alone(self, clone):
        d = gen_process(40, "loopless", 2).prefix(300)
        twin = clone(d)
        assert _rows_cut(d) == _rows_cut(twin) == (False, False)
        assert twin == d and twin is not d and not twin.codes.flags.writeable
        for v in range(d.n):
            assert twin.out_neighbors(v).tolist() == d.out_neighbors(v).tolist()
            assert twin.in_neighbors(v).tolist() == d.in_neighbors(v).tolist()
        assert _rows_cut(d) == (True, True) and _rows_cut(clone(d)) == (False, False)
        assert len(pickle.dumps(d)) < d.codes.nbytes + 512

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            Digraph(3, [(0, 1)]).no_such_attribute


class TestSortedUnion:
    _codes = st.lists(st.integers(-2**40, 2**40), unique=True, max_size=60)

    @given(_codes, _codes, st.lists(st.booleans(), max_size=60))
    @example([], [], [])
    @settings(max_examples=200, deadline=None)
    def test_matches_union1d(self, a, own, share):
        # b holds its own codes and the codes of a picked by share
        shared = [x for x, pick in zip(a, share) if pick]
        a = np.array(sorted(a), dtype=np.int64)
        b = np.array(sorted(set(shared) | set(own)), dtype=np.int64)
        for x, y in ((a, b), (b, a), (a, a[:0]), (a[:0], b)):
            got = sorted_union(x, y)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.union1d(x, y))


class TestLooplessIndex:
    @pytest.mark.parametrize("n", range(2, 80))
    def test_every_index_against_the_pair_map(self, n):
        q = np.arange(n * (n - 1), dtype=np.int64)
        want = reference_loopless_index_to_code(q, n)
        got = _loopless_index_to_code(q, n)
        assert got is q  # in place
        assert np.array_equal(got, want)
        # the codes of every pair but the loops, in increasing order
        assert np.array_equal(got, np.flatnonzero(~np.eye(n, dtype=bool)))

    def test_peak_is_two_copies(self):
        q = np.arange(1 << 20, dtype=np.int64)
        tracemalloc.start()
        try:
            _loopless_index_to_code(q, 1025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= q.nbytes + 4096  # one temporary beside q


class TestGenBinomial:
    def test_p_zero_empty(self):
        assert gen_binomial(5, 0.0, False, 1).edge_count == 0

    def test_p_one_complete(self):
        assert gen_binomial(5, 1.0, False, 7).edge_count == 20

    def test_p_out_of_range(self):
        with pytest.raises(DomainError):
            gen_binomial(5, 1.5, False, 1)

    def test_seed_reproducible(self):
        a = gen_binomial(30, 0.3, True, 42)
        b = gen_binomial(30, 0.3, True, 42)
        assert a == b
        assert a != gen_binomial(30, 0.3, True, 43)

    def test_mean_edge_count(self):
        # mean over 200 seeds within 4 single-draw standard deviations
        sizes = [gen_binomial(100, 0.5, False, s).edge_count for s in range(200)]
        sd = math.sqrt(9900 * 0.25)
        assert abs(np.mean(sizes) - 4950) < 4 * sd

    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    @example(1, 1.0, True, 0)
    @example(1, 1.0, False, 0)
    @example(64, 1.0, False, 3)
    @example(64, 1.0, True, 4)
    def test_unchecked_build_equals_checked(self, n, p, loops, seed):
        # the dense path builds its digraph without the checks of a build;
        # its codes pass them and give an equal digraph
        d = gen_binomial(n, p, loops, seed)
        checked = Digraph(n, d.codes, allow_loops=loops)
        assert d == checked and d.codes.dtype == np.int64 and not d.codes.flags.writeable
        assert d.out_rows()[0].tolist() == checked.out_rows()[0].tolist()

    def test_sparse_path_matches_distribution(self):
        # large-universe branch: n^2 > 2^22 forces the two-stage sampler
        d = gen_binomial(3000, 1e-5, False, 5)
        assert 20 <= d.edge_count <= 160  # Bin(9e6, 1e-5) far tails excluded


class TestEdgeProcess:
    def test_universe_size_and_permutation(self):
        seq = gen_process(3, "loopful", 7)
        order = seq.pairs(len(seq))
        assert len(order) == 9
        assert len(set(order)) == 9
        for v in range(3):
            assert (v, v) in order

    def test_small_universe(self):
        seq = gen_process(2, "loopless", 3)
        assert sorted(seq.pairs(len(seq))) == [(0, 1), (1, 0)]
        assert seq.prefix(2).edge_count == 2

    def test_determinism(self):
        a, b, c = (gen_process(4, "loopless", seed) for seed in (1, 1, 2))
        assert a.pairs(12) == b.pairs(12)
        assert a.pairs(12) != c.pairs(12)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            gen_process(1, "loopless", 0)

    def test_rejects_bad_universe(self):
        with pytest.raises(DomainError):
            gen_process(4, "maybe-loops", 0)

    @given(st.integers(2, 8), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_prefix_monotone(self, n, seed):
        seq = gen_process(n, "loopless", seed)
        universe = n * (n - 1)
        prev: set = set()
        for m in range(universe + 1):
            cur = set(seq.pairs(m))
            assert len(cur) == m
            assert prev <= cur
            prev = cur

    def test_lazy_prefix_determinism(self):
        # n large enough that the universe is materialised lazily
        a = gen_process(3000, "loopless", 42)
        b = gen_process(3000, "loopless", 42)
        a.ensure(64)
        b.ensure(120_000)
        assert a.pairs(64) == b.pairs(64)

    @pytest.mark.parametrize("n", [5, 3000], ids=["shuffled", "lazy"])
    def test_rejects_negative_lengths(self, n):
        seq = gen_process(n, "loopless", 1)
        seq.ensure(17)
        for call in (seq.prefix, seq.codes, seq.pairs, seq.ensure, seq.pair):
            with pytest.raises(DomainError):
                call(-3)
        with pytest.raises(DomainError):
            seq.pair(-1)
        assert seq.prefix(0).edge_count == 0

    def test_from_order_validates(self):
        with pytest.raises(DomainError):
            sequence_from_order(2, False, [(0, 1), (0, 1)])
        seq = sequence_from_order(2, False, [(1, 0), (0, 1)])
        assert seq.pair(0) == (1, 0)


class TestFreshInOrder:
    @staticmethod
    def reference(block, seen):
        seen_set = set(seen)
        fresh = list(dict.fromkeys(c for c in block if c not in seen_set))
        return fresh, sorted(seen_set | set(fresh))

    @staticmethod
    def fresh_and_merged(block, seen):
        fresh, merged = _fresh_in_order(np.array(block, dtype=np.int64),
                                        np.array(seen, dtype=np.int64))
        assert fresh.dtype == merged.dtype == np.int64
        return fresh.tolist(), merged.tolist()

    @pytest.mark.parametrize("block, seen", [
        ([5, 3, 5, 9, 3, 1, 9, 9], []),            # in-block repeats, nothing seen
        ([4, 2, 4, 2], [2, 4, 7]),                 # fully seen block
        ([8, 1, 6, 1, 0, 12, 6, 3], [1, 3, 5, 12]),  # partial overlap
        ([20, 0, 20, 10], [5, 15]),                # new codes before, between and after
        ([], [1, 2]),
        ([2**62, 5, 2**62, 7, 5], [7, 2**61]),      # too wide to pack: stable argsort
    ])
    def test_cases(self, block, seen):
        assert self.fresh_and_merged(block, seen) == self.reference(block, seen)

    @given(st.lists(st.integers(0, 40), max_size=60), st.sets(st.integers(0, 40)),
           st.sampled_from([0, 2**61]))
    @example(block=[], seen=set(), offset=0)                      # empty block, nothing seen
    @example(block=[7, 3, 7, 40, 3], seen={3, 7, 40}, offset=0)   # every code already seen
    @example(block=[9] * 12, seen=set(), offset=0)                # one repeated code
    @example(block=[9] * 12, seen={9}, offset=2**61)              # ... already seen, wide
    @example(block=[40, 0, 40, 5], seen={5, 6}, offset=2**61)     # too wide to pack: argsort
    @settings(max_examples=200, deadline=None)
    def test_matches_set_reference(self, block, seen, offset):
        block = [offset + c for c in block]
        seen = sorted(offset + c for c in seen)
        assert self.fresh_and_merged(block, seen) == self.reference(block, seen)


class TestStableSort:
    @given(st.lists(st.integers(0, 40), max_size=80), st.sampled_from([None, 41, 20, 0]))
    @example(keys=[], back=None)
    @example(keys=[0, 0, 0], back=0)  # the least keys that take argsort
    @example(keys=[3] * 9, back=0)    # equal keys past the packing limit
    @example(keys=[3] * 9, back=None)
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort(self, keys, back):
        # Keys below 2^(63 - index bits) are packed with their indices; from
        # there on the sort falls back to argsort.  ``back`` lifts the keys to
        # that limit: None leaves them small, 41 puts them all just below it,
        # 20 across it and 0 at or above it.
        limit = 1 << (63 - max(1, (len(keys) - 1).bit_length()))
        keys = np.array(keys, dtype=np.int64) + (0 if back is None else limit - back)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            ranked, order = _stable_sort(keys)
        want = np.argsort(keys, kind="stable")
        assert order.tolist() == want.tolist()
        assert ranked.tolist() == keys[want].tolist()
        assert argsort.called == (keys.size == 0 or int(keys.max()) >= limit)


def _strictly_increasing(a: np.ndarray) -> bool:
    return bool((a[1:] > a[:-1]).all())


class TestSeenCodes:
    """A lazy EdgeSequence's sorted codes ``_seen`` against the plain
    bookkeeping of ``ReferenceDraws``, segment by segment."""

    @given(st.lists(st.lists(st.integers(0, 300), max_size=80), min_size=1, max_size=12),
           st.sampled_from([0, 2**61]))
    @example(blocks=[list(range(0, 50)), list(range(40, 100)) * 2, [7, 99, 300, 7], []],
             offset=0)                                       # repeats within and across blocks
    @example(blocks=[[5] * 9, list(range(30)), [29, 0, 31]], offset=2**61)  # wide
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_draws(self, blocks, offset):
        blocks = [np.array(b, dtype=np.int64) + offset for b in blocks]
        supply = iter(blocks)
        seq = EdgeSequence(1 << 31, True, _rng=np.random.default_rng(0))
        oracle = ReferenceDraws()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_random_block", lambda rng, n, loopful: next(supply))
            for block in blocks:
                before = seq.materialized
                assert seq._draw_below_half()
                if block.size:
                    seq._absorb(block.size)
                assert seq._pending_start == seq._pending_end
                assert seq._codes[before:].tolist() == oracle.draw(block).tolist()
                assert seq.materialized == oracle.codes.size
                assert _strictly_increasing(seq._seen)
                assert seq._seen.tolist() == np.sort(oracle.codes).tolist()


# sha256 of codes(300_000) of the loopful process at n = 10^4 and of its
# loop-deleted shadow, per seed
LOOPFUL_PINS = {
    0: ("c86ebb8addca6f78a40ef7c37c7112dcf11454956174d1938ae7d77bc4662958",
        "51237e7d54624f777579f1092f515b57a0ed1d1e5c92a79f10b6adbcc911d83a"),
    1: ("d75f995b82e44bb51695b72f2cdae30f0fafd67709f194123afb90884dab2249",
        "cd485306a6679f2e22e6857cf12f4f63218f9d9c2f74c1ad7d200b188c063892"),
}


class TestStreamPins:
    """sha256 digests of the edge process and the sparse binomial model.

    The digests were recorded from the earlier np.isin-based deduplication;
    any change to first-appearance order, the block schedule or the loopless
    index mapping changes them.
    """

    def test_loopful_lazy_and_shadow(self):
        assert 10_000 ** 2 > _FULL_SHUFFLE_MAX and 300_000 > 4 * _DRAW_BLOCK
        for seed, (loopful, shadow) in LOOPFUL_PINS.items():
            assert _sha256_codes(gen_process(10_000, "loopful", seed).codes(300_000)) == loopful
            cp = couple(gen_process(10_000, "loopful", seed))
            assert _sha256_codes(cp.loopless.codes(300_000)) == shadow

    def test_loopful_prefix_of_two_million_codes(self):
        # recorded with a single sorted set of seen codes; 2*10^6 codes at
        # n = 2049, almost half the universe, in one request
        assert 2049 ** 2 > _FULL_SHUFFLE_MAX
        seq = gen_process(2049, "loopful", 3)
        assert (_sha256_codes(seq.codes(2_000_000))
                == "714ea0cc0e772a54a758452e43a9d563e16a7bb175d5b1d3425fbc911c464a8c")

    def test_loopless_lazy(self):
        assert 3000 * 2999 > _FULL_SHUFFLE_MAX
        pins = {
            0: "0f23a98dc473d53659d26d34d6b95bce3d61e08901c0b2957045cbf3d9208a0e",
            1: "b674711e3e81c65562eaff1a1c0c44a4f15416ee29b019d178f3361daa7ba5ac",
        }
        for seed, digest in pins.items():
            assert _sha256_codes(gen_process(3000, "loopless", seed).codes(300_000)) == digest

    @pytest.mark.parametrize("p, edges, digest", [
        (1e-5, 100, "9fb2e59552e612223979baf6ba16bf1d8ee4b070eff192f1dc25e33bec69aa5c"),
        (0.02, 180_304, "d81fc1dc358418467c7682d87ea92f9e360dfb7559773662f17125bf4f9b9e7c"),
    ])
    def test_sparse_binomial(self, p, edges, digest):
        d = gen_binomial(3000, p, False, 5)
        assert d.edge_count == edges
        assert _sha256_codes([u * 3000 + v for u, v in d.edges()]) == digest

    def test_dense_binomial_past_half_the_universe(self):
        # the lazy draw stops at half the universe and shuffles the rest
        n = 2100
        assert n * (n - 1) > _FULL_SHUFFLE_MAX
        d = gen_binomial(n, 0.9, False, 3)
        codes = d.codes
        assert 0.89 * n * (n - 1) < codes.size < 0.91 * n * (n - 1)
        assert (codes[1:] > codes[:-1]).all()  # sorted and free of repeats
        assert not loop_mask(codes, n).any()


class TestShufflePrefix:
    """Universes of at most ``_FULL_SHUFFLE_MAX`` pairs materialise exact
    prefixes of one seeded shuffle; the digests were recorded when
    ``generate`` still shuffled the whole universe."""

    LOOPFUL_7 = "ec181308610a3d1c8a11b0ca6e8a3d2017bfa5fa3a6c83ffebb5f03d949f01a2"
    # (loopless m*, loopful m*, loopless codes(2^16)) of couple(gen_process(2000,
    # "loopful", 7))
    COUPLED_7 = (15055, 15059, "bd215d9f91b39a54e818365d18e81f36c8bc7380eab37798fe0b73c271013055")

    def test_pins(self):
        assert 2 * _DRAW_BLOCK < 2000 * 2000 <= _FULL_SHUFFLE_MAX
        seq = gen_process(2000, "loopful", 7)
        assert seq.materialized == _DRAW_BLOCK  # one prefix, not the universe
        assert _sha256_codes(seq.codes(2**16)) == self.LOOPFUL_7
        assert seq.materialized == _DRAW_BLOCK
        assert (_sha256_codes(gen_process(2048, "loopless", 3).codes(2**16))
                == "df3e5454eb1bc71e968a2ea5377560c748585555f370cb4376605a480332edee")

    def test_pins_past_the_first_prefix(self):
        seq = gen_process(2000, "loopful", 7)
        assert (_sha256_codes(seq.codes(300_000))
                == "bbde33fafb745b2be1c536dbcf9e96935f2f10e25f9d98bb86a067017526395d")
        assert seq.materialized == 300_000
        assert _sha256_codes(seq.codes(2**16)) == self.LOOPFUL_7
        whole = gen_process(2000, "loopful", 7)
        order = whole.pairs(len(whole))
        assert (_sha256_codes([u * 2000 + v for u, v in order])
                == "d2ff9e340fcb76f0b2197c0ddbeb0f6ac17c657510d5ae6599bf2ce67cb0b531")

    def test_shared_across_threads(self):
        # both sides of one coupled n = 2000 process asked at once for their
        # hitting times and for prefixes past the first shuffle prefix
        cp = couple(gen_process(2000, "loopful", 7))
        results = {}

        def work(i):
            seq = cp.loopless if i % 2 else cp.loopful
            results[i] = (hitting_time(seq), _sha256_codes(seq.codes(2**16)),
                          _sha256_codes(seq.codes(150_000)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        alone = couple(gen_process(2000, "loopful", 7))
        want = {side: (hitting_time(seq), _sha256_codes(seq.codes(2**16)),
                       _sha256_codes(seq.codes(150_000)))
                for side, seq in ((0, alone.loopful), (1, alone.loopless))}
        m_less, m_ful, shadow = self.COUPLED_7
        assert want[0][:2] == (m_ful, self.LOOPFUL_7) and want[1][:2] == (m_less, shadow)
        assert results == {i: want[i % 2] for i in range(6)}

    def test_memory(self):
        # a whole shuffle of the 4 M pairs peaks at 32.7 MB and holds all of it
        tracemalloc.start()
        try:
            seq = gen_process(2000, "loopful", 7)
            seq.codes(2**16)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 26e6 and held < 2e6


class TestCoupling:
    def test_loop_deletion_preserves_order(self):
        lf = sequence_from_order(2, True, [(0, 0), (0, 1), (1, 0), (1, 1)])
        cp = couple(lf)
        assert cp.loopless.pairs(2) == [(0, 1), (1, 0)]

    def test_requires_loopful(self):
        with pytest.raises(DomainError):
            couple(gen_process(3, "loopless", 1))

    def test_audit_raises_when_the_invariant_fails(self):
        # a loopless order that is not the loop-deleted loopful one: at m = 1
        # the loopful prefix has (0, 1) and the loopless one only (1, 0)
        lf = sequence_from_order(2, True, [(0, 1), (0, 0), (1, 0), (1, 1)])
        cp = CoupledProcess(lf, sequence_from_order(2, False, [(1, 0), (0, 1)]))
        with pytest.raises(AssertionError, match="m=1"):
            cp.audit(1)
        assert cp.audit(2)

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_invariant_exhaustive(self, seed):
        cp = couple(gen_process(5, "loopful", seed))
        assert audit_every_prefix(cp)

    def test_invariant_larger_n(self):
        cp = couple(gen_process(40, "loopful", 9))
        for m in range(0, 40 * 39 + 1, 7):
            assert cp.audit(m)

    def test_invariant_exhaustive_n50(self):
        # full m-scan at the upper end of the documented exhaustive range
        cp = couple(gen_process(50, "loopful", 3))
        n = 50
        loopless_iter = iter(cp.loopless.pairs(n * (n - 1)))
        seen_loopless: set = set()
        seen_loopful_nonloop: set = set()
        for m, edge in enumerate(cp.loopful.pairs(n * n), start=1):
            if edge[0] != edge[1]:
                seen_loopful_nonloop.add(edge)
            if m <= n * (n - 1):
                seen_loopless.add(next(loopless_iter))
                assert seen_loopful_nonloop <= seen_loopless

    def test_loops_first_strict_containment(self):
        lf = sequence_from_order(2, True, [(0, 0), (1, 1), (0, 1), (1, 0)])
        cp = couple(lf)
        ful_nonloop = {p for p in cp.loopful.pairs(2) if p[0] != p[1]}
        less = set(cp.loopless.pairs(2))
        assert ful_nonloop < less  # strictly smaller here


class TestHittingTime:
    def test_n2_always_two(self):
        for s in range(10):
            assert hitting_time(gen_process(2, "loopless", s)) == 2

    def test_constructed_position(self):
        # (2,0) is the only edge leaving vertex 2 and appears seventh
        order = [(0, 1), (0, 2), (1, 0), (1, 2), (0, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        seq = sequence_from_order(3, True, order)
        assert hitting_time(seq) == 7

    def test_boundary_is_tight(self):
        for seed in range(20):
            seq = gen_process(6, "loopless", seed)
            m = hitting_time(seq)
            assert min_degrees(seq.prefix(m)) >= (1, 1)
            before = min_degrees(seq.prefix(m - 1))
            assert before[0] == 0 or before[1] == 0

    def test_coupled_large_n(self):
        cp = couple(gen_process(2000, "loopful", 3))
        m_loopful = hitting_time(cp.loopful)
        m_loopless = hitting_time(cp.loopless)
        logn = 2000 * math.log(2000)
        assert 0.8 * logn < m_loopful < 1.6 * logn
        assert 0.8 * logn < m_loopless < 1.6 * logn

    # (loopless m*, loopful m*) of the coupled process at n = 10^4, recorded
    # when hitting_time still guessed n(ln n + 4) and doubled
    PINNED = {0: (92784, 92792), 1: (104819, 104829), 2: (92572, 92577),
              3: (95391, 95396), 4: (106272, 106284)}

    @staticmethod
    def least_covering_prefix(seq, m):
        """Whether prefix(m) has every degree >= 1 and prefix(m - 1) does not,
        from bincounts of the two prefixes."""
        def covered(codes):
            u, v = np.divmod(codes, seq.n)
            return (np.bincount(u, minlength=seq.n).min() >= 1
                    and np.bincount(v, minlength=seq.n).min() >= 1)
        codes = seq.codes(m)
        return covered(codes) and not covered(codes[:-1])

    # (loopful codes materialised, pending loopful draws) once both hitting
    # times are known, for every seed of PINNED.  When the scan deduplicated
    # what it read, the loopful side held 130985, 130996, 130975, 130999 and
    # 131006 codes: the distinct codes of the same two blocks.  The scan reads
    # the raw draws, so neither side materialises a code.
    MATERIALIZED = (0, 2 * _DRAW_BLOCK)

    @pytest.mark.parametrize("loopless_first", [True, False])
    def test_coupled_pins_and_draws(self, loopless_first):
        for seed, (want_less, want_ful) in self.PINNED.items():
            cp = couple(gen_process(10_000, "loopful", seed))
            if loopless_first:
                m_less, m_ful = hitting_time(cp.loopless), hitting_time(cp.loopful)
            else:
                m_ful, m_less = hitting_time(cp.loopful), hitting_time(cp.loopless)
            assert (m_less, m_ful) == (want_less, want_ful)
            assert 92_000 <= min(m_less, m_ful) and max(m_less, m_ful) <= 107_000
            # two blocks of about 65.5k distinct codes cover m* in either order
            assert cp.loopless.materialized == 0
            pending = cp.loopful._pending_end - cp.loopful._pending_start
            assert (cp.loopful.materialized, pending) == self.MATERIALIZED
            assert self.least_covering_prefix(cp.loopless, m_less)
            assert self.least_covering_prefix(cp.loopful, m_ful)

    @staticmethod
    def oracle(pairs, n):
        """Least m whose first m pairs give every vertex an out- and an in-edge."""
        outs, ins = set(), set()
        for m, (u, v) in enumerate(pairs, start=1):
            outs.add(u)
            ins.add(v)
            if len(outs) == len(ins) == n:
                return m
        raise AssertionError("the full universe covers every vertex")

    @given(st.integers(2, 300), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_oracle_on_shuffled_processes(self, n, loopful, seed):
        seq = gen_process(n, "loopful" if loopful else "loopless", seed)
        assert seq.materialized == seq.universe_size  # fully shuffled up front
        assert hitting_time(seq) == self.oracle(seq.pairs(len(seq)), n)

    @given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from(["none", "loopful", "loopless"]), st.integers(1, 300), st.booleans())
    @example(n=2, seed=5, loopless_first=True, materialised="none", ahead=1,
             lazy=False)  # loopful m* = 3
    # the loop-deleted side covers key 36 (vertex 3 as a target) last, at
    # position 177 of the second window; the loop (3, 3) at 9 covers it first
    @example(n=33, seed=3, loopless_first=False, materialised="none", ahead=1, lazy=True)
    @settings(max_examples=60, deadline=None)
    def test_coupled_matches_python_oracle(self, n, seed, loopless_first, materialised, ahead,
                                           lazy):
        # the loopful answer on the loopful order, the loopless one on the
        # same order with its loops deleted; the order comes from a second
        # process of the same seed, so the scan reads the first one's pending
        # draws when ``lazy`` (n >= 33 draws lazily)
        with pytest.MonkeyPatch.context() as mp:
            if lazy:
                mp.setattr(digraph, "_FULL_SHUFFLE_MAX", 1 << 10)
            order = couple(gen_process(n, "loopful", seed)).loopful.pairs(n * n)
            cp = couple(gen_process(n, "loopful", seed))
            assert (cp.loopful._rng is not None) == (lazy and n * n > 1 << 10)
            want_ful = self.oracle(order, n)
            want_less = self.oracle([(u, v) for u, v in order if u != v], n)
            if materialised != "none":
                seq = getattr(cp, materialised)
                seq.codes(min(ahead, seq.universe_size))
            if loopless_first:
                m_less, m_ful = hitting_time(cp.loopless), hitting_time(cp.loopful)
            else:
                m_ful, m_less = hitting_time(cp.loopful), hitting_time(cp.loopless)
        assert (m_less, m_ful) == (want_less, want_ful)

    def test_independent_of_materialisation(self):
        for seed, (want_less, want_ful) in list(self.PINNED.items())[:2]:
            cp = couple(gen_process(10_000, "loopful", seed))
            cp.loopful.codes(300_000)
            cp.loopless.codes(300_000)
            assert (hitting_time(cp.loopless), hitting_time(cp.loopful)) == (want_less, want_ful)

    @pytest.mark.parametrize("n", [18, 10_000])
    def test_shadow_stays_unmaterialised(self, n):
        # both hitting times read the loopful order alone; a later request
        # of the shadow takes just the parent codes it lacks, loops aside,
        # and the parent deduplicates a few hundred of its pending draws
        cp = couple(gen_process(n, "loopful", 0))
        hitting_time(cp.loopless)
        hitting_time(cp.loopful)
        assert cp.loopless.materialized == 0
        held = cp.loopful.materialized

        def no_draws(*args):
            raise AssertionError("a block was drawn")

        steps = []
        extend = EdgeSequence._extend_from_parent
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_random_block", no_draws)
            mp.setattr(EdgeSequence, "_extend_from_parent",
                       lambda seq, m: (steps.append(m), extend(seq, m)))
            cp.audit(200)
        assert steps == [200]  # one step: the chunk held the loops among its codes
        taken = cp.loopful.codes(cp.loopless._parent_scanned)
        assert cp.loopless.materialized == 200
        assert taken.size == 200 + np.count_nonzero(loop_mask(taken, n))
        assert not loop_mask(taken[-1:], n).any()  # no parent code past the last one needed
        if n == 18:  # the whole shuffle, from the start
            assert cp.loopful.materialized == held == n * n
        else:
            assert held == 0 and 200 <= cp.loopful.materialized < 1000

    def test_shared_across_threads(self):
        # hitting times and long prefixes requested at once from both sides
        # of one coupled process give the single-threaded answers
        cp = couple(gen_process(10_000, "loopful", 0))
        results = {}

        def work(i):
            seq = cp.loopless if i % 2 else cp.loopful
            results[i] = (hitting_time(seq), _sha256_codes(seq.codes(300_000)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        (want_less, want_ful), (ful, shadow) = self.PINNED[0], LOOPFUL_PINS[0]
        assert results == {i: (want_less, shadow) if i % 2 else (want_ful, ful) for i in range(6)}

    def test_stream_unchanged_after_hitting_time(self):
        for seed, (loopful, shadow) in LOOPFUL_PINS.items():
            cp = couple(gen_process(10_000, "loopful", seed))
            hitting_time(cp.loopless)
            hitting_time(cp.loopful)
            assert _sha256_codes(cp.loopful.codes(300_000)) == loopful
            assert _sha256_codes(cp.loopless.codes(300_000)) == shadow


def _chi_square_critical(df: int, alpha: float) -> float:
    """Upper ``alpha`` point of chi-square with ``df`` degrees of freedom, by
    the Wilson-Hilferty cube-root normal approximation."""
    h = 2 / (9 * df)
    return df * (1 - h + NormalDist().inv_cdf(1 - alpha) * math.sqrt(h)) ** 3


class TestEdgeProcessLaw:
    """Lazy draws give a uniformly random order of the pair universe, and the
    loop-deleted shadow a uniformly random loopless order, whether or not a
    hitting-time scan comes first.  At n = 3 the first and the last two
    codes of whole orders are tabulated over fixed seeds and compared with
    the uniform law by chi-square tests.  Blocks of 4 draws make the lazy
    path stop below half the universe and shuffle in a tail; blocks of 64
    cover the universe in one block."""

    SEEDS = 1500
    ALPHA = 1e-3

    @pytest.mark.parametrize("block", [4, 64])
    @pytest.mark.parametrize("scan_first", [False, True])
    @pytest.mark.parametrize("universe", ["loopless", "loopful"])
    def test_orders_are_uniform(self, monkeypatch, universe, scan_first, block):
        monkeypatch.setattr(digraph, "_FULL_SHUFFLE_MAX", 0)
        monkeypatch.setattr(digraph, "_DRAW_BLOCK", block)
        sides = ["loopless"] if universe == "loopless" else ["loopful", "shadow"]
        tallies = {(side, end): Counter() for side in sides for end in ("first", "last")}
        for seed in range(self.SEEDS):
            seq = gen_process(3, universe, seed)
            assert seq._rng is not None
            shadow = couple(seq).loopless if universe == "loopful" else None
            if scan_first:
                hitting_time(seq)  # the root's scan gives the shadow's too
            for side in sides:
                got = (shadow if side == "shadow" else seq)
                order = got.codes(len(got)).tolist()
                tallies[side, "first"][tuple(order[:2])] += 1
                tallies[side, "last"][tuple(order[-2:])] += 1
        for (side, end), counts in tallies.items():
            codes = 9 if side == "loopful" else 6
            cells = codes * (codes - 1)
            assert len(counts) <= cells
            expected = self.SEEDS / cells
            chi2 = sum((k - expected) ** 2 for k in counts.values()) / expected
            chi2 += (cells - len(counts)) * expected  # cells never seen
            assert chi2 < _chi_square_critical(cells - 1, self.ALPHA), (side, end, chi2)


class TestPendingDraws:
    """A lazy process keeps its draws pending until a request deduplicates
    them, and a hitting-time scan reads them raw; neither may change the
    order, whatever the requests and whichever comes first."""

    @pytest.mark.parametrize("pattern", range(3))
    def test_request_patterns_match_one_call(self, pattern):
        seed = 0
        loopful, shadow = LOOPFUL_PINS[seed]
        whole = gen_process(10_000, "loopful", seed).codes(300_000)
        rng = np.random.default_rng(pattern)
        sizes = [1, 7, 200, _DRAW_BLOCK - 3, _DRAW_BLOCK + 3, 2 * _DRAW_BLOCK + 1,
                 *rng.integers(1, 300_000, size=4).tolist()]
        sizes = [*rng.permutation(sizes).tolist(), 300_000]
        cp = couple(gen_process(10_000, "loopful", seed))
        if pattern == 2:
            hitting_time(cp.loopful)
        for m in sizes:
            assert np.array_equal(cp.loopful.codes(m), whole[:m])
            cp.loopless.codes(m)
        assert _sha256_codes(cp.loopful.codes(300_000)) == loopful
        assert _sha256_codes(cp.loopless.codes(300_000)) == shadow

    def test_codes_are_views_of_a_doubling_buffer(self):
        lazy = gen_process(10_000, "loopful", 0)
        shadow = couple(gen_process(18, "loopful", 0)).loopless
        for seq, sizes in ((lazy, range(1, 50_001, 499)), (shadow, range(1, 307))):
            buffers, taken = set(), []
            for m in sizes:
                taken.append(seq.codes(m))
                assert np.shares_memory(taken[-1], seq._buf)
                buffers.add(id(seq._buf))
            # an append copies the codes only when the capacity doubles
            assert len(buffers) <= max(sizes).bit_length() + 1
            whole = seq.codes(max(sizes))
            assert all(np.array_equal(t, whole[:t.size]) for t in taken)

    @pytest.fixture(scope="class")
    def scanned(self):
        # the earlier scan of the materialised codes, on a process of its own
        cp = couple(gen_process(10_000, "loopful", 0))
        want_ful, want_less = reference_coverage_scan(cp.loopful)
        assert (want_less, want_ful) == TestHittingTime.PINNED[0]
        return want_ful, want_less

    @pytest.mark.parametrize("m", [0, 1, 200, 70_000, 131_072])
    @pytest.mark.parametrize("side", ["loopful", "loopless"])
    @pytest.mark.parametrize("loopless_first", [True, False])
    def test_hitting_time_after_prefix(self, scanned, m, side, loopless_first):
        cp = couple(gen_process(10_000, "loopful", 0))
        want = getattr(cp, side).codes(m).copy()
        if loopless_first:
            m_less, m_ful = hitting_time(cp.loopless), hitting_time(cp.loopful)
        else:
            m_ful, m_less = hitting_time(cp.loopful), hitting_time(cp.loopless)
        assert (m_ful, m_less) == scanned
        assert np.array_equal(getattr(cp, side).codes(m), want)
        assert TestHittingTime.least_covering_prefix(cp.loopful, m_ful)
        assert TestHittingTime.least_covering_prefix(cp.loopless, m_less)

    def test_wide_universe(self):
        # n^2 > 2^32, so the repeats are counted on int64 draws, not uint32
        n = 70_000
        assert n * n > 1 << 32
        cp = couple(gen_process(n, "loopful", 1))
        want = reference_coverage_scan(gen_process(n, "loopful", 1))
        assert (hitting_time(cp.loopful), hitting_time(cp.loopless)) == want

    @pytest.mark.parametrize("m", [2500, 4000, 64 * 64])
    def test_past_half_the_universe(self, m):
        # n = 64 drawn lazily: one block of 2^16 draws covers the 4096 codes
        # at once, and asked past half of them a process gives the same
        # codes whether or not its hitting time came first
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_FULL_SHUFFLE_MAX", 1 << 10)
            plain = couple(gen_process(64, "loopful", 5))
            scanned = couple(gen_process(64, "loopful", 5))
            assert plain.loopful._rng is not None
            want = (TestHittingTime.oracle(plain.loopful.pairs(64 * 64), 64),
                    TestHittingTime.oracle(plain.loopless.pairs(64 * 63), 64))
            assert (hitting_time(scanned.loopful), hitting_time(scanned.loopless)) == want
            for side in ("loopful", "loopless"):
                seq = getattr(scanned, side)
                k = min(m, seq.universe_size)
                assert np.array_equal(seq.codes(k), getattr(plain, side).codes(k))

    @given(st.integers(2, 12), st.booleans(), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 8, 64]), st.booleans(),
           st.lists(st.integers(0, 144), min_size=1, max_size=8))
    @example(n=12, loopful=True, seed=0, block=1, scan_first=False, sizes=[1, 100])
    @example(n=3, loopful=False, seed=7, block=64, scan_first=True, sizes=[6])
    # these two scans pass half the universe twice before their answers
    @example(n=4, loopful=True, seed=0, block=3, scan_first=True, sizes=[16])
    @example(n=3, loopful=False, seed=0, block=1, scan_first=True, sizes=[2])
    @settings(max_examples=100, deadline=None)
    def test_requests_match_sequential_reference(self, n, loopful, seed, block, scan_first,
                                                 sizes):
        # whatever the requests and whether a hitting time came first, every
        # prefix is one of the order drawn a block and a code at a time,
        # deduplicated while fewer than half the codes are held, and then
        # finished with a shuffle of the leftovers; and a scan first gives
        # both hitting times of that order, also where it passes half the
        # universe (often, at n <= 4 with small blocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_FULL_SHUFFLE_MAX", 0)
            mp.setattr(digraph, "_DRAW_BLOCK", block)
            want = reference_lazy_order(n, loopful, seed, block)
            seq = gen_process(n, "loopful" if loopful else "loopless", seed)
            assert seq._rng is not None
            if scan_first:
                shadow = couple(seq).loopless if loopful else seq
                pairs = [divmod(code, n) for code in want]
                assert hitting_time(seq) == TestHittingTime.oracle(pairs, n)
                assert hitting_time(shadow) == TestHittingTime.oracle(
                    [(u, v) for u, v in pairs if u != v], n)
            for m in [*sizes, len(seq)]:
                m = min(m, len(seq))
                assert seq.codes(m).tolist() == want[:m]

    @pytest.mark.parametrize("scan_first", [False, True])
    def test_pending_buffer_doubles_and_lets_go(self, scan_first):
        # blocks of 8 draws at n = 60: a segment draws up to a few hundred
        # blocks into one buffer, replaced only when its capacity doubles,
        # and after each request the buffer holds at most twice its pending
        # draws (or one block), however many draws the request consumed
        n, block, seed = 60, 8, 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_FULL_SHUFFLE_MAX", 0)
            mp.setattr(digraph, "_DRAW_BLOCK", block)
            want = reference_lazy_order(n, True, seed, block)
            seq = gen_process(n, "loopful", seed)
            tally = Counter()
            draw, absorb = EdgeSequence._draw_below_half, EdgeSequence._absorb

            def drawn_since_last_absorb():
                assert tally["buffers"] <= tally["blocks"].bit_length() + 1, tally
                tally["most"] = max(tally["most"], tally["blocks"])
                tally["blocks"] = tally["buffers"] = 0

            def counted_draw(s):
                before = s._pending
                drew = draw(s)
                tally["blocks"] += drew
                tally["buffers"] += s._pending is not before
                return drew

            def checked_absorb(s, count):
                drawn_since_last_absorb()
                absorb(s, count)

            mp.setattr(EdgeSequence, "_draw_below_half", counted_draw)
            mp.setattr(EdgeSequence, "_absorb", checked_absorb)
            if scan_first:
                hitting_time(seq)
            for m in (1, 5, 40, 41, 300, 1500, 1790, n * n):
                assert seq.codes(m).tolist() == want[:m]
                pending = seq._pending_end - seq._pending_start
                assert seq._pending.size <= max(2 * pending, block)
            drawn_since_last_absorb()
            assert tally["most"] > 100  # one segment drew over a hundred blocks
            assert seq._pending.size == 0  # the tail is shuffled in

    def test_segment_memory_within_stated_bound(self):
        # the EdgeSequence docstring: a segment of L draws over S held codes
        # peaks at about 8(7S + 6L) bytes.  codes(10^6) at n = 10^4 is one
        # segment over S = 0, and codes(2 * 10^6) after it one over S = 10^6.
        segments = []
        fresh_in_order = digraph._fresh_in_order

        def record(block, seen):
            segments.append((seen.size, block.size))
            return fresh_in_order(block, seen)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_fresh_in_order", record)
            tracemalloc.start()
            try:
                seq = gen_process(10_000, "loopful", 0)
                for m in (10**6, 2 * 10**6):
                    segments.clear()
                    tracemalloc.reset_peak()
                    seq.codes(m)
                    peak = tracemalloc.get_traced_memory()[1]
                    (held, draws), = segments
                    assert (held == 0) == (m == 10**6) and draws >= m - held
                    assert peak < 8 * (7 * held + 6 * draws)
            finally:
                tracemalloc.stop()

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 8, 64]),
           st.booleans(), st.sampled_from(["none", "loopful", "loopless"]), st.integers(1, 150))
    @example(n=2, seed=0, block=1, loopless_first=False, materialised="none", ahead=1)
    @example(n=5, seed=3, block=3, loopless_first=True, materialised="loopful", ahead=4)
    @settings(max_examples=80, deadline=None)
    def test_small_blocks_match_python_oracle(self, n, seed, block, loopless_first,
                                              materialised, ahead):
        # tiny blocks: a scan crosses half the universe, deduplicates what it
        # read and goes on into the shuffled tail, with codes materialised
        # before it or not
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_FULL_SHUFFLE_MAX", 0)
            mp.setattr(digraph, "_DRAW_BLOCK", block)
            order = gen_process(n, "loopful", seed).pairs(n * n)
            cp = couple(gen_process(n, "loopful", seed))
            if materialised != "none":
                seq = getattr(cp, materialised)
                seq.codes(min(ahead, seq.universe_size))
            if loopless_first:
                m_less, m_ful = hitting_time(cp.loopless), hitting_time(cp.loopful)
            else:
                m_ful, m_less = hitting_time(cp.loopful), hitting_time(cp.loopless)
            assert m_ful == TestHittingTime.oracle(order, n)
            assert m_less == TestHittingTime.oracle([(u, v) for u, v in order if u != v], n)
            assert cp.loopful.pairs(n * n) == order


class TestMinDegrees:
    def test_empty(self):
        assert min_degrees(Digraph(3)) == (0, 0)

    def test_complete(self):
        assert min_degrees(Digraph.complete(4)) == (3, 3)

    def test_loop_counts_both_ways(self):
        d = Digraph(3, [(1, 1)], allow_loops=True)
        assert min_degrees(d) == (0, 0)
        assert [deg.tolist() for deg in d.degrees()] == [[0, 1, 0], [0, 1, 0]]


class TestEdgeListFormat:
    def roundtrip(self, d: Digraph, one_indexed=False) -> Digraph:
        buf = io.StringIO()
        write_edge_list(d, buf, one_indexed=one_indexed)
        buf.seek(0)
        return read_edge_list(buf, one_indexed=one_indexed)

    def test_roundtrip(self):
        d = gen_binomial(12, 0.3, True, 5)
        assert self.roundtrip(d) == d
        assert self.roundtrip(d, one_indexed=True) == d

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            read_edge_list(io.StringIO("vertices 3 loops 0\n"))

    def test_rejects_duplicate(self):
        with pytest.raises(FormatError):
            read_edge_list(io.StringIO("n 3 loops 0\n0 1\n0 1\n"))

    def test_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            read_edge_list(io.StringIO("n 3 loops 0\n0 3\n"))

    def test_rejects_loop_in_loopless(self):
        with pytest.raises(FormatError):
            read_edge_list(io.StringIO("n 3 loops 0\n1 1\n"))
