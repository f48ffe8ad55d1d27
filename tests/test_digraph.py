import copy
import hashlib
import io
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcount import digraph
from hamcount.digraph import (
    _DELTA_MAX,
    _DRAW_BLOCK,
    _FULL_SHUFFLE_MAX,
    CoupledProcess,
    Digraph,
    EdgeSequence,
    _fresh_in_order,
    couple,
    gen_binomial,
    gen_process,
    hitting_time,
    loop_mask,
    min_degrees,
    read_edge_list,
    sorted_union,
    write_edge_list,
)
from hamcount.errors import DomainError, FormatError
from hamcount.exact import count_hamilton_cycles, count_one_factors

from conftest import ReferenceDraws


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
        assert d.audit()
        assert d.out_neighbors(0) == (1,)
        assert d.in_neighbors(0) == (2,)

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


class TestEdgeForms:
    """Pairs and code arrays are two spellings of the same input."""

    @given(_edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_pairs_and_codes_agree(self, case):
        n, loops, edges = case
        a = Digraph(n, edges, allow_loops=loops)
        b = Digraph(n, _codes(n, edges), allow_loops=loops)
        assert a.edges() == b.edges() == sorted(edges)
        assert a.edge_set() == b.edge_set() == frozenset(edges)
        for v in range(n):
            assert a.out_neighbors(v) == b.out_neighbors(v) == tuple(sorted(w for u, w in edges if u == v))
            assert a.in_neighbors(v) == b.in_neighbors(v) == tuple(sorted(u for u, w in edges if w == v))
        for x, y in zip(a.degrees(), b.degrees()):
            assert np.array_equal(x, y)
        assert np.array_equal(a.degrees()[0], [a.out_degree(v) for v in range(n)])
        assert np.array_equal(a.degrees()[1], [a.in_degree(v) for v in range(n)])
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v in edges:
            adj[u, v] = 1
        assert np.array_equal(a.adjacency_matrix(), adj)
        assert np.array_equal(b.adjacency_matrix(), adj)
        assert a == b and hash(a) == hash(b)
        assert a.audit() and b.audit()
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
        assert d.with_edges(extra, allow_loops=True).allow_loops


def _rows_cut(d: Digraph) -> tuple[bool, bool]:
    """Whether the out- and in-rows are cut, read from their slots directly
    so that the check itself cuts nothing."""
    def cut(name: str) -> bool:
        try:
            Digraph.__dict__[name].__get__(d, Digraph)
        except AttributeError:
            return False
        return True
    return cut("_out"), cut("_in")


# first query -> (out-rows cut, in-rows cut) after it
_FIRST_QUERIES = {
    "has_edge": (lambda d: d.has_edge(0, d.n - 1), (True, False)),
    "out_neighbors": (lambda d: d.out_neighbors(d.n - 1), (True, False)),
    "out_degree": (lambda d: d.out_degree(0), (True, False)),
    "in_neighbors": (lambda d: d.in_neighbors(0), (False, True)),
    "in_degree": (lambda d: d.in_degree(d.n - 1), (False, True)),
    "audit": (lambda d: d.audit(), (True, True)),
}


class TestLazyRows:
    """The neighbour rows are cut on first query, to what an eager cut gives."""

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
            assert d.out_neighbors(v) == tuple(sorted(w for u, w in edges if u == v))
            assert d.in_neighbors(v) == tuple(sorted(u for u, w in edges if w == v))
        assert _rows_cut(d) == (True, True)
        assert d.audit()

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
            assert twin.out_neighbors(v) == d.out_neighbors(v)
            assert twin.in_neighbors(v) == d.in_neighbors(v)
        assert _rows_cut(d) == (True, True) and _rows_cut(clone(d)) == (False, False)

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

    def test_sparse_path_matches_distribution(self):
        # large-universe branch: n^2 > 2^22 forces the two-stage sampler
        d = gen_binomial(3000, 1e-5, False, 5)
        assert 20 <= d.edge_count <= 160  # Bin(9e6, 1e-5) far tails excluded


class TestEdgeProcess:
    def test_universe_size_and_permutation(self):
        seq = gen_process(3, "loopful", 7)
        order = seq.full_order()
        assert len(order) == 9
        assert len(set(order)) == 9
        for v in range(3):
            assert (v, v) in order

    def test_small_universe(self):
        seq = gen_process(2, "loopless", 3)
        assert sorted(seq.full_order()) == [(0, 1), (1, 0)]
        assert seq.prefix(2).edge_count == 2

    def test_determinism(self):
        assert gen_process(4, "loopless", 1).full_order() == gen_process(4, "loopless", 1).full_order()
        assert gen_process(4, "loopless", 1).full_order() != gen_process(4, "loopless", 2).full_order()

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
            EdgeSequence.from_order(2, False, [(0, 1), (0, 1)])
        seq = EdgeSequence.from_order(2, False, [(1, 0), (0, 1)])
        assert seq.pair(0) == (1, 0)


class TestFreshInOrder:
    @staticmethod
    def reference(block, seen):
        seen_set = set(seen)
        fresh = list(dict.fromkeys(c for c in block if c not in seen_set))
        return fresh, sorted(seen_set | set(fresh))

    @staticmethod
    def both_levels(block, seen):
        """(fresh, merged mirror) with the seen codes held in base, then in
        delta."""
        block, seen = np.array(block, dtype=np.int64), np.array(seen, dtype=np.int64)
        for base, delta in ((seen, seen[:0]), (seen[:0], seen)):
            fresh, base, delta = _fresh_in_order(block, base, delta)
            assert base.dtype == delta.dtype == np.int64
            yield fresh, np.sort(np.concatenate([base, delta]))

    @pytest.mark.parametrize("block, seen", [
        ([5, 3, 5, 9, 3, 1, 9, 9], []),            # in-block repeats, empty mirror
        ([4, 2, 4, 2], [2, 4, 7]),                 # fully seen block
        ([8, 1, 6, 1, 0, 12, 6, 3], [1, 3, 5, 12]),  # partial overlap
        ([20, 0, 20, 10], [5, 15]),                # new codes before, between and after
        ([], [1, 2]),
        ([2**62, 5, 2**62, 7, 5], [7, 2**61]),      # too wide to pack: stable argsort
    ])
    def test_cases(self, block, seen):
        for fresh, merged in self.both_levels(block, seen):
            want_fresh, want_merged = self.reference(block, seen)
            assert fresh.tolist() == want_fresh
            assert merged.tolist() == want_merged
            assert fresh.dtype == merged.dtype == np.int64

    @given(st.lists(st.integers(0, 40), max_size=60), st.sets(st.integers(0, 40)),
           st.sampled_from([0, 2**61]))
    @example(block=[], seen=set(), offset=0)                      # empty block, empty mirror
    @example(block=[7, 3, 7, 40, 3], seen={3, 7, 40}, offset=0)   # every code already seen
    @example(block=[9] * 12, seen=set(), offset=0)                # one repeated code
    @example(block=[9] * 12, seen={9}, offset=2**61)              # ... already seen, wide
    @example(block=[40, 0, 40, 5], seen={5, 6}, offset=2**61)     # too wide to pack: argsort
    @settings(max_examples=200, deadline=None)
    def test_matches_set_reference(self, block, seen, offset):
        block = [offset + c for c in block]
        seen = sorted(offset + c for c in seen)
        for fresh, merged in self.both_levels(block, seen):
            want_fresh, want_merged = self.reference(block, seen)
            assert fresh.tolist() == want_fresh
            assert merged.tolist() == want_merged


def _strictly_increasing(a: np.ndarray) -> bool:
    return bool((a[1:] > a[:-1]).all())


class TestTwoLevelMirror:
    """EdgeSequence's base/delta mirror against the single sorted mirror."""

    @given(st.lists(st.lists(st.integers(0, 300), max_size=80), min_size=1, max_size=12),
           st.sampled_from([0, 2**61]), st.integers(8, 64))
    @example(blocks=[list(range(0, 50)), list(range(40, 100)) * 2, [7, 99, 300, 7], []],
             offset=0, delta_max=8)                          # folds, repeats in delta and in base
    @example(blocks=[[5] * 9, list(range(30)), [29, 0, 31]], offset=2**61, delta_max=8)  # wide
    @settings(max_examples=150, deadline=None)
    def test_matches_single_mirror(self, blocks, offset, delta_max):
        blocks = [np.array(b, dtype=np.int64) + offset for b in blocks]
        supply = iter(blocks)
        seq = EdgeSequence(1 << 31, True, _rng=np.random.default_rng(0))
        oracle = ReferenceDraws()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digraph, "_DELTA_MAX", delta_max)
            mp.setattr(digraph, "_random_block", lambda rng, n, loopful: next(supply))
            for block in blocks:
                before = seq.materialized
                seq._draw_block()
                assert seq._codes[before:].tolist() == oracle.draw(block).tolist()
                assert seq.materialized == oracle.codes.size
                base, delta = seq._base, seq._delta
                assert delta.size <= delta_max
                assert _strictly_increasing(base) and _strictly_increasing(delta)
                assert np.intersect1d(base, delta).size == 0
                assert sorted_union(base, delta).tolist() == np.sort(oracle.codes).tolist()


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

    def test_loopful_prefix_across_folds(self):
        # recorded with the single sorted mirror; 2*10^6 codes at n = 2049
        # fold delta into base several times
        assert 2049 ** 2 > _FULL_SHUFFLE_MAX and 2_000_000 > 4 * _DELTA_MAX
        seq = gen_process(2049, "loopful", 3)
        assert (_sha256_codes(seq.codes(2_000_000))
                == "714ea0cc0e772a54a758452e43a9d563e16a7bb175d5b1d3425fbc911c464a8c")
        assert seq._base.size > 3 * _DELTA_MAX

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
        assert np.unique(codes).size == codes.size
        assert not loop_mask(codes, n).any()


class TestCoupling:
    def test_loop_deletion_preserves_order(self):
        lf = EdgeSequence.from_order(2, True, [(0, 0), (0, 1), (1, 0), (1, 1)])
        cp = couple(lf)
        assert cp.loopless.pairs(2) == [(0, 1), (1, 0)]

    def test_requires_loopful(self):
        with pytest.raises(DomainError):
            couple(gen_process(3, "loopless", 1))

    def test_audit_raises_when_the_invariant_fails(self):
        # a loopless order that is not the loop-deleted loopful one: at m = 1
        # the loopful prefix has (0, 1) and the loopless one only (1, 0)
        lf = EdgeSequence.from_order(2, True, [(0, 1), (0, 0), (1, 0), (1, 1)])
        cp = CoupledProcess(lf, EdgeSequence.from_order(2, False, [(1, 0), (0, 1)]))
        with pytest.raises(AssertionError, match="m=1"):
            cp.audit(1)
        assert cp.audit(2)

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_invariant_exhaustive(self, seed):
        cp = couple(gen_process(5, "loopful", seed))
        assert cp.audit_all()

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
        lf = EdgeSequence.from_order(2, True, [(0, 0), (1, 1), (0, 1), (1, 0)])
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
        seq = EdgeSequence.from_order(3, True, order)
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

    # (loopful, loopless) codes materialised once both hitting times are
    # known, recorded when every scan window was a full block; smaller
    # windows must draw exactly the same blocks
    MATERIALIZED = {0: (130985, 130970), 1: (130996, 130985), 2: (130975, 130966),
                    3: (130999, 130990), 4: (131006, 130994)}

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
            assert cp.loopful.materialized <= 2 * _DRAW_BLOCK
            assert (cp.loopful.materialized, cp.loopless.materialized) == self.MATERIALIZED[seed]
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
        assert hitting_time(seq) == self.oracle(seq.full_order(), n)

    def test_independent_of_materialisation(self):
        for seed, (want_less, want_ful) in list(self.PINNED.items())[:2]:
            cp = couple(gen_process(10_000, "loopful", seed))
            cp.loopful.codes(300_000)
            cp.loopless.codes(300_000)
            assert (hitting_time(cp.loopless), hitting_time(cp.loopful)) == (want_less, want_ful)

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


class TestMinDegrees:
    def test_empty(self):
        assert min_degrees(Digraph(3)) == (0, 0)

    def test_complete(self):
        assert min_degrees(Digraph.complete(4)) == (3, 3)

    def test_loop_counts_both_ways(self):
        d = Digraph(3, [(1, 1)], allow_loops=True)
        assert min_degrees(d) == (0, 0)
        assert d.out_degree(1) == 1
        assert d.in_degree(1) == 1


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
