import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcount import frieze
from hamcount.digraph import Digraph, couple, gen_binomial, gen_process, hitting_time
from hamcount.errors import DomainError, MergeFailureError, PreconditionError
from hamcount.exact import OneFactor
from hamcount.rng import make_generator
from hamcount.frieze import (
    VirtualEdgeSet,
    _early_edges,
    _merge_into,
    _relabeled_out_rows,
    build_star_digraph,
    close_path,
    compress,
    compute_constants,
    compute_large,
    eliminate_forbidden,
    find_one_factor,
    is_good_factor,
    merge_loops,
    patch_cycles,
    rotate,
)

from conftest import (brute_force_factor_count, eager_close_path, random_digraph,
                      reference_merge_into)


class TestConstants:
    def test_reference_values_n100(self):
        c = compute_constants(100)
        assert (c.m0, c.m1, c.m3) == (418, 502, 308)
        assert c.large_threshold == 10

    def test_reference_values_n10000(self):
        c = compute_constants(10_000)
        assert (c.m0, c.m1) == (84126, 100079)

    def test_milestone_ordering(self):
        for n in (16, 17, 50, 100, 1000, 10_000):
            c = compute_constants(n)
            assert c.m3 < c.m0 <= c.m1
            if n >= 17:
                assert c.m0 < c.m1

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            compute_constants(15)

    def test_caps(self):
        c = compute_constants(1000)
        assert math.isclose(c.good_loop_cap, math.log(math.log(1000)))
        assert math.isclose(c.good_cycle_cap, 2 * math.log(1000))


class TestComputeLarge:
    def test_complete_all_large(self):
        d = Digraph.complete(5, allow_loops=True)
        assert compute_large(d, 5) == frozenset(range(5))

    def test_empty_graph(self):
        assert compute_large(Digraph(4), 1) == frozenset()

    def test_and_semantics(self):
        # vertex 3: out-degree 2, in-degree 5 -> excluded at threshold 3
        edges = [(3, 0), (3, 1)] + [(i, 3) for i in [0, 1, 2, 4, 5]]
        d = Digraph(6, edges)
        assert 3 not in compute_large(d, 3)
        assert compute_large(d, 3) == frozenset()


def star_parts(n: int, seed: int, thr=None):
    """(process, base, large, star) for the two-thirds prefix at size n;
    ``thr`` defaults to the formula threshold."""
    c = compute_constants(n)
    cp = couple(gen_process(n, "loopful", seed))
    base = cp.loopful.prefix(c.m3)
    large = compute_large(base, c.large_threshold if thr is None else thr)
    return cp, base, large, build_star_digraph(cp, base, large)


class TestStarDigraph:
    def test_every_vertex_large_means_no_extra(self):
        _, base, large, star = star_parts(20, 3, thr=0)
        assert large == frozenset(range(20))
        assert star == base

    def test_extra_touches_non_large(self):
        # threshold 2, the pipeline's fallback: at n = 200 the formula
        # threshold leaves no vertex large
        for seed in range(5):
            cp, base, large, star = star_parts(200, seed, thr=2)
            assert 0 < len(large) < 200
            extra = np.setdiff1d(star.codes, base.codes, assume_unique=True)
            assert extra.size
            assert np.isin(extra, cp.loopful.codes(hitting_time(cp.loopful))).all()
            for code in extra.tolist():
                assert not large.issuperset(divmod(code, 200))

    def test_star_contains_base(self):
        _, base, _, star = star_parts(50, 1)
        assert base.edge_set() <= star.edge_set()


def early_edges_oracle(pairs: list, width: int) -> set:
    """Each vertex's first ``width`` out-edges in order, then, among the
    remaining edges, each vertex's first ``width`` in-edges."""
    out_taken, in_taken = Counter(), Counter()
    taken = set()
    for u, v in pairs:
        if out_taken[u] < width:
            out_taken[u] += 1
            taken.add((u, v))
    for u, v in pairs:  # the pairs are distinct, so each is seen once here
        if (u, v) not in taken and in_taken[v] < width:
            in_taken[v] += 1
            taken.add((u, v))
    return taken


class TestEarlySubgraph:
    # widths below the default make the quotas bind at these small n
    @given(st.integers(16, 80), st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_quotas(self, n, seed, width):
        c = replace(compute_constants(n), early_edges_per_vertex=width)
        cp, _, _, star = star_parts(n, seed)
        m_star_l = hitting_time(cp.loopful)
        got = _early_edges(cp, c, m_star_l)
        want = early_edges_oracle(cp.loopful.pairs(m_star_l), width)
        assert got.tolist() == sorted(u * n + v for u, v in want)
        assert np.isin(got, star.codes).all()

    def test_in_pass_skips_out_edges(self):
        # an edge collected for its source is never re-counted for its target
        c = compute_constants(60)
        cp = couple(gen_process(60, "loopful", 2))
        m_star_l = hitting_time(cp.loopful)
        e1 = Digraph(60, _early_edges(cp, c, m_star_l), allow_loops=True)
        full = cp.loopful.prefix(m_star_l)
        for v in range(60):
            assert e1.in_degree(v) <= 10 + min(10, full.out_degree(v))


class TestFindOneFactor:
    def test_complete_has_factor(self):
        d = Digraph.complete(6, allow_loops=True)
        f = find_one_factor(d, seed=1)
        assert f is not None and all(d.has_edge(v, w) for v, w in enumerate(f.image))

    def test_zero_out_degree_vertex(self):
        assert find_one_factor(Digraph(3, [(0, 1), (1, 0)])) is None

    def test_agrees_with_brute_force(self, rng):
        for _ in range(50):
            d = random_digraph(rng, 8, 0.25, allow_loops=True)
            f = find_one_factor(d, seed=0)
            exists = brute_force_factor_count(d) > 0
            assert (f is not None) == exists
            if f is not None:
                assert all(d.has_edge(v, w) for v, w in enumerate(f.image))

    def test_deterministic_per_seed(self):
        d = Digraph.complete(9, allow_loops=True)
        assert find_one_factor(d, seed=5) == find_one_factor(d, seed=5)


class TestRelabeledOutRows:
    """The rows ``find_hamilton`` hands to Hopcroft-Karp for a relabeling."""

    @given(st.integers(1, 12), st.booleans(), st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_oracle(self, n, loops, data, identity):
        pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        d = Digraph(n, edges, allow_loops=loops)
        sigma = (np.arange(n) if identity
                 else np.array(data.draw(st.permutations(range(n))), dtype=np.int64))
        want = [sorted(int(sigma[w]) for w in d.out_neighbors(u)) for u in range(n)]
        got = _relabeled_out_rows(Digraph(n, d.codes, allow_loops=loops), sigma)
        assert [list(row) for row in got] == want
        assert all(type(w) is int for row in got for w in row)


class TestGoodFactor:
    def test_hamilton_cycle_is_good(self):
        c = compute_constants(100)
        f = OneFactor([(i + 1) % 100 for i in range(100)])
        assert is_good_factor(f, c)

    def test_identity_is_bad(self):
        c = compute_constants(100)
        assert not is_good_factor(OneFactor(range(100)), c)

    def test_boundary_values_n1000(self):
        c = compute_constants(1000)
        f = OneFactor.from_cycles(
            1000, [(0,)] + [tuple(range(1 + 83 * k, 1 + 83 * (k + 1))) for k in range(12)] + [tuple(range(997, 1000))]
        )
        # 1 loop and 14 cycles in total: 1 < loglog(1000)=1.93, 14 < 2log(1000)=13.8 is false
        assert f.num_loops == 1 and f.num_cycles == 14
        assert not is_good_factor(f, c)
        g = OneFactor.from_cycles(
            1000, [(0,)] + [tuple(range(1 + 83 * k, 1 + 83 * (k + 1))) for k in range(11)] + [tuple(range(914, 1000))]
        )
        assert g.num_loops == 1 and g.num_cycles == 13
        assert is_good_factor(g, c)


class TestRotate:
    def test_direct_rule(self):
        d = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (4, 2)])
        assert rotate([0, 1, 2, 3, 4], 1, 3, d) == [0, 1, 3, 4, 2]

    def test_degenerate_segment(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 2)])
        assert rotate([0, 1, 2, 3], 1, 3, d) == [0, 1, 3, 2]

    def test_missing_edge_rejected(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(PreconditionError):
            rotate([0, 1, 2, 3], 1, 3, d)  # (3,2) absent

    def test_index_bounds(self):
        p = [0, 1, 2, 3]
        d = Digraph.complete(4)
        with pytest.raises(PreconditionError):
            rotate(p, 0, 2, d)
        with pytest.raises(PreconditionError):
            rotate(p, 2, 2, d)
        with pytest.raises(PreconditionError):
            rotate(p, 1, 4, d)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_vertex_set_and_anchor_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        verts = rng.permutation(n).tolist()
        d = Digraph.complete(n)
        ell = n - 1
        # i <= ell-2 so the required end edge (v_l, v_{i+1}) is never a loop
        i = int(rng.integers(1, ell - 1))
        j = int(rng.integers(i + 1, ell + 1))
        q = rotate(verts, i, j, d)
        assert set(q) == set(verts)
        assert q[0] == verts[0]
        # at most two edges replaced
        old = {(verts[t], verts[t + 1]) for t in range(ell)}
        new = {(q[t], q[t + 1]) for t in range(ell)}
        assert len(old - new) <= 2


def _patch_oracle(c1, c2, d):
    """Brute force: every pair of cycle edges, in index order."""
    len1, len2 = len(c1), len(c2)
    for a in range(len1):
        v1, w1 = c1[a], c1[(a + 1) % len1]
        for b in range(len2):
            v2, w2 = c2[b], c2[(b + 1) % len2]
            if d.has_edge(v1, w2) and d.has_edge(v2, w1):
                return c1[: a + 1] + c2[b + 1:] + c2[: b + 1] + c1[a + 1:]
    return None


class _ProbeCountingDigraph(Digraph):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probes = 0

    def has_edge(self, u, v):
        self.probes += 1
        return super().has_edge(u, v)


class TestPatch:
    def test_two_cycles_in_complete(self):
        merged = patch_cycles([0, 1], [2, 3], Digraph.complete(4))
        assert merged is not None
        assert sorted(merged) == [0, 1, 2, 3]

    def test_no_cross_edges(self):
        d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert patch_cycles([0, 1], [2, 3], d) is None

    def test_rejects_overlap(self):
        with pytest.raises(PreconditionError):
            patch_cycles([0, 1], [1, 2], Digraph.complete(3))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(PreconditionError):
            patch_cycles([0, 1], [2, 3, 2], Digraph.complete(4))

    def test_matches_oracle(self):
        rng = np.random.default_rng(20261018)
        found = 0
        trials = 2500
        for _ in range(trials):
            n = int(rng.integers(4, 15))
            p = float(rng.choice([0.0, 1.0, rng.random()], p=[0.05, 0.05, 0.9]))
            d = random_digraph(rng, n, p, allow_loops=bool(rng.integers(2)))
            verts = rng.permutation(n).tolist()
            k1 = int(rng.integers(1, n))
            k2 = int(rng.integers(1, n - k1 + 1))
            c1, c2 = verts[:k1], verts[k1:k1 + k2]
            want = _patch_oracle(c1, c2, d)
            assert patch_cycles(c1, c2, d) == want
            found += want is not None
        assert 0.2 * trials < found < 0.9 * trials  # both outcomes well covered

    def test_probes_bounded_by_out_degree(self):
        rng = np.random.default_rng(7)
        n = 400
        d = _ProbeCountingDigraph(n, random_digraph(rng, n, 3.0 / n, allow_loops=False).edges())
        verts = rng.permutation(n).tolist()
        c1, c2 = verts[: n // 2], verts[n // 2:]
        got = patch_cycles(c1, c2, d)
        assert got == _patch_oracle(c1, c2, Digraph(n, d.edges()))
        assert d.probes <= sum(d.out_degree(v) for v in c1)
        assert d.probes < len(c1) * len(c2) // 50

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_merged_length_and_edges(self, seed):
        rng = np.random.default_rng(seed)
        k1, k2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        verts = rng.permutation(k1 + k2)
        c1, c2 = verts[:k1].tolist(), verts[k1:].tolist()
        # plant a patching pair
        a, b = int(rng.integers(k1)), int(rng.integers(k2))
        v1, w1 = c1[a], c1[(a + 1) % k1]
        v2, w2 = c2[b], c2[(b + 1) % k2]
        cycle_edges = [(c1[t], c1[(t + 1) % k1]) for t in range(k1)]
        cycle_edges += [(c2[t], c2[(t + 1) % k2]) for t in range(k2)]
        d = Digraph(k1 + k2, set(cycle_edges) | {(v1, w2), (v2, w1)})
        merged = patch_cycles(c1, c2, d)
        assert merged is not None
        assert len(merged) == k1 + k2
        assert sorted(merged) == sorted(verts.tolist())
        edges = {(merged[t], merged[(t + 1) % len(merged)]) for t in range(len(merged))}
        assert all(d.has_edge(*e) for e in edges)


@pytest.mark.parametrize("path", [[], [0, 1, 0], [0, 1, 4], [-1, 0, 1]],
                         ids=["empty", "repeated", "too-large", "negative"])
def test_bad_paths_rejected(path):
    d = Digraph.complete(4)
    with pytest.raises(DomainError):
        rotate(path, 1, 2, d)
    with pytest.raises(DomainError):
        close_path(path, d, frozenset(), make_generator(0))


class TestClosePath:
    def test_immediate(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert close_path([0, 1, 2], d, frozenset(), make_generator(0)) == ([0, 1, 2], 0)

    def test_impossible_on_bare_path(self):
        d = Digraph(3, [(0, 1), (1, 2)])
        assert close_path([0, 1, 2], d, frozenset(), make_generator(0)) is None

    def test_one_rotation_needed(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 2), (2, 0)])
        assert close_path([0, 1, 2, 3], d, frozenset(), make_generator(0)) == ([0, 1, 3, 2], 1)

    def test_respects_forbidden_closing_edge(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        forbidden = VirtualEdgeSet([(2, 0)]).edge_set()
        assert close_path([0, 1, 2], d, forbidden, make_generator(0)) is None

    def test_cycle_uses_path_vertices_only(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 12
            verts = rng.permutation(n).tolist()
            d = random_digraph(rng, n, 0.4, allow_loops=False)
            got = close_path(verts, d, frozenset(), make_generator(seed))
            if got is not None:
                assert sorted(got[0]) == sorted(verts)


@st.composite
def _rotation_cases(draw):
    """(digraph, path, forbidden, seed): a sparse digraph on 20-300 vertices
    with mean out-degree c ln n, a path on a random subset of at least three
    vertices, and either no forbidden pairs or about a tenth of the edges."""
    n = draw(st.integers(20, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    c = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    d = gen_binomial(n, c * math.log(n) / n, False, seed)
    rng = np.random.default_rng(seed)
    path = rng.permutation(n)[: draw(st.integers(3, n))].tolist()
    forbidden = frozenset()
    if draw(st.booleans()):
        u, v = np.divmod(d.codes[rng.random(d.edge_count) < 0.1], n)
        forbidden = frozenset(zip(u.tolist(), v.tolist()))
    return d, path, forbidden, seed


class TestLazyRotations:
    """close_path builds a rotated path only when it expands or returns it."""

    @given(_rotation_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_eager_search(self, case):
        d, path, forbidden, seed = case
        lazy_rng, eager_rng = make_generator(seed), make_generator(seed)
        assert close_path(path, d, forbidden, lazy_rng) == eager_close_path(path, d, forbidden, eager_rng)
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state

    def test_one_array_per_expanded_path(self, monkeypatch):
        calls = Counter()
        real = frieze._rotated

        def spy(verts, i, j):
            calls["rotated"] += 1
            return real(verts, i, j)

        monkeypatch.setattr(frieze, "_rotated", spy)
        eager_surplus = 0
        for n in (60, 150, 300):
            for seed in range(6):
                d = gen_binomial(n, 1.5 * math.log(n) / n, False, seed)
                path = np.random.default_rng(seed).permutation(n).tolist()
                counts = Counter()
                want = eager_close_path(path, d, frozenset(), make_generator(seed), counts)
                calls.clear()
                assert close_path(path, d, frozenset(), make_generator(seed)) == want
                assert calls["rotated"] <= counts["expanded"] + 1
                eager_surplus = max(eager_surplus, counts["built"] - counts["expanded"] - 1)
        # the eager search builds more arrays than this bound allows, so a
        # close_path that built its children when queuing them would fail here
        assert eager_surplus > 0


@st.composite
def _merge_cases(draw):
    """(main, cyc, digraph, forbidden, seed): two disjoint vertex sequences of
    a random order of 20-300 vertices, which may leave vertices on neither."""
    n = draw(st.integers(20, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    d = gen_binomial(n, draw(st.sampled_from([1.0, 2.0, 4.0])) * math.log(n) / n, False, seed)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    a = draw(st.integers(2, n - 2))
    b = draw(st.integers(a + 1, n))
    forbidden = frozenset()
    if draw(st.booleans()):
        u, v = np.divmod(d.codes[rng.random(d.edge_count) < 0.2], n)
        forbidden = frozenset(zip(u.tolist(), v.tolist()))
    return order[:a], order[a:b], d, forbidden, seed


class TestMergeInto:
    @given(_merge_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_dict_candidates(self, case):
        main, cyc, d, forbidden, seed = case
        assert _merge_into(main, cyc, d, forbidden, seed) == reference_merge_into(
            main, cyc, d, forbidden, seed)


class TestVirtualEdgeSet:
    def test_rejects_shared_vertex(self):
        with pytest.raises(DomainError):
            VirtualEdgeSet([(0, 1), (1, 2)])

    def test_rejects_loop(self):
        with pytest.raises(DomainError):
            VirtualEdgeSet([(1, 1)])

    def test_contains(self):
        s = VirtualEdgeSet([(0, 1), (2, 3)])
        assert (0, 1) in s and (1, 0) not in s and len(s) == 2


class TestMergeLoops:
    def test_no_loops_noop(self):
        f = OneFactor([1, 0, 3, 4, 2])
        out, virt = merge_loops(f, Digraph(5, [(0, 2)]), frozenset(range(5)), 0)
        assert out == f and len(virt) == 0

    def test_direct_rule_with_virtual_edge(self):
        # loop at 3; in-neighbour 0 lies on cycle (0 1 2); (3,1) absent
        f = OneFactor([1, 2, 0, 3])
        out, virt = merge_loops(f, Digraph(4, [(0, 3)]), frozenset(range(4)), 1)
        assert out.image == (3, 2, 0, 1)
        assert list(virt) == [(3, 1)]

    def test_virtual_edge_skipped_when_real(self):
        f = OneFactor([1, 2, 0, 3])
        out, virt = merge_loops(f, Digraph(4, [(0, 3), (3, 1)]), frozenset(range(4)), 1)
        assert out.image == (3, 2, 0, 1)
        assert len(virt) == 0

    def test_two_loops_disjoint_virtual_edges(self):
        f = OneFactor([1, 2, 3, 4, 5, 0, 6, 7])
        d = Digraph(8, [(0, 6), (3, 7)])
        out, virt = merge_loops(f, d, frozenset(range(8)), seed=5)
        assert out.num_loops == 0
        assert set(virt) == {(6, 1), (7, 4)}

    def test_loop_outside_large_rejected(self):
        with pytest.raises(PreconditionError) as ei:
            merge_loops(OneFactor([1, 2, 0, 3]), Digraph(4, [(0, 3)]), frozenset({0, 1, 2}), 0)
        assert ei.value.witnesses == [3]

    def test_merge_failure_reported(self):
        with pytest.raises(MergeFailureError):
            merge_loops(OneFactor([1, 2, 0, 3]), Digraph(4, [(1, 0)]), frozenset(range(4)), 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_randomised_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 24))
        n_loops = int(rng.integers(1, 3))
        loops = rng.permutation(n)[:n_loops].tolist()
        rest = [v for v in range(n) if v not in loops]
        f = OneFactor.from_cycles(n, [(v,) for v in loops] + [tuple(rest)])
        # sparse host: only some in-edges at the loop vertices, so some merges
        # need virtual edges and some do not
        host_edges = {(u, v) for u in rest for v in loops if rng.random() < 0.6}
        host_edges |= {(loops[0], rest[0])}
        d = Digraph(n, host_edges)
        try:
            out, virt = merge_loops(f, d, frozenset(range(n)), seed)
        except MergeFailureError:
            return  # admissible when the host lacks usable in-edges
        assert out.num_loops == 0
        # virtual edges vertex-disjoint is enforced by VirtualEdgeSet; check
        # that each virtual edge leaves a former loop vertex
        for u, v in virt:
            assert u in loops
        # untouched vertices keep their successor
        changed = {v for v in range(n) if out.image[v] != f.image[v]}
        assert set(loops) <= changed
        assert len(changed) <= 3 * n_loops


class TestCompress:
    def test_identity_when_all_kept(self):
        d = Digraph.complete(5)
        m = OneFactor([1, 2, 3, 4, 0])
        res = compress(d, m, frozenset(range(5)))
        assert res.digraph == d and res.factor == m
        assert tuple(res) == (res.digraph, res.factor, res.mapping)
        assert res.mapping.decompress_cycle([0, 1, 2, 3, 4]) == [0, 1, 2, 3, 4]

    def test_single_contraction(self):
        n = 12
        m = OneFactor([(i + 1) % n for i in range(n)])
        d = Digraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 5), (5, 1), (7, 2)])
        res = compress(d, m, frozenset(set(range(n)) - {6}))
        assert res.digraph.n == n - 2
        assert res.factor.num_cycles == 1
        orig = res.mapping.decompress_cycle(list(res.factor.cycles()[0]))
        assert sorted(orig) == list(range(n))
        # expansion re-inserts 5 -> 6 -> 7 consecutively
        i = orig.index(5)
        assert orig[(i + 1) % n] == 6 and orig[(i + 2) % n] == 7

    def test_four_cycle_becomes_two_cycle(self):
        m = OneFactor([1, 2, 3, 0, 5, 4])
        d = Digraph(6, m.edges())
        res = compress(d, m, frozenset({0, 1, 3, 4, 5}))
        assert res.digraph.n == 4
        assert res.factor.num_cycles == 2
        assert sorted(len(c) for c in res.factor.cycles()) == [2, 2]

    def test_close_non_members_rejected(self):
        m = OneFactor([1, 2, 3, 0, 5, 4])
        d = Digraph(6, m.edges())
        with pytest.raises(PreconditionError) as ei:
            compress(d, m, frozenset({0, 3, 4, 5}))
        assert set(ei.value.witnesses) == {1, 2}

    def test_short_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            compress(Digraph(3, [(0, 1), (1, 2), (2, 0)]), OneFactor([1, 2, 0]), frozenset({0, 1}))

    def test_edge_mapping_roles(self):
        n = 12
        m = OneFactor([(i + 1) % n for i in range(n)])
        d = Digraph(n, [(i, (i + 1) % n) for i in range(n)] + [(3, 9), (9, 3)])
        res = compress(d, m, frozenset(set(range(n)) - {6}))
        mapping = res.mapping
        # in-edges of 5 (= v-) transfer; out-edges of 5 die
        assert mapping.map_edge(4, 5) is not None
        assert mapping.map_edge(5, 6) is None
        assert mapping.map_edge(6, 7) is None
        assert mapping.map_edge(7, 8) is not None  # out-neighbours of v+ kept


class TestEliminateForbidden:
    def test_noop_without_virtual(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert eliminate_forbidden([0, 1, 2, 3], frozenset(), d, 0) == ([0, 1, 2, 3], 0, 0)

    def test_single_virtual_edge_eliminated(self):
        d = Digraph(4, [(0, 1), (2, 3), (3, 0), (1, 0), (3, 1), (0, 2), (2, 0)])
        got = eliminate_forbidden([0, 1, 2, 3], VirtualEdgeSet([(1, 2)]).edge_set(), d, 3)
        assert got is not None
        got, rounds, _rotations = got
        assert rounds == 1
        k = len(got)
        edges = {(got[i], got[(i + 1) % k]) for i in range(k)}
        assert (1, 2) not in edges
        assert all(d.has_edge(*e) for e in edges)
        assert sorted(got) == [0, 1, 2, 3]

    def test_returns_none_when_stuck(self):
        d = Digraph(4, [(0, 1), (2, 3), (3, 0)])
        assert eliminate_forbidden([0, 1, 2, 3], VirtualEdgeSet([(1, 2)]).edge_set(), d, 0) is None
