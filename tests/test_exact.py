import math
import tracemalloc
from collections import Counter
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcount import exact
from hamcount.digraph import Digraph, couple, gen_process, hitting_time
from hamcount.errors import DomainError, ResourceCapError
from hamcount.exact import (
    OneFactor,
    count_hamilton_cycles,
    count_one_factors,
    derangements,
    enumerate_one_factors,
    permanent,
    rencontres,
)
from hamcount.rng import derive_seed

from conftest import (
    brute_force_factor_count,
    brute_force_hamilton_count,
    random_digraph,
    reference_hamilton_residue,
    reference_permanent_residue,
)

SMALL_PRIMES = (31, 37, 41, 43)


def hamilton_residue(adj: np.ndarray, p: int) -> int:
    """HC of ``adj`` mod p by the kernel that ``count_hamilton_cycles`` takes
    at its order: the table count for n <= 11, else ``_hamilton_residue``."""
    n = adj.shape[0]
    if n < exact._CONTRACT_MIN_N:
        return exact._hamilton_table_count(adj, exact._subsets_by_size(n - 1)) % p
    return exact._hamilton_residue(adj, p)


def live_counts(adj: np.ndarray) -> list[int]:
    """For each layer r = 1..k of the DP (k = n - 1), the number of its live
    subsets, those that some path from 0 covers, from exact path counts."""
    k = adj.shape[0] - 1
    size = exact._subset_sums(np.ones((1, k), dtype=np.int8))[0]
    masks = np.argsort(size, kind="stable")
    ends = np.cumsum(np.bincount(size))
    bits = np.left_shift(1, np.arange(k, dtype=np.int32))[:, None]
    entries = adj[0, 1:].astype(np.int64)
    out = []
    for r in range(1, k + 1):
        inside = (masks[ends[r - 1]:ends[r]] & bits) != 0
        layer = np.zeros(inside.shape, dtype=np.int64)
        layer[inside] = entries
        out.append(int(layer.any(axis=0).sum()))
        entries = (adj[1:, 1:].T @ layer)[~inside]
    return out


def watched_residue(adj: np.ndarray, p: int) -> tuple[int, Optional[int], list[int]]:
    """HC of ``adj`` mod p, the first live layer of the DP (None for the
    table step), and the number of columns of each live layer it builds
    after that one.  The steps are read from the kernel's calls to np.zeros
    and, through the (k + 1) x k buffer that np.zeros hands out as an
    ndarray whose ``dot`` records its operands' shapes, from the products
    of the step operator.  For n <= 11 it must be ``_hamilton_table_count``:
    its only zeroed buffers are the (k + 1) x k step operator and the k x k
    layer 1, so it builds no 2^k table and no live layer, and it takes one
    product of that operator with the k x C(k, r) layer r for each
    r = 1..k-1.  Otherwise it is ``_hamilton_residue``, with one zeroed
    buffer for layer 1, a column for each out-neighbour of 0, then the 2^k
    table over the subsets, then one per later live layer."""
    k = adj.shape[0] - 1
    zeroed, products = np.zeros, []

    class Operator(np.ndarray):
        def dot(self, other):
            products.append((self.shape, other.shape))
            return self.view(np.ndarray).dot(other)

    def zeros(shape, *args, **kwargs):
        buffer = zeroed(shape, *args, **kwargs)
        return buffer.view(Operator) if shape == (k + 1, k) else buffer

    with mock.patch.object(np, "zeros", side_effect=zeros) as zeros_calls:
        if k + 1 < exact._CONTRACT_MIN_N:
            residue = exact._hamilton_table_count(adj, exact._subsets_by_size(k)) % p
        else:
            residue = exact._hamilton_residue(adj, p)
    shapes = [call.args[0] for call in zeros_calls.call_args_list]
    if k + 1 < exact._CONTRACT_MIN_N:
        assert shapes == [(k + 1, k), (k, k)]
        assert products == [((k + 1, k), (k, math.comb(k, r))) for r in range(1, k)]
        return residue, None, []
    first = shapes.index(1 << k)
    assert shapes[:first] == [(k, np.count_nonzero(adj[0, 1:]))]
    assert all(rows == k for rows, _ in shapes[first + 1:])
    return residue, first, [cols for _, cols in shapes[first + 1:]]


def random_matrix(n: int, density: float, loops: bool, seed: int) -> np.ndarray:
    """A random n x n 0/1 adjacency matrix, with a zero diagonal unless ``loops``."""
    a = (np.random.default_rng(seed).random((n, n)) < density).astype(np.int64)
    if not loops:
        np.fill_diagonal(a, 0)
    return a


def blow_up_matrix(n: int, size: int, extra: int, seed: int) -> np.ndarray:
    """The adjacency matrix of a cycle of n / ``size`` groups of ``size``
    vertices, each joined to every vertex of the next group, with ``extra``
    random edges off the diagonal and the vertices relabelled at random.
    Every degree is at least ``size``, so ``size`` >= 2 leaves nothing for
    contraction, and the group orders of its passes give (size!)^(n/size)
    / size Hamilton cycles before the extra edges: 32 at n = 12 and
    ``size`` 2, 432 at n = 12 and ``size`` 3."""
    rng = np.random.default_rng(seed)
    group = np.arange(n) % (n // size)
    a = (group[None, :] == (group[:, None] + 1) % (n // size)).astype(np.int64)
    a[tuple(rng.integers(0, n, (2, extra)))] = 1
    np.fill_diagonal(a, 0)
    order = rng.permutation(n)
    return a[order][:, order]


def spy_kernels(monkeypatch, *names: str) -> list[tuple[str, int]]:
    """Wrap the residue kernels of ``exact`` with these names; the returned
    list records (name, p) for each call, in call order."""
    calls = []
    for name in names:
        kernel = getattr(exact, name)
        monkeypatch.setattr(exact, name, lambda a, p, name=name, kernel=kernel:
                            calls.append((name, p)) or kernel(a, p))
    return calls


def takes_programme(n: int, work: int) -> bool:
    """Whether ``_permanent_residue`` sends an n x n minor whose bound W,
    from ``_row_order``, is ``work`` to the row programme."""
    return exact._CANDIDATE_COST * work < n << (n - 1)


def laplace_minor(a: np.ndarray) -> np.ndarray:
    """The minor of ``a`` that ``permanent`` hands its kernels."""
    return exact._laplace_minor(a)[0]


def reference_permanent(a: np.ndarray) -> int:
    """per(a) for n <= 24, rebuilt from the reference residues modulo the
    first two moduli, whose product passes 24!."""
    p, q = exact._PRIMES[:2]
    rp, rq = reference_permanent_residue(a, p), reference_permanent_residue(a, q)
    return rp + p * ((rq - rp) * pow(p, -1, q) % q)


def row_dp_sizes(a: np.ndarray) -> list[tuple[int, int]]:
    """For each row of the permanent's row programme on the rows of ``a`` in
    their order, up to the first that leaves no live set, the number of its
    candidate sets and of the live sets after it, from the sets themselves."""
    n = a.shape[0]
    last = [max((i for i in range(n) if a[i, c]), default=n - 1) for c in range(n)]
    live, out = {0}, []
    for i in range(n):
        cols = np.flatnonzero(a[i]).tolist()
        closed = sum(1 << c for c in range(n) if last[c] <= i)
        candidates = len(live) * len(cols)
        live = {s | 1 << c for s in live for c in cols
                if not s >> c & 1 and (s | 1 << c) & closed == closed}
        out.append((candidates, len(live)))
        if not live:
            break
    return out


class TestOneFactor:
    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            OneFactor([0, 0, 2])

    def test_cycles_partition(self):
        f = OneFactor([1, 0, 2, 4, 5, 3])
        assert f.cycles() == ((0, 1), (2,), (3, 4, 5))
        assert (f.num_loops, f.num_cycles) == (1, 3)

    def test_from_cycles_roundtrip(self):
        f = OneFactor.from_cycles(5, [(0, 2, 4), (1, 3)])
        assert f.image == (2, 3, 4, 1, 0)


class TestCycleType:
    """``num_loops`` and ``num_cycles``, the latter counting loops too."""

    def test_identity(self):
        f = OneFactor(range(5))
        assert (f.num_loops, f.num_cycles) == (5, 5)

    def test_single_cycle(self):
        f = OneFactor([1, 2, 3, 4, 0])
        assert (f.num_loops, f.num_cycles) == (0, 1)

    def test_mixed(self):
        f = OneFactor.from_cycles(6, [(0,), (1, 2), (3, 4, 5)])  # (a)(b c)(d e f)
        assert (f.num_loops, f.num_cycles) == (1, 3)


class TestHamiltonCount:
    def test_complete_closed_form(self):
        for n in range(2, 10):
            assert count_hamilton_cycles(Digraph.complete(n)) == math.factorial(n - 1)

    def test_single_cycle(self):
        d = Digraph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert count_hamilton_cycles(d) == 1

    def test_loops_are_ignored(self):
        base = [(i, (i + 1) % 5) for i in range(5)]
        with_loops = Digraph(5, base + [(2, 2)], allow_loops=True)
        assert count_hamilton_cycles(with_loops) == 1

    def test_single_vertex(self):
        assert count_hamilton_cycles(Digraph(1, [(0, 0)], allow_loops=True)) == 0

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            count_hamilton_cycles(Digraph(25), cap=24)
        with pytest.raises(ResourceCapError):
            count_hamilton_cycles(Digraph(10), cap=9)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            d = random_digraph(rng, 8, 0.5, allow_loops=False)
            assert count_hamilton_cycles(d) == brute_force_hamilton_count(d)

    def test_crt_path_matches_int64_path(self, monkeypatch):
        # one 40-bit prime holds every count at n <= 14 in a single int64
        # residue; the small primes force the same kernel through three or
        # four residues (n <= 11 takes no residue at all)
        graphs = [digraph_of(blow_up_matrix(n, size, extra, seed))
                  for seed, (n, size, extra) in enumerate(
                      [(12, 2, e) for e in (0, 3, 6, 9)] + [(12, 3, e) for e in (0, 2, 4)]
                      + [(14, 2, e) for e in (0, 3, 6)])]
        single = [count_hamilton_cycles(d) for d in graphs]
        monkeypatch.setattr(exact, "_PRIMES", (31, 37, 41, 43))
        assert [count_hamilton_cycles(d) for d in graphs] == single

    def test_peak_memory_within_stated_bound(self):
        for n in (3, 8, 10, 11, 12, 13, 14, 16, 20):
            k = n - 1
            d = Digraph.complete(n)
            tracemalloc.start()
            try:
                assert count_hamilton_cycles(d) == math.factorial(k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the bounds in the docstring of count_hamilton_cycles: the table
            # step's for n <= 11, where each n builds its tables here, and
            # the live step's with every subset live
            c = math.comb(k, k // 2)
            if n <= 11:
                bound = 8 * (3 * k + 1) * c + 8 * k * 2**k + 16 * n**2 + 2**14
            else:
                bound = 20 * (k + 1) * c + 9 * 2**k + 16 * n**2 + 2**14
            assert peak <= bound, n


class TestFactorCount:
    def test_loops_only_identity(self):
        d = Digraph(6, [(v, v) for v in range(6)], allow_loops=True)
        assert count_one_factors(d) == 1

    def test_complete_loopful(self):
        assert count_one_factors(Digraph.complete(6, allow_loops=True)) == 720

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            d = random_digraph(rng, 7, 0.5, allow_loops=True)
            assert count_one_factors(d) == brute_force_factor_count(d)

    def test_bigint_path_matches_int64_path(self, monkeypatch):
        # as above for the permanent: one int64 residue against a CRT rebuild
        # from small primes into a Python int
        rng = np.random.default_rng(4)
        graphs = [random_digraph(rng, 9, 0.6, allow_loops=True) for _ in range(10)]
        single = [count_one_factors(d) for d in graphs]
        monkeypatch.setattr(exact, "_PRIMES", (31, 37, 41, 43))
        assert [count_one_factors(d) for d in graphs] == single

    def test_permanent_all_ones(self):
        for n in (0, 1, 2, 3, 8, 12):
            assert permanent(np.ones((n, n), dtype=int)) == math.factorial(n)

    def test_permanent_rejects_entries_other_than_0_1(self):
        with pytest.raises(DomainError):
            permanent(np.full((15, 15), 100))  # 15! 100^15 would overflow int64
        with pytest.raises(DomainError):
            permanent(np.array([[0.5, 1], [1, 1]]))  # would be truncated to 1
        with pytest.raises(DomainError):
            permanent(np.ones((2, 3)))
        assert permanent(np.eye(4, dtype=bool)) == 1

    def test_peak_memory_within_stated_bound(self):
        n = 20
        tracemalloc.start()
        try:
            assert permanent(np.ones((n, n), dtype=np.int64)) == math.factorial(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bound in the docstring of permanent: tables over the n - 1
        # columns 1..n-1, of 2^h and 2^l subsets
        h, l = n // 2, (n - 1) // 2
        assert peak <= 8 * n * (2**h + 2**l) + 48 * max(2**16, 2**h)

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            count_one_factors(Digraph(25, allow_loops=True), cap=24)


class TestResidues:
    def test_few_small_primes_match_brute_force(self, monkeypatch):
        for p in exact._PRIMES:  # the premise of the int64 exactness argument
            assert p < 2**40
            assert (p % np.arange(2, math.isqrt(p) + 1) != 0).all()
        big = exact._PRIMES[0]  # holds every count at n <= 14
        # primes so small that the counts below need two to four residues
        monkeypatch.setattr(exact, "_PRIMES", (31, 37, 41, 43))
        used = spy_kernels(monkeypatch, "_hamilton_residue", "_permanent_residue",
                           "_row_dp_residue", "_glynn_residue")
        # Hamilton cycles take residues from n = 12 on, on digraphs that
        # contraction leaves whole; these counts, 32 to 432 and more, wrap
        # under the small primes, and their degree bounds need three or four
        residues = set()
        for n, size in ((12, 2), (12, 3), (14, 2)):
            for extra in (0, 5):
                a = blow_up_matrix(n, size, extra, n + extra)
                assert len(exact._contracted(a.copy())[0]) == n
                used.clear()
                count = count_hamilton_cycles(digraph_of(a))
                assert count == reference_hamilton_residue(a, big) > SMALL_PRIMES[0]
                assert {name for name, _ in used} == {"_hamilton_residue"}
                residues.add(len(used))
        assert residues == {3, 4}
        rng = np.random.default_rng(3)
        kernels = set()
        fully_reduced = 0
        for n in range(5, 10):
            for density in (0.5, 0.8):
                random_digraph(rng, n, density, allow_loops=False)  # keeps seed 3's loopful draws
                d = random_digraph(rng, n, density, allow_loops=True)
                used.clear()
                assert count_one_factors(d) == brute_force_factor_count(d)
                # each residue of the permanent runs one of its two kernels on
                # the minor that the Laplace steps leave, unless they leave
                # the 0 x 0 matrix, whose permanent 1 needs no kernel
                outer = [p for name, p in used if name == "_permanent_residue"]
                inner = [p for name, p in used if name != "_permanent_residue"]
                if laplace_minor(d.adjacency_matrix()).size:
                    assert inner == outer
                else:
                    assert inner == [] and len(outer) == 1
                    fully_reduced += 1
                kernels.update(name for name, _ in used if name != "_permanent_residue")
                residues.add(len(outer))
        # J_2 + .. + J_2 at n = 16, of least degree 2, so left whole by the
        # Laplace steps, takes the programme for each of the four residues
        # that its bound 2^16 needs
        a = np.kron(np.eye(8, dtype=np.int64), np.ones((2, 2), dtype=np.int64))
        used.clear()
        assert permanent(a) == 2**8
        assert used == [(name, p) for p in SMALL_PRIMES
                        for name in ("_permanent_residue", "_row_dp_residue")]
        kernels.update(name for name, _ in used if name != "_permanent_residue")
        assert {2, 3, 4} <= residues
        assert kernels == {"_row_dp_residue", "_glynn_residue"}
        assert fully_reduced
        # 10! exceeds 31 * 37 * 41 * 43: no wrapped value, an error
        with pytest.raises(ResourceCapError):
            permanent(np.ones((10, 10), dtype=int))
        with pytest.raises(ResourceCapError):  # and 11! too, at the least n with residues
            count_hamilton_cycles(Digraph.complete(12))


class TestKernelsAgainstReference:
    """The float64 DP and Glynn against the int64 DP and Ryser they replaced."""

    @given(st.integers(1, 12), st.floats(0.2, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hamilton_residue(self, n, density, loops, seed):
        adj = random_matrix(n, density, loops, seed)
        for p in exact._PRIMES + SMALL_PRIMES:
            assert hamilton_residue(adj, p) == reference_hamilton_residue(adj, p)

    @given(st.integers(0, 12), st.floats(0.2, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permanent_residue(self, n, density, loops, seed):
        a = random_matrix(n, density, loops, seed)
        for p in exact._PRIMES + SMALL_PRIMES:
            assert exact._permanent_residue(a, p) == reference_permanent_residue(a, p)

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_hamilton_residue_across_the_reduction_gate(self, n):
        # a layer is reduced only once D times its bound could reach 2^53,
        # D the largest in-degree: never for the sparse digraphs here, and
        # for the complete ones (D^(n-1) >= 2^53 from n = 15) in the last
        # layers; at the n <= 12 of the hypothesis test it never fires
        for density in (0.15, 0.3, 0.5, 0.75, 1.0):
            adj = random_matrix(n, density, False, n)
            for p in exact._PRIMES + SMALL_PRIMES:
                assert hamilton_residue(adj, p) == reference_hamilton_residue(adj, p)

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_permanent_residue_across_the_reduction_gate(self, n):
        for density in (0.15, 0.3, 0.5, 0.75, 1.0):
            a = random_matrix(n, density, True, n)
            for p in exact._PRIMES + SMALL_PRIMES:
                assert exact._permanent_residue(a, p) == reference_permanent_residue(a, p)

    def test_glynn_reduces_inside_a_block(self):
        # the 16 full rows alone give the empty column set a product of
        # 18^16 > 2^63, so a block must be reduced before its last row pair
        a = random_matrix(18, 0.2, True, 1)
        a[:16] = 1
        for p in exact._PRIMES + SMALL_PRIMES:
            assert exact._permanent_residue(a, p) == reference_permanent_residue(a, p)

    def test_exact_large_golden_instances(self):
        # the first two hitting-time instances of the hitting_time_small_exact
        # config (n = 18, seed 12345), with their HC and per at m*
        pinned = [(58, 1, 6), (51, 0, 0)]
        for idx, want in enumerate(pinned):
            cp = couple(gen_process(18, "loopful", derive_seed(12345, idx)))
            m_star = hitting_time(cp.loopless)
            d = cp.loopless.prefix(m_star)
            assert (m_star, count_hamilton_cycles(d), count_one_factors(d)) == want

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_residues_wrap_under_the_real_primes(self, n):
        # (n-1)! and n! pass 2^40 here, so every residue is a wrapped value
        assert math.factorial(n - 1) > max(exact._PRIMES)
        adj = Digraph.complete(n).adjacency_matrix()
        ones = np.ones((n, n), dtype=np.int64)
        for p in exact._PRIMES:
            assert hamilton_residue(adj, p) == reference_hamilton_residue(adj, p) \
                == math.factorial(n - 1) % p
            assert exact._permanent_residue(ones, p) == reference_permanent_residue(ones, p) \
                == math.factorial(n) % p

    def test_layers_stay_exact_where_path_counts_pass_2_53(self):
        # at n = 21 the unreduced path counts pass 2^53, where float64 would
        # round them; the reduction after each step keeps every entry exact
        adj = random_matrix(21, 0.95, False, 0)
        p = exact._PRIMES[0]
        assert hamilton_residue(adj, p) == reference_hamilton_residue(adj, p)
        # the complete digraph at n = 22 would round if its layers were
        # reduced only from 2^60 on rather than 2^53
        assert hamilton_residue(Digraph.complete(22).adjacency_matrix(), p) \
            == math.factorial(21) % p

    def test_glynn_at_one_and_two_rows(self):
        # 2^-(n-1) is 1 at n = 1 and the inverse of 2 at n = 2
        for n in (1, 2):
            for bits in range(2 ** (n * n)):
                a = np.array([(bits >> i) & 1 for i in range(n * n)], dtype=np.int64)
                a = a.reshape(n, n)
                d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if a[u, v]],
                            allow_loops=True)
                assert permanent(a) == brute_force_factor_count(d)
                for p in exact._PRIMES + SMALL_PRIMES:
                    assert exact._permanent_residue(a, p) == reference_permanent_residue(a, p)


class TestCountBounds:
    """The proven bounds on a count, which set how many residues it needs."""

    def test_empty_column_needs_no_residue(self, monkeypatch):
        calls = spy_kernels(monkeypatch, "_hamilton_residue", "_permanent_residue")
        a = np.ones((6, 6), dtype=np.int64)
        a[:, 2] = 0  # every row sum is 5, the column sum 0
        assert permanent(a) == 0
        # every out-degree is 10 or 11, the in-degree of vertex 2 is 0; at
        # n = 12, which takes residues, no vertex has a forced edge
        d = Digraph(12, [(u, v) for u in range(12) for v in range(12) if u != v and v != 2])
        assert count_hamilton_cycles(d) == 0
        assert calls == []

    def test_column_and_in_degree_products_save_a_residue(self, monkeypatch):
        monkeypatch.setattr(exact, "_PRIMES", SMALL_PRIMES)
        calls = spy_kernels(monkeypatch, "_hamilton_residue", "_permanent_residue")
        # the identity with a full column 0: the row sums multiply to 2^8,
        # which needs two moduli, the column sums to 9 < 31, which needs one
        a = np.eye(9, dtype=np.int64)
        a[:, 0] = 1
        assert permanent(a) == 1
        assert calls == [("_permanent_residue", 31)]
        # the cycle 0 -> 1 -> .. -> 11 -> 0, the arcs back to 0 from 1..10
        # and the chords v -> v + 2 mod 12 into 1..11: in-degree 11 at 0 and
        # 2 elsewhere, out-degree 3 at 1..9 and 2 elsewhere, so contraction
        # leaves it whole; the out-degrees multiply to 3^9 2^3 = 157,464,
        # which needs four moduli, the in-degrees to 11 * 2^11 = 22,528 <
        # 31 * 37 * 41, which needs three
        n = 12
        edges = {(v, (v + 1) % n) for v in range(n)} | {(v, 0) for v in range(1, n - 1)}
        d = Digraph(n, sorted(edges | {((v - 2) % n, v) for v in range(1, n)}))
        adj = d.adjacency_matrix()
        assert len(exact._contracted(adj.copy())[0]) == n
        calls.clear()
        assert count_hamilton_cycles(d) == reference_hamilton_residue(adj, exact._PRIMES[0]) == 6
        assert calls == [("_hamilton_residue", p) for p in SMALL_PRIMES[:3]]


class TestRowProgramme:
    """The permanent over live sets of matched columns, and its choice
    against Glynn's formula."""

    @given(st.integers(1, 20), st.floats(0.05, 1.0),
           st.sampled_from(["none", "row", "column", "both"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(20, 1.0, "none", 0)  # Glynn's formula
    @example(20, 0.3, "none", 1)  # the programme, per = 87,102,670
    @example(20, 0.4, "none", 598)  # Glynn's formula, W = 1,750,009 just past the switch
    @example(20, 0.4, "none", 1313)  # the programme, W = 1,747,559 just short of it
    @example(20, 0.5, "both", 7)
    @example(1, 1.0, "none", 0)
    def test_against_reference(self, n, density, empty, seed):
        a = random_matrix(n, density, True, seed)
        if empty in ("row", "both"):
            a[seed % n] = 0
        if empty in ("column", "both"):
            a[:, seed // n % n] = 0
        want = reference_permanent(a)
        order, work = exact._row_order(a)
        assert sorted(order) == list(range(n))
        dp = takes_programme(n, work)
        if work <= 1 << 16:  # W bounds the candidates of the programme
            assert sum(cand for cand, _ in row_dp_sizes(a[order])) <= work
        for p in exact._PRIMES + SMALL_PRIMES:
            assert exact._permanent_residue(a, p) == want % p
            # the kernel not chosen, too, where it is cheap
            if dp and n <= 16:
                assert exact._glynn_residue(a, p) == want % p
            if not dp and work <= 1 << 16:
                assert exact._row_dp_residue(a[order], p) == want % p

    def test_dense_takes_glynn_and_m_star_the_programme(self, monkeypatch):
        calls = spy_kernels(monkeypatch, "_row_dp_residue", "_glynn_residue")
        # J_1 is a single entry, which the Laplace steps take out: per = 1
        # with no kernel; every larger J_n is left whole, and takes Glynn's
        # formula
        assert permanent(np.ones((1, 1), dtype=np.int64)) == 1
        assert calls == []
        for n in range(2, 19):
            calls.clear()
            assert permanent(np.ones((n, n), dtype=np.int64)) == math.factorial(n)
            assert {name for name, _ in calls} == {"_glynn_residue"}, n
        # the first 40 instances of the exact_large benchmark workload: each
        # has a vertex of degree 1, so the kernel sees the minor that the
        # Laplace steps leave, which has least degree 2 and takes the
        # programme, of order 7 to 17, but for instance 35, whose minor of
        # order 5 and W = 22 takes Glynn's formula; a minor that is 0 x 0,
        # or has an empty row or column, needs no kernel
        taken = Counter()
        for idx in range(40):
            cp = couple(gen_process(18, "loopful", derive_seed(12345, idx)))
            d = cp.loopless.prefix(hitting_time(cp.loopless))
            a = d.adjacency_matrix()
            assert min(a.sum(axis=0).min(), a.sum(axis=1).min()) == 1
            minor = laplace_minor(a)
            least = min([*minor.sum(axis=0), *minor.sum(axis=1)], default=0)
            calls.clear()
            count_one_factors(d)
            if least == 0:
                assert calls == [], idx
                taken["none"] += 1
                continue
            assert least >= 2
            want = "_glynn_residue" if idx == 35 else "_row_dp_residue"
            assert {name for name, _ in calls} == {want}, idx
            taken[want] += 1
        assert taken == {"none": 9, "_glynn_residue": 1, "_row_dp_residue": 30}

    def test_large_m_star_minors_take_the_programme(self, monkeypatch):
        # the n = 18 m* digraphs of seed 12345 whose bound W once sent them
        # to Glynn's formula, though the programme counts them 1.5-4x
        # faster: their minors, of order 17, now take the programme
        calls = spy_kernels(monkeypatch, "_row_dp_residue", "_glynn_residue")
        for idx in (57, 79, 161, 190, 220, 245, 263):
            cp = couple(gen_process(18, "loopful", derive_seed(12345, idx)))
            d = cp.loopless.prefix(hitting_time(cp.loopless))
            minor = laplace_minor(d.adjacency_matrix())
            assert len(minor) == 17 and exact._row_order(minor)[1] >= 1 << 15
            calls.clear()
            assert count_one_factors(d) == reference_permanent(minor)
            assert {name for name, _ in calls} == {"_row_dp_residue"}, idx

    def test_crt_at_n_24(self, monkeypatch):
        # per(J_8 + J_8 + J_8) = 8!^3 passes 2^40 and its bound, the product
        # 8^24 of the row sums, passes one modulus: two residues, each by the
        # programme, and one Chinese remaindering at n = 24; its rows move
        # to int64 arrays, where the counts wrap
        a = np.kron(np.eye(3, dtype=np.int64), np.ones((8, 8), dtype=np.int64))
        assert max(c for c, _ in row_dp_sizes(a[exact._row_order(a)[0]])) > exact._INT_CANDIDATES
        calls = spy_kernels(monkeypatch, "_row_dp_residue", "_glynn_residue")
        assert permanent(a) == math.factorial(8) ** 3 > max(exact._PRIMES)
        assert calls == [("_row_dp_residue", p) for p in exact._PRIMES[:2]]

    def test_reduction_gate(self, monkeypatch):
        # J_10 + J_10 with a few more ones above the diagonal blocks: the
        # permanent stays 10!^2, the row sums multiply past 10^20 > 2^63, so
        # the counts are reduced once the next row could reach 2^63
        a = np.kron(np.eye(2, dtype=np.int64), np.ones((10, 10), dtype=np.int64))
        a[:10, 10:] = np.random.default_rng(0).random((10, 10)) < 0.1
        order, work = exact._row_order(a)
        assert work < 1 << 19
        # the reduction is on the int64 arrays, which the rows reach
        assert max(c for c, _ in row_dp_sizes(a[order])) > exact._INT_CANDIDATES
        reduced = []
        fmod = np.fmod
        monkeypatch.setattr(np, "fmod", lambda x, *args, **kw: reduced.append(len(x))
                            or fmod(x, *args, **kw))
        for p in exact._PRIMES + SMALL_PRIMES:
            reduced.clear()
            assert exact._permanent_residue(a, p) == math.factorial(10) ** 2 % p
            assert reduced
        assert permanent(a) == math.factorial(10) ** 2

    def test_peak_memory_within_stated_bound(self, monkeypatch):
        # the n = 24 m* digraph that scripts/check_exact_frontier.py checks,
        # whose Laplace steps leave a minor of order 18 for the programme
        seq = gen_process(24, "loopful", 1)
        a = seq.prefix(hitting_time(seq)).adjacency_matrix()
        minor = laplace_minor(a)
        n = len(minor)
        order, work = exact._row_order(minor)
        assert takes_programme(n, work)
        sizes = row_dp_sizes(minor[order])
        c, s = max(cand for cand, _ in sizes), max(live for _, live in sizes)
        assert (n, c, s) == (18, 618, 109)  # as in the docstring of permanent
        # with every row on int64 arrays, then with the first rows on Python ints
        for switch, bound in ((0, 32 * c + 16 * s),
                              (exact._INT_CANDIDATES, max(2**16, 32 * c + 16 * s))):
            monkeypatch.setattr(exact, "_INT_CANDIDATES", switch)
            tracemalloc.start()
            try:
                assert permanent(a) == 1183
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the bound in the docstring of permanent
            assert peak <= bound + 16 * n * n + 2**14, switch

    def test_peak_memory_of_the_int_rows(self):
        # the minor of the n = 18 m* digraph 176 of seed 12345 (order 14)
        # runs 5 rows on Python ints, whose last leaves 185 live sets, then
        # moves to int64 arrays, whose live sets and candidates stay below
        # 2^16 bytes: the Python ints set the bound in the docstring of
        # permanent
        cp = couple(gen_process(18, "loopful", derive_seed(12345, 176)))
        minor = laplace_minor(cp.loopless.prefix(hitting_time(cp.loopless)).adjacency_matrix())
        n = len(minor)
        order, _ = exact._row_order(minor)
        sizes = row_dp_sizes(minor[order])
        assert (n, sizes[4][1]) == (14, 185) and sizes[5][0] > exact._INT_CANDIDATES
        assert all(cand <= exact._INT_CANDIDATES for cand, _ in sizes[:5])
        assert 32 * max(cand for cand, _ in sizes) + 16 * max(live for _, live in sizes) < 2**16
        p = exact._PRIMES[0]
        want = reference_permanent_residue(minor, p)
        tracemalloc.start()
        try:
            assert exact._row_dp_residue(minor[order], p) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**16 + 16 * n * n + 2**14

    @given(st.integers(1, 16), st.floats(0.05, 1.0),
           st.sampled_from(["none", "row", "column", "both"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    @example(16, 0.3, "none", 1)  # 6 rows on Python ints at the fitted switch
    @example(12, 1.0, "none", 0)  # J_12: 2 rows on Python ints
    def test_across_the_switch_to_arrays(self, n, density, empty, seed):
        # the rows on Python ints hand exact counts to the int64 arrays, which
        # hold them mod p, where the small primes wrap them: with every row
        # that has an entry on the arrays (switch 0), from the first row with
        # two or more entries on (1), from the fitted switch on, and with
        # every row on Python ints
        a = random_matrix(n, density, True, seed)
        if empty in ("row", "both"):
            a[seed % n] = 0
        if empty in ("column", "both"):
            a[:, seed // n % n] = 0
        a = a[exact._row_order(a)[0]]
        primes = exact._PRIMES + SMALL_PRIMES
        want = [reference_permanent_residue(a, p) for p in primes]
        for switch in (0, 1, exact._INT_CANDIDATES, 1 << 62):
            with mock.patch.object(exact, "_INT_CANDIDATES", switch):
                assert [exact._row_dp_residue(a, p) for p in primes] == want, switch


class TestTableStep:
    """The DP for n <= 11: one dgemm and one gather through a cached table
    per layer."""

    @given(st.integers(2, 11), st.floats(0.05, 1.0), st.sampled_from(["any", "none", "one"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_against_reference(self, n, density, start, seed):
        adj = random_matrix(n, density, False, seed)
        if start != "any":  # vertex 0 with out-degree 0 or 1
            adj[0] = 0
            adj[0, 1 + seed % (n - 1)] = start == "one"
        # the small primes wrap the counts, which the table step never reduces
        for p in exact._PRIMES + SMALL_PRIMES:
            assert watched_residue(adj, p) == (reference_hamilton_residue(adj, p), None, [])

    @given(st.integers(1, 11), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(1, 1.0, True, 0)  # one vertex and its loop
    @example(2, 1.0, True, 0)
    @example(11, 0.0, False, 0)  # the empty digraph
    @example(11, 1.0, False, 0)  # K_11
    @example(10, 1.0, True, 0)  # K_10 with every loop
    def test_counts_take_no_residue(self, n, density, loops, seed):
        # a count below n = 12 comes from the table step alone, loops and all
        a = random_matrix(n, density, loops, seed)
        d = digraph_of(a)
        want = brute_force_hamilton_count(d) if n <= 9 \
            else reference_hamilton_residue(a, exact._PRIMES[0])  # 10! < p
        with mock.patch.object(exact, "_hamilton_residue") as residue:
            assert count_hamilton_cycles(d) == want
        residue.assert_not_called()

    def test_contracted_below_12_takes_no_residue(self, monkeypatch):
        # the first n = 18 hitting-time digraph of seed 12345, whose one
        # Hamilton cycle is counted on the digraph that contraction leaves
        cp = couple(gen_process(18, "loopful", derive_seed(12345, 0)))
        d = cp.loopless.prefix(hitting_time(cp.loopless))
        order = len(exact._contracted(d.adjacency_matrix())[0])
        assert order < 12
        kernel = exact._hamilton_table_count
        sizes = []
        monkeypatch.setattr(exact, "_hamilton_table_count",
                            lambda adj, tables: sizes.append(len(adj)) or kernel(adj, tables))
        calls = spy_kernels(monkeypatch, "_hamilton_residue")
        assert count_hamilton_cycles(d) == 1
        assert sizes == [order] and calls == []

    @pytest.mark.parametrize("n", range(1, 12))
    def test_tables(self, n):
        # each entry (w, T) of table r points at (w, T - {w}) in a flat
        # k x C(k, r) layer, or past its end when w is not in T
        k = n - 1
        tables = exact._subsets_by_size(k)
        assert len(tables) == max(k - 1, 0)
        assert sum(t.nbytes for t in tables) == 8 * k * (2**k - k - 1)
        by_size = [[t for t in range(2**k) if t.bit_count() == r] for r in range(k + 1)]
        for r, table in enumerate(tables, 1):
            below = by_size[r]
            want = [[w * len(below) + below.index(t & ~(1 << w)) if t >> w & 1
                     else k * len(below) for t in by_size[r + 1]]
                    for w in range(k)]
            assert table.dtype == np.intp and table.tolist() == want
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_no_tables_from_n_12(self, monkeypatch):
        # the live step needs no subsets ordered by size: counts of m*
        # digraphs, which contraction takes to orders below and above 12,
        # and of K_12..K_14 ask only for the tables of k <= 10
        asked = []
        tables = exact._subsets_by_size
        monkeypatch.setattr(exact, "_subsets_by_size", lambda k: asked.append(k) or tables(k))
        residues = spy_kernels(monkeypatch, "_hamilton_residue")
        for idx in range(8):
            cp = couple(gen_process(18, "loopful", derive_seed(12345, idx)))
            count_hamilton_cycles(cp.loopless.prefix(hitting_time(cp.loopless)))
        assert asked and residues  # both steps ran
        for n in (12, 13, 14):
            assert count_hamilton_cycles(Digraph.complete(n)) == math.factorial(n - 1)
        assert max(asked) <= 10


class TestLiveLayout:
    """The DP past the table step, every layer held only at its live
    subsets."""

    @given(st.integers(9, 16), st.floats(0.05, 1.0), st.sampled_from(["any", "none", "one"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_against_reference(self, n, density, start, cut, seed):
        adj = random_matrix(n, density, False, seed)
        if start != "any":  # vertex 0 with out-degree 0 or 1
            adj[0] = 0
            adj[0, 1 + seed % (n - 1)] = start == "one"
        if cut:  # no path from 0 enters vertex n-1: no Hamilton path
            adj[:, n - 1] = 0
        for p in exact._PRIMES + SMALL_PRIMES:
            assert hamilton_residue(adj, p) == reference_hamilton_residue(adj, p)
        # each live layer has a column for every live subset and no other
        _, first, cols = watched_residue(adj, exact._PRIMES[0])
        assert first == (None if n < exact._CONTRACT_MIN_N else 1)
        if first is not None:
            assert cols == [c for c in live_counts(adj)[first:] if c]

    def test_reduction_inside_the_live_layout(self, monkeypatch):
        # paths from 0 start 0 1 2 3 4 5, then visit 6..15 in any order and
        # close to 0: 10! Hamilton cycles.  The arcs back into 1..4 lead
        # nowhere but raise the in-degree bound D to 14, so the layers are
        # reduced from step 13 on (D^14 >= 2^53), and layer 13 holds only the
        # subsets that contain 1..5
        n = 16
        adj = np.zeros((n, n), dtype=np.int64)
        for i in range(5):
            adj[i, i + 1] = 1
            adj[i, 1:i] = 1
        adj[5:] = 1
        np.fill_diagonal(adj, 0)
        growth = int(adj[1:].sum(axis=0).max())
        assert (growth, growth**13 < 2**53 <= growth**14) == (14, True)
        _, first, cols = watched_residue(adj, exact._PRIMES[0])
        assert (first, cols) == (1, live_counts(adj)[1:])
        reduced = []
        fmod = np.fmod
        monkeypatch.setattr(np, "fmod", lambda a, *args, **kw: reduced.append(a.shape)
                            or fmod(a, *args, **kw))
        for p in exact._PRIMES + SMALL_PRIMES:
            reduced.clear()
            assert hamilton_residue(adj, p) == reference_hamilton_residue(adj, p)
            # step 13 reduces its product over the 45 live subsets of layer 13
            assert reduced == [(15, 45)]
        d = Digraph(n, [(u, v) for u, v in zip(*np.nonzero(adj))])
        assert count_hamilton_cycles(d) == math.factorial(10)

    @pytest.mark.parametrize("idx", [0, 2])
    def test_peak_memory_within_stated_bound(self, idx):
        # a hitting-time digraph at n = 20, which contraction takes to a
        # digraph of order 17 or 18; the bound is stated in the order of the
        # digraph that the DP counts
        order = {0: 17, 2: 18}[idx]
        cp = couple(gen_process(20, "loopful", derive_seed(12345, idx)))
        d = cp.loopless.prefix(hitting_time(cp.loopless))
        adj = exact._contracted(d.adjacency_matrix())[0]
        n = adj.shape[0]
        k = n - 1
        assert n == order
        ell = max(live_counts(adj))
        tracemalloc.start()
        try:
            count_hamilton_cycles(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the live step's bound in the docstring of count_hamilton_cycles,
        # below its value for K_n, where every subset is live
        bound = 20 * (k + 1) * ell + 9 * 2**k + 16 * n**2 + 2**14
        dense = 20 * (k + 1) * math.comb(k, k // 2) + 9 * 2**k + 16 * n**2 + 2**14
        assert peak <= bound < dense


def planted_matrix(n: int, density: float, loops: bool, seed: int, plants) -> np.ndarray:
    """``random_matrix`` with planted entries forced by degree 1: a plant
    ("in", u, v) leaves u -> v the only entry of column v, ("out", u, v) the
    only entry of row u (u, v taken mod n; v moved off u unless ``loops``)."""
    a = random_matrix(n, density, loops, seed)
    for kind, u, v in plants:
        u, v = u % n, v % n
        if u == v and not loops:
            v = (v + 1) % n
        if kind == "in":
            a[:, v] = 0
        else:
            a[u] = 0
        a[u, v] = 1
    return a


def digraph_of(a: np.ndarray) -> Digraph:
    return Digraph(len(a), [(u, v) for u, v in zip(*np.nonzero(a))],
                   allow_loops=bool(a.trace()))


def unreduced_hamilton_count(a: np.ndarray) -> int:
    """HC of the digraph of ``a`` by the DP on the whole digraph, with no
    contraction and no change of anchor: the table step for n <= 11, also
    where a test lowers ``_CONTRACT_MIN_N``, and the live step past it."""
    adj = a.astype(np.int64)
    np.fill_diagonal(adj, 0)
    n = len(adj)
    bound = min(math.factorial(n - 1), math.prod(adj.sum(axis=1).tolist()),
                math.prod(adj.sum(axis=0).tolist()))
    if n <= 11:
        return exact._hamilton_table_count(adj, exact._subsets_by_size(n - 1))
    return exact._from_residues(bound, lambda p: exact._hamilton_residue(adj, p))


def unreduced_permanent(a: np.ndarray) -> int:
    """per(a) by the kernels on the whole matrix, with no Laplace step."""
    n = len(a)
    bound = min(math.factorial(n), math.prod(a.sum(axis=1).tolist()),
                math.prod(a.sum(axis=0).tolist()))
    return exact._from_residues(bound, lambda p: exact._permanent_residue(a, p))


_PLANTS = st.lists(st.tuples(st.sampled_from(["in", "out"]), st.integers(0, 63),
                             st.integers(0, 63)), max_size=12)


class TestForcedEntries:
    """Contraction of forced edges and the Laplace steps of the permanent,
    which change how a count is computed and never the count."""

    @given(st.integers(1, 9), st.floats(0.2, 0.9), st.booleans(), st.integers(0, 2**32 - 1),
           _PLANTS)
    @settings(max_examples=40, deadline=None)
    @example(9, 0.5, False, 0, [("in", 0, 1), ("in", 1, 0)])  # a forced 2-cycle
    @example(9, 0.5, False, 1, [("in", 0, 1), ("in", 0, 2)])  # two forced out-edges
    @example(9, 0.5, True, 2, [("out", v, v + 1) for v in range(8)])  # down to n = 2
    def test_against_brute_force(self, n, density, loops, seed, plants):
        a = planted_matrix(n, density, loops, seed, plants)
        d = digraph_of(a)
        # contraction from n = 3 on, below the n where counts use it
        with mock.patch.object(exact, "_CONTRACT_MIN_N", 3):
            assert count_hamilton_cycles(d) == brute_force_hamilton_count(d)
        assert count_one_factors(d) == brute_force_factor_count(d)

    @given(st.integers(2, 14), st.floats(0.1, 0.9), st.booleans(), st.integers(0, 2**32 - 1),
           _PLANTS, st.sampled_from([3, exact._CONTRACT_MIN_N]))
    @settings(max_examples=60, deadline=None)
    @example(14, 0.6, False, 3, [("in", v, v + 1) for v in range(5)] + [("in", 5, 0)], 12)
    def test_against_the_kernels_unreduced(self, n, density, loops, seed, plants, least):
        a = planted_matrix(n, density, loops, seed, plants)
        d = digraph_of(a)
        with mock.patch.object(exact, "_CONTRACT_MIN_N", least):
            assert count_hamilton_cycles(d) == unreduced_hamilton_count(a)
        assert count_one_factors(d) == permanent(a) == unreduced_permanent(a)

    def test_forced_two_cycle(self, monkeypatch):
        # 0 and 1 are each other's only in-neighbour: no Hamilton cycle, and
        # contracting 0 -> 1 leaves a vertex with no in-edge, so no residue
        n = 12
        a = Digraph.complete(n).adjacency_matrix()
        a[:, :2] = 0
        a[0, 1] = a[1, 0] = 1
        calls = spy_kernels(monkeypatch, "_hamilton_residue", "_row_dp_residue",
                            "_glynn_residue")
        assert count_hamilton_cycles(digraph_of(a)) == 0
        assert calls == []
        # every 1-factor takes the 2-cycle, then one of the rest: per(J_10 - I)
        assert permanent(a) == derangements(10)

    def test_two_forced_out_edges(self, monkeypatch):
        # 1 and 2 both have 0 as their only in-neighbour
        n = 13
        a = Digraph.complete(n).adjacency_matrix()
        a[:, 1:3] = 0
        a[0, 1:3] = 1
        calls = spy_kernels(monkeypatch, "_hamilton_residue", "_permanent_residue")
        assert count_hamilton_cycles(digraph_of(a)) == 0
        assert permanent(a) == 0
        assert calls == []

    def test_chain_that_closes_early(self, monkeypatch):
        # 0 -> 1 -> 2 -> 3 -> 0 forced by in-degree 1: a cycle of 4 < n
        # vertices, so no Hamilton cycle; the 1-factors take it whole
        n = 14
        a = Digraph.complete(n).adjacency_matrix()
        a[:, :4] = 0
        for v in range(4):
            a[v, (v + 1) % 4] = 1
        calls = spy_kernels(monkeypatch, "_hamilton_residue")
        assert count_hamilton_cycles(digraph_of(a)) == 0
        assert calls == []
        assert permanent(a) == unreduced_permanent(a) == derangements(10)

    def test_contraction_down_to_two_vertices(self, monkeypatch):
        # the forced path 0 -> 1 -> .. -> 11 and every edge back to 0: one
        # Hamilton cycle, counted on the two vertices that contraction leaves
        n = 12
        a = np.zeros((n, n), dtype=np.int64)
        a[np.arange(n - 1), np.arange(1, n)] = 1
        a[:, 0] = 1
        kernel = exact._hamilton_table_count
        sizes = []
        monkeypatch.setattr(exact, "_hamilton_table_count",
                            lambda adj, tables: sizes.append(len(adj)) or kernel(adj, tables))
        calls = spy_kernels(monkeypatch, "_hamilton_residue")
        assert count_hamilton_cycles(digraph_of(a)) == 1
        assert sizes == [2]
        # without the closing edge 11 -> 0, none: vertex 11 has no out-edge,
        # which stops contraction at 12 vertices with a count bound of 0
        a[n - 1, 0] = 0
        sizes.clear()
        assert count_hamilton_cycles(digraph_of(a)) == 0
        assert sizes == [] and calls == []

    def test_loops(self):
        # vertex 5's only in-edge is its loop: no Hamilton cycle, and the
        # loop is a fixed point of every 1-factor
        n = 12
        a = np.ones((n, n), dtype=np.int64)
        a[:, 5] = 0
        a[5, 5] = 1
        d = digraph_of(a)
        assert count_hamilton_cycles(d) == 0
        assert count_one_factors(d) == math.factorial(n - 1)

    def test_permanent_down_to_0_by_0(self, monkeypatch):
        # an upper triangular 0/1 matrix with a full diagonal: column 0 has
        # the one entry (0, 0), and so on down: per = 1 from the Laplace
        # steps alone, with no kernel
        n = 16
        a = np.triu(np.ones((n, n), dtype=np.int64))
        assert len(laplace_minor(a)) == 0
        calls = spy_kernels(monkeypatch, "_row_dp_residue", "_glynn_residue")
        assert permanent(a) == count_one_factors(digraph_of(a)) == 1
        assert calls == []

    def test_minimum_degree_two_is_left_whole(self):
        # no row or column with one entry: the Laplace steps and contraction
        # return their input, and the anchor moves to the least out-degree
        a = random_matrix(14, 0.5, False, 7)
        a[3] = 0
        a[3, [0, 9]] = 1
        assert np.add.reduce((a, a.T), axis=2).min() >= 2
        assert laplace_minor(a) is a
        adj, degrees = exact._contracted(a.copy())
        order = [3, 1, 2, 0] + list(range(4, 14))
        assert np.array_equal(adj, a[order][:, order])
        assert degrees.tolist() == [adj.sum(axis=1).tolist(), adj.sum(axis=0).tolist()]

    def test_peak_memory_before_the_kernels(self):
        # the forced path of n = 24 contracts to 2 vertices, and a
        # triangular matrix reduces to 0 x 0: the peaks of the steps alone
        n = 24
        a = np.zeros((n, n), dtype=np.int64)
        a[np.arange(n - 1), np.arange(1, n)] = 1
        a[:, 0] = 1
        d = digraph_of(a)
        tri = np.triu(np.ones((n, n), dtype=np.int64))
        count_hamilton_cycles(d)  # order the subsets outside the measurement
        for count, arg in ((count_hamilton_cycles, d), (permanent, tri)):
            tracemalloc.start()
            try:
                assert count(arg) == 1
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the bounds in the docstrings of count_hamilton_cycles and permanent
            assert peak <= 32 * n * n + 2**14, count


class TestSubsetCache:
    def test_memory_within_stated_bound(self):
        # every k the table step asks for, up to K = 10, cached at once:
        # less than 2^18 bytes
        big = 10
        exact._subsets_by_size.cache_clear()
        tracemalloc.start()
        try:
            for k in range(big + 1):
                exact._subsets_by_size(k)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert exact._subsets_by_size.cache_info().currsize == big + 1
        assert held < 2**18

    def test_entries_stay_for_every_k(self):
        first = exact._subsets_by_size(7)
        for k in range(12):
            exact._subsets_by_size(k)
        assert exact._subsets_by_size(7) is first


class TestCountInvariants:
    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_hamilton_at_most_factors(self, seed):
        rng = np.random.default_rng(seed)
        d = random_digraph(rng, 6, 0.45, allow_loops=False)
        assert count_hamilton_cycles(d) <= count_one_factors(d)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        d = random_digraph(rng, 7, 0.5, allow_loops=True)
        perm = rng.permutation(7)
        relabeled = Digraph(7, [(u, int(perm[v])) for u, v in d.edges()], allow_loops=True)
        assert count_one_factors(d) == count_one_factors(relabeled)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_edges(self, seed):
        rng = np.random.default_rng(seed)
        d = random_digraph(rng, 6, 0.35, allow_loops=True)
        missing = [
            (u, v) for u in range(6) for v in range(6) if not d.has_edge(u, v)
        ]
        if not missing:
            return
        extra = missing[rng.integers(len(missing))]
        bigger = d.with_edges([extra])
        assert count_one_factors(bigger) >= count_one_factors(d)
        assert count_hamilton_cycles(bigger) >= count_hamilton_cycles(d)


class TestEnumeration:
    def test_loops_only(self):
        d = Digraph(4, [(v, v) for v in range(4)], allow_loops=True)
        fe = enumerate_one_factors(d, 10)
        assert [f.image for f in fe] == [(0, 1, 2, 3)]
        assert not fe.truncated

    def test_complete_consistency(self):
        d = Digraph.complete(3, allow_loops=True)
        fe = enumerate_one_factors(d, 10)
        assert len(fe) == count_one_factors(d) == 6
        assert not fe.truncated

    def test_two_triangles(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)])
        fe = enumerate_one_factors(d, 10)
        assert len(fe) == 2

    def test_truncation_flag_and_lex_order(self):
        d = Digraph.complete(4, allow_loops=True)
        fe = enumerate_one_factors(d, 5)
        assert fe.truncated and len(fe) == 5
        images = [f.image for f in fe]
        assert images == sorted(images)


class TestRencontres:
    def test_all_fixed(self):
        assert rencontres(7, 7) == 1

    def test_enumerated_small(self):
        import itertools

        for n in range(6):
            for k in range(n + 1):
                brute = sum(
                    1
                    for perm in itertools.permutations(range(n))
                    if sum(perm[i] == i for i in range(n)) == k
                )
                assert rencontres(n, k) == brute

    def test_partition_of_permutations(self):
        assert sum(rencontres(10, k) for k in range(11)) == math.factorial(10)

    def test_mean_fixed_points_is_one(self):
        assert sum(k * rencontres(9, k) for k in range(10)) == math.factorial(9)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            rencontres(3, 4)

    def test_derangements(self):
        assert [derangements(m) for m in range(7)] == [1, 0, 1, 2, 9, 44, 265]
