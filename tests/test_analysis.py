import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamcount import analysis
from hamcount.analysis import (
    _pair_counts,
    _pmf_sum,
    chernoff_two_sided,
    chernoff_upper,
    edge_discrepancy_check,
    exact_binomial_upper_tail,
    falikman_bound,
    fixed_point_reference,
    gk_hypotheses,
    gk_lower_bound,
    harmonic_number,
    permutation_cycle_stats,
    regularize_degrees,
    relabel_factor,
    tv_distance,
)
from hamcount.digraph import Digraph, couple, gen_binomial, gen_process
from hamcount.errors import DomainError
from hamcount.exact import OneFactor, count_one_factors

from conftest import random_digraph, reference_binomial_two_sided, reference_pmf_sum


def circulant(n, r, shift=1):
    """r-regular digraph: i -> i+shift, ..., i+shift+r-1 (mod n)."""
    return Digraph(n, [(i, (i + shift + k) % n) for i in range(n) for k in range(r)],
                   allow_loops=True)


class TestChernoffUpper:
    def test_boundary_invalid(self):
        assert not chernoff_upper(4 * 100 * 0.1, 100, 0.1).valid
        assert chernoff_upper(4 * 100 * 0.1 + 1e-9, 100, 0.1).valid

    def test_dominates_exact_tail(self):
        tb = chernoff_upper(50, 100, 0.1)
        assert tb.valid
        assert Fraction(tb.value) >= exact_binomial_upper_tail(100, 0.1, 50)

    def test_decreasing_beyond_e_times_mean(self):
        mean = 100 * 0.1
        grid = np.linspace(math.e * mean + 0.1, 100, 50)
        vals = [chernoff_upper(float(a), 100, 0.1).value for a in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_zero_mean_conventions(self):
        assert chernoff_upper(2, 10, 0.0).value == 0.0
        assert chernoff_upper(0.5, 10, 0.0).value == 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            chernoff_upper(5, 10, 1.5)

    def test_log_value_survives_underflow(self):
        tb = chernoff_upper(308, 1000, 0.01)
        assert tb.value == 0.0  # below the float64 floor
        assert math.isclose(tb.log_value, -308 * (math.log(30.8) - 1.0))
        # log-space dominance against the exact tail
        tail = exact_binomial_upper_tail(1000, 0.01, 308)
        log_tail = math.log(tail.numerator) - math.log(tail.denominator)
        assert tb.log_value >= log_tail


class TestChernoffTwoSided:
    def test_eps_zero_gives_two(self):
        assert chernoff_two_sided(0.0, 123, 0.3).value == 2.0

    def test_validity_cutoff(self):
        assert chernoff_two_sided(1.5, 10, 0.5).valid
        assert not chernoff_two_sided(1.6, 10, 0.5).valid

    def test_dominates_exact(self):
        tb = chernoff_two_sided(0.2, 1000, 0.5)
        assert tb.valid
        assert Fraction(tb.value) >= reference_binomial_two_sided(1000, 0.5, 0.2)

    def test_rejects_negative_eps(self):
        with pytest.raises(DomainError):
            chernoff_two_sided(-0.1, 10, 0.5)


class TestExactTails:
    def test_small_cases_by_hand(self):
        # Bin(2, 1/2): P(X >= 1) = 3/4, P(X >= 2) = 1/4
        assert exact_binomial_upper_tail(2, Fraction(1, 2), 1) == Fraction(3, 4)
        assert exact_binomial_upper_tail(2, Fraction(1, 2), 2) == Fraction(1, 4)
        assert exact_binomial_upper_tail(2, Fraction(1, 2), 0) == 1

    def test_non_integer_threshold(self):
        assert exact_binomial_upper_tail(2, Fraction(1, 2), 0.5) == Fraction(3, 4)

    def test_degenerate_p(self):
        assert exact_binomial_upper_tail(5, 0, 1) == 0
        assert exact_binomial_upper_tail(5, 1, 5) == 1

    def test_two_sided_total(self):
        assert reference_binomial_two_sided(10, Fraction(1, 2), 0) == 1

    @given(st.integers(0, 200),
           st.one_of(st.fractions(0, 1, max_denominator=10**6),
                     st.floats(0, 1, allow_subnormal=False).map(Fraction),
                     st.sampled_from([Fraction(0), Fraction(1)])),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_pmf_sum_matches_termwise_fractions(self, n, p, data):
        # The termwise reference multiplies n powers of p's denominator, up to
        # 2^1074 for a float: at n = 200 and p = Fraction(1e-300) it takes
        # about 10 s, _pmf_sum 0.1 s.  Draws past this size budget are left
        # out; every input class stays, and the tiniest floats enter at n <= 15.
        assume(n * p.denominator.bit_length() <= 2**14)
        ks = data.draw(st.lists(st.integers(0, n), unique=True))
        for subset in (ks, range(n // 3, n + 1)):
            assert _pmf_sum(n, p, subset) == reference_pmf_sum(n, p, subset)


class TestPermanentBounds:
    def test_all_ones_equality(self):
        # r = n: the bound equals log n!, attained by the complete loopful digraph
        for n in (1, 4, 7):
            assert math.isclose(falikman_bound(n, n), math.log(math.factorial(n)))
            d = Digraph.complete(n, allow_loops=True)
            assert math.isclose(math.log(count_one_factors(d)), falikman_bound(n, n))

    def test_regular_digraphs_dominate(self, rng):
        for _ in range(10):
            n = int(rng.integers(8, 13))
            r = int(rng.integers(3, n + 1))
            shift = int(rng.integers(0, n))
            d = circulant(n, r, shift)
            perm = count_one_factors(d)
            # exact integer comparison: perm >= n! (r/n)^n
            assert perm * n ** n >= math.factorial(n) * r ** n

    def test_ordering_sanity(self):
        for n, r in ((10, 5), (14, 7), (20, 3)):
            assert gk_lower_bound(n, r) <= falikman_bound(n, r) + n

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            falikman_bound(5, 6)
        with pytest.raises(DomainError):
            gk_lower_bound(5, 0)


class TestEdgeDiscrepancy:
    def test_exhaustive_flag_small_n(self):
        d = gen_binomial(8, 0.3, True, 2)
        rep = edge_discrepancy_check(d, m3=12)
        assert rep.exhaustive

    def test_empty_sets_never_violate(self):
        d = Digraph(10, [], allow_loops=True)
        rep = edge_discrepancy_check(d, m3=5)
        assert rep.passed

    def test_one_vertex_rejected(self):
        with pytest.raises(DomainError):
            edge_discrepancy_check(Digraph(1, [], allow_loops=True), m3=1)

    @pytest.mark.parametrize("n", [10, 12])
    def test_exhaustive_worst_is_least_margin(self, n):
        # every cap-type margin recomputed from the full count table; the
        # centred gate admits no pair at n <= 12
        d = gen_binomial(n, 0.3, True, 1)
        m3 = math.ceil(2 * n * math.log(n) / 3)
        counts, pop = _pair_counts(d)
        s1, s2 = pop[:, None].astype(float), pop[None, :].astype(float)
        size_cap = math.floor(0.6 * n)
        gated = (s1 <= size_cap) & (s2 <= size_cap)
        reports = [(edge_discrepancy_check(d, m3), "cap", 4 * m3 / (5 * n)),
                   (gk_hypotheses(d, d.edge_count / n).discrepancy, "gk-subset",
                    0.8 * d.edge_count / n)]
        for rep, name, coef in reports:
            assert rep.tested.get("centred", 0) == 0
            margin = np.where(gated, coef * np.sqrt(s1 * s2) - counts, np.inf)
            r, c = divmod(int(margin.argmin()), margin.shape[1])  # first least, in scan order
            assert margin[r, c] < 0
            w = rep.worst
            assert (w.check, w.passed) == (name, False)
            assert (w.x1_size, w.x2_size, w.observed) == (pop[r], pop[c], counts[r, c])
            assert w.margin == pytest.approx(margin[r, c], rel=1e-12)

    def test_exhaustive_matches_recount(self):
        import math as _m

        n = 10
        m3 = _m.ceil(2 / 3 * n * _m.log(n))
        d = couple(gen_process(n, "loopful", 5)).loopful.prefix(m3)
        from hamcount.analysis import _pair_counts

        counts, pop = _pair_counts(d)
        rng = np.random.default_rng(1)
        for _ in range(400):
            m1, m2 = int(rng.integers(1 << n)), int(rng.integers(1 << n))
            x1 = [v for v in range(n) if m1 >> v & 1]
            x2 = [v for v in range(n) if m2 >> v & 1]
            brute = sum(1 for u in x1 for v in x2 if d.has_edge(u, v))
            assert counts[m1, m2] == brute

    def test_sampled_mode_runs(self):
        d = gen_binomial(60, 0.05, True, 3)
        rep = edge_discrepancy_check(d, m3=int(60 * 60 * 0.05), samples=300, seed=1)
        assert not rep.exhaustive
        assert sum(rep.tested.values()) > 0


class TestGkHypotheses:
    def test_regular_degrees_pass(self):
        rep = gk_hypotheses(circulant(20, 5), r=5, samples=200, seed=0)
        assert rep.degree_ok

    def test_degree_window_failure_detected(self):
        # the window is (1 +/- 4/loglog n) r: only the upper side can bind at
        # moderate n, so plant a vertex whose out-degree exceeds it
        d = Digraph(20, [(0, v) for v in range(1, 13)])
        rep = gk_hypotheses(d, r=2, samples=50, seed=0)  # hi ~ 9.3
        assert not rep.degree_ok
        assert 0 in rep.degree_offenders

    def test_exhaustive_vs_sampled_consistency(self, monkeypatch):
        n = 10
        m3 = math.ceil(2 * n * math.log(n) / 3)
        # two instances that violate, and the complete digraph, which passes
        instances = [(gen_binomial(n, 0.3, True, 1), m3), (gen_binomial(n, 0.1, True, 5), m3),
                     (Digraph.complete(n, allow_loops=True), n * n)]

        def scans(d, m3, **kw):
            return [edge_discrepancy_check(d, m3, **kw),
                    gk_hypotheses(d, d.edge_count / n, **kw).discrepancy]

        exhaustive = [scans(d, m3) for d, m3 in instances]
        monkeypatch.setattr(analysis, "EXHAUSTIVE_MAX_N", 0)  # force the sampled path
        sampled = [scans(d, m3, samples=2000, seed=9) for d, m3 in instances]
        for (d, _), full_scans, sampled_scans in zip(instances, exhaustive, sampled):
            counts, pop = _pair_counts(d)
            triples = set(zip(np.repeat(pop, len(pop)).tolist(),
                              np.tile(pop, len(pop)).tolist(), counts.ravel().tolist()))
            for full, part in zip(full_scans, sampled_scans):
                assert full.exhaustive and not part.exhaustive
                # sampling flags only what the full scan flags, and passes
                # wherever it passes
                assert set(part.violations) <= set(full.violations)
                assert part.passed or not full.passed
                # a sampled report records every tested pair with its verdict
                for name, tested in part.tested.items():
                    verdicts = [r.passed for r in part.records if r.check == name]
                    assert len(verdicts) == tested
                    assert verdicts.count(False) == part.violations.get(name, 0)
                # every sampled edge count is one the full count table holds
                assert all((r.x1_size, r.x2_size, r.observed) in triples for r in part.records)
        assert exhaustive[2][0].passed and exhaustive[2][1].passed
        # at p = 0.3 over half the gated pairs violate the cap check
        assert exhaustive[0][0].violations["cap"] > 0.5 * exhaustive[0][0].tested["cap"]
        assert sampled[0][0].violations["cap"] > 0


class TestRegularize:
    def test_regular_instance_untouched(self):
        d = Digraph.complete(8, allow_loops=True)
        out = regularize_degrees(d, OneFactor(range(8)), 0.5, 8.0)
        assert not out.removed
        assert out.active_left == frozenset(range(8))

    def test_zero_degree_vertex_removed(self):
        edges = [(u, v) for u in range(1, 5) for v in range(5) if u != v]
        d = Digraph(5, edges)  # vertex 0 has out-degree 0
        out = regularize_degrees(d, OneFactor(range(5))
                                 if False else OneFactor([0, 1, 2, 3, 4]), 0.9, 3.0)
        assert (0, 0) in out.removed

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_final_window_verified_by_recount(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        d = random_digraph(rng, n, 0.5, allow_loops=True)
        m = OneFactor(rng.permutation(n).tolist())
        eps = float(rng.uniform(0.1, 0.9))
        target = float(rng.uniform(1.0, n))
        out = regularize_degrees(d, m, eps, target)
        lo, hi = (1 - eps) * target, (1 + eps) * target
        for v in out.active_left:
            deg = sum(1 for w in d.out_neighbors(v) if w in out.active_right)
            assert lo <= deg <= hi
            assert out.out_degrees[v] == deg
        for w in out.active_right:
            deg = sum(1 for u in d.in_neighbors(w) if u in out.active_left)
            assert lo <= deg <= hi
            assert out.in_degrees[w] == deg
        # removed pairs are matching edges and pairwise disjoint
        lefts = [a for a, _ in out.removed]
        rights = [b for _, b in out.removed]
        assert len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)
        assert all(m.image[a] == b for a, b in out.removed)


class TestRelabel:
    def test_identity_factor_gets_sigma_cycle_type(self, rng):
        sigma = rng.permutation(9).tolist()
        relabeled = relabel_factor(OneFactor(range(9)), sigma)
        assert relabeled.image == tuple(sigma)

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            relabel_factor(OneFactor(range(3)), [0, 0, 1])
        with pytest.raises(DomainError):
            relabel_factor(OneFactor(range(3)), [0, 1])


class TestPermutationStats:
    def test_n_one(self):
        s = permutation_cycle_stats(1, 50, 0)
        assert s.fixed_point_histogram == {1: 50}
        assert s.cycle_count_mean == 1.0 and s.cycle_count_sd == 0.0

    def test_cycle_counts_match_direct_computation(self):
        from hamcount.analysis import _cycle_counts
        from hamcount.exact import OneFactor as OF

        rng = np.random.default_rng(3)
        perms = np.array([rng.permutation(9) for _ in range(200)])
        fast = _cycle_counts(perms)
        slow = [OF(p.tolist()).num_cycles for p in perms]
        assert fast.tolist() == slow

    def test_moderate_run_statistics(self):
        s = permutation_cycle_stats(300, 20_000, 11)
        assert abs(s.mean_fixed_points - 1.0) < 0.05
        assert abs(s.cycle_count_mean - harmonic_number(300)) < 0.1
        ref = fixed_point_reference(300, 12)
        assert tv_distance(s.fixed_point_histogram, ref, s.trials) < 0.02

    def test_determinism(self):
        a = permutation_cycle_stats(50, 500, 9)
        b = permutation_cycle_stats(50, 500, 9)
        assert a.to_dict() == b.to_dict()


class TestReferenceDistribution:
    def test_sums_to_one(self):
        assert sum(fixed_point_reference(8), Fraction(0)) == 1

    def test_tv_of_exact_sample_is_zero(self):
        ref = fixed_point_reference(3)
        hist = {0: 2, 1: 3, 2: 0, 3: 1}
        assert tv_distance(hist, ref, 6) == 0.0
