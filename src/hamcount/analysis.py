"""Bound calculators and statistical checkers.

Binomial tail bounds (with their validity conditions), exact rational tails
to compare them against, permanent lower bounds for regular bipartite
digraphs, edge-discrepancy pseudorandomness checks, greedy degree
regularisation, 1-factor relabeling, and random-permutation cycle
statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .digraph import Digraph
from .errors import DomainError
from .exact import OneFactor, _subset_sums, rencontres
from .rng import make_generator

EXACT_TAIL_MAX_N = 1000  # rational arithmetic cap; larger n raise DomainError


# -- Chernoff-style bounds -----------------------------------------------------


@dataclass(frozen=True)
class TailBound:
    """A bound value plus the validity of its precondition.

    ``value`` is an upper bound for the tail probability whenever ``valid``
    is true; it is reported raw, so degenerate parameters can push it above 1
    (e.g. the two-sided bound at eps = 0 evaluates to 2).  ``log_value`` is
    the natural log of the bound: deep in the tail the linear value
    underflows float64 (around e^-745) while the log stays exact.
    """

    value: float
    valid: bool
    params: dict
    log_value: float = 0.0


def chernoff_upper(a: float, n: int, p: float) -> TailBound:
    """Upper-tail bound (e EX / a)^a = exp(-a (log(a/EX) - 1)); valid when a > 4 EX.

    This is the classic moment bound Pr(X >= a) <= e^{-EX} (e EX/a)^a with
    the e^{-EX} slack dropped, so dominance over the exact tail holds for
    every a above the mean and in particular throughout the validity range.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability p must lie in [0,1], got {p}")
    mean = n * p
    valid = a > 4 * mean
    if mean == 0.0:
        log_value = -math.inf if a >= 1 else 0.0
    elif a <= 0:
        log_value = 0.0
    else:
        log_value = -a * (math.log(a / mean) - 1.0)
    return TailBound(math.exp(log_value), valid,
                     {"a": a, "n": n, "p": p, "mean": mean}, log_value)


def chernoff_two_sided(eps: float, n: int, p: float) -> TailBound:
    """Two-sided bound 2 exp(-(eps^2/3) EX); valid when eps <= 3/2."""
    if eps < 0:
        raise DomainError(f"relative deviation must be non-negative, got {eps}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability p must lie in [0,1], got {p}")
    mean = n * p
    log_value = math.log(2.0) - (eps * eps / 3.0) * mean
    return TailBound(math.exp(log_value), eps <= 1.5,
                     {"eps": eps, "n": n, "p": p, "mean": mean}, log_value)


def exact_binomial_upper_tail(n: int, p, a) -> Fraction:
    """Pr(X >= a) for X ~ Bin(n, p), exact (n <= 1000)."""
    if n > EXACT_TAIL_MAX_N:
        raise DomainError(f"exact tails are rational-arithmetic only up to n={EXACT_TAIL_MAX_N}")
    p = Fraction(p)
    if not (0 <= p <= 1):
        raise DomainError("p outside [0,1]")
    k0 = max(0, math.ceil(Fraction(a)))
    if k0 > n:
        return Fraction(0)
    return _pmf_sum(n, p, range(k0, n + 1))


def _pmf_sum(n: int, p: Fraction, ks: Iterable[int]) -> Fraction:
    """Sum of Pr(X = k) over ``ks`` (each in [0, n]) for X ~ Bin(n, p).

    With p = a/b in lowest terms every term is C(n, k) a^k (b - a)^(n - k)
    over the common denominator b^n, so the sum is one integer sum and one
    ``Fraction`` reduction, instead of a gcd on every partial sum.  The
    powers come from running products; p = 0 and p = 1 need no branch,
    since 0^0 = 1.
    """
    a, b = p.numerator, p.denominator
    up = list(accumulate(repeat(a, n), mul, initial=1))
    down = list(accumulate(repeat(b - a, n), mul, initial=1))
    return Fraction(sum(math.comb(n, k) * up[k] * down[n - k] for k in ks), b ** n)


# -- permanent lower bounds ------------------------------------------------------


def falikman_bound(n: int, r) -> float:
    """log of n! (r/n)^n: the doubly-stochastic permanent minimum scaled to
    row/column sums r."""
    if not (0 < r <= n):
        raise DomainError(f"need 0 < r <= n, got r={r}, n={n}")
    return math.log(math.factorial(n)) + n * (math.log(r) - math.log(n))


def gk_lower_bound(n: int, r, slack: float = 0.1) -> float:
    """log of ((r - slack*r)/e)^n, the pseudorandom-digraph 1-factor count bound."""
    if not (0 < r <= n):
        raise DomainError(f"need 0 < r <= n, got r={r}, n={n}")
    if not (0 <= slack < 1):
        raise DomainError(f"slack must lie in [0,1), got {slack}")
    return n * (math.log(r * (1.0 - slack)) - 1.0)


# -- edge discrepancy --------------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    x1_size: int
    x2_size: int
    observed: int
    bound: float
    check: str          # which inequality this pair was tested against
    passed: bool
    margin: float       # bound minus observed deviation (negative = violation)


@dataclass
class DiscrepancyReport:
    exhaustive: bool
    tested: dict = field(default_factory=dict)      # check name -> pairs tested
    violations: dict = field(default_factory=dict)  # check name -> violation count
    records: list = field(default_factory=list)     # tested sampled pairs / violations
    worst: Optional[PairRecord] = None

    def note(self, rec: PairRecord) -> None:
        """Keep a record (an exhaustive report keeps at most 500); the counts
        and the worst violation are set by the scanner."""
        if not self.exhaustive or len(self.records) < 500:
            self.records.append(rec)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "exhaustive": self.exhaustive,
            "tested": dict(sorted(self.tested.items())),
            "violations": dict(sorted(self.violations.items())),
            "passed": self.passed,
            "worst": None if self.worst is None else vars(self.worst),
        }


EXHAUSTIVE_MAX_N = 12

# A subset-pair check is (name, gate, bound, metric).  A pair with sizes s1,
# s2 and e = e(X1, X2) edges is tested when gate(s1, s2) holds and violates
# the check when metric(e, s1 s2) > bound(s1 s2).  All three work elementwise
# on arrays, so one entry serves the exhaustive and the sampled scan.


def _size_capped(name: str, n: int, coef: float) -> tuple:
    """e(X1,X2) <= coef sqrt(|X1||X2|) for pairs with both sizes at most 3n/5."""
    size_cap = math.floor(0.6 * n)
    return (name, lambda s1, s2: (s1 <= size_cap) & (s2 <= size_cap),
            lambda prod: coef * np.sqrt(prod), lambda e, prod: e)


def edge_discrepancy_check(d: Digraph, m3: int, samples: int = 10_000,
                           seed: int = 0) -> DiscrepancyReport:
    """Check subset-pair edge counts of a two-thirds-prefix digraph.

    Centred check: |e(X1,X2) - |X1||X2| m3/n^2| <= 4 sqrt(|X1||X2| m3/n),
    applied to pairs with |X1||X2| >= 4 n^2 / ln n.  That gate exceeds n^2,
    the largest product, for every n below about 55, so there the check
    tests no pair and an exhaustive report always shows ``centred: 0``.
    Cap check: e(X1,X2) <= (4 m3 / 5n) sqrt(|X1||X2|) for sizes <= 3n/5.
    Exhaustive over all subset pairs for n <= 12, sampled otherwise.
    """
    n = d.n
    if n < 2:
        raise DomainError(f"the discrepancy check needs n >= 2, got {n}")
    min_prod = 4.0 * n * n / math.log(n)
    centred = ("centred", lambda s1, s2: s1 * s2 >= min_prod,
               lambda prod: 4.0 * np.sqrt(prod * m3 / n),
               lambda e, prod: abs(e - prod * m3 / (n * n)))
    cap = _size_capped("cap", n, 4.0 * m3 / (5.0 * n))
    return _scan_subset_pairs(d, [centred, cap], samples, seed, n)


def _scan_subset_pairs(d: Digraph, checks: list, samples: int, seed: int,
                       max_size: int) -> DiscrepancyReport:
    """Apply each check to every subset pair when n <= EXHAUSTIVE_MAX_N, in
    blocks of 256 rows to bound peak memory, and otherwise to ``samples``
    random pairs with sizes uniform on 0..max_size.

    A sampled report records every tested pair in draw order; an exhaustive
    one records only violations, at most 200 per block.  ``worst`` is the
    violation of least margin over every tested pair, the first in scan order
    on a tie.
    """
    exhaustive = d.n <= EXHAUSTIVE_MAX_N
    report = DiscrepancyReport(exhaustive)
    if exhaustive:
        counts, pop = _pair_counts(d)
        pop = pop.astype(np.float64)
        blocks = [(pop[i:i + 256, None], pop, counts[i:i + 256])
                  for i in range(0, len(pop), 256)]
    else:
        blocks = [_sampled_pairs(d, samples, seed, max_size)]
    columns, worst = [], []
    for name, gate, bound, metric in checks:
        if exhaustive:  # a sampled report lists only the checks its pairs reach
            report.tested[name] = 0
        for s1, s2, e in blocks:
            gated = gate(s1, s2)
            if not gated.any():
                continue
            prod = s1 * s2
            b, dev = bound(prod), metric(e, prod)
            bad = gated & (dev > b)
            report.tested[name] = report.tested.get(name, 0) + int(gated.sum())
            if bad.any():
                report.violations[name] = report.violations.get(name, 0) + int(bad.sum())
            if exhaustive:
                def record(r, c):
                    return PairRecord(int(s1[r, 0]), int(s2[c]), int(e[r, c]), float(b[r, c]),
                                      name, False, float(b[r, c] - dev[r, c]))

                for r, c in np.argwhere(bad)[:200]:
                    report.note(record(r, c))
                if bad.any():
                    margin = np.where(bad, b - dev, np.inf)
                    worst.append(record(*divmod(int(margin.argmin()), margin.shape[1])))
            else:
                columns.append((name, gated.tolist(), bad.tolist(), b.tolist(), dev.tolist()))
    if not exhaustive:
        for i, (s1, s2, e) in enumerate(blocks[0].T.tolist()):
            for name, gated, bad, b, dev in columns:
                if gated[i]:
                    report.note(PairRecord(s1, s2, e, b[i], name, not bad[i], b[i] - dev[i]))
        worst = [rec for rec in report.records if not rec.passed]
    report.worst = min(worst, key=lambda rec: rec.margin, default=None)
    return report


def _sampled_pairs(d: Digraph, samples: int, seed: int, max_size: int) -> np.ndarray:
    """Rows |X1|, |X2|, e(X1, X2), one column per random subset pair, with
    sizes uniform on 0..max_size, drawn in a fixed order from ``seed``."""
    n = d.n
    rng = make_generator(seed)
    us, vs = np.divmod(d.codes, n)
    pairs = np.zeros((samples, 3), dtype=np.int64)
    for pair in pairs:
        s1, s2 = int(rng.integers(0, max_size + 1)), int(rng.integers(0, max_size + 1))
        in1 = np.zeros(n, dtype=bool); in1[rng.permutation(n)[:s1]] = True
        in2 = np.zeros(n, dtype=bool); in2[rng.permutation(n)[:s2]] = True
        pair[:] = s1, s2, np.count_nonzero(in1[us] & in2[vs])
    return pairs.T


def _pair_counts(d: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """counts[mask1, mask2] = e(X1, X2) over all subset pairs, plus popcounts."""
    adj = d.adjacency_matrix().astype(np.int32)
    counts = _subset_sums(adj.T).T @ _subset_sums(np.eye(d.n, dtype=np.int32))
    return counts, _subset_sums(np.ones((1, d.n), dtype=np.int32))[0]


@dataclass
class GkReport:
    """Degree-window and subset-bound hypotheses for the 1-factor count bound.

    ``r_over_loglog`` is reported (not gated on): the count bound is only
    meaningful when the target degree dwarfs log log n.
    """

    degree_ok: bool
    degree_lo: float
    degree_hi: float
    degree_offenders: list
    r_over_loglog: float
    discrepancy: DiscrepancyReport

    @property
    def passed(self) -> bool:
        return self.degree_ok and self.discrepancy.passed


def gk_hypotheses(d: Digraph, r: float, samples: int = 10_000, seed: int = 0) -> GkReport:
    """Degrees within (1 +/- 4/loglog n) r, and e(X1,X2) <= (4r/5) sqrt(|X1||X2|)
    for subset pairs with both sizes at most 3n/5."""
    if r <= 0:
        raise DomainError(f"target degree must be positive, got {r}")
    n = d.n
    eps = 4.0 / math.log(math.log(n)) if n >= 16 else math.inf
    lo, hi = (1 - eps) * r, (1 + eps) * r
    outd, ind = d.degrees()
    offenders = sorted(
        int(v) for v in range(n)
        if not (lo <= outd[v] <= hi) or not (lo <= ind[v] <= hi)
    )
    disc = _scan_subset_pairs(d, [_size_capped("gk-subset", n, 0.8 * r)], samples, seed,
                              math.floor(0.6 * n))
    loglog = math.log(math.log(n)) if n >= 3 else float("nan")
    return GkReport(not offenders, lo, hi, offenders, r / loglog, disc)


# -- greedy degree regularisation ----------------------------------------------------


@dataclass
class RegularizedInstance:
    active_left: frozenset
    active_right: frozenset
    removed: list               # matching pairs (left, right), in removal order
    out_degrees: dict           # surviving left vertex -> degree into active right
    in_degrees: dict            # surviving right vertex -> degree from active left


def regularize_degrees(g: Digraph, m: OneFactor, window_eps: float, target: float) -> RegularizedInstance:
    """Repeatedly remove the matching pair of any vertex whose bipartite
    degree falls outside (1 +/- window_eps) * target.

    Left degrees are out-degrees into the surviving right side; right degrees
    are in-degrees from the surviving left side.  Termination is guaranteed:
    every step removes one pair.
    """
    n = g.n
    if m.n != n:
        raise DomainError("matching size differs from the digraph order")
    lo, hi = (1 - window_eps) * target, (1 + window_eps) * target
    inv = [0] * n
    for v, w in enumerate(m.image):
        inv[w] = v
    active_left = set(range(n))
    active_right = set(range(n))
    outd, ind = (dict(enumerate(deg.tolist())) for deg in g.degrees())
    removed: list[tuple[int, int]] = []

    def bad_left(v):
        return not (lo <= outd[v] <= hi)

    def bad_right(v):
        return not (lo <= ind[v] <= hi)

    while True:
        v = next((u for u in sorted(active_left) if bad_left(u)), None)
        side = "left"
        if v is None:
            v = next((w for w in sorted(active_right) if bad_right(w)), None)
            side = "right"
        if v is None:
            break
        left = v if side == "left" else inv[v]
        right = m.image[left]
        removed.append((left, right))
        active_left.discard(left)
        active_right.discard(right)
        for w in g.out_neighbors(left).tolist():
            if w in active_right:
                ind[w] -= 1
        for u in g.in_neighbors(right).tolist():
            if u in active_left:
                outd[u] -= 1
    return RegularizedInstance(
        frozenset(active_left), frozenset(active_right), removed,
        {v: outd[v] for v in sorted(active_left)},
        {v: ind[v] for v in sorted(active_right)},
    )


# -- relabeling --------------------------------------------------------------------


def _check_permutation(sigma: Sequence[int], n: int) -> list[int]:
    s = [int(x) for x in sigma]
    if sorted(s) != list(range(n)):
        raise DomainError("sigma is not a permutation of the vertex set")
    return s


def relabel_factor(f: OneFactor, sigma: Sequence[int]) -> OneFactor:
    """sigma composed with the successor map."""
    s = _check_permutation(sigma, f.n)
    return OneFactor([s[w] for w in f.image])


# -- random permutation statistics -----------------------------------------------------


@dataclass
class PermutationStats:
    n: int
    trials: int
    fixed_point_histogram: dict
    mean_fixed_points: float
    cycle_count_mean: float
    cycle_count_sd: float
    many_cycles_threshold: float
    fraction_many_cycles: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "fixed_point_histogram": {str(k): v for k, v in sorted(self.fixed_point_histogram.items())},
            "mean_fixed_points": self.mean_fixed_points,
            "cycle_count_mean": self.cycle_count_mean,
            "cycle_count_sd": self.cycle_count_sd,
            "many_cycles_threshold": self.many_cycles_threshold,
            "fraction_many_cycles": self.fraction_many_cycles,
        }


def permutation_cycle_stats(n: int, trials: int, seed: int = 0) -> PermutationStats:
    """Fixed-point and cycle-count statistics of uniform random permutations.

    Permutations are drawn in batches; cycle counts come from leader
    counting (a vertex is counted when it is the minimum of its cycle) via
    pointer doubling, so a batch costs O(n log n) vector work.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = make_generator(seed)
    hist: dict[int, int] = {}
    fp_total = 0
    cyc_sum = 0.0
    cyc_sumsq = 0.0
    threshold = 2.0 * math.log(n)
    many = 0
    batch = max(1, min(trials, 1_000_000 // max(n, 1)))
    left = trials
    idx = np.arange(n)
    while left > 0:
        b = min(batch, left)
        perms = rng.permuted(np.tile(idx, (b, 1)), axis=1)
        fixed = (perms == idx).sum(axis=1)
        for k, cnt in zip(*np.unique(fixed, return_counts=True)):
            hist[int(k)] = hist.get(int(k), 0) + int(cnt)
        fp_total += int(fixed.sum())
        cycles = _cycle_counts(perms)
        cyc_sum += float(cycles.sum())
        cyc_sumsq += float((cycles.astype(np.float64) ** 2).sum())
        many += int((cycles >= threshold).sum())
        left -= b
    mean_c = cyc_sum / trials
    var_c = max(0.0, cyc_sumsq / trials - mean_c * mean_c)
    return PermutationStats(
        n=n, trials=trials, fixed_point_histogram=hist,
        mean_fixed_points=fp_total / trials,
        cycle_count_mean=mean_c, cycle_count_sd=math.sqrt(var_c),
        many_cycles_threshold=threshold,
        fraction_many_cycles=many / trials,
    )


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Number of cycles per row: count vertices that are their cycle's minimum.

    The pointer doubling runs one row at a time, so its working set of a few
    n-element arrays stays in cache; over a whole batch it would not.
    """
    b, n = perms.shape
    idx = np.arange(n)
    steps = max(1, math.ceil(math.log2(max(n, 2))))
    counts = np.empty(b, dtype=np.int64)
    for r, power in enumerate(perms):
        mins = np.minimum(idx, power)
        for _ in range(steps):
            mins = np.minimum(mins, mins[power])
            power = power[power]
        counts[r] = np.count_nonzero(mins == idx)
    return counts


def fixed_point_reference(n: int, k_max: Optional[int] = None) -> list[Fraction]:
    """Exact distribution of fixed-point counts of a uniform permutation."""
    k_max = n if k_max is None else min(k_max, n)
    total = math.factorial(n)
    return [Fraction(rencontres(n, k), total) for k in range(k_max + 1)]


def tv_distance(histogram: dict, reference: Sequence[Fraction], trials: int) -> float:
    """Total-variation distance between an empirical histogram and an exact
    reference distribution over {0, 1, ..., len(reference)-1}."""
    acc = Fraction(0)
    seen = 0
    for k, p in enumerate(reference):
        cnt = histogram.get(k, 0)
        seen += cnt
        acc += abs(Fraction(cnt, trials) - p)
    acc += Fraction(trials - seen, trials)  # mass observed beyond the reference support
    return float(acc / 2)


def harmonic_number(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))
