#!/usr/bin/env python3
"""Check the exact counters up to their default cap of n = 24.

    PYTHONPATH=src python scripts/check_exact_frontier.py            # seeds 4 and 1
    PYTHONPATH=src python scripts/check_exact_frontier.py --seed 1   # 297,613 factors

The checks, each printed with its time:
- HC of the first 2,000 digraphs of the expected-count experiment at n = 8
  (D(8, 0.6), master seed 20260801, as in the ``exact_small`` benchmark
  workload), each against its 1-factors with a single cycle and no loop,
  enumerated in full; the line gives the median time of one count, which
  takes the table step of the Hamilton-cycle programme;
- HC(K_n) = (n-1)! for the complete loop-free digraph K_n, n = 2..24;
- per(J_n) = n! for the all-ones n x n matrix J_n, n = 0..24;
- at n = 22 and at n = 24, the loopful random edge process of the seed
  given by --seed and --seed24, stopped at its hitting time m*: of its
  1-factors, enumerated in full, those with a single cycle and no loop
  number HC(m*), and all of them number per(m*); per(m*) is also counted
  on the minor that the Laplace steps leave by Glynn's formula and by the
  row programme with every row on int64 arrays.

From n = 16 on, (n-1)! and n! pass every modulus, so these counts go
through wrapped residues and, from n = 21 on, Chinese remaindering.  per(J_n)
is counted by Glynn's formula from n = 2 on and per(m*) by the row
programme over live column sets, its first rows on Python ints, so both
permanent kernels and both row representations are checked; K_n and J_n
have no forced edge, while the m* digraphs are counted after contraction
and Laplace steps.  The last line gives the peak resident memory.  Exit
code 0 when every check holds, the n = 8 line included, 1 otherwise.  At
the default seeds (n = 22: m* = 87, 4,062 factors, 358 Hamilton cycles;
n = 24: m* = 95, 1,183 factors, 21 Hamilton cycles) a run takes 25–35 s
and 0.75 GB on a 2-core host, nearly all of it HC(K_n), per(J_n) and the
enumerations, so it is kept out of the test suite; HC(K_24) alone takes
12–13 s.  There contraction leaves 18 and 13 vertices, so HC(m*) takes 4-5
and 1 ms (30 ms and 0.4 s uncontracted), and the Laplace steps leave minors of order 18, whose
permanent takes 1 ms by the gate's choice, the programme, 2 ms with every
row on arrays and 13 ms by Glynn's formula; enumerating the factors of
seed 1 at n = 22 adds about 50 s.  The n = 8 line takes a few seconds,
most of them in the enumeration.
"""
import argparse
import math
import resource
import sys
import time
from unittest import mock

import numpy as np

from hamcount import exact
from hamcount.digraph import Digraph, gen_binomial, gen_process, hitting_time
from hamcount.exact import (
    DEFAULT_CAP,
    count_hamilton_cycles,
    count_one_factors,
    enumerate_one_factors,
    permanent,
)
from hamcount.rng import derive_seed

FACTOR_LIMIT = 10**6
SMALL_TRIALS = 2000
SMALL_SEED = 20260801


def check(label: str, got: int, want: int) -> bool:
    ok = got == want
    print(f"{label:34s} {'ok  ' if ok else 'FAIL'} {got}" + ("" if ok else f" != {want}"),
          flush=True)
    return ok


def timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - t0


def check_process(n: int, seed: int) -> bool:
    """HC and per of the loopful process of the seed at its hitting time,
    against its 1-factors enumerated in full."""
    seq = gen_process(n, "loopful", seed)
    m_star = hitting_time(seq)
    d = seq.prefix(m_star)
    print(f"n = {n}, seed {seed}: m* = {m_star}, {sum(d.has_edge(v, v) for v in range(n))} loops")
    factors, t = timed(enumerate_one_factors, d, FACTOR_LIMIT)
    if factors.truncated:
        print(f"more than {FACTOR_LIMIT} 1-factors: not enumerated in full")
        return False
    hamiltonian = sum(1 for f in factors if f.num_cycles == 1 and f.num_loops == 0)
    hc, t_hc = timed(count_hamilton_cycles, d)
    per, t_per = timed(count_one_factors, d)
    print(f"enumerated {len(factors)} 1-factors in {t:.2f} s")
    ok = check(f"HC(m*) ({t_hc:.3f} s)", hc, hamiltonian)
    ok &= check(f"per(m*) ({t_per:.3f} s)", per, len(factors))
    # the same minor by each kernel, whatever the gate picks, rebuilt from
    # the residues that the bound n'! needs (two at n' = 18)
    minor = exact._laplace_minor(d.adjacency_matrix())[0]
    rows = minor[exact._row_order(minor)[0]]
    bound = math.factorial(len(minor))
    per, t_per = timed(exact._from_residues, bound, lambda p: exact._glynn_residue(minor, p))
    ok &= check(f"per(m*), Glynn, n' = {len(minor)} ({t_per:.3f} s)", per, len(factors))
    with mock.patch.object(exact, "_INT_CANDIDATES", 0):  # every row on int64 arrays
        per, t_per = timed(exact._from_residues, bound, lambda p: exact._row_dp_residue(rows, p))
    ok &= check(f"per(m*), arrays ({t_per:.3f} s)", per, len(factors))
    return ok


def check_small() -> bool:
    """HC of the first ``SMALL_TRIALS`` D(8, 0.6) digraphs of the seed
    ``SMALL_SEED``, each against its 1-factors; prints the median time of a
    count."""
    agree = 0
    times = []
    for i in range(SMALL_TRIALS):
        d = gen_binomial(8, 0.6, False, derive_seed(SMALL_SEED, i))
        hc, t = timed(count_hamilton_cycles, d)
        times.append(t)
        factors = enumerate_one_factors(d, math.factorial(8))
        agree += hc == sum(1 for f in factors if f.num_cycles == 1 and f.num_loops == 0)
    micros = 1e6 * float(np.median(times))
    return check(f"HC(D(8, 0.6)) agree ({micros:.1f} us)", agree, SMALL_TRIALS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=4, help="seed of the n = 22 process")
    parser.add_argument("--seed24", type=int, default=1, help="seed of the n = 24 process")
    args = parser.parse_args(argv)
    ok = check_small()
    for n in range(DEFAULT_CAP + 1):
        if n >= 2:
            hc, t = timed(count_hamilton_cycles, Digraph.complete(n))
            ok &= check(f"HC(K_{n}) ({t:.2f} s)", hc, math.factorial(n - 1))
        per, t = timed(permanent, np.ones((n, n), dtype=np.int64))
        ok &= check(f"per(J_{n}) ({t:.2f} s)", per, math.factorial(n))

    for n, seed in ((22, args.seed), (24, args.seed24)):
        ok &= check_process(n, seed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
