"""The four benchmark workloads: inputs from a seed, rounds, exact outputs, checks.

A run is a sequence of rounds.  Round 0 uses the master seed itself, so at a
workload's default seed it replays the committed config of the same name
(or its first trials); later rounds draw fresh master seeds from it.  The
exact outputs of the golden rounds at the default seed are hashed and
compared with ``goldens.json``.  Floats never enter a digest: float
aggregates are re-derived from the records and compared with a tolerance.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time

import numpy as np

from hamcount import digraph, exact, harness
from hamcount.frieze import PipelineConfig, compute_constants
from hamcount.rng import derive_seed

import spans

FAILURE_PHASES = {"one_factor", "goodness", "merge", "phase3", "eliminate",
                  "verify", "overlap"}


def round_seed(master: int, r: int) -> int:
    if r == 0:
        return master
    return int(np.random.SeedSequence([master, r]).generate_state(1, np.uint64)[0])


def digest(exact_outputs: list) -> str:
    text = json.dumps(exact_outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


CAL_EVERY_S = 0.5      # calibrate after the first trial ending this long after the last


def _array_kernel() -> None:
    """Dict and tuple churn in the interpreter, a few small numpy calls, a
    permutation, unique and isin on large arrays, and a set of pairs."""
    x, seen = 1, {}
    for i in range(8_000):
        x = (x * 48271) % 2147483647
        key = (x & 1023, i & 63)
        seen[key] = seen.get(key, 0) + 1
    v = np.arange(64, dtype=np.int64)
    for _ in range(200):
        np.dot(v, v)
    p = np.random.Generator(np.random.PCG64(7)).permutation(1 << 19)
    np.unique(p[: 1 << 15] % 50_000, return_index=True)
    np.isin(p[: 1 << 15], p[1 << 17:])
    sorted(frozenset(zip((p[:10_000] // 2000).tolist(), (p[:10_000] % 2000).tolist())))


def _calls_kernel() -> None:
    """Many tiny numpy calls between interpreter steps: a bitmask DP over
    the 128 subsets of 7 vertices on small random digraphs, then a loop of
    big-int products."""
    rng = np.random.Generator(np.random.PCG64(11))
    bits = np.arange(7)
    for _ in range(45):
        adj = (rng.random((8, 8)) < 0.6).astype(np.int64)
        inner = np.ascontiguousarray(adj[1:, 1:])
        dp = np.zeros((128, 7), dtype=np.int64)
        dp[1 << bits, bits] = adj[0, 1:]
        for mask in range(1, 127):
            row = dp[mask]
            if not row.any():
                continue
            contrib = np.dot(row, inner)
            rem = 127 & ~mask
            while rem:
                bit = rem & -rem
                w = bit.bit_length() - 1
                if contrib[w]:
                    dp[mask | bit, w] += contrib[w]
                rem ^= bit
    sums = [10**12 + i for i in range(12)]
    for k in range(600):
        sums[k % 12] += k
        math.prod(sums)


# Each kernel with the time that defines one reference-second for it.  The
# two parts were timed side by side (0.040 s and 0.036 s), so that a
# reference-second means the same host speed under both kernels.  "array"
# calibrates the workloads dominated by large-array numpy calls; "mixed"
# calibrates the exact workloads, whose tiny numpy calls between
# interpreter steps speed up and slow down with the host more than
# "array" does.
KERNELS = {"array": ((_array_kernel,), 0.04),
           "mixed": ((_array_kernel, _calls_kernel), 0.076)}


def calibration_kernel(kind: str = "array") -> float:
    """Seconds for a fixed piece of work in the mix that some workloads run.
    It never touches hamcount, so no change to hamcount moves it."""
    parts = KERNELS[kind][0]
    collecting = gc.isenabled()
    gc.disable()  # a collection of the workload's garbage is no part of the kernel
    t0 = time.perf_counter()
    for work in parts:
        work()
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


def host_speed(kind: str = "array", samples: int = 3) -> float:
    """The reference time over the median of a few kernel timings, after a warm-up."""
    calibration_kernel(kind)
    timings = [calibration_kernel(kind) for _ in range(samples)]
    return KERNELS[kind][1] / statistics.median(timings)


class Probe:
    """Per-trial wall times and, for the pipeline, the full cycles that the
    report abbreviates to ``cycle_head``.  Active in every pass.

    With ``calibrate`` set it also times ``calibration_kernel`` at the start,
    between trials about every ``CAL_EVERY_S``, and at the end, so that each
    trial lies between two kernel timings and can be expressed at a
    reference host speed; the kernel's time is kept out of every trial and
    round time.
    """

    def __init__(self, experiment: str | None, calibrate: bool = False, kernel: str = "array"):
        self.experiment = experiment
        self.calibrate = calibrate
        self.kernel = kernel
        self.trial_s: list[float] = []
        self.trial_cal: list[int] = []   # per trial: index of the kernel timed before it
        self.cal_s: list[float] = []
        self.cycles: dict[int, tuple | None] = {}
        self._patches = spans.Patches()
        self._last_cal = time.perf_counter()

    def calibrate_now(self) -> None:
        self.cal_s.append(calibration_kernel(self.kernel))
        self._last_cal = time.perf_counter()

    def speeds(self) -> list[float]:
        """Per trial: the host speed, the kernel's reference time over the
        mean of the two kernel times around it.  Needs a kernel timing after
        the last trial.  Each kernel time is first replaced by the median of
        it and its two neighbours, so one disturbed timing does not skew the
        trials around it."""
        cal = self.cal_s
        smooth = [statistics.median(cal[max(0, j - 1):j + 2]) for j in range(len(cal))]
        ref = KERNELS[self.kernel][1]
        return [2.0 * ref / (smooth[j] + smooth[j + 1]) for j in self.trial_cal]

    def timed(self, trial):
        times = self.trial_s
        clock = time.perf_counter

        def run_trial(*args):
            self.trial_cal.append(len(self.cal_s) - 1)
            t0 = clock()
            out = trial(*args)
            t1 = clock()
            times.append(t1 - t0)
            if self.calibrate and t1 - self._last_cal >= CAL_EVERY_S:
                self.calibrate_now()
            return out
        return run_trial

    def install(self) -> None:
        if self.experiment is None:
            return
        exp = harness.EXPERIMENTS[self.experiment]
        self._patches.set(harness.EXPERIMENTS, self.experiment,
                          harness.Experiment(self.timed(exp.trial), exp.aggregate))
        if self.experiment == "pipeline":
            find = harness.find_hamilton
            cycles = self.cycles

            def find_hamilton(cp, c, seed, config):
                out = find(cp, c, seed=seed, config=config)
                cycles[seed] = out.cycle
                return out
            self._patches.set(harness, "find_hamilton", find_hamilton)

    def uninstall(self) -> None:
        self._patches.restore()


class Round:
    """One round's outputs: exact values, the report, its serialised size.

    Once the round is finished (``Pass.finish``) it keeps only its digest,
    the sample that the output checks rebuild, and totals; the report and,
    past the golden rounds, the exact outputs are dropped, so memory does
    not grow with the number of rounds a run fits in.
    """

    def __init__(self, seed: int, exact_outputs: list, report=None, report_bytes: int = 0):
        self.seed = seed
        self.exact = exact_outputs
        self.report = report
        self.report_bytes = report_bytes
        self.digest = ""
        self.sample: list = []
        self.log_totals: dict = {}


class Checks:
    """Output-check results of one pass: problems make it incorrect; failed
    operations are honest program failures counted against attempts."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed = 0
        self.notes: dict = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def is_hitting_time(seq: digraph.EdgeSequence, m: int) -> bool:
    """prefix(m) has every in- and out-degree >= 1 and prefix(m-1) does not.

    A loop adds 1 to both degrees of its vertex.  prefix(m-1) misses a degree
    exactly when the last pair is its source's only out-edge or its target's
    only in-edge.
    """
    if m < 1:
        return False
    codes = seq.codes(m)
    n = seq.n
    u, v = codes // n, codes % n
    outd = np.bincount(u, minlength=n)
    ind = np.bincount(v, minlength=n)
    covered = bool(outd.min() >= 1 and ind.min() >= 1)
    return covered and bool(outd[u[-1]] == 1 or ind[v[-1]] == 1)


def check_aggregates(report, chk: Checks) -> None:
    agg, passed = report.recompute_aggregates()
    embedded = {k: v for k, v in report.aggregates.items() if k != "wall_time_seconds"}
    chk.expect(passed == report.passed, f"{report.experiment}: passed flag not recomputable")
    chk.expect(agg.keys() == embedded.keys(), f"{report.experiment}: aggregate keys differ")
    for key, value in agg.items():
        other = embedded.get(key)
        if isinstance(value, float) and isinstance(other, float):
            same = math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-12)
        else:
            same = value == other
        chk.expect(same, f"{report.experiment}: aggregate {key} {other!r} != {value!r}")


class Workload:
    """What every workload shares: how many rounds a measured run makes, the
    calibration kernel whose mix of work is closest to its own, and the
    percentiles its tail metric may be."""

    golden_rounds: int
    round_s: float  # seconds one round took on the 2-core development host
    kernel: str = "array"
    tail_ladder: tuple = (99, 90, 75, 50)

    def rounds_for(self, seconds: float) -> int:
        """A fixed round count for a run of about ``seconds``, so that a
        seed always gives the same trials, whatever the host's speed."""
        return max(self.golden_rounds, round(seconds / self.round_s))


class HarnessWorkload(Workload):
    """A committed harness experiment, run round by round through run_experiment."""

    def __init__(self, name, config, trials_per_round, golden_rounds, trace_rounds, round_s,
                 kernel="array", tail_ladder=Workload.tail_ladder):
        self.name = name
        self.config = config
        self.default_seed = config["seed"]
        self.trials_per_round = trials_per_round
        self.golden_rounds = golden_rounds
        self.trace_rounds = trace_rounds
        self.round_s = round_s
        self.kernel = kernel
        self.tail_ladder = tail_ladder

    @property
    def experiment(self) -> str:
        return self.config["experiment"]

    def setup(self) -> None:
        cfg = harness.ExperimentConfig.from_dict(self.config)
        if cfg.experiment == "pipeline":
            compute_constants(cfg.n)
            PipelineConfig(**cfg.pipeline)

    def run_round(self, master: int, r: int, probe: Probe, tracer, timings: bool) -> Round:
        seed = round_seed(master, r)
        cfg = harness.ExperimentConfig.from_dict({
            **self.config, "seed": seed, "trials": self.trials_per_round,
            "include_timings": timings})
        timed = tracer is not None and tracer.mode == "time"
        sid = tracer.open("harness.run") if timed else None
        try:
            report = harness.run_experiment(cfg)
        finally:
            if sid is not None:
                tracer.close(sid)
        text = report.to_json()
        return Round(seed, self.exact_outputs(report, probe), report, len(text))

    def exact_outputs(self, report, probe: Probe) -> list:
        recs = report.records
        if self.experiment == "pipeline":
            return [[r["seed"], r["ok"], r["m_star"], r["failure_phase"],
                     list(probe.cycles[r["seed"]]) if r["ok"] else None] for r in recs]
        if self.experiment == "hitting-time":
            return [[r["seed"], r["m_star"], r["m_star_loopful"]] for r in recs]
        return [[r["seed"], r["count"]] for r in recs]

    def check_round(self, rnd: Round, chk: Checks) -> None:
        chk.expect(len(rnd.report.records) == self.trials_per_round,
                   f"round {rnd.seed}: wrong record count")
        check_aggregates(rnd.report, chk)

    def sample(self, r: int, exact_outputs: list) -> list:
        """The trials whose processes the output checks rebuild."""
        if self.experiment == "hitting-time":
            # rebuilding costs as much as the trial: first trial, every other round
            return exact_outputs[:1] if r % 2 == 0 else []
        if self.experiment == "expected-count":
            return exact_outputs[::500]
        return exact_outputs

    def check(self, samples: list, chk: Checks) -> None:
        getattr(self, "_check_" + self.experiment.replace("-", "_"))(samples, chk)

    def _check_pipeline(self, samples: list, chk: Checks) -> None:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        n = self.config["n"]
        phases: dict[str, int] = {}
        for seed, ok, m_star, phase, cycle in samples:
            # rebuilt from the seed, not taken from the pipeline's objects
            cp = digraph.couple(digraph.gen_process(n, "loopful", seed))
            chk.expect(is_hitting_time(cp.loopless, m_star),
                       f"pipeline {seed}: m_star {m_star} is not the hitting time")
            target = cp.loopless.codes(m_star)
            if ok:
                cyc = np.asarray(cycle, dtype=np.int64)
                closed = cyc * n + np.roll(cyc, -1)
                chk.expect(np.array_equal(np.sort(cyc), np.arange(n))
                           and bool(np.isin(closed, target).all()),
                           f"pipeline {seed}: cycle is not Hamiltonian in prefix(m*)")
                continue
            phases[phase] = phases.get(phase, 0) + 1
            chk.expect(phase in FAILURE_PHASES, f"pipeline {seed}: unnamed failure {phase!r}")
            if phase != "one_factor":
                chk.failed += 1
                continue
            # A certified one_factor failure is a correct answer: without
            # a 1-factor the loopless prefix at m* has no Hamilton cycle.
            graph = csr_matrix((np.ones(target.size, dtype=np.int8),
                                (target // n, target % n)), shape=(n, n))
            matched = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
            chk.expect(matched < n, f"pipeline {seed}: one_factor failure, "
                                    "yet prefix(m*) has a 1-factor")
        chk.notes["failure_phases"] = dict(sorted(phases.items()))

    def _check_hitting_time(self, samples: list, chk: Checks) -> None:
        # the trials left out are checked through the recomputed aggregates
        n = self.config["n"]
        for seed, m_star, m_star_loopful in samples:
            cp = digraph.couple(digraph.gen_process(n, "loopful", seed))
            chk.expect(is_hitting_time(cp.loopful, m_star_loopful),
                       f"hitting {seed}: loopful m* {m_star_loopful} is not the hitting time")
            chk.expect(is_hitting_time(cp.loopless, m_star),
                       f"hitting {seed}: loopless m* {m_star} is not the hitting time")
            try:
                cp.audit(max(m_star, m_star_loopful))
            except AssertionError as exc:
                chk.expect(False, f"hitting {seed}: {exc}")

    def _check_expected_count(self, samples: list, chk: Checks) -> None:
        # Independent oracle on every 500th trial: 1-factors that are one
        # loopless cycle are exactly the Hamilton cycles.
        n, p = self.config["n"], self.config["p"]
        for seed, count in samples:
            d = digraph.gen_binomial(n, p, False, seed)
            enum = exact.enumerate_one_factors(d, math.factorial(n))
            ham = sum(1 for f in enum if f.num_loops == 0 and f.num_cycles == 1)
            chk.expect(not enum.truncated and ham == int(count),
                       f"expected-count {seed}: DP {count} != enumeration {ham}")


class ExactLarge(Workload):
    """Hamilton cycles and 1-factors of the loopless prefix at m*, per process.

    Instance i uses seed derive_seed(master, i) as the hitting-time
    experiment does, so at the default seed the Hamilton counts are those of
    the committed ``hitting_time_small_exact`` config.
    """

    name = "exact_large"
    experiment = None
    n = 18
    default_seed = 12345
    trials_per_round = 2
    golden_rounds = 2
    trace_rounds = 3
    round_s = 2.0
    kernel = "mixed"

    def setup(self) -> None:
        compute_constants(self.n)

    def run_round(self, master: int, r: int, probe: Probe, tracer, timings: bool) -> Round:
        trial = self._trial if tracer is None else tracer.wrap(spans.BENCH_TRIAL, self._trial)
        trial = probe.timed(trial)
        first = r * self.trials_per_round
        indices = range(first, first + self.trials_per_round)
        return Round(master, [trial(master, i) for i in indices])

    def _trial(self, master: int, idx: int) -> list:
        seed = derive_seed(master, idx)
        cp = digraph.couple(digraph.gen_process(self.n, "loopful", seed))
        m_star = digraph.hitting_time(cp.loopless)
        d = cp.loopless.prefix(m_star)
        hc = exact.count_hamilton_cycles(d)
        factors = exact.count_one_factors(d)
        return [seed, m_star, str(hc), str(factors)]

    def check_round(self, rnd: Round, chk: Checks) -> None:
        for seed, _, hc, factors in rnd.exact:
            chk.expect(0 <= int(hc) <= int(factors),
                       f"exact_large {seed}: {hc} Hamilton cycles > {factors} 1-factors")

    def sample(self, r: int, exact_outputs: list) -> list:
        return exact_outputs

    def check(self, samples: list, chk: Checks) -> None:
        for seed, m_star, _, _ in samples:
            cp = digraph.couple(digraph.gen_process(self.n, "loopful", seed))
            chk.expect(is_hitting_time(cp.loopless, m_star),
                       f"exact_large {seed}: m* {m_star} is not the hitting time")


WORKLOADS = {
    "pipeline": HarnessWorkload(
        "pipeline", {"experiment": "pipeline", "n": 2000, "trials": 20, "seed": 7},
        trials_per_round=2, golden_rounds=2, trace_rounds=4, round_s=1.8),
    "hitting": HarnessWorkload(
        "hitting", {"experiment": "hitting-time", "n": 10000, "trials": 100, "seed": 42},
        trials_per_round=5, golden_rounds=2, trace_rounds=4, round_s=1.5),
    "exact_large": ExactLarge(),
    "exact_small": HarnessWorkload(
        "exact_small", {"experiment": "expected-count", "n": 8, "p": 0.6,
                        "trials": 10000, "seed": 20260801},
        trials_per_round=10000, golden_rounds=1, trace_rounds=1, round_s=9.0,
        # bursts of host noise slow a few percent of sub-millisecond trials
        kernel="mixed", tail_ladder=(90, 75, 50)),
}
