"""One workload in a fresh interpreter: set-up, measured passes, checks, metrics.

    python perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
    python perfbench/child.py --workload NAME --seconds S --setup-only

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``.
The last line of standard output is one JSON object; the exit code is 0 when
every output check passed, 1 when one failed and 2 on a usage error.
"""
import time

_T0 = time.perf_counter()  # set-up is timed from before hamcount is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy and hamcount)
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CAP_FACTOR = 1.6  # a measured pass stops early past this many times --seconds
TAIL_BLOCK = 1000  # consecutive trials per block of the tail metric
LOG_COUNTS = ("relabel_attempts", "rotations_total", "closes")  # pipeline phase-log counts


class Pass:
    """A fixed number of rounds with their timings and per-round checks."""

    def __init__(self, wl, seed: int, rounds: int, *, tracer=None, timings: bool = False,
                 calibrate: bool = False, defer_checks: bool = True, cap_s: float = math.inf):
        self.chk = workloads.Checks()
        probe = workloads.Probe(wl.experiment, calibrate, wl.kernel)
        if calibrate:
            workloads.calibration_kernel(wl.kernel)  # warm-up: the first timing runs cold
            probe.calibrate_now()
        probe.install()
        if tracer is not None:
            tracer.install(wl.experiment)
        self.rounds: list = []
        self.round_s: list[float] = []
        # Deferred rounds are finished after the pass, so their checks stay
        # out of every span and pass time; the others are finished as they
        # end, so memory does not grow with the round count.
        pending: list = []
        clock = time.perf_counter
        start = clock()
        root = tracer.open(spans.ROOT) if tracer is not None and tracer.mode == "time" else None
        try:
            while len(self.round_s) < rounds:
                t0, cal0 = clock(), sum(probe.cal_s)
                rnd = wl.run_round(seed, len(self.round_s), probe, tracer, timings)
                self.round_s.append(clock() - t0 - (sum(probe.cal_s) - cal0))
                if defer_checks:
                    pending.append(rnd)
                else:
                    self.finish(wl, rnd)
                # only on a host far slower than the one that sized the rounds
                if len(self.round_s) >= wl.golden_rounds and clock() - start > cap_s:
                    break
        finally:
            if root is not None:
                tracer.close(root)
            self.wall_s = clock() - start
            if tracer is not None:
                tracer.uninstall()
            probe.uninstall()
        if calibrate:
            probe.calibrate_now()  # closes the last trial's bracket
        for rnd in pending:
            self.finish(wl, rnd)
        self.trial_s = probe.trial_s
        self.speeds = probe.speeds() if calibrate else []
        self.trial_cal = probe.trial_cal
        self.cal_s = probe.cal_s
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def finish(self, wl, rnd) -> None:
        """Check the round, then keep only its digest, sample and totals."""
        r = len(self.rounds)
        rnd.digest = workloads.digest(rnd.exact)
        wl.check_round(rnd, self.chk)
        rnd.sample = wl.sample(r, rnd.exact)
        records = rnd.report.records if rnd.report is not None else []
        rnd.log_totals = {key: sum(rec.get("phase_log", {}).get(key, 0) for rec in records)
                          for key in LOG_COUNTS}
        rnd.report = None
        if r >= wl.golden_rounds:
            rnd.exact = None
        self.rounds.append(rnd)

    @property
    def digests(self) -> list[str]:
        return [rnd.digest for rnd in self.rounds]


def check(wl, seed: int, p: Pass) -> workloads.Checks:
    chk = p.chk
    wl.check([entry for rnd in p.rounds for entry in rnd.sample], chk)
    golden_digest = workloads.digest([rnd.exact for rnd in p.rounds[:wl.golden_rounds]])
    chk.notes["digest"] = golden_digest
    if seed == wl.default_seed:
        goldens = json.loads((Path(__file__).parent / "goldens.json").read_text())
        want = goldens.get(wl.name, {}).get("sha256")
        chk.expect(want == golden_digest, f"{wl.name}: exact-output digest {golden_digest} "
                                          f"does not match the golden {want}")
        chk.notes["golden"] = want == golden_digest
    return chk


def percentile_tail(times: list[float], ladder=(99, 90, 75, 50)) -> tuple[float, str]:
    """The highest percentile of ``ladder`` with at least ten trials beyond
    it (nearest rank).  Below 20 trials none has, and it is the highest
    percentile that has.  Percentiles past p99 of sub-millisecond trials
    measure interrupts and collector pauses, not the program."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    for pct in ladder:
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{pct} of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def tail(times: list[float], ladder=(99, 90, 75, 50)) -> tuple[float, str]:
    """``percentile_tail`` of the run, or, when the run holds at least two
    blocks of TAIL_BLOCK consecutive trials, the median of the blocks'
    tails.  A burst of host noise lasts about a second and slows every
    trial in it; in a run of sub-millisecond trials it would make the
    run's tail by itself, but it moves only one block."""
    blocks = [times[i:i + TAIL_BLOCK] for i in range(0, len(times) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if len(blocks) < 2:
        return percentile_tail(times, ladder)
    tails = [percentile_tail(block, ladder) for block in blocks]
    return statistics.median(t for t, _ in tails), f"median of {len(blocks)} blocks' {tails[0][1]}"


def end_to_end(wl, seed: int, seconds: float, setup_s: float) -> dict:
    rounds = wl.rounds_for(seconds)
    p = Pass(wl, seed, rounds, calibrate=True, defer_checks=False,
             cap_s=CAP_FACTOR * seconds)
    chk = check(wl, seed, p)
    trials = len(p.trial_s)
    tail_s, tail_label = tail(p.trial_s, wl.tail_ladder)
    raw = {
        "trials_per_s": trials / sum(p.round_s),
        "trial_p50_s": statistics.median(p.trial_s),
        "trial_tail_s": tail_s,
    }
    # On a shared host the speed of the same code drifts by a third within
    # seconds to minutes, and a fixed calibration kernel drifts with it.
    # Times are reported in reference-seconds: each trial's raw seconds
    # scaled by the kernel's reference time over the mean kernel time on
    # either side of it.  Time outside trials (aggregation, serialisation)
    # is scaled by the run's median speed.
    scaled = [t * v for t, v in zip(p.trial_s, p.speeds)]
    speed = statistics.median(p.speeds)
    outside_s = sum(p.round_s) - sum(p.trial_s)
    metrics = {
        "trials_per_s": trials / (sum(scaled) + outside_s * speed),
        "trial_p50_s": statistics.median(scaled),
        "trial_tail_s": tail(scaled, wl.tail_ladder)[0],
        "peak_rss_mb": p.peak_rss_mb,
    }
    info = {"trials": trials, "rounds": len(p.rounds), "tail": tail_label,
            "measured_s": sum(p.round_s), "raw": raw, "host_speed": speed,
            "calibrations": len(p.cal_s), "cal_s": p.cal_s, "trial_s": p.trial_s,
            "speeds": p.speeds, "trial_cal": p.trial_cal}
    return result(chk, trials, metrics, info, setup_s)


def per_layer(wl, seed: int, setup_s: float) -> dict:
    rounds = wl.trace_rounds
    # untraced passes on both sides of the traced one, so drift cancels
    before = Pass(wl, seed, rounds)
    timer = spans.Tracer("time")
    traced = Pass(wl, seed, rounds, tracer=timer, timings=True)
    after = Pass(wl, seed, rounds)
    counter = spans.Tracer("count")
    counted = Pass(wl, seed, rounds, tracer=counter)
    chk = check(wl, seed, counted)
    for p in (before, traced, after):
        chk.problems += p.chk.problems
    chk.expect(before.digests == traced.digests == after.digests == counted.digests,
               "exact outputs differ between the untraced, traced and counting passes")
    untraced_s = 0.5 * (before.wall_s + after.wall_s)

    self_s = timer.self_times()
    root_s = timer.spans[0][4] - timer.spans[0][3]
    self_sum = sum(self_s.values())
    chk.expect(math.isclose(self_sum, root_s, rel_tol=1e-9, abs_tol=1e-9)
               and root_s <= traced.wall_s, "self times do not add up to the traced wall time")
    chk.expect(min(self_s.values()) > -1e-3, "a layer has negative self time")

    c = counter.counts

    def log_sum(key: str) -> int:
        return sum(rnd.log_totals[key] for rnd in counted.rounds)

    def ratio(part: str, whole: str) -> float:
        return c[part] / c[whole] if c[whole] else 0.0

    def per_unit(seconds: str, units: str) -> float:
        return 1e9 * self_s.get(seconds, 0.0) / c[units] if c[units] else 0.0
    metrics = {name: self_s.get(name, 0.0) for name in set(spans.SELF_METRIC.values())}
    metrics.update({
        "trace.trials": len(counted.trial_s),
        "trace.wall_s": traced.wall_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced.wall_s - untraced_s,
        "trace.self_sum_s": self_sum,
        "trace.spans": len(timer.spans),
        "harness.report_bytes": sum(rnd.report_bytes for rnd in counted.rounds),
        "digraph.materialized_codes": c["digraph.ensure.codes"],
        "digraph.build_calls": c["digraph.build.calls"],
        "digraph.build_edges": c["digraph.build.edges"],
        "digraph.has_edge_calls": c["digraph.has_edge.calls"],
        "matching.hk_calls": c["matching.hk.calls"],
        "matching.hk_perfect_ratio": ratio("matching.hk.perfect", "matching.hk.calls"),
        "frieze.patch_cycles_calls": c["frieze.patch_cycles.calls"],
        "frieze.patch_hit_ratio": ratio("frieze.patch_cycles.hits", "frieze.patch_cycles.calls"),
        "frieze.relabel_attempts": log_sum("relabel_attempts"),
        "frieze.rotations_total": log_sum("rotations_total"),
        "frieze.closes": log_sum("closes"),
        "exact.hc_calls": c["exact.hc.calls"],
        "exact.hc_states": c["exact.hc.states"],
        "exact.hc_ns_per_state": per_unit("exact.hc_s", "exact.hc.states"),
        "exact.per_calls": c["exact.per.calls"],
        "exact.per_subsets": c["exact.per.subsets"],
        "exact.per_ns_per_subset": per_unit("exact.per_s", "exact.per.subsets"),
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(timer.span_records()))
    info = {"trials": len(counted.trial_s), "rounds": rounds,
            "spans_file": str(spans_path.relative_to(ROOT)), "counts": dict(c)}
    return result(chk, len(counted.trial_s), metrics, info, setup_s)


def result(chk, attempted: int, metrics: dict, info: dict, setup_s: float) -> dict:
    return {
        "correct": not chk.problems,
        "attempted": attempted,
        "failed": chk.failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "problems": chk.problems,
        "notes": chk.notes,
        "info": info,
        "numpy": workloads.np.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    wl.setup()
    setup_s = time.perf_counter() - _T0

    src = (ROOT / "src").resolve()
    if src not in Path(workloads.harness.__file__).resolve().parents:
        print(f"hamcount was imported from outside {src}", file=sys.stderr)
        return 2
    # set-up is reported in reference-seconds too, at the speed right after it
    setup_speed = workloads.host_speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0
    seed = wl.default_seed if args.seed is None else args.seed
    if args.trace:
        out = per_layer(wl, seed, setup_s)
    else:
        out = end_to_end(wl, seed, args.seconds, setup_s)
    out["setup_speed"] = setup_speed
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
