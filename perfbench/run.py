#!/usr/bin/env python3
"""hamcount benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seeds

Run from the root of a source tree.  Each measurement runs serially in one
fresh interpreter (``child.py``) that imports hamcount from ``src/`` with
BLAS and OpenMP pinned to one thread; set-up time is the median over
several further fresh interpreters that only set up.  Each metric is
printed by name with its unit and sample count, then, as the last line of
standard output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  Full results, provenance and the traced spans are
written under ``.perfbench_out/``.  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the tree has no hamcount source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("pipeline", "hitting", "exact_large", "exact_small")
SETUP_REPEATS = 4          # set-up-only interpreters, plus the measuring one
DEADLINE_S = 170.0         # per workload, under the 180 s a run may take
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} timed out") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def provenance(numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int | None, seconds: float, trace: int) -> dict:
    """One workload: its set-up samples, then its measuring interpreter."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seconds", str(seconds)]
    setups = []
    if not trace:
        setups = [run_child(base + ["--setup-only"], deadline)
                  for _ in range(SETUP_REPEATS)]
    args = base + ["--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    out = run_child(args, deadline)
    setups.append(out)
    if not trace:
        # reference-seconds, like the other time metrics
        out["metrics"]["setup_s"] = statistics.median(
            s["setup_s"] * s["setup_speed"] for s in setups)
        out["info"].setdefault("raw", {})["setup_s"] = statistics.median(
            s["setup_s"] for s in setups)
    out["setup_samples"] = [[s["setup_s"], s["setup_speed"]] for s in setups]
    out["provenance"] = provenance(out["numpy"])
    return out


def report(workload: str, seed: int | None, trace: int, out: dict, metric_spec: list) -> dict:
    """Print each metric with unit and sample count; return the contract object."""
    info = out["info"]
    samples = {"setup_s": f"{len(out['setup_samples'])} set-ups",
               "peak_rss_mb": "1 process",
               "trial_tail_s": info.get("tail", ""),
               "trials_per_s": f"{info['trials']} trials",
               "trial_p50_s": f"{info['trials']} trials"}
    metrics = {}
    print(f"== {workload} seed={seed if seed is not None else 'default'} trace={trace} "
          f"attempted={out['attempted']} failed={out['failed']} "
          f"correct={str(out['correct']).lower()} digest={out['notes']['digest'][:16]}")
    raw = info.get("raw", {})
    for m in metric_spec:
        value = out["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        count = samples.get(m["name"], f"{info['trials']} trials")
        unscaled = f"  raw {raw[m['name']]:.6g}" if m["name"] in raw else ""
        print(f"{workload:12s} {m['name']:28s} {value:>18.9g} {m['unit']:6s} ({count}){unscaled}")
    if "host_speed" in info:
        print(f"{workload:12s} host speed {info['host_speed']:.4f} "
              f"(median of {info['calibrations']} calibrations)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed if seed is not None else 'default'}-trace{trace}.json"
    path.write_text(json.dumps(out, indent=1))
    print(f"provenance {json.dumps(out['provenance'])}")
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="hamcount benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, help="default: the workload's committed-config seed")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hamcount" / "__init__.py").is_file():
        print(f"no hamcount source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metric_spec = bench["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            out = measure(name, args.seed, seconds, args.trace)
            results[name] = report(name, args.seed, args.trace, out, metric_spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
