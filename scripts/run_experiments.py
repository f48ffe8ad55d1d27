#!/usr/bin/env python3
"""Run every experiment config under scripts/configs/ and print a summary.

    python scripts/run_experiments.py                      # every config
    python scripts/run_experiments.py pipeline_n2000 ...   # only these
    python scripts/run_experiments.py --out DIR ...        # reports into DIR

Reports are written to scripts/reports/<name>.report.json (an ignored
directory, so reruns never feed a report back in as a config), or to
DIR/<name>.report.json.  Each summary line ends with the process's peak RSS
so far (``ru_maxrss``, a high-water mark: exact for the first config, and an
upper bound for each later one).  Exit code is the number of failed
experiments (0 when everything passes its thresholds).
"""
import argparse
import json
import pathlib
import resource
import sys
import time

from hamcount.harness import ExperimentConfig, run_experiment

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"
REPORT_DIR = pathlib.Path(__file__).resolve().parent / "reports"


def main(argv):
    parser = argparse.ArgumentParser(description="Run the experiment configs.")
    parser.add_argument("names", nargs="*", help="config names (default: every config)")
    parser.add_argument("--out", type=pathlib.Path, default=REPORT_DIR,
                        help="report directory (default: scripts/reports)")
    args = parser.parse_args(argv[1:])
    only = set(args.names)
    failures = 0
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        if only and cfg_path.stem not in only:
            continue
        cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
        t0 = time.time()
        report = run_experiment(cfg)
        elapsed = time.time() - t0
        args.out.mkdir(parents=True, exist_ok=True)
        out = args.out / f"{cfg_path.stem}.report.json"
        out.write_text(report.to_json() + "\n")
        status = "pass" if report.passed else "FAIL"
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
        print(f"{cfg_path.stem:32s} {status}  ({elapsed:6.1f}s, peak RSS {peak_mb:6.1f} MB)  -> {out}")
        failures += 0 if report.passed else 1
    return failures


if __name__ == "__main__":
    sys.exit(main(sys.argv))
