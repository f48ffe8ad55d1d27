"""Command-line front end.

Exit codes: 0 success / thresholds passed, 1 threshold failure or pipeline
failure, 2 usage or format error, 3 resource-cap refusal.  Every randomized
subcommand takes --seed; without one a fresh seed is drawn and printed to
stderr so the run stays reproducible.  Machine-readable output goes to
stdout under --json, human summaries to stderr.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import asdict

import click

from . import harness
from .analysis import edge_discrepancy_check
from .digraph import couple, gen_binomial, gen_process, hitting_time, read_edge_list, write_edge_list
from .errors import DomainError, FormatError, ResourceCapError
from .exact import count_hamilton_cycles, count_one_factors
from .frieze import PipelineConfig, compute_constants, find_hamilton


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResourceCapError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (DomainError, FormatError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _resolve_seed(seed):
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        click.echo(f"seed: {seed}", err=True)
    return seed


@click.group()
@click.version_option(package_name="hamcount")
def main():
    """Random digraph processes, exact Hamilton-cycle counting, and the
    1-factor-to-Hamilton-cycle construction pipeline."""


@main.command()
@click.option("--n", type=int, required=True, help="number of vertices")
@click.option("--p", type=float, default=None, help="edge probability (binomial model)")
@click.option("--m", type=int, default=None, help="edge count (process prefix)")
@click.option("--loops/--no-loops", default=False, help="allow loops")
@click.option("--seed", type=int, default=None, help="rng seed (printed if omitted)")
@click.option("--one-indexed", is_flag=True, help="write 1-indexed vertex ids")
@click.option("--out", type=click.Path(writable=True, allow_dash=True), default="-")
@_mapped_errors
def generate(n, p, m, loops, seed, one_indexed, out):
    """Emit a random digraph in edge-list format."""
    if (p is None) == (m is None):
        raise click.UsageError("exactly one of --p and --m is required")
    seed = _resolve_seed(seed)
    if p is not None:
        d = gen_binomial(n, p, loops, seed)
    else:
        d = gen_process(n, "loopful" if loops else "loopless", seed).prefix(m)
    with click.open_file(out, "w") as fh:
        write_edge_list(d, fh, one_indexed=one_indexed)


@main.command("hitting-time")
@click.option("--n", type=int, required=True)
@click.option("--universe", type=click.Choice(["loopless", "loopful", "coupled"]),
              default="loopless")
@click.option("--seed", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
@_mapped_errors
def hitting_time_cmd(n, universe, seed, as_json):
    """First process step at which all in-/out-degrees reach 1."""
    seed = _resolve_seed(seed)
    if universe == "coupled":
        cp = couple(gen_process(n, "loopful", seed))
        result = {"m_star": hitting_time(cp.loopless),
                  "m_star_loopful": hitting_time(cp.loopful)}
    else:
        result = {"m_star": hitting_time(gen_process(n, universe, seed))}
    if as_json:
        click.echo(json.dumps({"n": n, "seed": seed, **result}, sort_keys=True))
    else:
        for key, val in result.items():
            click.echo(f"{key} {val}")


def _read_digraph(path, one_indexed):
    with click.open_file(path, "r") as fh:
        return read_edge_list(fh, one_indexed=one_indexed)


@main.command("count-hc")
@click.argument("input", type=click.Path(exists=False, allow_dash=True))
@click.option("--cap", type=int, default=24, help="refuse instances above this size")
@click.option("--one-indexed", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@_mapped_errors
def count_hc(input, cap, one_indexed, as_json):
    """Exact number of directed Hamilton cycles of an edge-list digraph."""
    d = _read_digraph(input, one_indexed)
    count = count_hamilton_cycles(d, cap=cap)
    click.echo(json.dumps({"n": d.n, "count": str(count)}) if as_json else str(count))


@main.command("count-1f")
@click.argument("input", type=click.Path(exists=False, allow_dash=True))
@click.option("--cap", type=int, default=24)
@click.option("--one-indexed", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@_mapped_errors
def count_1f(input, cap, one_indexed, as_json):
    """Exact number of 1-factors (permanent of the adjacency matrix)."""
    d = _read_digraph(input, one_indexed)
    count = count_one_factors(d, cap=cap)
    click.echo(json.dumps({"n": d.n, "count": str(count)}) if as_json else str(count))


@main.command()
@click.argument("n", type=int)
@click.option("--json", "as_json", is_flag=True)
@_mapped_errors
def constants(n, as_json):
    """Edge-count milestones and thresholds used by the pipeline at size n."""
    fields = asdict(compute_constants(n))
    if as_json:
        click.echo(json.dumps(fields, sort_keys=True))
    else:
        for key, val in fields.items():
            click.echo(f"{key}={val}")


@main.command("find-hamilton")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--timings", is_flag=True)
@click.option("--one-indexed", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@_mapped_errors
def find_hamilton_cmd(n, seed, timings, one_indexed, as_json):
    """Run the construction pipeline on a fresh coupled process; print the
    Hamilton cycle (one line, space-separated) and the phase log."""
    seed = _resolve_seed(seed)
    c = compute_constants(n)
    cp = couple(gen_process(n, "loopful", seed))
    out = find_hamilton(cp, c, seed=seed, config=PipelineConfig(include_timings=timings))
    if as_json:
        click.echo(json.dumps({"n": n, "seed": seed, **out.to_dict()}, sort_keys=True))
    elif out.ok:
        off = 1 if one_indexed else 0
        click.echo(" ".join(str(v + off) for v in out.cycle))
        click.echo(json.dumps(out.phase_log, sort_keys=True), err=True)
    if not out.ok:
        click.echo(f"failure at {out.failure_phase}: {out.failure_reason}", err=True)
        sys.exit(1)


@main.command("check-pseudorandom")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--samples", type=int, default=10_000)
@click.option("--json", "as_json", is_flag=True)
@_mapped_errors
def check_pseudorandom(n, seed, samples, as_json):
    """Edge-discrepancy checks on a two-thirds-prefix digraph."""
    seed = _resolve_seed(seed)
    c = compute_constants(n)
    d = gen_process(n, "loopful", seed).prefix(c.m3)
    report = edge_discrepancy_check(d, c.m3, samples=samples, seed=seed)
    payload = {"n": n, "seed": seed, "m3": c.m3, **report.to_dict()}
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(f"tested {payload['tested']} violations {payload['violations']}", err=True)
        click.echo("pass" if report.passed else "fail")
    if not report.passed:
        sys.exit(1)


@main.command()
@click.argument("config", type=click.Path(exists=False, allow_dash=True))
@click.option("--workers", type=int, default=None,
              help="parallel trial workers (default: config value)")
@click.option("--out", type=click.Path(writable=True, allow_dash=True), default="-",
              help="where to write the JSON report")
@click.option("--csv", "csv_path", type=click.Path(writable=True), default=None,
              help="also dump trial records as CSV")
@_mapped_errors
def experiment(config, workers, out, csv_path):
    """Run a seeded experiment from a JSON config; exit 0 iff thresholds pass."""
    with click.open_file(config, "r") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config is not valid JSON: {exc}") from None
    cfg = harness.ExperimentConfig.from_dict(data)
    if workers is not None:
        cfg.workers = max(1, workers)
    elif "workers" not in data:
        cfg.workers = os.cpu_count() or 1
    report = harness.run_experiment(cfg)
    with click.open_file(out, "w") as fh:
        fh.write(report.to_json() + "\n")
    if csv_path:
        with open(csv_path, "w") as fh:
            harness.write_trials_csv(report, fh)
    click.echo(f"{cfg.experiment}: {'pass' if report.passed else 'fail'}", err=True)
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
