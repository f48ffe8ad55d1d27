import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from hamcount.cli import main

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestGenerate:
    def test_p_zero_header_only(self, runner):
        res = invoke(runner, ["generate", "--n", "5", "--p", "0", "--seed", "1"])
        assert res.exit_code == 0
        assert res.stdout == "n 5 loops 0\n"

    def test_requires_exactly_one_model(self, runner):
        assert invoke(runner, ["generate", "--n", "5", "--seed", "1"]).exit_code == 2
        assert invoke(runner, ["generate", "--n", "5", "--p", "0.5", "--m", "3",
                               "--seed", "1"]).exit_code == 2

    def test_bad_probability_is_usage_error(self, runner):
        assert invoke(runner, ["generate", "--n", "5", "--p", "1.5", "--seed", "1"]).exit_code == 2

    def test_seed_synthesized_and_printed(self, runner):
        res = invoke(runner, ["generate", "--n", "4", "--p", "0.5"])
        assert res.exit_code == 0
        assert res.stderr.startswith("seed: ")

    def test_seed_reproducible(self, runner):
        a = invoke(runner, ["generate", "--n", "8", "--p", "0.4", "--seed", "7"])
        b = invoke(runner, ["generate", "--n", "8", "--p", "0.4", "--seed", "7"])
        assert a.stdout == b.stdout

    def test_process_prefix_mode(self, runner):
        res = invoke(runner, ["generate", "--n", "6", "--m", "9", "--seed", "2"])
        assert res.exit_code == 0
        assert len(res.stdout.strip().splitlines()) == 10  # header + 9 edges

    def test_negative_prefix_length_is_usage_error(self, runner):
        res = invoke(runner, ["generate", "--n", "5", "--m", "-3", "--seed", "1"])
        assert res.exit_code == 2
        assert "outside [0, 20]" in res.stderr


class TestRoundTrip:
    def test_generate_feeds_counters(self, runner):
        gen = invoke(runner, ["generate", "--n", "4", "--p", "1", "--seed", "1"])
        hc = invoke(runner, ["count-hc", "-"], input=gen.stdout)
        assert hc.exit_code == 0 and hc.stdout.strip() == "6"
        f1 = invoke(runner, ["count-1f", "-"], input=gen.stdout)
        assert f1.exit_code == 0 and f1.stdout.strip() == "9"  # per of J-I at n=4

    def test_one_indexed_round_trip(self, runner):
        gen = invoke(runner, ["generate", "--n", "5", "--p", "0.6", "--seed", "3",
                              "--one-indexed"])
        ids = {int(x) for line in gen.stdout.splitlines()[1:] for x in line.split()}
        assert ids and min(ids) >= 1  # 1-indexed output
        hc0 = invoke(runner, ["count-hc", "-", "--one-indexed"], input=gen.stdout)
        gen0 = invoke(runner, ["generate", "--n", "5", "--p", "0.6", "--seed", "3"])
        hc1 = invoke(runner, ["count-hc", "-"], input=gen0.stdout)
        assert hc0.stdout == hc1.stdout

    def test_cap_exit_code(self, runner):
        gen = invoke(runner, ["generate", "--n", "30", "--p", "0.9", "--seed", "1"])
        res = invoke(runner, ["count-hc", "-"], input=gen.stdout)
        assert res.exit_code == 3

    def test_malformed_edge_list(self, runner):
        res = invoke(runner, ["count-hc", "-"], input="bad header\n")
        assert res.exit_code == 2


class TestConstants:
    def test_reference_row(self, runner):
        res = invoke(runner, ["constants", "100"])
        assert res.exit_code == 0
        assert "m0=418" in res.stdout
        assert "m1=502" in res.stdout
        assert "m3=308" in res.stdout
        assert "large_threshold=10" in res.stdout

    def test_json_mode(self, runner):
        res = invoke(runner, ["constants", "100", "--json"])
        data = json.loads(res.stdout)
        assert (data["m0"], data["m1"], data["m3"]) == (418, 502, 308)
        assert math.isclose(data["overlap_floor"], 100 - 10 * math.log(100) ** 2)
        assert data["low_degree_budget"] == 100.0

    def test_too_small(self, runner):
        assert invoke(runner, ["constants", "8"]).exit_code == 2


class TestHittingTime:
    def test_loopless(self, runner):
        res = invoke(runner, ["hitting-time", "--n", "2", "--seed", "5"])
        assert res.exit_code == 0 and res.stdout == "m_star 2\n"

    def test_coupled_json(self, runner):
        res = invoke(runner, ["hitting-time", "--n", "40", "--seed", "5",
                              "--universe", "coupled", "--json"])
        data = json.loads(res.stdout)
        assert data["m_star"] >= 40 and data["m_star_loopful"] >= 40

    def test_deterministic(self, runner):
        a = invoke(runner, ["hitting-time", "--n", "64", "--seed", "9", "--json"])
        b = invoke(runner, ["hitting-time", "--n", "64", "--seed", "9", "--json"])
        assert a.stdout == b.stdout


class TestFindHamilton:
    def test_cycle_line_and_log(self, runner):
        res = invoke(runner, ["find-hamilton", "--n", "220", "--seed", "11"])
        assert res.exit_code == 0
        cycle = [int(x) for x in res.stdout.split()]
        assert sorted(cycle) == list(range(220))
        log = json.loads(res.stderr.splitlines()[-1])
        assert log["overlap"] >= 220 - 10 * math.log(220) ** 2

    def test_only_remaining_options(self, runner):
        res = invoke(runner, ["find-hamilton", "--help"])
        options = {tok for tok in res.stdout.split() if tok.startswith("--")}
        assert options == {"--n", "--seed", "--timings", "--one-indexed", "--json", "--help"}

    def test_json_outcome(self, runner):
        res = invoke(runner, ["find-hamilton", "--n", "220", "--seed", "11", "--json"])
        data = json.loads(res.stdout)
        assert data["ok"] is True
        assert sorted(data["cycle"]) == list(range(220))


class TestCheckPseudorandom:
    def test_small_clean_instance(self, runner):
        res = invoke(runner, ["check-pseudorandom", "--n", "64", "--seed", "5",
                              "--samples", "500", "--json"])
        data = json.loads(res.stdout)
        assert data["m3"] == math.ceil(2 / 3 * 64 * math.log(64))
        assert res.exit_code == (0 if data["passed"] else 1)


class TestExperimentCommand:
    def test_pass_and_report_schema(self, runner, tmp_path):
        cfg = {"experiment": "subsample-ratio", "n": 4, "m": 12, "m_prime": 8,
               "samples": 50_000, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        res = invoke(runner, ["experiment", str(cfg_path), "--out", str(out_path)])
        assert res.exit_code == 0
        report = json.loads(out_path.read_text())

        import jsonschema
        from referencing import Registry, Resource

        report_schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
        config_schema = json.loads((SCHEMA_DIR / "config.schema.json").read_text())
        registry = Registry().with_resources([
            (report_schema["$id"], Resource.from_contents(report_schema)),
            (config_schema["$id"], Resource.from_contents(config_schema)),
        ])
        jsonschema.validators.Draft7Validator(report_schema, registry=registry).validate(report)

    def test_two_workers_equal_one(self, runner, tmp_path):
        cfg = {"experiment": "expected-count", "n": 6, "p": 0.5, "trials": 30, "seed": 4}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        reports = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"w{workers}.json"
            res = invoke(runner, ["experiment", str(cfg_path), "--workers", workers,
                                  "--out", str(out_path)])
            assert res.exit_code == 0
            reports.append(json.loads(out_path.read_text()))
        serial, parallel = reports
        assert parallel["config"]["workers"] == 2
        assert serial["records"] == parallel["records"]
        assert serial["aggregates"] == parallel["aggregates"]

    def test_threshold_failure_exits_one(self, runner, tmp_path):
        # a tolerance of 1e-6 standard errors: the sample mean misses it
        cfg = {"experiment": "expected-count", "n": 6, "p": 0.5, "trials": 20, "seed": 2,
               "se_multiplier": 1e-6}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = invoke(runner, ["experiment", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert res.exit_code == 1
        assert json.loads((tmp_path / "r.json").read_text())["passed"] is False

    def test_unknown_pipeline_key_exits_two(self, runner, tmp_path):
        cfg = {"experiment": "pipeline", "n": 300, "trials": 1, "seed": 1,
               "pipeline": {"rotation_sorce": "split"}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = invoke(runner, ["experiment", str(cfg_path), "--workers", "1"])
        assert res.exit_code == 2
        assert "unknown pipeline keys: ['rotation_sorce']" in res.stderr

    def test_exact_counts_above_count_cap_exits_two(self, runner, tmp_path):
        cfg = {"experiment": "hitting-time", "n": 12, "trials": 1, "seed": 1,
               "exact_counts": True, "count_cap": 11}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = invoke(runner, ["experiment", str(cfg_path)])
        assert res.exit_code == 2
        assert "exact_counts needs n <= count_cap" in res.stderr

    def test_bad_config_usage_error(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert invoke(runner, ["experiment", str(cfg_path)]).exit_code == 2
        cfg_path.write_text(json.dumps({"experiment": "nope", "n": 4}))
        assert invoke(runner, ["experiment", str(cfg_path)]).exit_code == 2

    @pytest.mark.parametrize("cfg, message", [
        ([], "config must be a JSON object"),
        ({"experiment": "pipeline"}, "missing config keys: ['n']"),
        ({"experiment": "pipeline", "n": "5"}, "n must be int, got '5'"),
        ({"experiment": "hitting-time", "n": 12, "exact_counts": 1},
         "exact_counts must be bool, got 1"),
    ])
    def test_malformed_config_exits_two(self, runner, tmp_path, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = invoke(runner, ["experiment", str(cfg_path)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"

    def test_csv_dump(self, runner, tmp_path):
        cfg = {"experiment": "expected-count", "n": 6, "p": 0.5, "trials": 4, "seed": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "trials.csv"
        res = invoke(runner, ["experiment", str(cfg_path), "--out", str(tmp_path / "r.json"),
                              "--csv", str(csv_path)])
        assert res.exit_code == 0
        assert len(csv_path.read_text().strip().splitlines()) == 5
