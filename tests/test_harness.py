import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcount.digraph import Digraph, couple, gen_process
from hamcount.errors import DomainError
from hamcount.exact import enumerate_one_factors
from hamcount.frieze import compute_constants
from hamcount.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    Report,
    almost_containment_prob,
    good_fraction_of_digraph,
    run_experiment,
    write_trials_csv,
)


class TestConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(DomainError):
            ExperimentConfig("frobnicate", n=5)

    def test_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"experiment": "pipeline", "n": 5, "bogus": 1})

    def test_round_trip(self):
        cfg = ExperimentConfig("pipeline", n=100, trials=3, seed=9)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key, value", [
        ("n", "5"), ("n", 5.0), ("trials", True), ("p", "0.5"), ("p", False),
        ("model", None), ("exact_counts", 1), ("pipeline", [])])
    def test_rejects_values_of_the_wrong_type(self, key, value):
        with pytest.raises(DomainError, match=f"^{key} must be "):
            ExperimentConfig.from_dict({"experiment": "expected-count", "n": 5, key: value})

    def test_accepts_ints_for_floats_and_keeps_them(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "expected-count", "n": 5, "p": 1, "se_multiplier": 3})
        assert cfg.to_dict()["p"] == 1 and type(cfg.to_dict()["p"]) is int
        assert cfg.se_multiplier == 3

    @pytest.mark.parametrize("key", ["rotation_sorce", "relabel_retries", "overlap_constant"])
    def test_rejects_unknown_pipeline_keys(self, key):
        # a misspelled key and two removed options: rejected before any trial
        with pytest.raises(DomainError, match="unknown pipeline keys"):
            ExperimentConfig.from_dict(
                {"experiment": "pipeline", "n": 300, "pipeline": {key: "split"}})

    def test_pipeline_timings_key_rejected(self):
        # phase durations follow the top-level include_timings alone
        with pytest.raises(DomainError, match=r"unknown pipeline keys: \['include_timings'\]"):
            ExperimentConfig("pipeline", n=300, pipeline={"include_timings": True})


class TestExpectedCount:
    def test_p_one_exact(self):
        r = run_experiment(ExperimentConfig("expected-count", n=6, trials=4, seed=1, p=1.0))
        assert r.passed
        assert all(rec["count"] == str(math.factorial(5)) for rec in r.records)
        assert r.aggregates["standard_error"] == 0.0

    def test_p_zero_exact(self):
        r = run_experiment(ExperimentConfig("expected-count", n=6, trials=4, seed=1, p=0.0))
        assert r.passed and r.aggregates["sample_mean"] == 0.0

    def test_binomial_statistical(self):
        r = run_experiment(ExperimentConfig("expected-count", n=7, trials=600, seed=3, p=0.5))
        assert r.passed
        expected = math.factorial(6) * 0.5 ** 7
        assert math.isclose(r.aggregates["expected"], expected, rel_tol=1e-12)

    def test_uniform_model(self):
        r = run_experiment(
            ExperimentConfig("expected-count", n=6, trials=500, seed=3, m=18, model="uniform"))
        assert r.passed
        big_n = 30
        expected = math.factorial(5) * math.prod(
            Fraction(18 - i, big_n - i) for i in range(6))
        assert math.isclose(r.aggregates["expected"], float(expected), rel_tol=1e-12)


class TestDeterminismAndMerging:
    def test_identical_reports(self):
        cfg = dict(experiment="expected-count", n=7, trials=25, seed=5, p=0.5)
        a = run_experiment(ExperimentConfig(**cfg))
        b = run_experiment(ExperimentConfig(**cfg))
        assert a.to_json() == b.to_json()

    def test_parallel_equals_serial(self):
        base = dict(experiment="expected-count", n=7, trials=16, seed=5, p=0.5)
        serial = run_experiment(ExperimentConfig(**base))
        parallel = run_experiment(ExperimentConfig(**base, workers=2))
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates

    def test_parallel_uneven_chunks_keep_trial_order(self):
        # 37 trials on 3 workers: chunks of 3 and a remainder of 1
        base = dict(experiment="expected-count", n=7, trials=37, seed=5, p=0.5)
        serial = run_experiment(ExperimentConfig(**base))
        parallel = run_experiment(ExperimentConfig(**base, workers=3))
        assert [r["trial"] for r in parallel.records] == list(range(37))
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates

    def test_aggregates_recomputable(self):
        r = run_experiment(ExperimentConfig("expected-count", n=6, trials=10, seed=2, p=0.4))
        agg, passed = r.recompute_aggregates()
        assert agg == r.aggregates and passed == r.passed


class TestHittingTime:
    def test_bracket_reporting(self):
        r = run_experiment(ExperimentConfig("hitting-time", n=64, trials=10, seed=2))
        c = compute_constants(64)
        assert r.aggregates["m0"] == c.m0 and r.aggregates["m1"] == c.m1
        assert 0.0 <= r.aggregates["fraction_inside"] <= 1.0

    def test_bracket_verdict_follows_degree_zero_law(self):
        # the n = 18 manifest without exact counts, which leave m* untouched
        cfg = ExperimentConfig("hitting-time", n=18, trials=50, seed=12345)
        r = run_experiment(cfg)
        assert r.passed
        assert r.aggregates["cells_observed"] == {"m_star": [5, 7, 38],
                                                  "m_star_loopful": [7, 3, 40]}
        for cells in r.aggregates["cells_expected"].values():
            assert math.isclose(sum(cells), 50)
        # every hitting time inside the bracket is far more than the law allows
        m0 = r.aggregates["m0"]
        inside = [dict(rec, m_star=m0, m_star_loopful=m0) for rec in r.records]
        agg, passed = EXPERIMENTS["hitting-time"].aggregate(cfg, inside)
        assert agg["cells_observed"]["m_star"] == [0, 50, 0] and not passed

    def test_exact_mode_counts(self):
        r = run_experiment(
            ExperimentConfig("hitting-time", n=12, trials=5, seed=4, exact_counts=True))
        assert "fraction_hamiltonian" in r.aggregates
        for rec in r.records:
            assert "count_at_m_star" in rec and "rho" in rec

    def test_exact_counts_past_n20(self):
        r = run_experiment(
            ExperimentConfig("hitting-time", n=21, trials=1, seed=5, exact_counts=True))
        rec = r.records[0]
        # independent oracle: the 1-factors of a loopless digraph with one cycle
        cp = couple(gen_process(21, "loopful", rec["seed"]))
        factors = enumerate_one_factors(cp.loopless.prefix(rec["m_star"]), 10**5)
        assert not factors.truncated
        assert rec["count_at_m_star"] == str(sum(f.num_cycles == 1 for f in factors))

    def test_exact_counts_above_count_cap_rejected(self):
        with pytest.raises(DomainError, match="count_cap"):
            ExperimentConfig("hitting-time", n=12, count_cap=11, exact_counts=True)


class TestSubsampleRatio:
    def test_reference_values(self):
        r = run_experiment(
            ExperimentConfig("subsample-ratio", n=6, seed=11, m=20, m_prime=12, samples=100_000))
        exact = Fraction(math.comb(14, 6), math.comb(20, 12))
        assert r.aggregates["exact_ratio"] == f"{exact.numerator}/{exact.denominator}"
        assert r.passed

    def test_full_subsample_always_contains(self):
        r = run_experiment(
            ExperimentConfig("subsample-ratio", n=3, seed=1, m=8, m_prime=8, samples=2000))
        assert r.aggregates["empirical"] == 1.0 and r.passed

    def test_enumeration_cross_check(self):
        r = run_experiment(
            ExperimentConfig("subsample-ratio", n=3, seed=1, m=10, m_prime=3, samples=200_000))
        assert r.aggregates["enumeration_match"] and r.passed

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig("subsample-ratio", n=6, m=5, m_prime=4, samples=10))


class TestAlmostContainment:
    def test_reference_two_thirds(self):
        assert almost_containment_prob(3, 10, 6, 1) == Fraction(2, 3)

    def test_single_term_at_zero_slack(self):
        assert almost_containment_prob(3, 10, 6, 0) == Fraction(
            math.comb(7, 3), math.comb(10, 6))

    def test_monotone_and_bounded(self):
        prev = Fraction(0)
        for t in range(5):
            cur = almost_containment_prob(4, 12, 7, t)
            assert prev <= cur <= 1
            prev = cur

    def test_experiment_with_enumeration(self):
        r = run_experiment(
            ExperimentConfig("almost-containment", n=3, seed=0, m0=10, m3=6, slack=1))
        assert r.aggregates["value"] == "2/3"
        assert r.aggregates["enumeration_match"] and r.passed

    def test_inadmissible(self):
        with pytest.raises(DomainError):
            almost_containment_prob(3, 5, 6, 1)


class TestGoodFraction:
    def test_single_hamilton_factor(self):
        c = compute_constants(20)
        d = Digraph(20, [(i, (i + 1) % 20) for i in range(20)])
        out = good_fraction_of_digraph(d, c, sigma_seed=1, limit=100)
        assert out == {"factors": 1, "truncated": False, "good": 1, "fraction": 1.0}

    def test_loops_only_sixteen(self):
        c = compute_constants(16)
        d = Digraph(16, [(v, v) for v in range(16)], allow_loops=True)
        out = good_fraction_of_digraph(d, c, sigma_seed=1, limit=100)
        # the unique factor is the identity; a random head relabeling sigma
        # turns it into sigma itself, so goodness is sigma's cycle type
        assert out["factors"] == 1

    def test_experiment_runs(self):
        r = run_experiment(ExperimentConfig("good-fraction", n=16, trials=2, seed=4,
                                            enum_limit=2000))
        assert "mean_fraction" in r.aggregates
        assert 0.0 <= r.aggregates["reference_loop_bound"] <= 1.0

    def test_identity_relabel_tv(self):
        r = run_experiment(ExperimentConfig("good-fraction", n=100, trials=1, seed=4,
                                            samples=4000, check_identity_relabel=True))
        assert r.aggregates["identity_relabel_tv"] < 0.05


class TestFactorCountBound:
    def test_monotone_and_reference(self):
        r = run_experiment(ExperimentConfig("factor-count-bound", n=17, trials=2, seed=6))
        assert r.passed
        assert r.aggregates["monotone_ok"]
        assert math.isclose(r.aggregates["reference_log_rate"],
                            math.log(2 * math.log(17) / (3 * math.e)))

    def test_complete_loopful_reference_value(self):
        # log(10!)/10 ~ 1.51: the densest loopful instance at n=10
        val = math.log(math.factorial(10)) / 10
        assert math.isclose(val, 1.5104412573075516, rel_tol=1e-12)


class TestPipelineExperiment:
    def test_small_run_passes(self):
        r = run_experiment(ExperimentConfig("pipeline", n=300, trials=4, seed=9))
        assert r.aggregates["successes"] >= 3
        for rec in r.records:
            if rec["ok"]:
                assert rec["overlap"] >= r.aggregates["overlap_floor"]

    def test_deterministic(self):
        a = run_experiment(ExperimentConfig("pipeline", n=200, trials=2, seed=3))
        b = run_experiment(ExperimentConfig("pipeline", n=200, trials=2, seed=3))
        assert a.to_json() == b.to_json()


# scalars of every JSON type, strings with escapes and non-ASCII
# characters, ints past 2^64, and floats with NaN and +-inf
_SCALARS = st.one_of(st.text(max_size=6), st.integers(), st.integers(2**64, 2**80),
                     st.booleans(), st.none(), st.floats())
# a few keys shared between records, so that key sets repeat and change
_KEYS = st.one_of(st.sampled_from(["trial", "seed", "count", "\u00e9", "a\"b\\\n"]),
                  st.text(max_size=4))


def canonical_json(report: Report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ": "), indent=1)


class TestSerialization:
    def test_counts_are_decimal_strings(self):
        r = run_experiment(ExperimentConfig("expected-count", n=6, trials=3, seed=1, p=0.7))
        payload = json.loads(r.to_json())
        for rec in payload["records"]:
            assert isinstance(rec["count"], str)
            int(rec["count"])  # parses as an integer

    def test_csv_writers(self, tmp_path):
        r = run_experiment(ExperimentConfig("expected-count", n=6, trials=3, seed=1, p=0.7))
        path = tmp_path / "trials.csv"
        with open(path, "w") as fh:
            write_trials_csv(r, fh)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4 and lines[0].split(",") == ["count", "seed", "trial"]

    @given(st.lists(st.dictionaries(_KEYS, _SCALARS, max_size=4), max_size=6),
           st.dictionaries(_KEYS, _SCALARS, max_size=3))
    @settings(max_examples=100, deadline=None)
    @example([{"s": "\u00e9\n\"\x00\u2028", "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf, "big": 2**70, "neg": -(2**65), "b": True, "none": None,
               "zero": -0.0}, {}, {"\u00e9": 1}, {"trial": 1, "seed": 2}, {"seed": 3, "trial": 4}],
             {"records": []})
    def test_json_equals_json_dumps(self, records, aggregates):
        # the flat records are written without json.dumps, whose encoder
        # sets the bytes; a nested "records": [] elsewhere stays as it is
        report = Report("expected-count", {"n": 8, "pipeline": {"records": []}}, records,
                        aggregates, True)
        with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
            text = report.to_json()
        # one call writes the report, its records left empty (the others
        # write a NaN or an infinity)
        reports = [call.args[0] for call in dumps.call_args_list if isinstance(call.args[0], dict)]
        assert len(reports) == 1 and reports[0]["records"] == []
        assert text == canonical_json(report)

    def test_nested_records_take_json_dumps(self):
        records = [{"trial": 0, "phase_log": [{"phase": "factor", "seconds": 0.5}]},
                   {"trial": 1, "count": "7"}]
        report = Report("pipeline", {"n": 200}, records, {"successes": 1}, False)
        with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
            text = report.to_json()
        assert dumps.call_count == 1 and dumps.call_args.args[0]["records"] is records
        assert text == canonical_json(report)

