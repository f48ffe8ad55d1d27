"""Byte-identity pins: sha256 of reports and outputs that must not change.

Each digest was recorded before the code it covers was last reworked, so a
failure here means an output changed.  A deliberate change of output
re-records the digest and says why in CHANGES.md.
"""
import hashlib
import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from hamcount.analysis import edge_discrepancy_check, gk_hypotheses
from hamcount.cli import main
from hamcount.digraph import gen_binomial, gen_process
from hamcount.frieze import compute_constants
from hamcount.harness import ExperimentConfig, run_experiment

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("config, digest", [
    ({"experiment": "pipeline", "n": 300, "trials": 5, "seed": 7},
     "b5b5f98ae0787918f624494250c4326cf77d068c490ae5d25481bc77460cdbcb"),
    ({"experiment": "pipeline", "n": 250, "trials": 3, "seed": 9},
     "665b49046b4287dd7db4228e7fd387aea8aa9e283c97dd3a277f1c82a40b1ed6"),
    (json.loads((CONFIG_DIR / "almost_containment.json").read_text()),
     "d84a1e8f9801c6c490d7e7bb48eacdf2ae0869d00568522e43fe0dfb283bc5b3"),
    # with_edges, regularize_degrees and adjacency_matrix on star digraphs
    ({"experiment": "factor-count-bound", "n": 16, "trials": 4, "seed": 3},
     "d0a9f42667b226e61ff56f01bbd372a1252f858adb0a87818bc02929e041fc6b"),
    # gen_binomial's Bernoulli mask feeding the Hamilton-cycle count
    ({"experiment": "expected-count", "n": 6, "p": 0.6, "trials": 200, "seed": 3},
     "2094f70902f5670a1dbf05377a64a591bd837c0df6b6574bef3d137d4b66569a"),
    # the lazily drawn loopful process, its loop-deleted shadow and hitting_time
    ({"experiment": "hitting-time", "n": 10000, "trials": 5, "seed": 42},
     "2c8fe37bdc33ed2be56f03185022ee6bc0f33ce5b0e0220b16e35a36634a055b"),
    # the exact ratio and its enumeration check (m <= 12)
    ({"experiment": "subsample-ratio", "n": 4, "m": 12, "m_prime": 8, "samples": 20000,
      "seed": 1},
     "51791274e0239fcb175ba06d6d40097e935c10fe8e23feff39a69e55662593cd"),
    # enumerated star factors and the exact fixed-point reference_loop_bound
    ({"experiment": "good-fraction", "n": 16, "trials": 2, "seed": 4, "enum_limit": 2000},
     "ee1065a8086843b9e2babab043e8124fbaa7a547f65175b0cbcbcbfca2ef7b12"),
], ids=["pipeline-300-5-7", "pipeline-250-3-9", "almost-containment",
        "factor-count-bound-16", "expected-count-6", "hitting-time-10000",
        "subsample-ratio-4-12-8", "good-fraction-16"])
def test_report_digest(config, digest):
    report = run_experiment(ExperimentConfig.from_dict(config))
    assert sha256(report.to_json()) == digest


def test_find_hamilton_json_digest():
    res = CliRunner().invoke(main, ["find-hamilton", "--n", "220", "--seed", "11", "--json"])
    assert res.exit_code == 0
    assert sha256(res.stdout) == "0cb23ff02513c7b75cebb9e264af0afc840b8f8f5319c0e84414e12bfc2b918f"


def test_hitting_time_loopless_json_digest():
    # a directly drawn lazy loopless process, not the shadow of a loopful one
    res = CliRunner().invoke(main, ["hitting-time", "--n", "3000", "--universe", "loopless",
                                    "--seed", "1", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["m_star"] == 27358
    assert sha256(res.stdout) == "2ac76d1d04b936d2fc48ff30dcd13aa847159c09330aa4f8f80f837b824715ae"


# The pins above all take their factor from the "early" tier and succeed.
# These seeds (n = 300) reach the other branches of find_hamilton.
@pytest.mark.parametrize("seed, exit_code, failure_phase, factor_source, digest", [
    (101, 0, None, "full",
     "5befeffc48c3a7af52419558c46c559e896a7a59a53ff9cb43ae1f1acb5e3ab6"),
    (9, 1, "one_factor", None,
     "faffb90981c8c5f45dcae5f749b01b17cedecdb2721d181b92e77c29be552660"),
    (30, 1, "goodness", "early",
     "bd0e046098c775ff2cca1845a1892204a4251fa8b1df126f82f5ab7d3c165d76"),
    (80, 1, "eliminate", "early",
     "fd89eb746ae01fe3457ea3129e150196576505b804417555acf2429674441762"),
], ids=["full-tier", "one-factor-failure", "goodness-failure", "eliminate-failure"])
def test_find_hamilton_branch_digest(seed, exit_code, failure_phase, factor_source, digest):
    res = CliRunner().invoke(main, ["find-hamilton", "--n", "300", "--seed", str(seed), "--json"])
    assert res.exit_code == exit_code
    out = json.loads(res.stdout)
    assert out["failure_phase"] == failure_phase
    assert out["phase_log"].get("factor_source") == factor_source
    if failure_phase is None:
        assert out["phase_log"]["virtual_edges"] == 1  # the eliminate phase ran
    assert sha256(res.stdout) == digest


def _discrepancy_digest(rep) -> str:
    # to_dict() keeps only totals; the records pin every sampled pair
    return sha256(json.dumps({"report": rep.to_dict(),
                              "records": [vars(r) for r in rep.records]}, sort_keys=True))


def test_sampled_subset_pair_digests():
    n = 40  # above the exhaustive cut-off, so both checks sample
    c = compute_constants(n)
    d = gen_process(n, "loopful", 3).prefix(c.m3)
    disc = edge_discrepancy_check(d, c.m3, samples=300, seed=5)
    gk = gk_hypotheses(d, c.m3 / n, samples=300, seed=5).discrepancy
    assert not disc.exhaustive and not gk.exhaustive
    assert _discrepancy_digest(disc) == \
        "e89f68e5650c3132c6f8627ec1b3b142e6027f62913f54084a779d43e6e799b2"
    assert _discrepancy_digest(gk) == \
        "e0fcf73fed1b71b2443cbc74f6a857dc109f9c77a4f438a2caa8ca353fb8af77"


def test_sampled_centred_digests():
    # at n = 500 the centred gate 4n^2/ln n is below n^2, so large pairs reach it
    n = 500
    c = compute_constants(n)
    seq = gen_process(n, "loopful", 3)
    d = seq.prefix(c.m3)
    disc = edge_discrepancy_check(d, c.m3, samples=300, seed=5)
    gk = gk_hypotheses(d, c.m3 / n, samples=300, seed=5).discrepancy
    assert disc.tested == {"cap": 109, "centred": 20} and disc.passed
    assert _discrepancy_digest(disc) == \
        "633ccb866878f91db1bf78908390bf011a445dbf665c25d22bb31f68ae5ee0b4"
    assert _discrepancy_digest(gk) == \
        "8c541fd63cd0ca0622752fb8f56c9c35b6d818ca16481415478e43eba9ea6137"
    # a prefix five times as long as the m3 it is checked against
    over = edge_discrepancy_check(seq.prefix(5 * c.m3), c.m3, samples=300, seed=5)
    assert over.violations == {"cap": 80, "centred": 20}
    assert _discrepancy_digest(over) == \
        "b220771f2c25f1d62b51d12165cc199e583331eac6b247de6522563fb9c626c2"


# ``worst`` is the least margin over every violating pair, recorded or not.
@pytest.mark.parametrize("n, disc_digest, gk_digest", [
    (8, "dbe56f094df522289e3932cd35456a2b1ec4f579aa44676058957742c0f90bc6",
     "8b36ae459beb088194b6cf9630876bdbe6f900af427d9bc938c2a3068ac29e00"),
    (10, "99c78fab8e373abf5c79bd0a328b32a5cd29dc3cd92bb4ab911c30ebbc12a1e9",
     "7ec679b39261da2c9f687a9a0450e8af7c6c71070b9027f23fdbae35ede913a7"),
    (12, "4a3082bd75833eed2c9147eb28e42d62f51d7b69441d41ae1ad6ec23cb37c38a",
     "a8920903dc715224603a3007ab17a240f88c3bb971e9edd4e626fe619bc5433e"),
], ids=["n8", "n10", "n12"])
def test_exhaustive_subset_pair_digests(n, disc_digest, gk_digest):
    d = gen_binomial(n, 0.3, True, 1)
    disc = edge_discrepancy_check(d, math.ceil(2 * n * math.log(n) / 3))
    gk = gk_hypotheses(d, d.edge_count / n).discrepancy
    assert disc.exhaustive and gk.exhaustive
    assert disc.violations["cap"] > 0 and gk.violations["gk-subset"] > 0
    assert _discrepancy_digest(disc) == disc_digest
    assert _discrepancy_digest(gk) == gk_digest
