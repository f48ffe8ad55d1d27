"""Byte-identity pins: sha256 of reports and outputs that must not change.

Each digest was recorded before the pipeline options were removed, so a
failure here means an output changed.  A deliberate change of output
re-records the digest and says why in CHANGES.md.  Hitting-time reports are
left out: their verdict aggregates changed on purpose at the same time.
"""
import hashlib
import json
import pathlib

import pytest
from click.testing import CliRunner

from hamcount.analysis import edge_discrepancy_check, gk_hypotheses
from hamcount.cli import main
from hamcount.digraph import gen_process
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
], ids=["pipeline-300-5-7", "pipeline-250-3-9", "almost-containment"])
def test_report_digest(config, digest):
    report = run_experiment(ExperimentConfig.from_dict(config))
    assert sha256(report.to_json()) == digest


def test_find_hamilton_json_digest():
    res = CliRunner().invoke(main, ["find-hamilton", "--n", "220", "--seed", "11", "--json"])
    assert res.exit_code == 0
    assert sha256(res.stdout) == "0cb23ff02513c7b75cebb9e264af0afc840b8f8f5319c0e84414e12bfc2b918f"


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
