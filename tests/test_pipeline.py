import ast
import math
from pathlib import Path

import pytest

from hamcount import frieze
from hamcount.digraph import Digraph, couple, gen_process
from hamcount.frieze import (
    PipelineConfig,
    compute_constants,
    find_hamilton,
    verify_hamilton_cycle,
)
from hamcount.matching import hopcroft_karp


def bench_phases() -> tuple:
    """The phase order in which perfbench lays find_hamilton's durations out."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PHASES")


def independent_cycle_check(cycle, cp, m_star):
    """Re-derive the target edge set from the process and walk the cycle."""
    n = cp.n
    edges = set(cp.loopless.pairs(m_star))
    cyc = list(cycle)
    assert len(cyc) == n
    assert sorted(cyc) == list(range(n))
    for i in range(n):
        assert (cyc[i], cyc[(i + 1) % n]) in edges


class TestFindHamilton:
    def test_succeeds_and_verifies_at_n300(self):
        c = compute_constants(300)
        wins = 0
        for seed in (0, 1, 2, 3, 4):
            cp = couple(gen_process(300, "loopful", seed))
            out = find_hamilton(cp, c, seed=seed)
            if out.ok:
                wins += 1
                independent_cycle_check(out.cycle, cp, out.m_star)
                assert out.overlap >= 300 - 10 * math.log(300) ** 2
        assert wins >= 4

    def test_deterministic_per_seed(self):
        c = compute_constants(250)
        runs = []
        for _ in range(2):
            cp = couple(gen_process(250, "loopful", 7))
            runs.append(find_hamilton(cp, c, seed=7).to_dict())
        assert runs[0] == runs[1]

    def test_phase_log_keys(self):
        c = compute_constants(220)
        cp = couple(gen_process(220, "loopful", 1))
        out = find_hamilton(cp, c, seed=1)
        for key in ("m_star", "m_star_loopful", "large_threshold_formula",
                    "large_threshold_used", "large_size", "relabel_attempts",
                    "factor_source", "cycles_before_patching", "patches",
                    "cycles_after_patching", "reserved_edges", "patch_pool",
                    "rotation_pool", "compression"):
            assert key in out.phase_log, key
        if out.ok:
            assert "overlap" in out.phase_log
            assert "closes" in out.phase_log

    def test_timings_only_when_asked(self):
        c = compute_constants(200)
        cp = couple(gen_process(200, "loopful", 2))
        out = find_hamilton(cp, c, seed=2)
        assert "durations" not in out.phase_log
        cp = couple(gen_process(200, "loopful", 2))
        out = find_hamilton(cp, c, seed=2, config=PipelineConfig(include_timings=True))
        if out.ok:
            assert "durations" in out.phase_log

    def test_structured_failure_has_phase(self):
        # tiny n: the good-factor caps are near-impossible, failures are honest
        c = compute_constants(16)
        results = []
        for seed in range(6):
            cp = couple(gen_process(16, "loopful", seed))
            out = find_hamilton(cp, c, seed=seed)
            results.append(out)
            if not out.ok:
                assert out.failure_phase is not None
                assert out.failure_reason
                assert out.cycle is None
        assert all(isinstance(o.ok, bool) for o in results)

    def test_overlap_accounting_matches_log(self):
        c = compute_constants(350)
        cp = couple(gen_process(350, "loopful", 5))
        out = find_hamilton(cp, c, seed=5)
        if out.ok:
            assert out.phase_log["edges_changed"] == 350 - out.overlap

    @pytest.mark.parametrize("seed, failure_phase, factor_source", [
        (9, "one_factor", None), (101, None, "full")])
    def test_equal_tiers_get_one_matching_run(self, monkeypatch, seed, failure_phase,
                                              factor_source):
        # at these seeds the early tier has no 1-factor, so the full tier
        # gets the only other matching run; it has one at seed 101 only
        sizes = []

        def counting(n_left, n_right, indptr, heads):
            sizes.append(heads.size)
            return hopcroft_karp(n_left, n_right, indptr, heads)

        monkeypatch.setattr(frieze, "hopcroft_karp", counting)
        out = find_hamilton(couple(gen_process(300, "loopful", seed)), compute_constants(300),
                            seed=seed)
        assert out.failure_phase == failure_phase
        assert out.phase_log.get("factor_source") == factor_source
        assert len(sizes) == 2 and sizes[0] < sizes[1]


class TestPhaseClock:
    def test_durations_are_back_to_back(self, monkeypatch):
        # a clock that goes up by 1 per reading: each duration counts readings
        stamps = []

        def ticking():
            stamps.append(float(len(stamps)))
            return stamps[-1]

        cp = couple(gen_process(150, "loopful", 0))
        monkeypatch.setattr(frieze.time, "perf_counter", ticking)
        out = find_hamilton(cp, compute_constants(150), seed=0,
                            config=PipelineConfig(include_timings=True))
        assert out.ok
        durations = dict(out.phase_log["durations"])
        total = durations.pop("total")
        assert tuple(durations) == bench_phases()
        # one reading at the start, one per phase, one for the total
        assert len(stamps) == len(durations) + 2
        assert sum(durations.values()) == stamps[-2] - stamps[0]
        assert total == stamps[-1] - stamps[0]


class TestPhase3Retry:
    """A cycle that fails to merge goes to the back of the queue, once."""
    n, seed = 150, 0  # five cycles after patching, one virtual edge

    def run(self, monkeypatch, refusals):
        merge_into, calls = frieze._merge_into, []

        def refusing(main, cyc, *args):
            # the first cycle offered is refused its first ``refusals`` times
            calls.append(cyc[0])
            if cyc[0] == calls[0] and calls.count(cyc[0]) <= refusals:
                return None
            return merge_into(main, cyc, *args)

        monkeypatch.setattr(frieze, "_merge_into", refusing)
        out = find_hamilton(couple(gen_process(self.n, "loopful", self.seed)),
                            compute_constants(self.n), seed=self.seed)
        return out, calls

    def test_one_refusal_is_retried_last(self, monkeypatch):
        out, calls = self.run(monkeypatch, refusals=1)
        assert out.ok
        pending = out.phase_log["cycles_after_patching"] - 1
        assert pending >= 2 and out.phase_log["closes"] == pending
        # the refused cycle is merged after every other one
        assert len(calls) == pending + 1 and calls[-1] == calls[0]
        assert len(set(calls)) == pending

    def test_two_refusals_fail_phase3(self, monkeypatch):
        out, calls = self.run(monkeypatch, refusals=2)
        assert not out.ok and out.failure_phase == "phase3"
        assert out.failure_reason.startswith(f"could not merge the cycle starting at {calls[0]} ")
        assert calls[-1] == calls[0] and calls.count(calls[0]) == 2


class TestVerifier:
    five_cycle = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])

    def test_accepts_valid_cycle(self):
        assert verify_hamilton_cycle([0, 1, 2, 3, 4], self.five_cycle)
        assert verify_hamilton_cycle([2, 3, 4, 0, 1], self.five_cycle)

    def test_rejects_short_or_broken(self):
        assert not verify_hamilton_cycle([0, 1, 2, 3], self.five_cycle)
        assert not verify_hamilton_cycle([0, 1, 2, 3, 4, 0], self.five_cycle)
        assert not verify_hamilton_cycle([0, 1, 2, 4, 3], self.five_cycle)

    def test_rejects_repeated_vertex(self):
        # every edge of the closed walk 0 1 0 1 is in the digraph
        both_ways = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
        assert not verify_hamilton_cycle([0, 1, 0, 1], both_ways)
        assert not verify_hamilton_cycle([0, 1, 2, 3, 3], self.five_cycle)

    def test_rejects_missing_edge(self):
        path = Digraph(5, [(i, i + 1) for i in range(4)])  # no closing edge 4 -> 0
        assert not verify_hamilton_cycle([0, 1, 2, 3, 4], path)

    def test_rejects_out_of_range_vertex(self):
        assert not verify_hamilton_cycle([0, 1, 2, 3, 5], self.five_cycle)
        assert not verify_hamilton_cycle([-1, 1, 2, 3, 4], self.five_cycle)
