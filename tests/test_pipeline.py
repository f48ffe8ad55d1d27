import math

import pytest

from hamcount.digraph import couple, gen_process, hitting_time
from hamcount.frieze import (
    PipelineConfig,
    compute_constants,
    find_hamilton,
    verify_hamilton_cycle,
)


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


class TestVerifier:
    def test_accepts_valid_cycle(self):
        edges = frozenset((i, (i + 1) % 5) for i in range(5))
        assert verify_hamilton_cycle([0, 1, 2, 3, 4], 5, edges)
        assert verify_hamilton_cycle([2, 3, 4, 0, 1], 5, edges)

    def test_rejects_short_or_broken(self):
        edges = frozenset((i, (i + 1) % 5) for i in range(5))
        assert not verify_hamilton_cycle([0, 1, 2, 3], 5, edges)
        assert not verify_hamilton_cycle([0, 1, 2, 4, 3], 5, edges)
        assert not verify_hamilton_cycle([0, 1, 2, 3, 3], 5, edges)
