"""Outside-in instrumentation of hamcount's layers.

Entry points are wrapped where their callers bind them (for example
``hamcount.frieze.hopcroft_karp`` rather than ``hamcount.matching``), so the
package itself stays untouched.  Two modes share one set of targets:

* ``"time"`` records a span per call -- name, start, end, the span that
  caused it and the trial it belongs to -- and keeps the spans in memory
  until the pass ends.  Pipeline phase spans are rebuilt from the phase
  durations ``find_hamilton`` reports under ``include_timings``.
* ``"count"`` only counts calls and their outcomes, including two hot paths
  (``Digraph.has_edge``, ``patch_cycles``) whose wrapper cost would distort
  the timed spans.

``Patches`` installs and restores every replacement, so a pass leaves the
package exactly as it found it.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

from hamcount import digraph, exact, frieze, harness
from hamcount.digraph import Digraph, EdgeSequence

ROOT = "bench"          # the whole traced pass; its self time is benchmark code
TRIAL = "harness.trial"
BENCH_TRIAL = "bench.trial"

# (namespace, attribute, span name): every binding a workload reaches.
TARGETS = (
    (harness, "gen_process", "digraph.gen_process"),
    (digraph, "gen_process", "digraph.gen_process"),
    (harness, "gen_binomial", "digraph.gen_binomial"),
    (harness, "hitting_time", "digraph.hitting_time"),
    (frieze, "hitting_time", "digraph.hitting_time"),
    (digraph, "hitting_time", "digraph.hitting_time"),
    (EdgeSequence, "ensure", "digraph.ensure"),
    (Digraph, "__init__", "digraph.build"),
    (frieze, "hopcroft_karp", "matching.hk"),
    (harness, "find_hamilton", "frieze.find_hamilton"),
    (harness, "count_hamilton_cycles", "exact.hc"),
    (exact, "count_hamilton_cycles", "exact.hc"),
    (harness, "count_one_factors", "exact.per"),
    (exact, "count_one_factors", "exact.per"),
    (harness.Report, "to_json", "harness.serialize"),
)
COUNT_ONLY = (
    (Digraph, "has_edge", "digraph.has_edge"),
    (frieze, "patch_cycles", "frieze.patch_cycles"),
)

# Span name -> per-layer metric that receives its self time.
SELF_METRIC = {
    ROOT: "trace.other_s",
    BENCH_TRIAL: "trace.other_s",
    "harness.run": "harness.trial_s",
    TRIAL: "harness.trial_s",
    "harness.aggregate": "harness.aggregate_s",
    "harness.serialize": "harness.serialize_s",
    "digraph.gen_process": "digraph.gen_process_s",
    "digraph.gen_binomial": "digraph.gen_binomial_s",
    "digraph.hitting_time": "digraph.hitting_time_self_s",
    "digraph.ensure": "digraph.ensure_self_s",
    "digraph.build": "digraph.build_s",
    "matching.hk": "matching.hk_s",
    "frieze.find_hamilton": "frieze.other_s",
    "exact.hc": "exact.hc_s",
    "exact.per": "exact.per_s",
}
# Span name -> (counter, amount per call) beyond the call count itself.
_TALLY = {
    "digraph.build": ("digraph.build.edges", lambda args, out: args[0].edge_count),
    "matching.hk": ("matching.hk.perfect", lambda args, out: out[0] == args[0]),
    "frieze.patch_cycles": ("frieze.patch_cycles.hits", lambda args, out: out is not None),
    "exact.hc": ("exact.hc.states",
                 lambda args, out: (1 << (args[0].n - 1)) * (args[0].n - 1)),
    "exact.per": ("exact.per.subsets", lambda args, out: 1 << args[0].n),
}
PHASES = ("exposure", "star", "early", "factor", "merge", "pools", "patch",
          "phase3", "eliminate")
for _phase in PHASES:
    SELF_METRIC[f"frieze.{_phase}"] = f"frieze.{_phase}_s"


class Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, target, key: str, value) -> None:
        if isinstance(target, dict):
            self._saved.append((target, key, target[key]))
            target[key] = value
        else:
            self._saved.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def restore(self) -> None:
        while self._saved:
            target, key, old = self._saved.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)


class Tracer:
    """Spans (``mode="time"``) or counters (``mode="count"``) for one pass."""

    def __init__(self, mode: str):
        if mode not in ("time", "count"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        # span: [name, parent id, trace id, start, end]; id = list index
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches = Patches()

    # -- installation ---------------------------------------------------------

    def wrap(self, name: str, fn):
        return self._span(name, fn) if self.mode == "time" else self._counter(name, fn)

    def install(self, experiment: str | None) -> None:
        wrap = self.wrap
        originals = {}
        for target, attr, name in TARGETS + (COUNT_ONLY if self.mode == "count" else ()):
            fn = target.__dict__[attr]
            # one wrapper per function, shared by every binding of it
            if fn not in originals:
                originals[fn] = wrap(name, fn)
            self._patches.set(target, attr, originals[fn])
        if experiment is not None:
            exp = harness.EXPERIMENTS[experiment]
            self._patches.set(harness.EXPERIMENTS, experiment, harness.Experiment(
                wrap(TRIAL, exp.trial), wrap("harness.aggregate", exp.aggregate)))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- time mode ------------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = len(self.spans)
        # a trial starts a trace; everything it causes shares its id
        trace = sid if parent is None or name in (TRIAL, BENCH_TRIAL) else self.spans[parent][2]
        self.spans.append([name, parent, trace, time.perf_counter(), None])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        tracer = self
        if name == "frieze.find_hamilton":
            def run_pipeline(*args, **kwargs):
                sid = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                tracer._add_phases(sid, out.phase_log.get("durations", {}))
                return out
            return run_pipeline

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        return traced

    def _add_phases(self, sid: int, durations: dict) -> None:
        """Phase spans rebuilt from find_hamilton's back-to-back phase durations.

        Phases run in order from the start of the call, so each interval is
        the running sum of the durations before it.  Child spans of the call
        move under the phase holding their midpoint.
        """
        spans = self.spans
        _, _, trace, start, _ = spans[sid]
        children = [i for i in range(sid + 1, len(spans)) if spans[i][1] == sid]
        phases = []
        t = start
        for phase in PHASES:
            if phase in durations:
                phases.append(len(spans))
                spans.append([f"frieze.{phase}", sid, trace, t, t + durations[phase]])
                t += durations[phase]
        for c in children:
            mid = 0.5 * (spans[c][3] + spans[c][4])
            for p in phases:
                if spans[p][3] <= mid < spans[p][4]:
                    spans[c][1] = p
                    break

    # -- count mode -------------------------------------------------------------

    def _counter(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"
        if name == "digraph.has_edge":
            def has_edge(graph, u, v):
                counts[calls] += 1
                return fn(graph, u, v)
            return has_edge
        if name == "digraph.ensure":
            def ensure(seq, m):
                before = seq.materialized
                fn(seq, m)
                counts[calls] += 1
                counts["digraph.ensure.codes"] += seq.materialized - before
            return ensure
        tally = _TALLY.get(name)

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[calls] += 1
            if tally is not None:
                key, amount = tally
                counts[key] += amount(args, out)
            return out
        return counted

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Per-layer self time: each span minus the spans it directly caused."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _, t0, t1 in spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for i, (name, _, _, t0, t1) in enumerate(spans):
            out[SELF_METRIC[name]] += (t1 - t0) - child[i]
        return dict(out)

    def span_records(self) -> list:
        return [{"id": i, "name": s[0], "parent": s[1], "trace": s[2],
                 "start": s[3], "end": s[4]} for i, s in enumerate(self.spans)]
