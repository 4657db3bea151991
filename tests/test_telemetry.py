"""Tests for the unified instrumentation layer (:mod:`repro.core.telemetry`).

Four acceptance surfaces from the observability PR:

* span nesting/attribution properties and the metrics registry's
  snapshot/delta/merge algebra;
* disabled mode is a true no-op — the shared ``NOOP_SPAN`` singleton is
  returned by identity and no registry exists to mutate;
* cross-process aggregation is bit-for-bit deterministic: totals are
  independent of the jobs count and of worker completion order, and the
  exported deterministic view is identical across ``PYTHONHASHSEED``
  values;
* telemetry is behaviour-invariant — learned models, oracle reports and
  α are identical with telemetry on and off, serially and with jobs=2
  segment-learning workers —
  and the export round-trips through both :func:`read_events` and the
  repo's own streaming trace reader (:func:`repro.traces.io.iter_jsonl`).
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import telemetry
from repro.core.conditions import extract_conditions
from repro.core.oracle import make_oracle
from repro.core.telemetry import (
    NOOP_SPAN,
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    deterministic_view,
    export_jsonl,
    merge_into,
    read_events,
    render_profile,
    snapshot_delta,
)
from repro.evaluation import default_learner, run_active
from repro.expr import BOOL, FALSE, Var, land, lnot, simplify
from repro.stateflow.library import get_benchmark
from repro.traces.generate import random_traces
from repro.traces.io import iter_jsonl

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def no_leaked_session():
    """Every test must leave telemetry disabled (module-global state)."""
    telemetry.stop()
    yield
    assert telemetry.active() is None, "test leaked an active session"
    telemetry.stop()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_attribution(self):
        tracer = Tracer()
        with tracer.span("test.outer", k=1) as outer:
            assert tracer.current is outer
            with tracer.span("test.inner") as inner:
                assert inner.parent is outer
                assert tracer.current is inner
            with tracer.span("test.inner") as second:
                assert second.parent is outer
        assert tracer.current is None
        assert tracer.roots == [outer]
        assert outer.children == [inner, second]
        assert outer.depth == 0 and inner.depth == 1
        assert outer.attrs == {"k": 1}

    def test_timing_properties(self):
        tracer = Tracer()
        with tracer.span("test.outer") as outer:
            with tracer.span("test.inner"):
                pass
        assert outer.total_seconds >= 0.0
        child_total = sum(c.total_seconds for c in outer.children)
        assert outer.self_seconds == pytest.approx(
            outer.total_seconds - child_total
        )

    def test_set_is_chainable_mid_span(self):
        tracer = Tracer()
        with tracer.span("test.phase") as span:
            assert span.set(states=4, warm=True) is span
        assert span.attrs == {"states": 4, "warm": True}

    def test_iter_spans_preorder(self):
        tracer = Tracer()
        with tracer.span("test.a"):
            with tracer.span("test.b"):
                pass
            with tracer.span("test.c"):
                with tracer.span("test.d"):
                    pass
        with tracer.span("test.e"):
            pass
        names = [s.name for s in tracer.iter_spans()]
        assert names == ["test.a", "test.b", "test.c", "test.d", "test.e"]

    def test_sibling_order_is_entry_order(self):
        tracer = Tracer()
        with tracer.span("test.root"):
            for index in range(5):
                with tracer.span("test.child", index=index):
                    pass
        root = tracer.roots[0]
        assert [c.attrs["index"] for c in root.children] == list(range(5))


# ---------------------------------------------------------------------------
# disabled mode is free
# ---------------------------------------------------------------------------


class TestDisabledNoop:
    def test_span_returns_shared_singleton(self):
        assert telemetry.active() is None
        first = telemetry.span("test.anything", k=3)
        second = telemetry.span("test.other")
        assert first is NOOP_SPAN and second is NOOP_SPAN

    def test_noop_span_protocol(self):
        with telemetry.span("test.x") as span:
            assert span is NOOP_SPAN
            assert span.set(a=1) is NOOP_SPAN
        assert NOOP_SPAN.total_seconds == 0.0
        assert NOOP_SPAN.self_seconds == 0.0

    def test_metrics_and_enabled(self):
        assert telemetry.metrics() is None
        assert not telemetry.enabled()
        session = telemetry.start("test")
        try:
            assert telemetry.metrics() is session.metrics
            assert telemetry.enabled()
        finally:
            telemetry.stop()

    def test_instrumented_code_records_nothing_when_disabled(self):
        """Running instrumented engine code with no session leaves a
        later session's registry untouched (no buffered mutations)."""
        from repro.sat.cnf import CNF
        from repro.sat.solver import Solver

        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        Solver(cnf).solve()  # disabled: must not stash metrics anywhere
        session = telemetry.start("test")
        try:
            assert session.metrics.snapshot() == {
                "counters": {}, "gauges": {}, "histograms": {},
            }
        finally:
            telemetry.stop()


# ---------------------------------------------------------------------------
# metrics registry algebra
# ---------------------------------------------------------------------------


def _synthetic_registry(seed: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    rng = random.Random(seed)
    for index in range(20):
        registry.inc(f"test.counter_{index % 5}", rng.randrange(1, 100))
        registry.gauge_max(f"test.gauge_{index % 3}", rng.randrange(1, 1000))
        registry.observe(f"test.hist_{index % 2}", rng.randrange(0, 4096))
    return registry


class TestMetricsRegistry:
    def test_snapshot_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.inc("test.z")
        registry.inc("test.a", 4)
        registry.gauge("test.g", 7)
        registry.observe("test.h", 3)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["test.a", "test.z"]
        assert snap["counters"]["test.a"] == 4
        assert snap["gauges"] == {"test.g": 7}
        hist = snap["histograms"]["test.h"]
        assert hist["count"] == 1 and hist["sum"] == 3
        assert hist["min"] == 3 and hist["max"] == 3
        assert hist["buckets"] == [[2, 1]]  # 2 <= 3 < 4

    def test_gauge_max_keeps_peak(self):
        registry = MetricsRegistry()
        registry.gauge_max("test.peak", 10)
        registry.gauge_max("test.peak", 3)
        assert registry.snapshot()["gauges"]["test.peak"] == 10

    def test_delta_subtracts_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("test.c", 5)
        registry.observe("test.h", 1)
        before = registry.snapshot()
        registry.inc("test.c", 2)
        registry.inc("test.new", 1)
        registry.observe("test.h", 1)
        delta = registry.delta(before)
        assert delta["counters"] == {"test.c": 2, "test.new": 1}
        assert delta["histograms"]["test.h"]["count"] == 1
        # Unchanged names are omitted entirely.
        registry2 = MetricsRegistry()
        registry2.inc("test.c", 5)
        snap = registry2.snapshot()
        assert snapshot_delta(snap, snap) == {
            "counters": {}, "gauges": snap["gauges"], "histograms": {},
        }

    def test_delta_then_merge_reproduces_totals(self):
        """absorb(delta₁) ∘ absorb(delta₂) == the cumulative snapshot."""
        registry = _synthetic_registry(0)
        first = registry.snapshot()
        registry.inc("test.counter_0", 7)
        registry.observe("test.hist_0", 9)
        registry.gauge_max("test.gauge_0", 10**6)
        second = registry.snapshot()
        rebuilt = MetricsRegistry()
        merge_into(rebuilt, snapshot_delta(first, {
            "counters": {}, "gauges": {}, "histograms": {},
        }))
        merge_into(rebuilt, snapshot_delta(second, first))
        assert rebuilt.snapshot() == second

    def test_merge_semantics(self):
        registry = MetricsRegistry()
        merge_into(registry, {
            "counters": {"test.c": 3}, "gauges": {"test.g": 5},
            "histograms": {},
        })
        merge_into(registry, {
            "counters": {"test.c": 4}, "gauges": {"test.g": 2},
            "histograms": {},
        })
        snap = registry.snapshot()
        assert snap["counters"]["test.c"] == 7  # counters sum
        assert snap["gauges"]["test.g"] == 5    # gauges take the max

    def test_bucket_floor_for_non_positive(self):
        registry = MetricsRegistry()
        registry.observe("test.h", 0)
        registry.observe("test.h", -3)
        buckets = registry.snapshot()["histograms"]["test.h"]["buckets"]
        assert buckets == [[-1075, 2]]


# ---------------------------------------------------------------------------
# deterministic aggregation
# ---------------------------------------------------------------------------


def _worker_snapshots(count: int) -> list[dict]:
    """Synthetic integer-valued worker deltas (hash-order hostile: keys
    inserted in varying orders)."""
    snapshots = []
    for worker in range(count):
        names = [f"test.m{(worker + offset) % 7}" for offset in range(5)]
        counters = {name: worker + index + 1
                    for index, name in enumerate(names)}
        gauges = {f"test.g{worker % 3}": 100 + worker}
        hists = {
            "test.sizes": {
                "count": worker + 1, "sum": 10 * (worker + 1),
                "min": 1, "max": 10, "buckets": [[4, worker + 1]],
            }
        }
        snapshots.append(
            {"counters": counters, "gauges": gauges, "histograms": hists}
        )
    return snapshots


class TestAggregationDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_totals_independent_of_sharding_and_completion(self, jobs):
        """Absorbing the same worker deltas — sharded over any jobs
        count, arriving in any completion order — yields identical
        totals, byte for byte."""
        deltas = _worker_snapshots(8)
        # Reference: serial absorption in slot order.
        reference = TelemetrySession("test")
        for delta in deltas:
            reference.absorb(delta)
        expected = json.dumps(reference.metrics.snapshot(), sort_keys=True)

        rng = random.Random(jobs)
        for _ in range(5):
            session = TelemetrySession("test")
            # Round-robin shard like the pool, then simulate arbitrary
            # completion order per batch; the parent absorbs in slot
            # order exactly as core/pool.py does.
            slots: dict[int, list[dict]] = {s: [] for s in range(jobs)}
            for index, delta in enumerate(deltas):
                slots[index % jobs].append(delta)
            arrival = list(slots.items())
            rng.shuffle(arrival)  # completion order is not slot order
            received = dict(arrival)
            for slot in sorted(received):
                for delta in received[slot]:
                    session.absorb(delta)
            assert (
                json.dumps(session.metrics.snapshot(), sort_keys=True)
                == expected
            )

    def test_hash_seed_invariance(self):
        """The exported deterministic view is byte-identical across
        interpreter hash seeds (synthetic snapshots: real solver counters
        are hash-seed dependent by design, see docs/engines.md)."""
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            result = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SCRIPT],
                capture_output=True, text=True, env=env,
                cwd=REPO_ROOT, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert '"event": "snapshot"' in outputs[0]

    def test_pool_ships_worker_snapshots(self, counter):
        """Real cross-process path: a telemetry-enabled segmented learn
        at jobs=2 merges worker metrics into the parent session."""
        from repro.learn import SatDfaLearner, SegmentedLearner

        traces = random_traces(counter, count=6, length=12, seed=1)
        # SAT-DFA workers exercise engine-level counters crossing the
        # process gap, not just the parent-side segment.* counters.
        learner = SatDfaLearner(
            mode_vars=[v.name for v in counter.state_vars],
            variables={
                v.name: v
                for v in (*counter.state_vars, *counter.input_vars)
            },
        )
        session = telemetry.start("test")
        try:
            with SegmentedLearner(
                learner, 6, 2, jobs=2, start_method="fork"
            ) as segmented:
                segmented.learn(traces)
            snap = session.metrics.snapshot()
        finally:
            telemetry.stop()
        assert session.worker_snapshots > 0
        assert snap["counters"]["segment.segments"] > 0
        assert snap["counters"]["pool.batches"] >= 1
        # Worker-side engine counters made it across the process gap.
        assert snap["counters"]["sat.solve_calls"] > 0


_HASH_SEED_SCRIPT = """
import json, sys
from repro.core.telemetry import TelemetrySession, deterministic_view, export_jsonl

session = TelemetrySession("hashseed-test", {"jobs": 4})
with session.tracer.span("test.root", items=8) as root:
    with session.tracer.span("test.child"):
        pass
for worker in range(8):
    names = [f"test.m{(worker + offset) % 7}" for offset in range(5)]
    session.absorb({
        "counters": {n: worker + i + 1 for i, n in enumerate(names)},
        "gauges": {f"test.g{worker % 3}": 100 + worker},
        "histograms": {"test.sizes": {
            "count": worker + 1, "sum": 10 * (worker + 1),
            "min": 1, "max": 10, "buckets": [[4, worker + 1]],
        }},
    })
out = __import__("io").StringIO()
export_jsonl(session, out)
for line in out.getvalue().splitlines():
    print(json.dumps(deterministic_view(json.loads(line)), sort_keys=True))
"""


# ---------------------------------------------------------------------------
# behaviour invariance: telemetry never changes results
# ---------------------------------------------------------------------------


def _run_fingerprint(jobs: int):
    """jobs > 1 runs through the segmented learner's worker pool."""
    from repro.learn import SegmentedLearner

    benchmark = get_benchmark("MealyVendingMachine")
    spec = benchmark.fsas[0]
    learner = None
    if jobs > 1:
        learner = SegmentedLearner(
            default_learner(benchmark, spec), 5, jobs=jobs,
            start_method="fork",
        )
    out = run_active(
        benchmark, spec, initial_traces=5, trace_length=10,
        seed=3, budget_seconds=30, learner=learner,
    )
    records = [
        (r.index, r.num_states, r.num_transitions, r.conditions,
         r.violations, r.alpha, r.new_traces, r.spurious_excluded,
         r.warm_start)
        for r in out.result.records
    ]
    return (
        out.result.model.transitions,
        out.result.alpha,
        out.result.iterations,
        out.d,
        records,
    )


class TestBehaviourInvariance:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_active_identical_on_and_off(self, jobs):
        baseline = _run_fingerprint(jobs)
        telemetry.start("test", {"jobs": jobs})
        try:
            instrumented = _run_fingerprint(jobs)
        finally:
            telemetry.stop()
        assert instrumented == baseline

    def test_oracle_report_identical_on_and_off(self, cooler):
        learner = default_learner_for(cooler)
        traces = random_traces(cooler, count=8, length=10, seed=0)
        model = learner.learn(traces)
        conditions = extract_conditions(model)

        def report():
            return make_oracle(cooler, "explicit", 10).check_all(list(conditions))

        plain = report()
        telemetry.start("test")
        try:
            instrumented = report()
        finally:
            telemetry.stop()
        assert instrumented.alpha == plain.alpha
        assert instrumented.truncated == plain.truncated
        assert instrumented.outcomes == plain.outcomes


class TestCapHits:
    def test_cap_hits_counted_unguided_and_absent_with_guidance(self):
        """A cap hit is an INCONCLUSIVE left by the strengthening cap;
        exact reachable-state guidance leaves nothing to strengthen."""
        from repro.mc import reachable_formula

        bench = get_benchmark("ModelingASecuritySystem")
        spec = bench.fsa("InMotion InActive")
        traces = random_traces(bench.system, count=10, length=10, seed=0)
        conditions = extract_conditions(default_learner(bench, spec).learn(traces))

        def counters(domain):
            session = telemetry.start("test")
            try:
                make_oracle(
                    bench.system,
                    "explicit",
                    bench.k,
                    max_strengthenings=2,
                    domain_assumption=domain,
                ).check_all(conditions)
                return session.metrics.snapshot()["counters"]
            finally:
                telemetry.stop()

        unguided = counters(None)
        assert unguided["oracle.cap_hits"] > 0
        assert unguided["oracle.inconclusive"] >= unguided["oracle.cap_hits"]
        guided = counters(reachable_formula(bench.system))
        assert guided.get("oracle.cap_hits", 0) == 0
        assert guided.get("oracle.strengthening_rounds", 0) == 0


def default_learner_for(system):
    from repro.learn import T2MLearner

    return T2MLearner(
        mode_vars=[v.name for v in system.state_vars],
        variables={v.name: v for v in system.variables},
    )


# ---------------------------------------------------------------------------
# export + profile
# ---------------------------------------------------------------------------


def _small_session() -> TelemetrySession:
    session = TelemetrySession("test", {"seed": 0})
    with session.tracer.span("loop.run", system="toy") as run:
        with session.tracer.span("loop.learn", iteration=1):
            pass
        with session.tracer.span("loop.check", iteration=1, truncated=False):
            pass
    run.set(iterations=1)
    session.metrics.inc("sat.solve_calls", 3)
    session.metrics.gauge_max("bdd.peak_nodes", 17)
    session.metrics.observe("pool.batch_seconds", 0.25)
    return session


def _render(session, **kwargs):
    """``render_profile`` over ``session``'s exported events."""
    out = io.StringIO()
    export_jsonl(session, out)
    return render_profile(read_events(out.getvalue().splitlines()), **kwargs)


def _rewrite_rule_table(text):
    """``(rule, fires, attempts)`` rows of a rendered profile's
    rewrite-rule section, in display order."""
    lines = text.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.endswith("rewrite rules (fires/attempts):")
    )
    rows = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        name, fires, slash, attempts, _ = line.split()
        assert slash == "/"
        rows.append((name, int(fires), int(attempts)))
    return rows


class TestExport:
    def test_event_stream_shape(self):
        out = io.StringIO()
        count = export_jsonl(_small_session(), out, timestamp="2026-01-01")
        events = read_events(out.getvalue().splitlines())
        assert count == len(events) == 5  # meta + 3 spans + snapshot
        assert events[0]["event"] == "meta"
        assert events[0]["ts"] == "2026-01-01"
        spans = [e for e in events if e["event"] == "span"]
        assert [s["name"] for s in spans] == [
            "loop.run", "loop.learn", "loop.check",
        ]
        assert spans[0]["parent"] == -1
        assert spans[1]["parent"] == spans[0]["id"]
        assert events[-1]["event"] == "snapshot"
        assert events[-1]["counters"] == {"sat.solve_calls": 3}

    def test_deterministic_view_drops_timing(self):
        out = io.StringIO()
        export_jsonl(_small_session(), out, timestamp="2026-01-01")
        views = [
            deterministic_view(e)
            for e in read_events(out.getvalue().splitlines())
        ]
        for view in views:
            assert "t" not in view and "ts" not in view
        snapshot = views[-1]
        assert "pool.batch_seconds" not in snapshot["histograms"]
        # Two separately-timed identical workloads agree exactly.
        out2 = io.StringIO()
        export_jsonl(_small_session(), out2, timestamp="2027-12-31")
        views2 = [
            deterministic_view(e)
            for e in read_events(out2.getvalue().splitlines())
        ]
        assert views == views2

    def test_bool_attrs_exported_as_ints_in_obs(self):
        out = io.StringIO()
        export_jsonl(_small_session(), out)
        events = read_events(out.getvalue().splitlines())
        check = next(
            e for e in events
            if e["event"] == "span" and e["name"] == "loop.check"
        )
        assert check["obs"]["truncated"] == 0
        assert check["attrs"]["truncated"] is False

    def test_telemetry_log_is_iter_jsonl_readable(self, tmp_path):
        """The trace-checking tie-in: a telemetry log parses with the
        repo's own streaming trace reader."""
        path = tmp_path / "out.telemetry.jsonl"
        with open(path, "w") as handle:
            export_jsonl(_small_session(), handle)
        with open(path) as handle:
            events = list(iter_jsonl(handle))
        assert len(events) == 5
        indices = {index for index, _ in events}
        assert indices == {0}  # one run = one trace
        kinds = [obs["kind"] for _, obs in events]
        assert kinds == [0, 1, 1, 1, 2]

    def test_render_profile(self):
        out = io.StringIO()
        export_jsonl(_small_session(), out)
        text = render_profile(read_events(out.getvalue().splitlines()))
        assert "loop.run" in text
        assert "learn-phase share" in text
        assert "sat.solve_calls" in text
        assert "bdd.peak_nodes" in text

    def test_render_profile_ranks_rewrite_rules(self):
        """The simplifier's per-rule counters reach the profile's
        rewrite-rule table, ranked by fires."""
        a = Var("a_profile_rules", BOOL)
        b = Var("b_profile_rules", BOOL)
        session = telemetry.start("test")
        try:
            assert simplify(land(a, b, lnot(a))) is FALSE
        finally:
            telemetry.stop()
        rows = _rewrite_rule_table(_render(session))
        assert rows[0] == ("and_complement", 1, 1)
        assert ("and_contradiction", 0, 1) in rows

    def test_rewrite_rule_table_orders_by_fires_then_attempts_then_name(self):
        session = TelemetrySession("test")
        counters = {
            "rewrite.rule.beta.fires": 2,
            "rewrite.rule.beta.attempts": 5,
            "rewrite.rule.alpha.fires": 2,
            "rewrite.rule.alpha.attempts": 5,
            "rewrite.rule.gamma.fires": 2,
            "rewrite.rule.gamma.attempts": 9,
            "rewrite.rule.delta.attempts": 40,
            "rewrite.fixpoint_iterations": 77,
            "sat.solve_calls": 3,
        }
        for name, value in counters.items():
            session.metrics.inc(name, value)
        assert _rewrite_rule_table(_render(session)) == [
            ("gamma", 2, 9),
            ("alpha", 2, 5),
            ("beta", 2, 5),
            ("delta", 0, 40),
        ]

    def test_rewrite_rule_table_respects_top_and_absence(self):
        session = TelemetrySession("test")
        for rule, fires in (("one", 3), ("two", 2), ("three", 1)):
            session.metrics.inc(f"rewrite.rule.{rule}.fires", fires)
            session.metrics.inc(f"rewrite.rule.{rule}.attempts", 4)
        text = _render(session, top=2)
        assert "top 2 rewrite rules (fires/attempts):" in text
        assert _rewrite_rule_table(text) == [("one", 3, 4), ("two", 2, 4)]
        # No rule counters, no section.
        bare = TelemetrySession("test")
        bare.metrics.inc("rewrite.fixpoint_iterations", 5)
        assert "rewrite rules" not in _render(bare)


# ---------------------------------------------------------------------------
# CLI + Table I agreement
# ---------------------------------------------------------------------------


class TestCliAndTableAgreement:
    def test_run_telemetry_and_profile_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "run.telemetry.jsonl"
        code = main([
            "run", "MealyVendingMachine", "--traces", "5", "--length", "10",
            "--budget", "30", "--telemetry", str(path),
        ])
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out
        assert path.exists()
        code = main(["profile", str(path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "span tree" in text
        assert "loop.run" in text
        assert "learn-phase share" in text

    def test_profile_missing_file(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_root_total_matches_reported_t_and_tm(self):
        """Acceptance: the exported span tree's loop.run total equals the
        Table I ``T`` and the learn-phase share equals ``%Tm``."""
        benchmark = get_benchmark("MealyVendingMachine")
        session = telemetry.start("test")
        try:
            out = run_active(
                benchmark, benchmark.fsas[0], initial_traces=5,
                trace_length=10, budget_seconds=30,
            )
        finally:
            telemetry.stop()
        assert out.snapshot is not None
        buffer = io.StringIO()
        export_jsonl(session, buffer)
        events = read_events(buffer.getvalue().splitlines())
        roots = [
            e for e in events
            if e["event"] == "span" and e["parent"] == -1
            and e["name"] == "loop.run"
        ]
        assert len(roots) == 1
        assert roots[0]["t"]["total"] == out.row.time_seconds
        run_id = roots[0]["id"]
        learn_total = sum(
            e["t"]["total"] for e in events
            if e["event"] == "span" and e["name"] == "loop.learn"
            and e["parent"] == run_id
        )
        expected_tm = 100.0 * learn_total / roots[0]["t"]["total"]
        assert out.row.percent_learning == pytest.approx(expected_tm)
        text = render_profile(events)
        assert f"{expected_tm:.1f}%" in text

    def test_splice_span_per_refining_round(self):
        """Every round that splices counterexamples has a ``refine.splice``
        child of ``loop.run`` carrying that round's trace counts."""
        benchmark = get_benchmark("ModelingALaunchAbortSystem")
        spec = next(s for s in benchmark.fsas if s.name == "ModeLogic")
        session = telemetry.start("test")
        try:
            out = run_active(
                benchmark, spec, initial_traces=10, trace_length=10,
                budget_seconds=30,
            )
        finally:
            telemetry.stop()
        buffer = io.StringIO()
        export_jsonl(session, buffer)
        events = read_events(buffer.getvalue().splitlines())
        spans = [e for e in events if e["event"] == "span"]
        run_id = next(e["id"] for e in spans if e["name"] == "loop.run")
        splices = [e for e in spans if e["name"] == "refine.splice"]
        refining = [r for r in out.result.records if r.violations]
        assert any(r.duplicates_skipped for r in refining)
        assert [
            (e["attrs"]["iteration"], e["attrs"]["new_traces"],
             e["attrs"]["duplicates"])
            for e in splices
        ] == [(r.index, r.new_traces, r.duplicates_skipped) for r in refining]
        assert all(e["parent"] == run_id for e in splices)
        assert "refine.splice" in render_profile(events)

    def test_jobs_snapshot_merged_into_export(self):
        """A run_active whose segments are learned on two workers
        exports a fleet snapshot with their counters merged in."""
        from repro.learn import SegmentedLearner

        benchmark = get_benchmark("MealyVendingMachine")
        spec = benchmark.fsas[0]
        session = telemetry.start("run")
        try:
            run_active(
                benchmark, spec, initial_traces=5, trace_length=10,
                budget_seconds=30,
                learner=SegmentedLearner(
                    default_learner(benchmark, spec), 5, jobs=2,
                    start_method="fork",
                ),
            )
        finally:
            telemetry.stop()
        buffer = io.StringIO()
        export_jsonl(session, buffer)
        events = read_events(buffer.getvalue().splitlines())
        snap = events[-1]
        assert snap["event"] == "snapshot"
        assert snap["workers"] > 0
        assert snap["counters"]["sat.solve_calls"] > 0
        assert snap["counters"]["pool.items"] > 0


class TestBddCacheProfiling:
    """Op-cache hit/miss accounting must be free when telemetry is off:
    plain-dict caches by default, counting caches only when a session is
    active at manager construction (or on explicit request)."""

    def _exercise(self, mgr):
        from repro.bdd.manager import BddManager

        assert isinstance(mgr, BddManager)
        a, b, c = mgr.var(0), mgr.var(1), mgr.var(2)
        f = mgr.apply_and(a, mgr.apply_or(b, c))
        g = mgr.apply_and(a, mgr.apply_or(b, c))
        assert f == g
        assert mgr.count_models(f, 3) == 3
        return f

    def test_plain_dicts_without_session(self):
        from repro.bdd.manager import BddManager

        mgr = BddManager()
        assert mgr.profile_caches is False
        self._exercise(mgr)
        stats = mgr.cache_stats
        assert all(
            value == 0
            for name, value in stats.items()
            if name.endswith(("_hits", "_misses"))
        )
        assert type(mgr._ite_cache) is dict

    def test_counting_caches_with_explicit_flag(self):
        from repro.bdd.manager import BddManager

        mgr = BddManager(profile_caches=True)
        self._exercise(mgr)
        stats = mgr.cache_stats
        assert stats["ite_misses"] > 0
        # The repeated apply_and/apply_or pair replays the same ite
        # keys, so the second pass is all hits.
        assert stats["ite_hits"] > 0
        assert stats["count_models_misses"] > 0
        # Lifetime totals survive a cache clear; the clear itself is
        # accounted.
        mgr.clear_caches()
        after = mgr.cache_stats
        assert after["ite_hits"] == stats["ite_hits"]
        assert after["ite_misses"] == stats["ite_misses"]
        assert after["clears"] == stats["clears"] + 1
        assert after["dropped"] > 0

    def test_session_enables_profiling_and_publish(self):
        from repro.bdd.manager import BddManager

        telemetry.start("test", record_spans=False)
        try:
            mgr = BddManager()
            assert mgr.profile_caches is True
            self._exercise(mgr)
            registry = telemetry.metrics()
            mgr.publish_metrics(registry)
            snap = registry.snapshot()
        finally:
            telemetry.stop()
        assert snap["counters"]["bdd.cache.ite_misses"] > 0
        assert snap["counters"]["bdd.cache.ite_hits"] > 0
        assert snap["gauges"]["bdd.peak_nodes"] > 0


# ---------------------------------------------------------------------------
# Generation and baseline spans
# ---------------------------------------------------------------------------


class TestGenerationAndBaselineSpans:
    def test_spans_leave_t_and_tm_to_the_loop(self):
        """``table1 --baseline`` shape: an active row then a baseline row
        under one session.  Generation and the baseline's phases get
        their own spans; ``loop.run`` and ``%Tm`` stay the active row's."""
        from repro.evaluation import run_random_baseline

        benchmark = get_benchmark("MealyVendingMachine")
        spec = benchmark.fsas[0]
        session = telemetry.start("table1")
        try:
            out = run_active(
                benchmark, spec, initial_traces=5, trace_length=10,
                budget_seconds=30,
            )
            run_random_baseline(
                benchmark, spec, num_observations=500, trace_length=50
            )
        finally:
            telemetry.stop()
        buffer = io.StringIO()
        export_jsonl(session, buffer)
        events = read_events(buffer.getvalue().splitlines())
        spans = [e for e in events if e["event"] == "span"]
        by_id = {e["id"]: e for e in spans}

        def children(parent: dict) -> list[str]:
            return [e["name"] for e in spans if e["parent"] == parent["id"]]

        assert [e["name"] for e in spans if e["parent"] == -1] == [
            "traces.generate", "loop.run", "eval.score", "baseline.run",
        ]
        generated = [e["attrs"] for e in spans if e["name"] == "traces.generate"]
        assert [(a["traces"], a["steps"]) for a in generated] == [(5, 50), (10, 500)]
        for attrs in generated:
            assert 0 < attrs["stepped"] <= attrs["steps"]
        baseline = next(e for e in spans if e["name"] == "baseline.run")
        assert children(baseline) == [
            "traces.generate", "baseline.learn", "baseline.check",
        ]
        assert baseline["attrs"] == {"benchmark": benchmark.name, "fsa": spec.name}
        baseline_checks = [
            e for e in spans
            if e["name"] == "oracle.check"
            and by_id[e["parent"]]["name"] == "baseline.check"
        ]
        assert baseline_checks
        assert all(e["name"] != "loop.learn" for e in spans if e["id"] > baseline["id"])

        run = next(e for e in spans if e["name"] == "loop.run")
        assert run["t"]["total"] == out.row.time_seconds
        learn_total = sum(
            e["t"]["total"] for e in spans
            if e["name"] == "loop.learn" and e["parent"] == run["id"]
        )
        expected_tm = 100.0 * learn_total / run["t"]["total"]
        assert out.row.percent_learning == pytest.approx(expected_tm)
        assert f"learn-phase share: {expected_tm:.1f}%" in render_profile(events)
