"""Macro-benchmark: what does the telemetry layer cost?

Two claims, measured on the launch-abort active-learning workload (the
same system the incremental-learning and parallel-oracle benchmarks
use) and recorded in ``BENCH_observability.json`` at the repo root:

* **Disabled telemetry is free (< 5%, asserted).**  With no active
  session every instrumented site costs one module-global ``is None``
  test plus, on span sites, the shared no-op singleton.  Wall-clock A/B
  runs cannot resolve sub-percent effects on a shared CI runner, so the
  assertion is built the robust way: count the instrumentation
  touchpoints the workload actually executes (registry method calls +
  spans, counted during an enabled run), micro-time the disabled-mode
  cost of each kind of touchpoint, and bound the total against the
  measured disabled-run wall time.  The direct A/B ratio is recorded
  too, for the humans.
* **Enabled-mode overhead and event counts (recorded).**  The enabled
  run's wall time, its exported event count, and the metric cardinality
  land in the record, and the export itself is written next to the
  record as ``observability.telemetry.jsonl`` (both only with
  ``REPRO_BENCH_WRITE=1``, see ``conftest.py``) — the CI benchmark job
  uploads ``*.telemetry.jsonl`` alongside ``BENCH_*.json``, so a
  regression in these numbers can be profiled straight from the
  artifact (``repro profile observability.telemetry.jsonl``).

Run:  pytest benchmarks/test_observability.py -s
"""

from __future__ import annotations

import io
from pathlib import Path
from time import perf_counter

from conftest import BUDGET, TRACE_LEN, TRACES

from repro.core import telemetry
from repro.core.telemetry import MetricsRegistry
from repro.evaluation import run_active
from repro.stateflow.library import get_benchmark

BENCH = "ModelingALaunchAbortSystem"
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_observability.json"
TELEMETRY_PATH = REPO_ROOT / "observability.telemetry.jsonl"

MICRO_ITERATIONS = 200_000


def _workload():
    benchmark = get_benchmark(BENCH)
    return run_active(
        benchmark,
        benchmark.fsas[0],
        initial_traces=TRACES,
        trace_length=TRACE_LEN,
        seed=0,
        budget_seconds=BUDGET,
    )


def _count_registry_calls() -> "tuple[dict, int]":
    """Run the workload enabled, counting every registry touchpoint."""
    calls = 0

    class _Counting(MetricsRegistry):
        __slots__ = ()

        def inc(self, name, amount=1):
            nonlocal calls
            calls += 1
            super().inc(name, amount)

        def gauge(self, name, value):
            nonlocal calls
            calls += 1
            super().gauge(name, value)

        def gauge_max(self, name, value):
            nonlocal calls
            calls += 1
            super().gauge_max(name, value)

        def observe(self, name, value):
            nonlocal calls
            calls += 1
            super().observe(name, value)

    session = telemetry.start("bench-observability", {"benchmark": BENCH})
    session.metrics = _Counting()
    try:
        start = perf_counter()
        out = _workload()
        enabled_seconds = perf_counter() - start
    finally:
        telemetry.stop()
    spans = sum(1 for _ in session.tracer.iter_spans())
    return (
        {
            "session": session,
            "out": out,
            "enabled_seconds": enabled_seconds,
            "spans": spans,
        },
        calls,
    )


def _disabled_op_cost() -> dict[str, float]:
    """Per-call disabled-mode cost of each touchpoint kind, seconds."""
    assert telemetry.active() is None
    # Span touchpoint: span() + context enter/exit on the shared no-op.
    start = perf_counter()
    for _ in range(MICRO_ITERATIONS):
        with telemetry.span("bench.noop"):
            pass
    span_cost = (perf_counter() - start) / MICRO_ITERATIONS
    # Registry touchpoint: in disabled mode the registry is never
    # reached — the guard is one active()/metrics() None-check.
    start = perf_counter()
    for _ in range(MICRO_ITERATIONS):
        telemetry.metrics()
    check_cost = (perf_counter() - start) / MICRO_ITERATIONS
    return {"span": span_cost, "check": check_cost}


def test_telemetry_overhead(bench_record):
    telemetry.stop()

    # Warm-up (library/caches), then the measured disabled runs.
    _workload()
    disabled_seconds = min(
        _timed(_workload) for _ in range(2)
    )

    enabled, registry_calls = _count_registry_calls()
    out = enabled["out"]

    # Exported next to the record for the CI artifact upload.
    log = io.StringIO()
    events = telemetry.export_jsonl(enabled["session"], log)

    # Disabled-cost bound: every registry call site is guarded by one
    # None-check (so a disabled run pays `check` there, not the call),
    # every span site pays the no-op span protocol.  Guards that fire
    # without reaching the registry (per-solve _tel_metrics, per-image
    # publish) are bounded by the registry_calls count itself: each
    # enabled-mode registry call corresponds to exactly one disabled-mode
    # guard evaluation at the same site.
    costs = _disabled_op_cost()
    touch_seconds = (
        enabled["spans"] * costs["span"] + registry_calls * costs["check"]
    )
    overhead_fraction = touch_seconds / disabled_seconds

    snap = enabled["session"].metrics.snapshot()
    record = {
        "benchmark": BENCH,
        "workload": {
            "initial_traces": TRACES,
            "trace_length": TRACE_LEN,
            "budget_seconds": BUDGET,
            "iterations": out.result.iterations,
            "alpha": out.result.alpha,
        },
        "disabled": {
            "wall_seconds": round(disabled_seconds, 4),
            "span_sites_executed": enabled["spans"],
            "registry_guard_evaluations": registry_calls,
            "noop_span_cost_ns": round(costs["span"] * 1e9, 1),
            "guard_check_cost_ns": round(costs["check"] * 1e9, 1),
            "bounded_overhead_fraction": round(overhead_fraction, 6),
        },
        "enabled": {
            "wall_seconds": round(enabled["enabled_seconds"], 4),
            "overhead_vs_disabled": round(
                enabled["enabled_seconds"] / disabled_seconds - 1.0, 4
            ),
            "exported_events": events,
            "counters": len(snap["counters"]),
            "gauges": len(snap["gauges"]),
            "histograms": len(snap["histograms"]),
            "worker_snapshots": enabled["session"].worker_snapshots,
        },
        "telemetry_log": TELEMETRY_PATH.name,
    }
    bench_record(RESULT_PATH, record)
    bench_record(TELEMETRY_PATH, log.getvalue())
    print(
        f"\n{BENCH}: disabled {disabled_seconds:.3f}s "
        f"({enabled['spans']} spans + {registry_calls} guards "
        f"=> bounded overhead {100 * overhead_fraction:.3f}%), "
        f"enabled {enabled['enabled_seconds']:.3f}s, "
        f"{events} events exported"
    )

    # The acceptance bound: instrumentation left disabled costs the
    # workload less than 5% of its wall time.
    assert overhead_fraction < 0.05, (
        f"disabled-telemetry bound {100 * overhead_fraction:.2f}% "
        f">= 5% of the {disabled_seconds:.3f}s workload"
    )
    # Sanity on the enabled path: the export carries real signal.
    assert events > 3
    assert snap["counters"].get("sat.solve_calls", 0) > 0


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start
