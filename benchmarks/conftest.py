"""Shared configuration for the benchmark harness.

Every table and figure of the paper's evaluation has a regenerating
benchmark module here (see DESIGN.md §4 for the index).  Scales default
to laptop-friendly values and can be raised towards the paper's original
scales via environment variables:

``REPRO_TRACES``        initial traces (paper: 50)          default 30
``REPRO_TRACE_LEN``     initial trace length (paper: 50)    default 30
``REPRO_BUDGET``        per-run budget seconds (paper: 10h) default 90
``REPRO_BASELINE_OBS``  baseline observations (paper: 1M)   default 5000

Records are written only on request:

``REPRO_BENCH_WRITE``   1 = rewrite the ``BENCH_*.json`` records  default unset

The ``BENCH_*.json`` files at the repository root are deliberate,
tracked records, so a plain test run measures and asserts everything
without rewriting them; the CI benchmark job sets the variable and
uploads what the run wrote.  Benchmarks store records through the
:func:`bench_record` fixture.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``slow``.

    The fast tier-1 core is then ``pytest -m "not slow"`` (or just
    ``pytest tests/``); the full run still includes the benchmarks.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def bench_record():
    """``write(path, record, merge=False)``: store a benchmark record,
    only when ``REPRO_BENCH_WRITE=1``.

    A dict is written as indented JSON; with ``merge=True`` it updates
    the file's existing top-level keys instead of replacing the file, so
    tests sharing one record stay runnable one at a time.  A str is
    written verbatim.
    """
    enabled = os.environ.get("REPRO_BENCH_WRITE") == "1"

    def write(path: Path, record: dict | str, merge: bool = False) -> None:
        if not enabled:
            print(f"{path.name} not written (REPRO_BENCH_WRITE=1 records it)")
            return
        if isinstance(record, str):
            path.write_text(record)
            return
        if merge and path.exists():
            record = {**json.loads(path.read_text()), **record}
        path.write_text(json.dumps(record, indent=2) + "\n")

    return write


TRACES = int(os.environ.get("REPRO_TRACES", "30"))
TRACE_LEN = int(os.environ.get("REPRO_TRACE_LEN", "30"))
BUDGET = float(os.environ.get("REPRO_BUDGET", "90"))
BASELINE_OBS = int(os.environ.get("REPRO_BASELINE_OBS", "5000"))


def table1_rows() -> list[tuple[str, str]]:
    """All (benchmark, fsa) pairs: the rows of Table I."""
    from repro.stateflow.library import benchmark_names, get_benchmark

    rows = []
    for name in benchmark_names():
        for spec in get_benchmark(name).fsas:
            rows.append((name, spec.name))
    return rows


@pytest.fixture(scope="session")
def table1_report():
    """Collects rows across tests and prints the table at session end."""
    from repro.core import format_baseline_table, format_table

    active_rows = []
    baseline_rows = []
    yield active_rows, baseline_rows
    if active_rows:
        print("\n\n" + "=" * 100)
        print("TABLE I (reproduction) -- active learning algorithm")
        print("=" * 100)
        print(format_table(sorted(active_rows, key=lambda r: (r.benchmark, r.fsa))))
    if baseline_rows:
        print("\n" + "=" * 100)
        print("TABLE I (reproduction) -- random-sampling baseline")
        print("=" * 100)
        print(
            format_baseline_table(
                sorted(baseline_rows, key=lambda r: (r.benchmark, r.fsa))
            )
        )
