"""Determinism self-check: two traced runs at one seed repeat every count.

Timings from two runs are comparable only if both did the same work, so
the counts that define the work must repeat exactly.  Runs the traced
benchmark twice per workload and compares them.  ``unguided-bdd`` (about
half a minute) runs under pytest; check the other workloads with::

    python3 perfbench/test_determinism.py table1-active baseline-passive
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

COUNTS = (
    "loop.iterations",
    "loop.model_states",
    "loop.inconclusive",
    "oracle.strengthen.calls",
    "sat.solve.calls",
    "smt.encode.clauses",
)


def traced_counts(workload: str, seed: int = 0) -> dict[str, float]:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout + done.stderr
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def moved_counts(workload: str) -> dict[str, tuple[float, float]]:
    first, second = traced_counts(workload), traced_counts(workload)
    return {name: (first[name], second[name]) for name in COUNTS if first[name] != second[name]}


@pytest.mark.slow
def test_unguided_bdd_counts_repeat_exactly():
    assert moved_counts("unguided-bdd") == {}


if __name__ == "__main__":
    status = 0
    for name in sys.argv[1:] or ["unguided-bdd"]:
        moved = moved_counts(name)
        print(f"{name}: {'counts repeat exactly' if not moved else moved}")
        status |= bool(moved)
    sys.exit(status)
