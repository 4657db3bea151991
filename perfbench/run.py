"""Layer-attributed end-to-end benchmark of the active-learning loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-active --seed 0 --seconds 45 --trace 0

A run is a fixed number of *passes* over the workload's rows.  The count
depends only on the workload and ``--seconds`` (``PASSES`` is the count
at 45 s, scaled linearly), never on how fast a pass turned out to be, so
two commits always measure the same inputs.  Pass ``j`` of ``--seed s``
feeds every row the trace seed ``s + 1000 j``; pass 0 is exactly
``repro table1 --seed s`` at the workload's settings.

Each pass runs in its own fresh interpreter (``worker.py``) with
``PYTHONHASHSEED=0``, so counts repeat exactly from run to run.  Two
passes run at a time, one per core, which doubles the passes a run can
average over.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pass 0
twice at the same time, once plain and once with the layer wrappers of
``layers.py``, and prints the per-layer metrics.  The plain pass is the
reference for ``trace.overhead_frac`` and for the determinism
cross-check: every row's ``i``, ``N``, ``α`` and INCONCLUSIVE count must
agree between the two.

Before the JSON line, one detail line per row gives its time, ``i``,
``N``, ``α`` and INCONCLUSIVE count.  See ``README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

#: Passes per run at ``--seconds 45``.  table1-active fills the time;
#: the other two workloads are steady with fewer passes and end early.
PASSES = {"table1-active": 4, "baseline-passive": 2, "unguided-bdd": 4}
PASSES_SECONDS = 45.0
#: Passes (worker processes) running at once.
CONCURRENT = 2
#: Set-up is sampled at least this often per run; ``setup_s`` is the median.
MIN_SETUPS = 3
#: Every worker must have finished this long after the run started.
RUN_LIMIT_S = 170.0

#: Per-layer ratios: (metric, count) gives count / calls.
RATIOS = {
    "learn.session": ("warm_ratio", "warm"),
    "learn.synthesize": ("found_ratio", "found"),
    "oracle.solve": ("sat_ratio", "sat"),
    "oracle.classify": ("spurious_ratio", "spurious"),
    "bdd.image": ("memo_hit_ratio", "memo_hits"),
}
#: Per-layer counts reported as they are.
COUNTS = {
    "traces.generate": ("steps",),
    "conditions.extract": ("conditions",),
    "oracle.check": ("violations",),
    "smt.encode": ("clauses",),
    "sat.solve": ("propagations", "conflicts"),
    "mc.explicit": ("states",),
    "refine.splice": ("new_traces",),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed row)."""


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / PASSES_SECONDS))


def trace_seed(seed: int, pass_index: int) -> int:
    return seed + 1000 * pass_index


def run_worker(
    workload: str, seed: int, deadline: float, traced: bool = False, setup_only: bool = False
) -> dict:
    """Run one pass (or only its set-up) in a fresh interpreter."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--trace-seed", str(seed),
        "--traced", str(int(traced)),
    ]
    if setup_only:
        command.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the next pass")
    command += ["--started", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass at trace seed {seed} overran the run limit") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workers(jobs: list[dict], deadline: float) -> list[dict]:
    """``run_worker(**job)`` for every job, ``CONCURRENT`` at a time, in order."""
    with ThreadPoolExecutor(CONCURRENT) as pool:
        futures = [pool.submit(run_worker, deadline=deadline, **job) for job in jobs]
        return [future.result() for future in futures]


def print_rows(label: str, seed: int, report: dict) -> None:
    for row in report["rows"]:
        status = "ok" if row["error"] is None else f"FAILED {row['error']}"
        if "alpha" in row:
            summary = (
                f"i={row['i']} N={row['N']} alpha={row['alpha']:.4f} "
                f"inconclusive={row['inconclusive']}"
            )
        else:
            summary = "i=- N=- alpha=- inconclusive=-"
        print(f"row {label} seed={seed} t={row['t']:.4f}s {summary} {status} {row['row']}")


def pass_total(report: dict) -> float:
    """Wall seconds of the pass's rows."""
    return sum(row["t"] for row in report["rows"])


def print_pass(label: str, seed: int, report: dict) -> None:
    print_rows(label, seed, report)
    print(f"total {label} seed={seed} t={pass_total(report):.4f}s")


def failures(reports: list[dict]) -> tuple[int, int]:
    rows = [row for report in reports for row in report["rows"]]
    return len(rows), sum(1 for row in rows if row["error"] is not None)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    seeds = [trace_seed(seed, index) for index in range(passes_for(workload, seconds))]
    jobs = [{"workload": workload, "seed": pass_seed} for pass_seed in seeds]
    extra = max(0, MIN_SETUPS - len(jobs))
    jobs += [{"workload": workload, "seed": seed, "setup_only": True}] * extra
    reports = run_workers(jobs, deadline)
    setups = [report["setup_s"] for report in reports]
    reports = reports[: len(seeds)]
    for index, (pass_seed, report) in enumerate(zip(seeds, reports, strict=True)):
        print_pass(f"pass={index}", pass_seed, report)
    attempted, failed = failures(reports)
    metrics = {
        "total_s": (statistics.median(pass_total(r) for r in reports), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (max(report["rss_mib"] for report in reports), "MiB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def nondeterminism(reference: dict, traced: dict) -> list[str]:
    """Rows whose loop counts moved between the plain and the traced pass."""
    keys = ("i", "N", "alpha", "inconclusive")
    return [
        f"{a['row']}: {[a.get(k) for k in keys]} vs {[b.get(k) for k in keys]}"
        for a, b in zip(reference["rows"], traced["rows"], strict=True)
        if [a.get(k) for k in keys] != [b.get(k) for k in keys]
    ]


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    first = trace_seed(seed, 0)
    reference, traced = run_workers(
        [
            {"workload": workload, "seed": first},
            {"workload": workload, "seed": first, "traced": True},
        ],
        deadline,
    )
    print_pass("reference", first, reference)
    print_pass("traced", first, traced)
    moved = nondeterminism(reference, traced)
    for line in moved:
        print(f"count moved between identical passes: {line}", file=sys.stderr)

    layers = traced["layers"]
    traced_total = pass_total(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls = layers["calls"][layer]
        counts = layers["counts"][layer]
        metrics[f"{layer}.self_frac"] = (ratio(layers["self_s"][layer], traced_total), "ratio")
        metrics[f"{layer}.calls"] = (calls, "count")
        for name in COUNTS.get(layer, ()):
            metrics[f"{layer}.{name}"] = (counts.get(name, 0), "count")
        if layer in RATIOS:
            name, count = RATIOS[layer]
            metrics[f"{layer}.{name}"] = (ratio(counts.get(count, 0), calls), "ratio")
    splice = layers["counts"]["refine.splice"]
    spliced = splice.get("new_traces", 0) + splice.get("duplicates", 0)
    metrics["refine.splice.dup_ratio"] = (ratio(splice.get("duplicates", 0), spliced), "ratio")
    metrics["sat.solve.props_per_s"] = (
        ratio(layers["counts"]["sat.solve"].get("propagations", 0), layers["self_s"]["sat.solve"]),
        "1/s",
    )
    rows = reference["rows"]
    metrics["loop.iterations"] = (sum(row.get("i", 0) for row in rows), "count")
    metrics["loop.model_states"] = (sum(row.get("N", 0) for row in rows), "count")
    metrics["loop.inconclusive"] = (sum(row.get("inconclusive", 0) for row in rows), "count")
    metrics["loop.slowest_row_s"] = (max(row["t"] for row in rows), "s")
    attributed = sum(layers["self_s"].values())
    metrics["trace.total_s"] = (traced_total, "s")
    metrics["trace.unattributed_s"] = (traced_total - attributed, "s")
    metrics["trace.coverage"] = (ratio(attributed, traced_total), "ratio")
    metrics["trace.overhead_frac"] = (ratio(traced_total, pass_total(reference)) - 1.0, "ratio")

    attempted, failed = failures([reference, traced])
    return {
        "correct": failed == 0 and not moved,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=PASSES_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
