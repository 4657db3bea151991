"""One benchmark pass in a fresh interpreter: set up, run every row, check.

``run.py`` starts one worker per pass, so each pass sees the program
exactly as a fresh ``repro table1`` process does: cold per-system caches
(explicit reachability tables, BDD contexts) and cold expression memos.
The worker

1. imports the program from ``src/``, compiles the workload's charts and
   (for the active workloads) their ground-truth witnesses, and reports
   how long that took since the parent started it (``setup_s``);
2. times each row's call into the public runner and nothing else;
3. checks each row's output outside the timed region;
4. prints one JSON object: per-row times, loop counts and check
   verdicts, plus the layer statistics of a traced pass.

Run by ``run.py``; by hand::

    python3 perfbench/worker.py --workload unguided-bdd --trace-seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: The scale of ``repro table1 --traces 30 --length 30``, for every workload.
ACTIVE_TRACES, ACTIVE_LENGTH, ROW_BUDGET_S = 30, 30, 60.0
BASELINE_OBSERVATIONS, BASELINE_LENGTH = 5_000, 50

#: The unguided BDD rows: those that reach α = 1 well inside the row
#: budget without reachable-state guidance.
UNGUIDED_BDD_ROWS = (
    ("ModelingALaunchAbortSystem", "Abort InabortLogic"),
    ("ModelingALaunchAbortSystem", "Overall"),
    ("ModelingALaunchAbortSystem", "ModeLogic"),
    ("ModelingARedundantSensorPairUsingAtomicSubchart", "Selector"),
    ("AutomaticTransmissionUsingDurationOperator", "Gear"),
    ("KarplusStrongAlgorithmUsingStateflow", "DelayLine"),
    ("KarplusStrongAlgorithmUsingStateflow", "MovingAverage"),
)

WORKLOADS = ("table1-active", "baseline-passive", "unguided-bdd")


def workload_rows(workload: str) -> list[tuple[str, str]]:
    from repro.stateflow.library import benchmark_names, get_benchmark

    if workload == "unguided-bdd":
        return list(UNGUIDED_BDD_ROWS)
    return [
        (name, spec.name)
        for name in benchmark_names()
        for spec in get_benchmark(name).fsas
    ]


def run_row(workload: str, bench, spec, seed: int):
    from repro.evaluation import run_active, run_random_baseline

    if workload == "baseline-passive":
        return run_random_baseline(
            bench,
            spec,
            num_observations=BASELINE_OBSERVATIONS,
            trace_length=BASELINE_LENGTH,
            seed=seed,
        )
    return run_active(
        bench,
        spec,
        initial_traces=ACTIVE_TRACES,
        trace_length=ACTIVE_LENGTH,
        seed=seed,
        budget_seconds=ROW_BUDGET_S,
        spurious_engine="bdd" if workload == "unguided-bdd" else "explicit",
    )


def check_active(bench, spec, seed: int, out) -> str | None:
    """None if the row is correct, else why not.

    ``d`` is scored against the chart-flattening ground truth, which
    neither the learner nor the oracle computes.
    """
    from repro.traces.generate import random_traces

    if out.row.timed_out or not out.result.converged or out.row.alpha != 1.0:
        return f"no convergence (alpha={out.row.alpha}, timed_out={out.row.timed_out})"
    if out.d != 1.0:
        return f"d={out.d} against the ground truth"
    initial = random_traces(
        bench.system, count=ACTIVE_TRACES, length=ACTIVE_LENGTH, seed=seed
    )
    if not out.result.model.admits_all(initial):
        return "model rejects an initial trace"
    return None


def check_baseline(bench, spec, seed: int, out) -> str | None:
    """None if the row is correct: α in range, and a fresh learn on the
    regenerated sample gives the same model size and admits the sample."""
    from repro.evaluation import default_learner
    from repro.traces.generate import random_traces

    if not 0.0 <= out.alpha <= 1.0:
        return f"alpha={out.alpha} out of range"
    sample = random_traces(
        bench.system,
        count=max(1, BASELINE_OBSERVATIONS // BASELINE_LENGTH),
        length=BASELINE_LENGTH,
        seed=seed,
    )
    model = default_learner(bench, spec).learn(sample)
    if model.num_states != out.num_states:
        return f"N={out.num_states} but a fresh learn gives {model.num_states}"
    if not model.admits_all(sample):
        return "fresh model rejects the sample"
    return None


def describe(workload: str, out) -> dict:
    if workload == "baseline-passive":
        return {"i": 0, "N": out.num_states, "alpha": out.alpha, "inconclusive": 0}
    return {
        "i": out.row.iterations,
        "N": out.row.num_states,
        "alpha": out.row.alpha,
        "inconclusive": out.result.recorded_inconclusive,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--trace-seed", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--started",
        type=float,
        default=None,
        help="time.monotonic() at which the parent started this process",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic() if args.started is None else args.started

    from repro.stateflow.library import get_benchmark

    rows = [
        (get_benchmark(name), get_benchmark(name).fsa(fsa))
        for name, fsa in workload_rows(args.workload)
    ]
    if args.workload != "baseline-passive":
        for bench, spec in rows:
            bench.ground_truth(spec)
    setup_s = time.monotonic() - started
    report: dict = {"setup_s": setup_s, "rows": []}

    if not args.setup_only:
        from layers import LayerTracer

        tracer = LayerTracer()
        if args.traced:
            tracer.install()
        check = check_baseline if args.workload == "baseline-passive" else check_active
        for bench, spec in rows:
            row = {"row": f"{bench.name}/{spec.name}"}
            start = perf_counter()
            tracer.enabled = bool(args.traced)
            try:
                out = run_row(args.workload, bench, spec, args.trace_seed)
            except Exception as exc:  # a raising row is a failed row, not a crash
                out = None
                row["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                tracer.enabled = False
                row["t"] = perf_counter() - start
            if out is not None:
                row.update(describe(args.workload, out))
                row["error"] = check(bench, spec, args.trace_seed, out)
            report["rows"].append(row)
        tracer.uninstall()
        if args.traced:
            report["layers"] = {
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "counts": tracer.counts,
            }
    report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
