"""Macro-benchmark: CDCL propagation speed on recorded Table I solver logs.

Records to ``BENCH_sat.json`` at the repository root.  Two active-loop
runs at 30 traces × 30 steps, seed 0, are run once with every public
:class:`~repro.sat.solver.Solver` call logged, per solver, in call order:

* ``ModelingALaunchAbortSystem`` "ModeLogic" with the BDD engine and no
  reachable-state guidance -- the blind Fig. 3b ``r ∧ ¬s'`` churn;
* ``ModelingACdPlayerradioUsingEnumeratedDataType2`` "BehaviourModel
  Overall" with the default engine -- the slowest Table I row.

Each log is then replayed on fresh solvers, timing only ``solve``; the
record keeps, per run, the solve count, the propagations, the seconds
(the minimum over ``REPLAYS`` replays) and propagations per second.
Asserted: every replayed solve reports the same verdict and counters
as the recorded run, so the number measured is the speed of
the very search the program performs.  The speed itself is recorded,
not asserted; ``perfbench/`` gates wall-clock end to end.

Run:  pytest benchmarks/test_sat.py -s
"""

from __future__ import annotations

import gc
from pathlib import Path
from time import perf_counter

from repro.evaluation import run_active
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.stateflow.library import get_benchmark

RUNS = {
    "LaunchAbort ModeLogic (bdd, unguided)": (
        "ModelingALaunchAbortSystem", "ModeLogic", "bdd",
    ),
    "CdPlayer2 BehaviourModel Overall": (
        "ModelingACdPlayerradioUsingEnumeratedDataType2",
        "BehaviourModel Overall",
        "explicit",
    ),
}
REPLAYS = 3
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sat.json"

#: The public calls that change a solver's state, besides construction.
_OPERATIONS = (
    "new_var", "ensure_vars", "add_cnf", "add_clause", "new_group",
    "retract_group", "solve", "maintain", "rescale_var_activity",
)


def _summary(result) -> tuple:
    return (
        result.satisfiable, result.conflicts_delta, result.decisions_delta,
        result.propagations_delta,
    )


def _copy_args(name: str, args: tuple) -> tuple:
    if name == "add_cnf":
        return (CNF(args[0].num_vars, [list(c) for c in args[0].clauses]),)
    if name in ("add_clause", "solve") and args:
        return (list(args[0]),) + args[1:]
    return args


def _record(monkeypatch, bench_name: str, fsa: str, engine: str) -> list:
    """One ``run_active`` with every outermost Solver call logged as
    ``(solver index, operation, arguments, solve summary or None)``."""
    log: list = []
    index: dict[int, int] = {}
    depth = [0]

    def wrap(name, original):
        def logged(self, *args, **kwargs):
            depth[0] += 1
            try:
                result = original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                summary = _summary(result) if name == "solve" else None
                args = tuple(args) + tuple(kwargs.values())
                log.append((index[id(self)], name, _copy_args(name, args), summary))
            return result

        return logged

    original_init = Solver.__init__

    def init(self, cnf=None):
        index[id(self)] = len(index)
        log.append((index[id(self)], "init", (), None))
        depth[0] += 1
        try:
            original_init(self)
        finally:
            depth[0] -= 1
        if cnf is not None:
            self.add_cnf(cnf)

    monkeypatch.setattr(Solver, "__init__", init)
    for name in _OPERATIONS:
        monkeypatch.setattr(Solver, name, wrap(name, getattr(Solver, name)))
    bench = get_benchmark(bench_name)
    spec = next(s for s in bench.fsas if s.name == fsa)
    out = run_active(
        bench, spec, initial_traces=30, trace_length=30, seed=0,
        budget_seconds=120, spurious_engine=engine,
    )
    monkeypatch.undo()
    assert out.row.alpha == 1.0
    return log


def _replay(log: list) -> tuple[float, list]:
    """Replay on fresh solvers; (seconds inside ``solve``, summaries)."""
    solvers: dict[int, Solver] = {}
    seconds = 0.0
    summaries = []
    for solver_index, name, args, _ in log:
        if name == "init":
            solvers[solver_index] = Solver()
            continue
        solver = solvers[solver_index]
        if name == "solve":
            start = perf_counter()
            result = solver.solve(*args)
            seconds += perf_counter() - start
            summaries.append(_summary(result))
        else:
            getattr(solver, name)(*args)
    return seconds, summaries


def test_sat_replay_speed(monkeypatch, bench_record):
    record: dict = {"replays": REPLAYS, "runs": {}}
    for label, (bench_name, fsa, engine) in RUNS.items():
        log = _record(monkeypatch, bench_name, fsa, engine)
        expected = [summary for _, name, _, summary in log if name == "solve"]
        best = None
        for _ in range(REPLAYS):
            gc.collect()
            seconds, summaries = _replay(log)
            assert summaries == expected, f"{label}: replay diverged"
            best = seconds if best is None else min(best, seconds)
        propagations = sum(summary[3] for summary in expected)
        record["runs"][label] = {
            "solves": len(expected),
            "propagations": propagations,
            "seconds": round(best, 4),
            "propagations_per_s": round(propagations / max(best, 1e-9)),
        }
        print(f"{label}: {record['runs'][label]}")
    bench_record(RESULT_PATH, record)
