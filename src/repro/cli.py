"""Command-line interface.

Usage examples::

    python -m repro list
    python -m repro run MealyVendingMachine
    python -m repro run ModelingASecuritySystem --fsa InDoor --dot out.dot
    python -m repro table1 --budget 30
    python -m repro baseline MealyVendingMachine
    python -m repro analyze --all-library-systems
    python -m repro analyze ModelingASecuritySystem --semantic
    python -m repro run MealyVendingMachine --telemetry run.telemetry.jsonl
    python -m repro profile run.telemetry.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys

from .automata import to_dot, to_text
from .core import (
    BaselineRow,
    TableRow,
    format_baseline_table,
    format_table,
    render_invariants,
)
from .core import telemetry
from .evaluation import run_active, run_random_baseline
from .mc.spurious import SPURIOUS_ENGINES
from .stateflow.benchmark import Benchmark, FsaSpec
from .stateflow.library import benchmark_names, get_benchmark


class _UnknownNameError(LookupError):
    """A benchmark or FSA name the library does not define."""


def _benchmark(name: str) -> Benchmark:
    if name not in benchmark_names():
        raise _UnknownNameError(
            f"unknown benchmark {name!r} (`repro list` shows the names)"
        )
    return get_benchmark(name)


def _fsa(benchmark: Benchmark, name: str | None) -> FsaSpec:
    if name is None:
        return benchmark.fsas[0]
    names = [spec.name for spec in benchmark.fsas]
    if name not in names:
        raise _UnknownNameError(
            f"{benchmark.name} has no FSA {name!r} (FSAs: {', '.join(names)})"
        )
    return benchmark.fsa(name)


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in benchmark_names():
        benchmark = get_benchmark(name)
        fsas = ", ".join(spec.name for spec in benchmark.fsas)
        print(f"{name}  (|X|={benchmark.num_observables}, k={benchmark.k})")
        print(f"    FSAs: {fsas}")
    return 0


def _telemetry_args(args: argparse.Namespace) -> dict:
    """JSON-safe view of the parsed arguments for the meta event."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("fn", "telemetry")
        and isinstance(value, (str, int, float, bool, type(None)))
    }


def _with_telemetry(args: argparse.Namespace, body) -> int:
    """Run ``body()`` under a telemetry session when ``--telemetry PATH``
    was given; on exit export spans + the final snapshot to the path."""
    if not getattr(args, "telemetry", None):
        return body()
    from datetime import datetime, timezone

    session = telemetry.start(args.command, _telemetry_args(args))
    try:
        code = body()
    finally:
        telemetry.stop()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(args.telemetry, "w") as handle:
        events = telemetry.export_jsonl(session, handle, timestamp=stamp)
    print(f"\ntelemetry: {events} event(s) written to {args.telemetry}")
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    return _with_telemetry(args, lambda: _do_run(args))


def _do_run(args: argparse.Namespace) -> int:
    benchmark = _benchmark(args.benchmark)
    spec = _fsa(benchmark, args.fsa)
    out = run_active(
        benchmark,
        spec,
        initial_traces=args.traces,
        trace_length=args.length,
        seed=args.seed,
        budget_seconds=args.budget,
        spurious_engine=args.engine,
        segment_length=args.segment_length,
        segment_overlap=args.segment_overlap,
    )
    state_names = [v.name for v in benchmark.system.state_vars]
    print(TableRow.HEADER)
    print(out.row.format())
    result = out.result
    print(
        f"learning: cold {result.cold_learn_seconds:.3f}s, "
        f"warm {result.warm_learn_seconds:.3f}s over "
        f"{result.warm_iterations}/{result.iterations} warm iteration(s)"
    )
    spurious = sum(record.spurious_excluded for record in result.records)
    print(
        f"oracle: {spurious} spurious excluded, "
        f"{result.recorded_inconclusive} recorded inconclusive"
    )
    print()
    print(to_text(out.result.model, title=f"{benchmark.name}/{spec.name}",
                  primed_names=state_names))
    if out.result.invariants and args.invariants:
        print("\nInvariants:")
        print(render_invariants(out.result.invariants))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(
                to_dot(out.result.model, title=spec.name, primed_names=state_names)
            )
        print(f"\nDOT written to {args.dot}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    benchmark = _benchmark(args.benchmark)
    spec = _fsa(benchmark, args.fsa)
    out = run_random_baseline(
        benchmark,
        spec,
        num_observations=args.observations,
        seed=args.seed,
        spurious_engine=args.engine,
    )
    print(BaselineRow.HEADER)
    print(out.row.format())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static analysis over benchmark systems (and optionally traces)."""
    from .analysis import Severity, check_benchmark, check_traces

    names = list(args.benchmarks)
    if args.all_library_systems:
        names = list(benchmark_names())
    if not names:
        print(
            "analyze: name at least one benchmark or pass "
            "--all-library-systems",
            file=sys.stderr,
        )
        return 2
    benchmarks = [_benchmark(name) for name in names]
    threshold = Severity[args.severity.upper()]
    worst_findings = 0
    for benchmark in benchmarks:
        name = benchmark.name
        report = check_benchmark(benchmark, semantic=args.semantic)
        if args.trace:
            from .traces.io import load_csv, load_json, load_jsonl

            if args.trace.endswith(".jsonl"):
                loader = load_jsonl
            elif args.trace.endswith(".json"):
                loader = load_json
            else:
                loader = load_csv
            traces = loader(args.trace)
            report.extend(check_traces(traces, benchmark.system))
            report.finalize()
        shown = report.at_least(threshold)
        if shown:
            worst_findings += len(shown)
            for diagnostic in shown:
                print(f"{name}: {diagnostic.format()}")
        else:
            print(f"{name}: OK ({len(report.diagnostics)} diagnostics)")
    if worst_findings:
        print(
            f"analyze: {worst_findings} finding(s) at severity >= "
            f"{threshold}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    return _with_telemetry(args, lambda: _do_table1(args))


def _do_table1(args: argparse.Namespace) -> int:
    active_rows: list[TableRow] = []
    baseline_rows: list[BaselineRow] = []
    benchmarks = [_benchmark(name) for name in args.benchmarks or benchmark_names()]
    for benchmark in benchmarks:
        for spec in benchmark.fsas:
            out = run_active(
                benchmark,
                spec,
                initial_traces=args.traces,
                trace_length=args.length,
                seed=args.seed,
                budget_seconds=args.budget,
                spurious_engine=args.engine,
                segment_length=args.segment_length,
                segment_overlap=args.segment_overlap,
            )
            active_rows.append(out.row)
            print(out.row.format(), file=sys.stderr, flush=True)
            if args.baseline:
                base = run_random_baseline(
                    benchmark, spec, num_observations=args.observations,
                    seed=args.seed, spurious_engine=args.engine,
                )
                baseline_rows.append(base.row)
    print("\nTable I (active algorithm):")
    print(format_table(active_rows))
    if baseline_rows:
        print("\nTable I (random-sampling baseline):")
        print(format_baseline_table(baseline_rows))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Render a telemetry log: span tree + top-k counters."""
    try:
        with open(args.log) as handle:
            events = telemetry.read_events(handle)
    except OSError as exc:
        print(f"profile: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"profile: {args.log} contains no telemetry events",
              file=sys.stderr)
        return 1
    print(telemetry.render_profile(events, top=args.top))
    return 0


_TELEMETRY_HELP = (
    "write spans + the final metrics snapshot as deterministic JSONL "
    "events to this path (render with `repro profile`). "
    "See docs/observability.md."
)


_ENGINE_HELP = (
    "spuriousness engine for counterexample classification (Fig. 3b): "
    "'explicit' (default; exact BFS over representative inputs), 'bdd' "
    "(exact symbolic fixpoint), 'kinduction' (the literal bounded paper "
    "check; can report inconclusive) or 'none' (treat every "
    "counterexample as valid). See docs/engines.md."
)


_SEGMENT_HELP = (
    "long-trace mode: slice every trace into overlapping segments of "
    "this many events, learn each distinct segment once (memoised), then "
    "unify the per-segment models by overlap splicing (default: off = "
    "monolithic learning). See "
    "docs/long_traces.md."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Active learning of abstract system models from traces using "
            "model checking (DATE 2022 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="run the active algorithm on a benchmark")
    run.add_argument("benchmark")
    run.add_argument("--fsa", help="FSA row (default: first)")
    run.add_argument("--traces", type=int, default=50)
    run.add_argument("--length", type=int, default=50)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--budget", type=float, default=120.0)
    run.add_argument(
        "--engine", choices=SPURIOUS_ENGINES, default="explicit",
        help=_ENGINE_HELP,
    )
    run.add_argument(
        "--segment-length", type=int, default=None, help=_SEGMENT_HELP
    )
    run.add_argument(
        "--segment-overlap",
        type=int,
        default=1,
        help=(
            "events shared between consecutive segments (default 1; "
            "requires --segment-length)"
        ),
    )
    run.add_argument("--dot", help="write learned model as Graphviz DOT")
    run.add_argument("--invariants", action="store_true")
    run.add_argument("--telemetry", metavar="PATH", help=_TELEMETRY_HELP)
    run.set_defaults(fn=_cmd_run)

    base = sub.add_parser("baseline", help="run the random-sampling baseline")
    base.add_argument("benchmark")
    base.add_argument("--fsa")
    base.add_argument("--observations", type=int, default=20_000)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument(
        "--engine", choices=SPURIOUS_ENGINES, default="explicit",
        help=_ENGINE_HELP,
    )
    base.set_defaults(fn=_cmd_baseline)

    analyze = sub.add_parser(
        "analyze",
        help="statically analyze benchmark systems (sort/well-formedness)",
        description=(
            "Run the DSL static analyzer over benchmark systems: "
            "eid-memoised sort inference over the expression DAG, "
            "next-state width/sort conformance, init/sample range checks, "
            "FSA spec and reachability checks. Exit status 1 when any "
            "finding reaches --severity, 0 when clean. See "
            "docs/static_analysis.md for the diagnostic-code catalogue."
        ),
    )
    analyze.add_argument("benchmarks", nargs="*", help="benchmark names")
    analyze.add_argument(
        "--all-library-systems",
        action="store_true",
        help="analyze every benchmark in the library",
    )
    analyze.add_argument(
        "--semantic",
        action="store_true",
        help=(
            "enable solver-backed checks: dead transitions (R401), "
            "overlapping guards (R402), non-exhaustive guards (R403)"
        ),
    )
    analyze.add_argument(
        "--trace",
        help=(
            "also validate a trace file (.csv, .json or .jsonl event log) "
            "against the system"
        ),
    )
    analyze.add_argument(
        "--severity",
        choices=["info", "warning", "error"],
        default="info",
        help="minimum severity that is reported and fails the run",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    table = sub.add_parser("table1", help="regenerate Table I")
    table.add_argument("benchmarks", nargs="*", help="subset (default: all)")
    table.add_argument("--traces", type=int, default=50)
    table.add_argument("--length", type=int, default=50)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--budget", type=float, default=60.0)
    table.add_argument(
        "--engine", choices=SPURIOUS_ENGINES, default="explicit",
        help=_ENGINE_HELP,
    )
    table.add_argument("--baseline", action="store_true")
    table.add_argument("--observations", type=int, default=20_000)
    table.add_argument(
        "--segment-length", type=int, default=None, help=_SEGMENT_HELP
    )
    table.add_argument(
        "--segment-overlap",
        type=int,
        default=1,
        help=(
            "events shared between consecutive segments (default 1; "
            "requires --segment-length)"
        ),
    )
    table.add_argument("--telemetry", metavar="PATH", help=_TELEMETRY_HELP)
    table.set_defaults(fn=_cmd_table1)

    profile = sub.add_parser(
        "profile",
        help="render a --telemetry JSONL log (span tree + counters)",
        description=(
            "Read a telemetry log written by `repro run --telemetry` or "
            "`repro table1 --telemetry` and print the aggregated span "
            "tree (total/self seconds per phase), the learn-phase share "
            "(Table I %%Tm), and the top counters and gauges of the "
            "final metrics snapshot. See docs/observability.md."
        ),
    )
    profile.add_argument("log", help="telemetry JSONL file")
    profile.add_argument(
        "--top", type=int, default=10,
        help="how many counters to show (default 10)",
    )
    profile.set_defaults(fn=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # Surface a closed pipe here rather than at interpreter exit.
        sys.stdout.flush()
        return code
    except _UnknownNameError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (`repro list | head -1`).  Python flushes
        # stdout again at exit; pointing it at devnull keeps that flush
        # quiet (the SIGPIPE recipe in Python's `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
