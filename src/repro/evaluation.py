"""Evaluation runners: regenerate the paper's Table I.

Two entry points per (benchmark, FSA) pair:

* :func:`run_active` -- the paper's algorithm (§IV-B): initial random
  trace set, T2M-style learner, completeness checking, refinement to
  ``α = 1`` or budget expiry.  Produces the left-hand Table I columns
  (``i``, ``d``, ``N``, ``α``, ``T``, ``%Tm``).
* :func:`run_random_baseline` -- the §IV-C baseline: a large randomly
  sampled trace set, one passive learning pass, α measured with the same
  condition checker.  Produces the right-hand columns (``N``, ``α``,
  ``T``).

Scales (trace counts, budgets) default to laptop-friendly values; the
paper's original scales (50×50 initial traces, 1M baseline inputs, 10 h
budget) are reachable through the keyword arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .automata.compare import TransitionWitness, transition_match_score
from .core import telemetry
from .core.loop import ActiveLearner, ActiveLearningResult
from .core.metrics import BaselineRow, TableRow
from .core.conditions import extract_conditions
from .core.oracle import make_oracle
from .learn.base import ModelLearner
from .learn.segmented import SegmentedLearner
from .learn.t2m import T2MLearner
from .mc.explicit import reachable_formula
from .stateflow.benchmark import Benchmark, FsaSpec
from .traces.generate import random_traces


def default_learner(benchmark: Benchmark, spec: FsaSpec) -> T2MLearner:
    """The T2M-style learner configured the way the paper runs T2M."""
    return T2MLearner(
        mode_vars=list(spec.resolved_mode_vars()),
        variables={v.name: v for v in benchmark.system.variables},
        prefer_vars=list(benchmark.system.input_names),
    )


def fsa_witnesses(benchmark: Benchmark, spec: FsaSpec) -> list[TransitionWitness]:
    witnesses: list[TransitionWitness] = []
    for truth in benchmark.ground_truth(spec):
        witnesses.extend(truth.witnesses)
    return witnesses


@dataclass
class ActiveRunOutput:
    """A Table I row plus the underlying artefacts.

    ``snapshot`` is the telemetry metrics snapshot taken right after the
    run (``None`` when telemetry is disabled): the same aggregate the
    ``--telemetry`` JSONL export ends with, so the row and the export
    can be cross-checked against one source of truth.
    """

    row: TableRow
    result: ActiveLearningResult
    d: float
    snapshot: dict | None = None


def run_active(
    benchmark: Benchmark,
    spec: FsaSpec,
    initial_traces: int = 50,
    trace_length: int = 50,
    seed: int = 0,
    budget_seconds: float | None = 120.0,
    learner: ModelLearner | None = None,
    spurious_engine: str = "explicit",
    max_iterations: int = 50,
    guide_with_reachable: bool = True,
    use_session: bool = True,
    validate: bool = True,
    segment_length: int | None = None,
    segment_overlap: int = 1,
) -> ActiveRunOutput:
    """Run the active algorithm on one FSA; returns its Table I row.

    ``guide_with_reachable`` applies the paper's domain-knowledge
    strengthening by default: without it, the larger benchmarks spend
    their budget excluding unreachable counterexample states one by one
    (the paper's own timeout mode, reproduced by the guidance ablation
    benchmark).  The guidance is the exact reachable set at every size
    (:func:`~repro.mc.explicit.reachable_formula`), so guided checks
    meet no spurious counterexample and never hit the strengthening
    cap: each condition is one solve.

    ``use_session`` (default) re-learns incrementally across iterations
    through a learner session; the per-iteration records then carry
    ``warm_start`` flags so Table I's ``%Tm`` can be split into cold vs
    warm shares (``result.cold_learn_seconds`` /
    ``result.warm_learn_seconds``).
    ``validate`` (default on -- the runners are the untrusted-spec
    boundary) statically analyzes the system and every extracted
    condition before any solver sees them, raising
    :class:`~repro.analysis.diagnostics.AnalysisError` on ERROR
    findings.

    ``segment_length`` switches learning to the long-trace pipeline:
    the learner is wrapped in a
    :class:`~repro.learn.segmented.SegmentedLearner` that slices each
    trace into overlapping segments (``segment_overlap`` shared
    events), learns the distinct ones independently and unifies the
    per-segment models.  To learn the segments on worker processes,
    pass ``learner=SegmentedLearner(base, length, jobs=N)`` instead.
    See ``docs/long_traces.md``.
    """
    model_learner = learner or default_learner(benchmark, spec)
    if segment_length is not None:
        model_learner = SegmentedLearner(
            model_learner, segment_length, segment_overlap
        )
    traces = random_traces(
        benchmark.system, count=initial_traces, length=trace_length, seed=seed
    )
    with ActiveLearner(
        benchmark.system,
        model_learner,
        k=benchmark.k,
        spurious_engine=spurious_engine,
        budget_seconds=budget_seconds,
        max_iterations=max_iterations,
        guide_with_reachable=guide_with_reachable and spurious_engine == "explicit",
        use_session=use_session,
        validate=validate,
    ) as active:
        result = active.run(traces)
    with telemetry.span("eval.score", benchmark=benchmark.name, fsa=spec.name):
        d = transition_match_score(
            result.model, fsa_witnesses(benchmark, spec)
        )
    # Table I timing columns come from the run's span tree (the loop
    # stamps total/learn seconds off its `loop.*` spans), so the row and
    # a `--telemetry` export agree by construction.
    row = TableRow(
        benchmark=benchmark.name,
        fsa=spec.name,
        num_observables=benchmark.num_observables,
        k=benchmark.k,
        iterations=result.iterations,
        d=d,
        num_states=result.num_states,
        alpha=result.alpha,
        time_seconds=result.total_seconds,
        percent_learning=result.percent_learning,
        timed_out=result.timed_out,
    )
    snapshot = None
    session = telemetry.active()
    if session is not None:
        registry = session.metrics
        registry.inc("eval.active_runs")
        registry.gauge_max("eval.model_states", result.num_states)
        snapshot = registry.snapshot()
    return ActiveRunOutput(row=row, result=result, d=d, snapshot=snapshot)


@dataclass
class BaselineRunOutput:
    row: BaselineRow
    alpha: float
    num_states: int


def run_random_baseline(
    benchmark: Benchmark,
    spec: FsaSpec,
    num_observations: int = 20_000,
    trace_length: int = 50,
    seed: int = 0,
    learner: ModelLearner | None = None,
    spurious_engine: str = "explicit",
    guide_with_reachable: bool = True,
    validate: bool = True,
) -> BaselineRunOutput:
    """The §IV-C random-sampling baseline for one FSA.

    ``num_observations`` plays the paper's "one million randomly sampled
    inputs" role at laptop scale; α of the passively learned model is
    measured with the same condition checker as the active algorithm
    (spurious counterexamples excluded through an exact engine --
    ``spurious_engine`` picks which, default the explicit table -- so
    the reported α is not depressed by unreachable-state artefacts).

    Traced as ``baseline.run`` over ``traces.generate``,
    ``baseline.learn`` and ``baseline.check``.  These are not ``loop.*``
    spans: ``repro profile`` sums every ``loop.learn`` into Table I's
    ``%Tm``, which is the active rows' figure.
    """
    start = time.monotonic()
    count = max(1, num_observations // trace_length)
    with telemetry.span("baseline.run", benchmark=benchmark.name, fsa=spec.name):
        traces = random_traces(
            benchmark.system, count=count, length=trace_length, seed=seed
        )
        with telemetry.span("baseline.learn"):
            model_learner = learner or default_learner(benchmark, spec)
            model = model_learner.learn(traces)
        with telemetry.span("baseline.check"):
            oracle = make_oracle(
                benchmark.system,
                spurious_engine,
                benchmark.k,
                respect_k=False,
                domain_assumption=(
                    reachable_formula(benchmark.system)
                    if guide_with_reachable and spurious_engine == "explicit"
                    else None
                ),
                validate=validate,
            )
            report = oracle.check_all(extract_conditions(model))
    elapsed = time.monotonic() - start
    row = BaselineRow(
        benchmark=benchmark.name,
        fsa=spec.name,
        num_states=model.num_states,
        alpha=report.alpha,
        time_seconds=elapsed,
    )
    return BaselineRunOutput(
        row=row, alpha=report.alpha, num_states=model.num_states
    )
