"""Segmented learning for long traces (companion paper).

The SAT-DFA encoding — and every learner that walks a monolithic
prefix tree — is super-linear in trace length, so a 10⁵-event log is
hopeless as one giant word.  *Learning Concise Models from Long
Execution Traces* (PAPERS.md) slices the trace into overlapping
segments, learns a small model per segment, and unifies the segment
models.  :class:`SegmentedLearner` is that pipeline:

* **Segmentation** via :func:`repro.traces.segment.segment_trace` —
  consumes event *streams* (generators, JSONL readers) with memory
  bounded by the segment length plus the distinct-segment memo.
* **Dedup memo** — repetitive logs repeat segments; each distinct
  segment (a hashable :class:`Trace`) is learned exactly once, so an
  eventually-periodic million-event log costs a handful of learner
  calls.
* **Parallel fan-out** — with ``jobs > 1`` distinct segments are
  sharded round-robin across a persistent worker pool
  (:mod:`repro.core.pool`).  Each worker returns the segment model
  plus its overlap run windows; the parent splices strictly in segment
  order, so the unified model is bit-for-bit identical for any job
  count and any completion order.  Segments whose worker died are
  re-learned serially under a ``RuntimeWarning``.
* **Unification** via :class:`repro.automata.splice.ModelSplicer`
  (overlap-window agreement + learned-name agreement + bisimulation
  minimisation).

Soundness holds for any wrapped learner: merging states only grows
the language, so the unified model admits every input trace.
Exactness (unified ≡ minimised monolithic) additionally needs
per-segment runs that agree deterministically on the overlap windows —
T2M with an explicit variable basis and ``synthesize_guards=False,
merge_initial=False`` has it; see ``docs/long_traces.md`` for the
precision-loss cases.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ..automata.nfa import SymbolicNFA
from ..automata.splice import ModelSplicer, run_windows
from ..core.pool import ItemRunner, PersistentWorkerPool
from ..system.valuation import Valuation
from ..traces.segment import segment_trace
from ..traces.trace import Trace, TraceSet
from .base import ModelLearner


def _telemetry():
    """The telemetry module (lazy import, see its docstring: modules
    outside ``repro.core`` must not import it at module level)."""
    from ..core import telemetry

    return telemetry

#: What one segment-learning task returns: the model plus the run
#: windows the splicer aligns (entry = positions 0..w, exit = last w+1).
SegmentResult = tuple[
    SymbolicNFA, tuple[frozenset[int], ...], tuple[frozenset[int], ...]
]


@dataclass(frozen=True)
class SegmentLearnSpec:
    """Picklable recipe for the worker pool: learner + overlap.

    The wrapped learner must itself be picklable (the shipped learners
    are: their configuration is plain data and interned ``Expr``s
    re-intern on unpickle, preserving identity-based guard equality
    across processes — which is what keeps parallel splicing
    bit-for-bit identical to serial).
    """

    learner: ModelLearner
    overlap: int
    #: Captured at pool creation: workers of a telemetry-enabled parent
    #: run metrics-only sessions and ship per-batch snapshot deltas back.
    telemetry: bool = False

    def make_runner(self, worker_index: int) -> ItemRunner:
        def run(segment: Trace) -> SegmentResult:
            return _learn_segment(self.learner, segment, self.overlap)

        return run


def _learn_segment(
    learner: ModelLearner, segment: Trace, overlap: int
) -> SegmentResult:
    model = learner.learn(TraceSet([segment]))
    entry, exit_ = run_windows(model, segment, overlap)
    return model, entry, exit_


@dataclass
class SegmentedStats:
    """Workload accounting for one ``learn`` call."""

    chains: int = 0
    segments: int = 0
    distinct_segments: int = 0

    @property
    def memo_hits(self) -> int:
        return self.segments - self.distinct_segments


class SegmentedLearner:
    """Learn long traces by overlapping segmentation + unification.

    Satisfies :class:`~repro.learn.base.ModelLearner`, so it drops into
    the active loop and the CLI anywhere a learner goes; for genuinely
    long inputs prefer :meth:`learn_events` / :meth:`learn_streams`,
    which never materialise a full trace.

    The learner is a context manager; :meth:`close` shuts down the
    worker pool (``jobs=1`` never creates one).
    """

    def __init__(
        self,
        base: ModelLearner,
        segment_length: int,
        overlap: int = 1,
        *,
        jobs: int = 1,
        merge_named: bool = True,
        minimize: bool = True,
        start_method: str = "spawn",
    ):
        if segment_length < 2:
            raise ValueError(
                f"segment length must be >= 2, got {segment_length}"
            )
        if not 1 <= overlap < segment_length:
            # overlap >= 1 is what guarantees every consecutive
            # observation pair lands inside some segment; without it the
            # unified model would invent transitions at segment seams.
            raise ValueError(
                f"segment overlap must be in [1, length), got {overlap}"
            )
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.base = base
        self.segment_length = segment_length
        self.overlap = overlap
        self.jobs = jobs
        self.merge_named = merge_named
        self.minimize = minimize
        self.stats = SegmentedStats()
        self._pool: PersistentWorkerPool | None = None
        self._start_method = start_method

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SegmentedLearner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the ModelLearner contract ------------------------------------
    def learn(self, traces: TraceSet | Iterable[Trace]) -> SymbolicNFA:
        """Unified model admitting every trace (each trace = one chain)."""
        return self.learn_streams(iter(trace) for trace in traces)

    def learn_events(self, events: Iterable[Valuation]) -> SymbolicNFA:
        """Learn one long trace from a bounded-memory event stream."""
        return self.learn_streams([events])

    def learn_streams(
        self, streams: Iterable[Iterable[Valuation]]
    ) -> SymbolicNFA:
        """Learn many long traces, each given as an event stream.

        Single ingestion pass: each stream is segmented on the fly and
        only the distinct-segment memo plus one segment-key reference
        per occurrence is retained — never the streams themselves.
        """
        telemetry = _telemetry()
        with telemetry.span("learn.segmented", jobs=self.jobs):
            chains = self._ingest(streams)
            if not any(chains):
                raise ValueError("no events to learn from")
            order = self._distinct_in_order(chains)
            results = self._learn_distinct(order)
            registry = telemetry.metrics()
            if registry is not None:
                registry.inc("segment.chains", self.stats.chains)
                registry.inc("segment.segments", self.stats.segments)
                registry.inc(
                    "segment.distinct_segments", self.stats.distinct_segments
                )
                registry.inc("segment.memo_hits", self.stats.memo_hits)
            return self._splice(chains, results)

    # -- pipeline stages (separable for the reorder tests) -------------
    def _ingest(
        self, streams: Iterable[Iterable[Valuation]]
    ) -> list[list[Trace]]:
        """Segment every stream; returns chains of memo keys."""
        self.stats = SegmentedStats()
        seen: dict[Trace, Trace] = {}
        chains: list[list[Trace]] = []
        for stream in streams:
            chain: list[Trace] = []
            for segment in segment_trace(
                stream, self.segment_length, self.overlap
            ):
                chain.append(seen.setdefault(segment, segment))
            chains.append(chain)
        self.stats.chains = len(chains)
        self.stats.segments = sum(len(chain) for chain in chains)
        self.stats.distinct_segments = len(seen)
        return chains

    @staticmethod
    def _distinct_in_order(chains: list[list[Trace]]) -> list[Trace]:
        """Distinct segments in first-appearance order."""
        order: dict[Trace, None] = {}
        for chain in chains:
            for segment in chain:
                order.setdefault(segment)
        return list(order)

    def _learn_distinct(
        self, order: list[Trace]
    ) -> dict[Trace, SegmentResult]:
        """One learner call per distinct segment, serial or pooled."""
        if self.jobs == 1 or len(order) < 2:
            return {
                segment: _learn_segment(self.base, segment, self.overlap)
                for segment in order
            }
        if self._pool is None:
            self._pool = PersistentWorkerPool(
                SegmentLearnSpec(
                    self.base, self.overlap, telemetry=_telemetry().enabled()
                ),
                self.jobs,
                start_method=self._start_method,
                name="segment-learner",
            )
        batches: list[list[tuple[int, Trace]]] = [
            [] for _ in range(self.jobs)
        ]
        for index, segment in enumerate(order):
            batches[index % self.jobs].append((index, segment))
        run = self._pool.run_batches(batches)
        if run.failures:
            warnings.warn(
                f"{run.failures} segment-learner worker(s) died; "
                f"re-learning {len(run.retry)} segment(s) serially",
                RuntimeWarning,
                stacklevel=3,
            )
        results: dict[Trace, SegmentResult] = {}
        for index, segment in enumerate(order):
            result = run.results.get(index)
            if result is None:
                result = _learn_segment(self.base, segment, self.overlap)
            results[segment] = result
        return results

    def _splice(
        self,
        chains: list[list[Trace]],
        results: dict[Trace, SegmentResult],
    ) -> SymbolicNFA:
        """Unify per-segment models strictly in chain/segment order.

        Everything order-dependent happens here, on stored structures —
        worker completion order cannot influence the result.
        """
        splicer = ModelSplicer(self.overlap, merge_named=self.merge_named)
        for chain in chains:
            splicer.begin_chain()
            for segment in chain:
                model, entry, exit_ = results[segment]
                splicer.add_segment(model, entry, exit_)
        return splicer.finish(minimize=self.minimize)


def iter_chain_streams(
    traces: TraceSet,
) -> Iterator[Iterator[Valuation]]:
    """Adapter: a TraceSet as the stream-of-streams ``learn_streams`` takes."""
    for trace in traces:
        yield iter(trace)
