"""The paper's contribution: active learning of abstract system models.

Condition extraction (§III-A), the completeness oracle with spuriousness
handling (§III-B/C), counterexample-to-trace refinement, the main loop,
metrics, and invariant extraction (§VI) — plus the unified telemetry
layer (:mod:`repro.core.telemetry`: spans, metrics registry,
deterministic JSONL export; see ``docs/observability.md``).
"""

from .coverage import (
    CoverageHole,
    CoverageReport,
    HoleClosingResult,
    close_holes,
    evaluate_suite,
)
from .crosscheck import CrossCheckReport, InvariantViolation, cross_check
from .conditions import (
    Condition,
    ConditionKind,
    extract_conditions,
    outgoing_disjunction,
)
from .invariants import (
    Invariant,
    extract_invariants,
    render_invariants,
    validate_invariants,
)
from .loop import ActiveLearner, ActiveLearningResult, IterationRecord
from .metrics import (
    BaselineRow,
    TableRow,
    format_baseline_table,
    format_table,
)
from .oracle import (
    CompletenessOracle,
    ConditionOutcome,
    OracleReport,
    make_oracle,
)
from . import telemetry
from .pool import BatchRun, PersistentWorkerPool, PoolWorker
from .telemetry import MetricsRegistry, Span, TelemetrySession, Tracer
from .refine import (
    AugmentResult,
    augment_traces,
    counterexample_traces,
    splice_counterexample,
)

__all__ = [
    "ActiveLearner",
    "AugmentResult",
    "ActiveLearningResult",
    "BaselineRow",
    "CompletenessOracle",
    "CoverageHole",
    "CoverageReport",
    "CrossCheckReport",
    "HoleClosingResult",
    "InvariantViolation",
    "MetricsRegistry",
    "Span",
    "TelemetrySession",
    "Tracer",
    "Condition",
    "ConditionKind",
    "ConditionOutcome",
    "Invariant",
    "IterationRecord",
    "BatchRun",
    "OracleReport",
    "PersistentWorkerPool",
    "PoolWorker",
    "TableRow",
    "make_oracle",
    "telemetry",
    "augment_traces",
    "close_holes",
    "cross_check",
    "counterexample_traces",
    "extract_conditions",
    "evaluate_suite",
    "extract_invariants",
    "format_baseline_table",
    "format_table",
    "outgoing_disjunction",
    "render_invariants",
    "splice_counterexample",
    "validate_invariants",
]
