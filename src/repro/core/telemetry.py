"""Unified instrumentation: span tracing, metrics, deterministic export.

This module is the single home for the repo's observability layer
(``docs/observability.md``):

* a **hierarchical span tracer** — ``with span("oracle.check", k=3):``
  records wall time (``perf_counter``) with parent/child attribution on
  a process-local current-span stack;
* a **metrics registry** — named counters, gauges, and power-of-two
  histograms with a ``snapshot()``/``snapshot_delta()`` protocol so
  worker processes can ship per-batch deltas to the parent;
* **deterministic JSONL export** — ``export_jsonl`` writes spans plus
  the final snapshot as JSON events with stable field order; wall-clock
  time is isolated to the single optional ``ts`` field and measured
  durations to the ``t`` field, so ``deterministic_view`` of a run is
  byte-for-byte reproducible.  Every event also carries the
  ``trace``/``obs`` keys the streaming trace readers
  (:func:`repro.traces.io.iter_jsonl`) expect, so a telemetry log is
  itself a checkable trace.

Design constraints, in force because every engine layer imports this
module:

* **stdlib only** — importing :mod:`repro.core.telemetry` must never
  pull in another ``repro`` module, or the engine layers (``sat``,
  ``smt``, ``bdd``) could not use it without import cycles.  Modules
  *outside* ``repro.core`` must import it lazily (inside a function):
  a module-level ``from ..core import telemetry`` in e.g.
  ``sat/solver.py`` would execute ``repro.core.__init__`` while
  ``sat.solver`` is still half-initialised and break
  ``from ..sat.solver import Solver`` further down the chain.
* **disabled means free** — when no session is active, :func:`span`
  returns a shared no-op singleton (zero allocations) and
  :func:`active` returns ``None`` after one global read, so
  instrumented hot paths cost a single ``is None`` test.
"""

from __future__ import annotations

import json
import math
from time import perf_counter
from typing import Any, Iterable, Iterator, TextIO

__all__ = [
    "NOOP_SPAN",
    "MetricsRegistry",
    "Span",
    "TelemetrySession",
    "Tracer",
    "active",
    "deterministic_view",
    "enabled",
    "export_jsonl",
    "merge_into",
    "metrics",
    "read_events",
    "render_profile",
    "session",
    "snapshot_delta",
    "span",
    "start",
    "stop",
]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    """One timed region.  Use as a context manager via :meth:`Tracer.span`.

    ``start``/``end`` are ``perf_counter`` stamps; children are attached
    in entry order, so sibling order in the export is deterministic.
    """

    __slots__ = ("name", "attrs", "parent", "children", "start", "end", "_tracer")

    def __init__(self, name: str, attrs: dict[str, Any], tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.start = 0.0
        self.end = 0.0
        self._tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes (chainable, usable mid-span)."""
        self.attrs.update(attrs)
        return self

    @property
    def total_seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Total time minus time attributed to direct children."""
        return self.total_seconds - sum(c.total_seconds for c in self.children)

    @property
    def depth(self) -> int:
        d = 0
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            self.parent = stack[-1]
            self.parent.children.append(self)
        else:
            tracer.roots.append(self)
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = perf_counter()
        self._tracer._stack.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, total={self.total_seconds:.6f})"


class _NoopSpan:
    """Shared do-nothing span returned by :func:`span` when disabled.

    A single module-level instance (:data:`NOOP_SPAN`) is reused for
    every call so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    @property
    def total_seconds(self) -> float:
        return 0.0

    @property
    def self_seconds(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-local span stack plus the forest of completed roots."""

    __slots__ = ("roots", "_stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(name, attrs, self)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def iter_spans(self) -> Iterator[Span]:
        """All recorded spans, preorder, roots in entry order."""
        pending = list(reversed(self.roots))
        while pending:
            node = pending.pop()
            yield node
            pending.extend(reversed(node.children))


class _NullTracer(Tracer):
    """Tracer that records nothing — used by metrics-only worker sessions
    so long-lived pool workers cannot accumulate spans without bound."""

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> Any:
        return NOOP_SPAN


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _bucket(value: float) -> int:
    """Power-of-two histogram bucket: the binary exponent of ``value``.

    ``value`` lands in bucket ``e`` iff ``2**(e-1) <= value < 2**e``
    (and non-positive values in a floor bucket), which keeps bucketing
    exact and platform-independent for both sub-second latencies and
    large integer sizes.
    """
    if value <= 0.0:
        return -1075  # below the smallest positive double
    return math.frexp(value)[1]


class _Histogram:
    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = _bucket(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": [[e, self.buckets[e]] for e in sorted(self.buckets)],
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms.

    Naming scheme (checked by the contract linter, code C006): dotted
    lowercase ``component.metric`` — e.g. ``sat.conflicts``,
    ``bdd.cache.ite_hits``, ``pool.batch_seconds``.

    * counters (:meth:`inc`) merge by summation;
    * gauges (:meth:`gauge` / :meth:`gauge_max`) merge by maximum —
      they describe peaks (frames, live nodes), where the fleet-wide
      peak is the max over processes;
    * histograms (:meth:`observe`) merge bucket-wise.
    """

    __slots__ = ("_counters", "_gauges", "_hists")

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, int | float] = {}
        self._hists: dict[str, _Histogram] = {}

    # -- recording ----------------------------------------------------

    def inc(self, name: str, amount: int | float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: int | float) -> None:
        self._gauges[name] = value

    def gauge_max(self, name: str, value: int | float) -> None:
        prev = self._gauges.get(name)
        if prev is None or value > prev:
            self._gauges[name] = value

    def observe(self, name: str, value: int | float) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = _Histogram()
        hist.observe(value)

    def counter(self, name: str) -> int | float:
        return self._counters.get(name, 0)

    # -- snapshot protocol --------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON state with deterministically sorted keys."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._hists[k].as_dict() for k in sorted(self._hists)
            },
        }

    def delta(self, prev: dict[str, Any]) -> dict[str, Any]:
        """Snapshot of what changed since ``prev`` (a prior snapshot)."""
        return snapshot_delta(self.snapshot(), prev)


_EMPTY_SNAPSHOT: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}


def snapshot_delta(current: dict[str, Any], prev: dict[str, Any]) -> dict[str, Any]:
    """``current - prev`` for counters/histograms; gauges keep current.

    Workers ship these per-batch deltas so the parent can merge them
    into fleet totals without double counting across generations.
    """
    counters = {}
    for name in sorted(current["counters"]):
        diff = current["counters"][name] - prev["counters"].get(name, 0)
        if diff:
            counters[name] = diff
    gauges = dict(current["gauges"])
    hists = {}
    for name in sorted(current["histograms"]):
        cur = current["histograms"][name]
        old = prev["histograms"].get(name)
        if old is None:
            if cur["count"]:
                hists[name] = cur
            continue
        count = cur["count"] - old["count"]
        if not count:
            continue
        old_buckets = dict(old["buckets"])
        buckets = []
        for exp, n in cur["buckets"]:
            d = n - old_buckets.get(exp, 0)
            if d:
                buckets.append([exp, d])
        hists[name] = {
            "count": count,
            "sum": cur["sum"] - old["sum"],
            # min/max of the delta window are unknowable from totals;
            # keep the cumulative extrema (still valid bounds).
            "min": cur["min"],
            "max": cur["max"],
            "buckets": buckets,
        }
    return {"counters": counters, "gauges": gauges, "histograms": hists}


def merge_into(registry: MetricsRegistry, snapshot: dict[str, Any]) -> None:
    """Fold a snapshot (or delta) into ``registry``.

    Counters add, gauges max-merge, histogram buckets add.  Keys are
    iterated sorted, so for a fixed multiset of snapshots applied in a
    fixed order the result is deterministic; callers that merge worker
    snapshots do so in **slot order** (not completion order) so float
    sums are order-independent across runs.
    """
    for name in sorted(snapshot.get("counters", ())):
        registry.inc(name, snapshot["counters"][name])
    for name in sorted(snapshot.get("gauges", ())):
        registry.gauge_max(name, snapshot["gauges"][name])
    for name in sorted(snapshot.get("histograms", ())):
        data = snapshot["histograms"][name]
        if not data["count"]:
            continue
        hist = registry._hists.get(name)
        if hist is None:
            hist = registry._hists[name] = _Histogram()
        hist.count += data["count"]
        hist.sum += data["sum"]
        if data["min"] < hist.min:
            hist.min = data["min"]
        if data["max"] > hist.max:
            hist.max = data["max"]
        for exp, n in data["buckets"]:
            hist.buckets[exp] = hist.buckets.get(exp, 0) + n


# ---------------------------------------------------------------------------
# Session management
# ---------------------------------------------------------------------------


class TelemetrySession:
    """One enabled telemetry scope: a tracer plus a metrics registry.

    ``worker_snapshots`` counts how many cross-process snapshots were
    merged in (for reporting fleet fan-in).
    """

    __slots__ = (
        "tracer",
        "metrics",
        "command",
        "args",
        "worker_snapshots",
        "records_spans",
    )

    def __init__(
        self,
        command: str = "",
        args: dict[str, Any] | None = None,
        *,
        record_spans: bool = True,
    ) -> None:
        self.records_spans = record_spans
        self.tracer: Tracer = Tracer() if record_spans else _NullTracer()
        self.metrics = MetricsRegistry()
        self.command = command
        self.args = dict(args or {})
        self.worker_snapshots = 0

    def absorb(self, snapshot: dict[str, Any]) -> None:
        """Merge one worker snapshot delta into the fleet registry."""
        merge_into(self.metrics, snapshot)
        self.worker_snapshots += 1


_ACTIVE: TelemetrySession | None = None


def active() -> TelemetrySession | None:
    """The enabled session, or ``None`` — the one-read fast path."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def start(
    command: str = "",
    args: dict[str, Any] | None = None,
    *,
    record_spans: bool = True,
) -> TelemetrySession:
    """Enable telemetry process-wide; returns the new session."""
    global _ACTIVE
    _ACTIVE = TelemetrySession(command, args, record_spans=record_spans)
    return _ACTIVE


def stop() -> TelemetrySession | None:
    """Disable telemetry; returns the session that was active."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = None
    return prev


class session:
    """``with telemetry.session("run") as s:`` — scoped enable/disable."""

    def __init__(self, command: str = "", args: dict[str, Any] | None = None):
        self._command = command
        self._args = args

    def __enter__(self) -> TelemetrySession:
        return start(self._command, self._args)

    def __exit__(self, *exc: object) -> None:
        stop()


def span(name: str, **attrs: Any) -> Any:
    """A span on the active session's tracer, or the shared no-op."""
    current = _ACTIVE
    if current is None:
        return NOOP_SPAN
    return current.tracer.span(name, **attrs)


def metrics() -> MetricsRegistry | None:
    """The active session's registry, or ``None`` when disabled."""
    current = _ACTIVE
    return None if current is None else current.metrics


# ---------------------------------------------------------------------------
# Deterministic JSONL export
# ---------------------------------------------------------------------------
#
# Event schema (one JSON object per line, keys always serialised sorted):
#
#   {"event": "meta", "format": 1, "command": ..., "args": {...},
#    "trace": 0, "obs": {"kind": 0}, ["ts": "<iso8601>"]}
#   {"event": "span", "id": i, "parent": p|-1, "name": "...",
#    "attrs": {...}, "t": {"self": s, "total": t},
#    "trace": 0, "obs": {"kind": 1, "depth": d, ...int attrs...}}
#   {"event": "snapshot", "counters": {...}, "gauges": {...},
#    "histograms": {...}, "workers": n, "trace": 0, "obs": {"kind": 2}}
#
# ``t`` (measured durations) and ``ts`` (wall clock) are the only
# non-deterministic fields; ``deterministic_view`` drops them.  The
# ``trace``/``obs`` keys make each line a valid observation for
# ``repro.traces.io.iter_jsonl`` (kind codes 0/1/2 + integer span
# attributes and depth), so telemetry logs can be re-read — and
# checked — with the repo's own streaming trace tooling.

_KIND_META = 0
_KIND_SPAN = 1
_KIND_SNAPSHOT = 2


def _span_obs(index: int, span_obj: Span) -> dict[str, int]:
    obs = {"kind": _KIND_SPAN, "depth": span_obj.depth, "seq": index}
    for key in sorted(span_obj.attrs):
        value = span_obj.attrs[key]
        if isinstance(value, bool):
            obs[key] = int(value)
        elif isinstance(value, int):
            obs[key] = value
    return obs


def export_jsonl(
    sess: TelemetrySession,
    out: TextIO,
    *,
    timestamp: str | None = None,
) -> int:
    """Write the session as JSONL; returns the number of events.

    ``timestamp`` (an ISO-8601 string, or ``None`` to omit) is the one
    field allowed to carry wall-clock time; everything else in the file
    is deterministic for a deterministic workload, modulo the measured
    durations under ``t``.
    """
    events = 0

    def emit(record: dict[str, Any]) -> None:
        nonlocal events
        out.write(json.dumps(record, sort_keys=True) + "\n")
        events += 1

    meta: dict[str, Any] = {
        "event": "meta",
        "format": 1,
        "command": sess.command,
        "args": {k: sess.args[k] for k in sorted(sess.args)},
        "trace": 0,
        "obs": {"kind": _KIND_META},
    }
    if timestamp is not None:
        meta["ts"] = timestamp
    emit(meta)

    ids: dict[int, int] = {}
    for index, span_obj in enumerate(sess.tracer.iter_spans()):
        ids[id(span_obj)] = index
        parent = -1 if span_obj.parent is None else ids[id(span_obj.parent)]
        emit(
            {
                "event": "span",
                "id": index,
                "parent": parent,
                "name": span_obj.name,
                "attrs": {
                    k: span_obj.attrs[k] for k in sorted(span_obj.attrs)
                },
                "t": {
                    "self": span_obj.self_seconds,
                    "total": span_obj.total_seconds,
                },
                "trace": 0,
                "obs": _span_obs(index, span_obj),
            }
        )

    snap = sess.metrics.snapshot()
    emit(
        {
            "event": "snapshot",
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
            "workers": sess.worker_snapshots,
            "trace": 0,
            "obs": {"kind": _KIND_SNAPSHOT},
        }
    )
    return events


def read_events(lines: Iterable[str]) -> list[dict[str, Any]]:
    """Parse exported JSONL back into event dicts (blank lines skipped)."""
    events = []
    for line in lines:
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


_TIMING_FIELDS = ("t", "ts")


def deterministic_view(event: dict[str, Any]) -> dict[str, Any]:
    """The event minus its timing fields (``t``/``ts`` and any
    ``*seconds*``-named metric, whose values are measured durations)."""
    view = {k: v for k, v in event.items() if k not in _TIMING_FIELDS}
    for section in ("counters", "gauges"):
        if section in view:
            view[section] = {
                k: v for k, v in view[section].items() if "seconds" not in k
            }
    if "histograms" in view:
        view["histograms"] = {
            k: v for k, v in view["histograms"].items() if "seconds" not in k
        }
    return view


# ---------------------------------------------------------------------------
# Profile rendering (`repro profile`)
# ---------------------------------------------------------------------------


class _ProfileNode:
    __slots__ = ("name", "count", "total", "self_time", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, _ProfileNode] = {}


def _aggregate_spans(events: list[dict[str, Any]]) -> _ProfileNode:
    """Fold span events into a tree keyed by name-path.

    Sibling spans with the same name aggregate into one node (count,
    summed total/self), which keeps the rendering readable when a loop
    emits thousands of structurally identical spans.
    """
    root = _ProfileNode("")
    nodes: dict[int, _ProfileNode] = {}
    for event in events:
        if event.get("event") != "span":
            continue
        parent = nodes.get(event["parent"], root)
        node = parent.children.get(event["name"])
        if node is None:
            node = parent.children[event["name"]] = _ProfileNode(event["name"])
        node.count += 1
        node.total += event["t"]["total"]
        node.self_time += event["t"]["self"]
        nodes[event["id"]] = node
    return root


def _rewrite_rule_rows(
    counters: dict[str, int],
) -> list[tuple[str, int, int]]:
    """``(rule, fires, attempts)`` rows from the simplifier's
    per-rule counters, ranked by payoff (fires, then attempts)."""
    rows: dict[str, list[int]] = {}
    prefix = "rewrite.rule."
    for name, value in counters.items():
        if not name.startswith(prefix):
            continue
        stem, _, metric = name[len(prefix):].rpartition(".")
        if metric == "fires":
            rows.setdefault(stem, [0, 0])[0] = value
        elif metric == "attempts":
            rows.setdefault(stem, [0, 0])[1] = value
    return sorted(
        ((rule, fires, attempts) for rule, (fires, attempts) in rows.items()),
        key=lambda row: (-row[1], -row[2], row[0]),
    )


def render_profile(
    events: list[dict[str, Any]], *, top: int = 10
) -> str:
    """Human-readable span tree + top-k counters from exported events."""
    lines: list[str] = []
    meta = next((e for e in events if e.get("event") == "meta"), None)
    if meta is not None and meta.get("command"):
        lines.append(f"command: {meta['command']}")

    root = _aggregate_spans(events)
    if root.children:
        lines.append("span tree (seconds):")
        lines.append(
            f"  {'total':>10}  {'self':>10}  {'count':>7}  phase"
        )

        def walk(node: _ProfileNode, depth: int) -> None:
            lines.append(
                f"  {node.total:>10.3f}  {node.self_time:>10.3f}"
                f"  {node.count:>7d}  {'  ' * depth}{node.name}"
            )
            for child in node.children.values():
                walk(child, depth + 1)

        for child in root.children.values():
            walk(child, 0)

        # %Tm denominator: the loop's own root span when present (other
        # roots, e.g. eval.score, are outside the reported T), else the
        # sum of all roots.
        run_total = _find_total(root, "loop.run")
        if run_total is None:
            run_total = sum(c.total for c in root.children.values())
        learn = _find_total(root, "loop.learn")
        if run_total > 0 and learn is not None:
            lines.append(
                f"learn-phase share: {100.0 * learn / run_total:.1f}%"
                " of loop.run total (Table I %Tm)"
            )

    snap = next(
        (e for e in reversed(events) if e.get("event") == "snapshot"), None
    )
    if snap is not None:
        # Per-rule rewrite counters get their own ranked section below;
        # keep the generic top-k list readable without them.
        counters = sorted(
            (
                kv
                for kv in snap["counters"].items()
                if not kv[0].startswith("rewrite.rule.")
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if counters:
            lines.append(f"top {min(top, len(counters))} counters:")
            width = max(len(name) for name, _ in counters[:top])
            for name, value in counters[:top]:
                lines.append(f"  {name:<{width}}  {value}")
        rules = _rewrite_rule_rows(snap["counters"])
        if rules:
            shown = rules[:top]
            lines.append(
                f"top {len(shown)} rewrite rules (fires/attempts):"
            )
            width = max(len(rule) for rule, _, _ in shown)
            for rule, fires, attempts in shown:
                rate = 100.0 * fires / attempts if attempts else 0.0
                lines.append(
                    f"  {rule:<{width}}  {fires:>8} / {attempts:<8}"
                    f"  ({rate:.1f}%)"
                )
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(name) for name in snap["gauges"])
            for name in sorted(snap["gauges"]):
                lines.append(f"  {name:<{width}}  {snap['gauges'][name]}")
        if snap.get("workers"):
            lines.append(f"worker snapshots merged: {snap['workers']}")
    return "\n".join(lines)


def _find_total(root: _ProfileNode, name: str) -> float | None:
    """Summed total of every node named ``name`` anywhere in the tree."""
    found = 0.0
    hit = False
    pending = [root]
    while pending:
        node = pending.pop()
        for child in node.children.values():
            if child.name == name:
                found += child.total
                hit = True
            pending.append(child)
    return found if hit else None
