"""Trace serialisation: CSV, JSON, and appendable JSONL event logs.

The CSV layout matches what a trace-collection harness would dump from an
instrumented run: a ``trace`` column identifying the execution, a ``step``
column, then one column per observable variable.

The JSONL layout is the *appendable* variant of the same idea: one JSON
object per line, ``{"trace": <index>, "obs": {<var>: <value>, ...}}``, so
a harness can append observations as they happen and a reader can consume
the log with bounded memory.  Both formats have streaming readers
(:func:`iter_csv` / :func:`iter_jsonl`) that yield ``(trace_index,
Valuation)`` events one at a time; the eager ``read_*``/``load_*`` API is
a thin collector over them.

Streaming contract: events for one trace are contiguous and steps appear
in order (which is exactly what the writers emit).  Violations — and any
malformed row — raise :class:`TraceFormatError` with the offending line
number, never a ``MemoryError`` from buffering an unbounded group.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

from ..system.valuation import Valuation
from .trace import Trace, TraceSet

#: A streamed trace event: (trace index, observation).
TraceEvent = tuple[int, Valuation]


class TraceFormatError(ValueError):
    """A trace file is malformed (bad header, row, or event ordering)."""


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

def write_csv(traces: TraceSet, out: TextIO) -> None:
    """Write a trace set as CSV."""
    variables: list[str] = []
    for trace in traces:
        if len(trace):
            variables = list(trace[0])
            break
    writer = csv.writer(out)
    writer.writerow(["trace", "step", *variables])
    for index, trace in enumerate(traces):
        for step, obs in enumerate(trace):
            writer.writerow([index, step, *(obs[name] for name in variables)])


def iter_csv(src: TextIO) -> Iterator[TraceEvent]:
    """Stream ``(trace_index, observation)`` events from a trace CSV.

    Bounded memory: one row is held at a time, never a whole trace.
    Rows must be grouped by trace with steps in order (as written by
    :func:`write_csv`); anything else raises :class:`TraceFormatError`.
    """
    reader = csv.reader(src)
    header = next(reader, None)
    if header is None or header[:2] != ["trace", "step"]:
        raise TraceFormatError(
            "not a trace CSV (expected 'trace,step,...' header)"
        )
    variables = header[2:]
    width = len(header)
    seen: set[int] = set()
    current = -1
    next_step = 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise TraceFormatError(
                f"line {lineno}: expected {width} columns, got {len(row)}"
            )
        try:
            index, step = int(row[0]), int(row[1])
            values = Valuation(
                {
                    name: int(value)
                    for name, value in zip(variables, row[2:], strict=True)
                }
            )
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"line {lineno}: malformed row: {exc}") from exc
        if index != current:
            if index in seen:
                raise TraceFormatError(
                    f"line {lineno}: trace {index} is not contiguous"
                )
            seen.add(index)
            current = index
            next_step = 0
        if step != next_step:
            raise TraceFormatError(
                f"line {lineno}: trace {index} expected step {next_step}, "
                f"got {step}"
            )
        next_step += 1
        yield index, values


def read_csv(src: TextIO) -> TraceSet:
    """Read a trace set written by :func:`write_csv`.

    Thin collector over :func:`iter_csv`.
    """
    return collect_events(iter_csv(src))


def save_csv(traces: TraceSet, path: str | Path) -> None:
    with open(path, "w", newline="") as out:
        write_csv(traces, out)


def load_csv(path: str | Path) -> TraceSet:
    with open(path, newline="") as src:
        return read_csv(src)


# ----------------------------------------------------------------------
# JSON (one document per trace set)
# ----------------------------------------------------------------------

def write_json(traces: TraceSet, out: TextIO) -> None:
    """Write a trace set as one JSON document.

    Keys are sorted, as in :func:`write_jsonl_events`, so the bytes
    depend only on the observations' values, not on how each
    :class:`Valuation` was built.
    """
    payload = [[obs.as_dict() for obs in trace] for trace in traces]
    json.dump(payload, out, indent=2, sort_keys=True)


def read_json(src: TextIO) -> TraceSet:
    try:
        payload = json.load(src)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not a trace JSON document: {exc}") from exc
    if not isinstance(payload, list):
        raise TraceFormatError("trace JSON must be a list of traces")
    traces = TraceSet()
    for t_index, raw_trace in enumerate(payload):
        if not isinstance(raw_trace, list):
            raise TraceFormatError(f"trace {t_index} is not a list")
        traces.add(Trace(_valuation(obs, f"trace {t_index}") for obs in raw_trace))
    return traces


def save_json(traces: TraceSet, path: str | Path) -> None:
    with open(path, "w") as out:
        write_json(traces, out)


def load_json(path: str | Path) -> TraceSet:
    with open(path) as src:
        return read_json(src)


# ----------------------------------------------------------------------
# JSONL (appendable event log)
# ----------------------------------------------------------------------

def write_jsonl(traces: TraceSet | Iterable[Trace], out: TextIO) -> None:
    """Write traces as a JSONL event log (one observation per line)."""
    write_jsonl_events(
        ((index, obs) for index, trace in enumerate(traces) for obs in trace),
        out,
    )


def write_jsonl_events(events: Iterable[TraceEvent], out: TextIO) -> None:
    """Append streamed ``(trace_index, observation)`` events as JSONL."""
    for index, obs in events:
        out.write(
            json.dumps({"trace": index, "obs": obs.as_dict()}, sort_keys=True)
        )
        out.write("\n")


def iter_jsonl(src: TextIO) -> Iterator[TraceEvent]:
    """Stream ``(trace_index, observation)`` events from a JSONL log.

    Bounded memory: one line at a time.  Events for one trace must be
    contiguous (the log is append-only per run); violations raise
    :class:`TraceFormatError`.
    """
    seen: set[int] = set()
    current = -1
    for lineno, line in enumerate(src, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: not JSON: {exc}") from exc
        if not isinstance(record, dict) or "obs" not in record:
            raise TraceFormatError(
                f"line {lineno}: expected {{'trace': i, 'obs': {{...}}}}"
            )
        try:
            index = int(record.get("trace", 0))
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"line {lineno}: bad trace index: {record.get('trace')!r}"
            ) from exc
        if index != current:
            if index in seen:
                raise TraceFormatError(
                    f"line {lineno}: trace {index} is not contiguous"
                )
            seen.add(index)
            current = index
        yield index, _valuation(record["obs"], f"line {lineno}")


def read_jsonl(src: TextIO) -> TraceSet:
    """Read a trace set from a JSONL event log (thin collector)."""
    return collect_events(iter_jsonl(src))


def save_jsonl(traces: TraceSet, path: str | Path) -> None:
    with open(path, "w") as out:
        write_jsonl(traces, out)


def load_jsonl(path: str | Path) -> TraceSet:
    with open(path) as src:
        return read_jsonl(src)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def collect_events(events: Iterable[TraceEvent]) -> TraceSet:
    """Group a contiguous event stream into a :class:`TraceSet`.

    This is the eager endpoint of the streaming API; it materialises
    every trace, so for genuinely long logs prefer consuming the event
    iterator directly (e.g. via ``segment_trace``).
    """
    traces = TraceSet()
    current = -1
    pending: list[Valuation] = []
    for index, obs in events:
        if index != current:
            if pending:
                traces.add(Trace(pending))
            current = index
            pending = []
        pending.append(obs)
    if pending:
        traces.add(Trace(pending))
    return traces


def _valuation(raw: object, where: str) -> Valuation:
    if not isinstance(raw, dict):
        raise TraceFormatError(f"{where}: observation is not an object")
    try:
        return Valuation({str(name): int(value) for name, value in raw.items()})
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"{where}: non-integer observation: {exc}") from exc
