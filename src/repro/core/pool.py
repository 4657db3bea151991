"""Persistent worker pools: deterministic process fan-out.

The pool behind :class:`~repro.learn.segmented.SegmentedLearner`'s
``jobs > 1`` mode: it owns process lifecycle, stale-reply filtering and
crash recovery, and runs *batches of indexed items* on long-lived
worker processes, streaming results back one item at a time:

* parent → worker: ``("run", generation, [(index, item), ...])`` or
  ``("stop",)``;
* worker → parent: one ``("one", generation, index, result)`` per item,
  then ``("done", generation, snapshot | None)`` per batch, where
  ``snapshot`` is the worker's metrics delta for the batch when the
  spec carries a true ``telemetry`` attribute (the worker then runs a
  metrics-only telemetry session; see :mod:`repro.core.telemetry`).
  The parent folds the per-slot snapshots into the active session in
  **slot order** — never completion order — so fleet totals are
  deterministic run to run.

Streaming per item is what lets the parent recover precisely when a
worker dies mid-batch; the echoed generation lets it discard stale
replies if an earlier call was abandoned mid-collection (e.g. by
KeyboardInterrupt) with results still in flight.

A pool is built from a picklable *spec* — any object with a
``make_runner(worker_index)`` method returning the per-item callable
``runner(item) -> result``.  The spec travels to the worker by pickle
under any start method; ``"spawn"`` is the default.  An optional
``fault`` attribute ``(worker_index, results_before_exit)`` on the spec
injects a hard crash for tests, exactly where a real crash is hardest
to handle: after computing a result, before sending it.

Determinism is the caller's contract, not the pool's: the pool
guarantees only that every dispatched item either yields its worker's
result or is reported back for retry (``BatchRun.retry``) — never
silently dropped — and that results are keyed by the caller's indices.
Callers get bit-for-bit reproducible output by making each item's
result history-independent (deterministic learners) and merging by
index.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Any, Protocol, runtime_checkable

from . import telemetry

#: Per-item worker callable: item -> result.
ItemRunner = Callable[[Any], Any]


@runtime_checkable
class WorkerSpec(Protocol):
    """Picklable recipe a worker rebuilds its per-item runner from."""

    def make_runner(self, worker_index: int) -> ItemRunner: ...


def _pool_worker_main(spec: WorkerSpec, worker_index: int, conn: Connection) -> None:
    """Worker loop: rebuild the runner from the spec, then serve batches."""
    session = None
    last_snapshot = None
    if getattr(spec, "telemetry", False):
        # Metrics-only: spans are dropped (a long-lived worker would
        # otherwise accumulate them without bound and they never ship).
        session = telemetry.start(record_spans=False)
        last_snapshot = session.metrics.snapshot()
    runner = spec.make_runner(worker_index)
    fault = getattr(spec, "fault", None)
    sent = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message[0] == "stop":
            break
        _tag, generation, batch = message
        for index, item in batch:
            result = runner(item)
            if fault is not None and fault[0] == worker_index:
                if sent >= fault[1]:
                    os._exit(1)
            conn.send(("one", generation, index, result))
            sent += 1
        if session is None:
            conn.send(("done", generation, None))
        else:
            snapshot = session.metrics.snapshot()
            conn.send(
                ("done", generation,
                 telemetry.snapshot_delta(snapshot, last_snapshot))
            )
            last_snapshot = snapshot
    conn.close()


@dataclass
class PoolWorker:
    process: multiprocessing.Process
    conn: Connection

    def alive(self) -> bool:
        return self.process.is_alive()


@dataclass
class BatchRun:
    """Outcome of one :meth:`PersistentWorkerPool.run_batches` call."""

    #: index -> result, for every item some worker finished.
    results: dict[int, Any] = field(default_factory=dict)
    #: index -> item, for items lost to dead workers (caller retries).
    retry: dict[int, Any] = field(default_factory=dict)
    #: how many workers died or refused dispatch during this run.
    failures: int = 0
    #: slot -> metrics snapshot delta, for telemetry-enabled workers.
    snapshots: dict[int, dict[str, Any]] = field(default_factory=dict)


class PersistentWorkerPool:
    """Long-lived worker processes serving indexed batches.

    Workers are spawned lazily per slot on first dispatch and live
    until :meth:`close` (they are daemonic, so a forgotten close can
    never hang interpreter exit).  Dead workers are respawned on the
    next dispatch; their unfinished items come back in
    :attr:`BatchRun.retry`.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        jobs: int,
        *,
        start_method: str = "spawn",
        name: str = "pool",
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.jobs = jobs
        self.name = name
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list[PoolWorker | None] = [None] * jobs
        self._generation = 0  # batch tag; see module docstring protocol
        self._abandoned = False  # a run_batches exited abnormally
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down all worker processes."""
        self._closed = True
        for slot, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.conn.close()
            self._workers[slot] = None

    def reset(self) -> None:
        """Kill every worker; the next dispatch spawns a fresh pool.

        Used after a run exits abnormally: an abandoned batch can leave
        a worker blocked mid-``send`` on a full result pipe, and
        dispatching to it again could deadlock.  Workers hold no state
        that cannot be rebuilt from the spec.
        """
        for slot, worker in enumerate(self._workers):
            if worker is None:
                continue
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            worker.conn.close()
            self._workers[slot] = None
        self._abandoned = False

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; daemon workers die anyway
        try:
            self.close()
        except Exception:
            pass

    def ensure_worker(self, slot: int) -> PoolWorker:
        """The live worker for a slot, (re)spawning it if needed."""
        worker = self._workers[slot]
        if worker is not None and worker.alive():
            return worker
        if worker is not None:
            worker.conn.close()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(self.spec, slot, child_conn),
            daemon=True,
            name=f"{self.name}-{slot}",
        )
        process.start()
        child_conn.close()
        worker = PoolWorker(process=process, conn=parent_conn)
        self._workers[slot] = worker
        return worker

    # -- dispatch ------------------------------------------------------
    def run_batches(
        self, batches: Sequence[Sequence[tuple[int, Any]]]
    ) -> BatchRun:
        """Run one pre-sharded batch per worker slot; stream results.

        ``batches[slot]`` is the (index, item) list for that slot (empty
        lists skip the slot).  Blocks until every dispatched batch is
        done or its worker is dead.  Items a dead worker never finished
        come back in :attr:`BatchRun.retry`; nothing is retried
        in-pool, so the caller decides the fallback path.
        """
        if self._closed:
            raise RuntimeError(f"worker pool {self.name!r} is closed")
        if self._abandoned:
            # The previous call exited abnormally with batches possibly
            # still in flight; a worker blocked on a full result pipe
            # would deadlock a fresh dispatch, so start clean.
            # (Generation tags already guard plain stale messages.)
            self.reset()
        try:
            return self._run_batches(batches)
        except BaseException:
            self._abandoned = True
            raise

    def _run_batches(
        self, batches: Sequence[Sequence[tuple[int, Any]]]
    ) -> BatchRun:
        started = time.monotonic()
        run = BatchRun()
        pending: dict[int, dict[int, Any]] = {}
        active: dict[int, PoolWorker] = {}
        self._generation += 1
        generation = self._generation

        for slot, batch in enumerate(batches):
            if not batch:
                continue
            worker = self.ensure_worker(slot)
            try:
                worker.conn.send(("run", generation, list(batch)))
            except (BrokenPipeError, OSError):
                run.failures += 1
                run.retry.update(dict(batch))
                continue
            pending[slot] = dict(batch)
            active[slot] = worker

        def drain(worker: PoolWorker, slot: int) -> str:
            """Consume buffered replies; 'done', 'dead' or 'idle'.

            Replies from an earlier generation (a run abandoned
            mid-collection) are discarded rather than misattributed to
            this batch's indices.
            """
            while worker.conn.poll(0):
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    return "dead"
                if message[1] != generation:
                    continue
                if message[0] == "one":
                    _tag, _gen, index, result = message
                    run.results[index] = result
                    pending[slot].pop(index, None)
                elif message[0] == "done":
                    if message[2] is not None:
                        run.snapshots[slot] = message[2]
                    return "done"
            return "idle"

        while pending:
            by_conn = {active[s].conn: s for s in pending}
            by_sentinel = {active[s].process.sentinel: s for s in pending}
            ready = wait(list(by_conn) + list(by_sentinel))
            touched = {by_conn.get(obj, by_sentinel.get(obj)) for obj in ready}
            for slot in touched:
                if slot not in pending:
                    continue
                worker = active[slot]
                state = drain(worker, slot)
                if state == "idle" and not worker.process.is_alive():
                    # The drain may have raced the exit; anything still
                    # buffered in the pipe is readable after death.
                    state = drain(worker, slot)
                    if state == "idle":
                        state = "dead"
                if state == "done":
                    pending.pop(slot)
                elif state == "dead":
                    run.failures += 1
                    run.retry.update(pending.pop(slot))

        session = telemetry.active()
        if session is not None:
            # Slot order, not completion order: float sums are
            # order-dependent, and this is what makes repeated jobs=N
            # runs report byte-identical fleet totals.
            for slot in sorted(run.snapshots):
                session.absorb(run.snapshots[slot])
            registry = session.metrics
            registry.inc("pool.batches")
            registry.inc("pool.items", len(run.results))
            if run.failures:
                registry.inc("pool.worker_failures", run.failures)
            registry.observe(
                "pool.batch_seconds", time.monotonic() - started
            )
        return run
