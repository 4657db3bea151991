"""Failure-mode and spawn-safety tests for the persistent worker pool.

The pool (:class:`~repro.core.pool.PersistentWorkerPool`) is driven
through its one production spec, the segmented learner's
:class:`~repro.learn.segmented.SegmentLearnSpec`:

* replies left in flight by an abandoned batch are discarded, never
  attributed to the next batch's indices;
* a worker that dies mid-batch loses no item: each is either a result
  or handed back for retry, and the learner's model is unchanged;
* under the ``spawn`` start method, where workers rebuild everything
  from the pickled spec, the model equals the serial one;
* pickled valuations recompute their cached hash under the receiving
  interpreter's hash seed.

The other pool tests use ``fork`` purely for start-up speed.
"""

import pickle
import subprocess
import sys
import warnings

import pytest

from repro.core.pool import PersistentWorkerPool
from repro.learn import SegmentedLearner
from repro.learn.segmented import SegmentLearnSpec, _learn_segment
from repro.stateflow.library import get_benchmark
from repro.system import Valuation

from test_segmented_learning import (
    OVERLAP,
    SEGMENT_LENGTH,
    basis_learner,
    fingerprint,
    library_traces,
)

SYSTEM = "ModelingALaunchAbortSystem"


def distinct_segments(learner, traces):
    return learner._distinct_in_order(
        learner._ingest(iter(trace) for trace in traces)
    )


def round_robin(segments, jobs=2):
    batches = [[] for _ in range(jobs)]
    for index, segment in enumerate(segments):
        batches[index % jobs].append((index, segment))
    return batches


def segment_fingerprint(result):
    model, entry, exit_ = result
    return fingerprint(model), entry, exit_


def test_stale_replies_from_abandoned_batch_are_discarded():
    """A batch abandoned mid-collection (e.g. by KeyboardInterrupt)
    leaves worker replies in flight; the next batch must not take them
    for its own indices."""
    system = get_benchmark(SYSTEM).system
    learner = SegmentedLearner(basis_learner(system), SEGMENT_LENGTH, OVERLAP)
    segments = distinct_segments(learner, library_traces(system))
    stale = segments[-1]
    expected = [
        segment_fingerprint(_learn_segment(learner.base, segment, OVERLAP))
        for segment in segments
    ]
    assert segment_fingerprint(
        _learn_segment(learner.base, stale, OVERLAP)
    ) != expected[0]
    spec = SegmentLearnSpec(learner.base, OVERLAP)
    with PersistentWorkerPool(spec, 2, start_method="fork") as pool:
        # Hand-dispatch a batch the parent never collects, tagged with
        # the generation before the next run_batches.
        pool.ensure_worker(0).conn.send(("run", pool._generation, [(0, stale)]))
        run = pool.run_batches(round_robin(segments))
    assert run.failures == 0 and not run.retry
    assert sorted(run.results) == list(range(len(segments)))
    assert [
        segment_fingerprint(run.results[index])
        for index in range(len(segments))
    ] == expected


def test_dead_worker_never_shortens_the_result():
    system = get_benchmark(SYSTEM).system
    traces = library_traces(system)
    expected = fingerprint(
        SegmentedLearner(basis_learner(system), SEGMENT_LENGTH, OVERLAP).learn(
            traces
        )
    )
    learner = SegmentedLearner(
        basis_learner(system), SEGMENT_LENGTH, OVERLAP,
        jobs=2, start_method="fork",
    )
    segments = distinct_segments(learner, traces)
    assert len(segments) >= 4  # worker 0 gets at least two items
    spec = SegmentLearnSpec(learner.base, OVERLAP)
    # The pool's crash hook: worker 0 exits after its first result.
    object.__setattr__(spec, "fault", (0, 1))
    learner._pool = PersistentWorkerPool(spec, 2, start_method="fork")
    with learner:
        run = learner._pool.run_batches(round_robin(segments))
        assert run.failures == 1
        # The result sent before the crash is kept; nothing is dropped.
        assert 0 in run.results
        assert not set(run.results) & set(run.retry)
        assert set(run.results) | set(run.retry) == set(range(len(segments)))
        # The dead worker is respawned on the next dispatch (and dies
        # again); the learner re-learns what it lost, same model.
        with pytest.warns(RuntimeWarning, match="segment-learner"):
            model = learner.learn(traces)
        assert fingerprint(model) == expected


def test_spawn_start_method_matches_serial():
    system = get_benchmark(SYSTEM).system
    traces = library_traces(system)
    expected = fingerprint(
        SegmentedLearner(basis_learner(system), SEGMENT_LENGTH, OVERLAP).learn(
            traces
        )
    )
    # Escalated: the crashed-worker fallback must not mask a spawn bug.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with SegmentedLearner(
            basis_learner(system), SEGMENT_LENGTH, OVERLAP,
            jobs=2, start_method="spawn",
        ) as learner:
            assert fingerprint(learner.learn(traces)) == expected


def test_valuation_pickle_recomputes_hash_across_hash_seeds():
    # A valuation pickled under a *different* string-hash seed must
    # hash consistently with locally built valuations once loaded.
    code = (
        "import pickle, sys; sys.path.insert(0, 'src');"
        "from repro.system import Valuation;"
        "sys.stdout.buffer.write(pickle.dumps(Valuation({'a': 1, 'b': 2})))"
    )
    blob = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    ).stdout
    loaded = pickle.loads(blob)
    local = Valuation({"a": 1, "b": 2})
    assert loaded == local
    assert hash(loaded) == hash(local)
    assert len({loaded, local}) == 1
