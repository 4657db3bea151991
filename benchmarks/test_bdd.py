"""Macro-benchmark: BDD image computation across engine configurations.

Records to ``BENCH_bdd.json`` at the repository root, for the five
largest library systems (by total BDD bits): full fixpoint exploration
under two configurations of :class:`SharedBddContext` --

* ``monolithic``   -- one compiled ``R``, single relational product;
* ``partitioned``  -- conjunctive partition with the IWLS95-style
  early-quantification schedule (the default configuration).

Per configuration the record keeps wall-clock exploration time, peak
node allocation, image-step counts and the partition shape.  Asserted
(all deterministic and machine-independent): both configurations agree
on diameter and reachable-state counts, and the partitioned pipeline
allocates fewer peak nodes than the monolithic one in aggregate and on
the largest system (the small systems trade a few nodes of cluster
bookkeeping for nothing, the large ones save ~40%).  Wall-clock is
recorded as ``partitioned_speedup`` but not asserted: the two
configurations run within a few percent of each other, inside the
noise of one host, and ``perfbench/`` gates wall-clock end to end.

The wall-clock entries are measured in a **fresh subprocess** (min over
``TIMING_ROUNDS`` interleaved rounds): inside a long-lived pytest
interpreter the two configurations' relative speed is distorted by
accumulated heap state -- reproducibly, by tens of percent, in a
direction that flips with unrelated code-size changes -- while a bare
interpreter measures the same ratio stably.  Structural metrics (peak
nodes, diameter, state counts, partition shape) stay in-process; they
are deterministic.

Run:  pytest benchmarks/test_bdd.py -s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.mc.symbolic import SharedBddContext, SymbolicReachability
from repro.stateflow.library import get_benchmark

BENCHES = [
    "ModelingASecuritySystem",
    "ModelingARedundantSensorPairUsingAtomicSubchart",
    "ModelingACdPlayerradioUsingEnumeratedDataType2",
    "ModelingAnIntersectionOfTwo1wayStreetsUsingStateflow",
    "ModelingALaunchAbortSystem",
]
# Timing rounds per configuration; entries keep the minimum.
TIMING_ROUNDS = 5
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_bdd.json"

CONFIGS = {"monolithic": False, "partitioned": True}


def _explore(system, partitioned):
    ctx = SharedBddContext(system, partitioned=partitioned)
    engine = SymbolicReachability(system, context=ctx)
    engine.explore()
    return ctx, engine, engine.num_reachable_states()


def _isolated_timings() -> dict[str, dict[str, float]]:
    """Monolithic/partitioned wall-clock per system, from a bare
    interpreter: ``{system: {config: min_seconds_over_rounds}}``."""
    script = textwrap.dedent(
        f"""
        import json, sys, time
        from repro.mc.symbolic import SharedBddContext, SymbolicReachability
        from repro.stateflow.library import get_benchmark

        best = {{}}
        for name in {BENCHES!r}:
            system = get_benchmark(name).system
            entry = best.setdefault(name, {{}})
            for _ in range({TIMING_ROUNDS}):
                for key, part in {CONFIGS!r}.items():
                    ctx = SharedBddContext(system, partitioned=part)
                    engine = SymbolicReachability(system, context=ctx)
                    start = time.perf_counter()
                    engine.explore()
                    engine.num_reachable_states()
                    seconds = time.perf_counter() - start
                    entry[key] = min(seconds, entry.get(key, seconds))
        print(json.dumps(best))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(out.stdout)


def test_bdd_image_benchmark():
    systems = {}
    totals = {name: 0.0 for name in CONFIGS}
    timings = _isolated_timings()
    for bench_name in BENCHES:
        system = get_benchmark(bench_name).system
        row: dict = {"total_bits": None}
        reference = None
        for config_name, partitioned in CONFIGS.items():
            ctx, engine, states = _explore(system, partitioned)
            # Report the isolated timing; the in-process number is
            # unusable (see module docstring).
            seconds = timings[bench_name][config_name]
            row["total_bits"] = ctx.compiler.total_bits
            entry = {
                "seconds": round(seconds, 4),
                "peak_nodes": ctx.manager.peak_nodes,
                "image_computations": ctx.image_computations,
                "diameter": engine.diameter,
                "states": states,
            }
            if partitioned:
                partition = ctx.partition()
                entry["clusters"] = partition.num_clusters
                entry["cluster_sizes"] = list(partition.cluster_sizes)
            row[config_name] = entry
            totals[config_name] += seconds
            if reference is None:
                reference = (engine.diameter, states)
            else:
                assert (engine.diameter, states) == reference, (
                    bench_name,
                    config_name,
                )
        systems[bench_name] = row

    # Deterministic improvement: never materialising the monolithic
    # conjunction must pay off in aggregate and on the biggest system.
    peak_totals = {
        name: sum(row[name]["peak_nodes"] for row in systems.values())
        for name in ("monolithic", "partitioned")
    }
    assert peak_totals["partitioned"] < peak_totals["monolithic"]
    largest = max(systems, key=lambda n: systems[n]["total_bits"])
    assert (
        systems[largest]["partitioned"]["peak_nodes"]
        < systems[largest]["monolithic"]["peak_nodes"]
    ), largest

    speedup = totals["monolithic"] / max(totals["partitioned"], 1e-9)
    record = {
        "systems": systems,
        "timing_rounds": TIMING_ROUNDS,
        "totals_seconds": {k: round(v, 4) for k, v in totals.items()},
        "partitioned_speedup": round(speedup, 3),
        "peak_node_reduction": {
            name: round(
                1
                - row["partitioned"]["peak_nodes"]
                / row["monolithic"]["peak_nodes"],
                3,
            )
            for name, row in systems.items()
        },
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    reductions = ", ".join(
        f"{name.removeprefix('Modeling')} {pct:.0%}"
        for name, pct in record["peak_node_reduction"].items()
    )
    print(
        f"\nBDD image: {len(BENCHES)} systems | peak-node reduction "
        f"{reductions} | partitioned speedup {speedup:.2f}x | "
        f"recorded in {RESULT_PATH.name}"
    )
