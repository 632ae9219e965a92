"""Refine-phase speedup: the parallel engine vs the sequential baseline.

For every registry dataset of Table I:

* time sequential FilterRefineSky (bloom refine) and the parallel
  engine at 2 and 4 workers (pool forced on, so the numbers include
  CSR segment publish, pool spin-up and result merging);
* subtract the shared filter-phase cost and report refine-phase
  speedups of the workers vs sequential.

The safety net rides along: each result is asserted bit-for-bit equal
to the sequential bloom output before its time is recorded.  Every
measurement also lands in ``BENCH_skyline.json``.

Honest-measurement note: the parallel speedup ceiling is the host's
usable CPU count (recorded in the report footer).  On a single-core
container the parallel rows measure pure engine overhead and land below
1.0×.
"""

import os
import time

import pytest

from _datasets import dataset
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.harness.benchjson import bench_entry
from repro.parallel import (
    EngineSession,
    default_worker_count,
    parallel_refine_sky,
    shm_available,
)
from repro.workloads import TABLE1_NAMES

WORKER_COUNTS = (2, 4)


def _best_of(runs, fn):
    elapsed = []
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed), result


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_parallel_speedup(figure_report, bench_json, name):
    graph = dataset(name)
    t_filter, _ = _best_of(2, lambda: filter_phase(graph))
    t_seq, seq = _best_of(2, lambda: filter_refine_sky(graph))
    refine_seq = max(t_seq - t_filter, 1e-9)
    bench_json(
        bench_entry(
            bench="parallel_speedup",
            instance=name,
            algorithm="FilterRefineSky",
            wall_s=t_seq,
            refine_s=refine_seq,
        )
    )

    row = [name, graph.num_vertices, graph.num_edges, refine_seq]
    for workers in WORKER_COUNTS:
        t_par, par = _best_of(
            2,
            lambda w=workers: parallel_refine_sky(
                graph, workers=w, small_graph_edges=0
            ),
        )
        assert par.skyline == seq.skyline
        assert par.dominator == seq.dominator
        refine_par = max(t_par - t_filter, 1e-9)
        row.extend([refine_par, refine_seq / refine_par])
        bench_json(
            bench_entry(
                bench="parallel_speedup",
                instance=name,
                algorithm=f"FilterRefineSkyParallel(bloom,{workers}w)",
                wall_s=t_par,
                refine_s=refine_par,
                extra={
                    "workers": workers,
                    "refine": "bloom",
                    "refine_speedup_vs_seq": refine_seq / refine_par,
                },
            )
        )

    report = figure_report(
        "Parallel speedup",
        "Refine-phase time (s) and speedup of filter_refine_parallel",
        (
            "dataset",
            "n",
            "m",
            "refine seq",
            "refine 2w",
            "speedup 2w",
            "refine 4w",
            "speedup 4w",
        ),
    )
    report.add_row(*row)
    report.add_note(
        f"host exposes {default_worker_count()} usable CPU(s) "
        f"(os.cpu_count()={os.cpu_count()}); speedup is capped by that "
        "ceiling — single-core hosts measure pure pool overhead. Parallel "
        "times include CSR segment publish, pool spin-up and per-worker "
        "bloom-index rebuilds. Every parallel result was asserted "
        "bit-for-bit equal to the sequential output before timing was "
        "recorded."
    )


# ----------------------------------------------------------------------
# Data plane: segment publish + pool spin-up, cold one-shot vs warm session.
# ----------------------------------------------------------------------

DATA_PLANE_INSTANCE = "wikitalk_sim"
DATA_PLANE_WORKERS = 4
#: Acceptance bar: a warm session call's per-call setup must be at
#: least this many times cheaper than a cold one-shot call's.
MIN_WARM_SETUP_SPEEDUP = 5.0


@pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory on this host"
)
def test_data_plane_overhead(figure_report, bench_json):
    """Setup cost of a cold one-shot call vs a warm session call.

    A *cold* one-shot call runs on a throwaway session: it pays pool
    spin-up plus publishing the graph's CSR segments on every
    invocation.  A *warm* session call reuses the pool and the
    published graph segments, so its only per-call plane work is
    publishing the small call-scoped blobs (candidates, dominators,
    dominated flags).  Setup overhead is separated from compute by
    subtracting the best warm wall time — the steady-state floor where
    the pool and graph bytes already sit in place.
    """
    graph = dataset(DATA_PLANE_INSTANCE)
    workers = DATA_PLANE_WORKERS
    seq = filter_refine_sky(graph)

    def pooled(**kw):
        result = parallel_refine_sky(
            graph, workers=workers, small_graph_edges=0, **kw
        )
        assert result.skyline == seq.skyline
        assert result.dominator == seq.dominator
        return result

    t_cold, _ = _best_of(3, pooled)

    warm_walls = []
    warm_publish = []
    with EngineSession(graph, workers=workers) as session:
        pooled(session=session)  # cold first call builds pool + segments
        for _ in range(4):
            counters = SkylineCounters()
            start = time.perf_counter()
            pooled(session=session, counters=counters)
            warm_walls.append(time.perf_counter() - start)
            assert counters.extra["parallel_session"] == "warm"
            warm_publish.append(counters.extra["plane_publish_s"])
    t_warm = min(warm_walls)

    # Per-call setup: everything above the warm steady-state floor.  A
    # warm call's own setup is its segment-publish slice, measured
    # directly by the engine rather than inferred by subtraction.
    setup_cold = max(t_cold - t_warm, 1e-9)
    setup_warm = max(min(warm_publish), 1e-9)
    speedup = setup_cold / setup_warm

    rows = [
        ("ColdOneShot", t_cold, setup_cold),
        ("WarmSession", t_warm, setup_warm),
    ]
    for mode, wall, setup in rows:
        extra = {
            "workers": workers,
            "setup_overhead_s": setup,
        }
        if mode == "WarmSession":
            extra["setup_speedup_vs_cold"] = speedup
        bench_json(
            bench_entry(
                bench="data_plane",
                instance=DATA_PLANE_INSTANCE,
                algorithm=f"{mode}({workers}w)",
                wall_s=wall,
                extra=extra,
            )
        )

    report = figure_report(
        "Data plane overhead",
        "Per-call wall and setup overhead (s), cold one-shot vs warm "
        "session",
        ("mode", "wall", "setup overhead", "setup vs cold"),
    )
    for mode, wall, setup in rows:
        report.add_row(mode, wall, setup, setup_cold / setup)
    report.add_note(
        f"{DATA_PLANE_INSTANCE}, {workers} workers.  A cold one-shot "
        "call forks a pool and publishes the graph's CSR segments every "
        "time; the warm session row reuses one pool plus the published "
        "CSR/candidate segments, so its setup is only the per-call blob "
        "publish (measured by the engine as plane_publish_s).  Every "
        "result was asserted bit-for-bit equal to the sequential engine "
        "before timing was recorded."
    )

    assert speedup >= MIN_WARM_SETUP_SPEEDUP, (
        f"warm session setup ({setup_warm:.6f}s) is only "
        f"{speedup:.1f}x cheaper than a cold one-shot call "
        f"({setup_cold:.6f}s); acceptance floor is "
        f"{MIN_WARM_SETUP_SPEEDUP}x"
    )
