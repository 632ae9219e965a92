"""Measure the pool supervisor's overhead against a raw pool replica.

The supervisor's no-fault cost is pure bookkeeping: one deadline per
``future.result`` wait, one schema check per chunk, and counter sums.
This benchmark prices that bookkeeping by running the refine phase's
exact chunk workload over the same published shared-memory segments —

* **raw**: ``ProcessPoolExecutor.map`` over the status and witness
  spec tasks, no deadlines, no validation, no retry machinery (the
  pre-supervisor engine's shape);
* **supervised**: the same tasks through :class:`PoolSupervisor.run`
  with the engine's validators and fallback wired, fault plan empty.

Both sides pay pool startup and the per-run dominated-list publish, so
the delta is the supervision itself.  The two sides run in interleaved
pairs (alternating which goes first); the report is the median
overhead against the raw side's interquartile range, and the gap is
called ``unresolved`` when it is inside that range — run-to-run noise
then exceeds the supervisor's cost and the 2% target can be neither
met nor missed.  Medians, the raw IQR and the verdict are merged into
``BENCH_skyline.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py \
        [--dataset NAME] [--workers W] [--pairs N]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

from repro.bloom.vertex_filters import width_for_max_degree
from repro.core.filter_phase import filter_phase
from repro.harness.benchjson import (
    BENCH_FILENAME,
    bench_entry,
    write_bench_json,
)
from repro.parallel.chunks import chunk_ranges, default_chunk_size
from repro.parallel.session import EngineSession, pool_context
from repro.parallel.supervisor import PoolSupervisor, SupervisorConfig
from repro.parallel.worker import (
    build_state,
    init_worker,
    publish_refine_spec,
    run_status_chunk,
    run_witness_chunk,
    status_chunk,
    validate_status_chunk,
    validate_witness_chunk,
    witness_chunk,
)
from repro.workloads import load

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The supervisor's no-fault overhead budget, percent.
TARGET_PCT = 2.0


class Workload:
    """The refine chunk workload over one session's published segments."""

    def __init__(self, session: EngineSession, workers: int):
        graph = session.graph
        candidates, dominator = filter_phase(graph)
        dmax = max((graph.degree(u) for u in graph.vertices()), default=0)
        bits = width_for_max_degree(dmax, 8)
        self.session = session
        self.workers = workers
        self.graph_refs = session.graph_refs()
        self.spec = publish_refine_spec(
            session, candidates, dominator, bits=bits, seed=0
        )
        self.state = build_state(
            graph, candidates, dominator, bits=bits, seed=0
        )
        self.size = default_chunk_size(len(candidates), workers)
        self.status_tasks = [
            (self.spec, lo, hi)
            for lo, hi in chunk_ranges(len(candidates), self.size)
        ]

    def witness_tasks(self, dominated):
        """Publish the per-run dominated blob; return its ref and tasks."""
        ref = self.session.plane.publish(array("q", dominated), "q")
        tasks = [
            (self.spec, lo, hi, ref)
            for lo, hi in chunk_ranges(len(dominated), self.size)
        ]
        return ref, tasks

    def run_raw(self):
        """The two refine passes over a bare executor — no supervision."""
        with ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=pool_context(),
            initializer=init_worker,
            initargs=(self.graph_refs,),
        ) as pool:
            dominated = []
            for part, _stats in pool.map(run_status_chunk, self.status_tasks):
                dominated.extend(part)
            ref, tasks = self.witness_tasks(dominated)
            try:
                pairs = []
                for part, _stats in pool.map(run_witness_chunk, tasks):
                    pairs.extend(part)
            finally:
                self.session.plane.unlink_one(ref)
        return dominated, pairs

    def run_supervised(self):
        """The same passes through the supervisor, fault plan empty."""
        state = self.state
        supervisor = PoolSupervisor(
            workers=self.workers,
            initializer=init_worker,
            initargs=(self.graph_refs,),
            config=SupervisorConfig(),
            mp_context=pool_context(),
        )
        with supervisor:
            dominated = []
            for part, _stats in supervisor.run(
                run_status_chunk,
                self.status_tasks,
                fallback=lambda task: status_chunk(state, task[1], task[2]),
                validate=validate_status_chunk,
            ):
                dominated.extend(part)
            ref, tasks = self.witness_tasks(dominated)
            try:
                pairs = []
                for part, _stats in supervisor.run(
                    run_witness_chunk,
                    tasks,
                    fallback=lambda task: witness_chunk(
                        state, dominated, task[1], task[2]
                    ),
                    validate=validate_witness_chunk,
                ):
                    pairs.extend(part)
            finally:
                self.session.plane.unlink_one(ref)
        return dominated, pairs


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _iqr(samples) -> float:
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def measure(dataset: str, workers: int, pairs: int) -> list[dict]:
    graph = load(dataset)
    # The session only publishes the segments both sides attach; its
    # own pool is never started.
    with EngineSession(graph, workers=workers) as session:
        work = Workload(session, workers)
        raw_s, sup_s = [], []
        reference = None
        # Interleaved pairs, alternating which side runs first, so
        # cache and scheduler drift cannot favor one side.
        for i in range(pairs):
            sides = [("raw", work.run_raw), ("sup", work.run_supervised)]
            if i % 2:
                sides.reverse()
            out = {}
            for label, fn in sides:
                out[label] = _timed(fn)
            raw_s.append(out["raw"][0])
            sup_s.append(out["sup"][0])
            assert out["raw"][1] == out["sup"][1], (
                "supervised pool diverged from raw pool"
            )
            reference = out["raw"][1]
    assert reference is not None

    med_raw = statistics.median(raw_s)
    med_sup = statistics.median(sup_s)
    raw_iqr = _iqr(raw_s)
    gap = med_sup - med_raw
    overhead_pct = 100.0 * gap / med_raw
    if abs(gap) <= raw_iqr:
        verdict = "unresolved"
    elif overhead_pct < TARGET_PCT:
        verdict = "within target"
    else:
        verdict = "over target"
    print(
        f"{dataset}: workers={workers} chunks={len(work.status_tasks)} "
        f"pairs={pairs} median raw={med_raw:.3f}s "
        f"supervised={med_sup:.3f}s overhead={overhead_pct:+.2f}% "
        f"raw IQR={raw_iqr:.3f}s -> {verdict} "
        f"(target < {TARGET_PCT:g}%)"
    )
    return [
        bench_entry(
            bench="resilience_overhead",
            instance=dataset,
            algorithm=f"raw-pool(w={workers})",
            wall_s=med_raw,
            extra={"pairs": pairs, "iqr_s": raw_iqr},
        ),
        bench_entry(
            bench="resilience_overhead",
            instance=dataset,
            algorithm=f"supervised-pool(w={workers})",
            wall_s=med_sup,
            extra={
                "pairs": pairs,
                "iqr_s": _iqr(sup_s),
                "overhead_pct": round(overhead_pct, 2),
                "verdict": verdict,
            },
        ),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="wikitalk_sim")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--pairs",
        type=int,
        default=10,
        help="interleaved raw/supervised pairs (at least 10)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    entries = measure(args.dataset, args.workers, args.pairs)
    path = os.path.join(REPO_ROOT, BENCH_FILENAME)
    write_bench_json(path, entries)
    print(f"merged {len(entries)} entries into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
