"""``parallel_refine_sky`` — FilterRefineSky with a multi-worker refine.

The filter phase stays sequential (it is near-linear and inherently
order-coupled through its twin tie-breaks); the refine phase — the
dominant cost on candidate-heavy graphs, and independent per candidate —
is chunked over a :mod:`multiprocessing` pool.  Every pooled call runs
on an :class:`~repro.parallel.session.EngineSession` — the caller's warm
one, or a throwaway one for a one-shot call: workers attach the graph's
CSR arrays from shared memory, build their :class:`~repro.bloom.
vertex_filters.VertexBloomIndex` once per call, and then scan candidate
chunks; see :mod:`repro.parallel.worker` for the two-pass decomposition
and the argument that its output is bit-for-bit the sequential one.

Guarantees:

* ``skyline``, ``dominator`` and ``candidates`` are **identical** to
  :func:`~repro.core.filter_refine.filter_refine_sky` on every input,
  for every worker count and chunk size.
* Merged counters are deterministic — per-candidate tallies summed over
  any partition — though they differ from the sequential schedule's
  (the status pass stops at the first dominator; the witness pass
  rescans dominated candidates).  Scheduling facts (mode, workers,
  chunk count, rescans) land in ``counters.extra["parallel_*"]`` keys,
  outside :meth:`~repro.core.counters.SkylineCounters.as_dict`.
* Small graphs (``num_edges < small_graph_edges``), ``workers <= 1``
  and hosts without usable shared memory run the same two passes
  in-process — no pool, no snapshot, no latency regression — with, by
  construction, the same result and the same counter totals.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Optional

from repro.bloom.vertex_filters import width_for_max_degree
from repro.core.counters import SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.result import SkylineResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition
from repro.parallel.chunks import chunk_ranges, default_chunk_size
from repro.parallel.params import validate_pool_params
from repro.parallel.session import session_for_call
from repro.parallel.shm import shm_available
from repro.parallel.supervisor import DEFAULT_MAX_RETRIES
from repro.parallel.worker import (
    build_state,
    publish_refine_spec,
    run_status_chunk,
    run_witness_chunk,
    status_chunk,
    validate_status_chunk,
    validate_witness_chunk,
    witness_chunk,
)

from repro.harness.faults import FaultPlan

__all__ = ["parallel_refine_sky", "default_worker_count", "SMALL_GRAPH_EDGES"]

#: Below this many edges the pool overhead dwarfs the refine itself, so
#: the engine stays in-process regardless of ``workers``.
SMALL_GRAPH_EDGES = 2048


def default_worker_count() -> int:
    """Usable CPUs of this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def parallel_refine_sky(
    graph: Graph,
    *,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
    bloom_bits: Optional[int] = None,
    bits_per_element: int = 8,
    seed: int = 0,
    counters: Optional[SkylineCounters] = None,
    exact: bool = True,
    refine: str = "bloom",
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan: Optional[FaultPlan] = None,
    session=None,
) -> SkylineResult:
    """Compute the neighborhood skyline with a parallel refine phase.

    Parameters
    ----------
    graph:
        The input graph.
    workers:
        Worker processes for the refine phase; ``None`` uses every
        usable CPU.  ``1`` runs in-process.
    chunk_size:
        Candidates per task; ``None`` targets a few chunks per worker.
        Purely a scheduling knob — any value yields the same result.
    small_graph_edges:
        In-process threshold: graphs with fewer edges never pay for a
        pool.  Pass ``0`` to force pooling (tests do).
    bloom_bits / bits_per_element / seed:
        Bloom sizing, as in :func:`~repro.core.filter_refine.filter_refine_sky`.
    counters:
        Optional instrumentation sink; worker tallies are merged in.
    exact:
        Must be ``True``.  The approximate variant is sequential-only:
        its one-sided bloom errors are not transitive, so the
        dominated-dominator skips it rides on are schedule-dependent
        and a parallel run could return a different subset.
    refine:
        Pair-test kernel for the scans: ``"bloom"`` (the default bloom
        ladder of Algorithm 3) or ``"block"`` (the block-vectorized
        counting kernel of :mod:`repro.core.block_refine`; the parent
        peels the k-core decomposition once and ships the core
        numbers).  Both kernels accept exactly the same pairs, so the
        result is identical whichever runs; counters differ per kernel
        but remain deterministic for any worker count and chunking.
    timeout / max_retries:
        Recovery policy of the :class:`~repro.parallel.supervisor.
        PoolSupervisor` every pooled run now executes under: per-chunk
        deadline in seconds (``None`` uses the supervisor default) and
        pool re-attempts per chunk before the supervisor recomputes the
        chunk sequentially in-process.  Recovery never changes the
        result — only where a chunk runs — and every recovery event is
        recorded under ``counters.extra["resilience_*"]``.
    fault_plan:
        Deterministic fault injection for chaos tests
        (:class:`~repro.harness.faults.FaultPlan`); ``None`` (the
        default, and the only sane production value) injects nothing.
        Ignored on the in-process path, which has no workers to break.
    session:
        A warm :class:`~repro.parallel.session.EngineSession` for this
        same graph: the call reuses its pool and published segments
        instead of forking/publishing per call, and records
        ``counters.extra["parallel_session"]`` (``"cold"`` for the
        session's first pooled call, ``"warm"`` after).  The session's
        scheduling knobs (``workers`` / ``timeout`` / ``max_retries`` /
        ``fault_plan``) are authoritative; passing a conflicting value
        here raises :class:`~repro.errors.ParameterError`.  Without one,
        a pooled call runs on a throwaway session closed before the
        call returns.

    Pooled calls publish the CSR arrays, candidate ids, dominators and
    core numbers as named shared-memory segments
    (:mod:`repro.parallel.shm`); workers attach them zero-copy and
    rebuild only per-process scratch.  The publish time lands in
    ``counters.extra["plane_publish_s"]``.

    The result's ``skyline``/``dominator``/``candidates`` are identical
    to the sequential ``filter_refine_sky`` for any worker count, with
    or without a session — and, with supervision, for any combination
    of worker crashes, hangs and corrupt payloads.
    """
    if not exact:
        raise ParameterError(
            "the parallel engine computes the exact skyline only; use "
            "algorithm='filter_refine' with exact=False for the "
            "approximate variant"
        )
    if refine not in ("bloom", "block"):
        raise ParameterError(
            f"unknown refine kernel {refine!r}; choose 'bloom' or 'block'"
        )
    if session is not None:
        workers, chunk_size = session.bind_call(
            graph,
            workers=workers,
            chunk_size=chunk_size,
            timeout=timeout,
            max_retries=max_retries,
            fault_plan=fault_plan,
        )
    if workers is None:
        workers = default_worker_count()
    validate_pool_params(
        workers=workers,
        chunk_size=chunk_size,
        timeout=timeout,
        max_retries=max_retries,
    )
    if bloom_bits is None:
        dmax = max(graph.degrees(), default=0)
        bits = width_for_max_degree(dmax, bits_per_element)
    elif bloom_bits <= 0 or bloom_bits % 32 != 0:
        raise ParameterError(
            f"bloom width must be a positive multiple of 32, got {bloom_bits}"
        )
    else:
        bits = bloom_bits

    n = graph.num_vertices
    candidates, dominator = filter_phase(graph, counters=counters)

    # Block mode: peel the k-core decomposition once, parent-side; it
    # rides to workers like any other call-scoped snapshot.
    cores = core_decomposition(graph).core if refine == "block" else None

    size = chunk_size or default_chunk_size(len(candidates), workers)
    status_tasks = chunk_ranges(len(candidates), size)
    use_pool = (
        workers > 1
        and graph.num_edges >= small_graph_edges
        and shm_available()
    )

    chunk_dicts: list[dict] = []
    resilience_events: Optional[dict[str, int]] = None
    session_label: Optional[str] = None
    plane_publish_s: Optional[float] = None
    if use_pool:
        # The guaranteed sequential fallback: an in-process RefineState
        # built lazily, only if a chunk actually exhausts its retries.
        # Scans are pure functions of frozen state, so recomputing any
        # chunk here yields exactly the value the worker would have.
        _fb: list = []

        def _fallback_state():
            if not _fb:
                _fb.append(
                    build_state(
                        graph,
                        candidates,
                        dominator,
                        bits=bits,
                        seed=seed,
                        refine=refine,
                        cores=cores,
                    )
                )
            return _fb[0]

        with session_for_call(
            session,
            graph,
            workers=workers,
            timeout=timeout,
            max_retries=max_retries,
            fault_plan=fault_plan,
            seed=seed,
        ) as pool_session:
            # The graph CSR lives in named segments workers attach
            # zero-copy; call-scoped data (candidates, dominators, core
            # numbers) ships the same way, so each task is a
            # few-hundred-byte spec.
            publish_t0 = time.perf_counter()
            supervisor = pool_session.supervisor()
            if session is not None:
                session_label = session.note_pooled_call()
            spec = publish_refine_spec(
                pool_session,
                candidates,
                dominator,
                bits=bits,
                seed=seed,
                refine=refine,
                cores=cores,
            )
            plane_publish_s = time.perf_counter() - publish_t0
            # A session supervisor accumulates events across calls;
            # this call's resilience tally is the delta.
            events_before = dict(supervisor.events)
            dom_blob_ref = None
            try:
                dominated: list[int] = []
                for part, stats in supervisor.run(
                    run_status_chunk,
                    [(spec, lo, hi) for lo, hi in status_tasks],
                    fallback=lambda task: status_chunk(
                        _fallback_state(), task[1], task[2]
                    ),
                    validate=validate_status_chunk,
                ):
                    dominated.extend(part)
                    chunk_dicts.append(stats)
                # The dominated list is born here, between the passes —
                # always a fresh per-call segment, never cached.
                dom_blob_ref = pool_session.plane.publish(
                    array("q", dominated), "q"
                )
                witness_pairs: list[tuple[int, int]] = []
                for part, stats in supervisor.run(
                    run_witness_chunk,
                    [
                        (spec, lo, hi, dom_blob_ref)
                        for lo, hi in chunk_ranges(len(dominated), size)
                    ],
                    fallback=lambda task: witness_chunk(
                        _fallback_state(), dominated, task[1], task[2]
                    ),
                    validate=validate_witness_chunk,
                ):
                    witness_pairs.extend(part)
                    chunk_dicts.append(stats)
            finally:
                # The pool and cached segments stay warm for the next
                # call; only the per-call dominated blob is retired.
                if dom_blob_ref is not None:
                    pool_session.plane.unlink_one(dom_blob_ref)
            resilience_events = {
                key: value - events_before.get(key, 0)
                for key, value in supervisor.events.items()
            }
    else:
        state = build_state(
            graph,
            candidates,
            dominator,
            bits=bits,
            seed=seed,
            refine=refine,
            cores=cores,
        )
        dominated = []
        for lo, hi in status_tasks:
            part, stats = status_chunk(state, lo, hi)
            dominated.extend(part)
            chunk_dicts.append(stats)
        witness_pairs = []
        for lo, hi in chunk_ranges(len(dominated), size):
            part, stats = witness_chunk(state, dominated, lo, hi)
            witness_pairs.extend(part)
            chunk_dicts.append(stats)

    final = list(dominator)
    for u, w in witness_pairs:
        final[u] = w

    if counters is not None:
        for delta in chunk_dicts:
            counters.merge_dict(delta)
        counters.extra["parallel_mode"] = "pool" if use_pool else "in-process"
        counters.extra["parallel_workers"] = workers
        counters.extra["parallel_chunks"] = len(status_tasks)
        counters.extra["parallel_rescans"] = len(dominated)
        if use_pool:
            counters.extra["plane_publish_s"] = plane_publish_s
            if session_label is not None:
                counters.extra["parallel_session"] = session_label
        if resilience_events is not None:
            for key, value in resilience_events.items():
                counters.extra[key] = counters.extra.get(key, 0) + value
        counters.extra["refine_path"] = refine
        if refine == "block":
            # The chunk merges already accumulated the pretest tally;
            # pin the key even when no pair was ever rejected.
            counters.extra.setdefault("core_pretest_rejects", 0)

    skyline = tuple(u for u in range(n) if final[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(final),
        candidates=tuple(candidates),
        algorithm="FilterRefineSkyParallel",
        counters=counters,
    )
