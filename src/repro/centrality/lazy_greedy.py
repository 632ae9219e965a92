"""Lazy-greedy (CELF) driver for group-centrality maximization.

Same contract as :func:`repro.centrality.greedy.greedy_maximize` — same
group, same gains, same tie-breaks, bit for bit — with three stacked
optimizations:

1. **Lazy evaluation.**  Marginal gains along the greedy chain are
   non-increasing for both bundled objectives (see
   ``docs/algorithms.md``), so a gain computed in an earlier round is an
   *upper bound* on the candidate's current gain.  The driver keeps a
   max-heap of ``(-gain, vertex, round_tag)`` entries; each round it
   pops the top, re-evaluates it if the tag is stale, pushes it back,
   and stops as soon as the top entry is fresh — every candidate left in
   the heap is bounded above by the winner's exact gain, so it cannot
   win, and most are never re-evaluated at all.  Tie-breaks survive
   because the heap orders equal gains by ascending vertex ID, which is
   exactly the eager scan's first-strict-maximum rule.

2. **CSR kernels.**  Evaluations run on a
   :class:`~repro.paths.csr.CSRTraversal` — flat-array truncated BFS
   with preallocated scratch reused across the whole run — instead of
   the per-call generator machinery of :mod:`repro.paths.truncated`.

3. **Parallel round 0.**  With an empty group every candidate costs a
   full BFS, which is the bulk of a run's work and embarrassingly
   parallel; ``workers > 1`` fans the first round over a process pool in
   chunks (workers attach one shared-memory CSR snapshot, gains return
   as flat arrays), then rounds ``1..k`` run lazily in-process.  Workers
   run the same kernels on the same snapshot, so the gains — and
   therefore the result — are bitwise independent of worker count and
   chunking.

4. **Batched lanes** (``gain_batch``).  Evaluations run ``B`` sources
   per vectorized kernel pass (:meth:`~repro.paths.csr.CSRTraversal.
   _batch_scan`) instead of one Python-level BFS per call.  Round 0
   scores the scope in blocks of ``B``; the CELF drain batches
   *speculatively*: when a stale pop needs a re-score, the kernel also
   scores the next ``B-1`` stale heap entries (the likeliest next pops)
   into a round-local cache, and each later stale pop is served from
   that cache.  The heap itself is driven by the exact scalar pop/push
   sequence — stale bounds are never replaced speculatively, and
   ``evaluations`` is charged per *consumed* pop only — so selections,
   gains, ``evaluations`` and ``evaluations_saved`` are bit-for-bit
   identical for every batch size.  Speculative work is visible in
   ``counters.extra``: ``batch_rounds`` (kernel dispatches),
   ``lanes_evaluated`` (total lanes scored) and
   ``lanes_short_circuited`` (speculative lanes the drain never
   consumed — wasted, bounded by ``B-1`` per round).

``evaluations`` counts gain evaluations actually performed;
``evaluations_saved`` is the eager schedule's count over the same pool
minus that, so ``evaluations + evaluations_saved`` always equals the
eager driver's ``evaluations`` for the same inputs.  (The one uncounted
traversal: after a pooled or batched round 0 the winner's update list is
re-derived in-process — eager already charged that candidate's
evaluation, and the recomputation is one BFS against the whole round's
fan-out.)
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

import numpy as _np

from repro.centrality.greedy import GainObjective, GreedyResult, greedy_maximize
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.parallel.engine import SMALL_GRAPH_EDGES
from repro.parallel.supervisor import DEFAULT_MAX_RETRIES
from repro.paths.csr import (
    CSRTraversal,
    make_batch_evaluator,
    make_evaluator,
    resolve_gain_batch,
)

__all__ = ["lazy_greedy_maximize", "run_greedy"]


def _pooled_round0(
    graph: Graph,
    objective: GainObjective,
    scope: list[int],
    workers: int,
    chunk_size: Optional[int],
    timeout: Optional[float],
    max_retries: int,
    fault_plan,
    extra: Optional[dict],
    session=None,
    batch: int = 1,
) -> list[float]:
    """Round-0 gains of ``scope``, fanned over a supervised worker pool.

    Runs under the :class:`~repro.parallel.supervisor.PoolSupervisor`:
    crashed/hung/corrupt workers are retried and, past the retry
    budget, their chunks are recomputed sequentially in-process on a
    state built from the same graph — the gains are bitwise identical
    either way, so recovery never changes the group.  Workers attach
    the published CSR and pool segments, and each task carries a
    :class:`~repro.parallel.greedy_worker.GreedySpec`.  A ``session``
    supplies a warm pool and cached segments; without one the call runs
    on a throwaway session.  ``batch`` is the gain-batch lane count
    workers use inside each chunk — gains are bitwise identical for any
    value, so it is purely a worker-side execution knob.

    ``extra`` (a ``counters.extra`` dict, or ``None``) receives this
    call's recovery-event deltas, publish time and (with a caller's
    session) the cold/warm label.
    """
    import time as _time
    from array import array
    from hashlib import blake2b
    from pickle import dumps as _dumps

    from repro.parallel.chunks import chunk_ranges, default_chunk_size
    from repro.parallel.greedy_worker import (
        GreedySpec,
        build_greedy_state,
        gain_chunk,
        run_gain_chunk,
        validate_gain_chunk,
    )
    from repro.parallel.session import session_for_call

    size = chunk_size or default_chunk_size(len(scope), workers)
    tasks = chunk_ranges(len(scope), size)
    session_label = None

    _fb: list = []

    def _fallback_state():
        if not _fb:
            _fb.append(build_greedy_state(graph, objective, scope, batch))
        return _fb[0]

    with session_for_call(
        session,
        graph,
        workers=workers,
        timeout=timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
    ) as pool_session:
        publish_t0 = _time.perf_counter()
        supervisor = pool_session.supervisor()
        if session is not None:
            session_label = session.note_pooled_call()
        pool_ref = pool_session.cached_segment(
            "gpool", array("q", scope), "q"
        )
        # The key must distinguish objectives as well as scopes; the
        # bundled objectives are tiny scalar-holders, so their pickle
        # bytes are a stable identity.
        obj_tag = blake2b(_dumps(objective), digest_size=8).hexdigest()
        spec = GreedySpec(
            key=(pool_ref.name, obj_tag, batch),
            objective=objective,
            pool=pool_ref,
            batch=batch,
        )
        plane_publish_s = _time.perf_counter() - publish_t0
        events_before = dict(supervisor.events)
        parts = supervisor.run(
            run_gain_chunk,
            [(spec, lo, hi) for lo, hi in tasks],
            fallback=lambda task: gain_chunk(
                _fallback_state(), task[1], task[2]
            ),
            validate=validate_gain_chunk,
        )
        events = {
            key: value - events_before.get(key, 0)
            for key, value in supervisor.events.items()
        }
    if extra is not None:
        for key, value in events.items():
            extra[key] = extra.get(key, 0) + value
        if session_label is not None:
            extra["parallel_session"] = session_label
        extra["plane_publish_s"] = plane_publish_s
    gains: list[float] = []
    for part in parts:
        gains.extend(part)
    return gains


def lazy_greedy_maximize(
    graph: Graph,
    k: int,
    objective: GainObjective,
    *,
    candidates: Optional[Iterable[int]] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan=None,
    counters=None,
    session=None,
    gain_batch="auto",
) -> GreedyResult:
    """CELF-style greedy maximization; output equals ``greedy_maximize``.

    Parameters beyond the eager driver's:

    workers:
        Worker processes for the round-0 fan-out; ``1`` (the default)
        stays in-process, as does any count on a host without usable
        shared memory.  Any value yields the identical result.
    chunk_size:
        Candidates per round-0 task; ``None`` targets a few chunks per
        worker.  Purely a scheduling knob.
    small_graph_edges:
        In-process threshold: graphs with fewer edges never pay for a
        pool.  Pass ``0`` to force pooling (tests do).
    timeout / max_retries / fault_plan:
        Supervisor recovery policy and chaos injection for the round-0
        pool, as in :func:`~repro.parallel.engine.parallel_refine_sky`.
        None of them can change the result.
    counters:
        Optional :class:`~repro.core.counters.SkylineCounters`; a
        pooled round 0 records its recovery events under
        ``counters.extra["resilience_*"]`` and its segment publish time
        under ``counters.extra["plane_publish_s"]``.  With
        ``workers > 1``, ``counters.extra["parallel_mode"]`` says
        whether round 0 ran on the pool (``"pool"``) or in-process.
    session:
        A warm :class:`~repro.parallel.session.EngineSession` for this
        graph; the round-0 fan-out reuses its pool and published
        segments.  The session's scheduling knobs are authoritative —
        conflicting per-call values raise
        :class:`~repro.errors.ParameterError` (``workers=1``, this
        driver's default, defers to the session's count).
    gain_batch:
        Marginal-gain lanes per batched kernel call (``"auto"``, the
        default, sizes from ``n`` and the pool;
        :func:`~repro.paths.csr.resolve_gain_batch`).  Purely an
        execution knob: the batched drain replays the scalar CELF
        pop/push sequence exactly, so the group, gains, tie-breaks,
        ``evaluations`` and ``evaluations_saved`` are identical for
        every value.  Batch telemetry lands in ``counters.extra``
        (``gain_batch`` / ``batch_rounds`` / ``lanes_evaluated`` /
        ``lanes_short_circuited``).
    """
    from repro.parallel.params import validate_pool_params
    from repro.parallel.shm import shm_available

    if k < 0:
        raise ParameterError(f"group size k must be >= 0, got {k}")
    if session is not None:
        workers, chunk_size = session.bind_call(
            graph,
            workers=workers,
            chunk_size=chunk_size,
            timeout=timeout,
            max_retries=max_retries,
            fault_plan=fault_plan,
            unset_workers=1,
        )
    validate_pool_params(
        workers=workers,
        chunk_size=chunk_size,
        timeout=timeout,
        max_retries=max_retries,
    )
    n = graph.num_vertices
    k = min(k, n)
    if candidates is None:
        pool = list(range(n))
    else:
        pool = sorted(set(candidates))
        for u in pool:
            if not (0 <= u < n):
                raise ParameterError(f"candidate {u} out of range")

    in_group = bytearray(n)
    dist = [-1] * n  # d(v, S); -1 = infinity while S is empty
    group: list[int] = []
    gains: list[float] = []
    evaluations = 0
    eager_evaluations = 0  # what the eager schedule would have spent
    trav = CSRTraversal.from_graph(graph)
    evaluate = make_evaluator(trav, objective)
    batch = resolve_gain_batch(gain_batch, n, len(pool))
    batch_evaluate = (
        make_batch_evaluator(trav, objective) if batch > 1 else None
    )
    if batch_evaluate is None:
        batch = 1
    # The batched kernel indexes the committed distances vectorized, so
    # the batch path maintains an int32 ndarray mirror of `dist` (the
    # scalar kernels keep the list: per-element list access is faster
    # for the one-off winner re-derivations).
    dist_nd = _np.full(n, -1, dtype=_np.int32) if batch > 1 else None
    batch_rounds = 0
    lanes_evaluated = 0
    lanes_short_circuited = 0
    pooled = False
    #: CELF heap of (-cached_gain, vertex, round_tag); each not-yet-
    #: chosen candidate appears exactly once.  A tag older than the
    #: current round marks the cached gain as a stale upper bound.
    heap: list[tuple[float, int, int]] = []

    for round_no in range(k):
        best_updates: Optional[list[tuple[int, int]]] = None
        if not heap:
            # (Re)build: first round, or the pool ran dry last round —
            # mirror the eager driver's fallback to all of V \ S.
            scope = [u for u in pool if not in_group[u]]
            if not scope:
                scope = [u for u in range(n) if not in_group[u]]
                if not scope:
                    break
            eager_evaluations += len(scope)
            evaluations += len(scope)
            use_pool = (
                round_no == 0
                and workers > 1
                and len(scope) > 1
                and graph.num_edges >= small_graph_edges
                and shm_available()
            )
            if use_pool:
                pooled = True
                gain_vec = _pooled_round0(
                    graph,
                    objective,
                    scope,
                    workers,
                    chunk_size,
                    timeout,
                    max_retries,
                    fault_plan,
                    None if counters is None else counters.extra,
                    session=session,
                    batch=batch,
                )
                # max() keeps the first maximum: smallest-ID tie-break.
                best_idx = max(
                    range(len(scope)), key=gain_vec.__getitem__
                )
                entries = list(zip(scope, gain_vec))
                if batch > 1:
                    batch_rounds += -(-len(scope) // batch)
                    lanes_evaluated += len(scope)
            elif batch > 1:
                # Batched scope scan: gains only; the winner's update
                # list is re-derived below (uncounted), like the pooled
                # path.  max() keeps the first maximum: same tie-break.
                gain_vec = []
                for lo in range(0, len(scope), batch):
                    lane = scope[lo : lo + batch]
                    gain_vec.extend(
                        g for g, _none in batch_evaluate(
                            lane, dist_nd, False
                        )
                    )
                    batch_rounds += 1
                lanes_evaluated += len(scope)
                best_idx = max(
                    range(len(scope)), key=gain_vec.__getitem__
                )
                entries = list(zip(scope, gain_vec))
            else:
                best_idx = -1
                best_gain = float("-inf")
                entries = []
                for u in scope:
                    gain, updates = evaluate(u, dist, True)
                    if gain > best_gain:
                        best_gain = gain
                        best_idx = len(entries)
                        best_updates = updates
                    entries.append((u, gain))
            best_u, best_gain = entries[best_idx]
            heap = [
                (-gain, u, round_no)
                for i, (u, gain) in enumerate(entries)
                if i != best_idx
            ]
            heapq.heapify(heap)
        elif batch > 1:
            # Batched CELF drain.  The heap evolution below is the
            # scalar drain's, verbatim: stale bounds are popped in the
            # same order, re-scored values pushed back one at a time,
            # and `evaluations` charged per consumed pop.  The batching
            # is purely speculative — a cache miss scores the popped
            # candidate *plus* the next B-1 stale uncached heap entries
            # (the likeliest next pops) in one kernel pass, and later
            # pops are served from the round-local cache.  Gains cached
            # mid-round stay valid because `dist` only changes at the
            # commit, after the drain.  Lanes ship gains only
            # (collect=False) — update lists for speculative lanes
            # would be wasted materialization — so the winner's updates
            # are re-derived below, like the pooled round 0's.
            eager_evaluations += len(heap)
            round_cache: dict[int, float] = {}
            while True:
                neg_gain, u, tag = heapq.heappop(heap)
                if tag == round_no:
                    best_u = u
                    best_gain = -neg_gain
                    break
                gain = round_cache.pop(u, None)
                if gain is None:
                    lane = [u]
                    for _ng, v, t in heapq.nsmallest(batch - 1, heap):
                        if t != round_no and v not in round_cache:
                            lane.append(v)
                    results = batch_evaluate(lane, dist_nd, False)
                    batch_rounds += 1
                    lanes_evaluated += len(lane)
                    for v, (g, _none) in zip(lane, results):
                        round_cache[v] = g
                    gain = round_cache.pop(u)
                evaluations += 1
                heapq.heappush(heap, (-gain, u, round_no))
            lanes_short_circuited += len(round_cache)
        else:
            # CELF: pop/re-evaluate/re-push until the top is fresh.
            eager_evaluations += len(heap)
            round_updates: dict[int, list[tuple[int, int]]] = {}
            while True:
                neg_gain, u, tag = heapq.heappop(heap)
                if tag == round_no:
                    best_u = u
                    best_gain = -neg_gain
                    best_updates = round_updates[u]
                    break
                gain, updates = evaluate(u, dist, True)
                evaluations += 1
                round_updates[u] = updates
                heapq.heappush(heap, (-gain, u, round_no))

        if best_updates is None:
            # Pooled/batched round 0 ships gains only; re-derive the
            # winner's update list (uncounted: this candidate's
            # evaluation was already charged above).
            _gain, best_updates = evaluate(best_u, dist, True)
        if dist_nd is None:
            for v, new in best_updates:
                dist[v] = new
        else:
            for v, new in best_updates:
                dist[v] = new
                dist_nd[v] = new
        in_group[best_u] = 1
        group.append(best_u)
        gains.append(best_gain)

    if counters is not None:
        extra = counters.extra
        extra["gain_batch"] = batch
        extra["batch_rounds"] = (
            extra.get("batch_rounds", 0) + batch_rounds
        )
        extra["lanes_evaluated"] = (
            extra.get("lanes_evaluated", 0) + lanes_evaluated
        )
        extra["lanes_short_circuited"] = (
            extra.get("lanes_short_circuited", 0) + lanes_short_circuited
        )
        if workers > 1:
            # Why a requested pool did not run shows here: small graph,
            # tiny scope, or no usable shared memory.
            extra["parallel_mode"] = "pool" if pooled else "in-process"
    return GreedyResult(
        group=tuple(group),
        gains=tuple(gains),
        evaluations=evaluations,
        pool_size=len(pool),
        objective=objective.name,
        evaluations_saved=eager_evaluations - evaluations,
        strategy="lazy",
    )


def run_greedy(
    graph: Graph,
    k: int,
    objective: GainObjective,
    *,
    candidates: Optional[Iterable[int]] = None,
    strategy: str = "eager",
    workers: int = 1,
    chunk_size: Optional[int] = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan=None,
    counters=None,
    session=None,
    gain_batch="auto",
) -> GreedyResult:
    """Strategy dispatcher shared by the Base*/NeiSky* entry points.

    ``strategy="eager"`` runs the reference driver; ``"lazy"`` runs the
    CELF engine (identical output).  ``workers`` applies only to the
    lazy strategy's round-0 fan-out — combining it with eager is
    rejected rather than silently ignored — and ``timeout`` /
    ``max_retries`` / ``fault_plan`` / ``counters`` / ``session``
    configure that fan-out's supervisor (see
    :func:`lazy_greedy_maximize`).  ``gain_batch`` sets the
    batched-kernel lane count for either strategy; every value yields
    the identical result.
    """
    if strategy == "eager":
        if workers != 1:
            raise ParameterError(
                "workers apply to the lazy strategy; eager greedy is "
                "sequential by definition"
            )
        if session is not None:
            raise ParameterError(
                "sessions drive the pooled lazy engine; eager greedy "
                "is sequential by definition"
            )
        return greedy_maximize(
            graph, k, objective, candidates=candidates,
            gain_batch=gain_batch,
        )
    if strategy != "lazy":
        raise ParameterError(
            f"unknown greedy strategy {strategy!r}; choose 'eager' or 'lazy'"
        )
    return lazy_greedy_maximize(
        graph,
        k,
        objective,
        candidates=candidates,
        workers=workers,
        chunk_size=chunk_size,
        small_graph_edges=small_graph_edges,
        timeout=timeout,
        max_retries=max_retries,
        fault_plan=fault_plan,
        counters=counters,
        session=session,
        gain_batch=gain_batch,
    )
