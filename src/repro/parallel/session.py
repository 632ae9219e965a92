"""Warm engine sessions: one pool + one published graph, many calls.

A pooled call pays pool fork + graph publish before its first chunk
runs.  For a serving loop — many skyline/greedy requests against the
same immutable graph — that setup dwarfs the dispatch.  An
:class:`EngineSession` amortizes it: on its first pooled call it
publishes the graph's CSR arrays as shared-memory segments
(:class:`~repro.parallel.shm.ShmDataPlane`), forks one supervised pool
whose initializer merely *attaches* them, and keeps both alive across
calls.  Call-scoped data (candidates, dominators, greedy pools) is
published into digest-keyed cached segments, so a repeated call ships
only a spec of a few hundred bytes per chunk and hits the workers'
state cache outright — the first call pays publish + fork, later calls
pay chunk dispatch.

The session is also the engines' only pooled path: a one-shot pooled
call (no ``session=``) runs on a throwaway session that
:func:`session_for_call` closes when the call returns.  Nothing is
published or forked until a call actually pools, so a ``workers=1``
session never touches shared memory; on a host where no segment can be
created (:func:`~repro.parallel.shm.shm_available` is false) the
engines run their in-process path instead.

Sessions compose with the fault story unchanged: the pool is a
:class:`~repro.parallel.supervisor.PoolSupervisor`, a crashed pool is
rebuilt with the same initargs (workers re-attach by name), and the
session's finalizing plane unlinks every segment exactly once even on
Ctrl-C or :class:`~repro.errors.RecoveryError` unwinds.

    with EngineSession(graph, workers=4) as session:
        for request in requests:
            result = session.refine_sky()          # warm after call 1
            group = session.greedy_maximize(8, objective)

Thread safety: none, except that :meth:`EngineSession.close` may run on
another thread.  A session is a single-caller object, like the engines
it fronts.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import contextmanager
from hashlib import blake2b
from typing import Optional

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.parallel.params import validate_pool_params
from repro.parallel.shm import SegmentRef, ShmDataPlane, buffer_typecode
from repro.parallel.supervisor import (
    DEFAULT_MAX_RETRIES,
    PoolSupervisor,
    SupervisorConfig,
)

__all__ = ["EngineSession", "pool_context", "session_for_call"]

#: Cached call-scoped segments per session.  Bounds a long-lived session
#: serving many distinct candidate pools; eviction is oldest-first and
#: unlinks the segment (workers still holding the old mapping keep the
#: memory alive until they rotate their own state cache).
_MAX_CACHED_SEGMENTS = 16


def pool_context():
    """The multiprocessing context for worker pools.

    fork shares the parent's code pages and skips re-imports; spawn is
    the portable fallback (worker entry points are module-level).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _session_worker_init(graph_refs: dict) -> None:
    """Initializer of a session pool: arm *both* worker modules.

    One warm pool serves refine chunks and greedy round-0 chunks alike
    (the refine→greedy reuse pattern), so both modules attach the same
    graph segments — the per-process attachment cache maps each name
    once.  Module-level so it pickles under any start method.
    """
    from repro.parallel.greedy_worker import init_greedy_worker
    from repro.parallel.worker import init_worker

    init_worker(graph_refs)
    init_greedy_worker(graph_refs)


class EngineSession:
    """Owns a warm worker pool + published segments for one graph.

    Parameters mirror the pooled engines' scheduling knobs and are
    fixed for the session's lifetime — per-call overrides that conflict
    raise :class:`~repro.errors.ParameterError` rather than silently
    rebuilding the pool (:meth:`bind_call`).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        timeout: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        fault_plan=None,
        seed: int = 0,
    ):
        if workers is None:
            from repro.parallel.engine import default_worker_count

            workers = default_worker_count()
        validate_pool_params(
            workers=workers,
            chunk_size=chunk_size,
            timeout=timeout,
            max_retries=max_retries,
        )
        self.graph = graph
        self.workers = workers
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.seed = seed
        #: Created on the first publish (:meth:`_ensure_plane`).
        self._plane: Optional[ShmDataPlane] = None
        self._graph_refs: Optional[dict] = None
        self._supervisor: Optional[PoolSupervisor] = None
        self._seg_cache: dict[tuple, SegmentRef] = {}
        self._pooled_calls = 0
        self._closed = False
        self._close_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def check_open(self) -> None:
        """Raise :class:`ParameterError` on use after :meth:`close`."""
        if self._closed:
            raise ParameterError(
                "this EngineSession is closed; create a new one (its "
                "pool and shared-memory segments are gone)"
            )

    def close(self) -> None:
        """Shut the pool down and unlink every segment.  Idempotent.

        Hardened for the serving teardown paths: safe to call from a
        different thread than the one running a pooled call (the
        supervisor kills its pool; the in-flight call surfaces an
        error, never a leak), re-entrant under races (a lock makes the
        closed-flag flip atomic), and exception-safe — segment unlink
        runs even if the pool teardown raises, so an atexit or asyncio
        cancellation unwind never strands ``/dev/shm`` residue.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            supervisor, self._supervisor = self._supervisor, None
            plane = self._plane
        try:
            if supervisor is not None:
                supervisor.shutdown()
        finally:
            self._seg_cache.clear()
            if plane is not None:
                plane.close()

    def __enter__(self) -> "EngineSession":
        self.check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"EngineSession(workers={self.workers}, {state})"

    def bind_call(
        self,
        graph: Graph,
        *,
        workers,
        chunk_size: Optional[int],
        timeout: Optional[float],
        max_retries: int,
        fault_plan,
        unset_workers=None,
    ) -> tuple[int, Optional[int]]:
        """Check one engine call's knobs against the session's.

        The session's scheduling knobs are authoritative.  A call may
        repeat them or leave them at the engine's default —
        ``workers == unset_workers``, ``chunk_size=None``,
        ``timeout=None``, ``max_retries=DEFAULT_MAX_RETRIES`` — and
        anything else raises :class:`~repro.errors.ParameterError`, as
        does a call for a different graph or a per-call ``fault_plan``.
        Returns the call's effective ``(workers, chunk_size)``.
        """
        self.check_open()
        if graph is not self.graph:
            raise ParameterError(
                "this EngineSession was created for a different graph; "
                "sessions pin one published graph snapshot"
            )
        if workers != unset_workers and workers != self.workers:
            raise ParameterError(
                f"workers={workers} conflicts with the session's "
                f"{self.workers}; the pool size is fixed at session "
                "construction"
            )
        if fault_plan is not None:
            raise ParameterError(
                "fault_plan is fixed at session construction; pass it "
                "to EngineSession instead"
            )
        if timeout is not None and timeout != self.timeout:
            raise ParameterError(
                f"timeout={timeout} conflicts with the session's "
                f"{self.timeout}; the supervisor config is fixed at "
                "session construction"
            )
        if max_retries not in (self.max_retries, DEFAULT_MAX_RETRIES):
            raise ParameterError(
                f"max_retries={max_retries} conflicts with the "
                f"session's {self.max_retries}"
            )
        return self.workers, (
            self.chunk_size if chunk_size is None else chunk_size
        )

    # -- shm machinery (engine-facing) ---------------------------------
    @property
    def plane(self) -> Optional[ShmDataPlane]:
        """The session's segment owner; ``None`` until the first publish."""
        return self._plane

    def _ensure_plane(self) -> ShmDataPlane:
        # Under the close lock: a close() racing the first publish
        # either sees the new plane or stops it from being created.
        with self._close_lock:
            self.check_open()
            if self._plane is None:
                self._plane = ShmDataPlane()
            return self._plane

    def graph_refs(self) -> dict:
        """Publish the graph CSR once; return its segment refs.

        Publication is atomic: either both segments are published and
        the refs recorded, or — on a mid-publish failure — the partial
        segment is unlinked before the exception propagates, so a
        rebuild loop retrying a failed session never accumulates
        orphaned ``/dev/shm`` segments.
        """
        plane = self._ensure_plane()
        if self._graph_refs is None:
            indptr, indices = self.graph.to_csr()  # memoized on the graph
            refs: dict[str, SegmentRef] = {}
            try:
                refs["indptr"] = plane.publish(
                    indptr, buffer_typecode(indptr)
                )
                refs["indices"] = plane.publish(
                    indices, buffer_typecode(indices)
                )
            except BaseException:
                for ref in refs.values():
                    plane.unlink_one(ref)
                raise
            self._graph_refs = refs
        return self._graph_refs

    def supervisor(self) -> PoolSupervisor:
        """The warm pool supervisor, created on first use."""
        self.check_open()
        if self._supervisor is None:
            self._supervisor = PoolSupervisor(
                workers=self.workers,
                initializer=_session_worker_init,
                initargs=(self.graph_refs(),),
                config=SupervisorConfig(
                    timeout=self.timeout,
                    max_retries=self.max_retries,
                    seed=self.seed,
                ),
                fault_plan=self.fault_plan,
                mp_context=pool_context(),
            )
        return self._supervisor

    def cached_segment(self, kind: str, data, typecode: str) -> SegmentRef:
        """A published segment for ``data``, deduplicated by content.

        Identical content (same ``kind``/bytes) returns the *same*
        segment ref across calls — that name stability is what lets the
        workers' spec-keyed state cache recognize a repeated call.  The
        cache is bounded; the oldest entry is unlinked when it overflows.
        """
        plane = self._ensure_plane()
        mv = memoryview(data)
        if mv.format != "B":
            mv = mv.cast("B")
        digest = blake2b(mv, digest_size=16).digest()
        key = (kind, typecode, digest)
        ref = self._seg_cache.get(key)
        if ref is None:
            ref = plane.publish(mv, typecode)
            self._seg_cache[key] = ref
            while len(self._seg_cache) > _MAX_CACHED_SEGMENTS:
                oldest = next(iter(self._seg_cache))
                plane.unlink_one(self._seg_cache.pop(oldest))
        return ref

    def note_pooled_call(self) -> str:
        """``"cold"`` for the session's first pooled call, ``"warm"`` after."""
        label = "warm" if self._pooled_calls else "cold"
        self._pooled_calls += 1
        return label

    # -- convenience entry points --------------------------------------
    def refine_sky(self, **options):
        """``parallel_refine_sky(graph, session=self, **options)``."""
        from repro.parallel.engine import parallel_refine_sky

        return parallel_refine_sky(self.graph, session=self, **options)

    def greedy_maximize(self, k: int, objective, **options):
        """``lazy_greedy_maximize(graph, k, objective, session=self, ...)``."""
        from repro.centrality.lazy_greedy import lazy_greedy_maximize

        return lazy_greedy_maximize(
            self.graph, k, objective, session=self, **options
        )


@contextmanager
def session_for_call(session: Optional[EngineSession], graph: Graph, **knobs):
    """Yield ``session``, or a throwaway one closed when the block exits.

    The pooled engines' single pooled path: a one-shot call (no
    ``session=``) runs on a fresh :class:`EngineSession` built from
    ``knobs`` whose pool and segments are torn down on every exit path
    (``RecoveryError``, Ctrl-C, ...); a caller's session is used as is
    and stays warm.
    """
    if session is not None:
        yield session
        return
    throwaway = EngineSession(graph, **knobs)
    try:
        yield throwaway
    finally:
        throwaway.close()
