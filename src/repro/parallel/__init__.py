"""Parallel execution engines.

:func:`~repro.parallel.engine.parallel_refine_sky` parallelizes the
skyline refine phase; it is registered as
``algorithm="filter_refine_parallel"`` with
:func:`repro.core.api.neighborhood_skyline` and behind the CLI's
``--workers`` flag.  :mod:`repro.parallel.greedy_worker` is the worker
side of the lazy greedy engine's round-0 fan-out
(:func:`repro.centrality.lazy_greedy.lazy_greedy_maximize`).

Graph-scale data reaches workers as named shared-memory segments
(:mod:`repro.parallel.shm`) that they attach zero-copy.  Every pooled
call runs on an :class:`~repro.parallel.session.EngineSession`: a
caller's session keeps one pool plus the published segments warm
across many calls on the same graph, and a one-shot call gets a
throwaway session closed before it returns.  Where shared memory is
unusable the engines run in-process, with the identical result.
"""

from repro.parallel.chunks import chunk_ranges, default_chunk_size
from repro.parallel.engine import (
    SMALL_GRAPH_EDGES,
    default_worker_count,
    parallel_refine_sky,
)
from repro.parallel.greedy_worker import init_greedy_worker, run_gain_chunk
from repro.parallel.params import validate_pool_params
from repro.parallel.session import EngineSession
from repro.parallel.shm import (
    SegmentRef,
    ShmDataPlane,
    attach_view,
    live_segment_names,
    shm_available,
)
from repro.parallel.supervisor import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_TIMEOUT,
    PoolSupervisor,
    SupervisorConfig,
)

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_TIMEOUT",
    "SMALL_GRAPH_EDGES",
    "EngineSession",
    "PoolSupervisor",
    "SegmentRef",
    "ShmDataPlane",
    "SupervisorConfig",
    "attach_view",
    "chunk_ranges",
    "default_chunk_size",
    "default_worker_count",
    "live_segment_names",
    "parallel_refine_sky",
    "init_greedy_worker",
    "run_gain_chunk",
    "shm_available",
    "validate_pool_params",
]
