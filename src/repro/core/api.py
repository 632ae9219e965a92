"""High-level entry points for neighborhood-skyline computation.

:func:`neighborhood_skyline` is the one function most users need: it
dispatches by name to the five algorithms the paper evaluates and
returns a uniform :class:`~repro.core.result.SkylineResult`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.base_sky import base_sky
from repro.core.block_refine import filter_refine_block_sky
from repro.core.counters import SkylineCounters
from repro.core.cset import base_cset_sky
from repro.core.filter_phase import filter_phase
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.core.naive import naive_skyline
from repro.core.result import SkylineResult
from repro.core.two_hop import base_two_hop_sky
from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = [
    "neighborhood_skyline",
    "neighborhood_candidates",
    "group_centrality_maximize",
    "engine_session",
    "serve",
    "ALGORITHMS",
]


def _parallel_refine_sky(graph: Graph, **options) -> SkylineResult:
    """Deferred dispatch to :func:`repro.parallel.engine.parallel_refine_sky`.

    The engine module imports :mod:`repro.core` internals, so a
    module-level import here would close an import cycle that breaks
    whichever package loads second; binding at call time keeps every
    import order valid.
    """
    from repro.parallel.engine import parallel_refine_sky

    return parallel_refine_sky(graph, **options)


#: Name → implementation for every skyline algorithm in the paper's Exp-1,
#: plus the naive reference and the multi-worker refine engine.
ALGORITHMS: dict[str, Callable[..., SkylineResult]] = {
    "filter_refine": filter_refine_sky,
    "filter_refine_block": filter_refine_block_sky,
    "filter_refine_parallel": _parallel_refine_sky,
    "base": base_sky,
    "two_hop": base_two_hop_sky,
    "cset": base_cset_sky,
    "lc_join": lc_join_sky,
    "naive": naive_skyline,
}


def neighborhood_skyline(
    graph: Graph,
    algorithm: str = "filter_refine",
    *,
    counters: Optional[SkylineCounters] = None,
    **options,
) -> SkylineResult:
    """Compute the neighborhood skyline of ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    algorithm:
        One of ``"filter_refine"`` (the paper's FilterRefineSky — the
        default), ``"filter_refine_block"`` (the same result via the
        block-vectorized counting kernel of
        :mod:`repro.core.block_refine` — for large candidate sets),
        ``"filter_refine_parallel"`` (the same
        result computed with a multi-worker refine phase), ``"base"``
        (BaseSky), ``"two_hop"`` (Base2Hop), ``"cset"`` (BaseCSet),
        ``"lc_join"`` (the containment-join baseline) or ``"naive"``
        (the quadratic reference).
    counters:
        Optional :class:`SkylineCounters` to collect work statistics.
    options:
        Algorithm-specific keywords, e.g. ``bloom_bits`` / ``seed`` /
        ``exact`` for ``"filter_refine"`` and ``"two_hop"``, or
        ``workers`` / ``chunk_size`` / ``refine`` for
        ``"filter_refine_parallel"``.

    >>> from repro.graph.generators import complete_graph
    >>> neighborhood_skyline(complete_graph(5)).skyline
    (0,)
    """
    try:
        impl = ALGORITHMS[algorithm]
    except KeyError:
        raise ParameterError(
            f"unknown skyline algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        ) from None
    return impl(graph, counters=counters, **options)


def engine_session(graph: Graph, **options):
    """A warm :class:`~repro.parallel.session.EngineSession` for ``graph``.

    The session owns one worker pool and one published shared-memory
    CSR snapshot, both created on the first pooled call; repeated
    ``session.refine_sky(...)`` / ``session.greedy_maximize(...)``
    calls — or explicit ``session=`` passes to the pooled engines —
    reuse both, so only the first call pays fork + publish.  Use as a
    context manager, or call ``close()`` yourself:

        with engine_session(graph, workers=4) as session:
            sky = session.refine_sky()
            grp = session.greedy_maximize(8, objective)

    ``options`` are :class:`EngineSession`'s keywords (``workers``,
    ``chunk_size``, ``timeout``, ``max_retries``, ``fault_plan``,
    ``seed``).  Imported lazily for the same
    import-cycle reason as :func:`_parallel_refine_sky`.
    """
    from repro.parallel.session import EngineSession

    return EngineSession(graph, **options)


def serve(
    graphs,
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 1,
    timeout: Optional[float] = None,
    queue_capacity: int = 64,
    batch_max: int = 8,
    request_timeout_s: Optional[float] = 30.0,
    max_requests: Optional[int] = None,
    query_deadline_s: Optional[float] = 60.0,
    max_session_rebuilds: int = 8,
    breaker_threshold: int = 3,
    breaker_cooldown_s: float = 1.0,
    degraded_cache: bool = True,
    fault_plan=None,
) -> int:
    """Skyline-as-a-service in one call (blocking).

    ``graphs`` is an iterable of spec strings — a registry dataset name
    (``"karate"``) or ``alias=path`` for an edge-list file.  Each graph
    gets one warm :func:`engine_session`; ``skyline`` / ``group`` /
    ``clique`` queries are served over HTTP through a bounded priority
    queue with per-request deadlines and 429 backpressure.  The server
    is self-healing: a per-query watchdog (``query_deadline_s``) and
    per-graph circuit breakers (``breaker_threshold`` /
    ``breaker_cooldown_s``) rebuild failed warm sessions (up to
    ``max_session_rebuilds`` per graph) and degrade one broken graph —
    cached skyline marked ``degraded: true`` when ``degraded_cache`` —
    without touching the others.  ``fault_plan`` injects a
    :class:`~repro.harness.faults.ServeFaultPlan` for chaos harness
    runs.  See :mod:`repro.serve` and ``docs/serving.md``; the CLI
    equivalent is ``repro serve``.  Returns the process exit code.
    Imported lazily — the serving layer pulls in the parallel stack.
    """
    from repro.serve import (
        GraphRegistry,
        ServeConfig,
        SupervisionConfig,
        run_server,
    )

    registry = GraphRegistry(workers=workers, timeout=timeout)
    try:
        for spec in graphs:
            registry.register_spec(spec)
        if not len(registry):
            raise ParameterError("serve needs at least one graph spec")
        config = ServeConfig(
            host=host,
            port=port,
            queue_capacity=queue_capacity,
            batch_max=batch_max,
            default_timeout_s=request_timeout_s,
            max_requests=max_requests,
            supervision=SupervisionConfig(
                query_deadline_s=query_deadline_s,
                max_session_rebuilds=max_session_rebuilds,
                breaker_threshold=breaker_threshold,
                breaker_cooldown_s=breaker_cooldown_s,
                degraded_cache=degraded_cache,
            ),
        )
        return run_server(registry, config, fault_plan=fault_plan)
    finally:
        registry.close()


def neighborhood_candidates(
    graph: Graph, *, counters: Optional[SkylineCounters] = None
) -> tuple[int, ...]:
    """The candidate set ``C`` of the filter phase alone (Lemma 1 superset)."""
    candidates, _dominator = filter_phase(graph, counters=counters)
    return tuple(candidates)


def group_centrality_maximize(
    graph: Graph,
    k: int,
    *,
    measure: str = "closeness",
    use_skyline: bool = True,
    skyline: Optional[tuple[int, ...]] = None,
    strategy: str = "eager",
    workers: int = 1,
    timeout: Optional[float] = None,
    session=None,
    gain_batch="auto",
):
    """One-call dispatcher for the Sec. IV group-centrality applications.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Desired group size.
    measure:
        ``"closeness"`` (Def. 7) or ``"harmonic"`` (Def. 9).
    use_skyline:
        ``True`` runs the NeiSky* variant (candidate pool restricted to
        the neighborhood skyline), ``False`` the Base* variant.
    skyline:
        Precomputed skyline to reuse when ``use_skyline`` (``None``
        computes it with FilterRefineSky).
    strategy / workers:
        Greedy schedule: ``"eager"`` is the reference driver,
        ``"lazy"`` the CELF engine of
        :mod:`repro.centrality.lazy_greedy` — identical output, fewer
        evaluations — with ``workers`` fanning its first round over a
        process pool.
    timeout:
        Per-chunk deadline (seconds) of the round-0 pool's supervisor;
        ``None`` uses the supervisor default.  Recovery never changes
        the result.
    session:
        An optional warm :func:`engine_session` to run the round-0
        fan-out on — see :func:`~repro.parallel.engine.
        parallel_refine_sky` for the session semantics.  Identical
        output either way.
    gain_batch:
        Marginal-gain lanes per batched evaluation-kernel call:
        ``"auto"`` (the default) sizes from ``n`` and the candidate
        pool, a positive int forces that lane count, ``1`` forces the
        scalar kernels.  Purely an execution knob — the batched kernel
        is bit-for-bit equal to the scalar one (see
        :mod:`repro.paths.csr`), so the group never depends on it.

    Returns a :class:`~repro.centrality.greedy.GreedyResult`.  Imported
    lazily: :mod:`repro.centrality` itself imports core modules.

    Pool parameters are validated here, at the API boundary, so a bad
    value raises :class:`~repro.errors.ParameterError` before any graph
    work (or pool fork) happens.
    """
    from repro.centrality import base_gc, base_gh, neisky_gc, neisky_gh
    from repro.parallel.params import validate_pool_params
    from repro.paths.csr import validate_gain_batch

    validate_pool_params(workers=workers, timeout=timeout)
    validate_gain_batch(gain_batch)
    if measure == "closeness":
        base_run, sky_run = base_gc, neisky_gc
    elif measure == "harmonic":
        base_run, sky_run = base_gh, neisky_gh
    else:
        raise ParameterError(
            f"unknown group measure {measure!r}; choose 'closeness' or "
            "'harmonic'"
        )
    if not use_skyline:
        return base_run(
            graph,
            k,
            strategy=strategy,
            workers=workers,
            timeout=timeout,
            session=session,
            gain_batch=gain_batch,
        )
    return sky_run(
        graph,
        k,
        skyline=skyline,
        strategy=strategy,
        workers=workers,
        timeout=timeout,
        session=session,
        gain_batch=gain_batch,
    )
