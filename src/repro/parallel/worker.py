"""Per-candidate refine scans for the parallel engine.

The sequential refine loop of Algorithm 3 looks order-dependent — it
skips potential dominators ``w`` with ``O(w) ≠ w``, and refine updates
``O(*)`` as it goes — but the dependence is shallow, and this module
exploits it to split the phase into two embarrassingly parallel passes
that reproduce the sequential output *bit for bit*:

1. **Status pass** (:func:`scan_status`): is candidate ``u`` dominated
   from its 2-hop neighborhood?  The scan skips only *filter-phase*
   dominations, which are frozen before refine starts.  Skipping a
   refine-dominated ``w`` is a work-avoidance heuristic, never a
   correctness requirement — a pair that passes the checks certifies a
   genuine domination whatever ``w``'s own status — and conversely the
   pass tests a superset of the pairs the sequential scan tests, so the
   dominated *set* it computes equals the sequential one exactly.
2. **Witness pass** (:func:`scan_witness`): for each dominated
   candidate, recover the dominator entry the sequential scan would
   have written.  When the sequential loop reaches ``u``, the refine
   state it sees is the *final* status of every candidate below ``u``
   (entries are written at most once, and candidates are processed in
   ascending ID order), so the sequential witness is a pure function of
   the status-pass output: rescan with the skip predicate
   "``w`` filter-dominated, or ``w < u`` and refine-dominated" and
   return the first dominator that passes Def. 2's tie-break.

Both passes are pure functions of a :class:`RefineState`
(:func:`status_chunk` / :func:`witness_chunk` take it explicitly; the
engine's in-process path and the supervisor's sequential fallback call
them directly).  Workers build their state from a :class:`RefineSpec`
over the shared-memory CSR segments they attached at pool start
(:mod:`repro.parallel.shm`), cache it per call, and reuse it for every
chunk they are handed — including the per-worker
:class:`~repro.bloom.vertex_filters.VertexBloomIndex`.  Only the worker
entry points (:func:`run_status_chunk` / :func:`run_witness_chunk`)
resolve state from a spec.

Both passes also come in a block-vectorized flavor
(``refine="block"``): the chunk runners hand whole candidate ranges to
:mod:`repro.core.block_refine`'s batch kernels instead of scanning one
vertex at a time.  The same two-pass decomposition applies unchanged —
the block kernel implements exactly the status/witness predicates
above, in ndarray blocks — so chunked totals and outputs match the
scalar kernels bit for bit.  The engine computes the k-core numbers
once in the parent and ships them like any other call-scoped segment;
workers never re-peel the graph.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional, Sequence

from repro.bloom.vertex_filters import VertexBloomIndex
from repro.core.block_refine import (
    BlockRefineContext,
    block_status_chunk,
    block_witness_chunk,
)
from repro.core.counters import SkylineCounters
from repro.graph.adjacency import CSRGraphView, Graph
from repro.parallel.shm import SegmentRef, attach_view, release_attachments

__all__ = [
    "RefineSpec",
    "RefineState",
    "build_state",
    "init_worker",
    "publish_refine_spec",
    "run_status_chunk",
    "run_witness_chunk",
    "scan_status",
    "scan_witness",
    "status_chunk",
    "validate_status_chunk",
    "validate_witness_chunk",
    "witness_chunk",
]


class RefineSpec(NamedTuple):
    """Per-call refine parameters, shipped inside each task.

    The pool initializer installs only the *graph* (attached CSR views,
    one per process lifetime); everything call-scoped — candidates,
    filter dominators, kernel knobs, the optional core numbers — rides
    in this spec as
    :class:`~repro.parallel.shm.SegmentRef` handles plus scalars, a few
    hundred bytes per task.  Workers cache the state they build from a
    spec under ``key`` (the engine derives it from the segment names and
    kernel knobs), so a warm session repeating a call re-uses the state
    outright and a new call evicts exactly the previous call's
    attachments.
    """

    key: tuple
    refine: str
    bits: int
    seed: int
    candidates: SegmentRef
    dominator: SegmentRef
    #: Parent-computed k-core numbers (block kernel only; else None).
    cores: Optional[SegmentRef] = None


class RefineState:
    """Everything a refine scan needs, built once per worker process.

    ``refine`` selects the kernel: ``"bloom"`` states carry a
    :class:`VertexBloomIndex`, ``"block"`` states a
    :class:`~repro.core.block_refine.BlockRefineContext` (and never
    build a filter index).
    """

    __slots__ = (
        "graph",
        "candidates",
        "dominator",
        "blooms",
        "ctx",
        "refine",
        "refine_dominated",
    )

    def __init__(
        self,
        graph: Graph,
        candidates: Sequence[int],
        dominator: Sequence[int],
        blooms: Optional[VertexBloomIndex],
        ctx: Optional[BlockRefineContext] = None,
        refine: str = "bloom",
    ):
        self.graph = graph
        self.candidates = candidates
        #: Filter-phase dominator array, frozen for the whole refine.
        self.dominator = dominator
        self.blooms = blooms
        self.ctx = ctx
        self.refine = refine
        #: Per-vertex flags for the witness pass; set lazily from the
        #: status-pass output (``None`` until then).
        self.refine_dominated: Optional[bytearray] = None


def build_state(
    graph: Graph,
    candidates: Sequence[int],
    dominator: Sequence[int],
    *,
    bits: int,
    seed: int,
    refine: str = "bloom",
    cores: Optional[Sequence[int]] = None,
) -> RefineState:
    """A :class:`RefineState` over a live graph (in-process execution)."""
    if refine == "block":
        ctx = BlockRefineContext(graph, candidates, dominator, cores=cores)
        return RefineState(
            graph, candidates, dominator, None, ctx, refine
        )
    blooms = VertexBloomIndex(graph, candidates, bits=bits, seed=seed)
    return RefineState(graph, candidates, dominator, blooms)


def publish_refine_spec(
    session,
    candidates: Sequence[int],
    dominator: Sequence[int],
    *,
    bits: int,
    seed: int,
    refine: str = "bloom",
    cores: Optional[Sequence[int]] = None,
) -> RefineSpec:
    """Publish one call's scoped arrays on ``session``; return its spec.

    The arrays go into the session's content-keyed segment cache, so a
    repeated call gets the same segment names — and therefore the same
    ``key``, which lets warm workers reuse their cached state.
    """
    cand_ref = session.cached_segment("cand", array("q", candidates), "q")
    dom_ref = session.cached_segment("dom", array("q", dominator), "q")
    cores_ref = (
        session.cached_segment("cores", array("q", cores), "q")
        if cores is not None
        else None
    )
    return RefineSpec(
        key=(
            refine,
            bits,
            seed,
            cand_ref.name,
            dom_ref.name,
            cores_ref.name if cores_ref is not None else None,
        ),
        refine=refine,
        bits=bits,
        seed=seed,
        candidates=cand_ref,
        dominator=dom_ref,
        cores=cores_ref,
    )


#: Worker-process graph view over the attached CSR segments.
_GRAPH: Optional[Graph] = None

#: Cache of the last :class:`RefineSpec` materialized in this process:
#: ``{"key", "state", "names"}`` where ``names`` are the call-scoped
#: segment attachments to release when a different spec arrives.
_CALL: Optional[dict] = None


def init_worker(graph_refs: dict) -> None:
    """Pool initializer: attach the graph's CSR segments.

    ``graph_refs`` is ``{"indptr": ref, "indices": ref}``; the worker
    builds a lazy :class:`~repro.graph.adjacency.CSRGraphView` over the
    attached views.  Per-call state arrives later inside each task's
    :class:`RefineSpec`.  Pool rebuilds after a crash re-run this with
    the same initargs, so a fresh worker re-attaches automatically.
    """
    global _GRAPH, _CALL
    _GRAPH = CSRGraphView(
        attach_view(graph_refs["indptr"]), attach_view(graph_refs["indices"])
    )
    _CALL = None


def _call_state(spec: RefineSpec) -> RefineState:
    """The :class:`RefineState` for ``spec``, cached per process.

    A warm session re-issuing the same call (same ``spec.key``) hits
    the cache and pays nothing; a different call rebuilds the state
    from freshly attached segments and releases the previous call's
    attachments (the pinned graph segments are never in ``names``).
    """
    global _CALL
    cached = _CALL
    if cached is not None and cached["key"] == spec.key:
        return cached["state"]
    if _GRAPH is None:
        raise RuntimeError(
            "received a refine task but this worker was not initialized "
            "with the graph's segments"
        )
    candidates = attach_view(spec.candidates)
    dominator = attach_view(spec.dominator)
    names = {spec.candidates.name, spec.dominator.name}
    cores = None
    if spec.cores is not None:
        cores = attach_view(spec.cores)
        names.add(spec.cores.name)
    state = build_state(
        _GRAPH,
        candidates,
        dominator,
        bits=spec.bits,
        seed=spec.seed,
        refine=spec.refine,
        cores=cores,
    )
    _CALL = {"key": spec.key, "state": state, "names": names}
    if cached is not None:
        stale = cached["names"] - names
        cached = None  # drop the old state (and its views) first
        release_attachments(stale)
    return state


def scan_status(state: RefineState, u: int, stats: SkylineCounters) -> bool:
    """``True`` iff candidate ``u`` has a 2-hop dominator (status pass).

    The check ladder per pair mirrors Algorithm 3 exactly — degree skip,
    dominated-dominator skip (filter-phase state only), whole-filter
    bloom subset test, per-neighbor ``BFcheck`` + exact ``NBRcheck`` —
    and stops at the first pair certifying a domination of ``u``
    (strict, or mutual losing the ID tie-break).
    """
    graph = state.graph
    dominator = state.dominator
    filter_word = state.blooms.filter_word
    bit_of = state.blooms.bit_masks
    neighbors = graph.neighbors
    degree = graph.degree
    has_edge = graph.has_edge

    stats.vertices_examined += 1
    deg_u = degree(u)
    bf_u = filter_word(u)
    nbrs_u = neighbors(u)
    for v in nbrs_u:
        for w in neighbors(v):
            if w == u:
                continue
            if degree(w) < deg_u:
                stats.degree_skips += 1
                continue
            if dominator[w] != w:
                stats.dominated_skips += 1
                continue
            stats.pair_tests += 1
            bf_w = filter_word(w)
            if bf_u & bf_w != bf_u:
                stats.bloom_subset_rejects += 1
                continue
            dominated_by_w = True
            for x in nbrs_u:
                if x == v:
                    continue
                stats.bloom_member_checks += 1
                if not (bf_w & bit_of[x]):
                    stats.bloom_member_rejects += 1
                    dominated_by_w = False
                    break
                stats.nbr_checks += 1
                if not has_edge(w, x):
                    stats.bloom_false_positives += 1
                    dominated_by_w = False
                    break
            if not dominated_by_w:
                continue
            # N(u) ⊆ N[w] certified.  Strict domination, or mutual
            # inclusion lost on the Def. 2 ID tie-break, settles u.
            if degree(w) > deg_u or u > w:
                stats.dominations_found += 1
                return True
            # Mutual inclusion won by u (u < w): u stays, keep scanning.
    return False


def scan_witness(state: RefineState, u: int, stats: SkylineCounters) -> int:
    """The dominator entry the sequential scan records for ``u``.

    Precondition: the status pass found ``u`` dominated, and
    ``state.refine_dominated`` holds its output.  Replays ``u``'s scan
    under the sequential skip predicate — ``w`` is skipped when it is
    filter-dominated, or refine-dominated with ``w < u`` — and returns
    the first ``w`` whose certified inclusion also settles ``u``
    (sequential writes ``O(u)`` at most once, so first hit = final
    entry).
    """
    graph = state.graph
    dominator = state.dominator
    refine_dominated = state.refine_dominated
    filter_word = state.blooms.filter_word
    bit_of = state.blooms.bit_masks
    neighbors = graph.neighbors
    degree = graph.degree
    has_edge = graph.has_edge

    deg_u = degree(u)
    bf_u = filter_word(u)
    nbrs_u = neighbors(u)
    for v in nbrs_u:
        for w in neighbors(v):
            if w == u:
                continue
            if degree(w) < deg_u:
                stats.degree_skips += 1
                continue
            if dominator[w] != w or (w < u and refine_dominated[w]):
                stats.dominated_skips += 1
                continue
            stats.pair_tests += 1
            bf_w = filter_word(w)
            if bf_u & bf_w != bf_u:
                stats.bloom_subset_rejects += 1
                continue
            dominated_by_w = True
            for x in nbrs_u:
                if x == v:
                    continue
                stats.bloom_member_checks += 1
                if not (bf_w & bit_of[x]):
                    stats.bloom_member_rejects += 1
                    dominated_by_w = False
                    break
                stats.nbr_checks += 1
                if not has_edge(w, x):
                    stats.bloom_false_positives += 1
                    dominated_by_w = False
                    break
            if not dominated_by_w:
                continue
            if degree(w) > deg_u or u > w:
                return w
    raise RuntimeError(
        f"refine witness for vertex {u} vanished between passes; "
        "this indicates a bug in the status pass"
    )


def _ensure_flags(state: RefineState, dominated: Sequence[int]) -> None:
    if state.refine_dominated is None:
        flags = bytearray(state.graph.num_vertices)
        for u in dominated:
            flags[u] = 1
        state.refine_dominated = flags


def status_chunk(state: RefineState, lo: int, hi: int):
    """Status pass over candidates ``lo .. hi`` (indices into ``C``).

    Returns ``(dominated_ids, counter_dict)``.
    """
    stats = SkylineCounters()
    if state.refine == "block":
        return block_status_chunk(state.ctx, lo, hi, stats), _chunk_stats(
            stats
        )
    dominated = [
        u for u in state.candidates[lo:hi] if scan_status(state, u, stats)
    ]
    return dominated, _chunk_stats(stats)


def witness_chunk(
    state: RefineState, dominated: Sequence[int], lo: int, hi: int
):
    """Witness pass over ``dominated[lo:hi]``.

    ``dominated`` is the full ascending list from the status pass, so
    the skip flags are built once per state and each chunk indexes its
    slice.  Returns ``([(u, witness), ...], counter_dict)``.
    """
    stats = SkylineCounters()
    if state.refine == "block":
        state.ctx.ensure_refine_dominated(dominated)
        pairs = block_witness_chunk(state.ctx, dominated[lo:hi], stats)
        return pairs, _chunk_stats(stats)
    _ensure_flags(state, dominated)
    pairs = [(u, scan_witness(state, u, stats)) for u in dominated[lo:hi]]
    return pairs, _chunk_stats(stats)


def run_status_chunk(task: tuple):
    """Worker entry of the status pass; ``task`` is ``(spec, lo, hi)``."""
    spec, lo, hi = task
    return status_chunk(_call_state(spec), lo, hi)


def run_witness_chunk(task: tuple):
    """Worker entry of the witness pass.

    ``task`` is ``(spec, lo, hi, dominated_ref)``: the dominated list
    lives in a call-scoped segment, attached on first touch and
    released with the rest of the call's attachments.
    """
    spec, lo, hi, dom_ref = task
    state = _call_state(spec)
    _CALL["names"].add(dom_ref.name)
    return witness_chunk(state, attach_view(dom_ref), lo, hi)


def _chunk_stats(stats: SkylineCounters) -> dict:
    """A chunk's counter snapshot, extras folded in as plain ints.

    ``as_dict`` excludes ``extra`` by design; the block kernel's
    instrumentation (``core_pretest_rejects``) lives there, and the
    supervisor's merge routes unknown keys back into ``extra`` — so
    folding the int-valued extras into the flat dict round-trips them.
    """
    out = stats.as_dict()
    for key, value in stats.extra.items():
        if isinstance(value, int) and not isinstance(value, bool):
            out[key] = value
    return out


def _valid_stats(stats) -> bool:
    return isinstance(stats, dict) and all(
        isinstance(k, str)
        and isinstance(v, int)
        and not isinstance(v, bool)
        for k, v in stats.items()
    )


def _valid_vertex(u) -> bool:
    return isinstance(u, int) and not isinstance(u, bool) and u >= 0


def validate_status_chunk(task: tuple, result) -> bool:
    """Schema check for a :func:`run_status_chunk` payload.

    The supervisor rejects (and recomputes) anything that is not a
    ``(ascending vertex-id list, counter dict)`` pair sized within the
    chunk — a worker returning garbage must never poison the merge.
    """
    lo, hi = task[1], task[2]
    if not (isinstance(result, tuple) and len(result) == 2):
        return False
    part, stats = result
    if not isinstance(part, list) or len(part) > hi - lo:
        return False
    if not all(_valid_vertex(u) for u in part):
        return False
    if any(part[j] >= part[j + 1] for j in range(len(part) - 1)):
        return False
    return _valid_stats(stats)


def validate_witness_chunk(task: tuple, result) -> bool:
    """Schema check for a :func:`run_witness_chunk` payload.

    Exactly one ``(dominated, witness)`` pair per chunk entry — the
    witness pass never drops or invents candidates.
    """
    lo, hi = task[1], task[2]
    if not (isinstance(result, tuple) and len(result) == 2):
        return False
    part, stats = result
    if not isinstance(part, list) or len(part) != hi - lo:
        return False
    for pair in part:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        u, w = pair
        if not (_valid_vertex(u) and _valid_vertex(w)) or u == w:
            return False
    return _valid_stats(stats)
