"""``FilterRefineSkyBlock`` — the block-vectorized refine kernel.

The bloom refine kernel walks the 2-hop neighborhood of each
candidate in Python, one pair at a time.  This module evaluates the
same pairs in **blocks** over the CSR ndarrays: one ragged gather pulls
an entire block of candidates' 2-hop entries ``(u, w)`` into flat
arrays, the skip ladder (self, degree, frozen filter-phase domination,
core-number pretest) becomes boolean masks, and the exact inclusion
test collapses to a counting identity:

    ``N(u) ⊆ N(w)``  ⟺  ``|N(u) ∩ N(w)| = deg(u)``

because ``w`` appears once in the gathered multiset for every common
neighbor it shares with ``u``.  One ``np.unique`` over packed
``(u, w)`` keys yields all pair multiplicities at once — no bit matrix,
no per-pair Python, and the verdict is exact by construction.  The
accept condition is equivalent to the scalar kernels' because the
via-vertex exclusion ``N(u) \\ {v} ⊆ N(w)`` is v-independent on every
reachable pair (``w ∈ N(v)`` forces ``v ∈ N(w)``) — which is what
lets a per-pair *count* stand in for per-via subset tests.

Output equivalence reuses the two-pass decomposition proved in
:mod:`repro.parallel.worker` verbatim:

1. **Status pass** — which candidates are dominated, testing against
   the frozen filter-phase dominator state only.  Settlement per pair
   is the scalar rule, evaluated as masks: strict domination
   (``deg(w) > deg(u)``) or mutual inclusion lost on the Def. 2 ID
   tie-break (``w < u``).
2. **Witness pass** — for each dominated candidate, the exact entry
   the sequential scan would have written: the *first* settling ``w``
   in scan order (``v`` ascending in ``N(u)``, ``w`` ascending within
   each ``N(v)``; the gather preserves exactly this order) under the
   sequential skip predicate "``w`` filter-dominated, or ``w < u`` and
   refine-dominated".

So ``skyline`` / ``dominator`` / ``candidates`` are bit-for-bit the
sequential bloom baseline's, which the differential suite pins.

Core-number pretest
-------------------
``N(u) ⊆ N(w)`` implies ``core(w) ≥ core(u)`` (see
:mod:`repro.graph.cores`), so pairs failing it are rejected before the
counting test.  The pretest never changes the accept set — it is pure
work avoidance — and its per-entry reject tally surfaces as
``counters.extra["core_pretest_rejects"]``.

Counter semantics
-----------------
Bulk masks tally skips per gathered *entry* (every ``(v, w)`` visit,
like the bloom scan would) and ``pair_tests`` per distinct pair that
reaches the counting test.  ``vertices_examined`` and
``dominations_found`` match the parallel bloom totals exactly; the
skip tallies never undercount but keep counting where a scalar scan
would have early-exited.
``bloom_*`` and ``nbr_checks`` stay zero.  Totals are deterministic
for any chunking.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as _np

from repro.core.counters import NULL_COUNTERS, SkylineCounters
from repro.core.filter_phase import filter_phase
from repro.core.result import SkylineResult
from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.cores import core_decomposition

__all__ = [
    "BLOCK_ENTRY_BUDGET",
    "BlockRefineContext",
    "block_status_chunk",
    "block_witness_chunk",
    "filter_refine_block_sky",
]

#: Gathered 2-hop entries per status block — bounds the flat scratch
#: arrays to a few tens of MB however large the graph is.
BLOCK_ENTRY_BUDGET = 1 << 22


def _graph_csr(graph: Graph):
    """``(indptr, indices)`` of ``graph`` as numpy arrays."""
    csr_arrays = getattr(graph, "csr_arrays", None)
    if csr_arrays is not None:
        indptr, indices = csr_arrays()
    else:
        indptr, indices = graph.to_csr()
    return _np.asarray(indptr), _np.asarray(indices)


def _ragged_gather(indices, starts, lens):
    """Concatenate ``indices[starts[i] : starts[i] + lens[i]]`` rows."""
    total = int(lens.sum())
    if not total:
        return _np.empty(0, dtype=indices.dtype)
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(
        _np.cumsum(lens) - lens, lens
    )
    return indices[_np.repeat(starts, lens) + offsets]


class BlockRefineContext:
    """Shared ndarray state for block refine scans.

    Built once per pass (or per worker process) from the graph, the
    frozen filter-phase output and the core numbers; the chunk scans
    only read it (apart from the lazily installed witness flags, which
    are themselves frozen once set).
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "deg",
        "filter_ok",
        "core",
        "cand",
        "vol2",
        "entry_budget",
        "refine_dominated",
    )

    def __init__(
        self,
        graph: Graph,
        candidates: Sequence[int],
        dominator: Sequence[int],
        *,
        cores=None,
        entry_budget: int = BLOCK_ENTRY_BUDGET,
    ):
        indptr, indices = _graph_csr(graph)
        self.n = graph.num_vertices
        self.indptr = indptr.astype(_np.int64, copy=False)
        self.indices = indices
        self.deg = self.indptr[1:] - self.indptr[:-1]
        dom = _np.asarray(dominator, dtype=_np.int64)
        self.filter_ok = dom == _np.arange(self.n, dtype=_np.int64)
        if cores is None:
            cores = core_decomposition(graph).core
        self.core = _np.asarray(cores, dtype=_np.int64)
        self.cand = _np.asarray(candidates, dtype=_np.int64)
        # Per-vertex 2-hop volume Σ_{v∈N(u)} deg(v): the quantity block
        # sizing budgets, computed in one vectorized edge pass.
        row_vol = _np.concatenate(
            (
                _np.zeros(1, dtype=_np.int64),
                _np.cumsum(self.deg[self.indices]),
            )
        )
        self.vol2 = row_vol[self.indptr[1:]] - row_vol[self.indptr[:-1]]
        self.entry_budget = entry_budget
        #: Status-pass output as per-vertex flags; installed once by
        #: :meth:`ensure_refine_dominated` before any witness scan.
        self.refine_dominated = None

    def ensure_refine_dominated(self, dominated: Sequence[int]) -> None:
        """Install the witness-pass skip flags (idempotent)."""
        if self.refine_dominated is None:
            flags = _np.zeros(self.n, dtype=bool)
            dom = _np.asarray(dominated, dtype=_np.int64)
            if dom.size:
                flags[dom] = True
            self.refine_dominated = flags


def _block_bounds(vol: "object", budget: int) -> list[tuple[int, int]]:
    """Split ``range(len(vol))`` greedily so each block's Σvol ≤ budget
    (always at least one item per block)."""
    bounds: list[tuple[int, int]] = []
    if not len(vol):
        return bounds
    cum = _np.cumsum(vol)
    start = 0
    while start < len(vol):
        limit = (cum[start - 1] if start else 0) + budget
        end = int(_np.searchsorted(cum, limit, side="right"))
        end = max(end, start + 1)
        bounds.append((start, end))
        start = end
    return bounds


def _scan_status_block(
    ctx: BlockRefineContext, us, stats: SkylineCounters
):
    """Dominated mask over the candidate block ``us`` (status pass)."""
    indptr, indices, deg = ctx.indptr, ctx.indices, ctx.deg
    n = ctx.n
    lens = deg[us]
    v = _ragged_gather(indices, indptr[us], lens)
    u_rep = _np.repeat(_np.arange(len(us), dtype=_np.int64), lens)
    wlens = deg[v]
    entry_u = _np.repeat(u_rep, wlens)
    w = _ragged_gather(indices, indptr[v], wlens)
    dominated = _np.zeros(len(us), dtype=bool)
    if not w.size:
        return dominated

    deg_us = deg[us]
    deg_u_e = deg_us[entry_u]
    mask = w != us[entry_u]
    deg_ok = deg[w] >= deg_u_e
    stats.degree_skips += int(_np.count_nonzero(mask & ~deg_ok))
    mask &= deg_ok
    filt_ok = ctx.filter_ok[w]
    stats.dominated_skips += int(_np.count_nonzero(mask & ~filt_ok))
    mask &= filt_ok
    core_ok = ctx.core[w] >= ctx.core[us][entry_u]
    core_rejects = int(_np.count_nonzero(mask & ~core_ok))
    if core_rejects:
        stats.extra["core_pretest_rejects"] = (
            stats.extra.get("core_pretest_rejects", 0) + core_rejects
        )
    mask &= core_ok
    if not mask.any():
        return dominated

    keys = entry_u[mask] * n + w[mask]
    pair_keys, counts = _np.unique(keys, return_counts=True)
    stats.pair_tests += int(pair_keys.size)
    pu = pair_keys // n
    pw = pair_keys - pu * n
    # |N(u) ∩ N(w)| == deg(u)  ⟺  N(u) ⊆ N(w): the exact accept test.
    accept = counts == deg_us[pu]
    settle = accept & ((deg[pw] > deg_us[pu]) | (pw < us[pu]))
    dominated[pu[settle]] = True
    return dominated


def block_status_chunk(
    ctx: BlockRefineContext, lo: int, hi: int, stats: SkylineCounters
) -> list[int]:
    """Status pass over candidates ``ctx.cand[lo:hi]``, in blocks.

    Returns the dominated candidate IDs, ascending (chunks of the
    ascending candidate list scan in order, so this falls out free).
    """
    cand = ctx.cand[lo:hi]
    stats.vertices_examined += len(cand)
    out: list[int] = []
    for blo, bhi in _block_bounds(ctx.vol2[cand], ctx.entry_budget):
        us = cand[blo:bhi]
        dominated = _scan_status_block(ctx, us, stats)
        out.extend(int(u) for u in us[dominated])
    stats.dominations_found += len(out)
    return out


def _witness_one(
    ctx: BlockRefineContext, u: int, stats: SkylineCounters
) -> int:
    """The sequential dominator entry for dominated candidate ``u``."""
    indptr, indices, deg = ctx.indptr, ctx.indices, ctx.deg
    v = indices[indptr[u] : indptr[u + 1]]
    w = _ragged_gather(indices, indptr[v], deg[v])
    deg_u = int(deg[u])
    mask = w != u
    deg_ok = deg[w] >= deg_u
    stats.degree_skips += int(_np.count_nonzero(mask & ~deg_ok))
    mask &= deg_ok
    skip_dom = ~ctx.filter_ok[w] | ((w < u) & ctx.refine_dominated[w])
    stats.dominated_skips += int(_np.count_nonzero(mask & skip_dom))
    mask &= ~skip_dom
    core_ok = ctx.core[w] >= ctx.core[u]
    core_rejects = int(_np.count_nonzero(mask & ~core_ok))
    if core_rejects:
        stats.extra["core_pretest_rejects"] = (
            stats.extra.get("core_pretest_rejects", 0) + core_rejects
        )
    mask &= core_ok
    wm = w[mask]
    if wm.size:
        pairs, inverse, counts = _np.unique(
            wm, return_inverse=True, return_counts=True
        )
        stats.pair_tests += int(pairs.size)
        accept = counts == deg_u
        settle = accept & ((deg[pairs] > deg_u) | (pairs < u))
        # The gather preserves scan order (v ascending, w ascending
        # within each row), so the first settling entry is exactly the
        # dominator the sequential scan writes.
        entry_settles = settle[inverse]
        if entry_settles.any():
            return int(wm[int(_np.argmax(entry_settles))])
    raise RuntimeError(
        f"refine witness for vertex {u} vanished between passes; "
        "this indicates a bug in the status pass"
    )


def block_witness_chunk(
    ctx: BlockRefineContext,
    dominated_slice: Sequence[int],
    stats: SkylineCounters,
) -> list[tuple[int, int]]:
    """Witness pass over one slice of the dominated-candidate list.

    Precondition: :meth:`BlockRefineContext.ensure_refine_dominated`
    ran with the *full* status-pass output.
    """
    return [
        (int(u), _witness_one(ctx, int(u), stats))
        for u in dominated_slice
    ]


def filter_refine_block_sky(
    graph: Graph,
    *,
    counters: Optional[SkylineCounters] = None,
    entry_budget: int = BLOCK_ENTRY_BUDGET,
) -> SkylineResult:
    """Compute the neighborhood skyline with the block refine kernel.

    Same filter phase, same result as
    :func:`~repro.core.filter_refine.filter_refine_sky` — bit for bit —
    with the refine phase evaluated in vectorized blocks.
    """
    if entry_budget <= 0:
        raise ParameterError(
            f"entry_budget must be positive, got {entry_budget}"
        )
    stats = counters if counters is not None else NULL_COUNTERS
    n = graph.num_vertices
    candidates, dominator = filter_phase(graph, counters=counters)

    ctx = BlockRefineContext(
        graph, candidates, dominator, entry_budget=entry_budget
    )
    dominated = block_status_chunk(ctx, 0, len(candidates), stats)
    ctx.ensure_refine_dominated(dominated)
    final = list(dominator)
    for u, w in block_witness_chunk(ctx, dominated, stats):
        final[u] = w
    if counters is not None:
        counters.extra["refine_path"] = "block"
        counters.extra.setdefault("core_pretest_rejects", 0)
        counters.extra["block_rescans"] = len(dominated)

    skyline = tuple(u for u in range(n) if final[u] == u)
    return SkylineResult(
        skyline=skyline,
        dominator=tuple(final),
        candidates=tuple(candidates),
        algorithm="FilterRefineSkyBlock",
        counters=counters,
    )
