"""Round-0 gain evaluation for the lazy greedy engine.

The first greedy round is the expensive one — with an empty group every
candidate's truncated BFS degenerates to a full BFS — and it is
embarrassingly parallel: the gains are pure functions of the graph and
an all-``-1`` distance vector.  This module is the worker side of that
fan-out, mirroring :mod:`repro.parallel.worker`'s shape: the pool
initializer attaches the graph's CSR segments (:mod:`repro.parallel.
shm`) and builds the :class:`~repro.paths.csr.CSRTraversal` workspace
lazily, once per process lifetime; the candidate pool and objective
arrive per call in a :class:`GreedySpec` riding inside each task, and
:func:`run_gain_chunk` maps over index ranges of the pool.  The pure
chunk function :func:`gain_chunk` takes its state explicitly — the
engine's sequential fallback calls it on a state built from the live
graph (:func:`build_greedy_state`).

Gains come back as ``array('d')`` blobs in pool order.  Workers run the
same :class:`~repro.paths.csr.CSRTraversal` kernels as the in-process
engine on the same CSR snapshot, so the floats they return are bitwise
identical to an in-process round 0 for any worker count or chunking —
the lazy engine's exactness argument never has to mention the pool.

The objective rides along inside the spec, so it must pickle; the
bundled objectives (plain module-level classes holding scalars) all do.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional

import numpy as _np

from repro.parallel.shm import SegmentRef, attach_view, release_attachments
from repro.paths.csr import (
    CSRTraversal,
    make_batch_evaluator,
    make_evaluator,
)

__all__ = [
    "GreedySpec",
    "build_greedy_state",
    "gain_chunk",
    "init_greedy_worker",
    "run_gain_chunk",
    "validate_gain_chunk",
]


class GreedySpec(NamedTuple):
    """Per-call round-0 parameters, shipped inside each task.

    ``pool`` names the candidate-scope segment; the objective (scalars
    only for the bundled ones) pickles inline.  ``key`` keys the
    worker-side state cache, as in :class:`~repro.parallel.worker.
    RefineSpec`.  ``batch`` is the gain-batch lane count workers use
    inside each chunk — a worker-side execution knob only, since the
    batched kernel is bitwise equal to the scalar one; it participates
    in ``key`` so a cached state is never reused at the wrong width.
    """

    key: tuple
    objective: object
    pool: SegmentRef
    batch: int = 1


def _batch_state(trav, objective, batch):
    """``(batch_evaluate, current_nd)`` for a worker, or ``(None, None)``
    when batching is off or the batch plane is unavailable."""
    if batch <= 1:
        return None, None
    batch_evaluate = make_batch_evaluator(trav, objective)
    if batch_evaluate is None:
        return None, None
    return batch_evaluate, _np.full(trav.n, -1, dtype=_np.int32)


def _greedy_state(trav, current, pool, objective, batch) -> tuple:
    evaluate = make_evaluator(trav, objective)
    batch_evaluate, current_nd = _batch_state(trav, objective, batch)
    return (pool, evaluate, current, batch, batch_evaluate, current_nd)


def build_greedy_state(graph, objective, pool, batch: int = 1) -> tuple:
    """The round-0 state over a live graph (the sequential fallback)."""
    trav = CSRTraversal.from_graph(graph)
    # Round 0 only: the group is empty, every distance is infinity.
    return _greedy_state(trav, [-1] * trav.n, pool, objective, batch)


#: Attached ``(indptr, indices)`` views; the traversal workspace is
#: built from them lazily, once, on the first spec task.
_CSR: Optional[tuple] = None

#: Lazily built ``(CSRTraversal, current)`` pair shared by every call —
#: ``current`` is the all--1 round-0 distance vector, never mutated by
#: ``collect=False`` evaluation.
_TRAV: Optional[tuple] = None

#: Last materialized :class:`GreedySpec` state:
#: ``{"key", "state", "names"}``, as in :mod:`repro.parallel.worker`.
_CALL: Optional[dict] = None


def init_greedy_worker(graph_refs: dict) -> None:
    """Pool initializer: attach the graph's CSR segments."""
    global _CSR, _TRAV, _CALL
    _CSR = (
        attach_view(graph_refs["indptr"]),
        attach_view(graph_refs["indices"]),
    )
    _TRAV = None
    _CALL = None


def _greedy_call_state(spec: GreedySpec) -> tuple:
    """The worker state tuple for ``spec``, cached by spec key."""
    global _TRAV, _CALL
    cached = _CALL
    if cached is not None and cached["key"] == spec.key:
        return cached["state"]
    if _CSR is None:
        raise RuntimeError(
            "received a gain task but this worker was not initialized "
            "with the graph's segments"
        )
    if _TRAV is None:
        trav = CSRTraversal(_CSR[0], _CSR[1])
        _TRAV = (trav, [-1] * trav.n)
    trav, current = _TRAV
    state = _greedy_state(
        trav, current, attach_view(spec.pool), spec.objective, spec.batch
    )
    _CALL = {"key": spec.key, "state": state, "names": {spec.pool.name}}
    if cached is not None:
        stale = cached["names"] - _CALL["names"]
        cached = None
        release_attachments(stale)
    return state


def gain_chunk(state: tuple, lo: int, hi: int) -> array:
    """Round-0 gains for pool slice ``lo .. hi``, as an ``array('d')``."""
    pool, evaluate, current, batch, batch_evaluate, current_nd = state
    seg = pool[lo:hi]
    if batch_evaluate is not None and hi - lo > 1:
        # Batched lanes: bitwise equal to the scalar loop below (see
        # repro.paths.csr), so chunking × batching never shows in the
        # gains.
        out = array("d")
        for i in range(0, len(seg), batch):
            lane = seg[i : i + batch]
            out.extend(
                g for g, _none in batch_evaluate(lane, current_nd, False)
            )
        return out
    return array("d", [evaluate(u, current, False)[0] for u in seg])


def run_gain_chunk(task: tuple) -> array:
    """Worker entry of round 0; ``task`` is ``(spec, lo, hi)``."""
    spec, lo, hi = task
    return gain_chunk(_greedy_call_state(spec), lo, hi)


def validate_gain_chunk(task: tuple, result) -> bool:
    """Schema check for a :func:`run_gain_chunk` payload.

    Exactly one non-NaN float per pool slot.  (No sign check: the
    bundled objectives only produce non-negative round-0 gains, but the
    evaluator accepts arbitrary ``GainObjective`` weights.)
    """
    lo, hi = task[1], task[2]
    if not isinstance(result, array) or result.typecode != "d":
        return False
    if len(result) != hi - lo:
        return False
    return all(g == g for g in result)
