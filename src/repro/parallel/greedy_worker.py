"""Round-0 gain evaluation for the lazy greedy engine.

The first greedy round is the expensive one — with an empty group every
candidate's truncated BFS degenerates to a full BFS — and it is
embarrassingly parallel: the gains are pure functions of the graph and
an all-``-1`` distance vector.  This module is the worker side of that
fan-out, mirroring :mod:`repro.parallel.worker`'s shape: a pickle-cheap
payload shipped once per process via the pool initializer, module-level
state rebuilt from it, and a chunk entry point mapped over index ranges
of the candidate pool.

Two data planes, as in the refine worker:

* **pickle** — :func:`build_greedy_payload` ships CSR rows + pool +
  objective per process; the initializer rebuilds everything.
* **shm** — the initializer gets ``("shm", {"indptr", "indices"})``
  refs, attaches the CSR segments (:mod:`repro.parallel.shm`), and
  builds the :class:`~repro.paths.csr.CSRTraversal` workspace lazily,
  once per process lifetime; the pool and objective arrive per call in
  a :class:`GreedySpec` riding inside each task.

Gains come back as ``array('d')`` blobs in pool order.  Workers run the
same :class:`~repro.paths.csr.CSRTraversal` kernels as the in-process
engine on the same CSR snapshot, so the floats they return are bitwise
identical to an in-process round 0 for any worker count, chunking or
data plane — the lazy engine's exactness argument never has to mention
the pool.

The objective rides along inside the payload (or spec), so it must
pickle; the bundled objectives (plain module-level classes holding
scalars) all do.
"""

from __future__ import annotations

import multiprocessing
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
    "build_greedy_payload",
    "build_greedy_state",
    "init_greedy_worker",
    "pool_context",
    "run_gain_chunk",
    "validate_gain_chunk",
]


class GreedySpec(NamedTuple):
    """Per-call round-0 parameters for shared-memory dispatch.

    ``pool`` names the candidate-scope segment; the objective (scalars
    only for the bundled ones) pickles inline.  ``key`` keys the
    worker-side state cache, as in :class:`~repro.parallel.worker.
    RefineSpec`.  ``batch`` is the gain-batch lane count workers use
    inside each chunk — a worker-side execution knob only, since the
    batched kernel is bitwise equal to the scalar one; it participates
    in ``key`` so a cached state is never reused at the wrong width.
    """

    epoch: int
    key: tuple
    objective: object
    pool: SegmentRef
    batch: int = 1


def pool_context():
    """The multiprocessing context for greedy worker pools.

    fork shares the parent's code pages and skips re-imports; spawn is
    the portable fallback (worker entry points are module-level).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def build_greedy_payload(graph, objective, pool, batch: int = 1) -> tuple:
    """The snapshot shipped to every worker: CSR rows + pool + objective
    (+ the gain-batch lane count).

    CSR-backed graphs already hold ``int32`` ndarrays (which pickle as
    compactly as anything); only the list path's ``array('q')`` indices
    are narrowed to ``'i'`` for the wire.  ``batch == 1`` ships the
    legacy 4-tuple, so older payload producers and consumers interoperate.
    """
    indptr, indices = graph.to_csr()
    if isinstance(indices, array):
        indices = array("i", indices)
    if batch == 1:
        return (indptr, indices, array("q", pool), objective)
    return (indptr, indices, array("q", pool), objective, batch)


def _batch_state(trav, objective, batch):
    """``(batch_evaluate, current_nd)`` for a worker, or ``(None, None)``
    when batching is off or the batch plane is unavailable."""
    if batch <= 1:
        return None, None
    batch_evaluate = make_batch_evaluator(trav, objective)
    if batch_evaluate is None:
        return None, None
    return batch_evaluate, _np.full(trav.n, -1, dtype=_np.int32)


def build_greedy_state(payload: tuple) -> tuple:
    """Rebuild the traversal workspace and bound evaluators from a payload."""
    if len(payload) == 5:
        indptr, indices, pool, objective, batch = payload
    else:
        indptr, indices, pool, objective = payload
        batch = 1
    trav = CSRTraversal(indptr, indices)
    evaluate = make_evaluator(trav, objective)
    # Round 0 only: the group is empty, every distance is infinity.
    current = [-1] * trav.n
    batch_evaluate, current_nd = _batch_state(trav, objective, batch)
    return (pool, evaluate, current, batch, batch_evaluate, current_nd)


#: Worker-process state, populated by :func:`init_greedy_worker`
#: (pickle plane).
_STATE: Optional[tuple] = None

#: Attached ``(indptr, indices)`` views (shm plane); the traversal
#: workspace is built from them lazily, once, on the first spec task.
_CSR: Optional[tuple] = None

#: Lazily built ``(CSRTraversal, current)`` pair shared by every call —
#: ``current`` is the all--1 round-0 distance vector, never mutated by
#: ``collect=False`` evaluation.
_TRAV: Optional[tuple] = None

#: Last materialized :class:`GreedySpec` state:
#: ``{"key", "state", "names"}``, as in :mod:`repro.parallel.worker`.
_CALL: Optional[dict] = None


def init_greedy_worker(payload: tuple) -> None:
    """Pool initializer for either data plane (see module docstring)."""
    global _STATE, _CSR, _TRAV, _CALL
    # isinstance guard: the pickle payload leads with the indptr array,
    # and ndarray == str compares elementwise instead of returning False.
    if payload and isinstance(payload[0], str) and payload[0] == "shm":
        refs = payload[1]
        _CSR = (attach_view(refs["indptr"]), attach_view(refs["indices"]))
        _STATE = None
        _TRAV = None
        _CALL = None
        return
    _STATE = build_greedy_state(payload)


def _greedy_call_state(spec: GreedySpec) -> tuple:
    """The worker state tuple for ``spec``, cached by spec key."""
    global _TRAV, _CALL
    cached = _CALL
    if cached is not None and cached["key"] == spec.key:
        return cached["state"]
    if _CSR is None:
        raise RuntimeError(
            "received a shared-memory task but this worker was not "
            "initialized with a shm payload"
        )
    if _TRAV is None:
        trav = CSRTraversal(_CSR[0], _CSR[1])
        _TRAV = (trav, [-1] * trav.n)
    trav, current = _TRAV
    pool = attach_view(spec.pool)
    evaluate = make_evaluator(trav, spec.objective)
    batch = getattr(spec, "batch", 1)
    batch_evaluate, current_nd = _batch_state(trav, spec.objective, batch)
    state = (pool, evaluate, current, batch, batch_evaluate, current_nd)
    _CALL = {"key": spec.key, "state": state, "names": {spec.pool.name}}
    if cached is not None:
        stale = cached["names"] - _CALL["names"]
        cached = None
        release_attachments(stale)
    return state


def run_gain_chunk(task: tuple, state: Optional[tuple] = None) -> array:
    """Round-0 gains for one pool slice, as an ``array('d')``.

    ``task`` is ``(lo, hi)`` on the pickle plane or ``(spec, lo, hi)``
    on the shm plane.
    """
    if isinstance(task[0], int):
        lo, hi = task
        if state is None:
            state = _STATE
    else:
        spec, lo, hi = task
        if state is None:
            state = _greedy_call_state(spec)
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


def validate_gain_chunk(task: tuple, result) -> bool:
    """Schema check for a :func:`run_gain_chunk` payload.

    Exactly one non-NaN float per pool slot.  (No sign check: the
    bundled objectives only produce non-negative round-0 gains, but the
    evaluator accepts arbitrary ``GainObjective`` weights.)
    """
    if isinstance(task[0], int):
        lo, hi = task
    else:
        lo, hi = task[1], task[2]
    if not isinstance(result, array) or result.typecode != "d":
        return False
    if len(result) != hi - lo:
        return False
    return all(g == g for g in result)
