"""Set-containment join via list crosscutting (LC-Join style).

Given a query set ``Q`` and a data set ``S``, find for every query
``q`` all records ``s ∈ S`` with ``q ⊆ s``.  The core idea of LC-Join
(Deng et al., ICDE'19) as used here: the answer set for ``q`` is the
intersection of the inverted-index posting lists of ``q``'s elements, and
intersecting *from the rarest list outward* ("crosscutting") keeps the
intermediate candidate sets small with early termination as soon as the
intersection becomes empty.

Two kernels compute that intersection:

* **scalar** — the classic rarest-first crosscut: pairwise sorted
  intersections (galloping binary search), early exit on empty.  Runs
  everywhere; the differential oracle for the vector kernel.
* **vector** — a counting-identity pass over the *concatenated*
  postings: every posting holds each record ID at most once (records
  are deduplicated sets), so a record contains the query iff its ID
  occurs once per query element, i.e. iff
  ``np.bincount(concat)[r] == len(query)``.  One ``np.concatenate`` +
  ``np.bincount`` + ``np.nonzero`` replaces the whole per-element
  intersection chain, and ``np.nonzero``'s ascending output is exactly
  the scalar crosscut's result order.

``kernel="auto"`` picks per index via :func:`choose_join_kernel`:
scalar on indexes too small to amortize ndarray overhead, vector
otherwise.  Both kernels return identical record-ID lists, so
the choice is purely an execution knob.

This module is generic over :class:`RecordSet`; the skyline-specific
adapter lives in :mod:`repro.core.join_sky`.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as _np

from repro.containment.inverted import InvertedIndex
from repro.containment.records import RecordSet
from repro.errors import ParameterError

__all__ = ["ContainmentJoin", "choose_join_kernel"]

#: Below this many total posting entries the whole index is so small
#: that ndarray call overhead beats the bincount pass — stay scalar.
JOIN_KERNEL_MIN_ENTRIES = 256

#: ``np.intersect1d`` floor for the scalar crosscut's pairwise step:
#: both sides must be at least this long (and ndarrays) before the
#: vectorized set intersection beats the galloping loop's early exits.
INTERSECT_VECTOR_MIN = 16


def _intersect_sorted(a, b):
    """Intersection of two sorted unique sequences of ints.

    Lists or ndarrays; ndarrays of at least :data:`INTERSECT_VECTOR_MIN`
    on both sides take the ``np.intersect1d`` fast path
    (``assume_unique`` holds: postings and their intersections never
    repeat an ID).  Both paths return the same IDs in ascending order.
    """
    if (
        isinstance(a, _np.ndarray)
        and isinstance(b, _np.ndarray)
        and len(a) >= INTERSECT_VECTOR_MIN
        and len(b) >= INTERSECT_VECTOR_MIN
    ):
        return _np.intersect1d(a, b, assume_unique=True)
    if len(a) > len(b):
        a, b = b, a
    out: list[int] = []
    from bisect import bisect_left

    lo = 0
    len_b = len(b)
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo == len_b:
            break
        if b[lo] == x:
            out.append(x)
            lo += 1
    return out


def choose_join_kernel(total_entries: int, num_records: int) -> str:
    """The ``kernel="auto"`` cutover: ``"scalar"`` or ``"vector"``.

    * tiny indexes (< :data:`JOIN_KERNEL_MIN_ENTRIES` posting entries)
      → ``"scalar"`` (ndarray call overhead dominates);
    * extremely sparse indexes (``total_entries * 8 < num_records``)
      → ``"scalar"`` (the bincount's ``minlength=num_records`` zeroing
      outweighs the few entries actually counted);
    * everything else → ``"vector"``.
    """
    if total_entries < JOIN_KERNEL_MIN_ENTRIES:
        return "scalar"
    if total_entries * 8 < num_records:
        return "scalar"
    return "vector"


class ContainmentJoin:
    """Joins a query :class:`RecordSet` against a data :class:`RecordSet`.

    ``kernel`` is ``"auto"`` (pick via :func:`choose_join_kernel`),
    ``"scalar"`` or ``"vector"``.  Identical results either way.

    >>> data = RecordSet([{1, 2, 3}, {2, 3}, {4}])
    >>> queries = RecordSet([{2, 3}])
    >>> ContainmentJoin(data).containing_records(queries.record(0))
    [0, 1]
    """

    def __init__(self, data: RecordSet, *, kernel: str = "auto"):
        if kernel not in ("auto", "scalar", "vector"):
            raise ParameterError(
                f"unknown join kernel {kernel!r}; choose 'auto', "
                "'scalar' or 'vector'"
            )
        self._data = data
        self._index = InvertedIndex(data)
        if kernel == "auto":
            kernel = choose_join_kernel(
                self._index.memory_entries(), len(data)
            )
        self._kernel = kernel

    @property
    def index(self) -> InvertedIndex:
        """The underlying inverted index (exposed for memory accounting)."""
        return self._index

    @property
    def kernel(self) -> str:
        """The resolved intersection kernel (``"scalar"``/``"vector"``)."""
        return self._kernel

    def containing_records(
        self, query: tuple[int, ...], *, limit: Optional[int] = None
    ) -> list[int]:
        """All record IDs whose record is a superset of ``query``.

        An empty query matches every record (standard join semantics; the
        skyline adapter special-cases isolated vertices before calling).
        ``limit`` stops early once that many results are known — the
        skyline use only needs to know whether a suitable dominator
        exists at all.  Always a fresh list of Python ints, never a view
        of index internals.
        """
        if not query:
            result = list(range(len(self._data)))
            return result[:limit] if limit is not None else result
        if self._kernel == "vector":
            return self._containing_vector(query, limit)
        # Crosscutting: intersect posting lists rarest-first.
        lists = sorted(
            (self._index.postings(x) for x in query), key=len
        )
        candidates = lists[0]
        for postings in lists[1:]:
            if not len(candidates):
                return []
            candidates = _intersect_sorted(candidates, postings)
        if limit is not None:
            candidates = candidates[:limit]
        return [int(r) for r in candidates]

    def _containing_vector(
        self, query: tuple[int, ...], limit: Optional[int]
    ) -> list[int]:
        """Counting-identity kernel (see module docstring)."""
        postings = self._index.postings
        lists = [postings(x) for x in query]
        for p in lists:
            if not len(p):
                return []
        if len(lists) == 1:
            hits = lists[0]
        else:
            counts = _np.bincount(
                _np.concatenate(lists), minlength=len(self._data)
            )
            hits = _np.nonzero(counts == len(lists))[0]
        if limit is not None:
            hits = hits[:limit]
        return [int(r) for r in hits]

    def join(
        self, queries: RecordSet
    ) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(query_id, [record ids containing it])`` for all queries."""
        for qid in range(len(queries)):
            yield qid, self.containing_records(queries.record(qid))
