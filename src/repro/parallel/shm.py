"""Zero-copy shared-memory data plane for the pooled engines.

The refine and greedy kernels are read-only over frozen snapshots of
one immutable graph, which is exactly the shape
:mod:`multiprocessing.shared_memory` is built for: the parent publishes
each array once and every worker maps it by name, with no per-process
copy and no pickling of graph-scale data.  This is the only transport
the pooled engines use; on a host where no segment can be created
(:func:`shm_available` is false) they run in-process instead.

This module is the plumbing both sides share:

Parent side
    :class:`ShmDataPlane` creates named segments (``repro_*``), copies a
    buffer in once, and hands out :class:`SegmentRef` descriptors —
    tiny picklable ``(name, nbytes, typecode)`` triples that ride inside
    pool initargs and per-chunk task tuples.  Segments are unlinked
    **exactly once**: ``close()`` is idempotent, every plane registers a
    :func:`weakref.finalize` (which the interpreter also runs at exit,
    covering Ctrl-C and :class:`~repro.errors.RecoveryError` unwinds
    that bypass a ``finally``), and a module registry lets tests assert
    nothing is left behind.

Worker side
    :func:`attach_view` maps a segment by name — no copy, no pickle —
    and returns a typed :class:`memoryview` over exactly the published
    bytes (POSIX shared memory rounds segments up to page size, so the
    view must be cut to ``ref.nbytes`` before casting).  Attachments are
    cached per process; the parent owns unlink, and because workers
    share the parent's ``resource_tracker`` process the extra register
    an attach performs is an idempotent no-op.

POSIX unlink semantics make the fault story simple: once every process
that matters has mapped a segment, the parent may unlink it and the
memory survives until the last map drops — so a worker killed and
rebuilt mid-call re-attaches by name *before* the parent unlinks (the
pool initializer re-runs on rebuild with the same initargs), and a
parent dying takes the names with it via the finalize hook.
"""

from __future__ import annotations

import os
import weakref
from typing import NamedTuple, Optional

from multiprocessing import shared_memory as _shared_memory

__all__ = [
    "SegmentRef",
    "ShmDataPlane",
    "attach_view",
    "attached_segment_names",
    "buffer_typecode",
    "live_segment_names",
    "release_attachments",
    "shm_available",
]

#: Integer formats a :class:`memoryview` can round-trip through
#: ``cast`` — the element types :func:`buffer_typecode` preserves.
_CASTABLE_FORMATS = frozenset("bBhHiIlLqQ")


def buffer_typecode(data) -> str:
    """The :class:`SegmentRef` typecode that reproduces ``data``'s view.

    ``array('q')`` snapshots report ``"q"``, ``int32`` ndarrays ``"i"``,
    ``int64`` ndarrays ``"l"`` or ``"q"`` — whatever
    ``memoryview(data).format`` says, as long as :func:`attach_view` can
    ``cast`` to it on the worker side.  Anything else degrades to raw
    bytes ``"B"``.
    """
    fmt = memoryview(data).format
    return fmt if fmt in _CASTABLE_FORMATS else "B"


class SegmentRef(NamedTuple):
    """A picklable handle to one published segment.

    ``nbytes`` is the *published* length — ``SharedMemory.size`` may be
    page-rounded above it — and ``typecode`` is the :mod:`array`-style
    element type the bytes should be viewed as (``"B"`` = raw bytes).
    """

    name: str
    nbytes: int
    typecode: str


# ----------------------------------------------------------------------
# Parent side: publishing
# ----------------------------------------------------------------------

#: Every live parent-owned segment in this process, by name.  Planes add
#: on publish and remove on unlink; tests read it to assert hygiene.
_REGISTRY: dict[str, object] = {}

_AVAILABLE: Optional[bool] = None


def shm_available() -> bool:
    """``True`` iff a segment can actually be created on this host.

    Import success is not enough — a platform without a usable shared
    memory mount raises only at create time — so the first call probes
    with a one-byte segment and the verdict is cached.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = _shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except (OSError, ValueError):
            _AVAILABLE = False
    return _AVAILABLE


def _cleanup_segments(segments: dict) -> None:
    """Close + unlink every segment in ``segments`` (idempotent, total).

    Module-level so a plane's :func:`weakref.finalize` holds no
    reference back to the plane itself.  ``BufferError`` (a live
    exported view) only skips the ``close``; the ``unlink`` — the part
    hygiene depends on — still runs.
    """
    for name, shm in list(segments.items()):
        segments.pop(name, None)
        _REGISTRY.pop(name, None)
        try:
            shm.close()
        except BufferError:
            pass
        except OSError:
            pass
        try:
            shm.unlink()
        except (OSError, FileNotFoundError):
            pass


class ShmDataPlane:
    """Parent-side owner of a set of named shared-memory segments.

    ``publish`` copies a buffer into a fresh segment and returns its
    :class:`SegmentRef`; ``unlink_one`` retires a single call-scoped
    segment early; ``close`` retires everything.  All three are
    idempotent, and an unclosed plane is swept by its finalizer at
    garbage collection or interpreter exit — each segment is unlinked
    exactly once no matter which path runs first.
    """

    def __init__(self):
        if not shm_available():
            from repro.errors import ParameterError

            raise ParameterError(
                "shared memory is unavailable on this host; the pooled "
                "engines run in-process here"
            )
        self._segments: dict[str, object] = {}
        self._counter = 0
        self._finalizer = weakref.finalize(
            self, _cleanup_segments, self._segments
        )

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def segment_names(self) -> tuple[str, ...]:
        """Names of the segments this plane currently owns (for tests)."""
        return tuple(self._segments)

    def publish(self, data, typecode: str = "B") -> SegmentRef:
        """Copy ``data`` (any buffer) into a new segment.

        ``typecode`` is recorded in the ref so :func:`attach_view` can
        hand workers a correctly typed view.  Zero-length buffers get a
        one-byte segment (POSIX rejects empty maps); ``nbytes`` in the
        ref stays 0 and the attached view is empty.
        """
        if self.closed:
            from repro.errors import ParameterError

            raise ParameterError(
                "cannot publish on a closed shared-memory plane"
            )
        mv = memoryview(data)
        nbytes = mv.nbytes
        # Zero-length views can't be cast (empty numpy shapes carry
        # zero strides) — and never need to be: nothing gets copied.
        if nbytes and mv.format != "B":
            mv = mv.cast("B")
        shm = None
        while shm is None:
            self._counter += 1
            name = (
                f"repro_{os.getpid() % 1000000}_"
                f"{os.urandom(3).hex()}{self._counter}"
            )
            try:
                shm = _shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, nbytes)
                )
            except FileExistsError:
                continue
        try:
            if nbytes:
                shm.buf[:nbytes] = mv
        except BaseException:
            # The segment exists but was never registered with the
            # plane; unlink it here or nothing ever will — a failed
            # copy must not strand /dev/shm residue.
            _cleanup_segments({shm.name: shm})
            raise
        self._segments[shm.name] = shm
        _REGISTRY[shm.name] = shm
        return SegmentRef(shm.name, nbytes, typecode)

    def unlink_one(self, ref: SegmentRef) -> None:
        """Retire one segment early (e.g. a call-scoped blob). Idempotent."""
        shm = self._segments.pop(ref.name, None)
        if shm is None:
            return
        _cleanup_segments({ref.name: shm})

    def close(self) -> None:
        """Unlink every owned segment; safe to call any number of times."""
        # detach() disarms the exit-time finalizer, then the same
        # cleanup runs directly — either path unlinks each name once.
        if self._finalizer.detach() is not None:
            _cleanup_segments(self._segments)


def live_segment_names() -> tuple[str, ...]:
    """Every parent-owned segment currently live in this process."""
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# Worker side: attaching
# ----------------------------------------------------------------------

#: Per-process attachment cache: name -> (SharedMemory, base memoryview).
#: Shared by the refine and greedy worker modules so one session pool
#: maps each graph segment once.
_ATTACHED: dict[str, tuple] = {}


def attach_view(ref: SegmentRef) -> memoryview:
    """Map ``ref``'s segment (cached per process) and view its bytes.

    Returns a read-capable :class:`memoryview` of exactly
    ``ref.nbytes`` bytes, cast to ``ref.typecode`` (``"B"`` stays raw).
    The underlying map is cached by name, so repeated attachments — the
    same graph segments across every call of a session — are free.
    """
    entry = _ATTACHED.get(ref.name)
    if entry is None:
        # Attaching re-registers the name with the resource_tracker on
        # 3.10-3.12, but workers share the parent's tracker process
        # (fork and spawn both inherit its pipe), so the register is an
        # idempotent set-add and the parent's single unlink unregisters
        # it exactly once — no untracking dance needed.
        shm = _shared_memory.SharedMemory(name=ref.name)
        entry = (shm, shm.buf)
        _ATTACHED[ref.name] = entry
    view = entry[1][: ref.nbytes]
    if ref.typecode != "B":
        view = view.cast(ref.typecode)
    return view


def attached_segment_names() -> tuple[str, ...]:
    """Names currently mapped in this process (tests/benchmarks)."""
    return tuple(_ATTACHED)


def release_attachments(names) -> None:
    """Drop cached attachments for ``names`` (unknown names ignored).

    Callers must drop their typed views first; a still-exported view
    makes ``close`` raise :class:`BufferError`, in which case the map is
    simply left to die with the process (bounded by the handful of
    per-call segments a worker ever touches).
    """
    for name in list(names):
        entry = _ATTACHED.pop(name, None)
        if entry is None:
            continue
        shm, base = entry
        del base
        try:
            shm.close()
        except BufferError:
            pass
