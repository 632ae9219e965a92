"""Session rebuild safety: atomic publication + zero-residue teardown.

PR 9's serving supervisor heals an engine failure by closing the failed
warm :class:`~repro.parallel.session.EngineSession` and building a
fresh one.  That loop is only safe if (a) a *failed* session
construction — including a mid-publish failure while the CSR segments
go up — leaves nothing behind in ``/dev/shm`` or the plane registry,
and (b) a close→rebuild cycle is hygienic at every intermediate step,
not just at test teardown (the directory conftest's ``residue_check``
fixture probes between the steps).
"""

from __future__ import annotations

import pytest

from repro.parallel.session import EngineSession
from repro.parallel.shm import (
    ShmDataPlane,
    live_segment_names,
    shm_available,
)
from repro.workloads import load

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this host"
)


def test_mid_publish_failure_leaks_nothing(residue_check, monkeypatch):
    """The second CSR publish failing must unlink the first segment."""
    session = EngineSession(load("karate"), workers=1)
    try:
        real_publish = ShmDataPlane.publish
        calls = {"n": 0}

        def failing_publish(plane, data, typecode="B"):
            calls["n"] += 1
            if calls["n"] == 2:  # indptr lands, indices fails
                raise OSError("injected mid-publish failure")
            return real_publish(plane, data, typecode)

        monkeypatch.setattr(ShmDataPlane, "publish", failing_publish)
        with pytest.raises(OSError, match="mid-publish"):
            session.graph_refs()
        # Atomicity: the orphaned indptr segment was unlinked on the
        # failure path, before the exception ever reached us.
        residue_check()
        # The session is still usable: a retry re-publishes both.
        monkeypatch.undo()
        refs = session.graph_refs()
        assert set(refs) == {"indptr", "indices"}
    finally:
        session.close()
    residue_check()


def test_failed_copy_inside_publish_leaks_nothing(
    residue_check, monkeypatch
):
    """A publish whose copy step fails must unlink its own segment.

    The copy into ``shm.buf`` is the only step between segment creation
    and registration with the plane; a failure there used to strand a
    segment nothing owned.  Simulated by wrapping ``SharedMemory`` so
    ``buf`` raises on the publish under test.
    """
    import repro.parallel.shm as shm_mod

    class Boom(Exception):
        pass

    real_shm_cls = shm_mod._shared_memory.SharedMemory

    class FailingShm:
        """Creates a real segment; reading .buf (the copy) explodes."""

        def __init__(self, *args, **kwargs):
            self._real = real_shm_cls(*args, **kwargs)
            self.name = self._real.name

        @property
        def buf(self):
            raise Boom("injected copy failure")

        def close(self):
            self._real.close()

        def unlink(self):
            self._real.unlink()

    plane = ShmDataPlane()
    try:
        monkeypatch.setattr(
            shm_mod._shared_memory, "SharedMemory", FailingShm
        )
        with pytest.raises(Boom):
            plane.publish(b"x" * 64, "B")
        monkeypatch.undo()
        # The created-but-unregistered segment was unlinked on the spot.
        residue_check()
        # The plane survives the failed publish and still works.
        ref = plane.publish(b"hello", "B")
        assert ref.nbytes == 5
    finally:
        plane.close()
    residue_check()


def test_close_rebuild_cycle_is_hygienic(residue_check):
    """The supervisor's heal loop: close, probe residue, rebuild, repeat."""
    graph = load("karate")
    baseline = None
    for cycle in range(3):
        session = EngineSession(graph, workers=1)
        refs = session.graph_refs()
        live = set(live_segment_names())
        assert {r.name for r in refs.values()} <= live
        result = session.refine_sky()
        if baseline is None:
            baseline = result.skyline
        # Rebuilt sessions answer bit-for-bit what the first one did.
        assert result.skyline == baseline
        session.close()
        # The step the serving rebuild path depends on: between a
        # teardown and the next build, *zero* residue.
        residue_check()
    assert live_segment_names() == ()
