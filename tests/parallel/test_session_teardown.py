"""Serving-grade teardown regressions for :class:`EngineSession`.

The serving layer closes sessions from shutdown paths the one-shot
engines never exercised: a second ``close()`` racing the first, a
``close()`` issued from another thread while a pooled call is still in
flight, and unwinds driven by asyncio cancellation.  The contract in
every case: ``close()`` returns, later calls raise
:class:`ParameterError`, and **zero** ``repro_*`` segments survive —
the zero-residue check runs mechanically in this directory's conftest
teardown hooks after every test.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError, ReproError
from repro.parallel import EngineSession
from repro.workloads import load


def test_double_close_is_idempotent():
    session = EngineSession(load("karate"), workers=2)
    session.refine_sky()
    session.close()
    session.close()  # second close: a no-op, not an error
    assert session.closed
    with pytest.raises(ParameterError):
        session.refine_sky()


def test_concurrent_double_close_from_threads():
    session = EngineSession(load("karate"), workers=2)
    session.refine_sky()  # warm the pool/segments so close has real work
    barrier = threading.Barrier(4)

    def racer():
        barrier.wait()
        session.close()

    threads = [threading.Thread(target=racer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert session.closed


def test_close_during_inflight_call_leaves_no_residue():
    """Close from another thread while a pooled refine is running.

    The in-flight call may finish normally (it raced ahead) or surface
    an error from the killed pool — both are acceptable; what is not
    acceptable is a hang, a crash of the closing thread, or a leaked
    segment (checked by the conftest hooks).
    """
    graph = load("notredame_sim")
    session = EngineSession(graph, workers=2)
    started = threading.Event()
    outcome: dict = {}

    def inflight():
        started.set()
        try:
            # small_graph_edges=0 forces the pooled path even if the
            # stand-in is small on this config.
            outcome["result"] = session.refine_sky(small_graph_edges=0)
        except (ReproError, RuntimeError, OSError) as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=inflight)
    worker.start()
    started.wait(timeout=10)
    session.close()  # races the in-flight call on purpose
    worker.join(timeout=60)
    assert not worker.is_alive(), "in-flight call hung after close()"
    assert session.closed
    assert outcome, "the in-flight call neither returned nor raised"
    if "result" in outcome:
        assert (
            outcome["result"].skyline == filter_refine_sky(graph).skyline
        )


def test_close_from_asyncio_cancellation_path():
    """A cancelled task whose finally closes the session must not leak."""
    graph = load("karate")
    session = EngineSession(graph, workers=2)

    async def main():
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(max_workers=1)
        refined = asyncio.Event()

        async def serve_one():
            try:
                # small_graph_edges=0 forces the pooled path, so the
                # cancelled session owns a warm pool + live segments.
                await loop.run_in_executor(
                    executor,
                    lambda: session.refine_sky(small_graph_edges=0),
                )
                refined.set()
                await asyncio.sleep(30)  # parked until cancellation
            finally:
                # The serving layer's teardown path: close() runs inside
                # a coroutine's finally during cancellation unwind.
                session.close()

        task = asyncio.create_task(serve_one())
        # Let the refine complete so the session is warm when cancelled.
        await asyncio.wait_for(refined.wait(), timeout=60)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        executor.shutdown(wait=True)

    asyncio.run(main())
    assert session.closed
    with pytest.raises(ParameterError):
        session.greedy_maximize(2, object())


def test_close_unlinks_segments_even_if_pool_teardown_raises(monkeypatch):
    """Exception safety: a failing supervisor shutdown must not skip
    the shared-memory unlink (the try/finally under test)."""
    session = EngineSession(load("karate"), workers=2)
    session.refine_sky(small_graph_edges=0)
    supervisor = session._supervisor
    if supervisor is not None:  # hosts without shm have no warm pool

        def exploding_shutdown():
            raise RuntimeError("injected teardown failure")

        monkeypatch.setattr(supervisor, "shutdown", exploding_shutdown)
        with pytest.raises(RuntimeError, match="injected"):
            session.close()
        # The pool teardown failed, but the session is closed and its
        # plane unlinked — the conftest hooks verify zero residue.
        assert session.closed
        supervisor.__exit__(None, None, None)  # reap the real pool
    else:
        session.close()
    session.close()  # still idempotent afterwards
