"""EngineSession semantics.

The contracts under test:

* **Bit-for-bit equality** — sequential, one-shot pooled and warm
  session calls all return the identical skyline/group, including under
  every injected fault kind.
* **Warm reuse** — the first pooled call of a session is ``"cold"``,
  later calls ``"warm"``; refine and greedy share one pool.
* **Lifecycle** — double-close is a no-op, use-after-close raises
  :class:`ParameterError`, conflicting per-call knobs are rejected,
  and no ``repro_*`` segment outlives any test (enforced by
  ``conftest.py`` for this directory).
"""

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.centrality.lazy_greedy import lazy_greedy_maximize, run_greedy
from repro.core.counters import SkylineCounters
from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError
from repro.graph.generators import copying_power_law
from repro.harness.faults import FaultPlan
from repro.parallel import (
    EngineSession,
    live_segment_names,
    parallel_refine_sky,
    shm_available,
)
from repro.parallel.supervisor import DEFAULT_MAX_RETRIES, DEFAULT_TIMEOUT

from tests.conftest import graphs

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory on this host"
)

HANG_DEADLINE = 1.0

FAULT_PLANS = {
    "crash": FaultPlan.single("crash"),
    "hang": FaultPlan.single("hang", hang_seconds=20.0),
    "slow": FaultPlan.single("slow", slow_seconds=0.05),
    "corrupt": FaultPlan.single("corrupt"),
    "oom": FaultPlan.single("oom"),
}


def _timeout_for(kind: str) -> float:
    return HANG_DEADLINE if kind == "hang" else DEFAULT_TIMEOUT


# ---------------------------------------------------------------------
# Warm reuse and equality
# ---------------------------------------------------------------------
@needs_shm
def test_session_refine_cold_then_warm(karate):
    seq = filter_refine_sky(karate)
    with EngineSession(karate, workers=2) as session:
        labels = []
        for _ in range(3):
            counters = SkylineCounters()
            result = session.refine_sky(
                small_graph_edges=0, counters=counters
            )
            assert result.skyline == seq.skyline
            assert result.dominator == seq.dominator
            assert result.candidates == seq.candidates
            labels.append(counters.extra["parallel_session"])
        assert labels == ["cold", "warm", "warm"]
    assert multiprocessing.active_children() == []


@needs_shm
def test_session_refine_then_greedy_share_one_pool(karate):
    """The refine→greedy serving pattern: one pool, one graph snapshot."""
    seq_sky = filter_refine_sky(karate)
    seq_grp = greedy_maximize(karate, 5, ClosenessObjective(karate))
    with EngineSession(karate, workers=2) as session:
        c_sky = SkylineCounters()
        sky = session.refine_sky(small_graph_edges=0, counters=c_sky)
        c_grp = SkylineCounters()
        grp = session.greedy_maximize(
            5,
            ClosenessObjective(karate),
            small_graph_edges=0,
            counters=c_grp,
        )
        assert sky.skyline == seq_sky.skyline
        assert grp.group == seq_grp.group
        assert grp.gains == seq_grp.gains
        # The greedy call rides the pool the refine call forked.
        assert c_sky.extra["parallel_session"] == "cold"
        assert c_grp.extra["parallel_session"] == "warm"


@needs_shm
def test_session_kernel_switch_stays_exact(karate):
    """bloom → block → bloom on one warm pool: workers rotate their
    per-call state cache without mixing kernels."""
    seq = filter_refine_sky(karate)
    with EngineSession(karate, workers=2) as session:
        for refine in ("bloom", "block", "bloom"):
            result = session.refine_sky(
                small_graph_edges=0, refine=refine
            )
            assert result.skyline == seq.skyline
            assert result.dominator == seq.dominator


@needs_shm
def test_concurrent_sessions_on_two_graphs(karate, small_power_law):
    seq_a = filter_refine_sky(karate)
    seq_b = filter_refine_sky(small_power_law)
    with EngineSession(karate, workers=2) as sa:
        with EngineSession(small_power_law, workers=2) as sb:
            for _ in range(2):
                ra = sa.refine_sky(small_graph_edges=0)
                rb = sb.refine_sky(small_graph_edges=0)
                assert ra.skyline == seq_a.skyline
                assert rb.skyline == seq_b.skyline
        # sb closed; sa still serves.
        assert sa.refine_sky(small_graph_edges=0).skyline == seq_a.skyline


# ---------------------------------------------------------------------
# Lifecycle and conflict rejection
# ---------------------------------------------------------------------
def test_double_close_is_noop(karate):
    session = EngineSession(karate, workers=2)
    assert not session.closed
    session.close()
    session.close()
    assert session.closed
    assert "closed" in repr(session)


def test_use_after_close_raises(karate):
    session = EngineSession(karate, workers=2)
    session.close()
    with pytest.raises(ParameterError, match="closed"):
        session.refine_sky(small_graph_edges=0)
    with pytest.raises(ParameterError, match="closed"):
        session.greedy_maximize(3, ClosenessObjective(karate))
    with pytest.raises(ParameterError, match="closed"):
        with session:
            pass


def test_session_rejects_other_graph(karate, small_power_law):
    with EngineSession(karate, workers=2) as session:
        with pytest.raises(ParameterError, match="different graph"):
            parallel_refine_sky(small_power_law, session=session)
        with pytest.raises(ParameterError, match="different graph"):
            lazy_greedy_maximize(
                small_power_law,
                3,
                ClosenessObjective(small_power_law),
                session=session,
            )


def test_session_rejects_conflicting_knobs(karate):
    with EngineSession(karate, workers=2, timeout=5.0) as session:
        with pytest.raises(ParameterError, match="workers"):
            session.refine_sky(workers=3)
        with pytest.raises(ParameterError, match="fault_plan"):
            session.refine_sky(fault_plan=FaultPlan.single("crash"))
        with pytest.raises(ParameterError, match="timeout"):
            session.refine_sky(timeout=1.0)
        with pytest.raises(ParameterError, match="max_retries"):
            session.refine_sky(max_retries=7)
        objective = ClosenessObjective(karate)
        with pytest.raises(ParameterError, match="workers"):
            session.greedy_maximize(3, objective, workers=3)
        with pytest.raises(ParameterError, match="fault_plan"):
            session.greedy_maximize(
                3, objective, fault_plan=FaultPlan.single("crash")
            )
        with pytest.raises(ParameterError, match="timeout"):
            session.greedy_maximize(3, objective, timeout=1.0)
        with pytest.raises(ParameterError, match="max_retries"):
            session.greedy_maximize(3, objective, max_retries=7)
        # Matching values pass the conflict checks untouched.
        result = session.refine_sky(workers=2, timeout=5.0)
        assert result.skyline == filter_refine_sky(karate).skyline
        group = session.greedy_maximize(3, objective, workers=2, timeout=5.0)
        assert group.group == greedy_maximize(karate, 3, objective).group


def test_session_max_retries_conflict_uses_default(karate):
    """Leaving ``max_retries`` at DEFAULT_MAX_RETRIES defers to a
    session built with another budget, in both engines."""
    with EngineSession(karate, workers=2, max_retries=5) as session:
        session.refine_sky(max_retries=DEFAULT_MAX_RETRIES)
        session.greedy_maximize(
            3, ClosenessObjective(karate), max_retries=DEFAULT_MAX_RETRIES
        )


def test_eager_greedy_rejects_session(karate):
    with EngineSession(karate, workers=2) as session:
        with pytest.raises(ParameterError, match="eager"):
            run_greedy(
                karate,
                3,
                ClosenessObjective(karate),
                strategy="eager",
                session=session,
            )


@needs_shm
def test_segment_cache_is_bounded(karate):
    from repro.parallel.session import _MAX_CACHED_SEGMENTS

    with EngineSession(karate, workers=2) as session:
        refs = [
            session.cached_segment("blob", bytes([i]) * 64, "B")
            for i in range(_MAX_CACHED_SEGMENTS + 8)
        ]
        assert len(session._seg_cache) <= _MAX_CACHED_SEGMENTS
        # Identical content returns the identical (cached) ref.
        again = session.cached_segment(
            "blob", bytes([_MAX_CACHED_SEGMENTS + 7]) * 64, "B"
        )
        assert again == refs[-1]


# ---------------------------------------------------------------------
# Hosts without usable shared memory run in-process
# ---------------------------------------------------------------------
def test_pooled_calls_run_in_process_without_shm(karate, monkeypatch):
    import repro.parallel.shm as shm_mod

    monkeypatch.setattr(shm_mod, "_AVAILABLE", False)
    seq = filter_refine_sky(karate)
    seq_grp = greedy_maximize(karate, 4, ClosenessObjective(karate))

    counters = SkylineCounters()
    result = parallel_refine_sky(
        karate, workers=2, small_graph_edges=0, counters=counters
    )
    assert result.skyline == seq.skyline
    assert result.dominator == seq.dominator
    assert counters.extra["parallel_mode"] == "in-process"

    counters = SkylineCounters()
    group = lazy_greedy_maximize(
        karate,
        4,
        ClosenessObjective(karate),
        workers=2,
        small_graph_edges=0,
        counters=counters,
    )
    assert group.group == seq_grp.group
    assert group.gains == seq_grp.gains
    assert counters.extra["parallel_mode"] == "in-process"

    with EngineSession(karate, workers=2) as session:
        counters = SkylineCounters()
        result = session.refine_sky(small_graph_edges=0, counters=counters)
        assert result.skyline == seq.skyline
        assert result.dominator == seq.dominator
        assert counters.extra["parallel_mode"] == "in-process"
        counters = SkylineCounters()
        group = session.greedy_maximize(
            4, ClosenessObjective(karate), small_graph_edges=0,
            counters=counters,
        )
        assert group.group == seq_grp.group
        assert group.gains == seq_grp.gains
        assert counters.extra["parallel_mode"] == "in-process"
        # Nothing was published: no plane, no segment, no pool.
        assert session.plane is None
        assert session._supervisor is None
    assert live_segment_names() == ()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------
# Chaos: the full fault matrix through a warm session, shm plane
# ---------------------------------------------------------------------
@needs_shm
@pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
def test_session_fault_matrix_stays_exact(karate, kind):
    seq = filter_refine_sky(karate)
    with EngineSession(
        karate,
        workers=2,
        fault_plan=FAULT_PLANS[kind],
        timeout=_timeout_for(kind),
    ) as session:
        for _ in range(2):
            result = session.refine_sky(small_graph_edges=0)
            assert result.skyline == seq.skyline
            assert result.dominator == seq.dominator
    assert multiprocessing.active_children() == []


@needs_shm
def test_oneshot_shm_fault_recovery(karate):
    """One-shot pooled calls (no session) recover and clean up too."""
    seq = filter_refine_sky(karate)
    counters = SkylineCounters()
    result = parallel_refine_sky(
        karate,
        workers=2,
        small_graph_edges=0,
        fault_plan=FaultPlan({(0, a): "oom" for a in range(10)}),
        max_retries=1,
        counters=counters,
    )
    assert result.skyline == seq.skyline
    assert result.dominator == seq.dominator
    assert counters.extra["resilience_fallback_chunks"] >= 1


@needs_shm
def test_session_greedy_fault_recovery(karate):
    seq = greedy_maximize(karate, 4, ClosenessObjective(karate))
    with EngineSession(
        karate, workers=2, fault_plan=FAULT_PLANS["crash"]
    ) as session:
        result = session.greedy_maximize(
            4, ClosenessObjective(karate), small_graph_edges=0
        )
        assert result.group == seq.group
        assert result.gains == seq.gains


# ---------------------------------------------------------------------
# Differential: sequential vs one-shot pooled vs warm session
# ---------------------------------------------------------------------
def _assert_no_recovery(counters: SkylineCounters) -> None:
    # A worker dying at init must not hide behind the sequential
    # fallback: a healthy pooled run records no recovery event at all.
    events = {
        k: v
        for k, v in counters.extra.items()
        if k.startswith("resilience_") and v
    }
    assert not events, f"pooled run degraded: {events}"


@needs_shm
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graphs(max_vertices=18))
def test_planes_agree_with_sequential(graph):
    seq = filter_refine_sky(graph)
    counters = SkylineCounters()
    oneshot = parallel_refine_sky(
        graph, workers=2, small_graph_edges=0, counters=counters
    )
    assert oneshot.skyline == seq.skyline
    assert oneshot.dominator == seq.dominator
    _assert_no_recovery(counters)
    assert "parallel_session" not in counters.extra
    with EngineSession(graph, workers=2) as session:
        for label in ("cold", "warm"):
            counters = SkylineCounters()
            warm = session.refine_sky(
                small_graph_edges=0, counters=counters
            )
            assert warm.skyline == seq.skyline
            assert warm.dominator == seq.dominator
            _assert_no_recovery(counters)
            assert counters.extra["parallel_session"] == label
