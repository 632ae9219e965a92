"""Unit tests for the deterministic fault-injection harness."""

import pickle
import time

import pytest

from repro.harness.faults import (
    CORRUPT_PAYLOAD,
    FAULT_KINDS,
    FaultPlan,
    active_fault,
    install_fault_plan,
    perform_fault,
    wants_corrupt_return,
)
from repro.parallel.worker import validate_status_chunk, validate_witness_chunk


@pytest.fixture(autouse=True)
def _clean_plan():
    """Never leak an installed plan between tests (module state)."""
    yield
    install_fault_plan(None)


# -- FaultPlan construction -------------------------------------------
def test_unknown_kind_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan({(0, 0): "segfault"})


def test_single_builds_one_cell_plan():
    plan = FaultPlan.single("oom", chunk_id=3, attempt=1)
    assert plan.fault_for(3, 1) == "oom"
    assert plan.fault_for(3, 0) is None
    assert plan.fault_for(0, 0) is None


def test_seeded_is_deterministic_and_seed_sensitive():
    a = FaultPlan.seeded(42)
    b = FaultPlan.seeded(42)
    c = FaultPlan.seeded(43)
    assert a == b
    assert a.faults  # default rate produces a non-empty plan
    assert a != c
    assert all(kind in FAULT_KINDS for kind in a.faults.values())
    # Hangs are excluded by default — a seeded sweep must stay fast.
    assert "hang" not in a.faults.values()


def test_plan_pickles_roundtrip():
    plan = FaultPlan.single("crash", slow_seconds=0.2, hang_seconds=3.0)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.slow_seconds == 0.2
    assert clone.hang_seconds == 3.0


# -- install / lookup --------------------------------------------------
def test_active_fault_consults_installed_plan():
    assert active_fault(0, 0) is None
    install_fault_plan(FaultPlan.single("slow", chunk_id=2))
    assert active_fault(2, 0) == "slow"
    assert active_fault(2, 1) is None
    install_fault_plan(None)
    assert active_fault(2, 0) is None


# -- perform_fault semantics ------------------------------------------
def test_perform_slow_sleeps_then_continues():
    install_fault_plan(FaultPlan({}, slow_seconds=0.02))
    start = time.perf_counter()
    assert perform_fault("slow") is None
    assert time.perf_counter() - start >= 0.02


def test_perform_oom_raises_memory_error():
    with pytest.raises(MemoryError, match="injected"):
        perform_fault("oom")


def test_perform_corrupt_yields_sentinel():
    token = perform_fault("corrupt")
    assert wants_corrupt_return(token)
    assert not wants_corrupt_return(CORRUPT_PAYLOAD)
    assert not wants_corrupt_return(None)


def test_perform_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown fault kind"):
        perform_fault("bitflip")


# -- the corrupt payload is rejected by every chunk schema -------------
def test_corrupt_payload_fails_chunk_validation():
    # Tasks are (spec, lo, hi[, dominated_ref]); validators read lo/hi.
    assert not validate_status_chunk((None, 0, 4), CORRUPT_PAYLOAD)
    assert not validate_witness_chunk((None, 0, 4, None), CORRUPT_PAYLOAD)


# -- ServeFaultPlan (PR 9: serving-layer chaos) ------------------------
def test_serve_plan_unknown_kind_rejected():
    from repro.harness.faults import SERVE_FAULT_KINDS, ServeFaultPlan

    with pytest.raises(ValueError, match="unknown serve fault kind"):
        ServeFaultPlan({("g", 0): "crash"})  # a pool kind, not a serve kind
    assert "engine-exception" in SERVE_FAULT_KINDS
    # seeded() validates the whole menu up front — sampling might never
    # draw the typo into a cell, and a bad plan must fail every time.
    with pytest.raises(ValueError, match="unknown serve fault kind"):
        ServeFaultPlan.seeded(1, ["g"], kinds=("engine-exception", "typo"))
    with pytest.raises(ValueError, match="rate"):
        ServeFaultPlan.seeded(1, ["g"], rate=1.5)


def test_serve_plan_exact_and_wildcard_cells():
    from repro.harness.faults import ServeFaultPlan

    plan = ServeFaultPlan(
        {("g", 3): "slow", ("h", None): "engine-exception"}
    )
    assert plan.fault_for("g", 3) == "slow"
    assert plan.fault_for("g", 4) is None
    # Wildcard: every dispatch of h faults; exact cells win over it.
    assert plan.fault_for("h", 0) == "engine-exception"
    assert plan.fault_for("h", 999) == "engine-exception"
    exact_wins = ServeFaultPlan({("h", 1): "slow", ("h", None): "hang"})
    assert exact_wins.fault_for("h", 1) == "slow"
    assert exact_wins.fault_for("h", 2) == "hang"


def test_serve_plan_constructors_and_determinism():
    from repro.harness.faults import ServeFaultPlan

    single = ServeFaultPlan.single("hang", "g", 2, hang_seconds=1.5)
    assert single.fault_for("g", 2) == "hang"
    assert single.hang_seconds == 1.5
    always = ServeFaultPlan.always("session-poison", "g")
    assert always.fault_for("g", 123) == "session-poison"
    a = ServeFaultPlan.seeded(11, ["g", "h"], rate=0.3)
    b = ServeFaultPlan.seeded(11, ["g", "h"], rate=0.3)
    c = ServeFaultPlan.seeded(12, ["g", "h"], rate=0.3)
    assert a == b
    assert a != c
    assert a.faults and all(g in ("g", "h") for g, _ in a.faults)


def test_serve_plan_pickles_roundtrip():
    from repro.harness.faults import ServeFaultPlan

    plan = ServeFaultPlan.seeded(5, ["g"], rate=0.4, slow_seconds=0.2)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.slow_seconds == 0.2
