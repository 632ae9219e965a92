"""Engine-level tests: scheduling, fallback, determinism, resource hygiene."""

import gc
import multiprocessing
import os

import pytest

from repro.core import neighborhood_skyline
from repro.core.counters import SkylineCounters
from repro.core.filter_refine import filter_refine_sky
from repro.errors import ParameterError
from repro.graph.generators import chung_lu_power_law, copying_power_law
from repro.parallel import (
    SMALL_GRAPH_EDGES,
    chunk_ranges,
    default_chunk_size,
    default_worker_count,
    parallel_refine_sky,
)


# ---------------------------------------------------------------------
# Chunking helpers
# ---------------------------------------------------------------------
def test_chunk_ranges_cover_exactly():
    ranges = chunk_ranges(10, 4)
    assert ranges == [(0, 4), (4, 8), (8, 10)]
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(10))


def test_chunk_ranges_empty():
    assert chunk_ranges(0, 4) == []


def test_chunk_ranges_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        chunk_ranges(10, 0)
    with pytest.raises(ParameterError):
        chunk_ranges(-1, 1)


def test_default_chunk_size_bounds():
    assert default_chunk_size(0, 4) == 1
    assert default_chunk_size(5, 64) == 1
    assert default_chunk_size(1000, 2) == 125
    with pytest.raises(ParameterError):
        default_chunk_size(10, 0)


def test_default_worker_count_positive():
    assert default_worker_count() >= 1


# ---------------------------------------------------------------------
# Parameter validation and fallback behavior
# ---------------------------------------------------------------------
def test_workers_zero_raises(karate):
    with pytest.raises(ParameterError, match="workers"):
        parallel_refine_sky(karate, workers=0)


def test_workers_negative_raises(karate):
    with pytest.raises(ParameterError, match="workers"):
        parallel_refine_sky(karate, workers=-2)


def test_chunk_size_zero_raises(karate):
    with pytest.raises(ParameterError, match="chunk_size"):
        parallel_refine_sky(karate, chunk_size=0)


def test_bad_bloom_bits_raises(karate):
    with pytest.raises(ParameterError, match="multiple of 32"):
        parallel_refine_sky(karate, bloom_bits=33)


def test_approximate_mode_rejected(karate):
    with pytest.raises(ParameterError, match="exact"):
        parallel_refine_sky(karate, exact=False)


def test_unknown_refine_kernel_rejected(karate):
    for kernel in ("murmur", "bitset", "auto"):
        with pytest.raises(ParameterError, match="refine kernel"):
            parallel_refine_sky(karate, refine=kernel)


def test_small_graph_stays_in_process(karate):
    assert karate.num_edges < SMALL_GRAPH_EDGES
    counters = SkylineCounters()
    result = parallel_refine_sky(karate, workers=4, counters=counters)
    assert counters.extra["parallel_mode"] == "in-process"
    assert result.skyline == filter_refine_sky(karate).skyline


def test_threshold_override_uses_pool(karate):
    counters = SkylineCounters()
    result = parallel_refine_sky(
        karate, workers=2, small_graph_edges=0, counters=counters
    )
    assert counters.extra["parallel_mode"] == "pool"
    seq = filter_refine_sky(karate)
    assert result.skyline == seq.skyline
    assert result.dominator == seq.dominator


def test_registered_with_api(karate):
    result = neighborhood_skyline(
        karate, "filter_refine_parallel", workers=2
    )
    assert result.algorithm == "FilterRefineSkyParallel"
    assert result.skyline == filter_refine_sky(karate).skyline


#: The scheduling keys every run writes.
SCHEDULING_KEYS = {
    "parallel_mode",
    "parallel_workers",
    "parallel_chunks",
    "parallel_rescans",
}

#: What a one-shot pooled run adds on top: the segment publish time and
#: the supervisor's recovery tallies (no ``parallel_session`` label —
#: that belongs to calls on a caller's session).
POOLED_KEYS = {
    "plane_publish_s",
    "resilience_retries",
    "resilience_fallback_chunks",
    "resilience_worker_crashes",
    "resilience_deadline_kills",
    "resilience_worker_errors",
    "resilience_corrupt_payloads",
    "resilience_pool_rebuilds",
    "resilience_backoffs",
}

#: The refine-related ``counters.extra`` keys each kernel writes.
REFINE_KEYS = {
    "bloom": {"refine_path"},
    "block": {"refine_path", "core_pretest_rejects"},
}


def test_pooled_counters_match_in_process():
    g = copying_power_law(300, 2.5, 0.85, seed=3)
    for refine, refine_keys in REFINE_KEYS.items():
        inproc = SkylineCounters()
        r1 = parallel_refine_sky(
            g, workers=1, refine=refine, counters=inproc
        )
        pooled = SkylineCounters()
        r2 = parallel_refine_sky(
            g, workers=2, small_graph_edges=0, refine=refine, counters=pooled
        )
        assert r1.skyline == r2.skyline
        assert r1.dominator == r2.dominator
        assert pooled.as_dict() == inproc.as_dict()
        assert pooled.extra["parallel_mode"] == "pool"
        assert inproc.extra["parallel_mode"] == "in-process"
        assert inproc.extra["refine_path"] == refine
        assert set(inproc.extra) == SCHEDULING_KEYS | refine_keys
        assert set(pooled.extra) == (
            SCHEDULING_KEYS | refine_keys | POOLED_KEYS
        )


# ---------------------------------------------------------------------
# Stress: repeated pooled runs are deterministic and leak nothing
# ---------------------------------------------------------------------
def test_stress_determinism_and_clean_shutdown():
    g = chung_lu_power_law(2000, 2.7, average_degree=6.0, seed=42)
    seq = filter_refine_sky(g)
    gc.collect()
    fd_dir = "/proc/self/fd"
    fd_baseline = (
        len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    )

    results = [
        parallel_refine_sky(g, workers=4, small_graph_edges=0)
        for _ in range(5)
    ]

    for result in results:
        assert result.skyline == seq.skyline
        assert result.dominator == seq.dominator
        assert result.candidates == seq.candidates

    # Pools are closed and joined before the engine returns: no worker
    # may outlive the call, and (on platforms that expose fds) the pipe
    # descriptors must have been returned.
    assert multiprocessing.active_children() == []
    if fd_baseline is not None:
        gc.collect()
        assert len(os.listdir(fd_dir)) <= fd_baseline + 3
