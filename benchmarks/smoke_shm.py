"""CI shared-memory smoke: pooled calls agree and leave no segments behind.

Plain script (no pytest) so CI can run it in seconds, on every matrix
leg:

* one-shot pooled refine (a throwaway session per call), asserted
  bit-for-bit identical to the sequential engine;
* one warm :class:`~repro.parallel.EngineSession` serving
  refine (cold) → refine (warm) → block refine (warm) → lazy greedy
  round 0 on the same pool, each result checked against its sequential
  reference and the cold/warm labels checked against the contract;
* segment hygiene after every block: the in-process plane registry is
  empty and (on Linux) no ``repro_*`` file survives in ``/dev/shm``.

On a host without usable shared memory the pooled engines run
in-process; the script then checks that every call reports
``parallel_mode == "in-process"`` and still matches the sequential
result.

Usage::

    PYTHONPATH=src python benchmarks/smoke_shm.py [dataset ...]
"""

from __future__ import annotations

import glob
import multiprocessing
import sys

from repro.centrality.greedy import greedy_maximize
from repro.centrality.group_closeness_max import ClosenessObjective
from repro.core.counters import SkylineCounters
from repro.core.filter_refine import filter_refine_sky
from repro.parallel import EngineSession, live_segment_names, shm_available
from repro.parallel.engine import parallel_refine_sky
from repro.workloads import load

DEFAULT_INSTANCES = ("karate", "bombing_proxy")
SMOKE_K = 5


def _assert_no_residue(where: str) -> None:
    assert live_segment_names() == (), (
        f"{where}: plane registry still holds {live_segment_names()}"
    )
    leaked = glob.glob("/dev/shm/repro_*")
    assert not leaked, f"{where}: /dev/shm residue {leaked}"


def run(instances) -> None:
    pooled = shm_available()
    mode = "pool" if pooled else "in-process"
    for name in instances:
        graph = load(name)
        seq_sky = filter_refine_sky(graph)
        seq_greedy = greedy_maximize(
            graph, SMOKE_K, ClosenessObjective(graph)
        )

        # One-shot pooled call: builds and tears down everything.
        counters = SkylineCounters()
        result = parallel_refine_sky(
            graph, workers=2, small_graph_edges=0, counters=counters
        )
        assert result.skyline == seq_sky.skyline, name
        assert result.dominator == seq_sky.dominator, name
        assert counters.extra["parallel_mode"] == mode, name
        assert "parallel_session" not in counters.extra, name
        _assert_no_residue(f"{name}/one-shot")

        # Warm session: one pool and one set of graph segments serving
        # a mixed refine/greedy stream.
        labels = []
        with EngineSession(graph, workers=2) as session:
            for refine in ("bloom", "bloom", "block"):
                counters = SkylineCounters()
                result = session.refine_sky(
                    small_graph_edges=0,
                    refine=refine,
                    counters=counters,
                )
                assert result.skyline == seq_sky.skyline, (name, refine)
                assert result.dominator == seq_sky.dominator, (
                    name,
                    refine,
                )
                assert counters.extra["parallel_mode"] == mode, name
                labels.append(counters.extra.get("parallel_session"))
            counters = SkylineCounters()
            result = session.greedy_maximize(
                SMOKE_K,
                ClosenessObjective(graph),
                small_graph_edges=0,
                counters=counters,
            )
            assert result.group == seq_greedy.group, name
            assert result.gains == seq_greedy.gains, name
            assert counters.extra["parallel_mode"] == mode, name
            labels.append(counters.extra.get("parallel_session"))
        if pooled:
            # First pooled call spins the pool up; the rest reuse it.
            assert labels == ["cold", "warm", "warm", "warm"], labels
        else:
            assert labels == [None] * 4, labels
        _assert_no_residue(f"{name}/session")

        assert multiprocessing.active_children() == [], name
        print(
            f"{name}: one-shot and warm session ({mode}) bit-for-bit "
            "sequential, zero segment residue"
        )


def main(argv) -> int:
    run(tuple(argv) or DEFAULT_INSTANCES)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
