"""CI data-plane smoke: both planes agree and leave no segments behind.

Plain script (no pytest) so CI can run it in seconds, on every matrix
leg:

* one-shot pooled refine on the pickle and shm planes, each asserted
  bit-for-bit identical to the sequential engine;
* one warm :class:`~repro.parallel.EngineSession` serving
  refine (cold) → refine (warm) → block refine (warm) → lazy greedy
  round 0 on the same pool, each result checked against its sequential
  reference and the cold/warm labels checked against the contract;
* segment hygiene after every block: the in-process plane registry is
  empty and (on Linux) no ``repro_*`` file survives in ``/dev/shm``.

Set ``REPRO_DATA_PLANE=pickle`` (or ``shm``) to pin every call to one
plane — CI uses the pickle pin on one leg so the fallback plane keeps
getting exercised end-to-end even on shm-capable runners.  On a host
without usable shared memory the shm blocks are skipped and the script
still passes on the pickle plane alone.

Usage::

    PYTHONPATH=src python benchmarks/smoke_shm.py [dataset ...]
"""

from __future__ import annotations

import glob
import multiprocessing
import os
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


def _planes() -> tuple[str, ...]:
    pinned = os.environ.get("REPRO_DATA_PLANE")
    if pinned:
        if pinned == "shm" and not shm_available():
            raise SystemExit(
                "REPRO_DATA_PLANE=shm but this host has no usable "
                "shared memory"
            )
        return (pinned,)
    return ("pickle", "shm") if shm_available() else ("pickle",)


def run(instances) -> None:
    planes = _planes()
    for name in instances:
        graph = load(name)
        seq_sky = filter_refine_sky(graph)
        seq_greedy = greedy_maximize(
            graph, SMOKE_K, ClosenessObjective(graph)
        )

        # One-shot pooled calls: each builds and tears down everything.
        for plane in planes:
            counters = SkylineCounters()
            result = parallel_refine_sky(
                graph,
                workers=2,
                small_graph_edges=0,
                counters=counters,
                data_plane=plane,
            )
            assert result.skyline == seq_sky.skyline, (name, plane)
            assert result.dominator == seq_sky.dominator, (name, plane)
            assert counters.extra["data_plane"] == plane, (name, plane)
            _assert_no_residue(f"{name}/one-shot/{plane}")

        # Warm session: one pool and one set of graph segments serving
        # a mixed refine/greedy stream.
        for plane in planes:
            labels = []
            with EngineSession(
                graph, workers=2, data_plane=plane
            ) as session:
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
                    labels.append(counters.extra["parallel_session"])
                counters = SkylineCounters()
                result = session.greedy_maximize(
                    SMOKE_K,
                    ClosenessObjective(graph),
                    small_graph_edges=0,
                    counters=counters,
                )
                assert result.group == seq_greedy.group, (name, plane)
                assert result.gains == seq_greedy.gains, (name, plane)
                labels.append(counters.extra["parallel_session"])
            if plane == "shm":
                # First pooled call spins the pool up; the rest reuse it.
                assert labels == ["cold", "warm", "warm", "warm"], labels
            else:
                # The pickle plane has no warm path: every call re-ships.
                assert labels == ["cold"] * 4, labels
            _assert_no_residue(f"{name}/session/{plane}")

        assert multiprocessing.active_children() == [], name
        print(
            f"{name}: planes {'/'.join(planes)} bit-for-bit sequential, "
            "zero segment residue"
        )


def main(argv) -> int:
    run(tuple(argv) or DEFAULT_INSTANCES)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
