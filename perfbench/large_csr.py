"""``large_csr``: one seeded paper-band graph on the CSR substrate.

Set-up generates a copying-family graph with hub satellites (the
generators behind the standard stand-ins), writes it to ``.rsky``,
opens it by memmap and starts a warm 2-worker engine session whose
first (cold) refine is part of set-up.  One closed-loop pass runs:

* ``skyline`` — ``neighborhood_skyline(g)``, ``"filter_refine_block"``
  and the warm ``session.refine_sky()``;
* ``join``    — ``neighborhood_skyline(g, "lc_join")``;
* ``group``   — ``lazy_greedy_maximize(g, 16, ClosenessObjective(g),
  candidates=<seeded 192-vertex skyline sample>)`` at the default lane
  width, then the same call through ``session.greedy_maximize``;
* ``clique``  — ``neisky_mc(g)`` at its default (it computes its own
  skyline).

References before timing: the block kernel (for the bloom op, the warm
session and ``lc_join``), the default bloom kernel (for the block op),
the eager greedy strategy (for both greedy ops) and ``mc_brb`` (for
``neisky_mc``).
"""

from __future__ import annotations

import multiprocessing
import random
import time

from checks import check_cliques, check_group, check_skyline, group_objective
from common import WORK, calibrate, median, relabel, speed_factor
from loop import Op, closed_loop_metrics, layer_medians, run_closed_loop
from paper_std import skyline_layers, traced_join, traced_skyline

#: copying_power_law(N_BASE, EXPONENT, COPY_PROB, seed=GRAPH_SEED) plus
#: HUBS hubs with SATELLITES satellites each: 29k vertices / 42k edges,
#: R/V ~0.21 — inside the paper's Fig. 5 band, sized so one pass takes
#: ~6 s on a 2-core host.  The structure is fixed and the workload seed
#: relabels the vertices: regenerating per seed moved the work per pass
#: by tens of percent between seeds.
GRAPH_SEED = 60
N_BASE = 20_000
EXPONENT = 2.4
COPY_PROB = 0.88
HUBS = 3
SATELLITES = 3_000
WORKERS = 2
GROUP_K = 16
SAMPLE = 192
SETUP_REPEATS = 3
GROUPS = ("skyline", "join", "group", "clique")


def generate(seed: int):
    from repro.graph.generators import copying_power_law
    from repro.workloads.synthetic import attach_hub_satellites

    backbone = copying_power_law(N_BASE, EXPONENT, COPY_PROB, seed=GRAPH_SEED)
    graph = attach_hub_satellites(backbone, HUBS, SATELLITES, seed=GRAPH_SEED)
    return relabel(graph, seed, 0)


def _segment_residue(names) -> int:
    """How many of the named shared-memory segments still exist."""
    from multiprocessing import shared_memory

    left = 0
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        seg.close()
        left += 1
    return left


def close_session(session) -> dict:
    """Close ``session``; count the children and segments it left."""
    names = session.plane.segment_names() if session.plane is not None else ()
    session.close()
    return {
        "children": len(multiprocessing.active_children()),
        "residue": _segment_residue(names),
    }


def setup_once(seed: int, rep: int):
    from repro.core.api import engine_session
    from repro.core.counters import SkylineCounters
    from repro.graph.binfmt import read_binary_graph, write_binary_graph

    t = {}
    t0 = time.perf_counter()
    graph = generate(seed)
    t["generate"] = time.perf_counter() - t0
    path = WORK / f"large-{seed}-{rep}.rsky"
    t1 = time.perf_counter()
    write_binary_graph(graph, path)
    t["write"] = time.perf_counter() - t1
    t1 = time.perf_counter()
    graph = read_binary_graph(path)
    t["open"] = time.perf_counter() - t1
    t1 = time.perf_counter()
    session = engine_session(graph, workers=WORKERS)
    counters = SkylineCounters()
    cold = session.refine_sky(counters=counters)
    t["cold"] = time.perf_counter() - t1
    t["total"] = time.perf_counter() - t0
    return graph, path, session, cold, t


def build_ops(graph, session, refs, cand):
    from repro import neighborhood_skyline
    from repro.centrality import ClosenessObjective, lazy_greedy_maximize
    from repro.clique import neisky_mc
    from repro.core.counters import SkylineCounters
    from repro.graph.cores import core_decomposition

    n = graph.num_vertices
    block_sky, block_cand = refs["block"]
    bloom_sky, bloom_cand = refs["bloom"]

    def sky_check(what, ref_sky, ref_cand):
        def check(res):
            check_skyline(what, n, res.skyline, res.dominator, ref_sky,
                          res.candidates, ref_cand)
        return check

    def bloom_run(ctx):
        return neighborhood_skyline(graph)

    bloom_phases = traced_skyline(graph)

    def bloom_traced(ctx, tracer):
        res = bloom_phases(ctx, tracer)
        # Attribution call: the k-core peel the block kernel's pretest
        # and the clique orderings run on.
        with tracer.span("graph.core_decomposition"):
            core_decomposition(graph)
        return res

    def block_traced(ctx, tracer):
        counters = SkylineCounters()
        res = neighborhood_skyline(graph, "filter_refine_block", counters=counters)
        ctx["counts"]["core_pretest_rejects"] = counters.extra.get("core_pretest_rejects", 0)
        return res

    def warm_traced(ctx, tracer):
        counters = SkylineCounters()
        with tracer.span("parallel.warm_refine"):
            res = session.refine_sky(counters=counters)
        ctx["counts"]["resilience"] = ctx["counts"].get("resilience", 0) + _resilience(counters)
        return res

    def lazy_run(ctx, counters=None):
        return lazy_greedy_maximize(graph, GROUP_K, ClosenessObjective(graph),
                                    candidates=cand, counters=counters)

    def lazy_traced(ctx, tracer):
        counters = SkylineCounters()
        res = lazy_run(ctx, counters)
        c = ctx["counts"]
        c["evaluations"] = c.get("evaluations", 0) + res.evaluations
        c["evaluations_saved"] = c.get("evaluations_saved", 0) + res.evaluations_saved
        c["gain_batch"] = counters.extra.get("gain_batch", 1)
        c["lanes"] = counters.extra.get("lanes_evaluated", 0)
        c["lanes_used"] = c["lanes"] - counters.extra.get("lanes_short_circuited", 0)
        return res

    def pooled_run(ctx, counters=None):
        return session.greedy_maximize(GROUP_K, ClosenessObjective(graph),
                                       candidates=cand, counters=counters)

    def pooled_traced(ctx, tracer):
        counters = SkylineCounters()
        with tracer.span("parallel.pooled_greedy"):
            res = pooled_run(ctx, counters)
        ctx["counts"]["resilience"] = ctx["counts"].get("resilience", 0) + _resilience(counters)
        return res

    ref_group, ref_obj = refs["group"]

    def group_check(what):
        def check(res):
            check_group(what, n, res.group, res.gains, ref_group, ref_obj, "closeness")
        return check

    def mc_run(ctx):
        # Default call: neisky_mc computes its own skyline first.
        return [neisky_mc(graph)]

    def mc_traced(ctx, tracer):
        with tracer.span("clique.neisky_mc"):
            res = mc_run(ctx)
        ctx["counts"]["root_pool"] = len(block_sky)
        return res

    def mc_check(res):
        check_cliques("neisky_mc", graph, res, refs["clique_sizes"])

    # Groups alternate so no group's time sits in one stretch of the pass.
    return [
        Op("skyline", "skyline:filter_refine", bloom_run,
           sky_check("filter_refine", block_sky, block_cand), bloom_traced),
        Op("group", "group:lazy_greedy_maximize", lazy_run,
           group_check("lazy_greedy_maximize"), lazy_traced),
        Op("join", "join:lc_join", lambda ctx: neighborhood_skyline(graph, "lc_join"),
           sky_check("lc_join", block_sky, None), traced_join(graph)),
        Op("skyline", "skyline:filter_refine_block",
           lambda ctx: neighborhood_skyline(graph, "filter_refine_block"),
           sky_check("filter_refine_block", bloom_sky, bloom_cand), block_traced),
        Op("clique", "clique:neisky_mc", mc_run, mc_check, mc_traced),
        Op("group", "group:session.greedy_maximize", pooled_run,
           group_check("session.greedy_maximize"), pooled_traced),
        Op("skyline", "skyline:session.refine_sky", lambda ctx: session.refine_sky(),
           sky_check("session.refine_sky", block_sky, block_cand), warm_traced),
    ]


def _resilience(counters) -> int:
    return sum(
        v for k, v in counters.extra.items()
        if k.startswith("resilience_") and isinstance(v, int)
    )


def pass_layers(ctx, tracer, first_span) -> dict:
    total = lambda name: tracer.total(name, first_span)  # noqa: E731
    c = ctx["counts"]
    filter_s = total("core.filter_phase")
    block_op = total("skyline:filter_refine_block")
    join_wall = total("core.lc_join_sky")
    index_s = total("containment.index_build")
    group_wall = total("group:lazy_greedy_maximize")
    layers = {
        "graph.cores_s": total("graph.core_decomposition"),
        "core.filter_s": filter_s,
        "bloom.index_s": total("bloom.VertexBloomIndex"),
        "core.refine_s.bloom": total("core.bloom_refine_pass"),
        # The block op runs the same filter phase first.
        "core.refine_s.block": block_op - filter_s,
        "core.core_pretest_rejects": c["core_pretest_rejects"],
        "containment.index_s": index_s,
        "containment.probe_s": join_wall - index_s,
        "containment.vertices_examined": c.get("join_vertices", 0),
        "centrality.evaluations": c["evaluations"],
        "centrality.evaluations_saved": c["evaluations_saved"],
        "centrality.eval_us": 1e6 * group_wall / c["evaluations"],
        "paths.gain_batch": c["gain_batch"],
        "paths.lanes_evaluated": c["lanes"],
        "paths.lane_yield": c["lanes_used"] / c["lanes"] if c["lanes"] else 0.0,
        "clique.neisky_s": total("clique.neisky_mc"),
        "clique.root_pool": c["root_pool"],
        "parallel.warm_refine_s": total("parallel.warm_refine"),
        "parallel.pooled_group_s": total("parallel.pooled_greedy"),
        "parallel.resilience_events": c.get("resilience", 0),
    }
    layers.update(skyline_layers(c))
    return layers


def run(seed: int, seconds: float, tracer):
    from repro import neighborhood_skyline
    from repro.centrality import ClosenessObjective, greedy_maximize
    from repro.clique import mc_brb

    WORK.mkdir(exist_ok=True)
    setup_samples = calibrate(3)
    reps, closes, paths = [], [], []
    wrong = []
    session = graph = cold = None
    try:
        for rep in range(SETUP_REPEATS):
            if session is not None:
                closes.append(close_session(session))
            graph, path, session, cold, t = setup_once(seed, rep)
            paths.append(path)
            reps.append(t)
        setup_factor = speed_factor(setup_samples + calibrate(3))

        t0 = time.perf_counter()
        block = neighborhood_skyline(graph, "filter_refine_block")
        bloom = neighborhood_skyline(graph)
        cand = sorted(random.Random(seed).sample(block.skyline, SAMPLE))
        greedy = greedy_maximize(graph, GROUP_K, ClosenessObjective(graph), candidates=cand)
        refs = {
            "block": (block.skyline, block.candidates),
            "bloom": (bloom.skyline, bloom.candidates),
            "group": (greedy.group, group_objective(graph, greedy.group, "closeness")),
            "clique_sizes": [len(mc_brb(graph))],
        }
        refs_s = time.perf_counter() - t0
        try:
            check_skyline("cold session.refine_sky", graph.num_vertices, cold.skyline,
                          cold.dominator, block.skyline, cold.candidates, block.candidates)
        except AssertionError as exc:
            wrong.append(str(exc))

        ops = build_ops(graph, session, refs, cand)
        outcome = run_closed_loop(ops, seconds, tracer, pass_layers)
    finally:
        if session is not None:
            closes.append(close_session(session))
        for path in paths:
            path.unlink(missing_ok=True)

    factor = setup_factor
    values = {"setup_s": median(r["total"] for r in reps) * factor}
    values.update(closed_loop_metrics(outcome, GROUPS))
    layers = layer_medians(outcome)
    cold_s = median(r["cold"] for r in reps) * factor
    layers.update({
        "graph.generate_s": median(r["generate"] for r in reps) * factor,
        "graph.rsky_write_s": median(r["write"] for r in reps) * factor,
        "graph.rsky_open_ms": 1000.0 * median(r["open"] for r in reps) * factor,
        "parallel.cold_refine_s": cold_s,
        "parallel.children_after_close": max(c["children"] for c in closes),
        "parallel.shm_residue": sum(c["residue"] for c in closes),
    })
    if "parallel.warm_refine_s" in layers:
        layers["parallel.publish_s"] = cold_s - layers["parallel.warm_refine_s"]
    return {
        "values": values,
        "layers": layers,
        "attempted": outcome.attempted + 1,
        "failed": outcome.failed,
        "wrong": wrong + outcome.wrong,
        "sizes": {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "C": len(block.candidates),
            "R": len(block.skyline),
            "group_candidates": len(cand),
        },
        "info": {"references_s": refs_s, "setup_runs": reps, "closes": closes},
    }
