"""``paper_std``: the paper's standard tier at default knobs, closed loop.

One pass runs four op groups on seeded relabelings of the registry
datasets:

* ``skyline`` — ``neighborhood_skyline(g)`` on the 8 standard stand-ins;
* ``join``    — ``neighborhood_skyline(g, "lc_join")`` on the 5 Table I sets;
* ``group``   — ``group_centrality_maximize(g, 16)`` as-is, with
  ``use_skyline=False`` and with ``measure="harmonic"`` on the Fig. 7/8
  900-vertex wikitalk/dblp instances;
* ``clique``  — ``neisky_topk_mcc(g, 3)`` and ``base_topk_mcc(g, 3)`` on
  pokec/orkut.

References (before timing, excluded from ``setup_s``): the block
kernel's skyline/candidates, the lazy (CELF) greedy's group with its
objective recomputed by ``group_closeness``/``group_harmonic``, and for
each top-k clique variant the other variant's sizes.
"""

from __future__ import annotations

import time

from checks import check_cliques, check_group, check_skyline, group_objective
from common import calibrate, median, relabel, speed_factor
from loop import Op, closed_loop_metrics, layer_medians, run_closed_loop

STANDARD = (
    "dblp_sim",
    "flixster_sim",
    "livejournal_sim",
    "notredame_sim",
    "orkut_sim",
    "pokec_sim",
    "wikitalk_sim",
    "youtube_sim",
)
CLIQUE_SETS = ("pokec_sim", "orkut_sim")
CLIQUE_K = 3
GROUP_K = 16

#: The Fig. 7/8 centrality instances: a 900-vertex copying backbone per
#: dataset (exponent, copy probability, generator seed), largest
#: connected component kept.
CENTRALITY = {
    "wikitalk_sim": (2.9, 0.93, 203),
    "dblp_sim": (2.1, 0.80, 205),
}
CENTRALITY_N = 900
GROUP_CALLS = (
    ("as_is", {}),
    ("base", {"use_skyline": False}),
    ("harmonic", {"measure": "harmonic"}),
)

SETUP_REPEATS = 3
GROUPS = ("skyline", "join", "group", "clique")


def build_inputs(seed: int):
    """Generate every graph of the workload; returns (inputs, load_s)."""
    from repro.graph.components import largest_connected_component
    from repro.graph.generators import copying_power_law
    from repro.workloads import spec

    t0 = time.perf_counter()
    raw = {name: spec(name).load() for name in STANDARD}
    load_s = time.perf_counter() - t0
    graphs = {
        name: relabel(graph, seed, salt)
        for salt, (name, graph) in enumerate(raw.items())
    }
    centrality = {}
    for salt, (name, (exponent, copy_prob, gen_seed)) in enumerate(CENTRALITY.items()):
        backbone = copying_power_law(CENTRALITY_N, exponent, copy_prob, seed=gen_seed)
        lcc, _mapping = largest_connected_component(backbone)
        centrality[name] = relabel(lcc, seed, 100 + salt)
    return {"graphs": graphs, "centrality": centrality}, load_s


def references(inputs):
    from repro import neighborhood_skyline
    from repro.clique import base_topk_mcc, neisky_topk_mcc
    from repro.core.api import group_centrality_maximize

    refs = {"sky": {}, "group": {}, "clique": {}}
    for name, graph in inputs["graphs"].items():
        res = neighborhood_skyline(graph, "filter_refine_block")
        refs["sky"][name] = (res.skyline, res.candidates)
    for name, graph in inputs["centrality"].items():
        for label, kwargs in GROUP_CALLS:
            res = group_centrality_maximize(graph, GROUP_K, strategy="lazy", **kwargs)
            measure = kwargs.get("measure", "closeness")
            refs["group"][(name, label)] = (
                res.group,
                group_objective(graph, res.group, measure),
            )
    for name in CLIQUE_SETS:
        graph = inputs["graphs"][name]
        # Each variant is checked against the *other* variant's sizes.
        refs["clique"][(name, "neisky")] = [len(c) for c in base_topk_mcc(graph, CLIQUE_K)]
        refs["clique"][(name, "base")] = [len(c) for c in neisky_topk_mcc(graph, CLIQUE_K)]
    return refs


def traced_skyline(graph):
    """``filter_refine_sky`` as its three public phases, one span each."""
    from repro.bloom.vertex_filters import VertexBloomIndex
    from repro.core.counters import SkylineCounters
    from repro.core.filter_phase import filter_phase
    from repro.core.filter_refine import bloom_refine_pass
    from repro.core.result import SkylineResult

    def run(ctx, tracer):
        counters = SkylineCounters()
        with tracer.span("core.filter_phase"):
            candidates, dominator = filter_phase(graph, counters=counters)
        with tracer.span("bloom.VertexBloomIndex"):
            blooms = VertexBloomIndex(graph, candidates)
        with tracer.span("core.bloom_refine_pass"):
            bloom_refine_pass(graph, candidates, dominator, blooms, counters)
        n = graph.num_vertices
        result = SkylineResult(
            skyline=tuple(u for u in range(n) if dominator[u] == u),
            dominator=tuple(dominator),
            candidates=tuple(candidates),
            algorithm="FilterRefineSky",
            counters=counters,
        )
        add_skyline_counts(ctx["counts"], n, result, counters)
        return result

    return run


def add_skyline_counts(counts, n, result, counters):
    c = counts
    c["n"] = c.get("n", 0) + n
    c["C"] = c.get("C", 0) + len(result.candidates)
    c["R"] = c.get("R", 0) + len(result.skyline)
    for key in ("pair_tests", "nbr_checks", "bloom_member_checks",
                "bloom_member_rejects", "bloom_false_positives"):
        c[key] = c.get(key, 0) + getattr(counters, key)
    c["filter_pretest_rejects"] = (
        c.get("filter_pretest_rejects", 0) + counters.extra.get("filter_pretest_rejects", 0)
    )


def skyline_layers(counts) -> dict:
    passed = counts.get("bloom_member_checks", 0) - counts.get("bloom_member_rejects", 0)
    return {
        "core.candidate_frac": counts["C"] / counts["n"],
        "core.skyline_frac": counts["R"] / counts["n"],
        "core.refine_yield": counts["R"] / counts["C"] if counts["C"] else 0.0,
        "core.pair_tests": counts["pair_tests"],
        "core.nbr_checks": counts["nbr_checks"],
        "core.bloom_precision": (
            (passed - counts["bloom_false_positives"]) / passed if passed else 1.0
        ),
        "core.filter_pretest_rejects": counts["filter_pretest_rejects"],
    }


def traced_join(graph):
    from repro import neighborhood_skyline
    from repro.containment.lcjoin import ContainmentJoin
    from repro.containment.records import RecordSet
    from repro.core.counters import SkylineCounters

    def run(ctx, tracer):
        counters = SkylineCounters()
        with tracer.span("core.lc_join_sky"):
            result = neighborhood_skyline(graph, "lc_join", counters=counters)
        # Attribution call: the index lc_join_sky builds first, built
        # again on its own so its share of the op can be subtracted.
        with tracer.span("containment.index_build"):
            ContainmentJoin(RecordSet.closed_neighborhoods(graph))
        counts = ctx["counts"]
        counts["join_vertices"] = counts.get("join_vertices", 0) + counters.vertices_examined
        return result

    return run


def build_ops(inputs, refs):
    from repro import neighborhood_skyline
    from repro.clique import base_topk_mcc, neisky_topk_mcc
    from repro.core.api import group_centrality_maximize
    from repro.paths.csr import resolve_gain_batch

    ops = []
    for name in STANDARD:
        graph = inputs["graphs"][name]
        ref_sky, ref_cand = refs["sky"][name]

        def check(res, name=name, graph=graph, ref_sky=ref_sky, ref_cand=ref_cand):
            check_skyline(f"skyline {name}", graph.num_vertices, res.skyline,
                          res.dominator, ref_sky, res.candidates, ref_cand)

        ops.append(Op("skyline", f"skyline:{name}",
                      lambda ctx, g=graph: neighborhood_skyline(g), check,
                      traced_skyline(graph)))
    from repro.workloads import TABLE1_NAMES

    for name in TABLE1_NAMES:
        graph = inputs["graphs"][name]
        ref_sky, _cand = refs["sky"][name]

        def check(res, name=name, graph=graph, ref_sky=ref_sky):
            check_skyline(f"lc_join {name}", graph.num_vertices, res.skyline,
                          res.dominator, ref_sky)

        ops.append(Op("join", f"join:{name}",
                      lambda ctx, g=graph: neighborhood_skyline(g, "lc_join"),
                      check, traced_join(graph)))
    for name, graph in inputs["centrality"].items():
        for label, kwargs in GROUP_CALLS:
            ref_group, ref_obj = refs["group"][(name, label)]
            measure = kwargs.get("measure", "closeness")

            def run(ctx, g=graph, kwargs=kwargs):
                return group_centrality_maximize(g, GROUP_K, **kwargs)

            def traced(ctx, tracer, run=run, g=graph):
                res = run(ctx)
                counts = ctx["counts"]
                counts["evaluations"] = counts.get("evaluations", 0) + res.evaluations
                counts["evaluations_saved"] = (
                    counts.get("evaluations_saved", 0) + res.evaluations_saved
                )
                batch = resolve_gain_batch("auto", g.num_vertices, res.pool_size)
                counts["gain_batch"] = max(counts.get("gain_batch", 0), batch)
                if batch > 1:
                    # The eager strategy scores every evaluation as one
                    # lane and never speculates.
                    counts["lanes"] = counts.get("lanes", 0) + res.evaluations
                    counts["lanes_used"] = counts.get("lanes_used", 0) + res.evaluations
                return res

            def check(res, name=name, label=label, g=graph, ref_group=ref_group,
                      ref_obj=ref_obj, measure=measure):
                check_group(f"group {name} {label}", g.num_vertices, res.group,
                            res.gains, ref_group, ref_obj, measure)

            ops.append(Op("group", f"group:{name}:{label}", run, check, traced))
    for name in CLIQUE_SETS:
        graph = inputs["graphs"][name]
        for variant, fn in (("neisky", neisky_topk_mcc), ("base", base_topk_mcc)):
            ref_sizes = refs["clique"][(name, variant)]

            relation = "at_most" if variant == "neisky" else "at_least"

            def check(res, name=name, variant=variant, g=graph, ref_sizes=ref_sizes,
                      relation=relation):
                check_cliques(f"{variant}_topk_mcc {name}", g, res, ref_sizes, relation)

            def traced(ctx, tracer, g=graph, fn=fn, variant=variant, name=name):
                with tracer.span(f"clique.{variant}_topk_mcc"):
                    res = fn(g, CLIQUE_K)
                if variant == "neisky":
                    counts = ctx["counts"]
                    counts["root_pool"] = counts.get("root_pool", 0) + len(refs["sky"][name][0])
                return res

            ops.append(Op("clique", f"clique:{name}:{variant}",
                          lambda ctx, g=graph, fn=fn: fn(g, CLIQUE_K), check, traced))
    return interleave(ops)


def interleave(ops):
    """Round-robin the op groups, so each group's time in a pass is
    spread over the whole pass instead of one contiguous stretch."""
    queues = [[op for op in ops if op.group == g] for g in GROUPS]
    out = []
    while any(queues):
        for queue in queues:
            if queue:
                out.append(queue.pop(0))
    return out


def pass_layers(ctx, tracer, first_span) -> dict:
    total = lambda name: tracer.total(name, first_span)  # noqa: E731
    counts = ctx["counts"]
    group_wall = sum(
        s["end"] - s["start"]
        for s in tracer.spans[first_span:]
        if s["name"].startswith("group:")
    )
    join_wall = total("core.lc_join_sky")
    index_s = total("containment.index_build")
    layers = {
        "core.filter_s": total("core.filter_phase"),
        "bloom.index_s": total("bloom.VertexBloomIndex"),
        "core.refine_s.bloom": total("core.bloom_refine_pass"),
        "containment.index_s": index_s,
        "containment.probe_s": join_wall - index_s,
        "containment.vertices_examined": counts.get("join_vertices", 0),
        "centrality.evaluations": counts["evaluations"],
        "centrality.evaluations_saved": counts["evaluations_saved"],
        "centrality.eval_us": 1e6 * group_wall / counts["evaluations"],
        "paths.gain_batch": counts["gain_batch"],
        "paths.lanes_evaluated": counts.get("lanes", 0),
        "paths.lane_yield": (
            counts["lanes_used"] / counts["lanes"] if counts.get("lanes") else 0.0
        ),
        "clique.neisky_s": total("clique.neisky_topk_mcc"),
        "clique.base_s": total("clique.base_topk_mcc"),
        "clique.root_pool": counts["root_pool"],
    }
    layers.update(skyline_layers(counts))
    return layers


def run(seed: int, seconds: float, tracer):
    setup_samples = calibrate(3)
    setups, loads = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs, load_s = build_inputs(seed)
        setups.append(time.perf_counter() - t0)
        loads.append(load_s)
    setup_factor = speed_factor(setup_samples + calibrate(3))
    t0 = time.perf_counter()
    refs = references(inputs)
    refs_s = time.perf_counter() - t0
    ops = build_ops(inputs, refs)
    outcome = run_closed_loop(ops, seconds, tracer, pass_layers)

    values = {"setup_s": median(setups) * setup_factor}
    values.update(closed_loop_metrics(outcome, GROUPS))
    layers = layer_medians(outcome)
    layers["workloads.load_s"] = median(loads) * setup_factor
    sizes = {
        name: {
            "n": g.num_vertices,
            "m": g.num_edges,
            "C": len(refs["sky"][name][1]),
            "R": len(refs["sky"][name][0]),
        }
        for name, g in inputs["graphs"].items()
    }
    sizes.update({
        f"centrality:{name}": {"n": g.num_vertices, "m": g.num_edges}
        for name, g in inputs["centrality"].items()
    })
    return {
        "values": values,
        "layers": layers,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
        "sizes": sizes,
        "info": {"references_s": refs_s, "setup_runs_s": setups,
                 "ops_per_pass": len(ops)},
    }
