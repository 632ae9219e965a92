"""The output checkers accept the direct API answer and catch corrupted ones."""

import pytest

from checks import (
    CheckError,
    check_cliques,
    check_group,
    check_served,
    check_skyline,
    group_objective,
)


def _skyline_ref(graph):
    from repro import neighborhood_skyline

    block = neighborhood_skyline(graph, "filter_refine_block")
    return block.skyline, block.candidates


def test_skyline_reference_is_verified(small_graph):
    from repro import neighborhood_skyline
    from repro.core.verify import verify_skyline

    verify_skyline(small_graph, neighborhood_skyline(small_graph, "filter_refine_block"))


@pytest.mark.parametrize("algorithm", ["filter_refine", "lc_join", "filter_refine_block"])
def test_skyline_accepts_api_answer(small_graph, algorithm):
    from repro import neighborhood_skyline

    ref_sky, ref_cand = _skyline_ref(small_graph)
    res = neighborhood_skyline(small_graph, algorithm)
    check_skyline(algorithm, small_graph.num_vertices, res.skyline, res.dominator,
                  ref_sky, res.candidates, ref_cand)


def test_skyline_rejects_dropped_vertex(small_graph):
    from repro import neighborhood_skyline

    ref_sky, ref_cand = _skyline_ref(small_graph)
    res = neighborhood_skyline(small_graph)
    dropped = res.skyline[1:]
    with pytest.raises(CheckError, match="skyline differs"):
        check_skyline("x", small_graph.num_vertices, dropped, None, ref_sky)
    # The dominator array alone betrays a vertex marked undominated
    # that the skyline leaves out.
    with pytest.raises(CheckError):
        check_skyline("x", small_graph.num_vertices, ref_sky, res.dominator[:-1], ref_sky)


def test_skyline_rejects_changed_candidates(small_graph):
    from repro import neighborhood_skyline

    ref_sky, ref_cand = _skyline_ref(small_graph)
    res = neighborhood_skyline(small_graph)
    with pytest.raises(CheckError, match="candidate set"):
        check_skyline("x", small_graph.num_vertices, res.skyline, res.dominator,
                      ref_sky, res.candidates[1:], ref_cand)


@pytest.mark.parametrize("measure", ["closeness", "harmonic"])
@pytest.mark.parametrize("use_skyline", [True, False])
def test_group_accepts_api_answer(small_graph, measure, use_skyline):
    from repro.core.api import group_centrality_maximize

    ref = group_centrality_maximize(small_graph, 4, measure=measure,
                                    use_skyline=use_skyline, strategy="lazy")
    objective = group_objective(small_graph, ref.group, measure)
    res = group_centrality_maximize(small_graph, 4, measure=measure,
                                    use_skyline=use_skyline)
    check_group("g", small_graph.num_vertices, res.group, res.gains, ref.group,
                objective, measure)


@pytest.mark.parametrize("measure", ["closeness", "harmonic"])
def test_group_rejects_swapped_member(small_graph, measure):
    from repro.core.api import group_centrality_maximize

    res = group_centrality_maximize(small_graph, 4, measure=measure)
    objective = group_objective(small_graph, res.group, measure)
    outsider = next(u for u in range(small_graph.num_vertices) if u not in res.group)
    swapped = (outsider,) + res.group[1:]
    with pytest.raises(CheckError, match="group"):
        check_group("g", small_graph.num_vertices, swapped, res.gains, res.group,
                    objective, measure)
    # A reference built from the swapped group disagrees on the objective.
    wrong_obj = group_objective(small_graph, swapped, measure)
    with pytest.raises(CheckError, match="objective"):
        check_group("g", small_graph.num_vertices, res.group, res.gains, res.group,
                    wrong_obj, measure)


def test_clique_accepts_api_answers(small_graph):
    from repro.clique import base_topk_mcc, mc_brb, neisky_mc, neisky_topk_mcc

    base = base_topk_mcc(small_graph, 3)
    sky = neisky_topk_mcc(small_graph, 3)
    check_cliques("neisky", small_graph, sky, [len(c) for c in base], "at_most")
    check_cliques("base", small_graph, base, [len(c) for c in sky], "at_least")
    check_cliques("mc", small_graph, [neisky_mc(small_graph)], [len(mc_brb(small_graph))])


def test_clique_rejects_non_clique(small_graph):
    from repro.clique import mc_brb

    best = mc_brb(small_graph)
    members = set(best)
    outsider = next(
        u for u in range(small_graph.num_vertices)
        if u not in members and not all(small_graph.has_edge(u, v) for v in best[1:])
    )
    corrupted = best[1:] + [outsider]
    with pytest.raises(CheckError, match="not a clique"):
        check_cliques("mc", small_graph, [corrupted], [len(best)])


def test_clique_rejects_wrong_sizes(small_graph):
    from repro.clique import base_topk_mcc

    base = base_topk_mcc(small_graph, 3)
    sizes = [len(c) for c in base]
    with pytest.raises(CheckError):  # a smaller rank-1 clique
        check_cliques("x", small_graph, [base[0][1:]] + base[1:], sizes, "at_most")
    with pytest.raises(CheckError):  # a repeated clique
        check_cliques("x", small_graph, [base[0], base[0]], sizes[:2], "at_most")
    with pytest.raises(CheckError):  # base variant missing a rank
        check_cliques("x", small_graph, base[:2], sizes, "at_least")


def _served(graph, kind, params):
    from repro.serve import GraphRegistry
    from repro.serve.registry import execute_query

    registry = GraphRegistry()
    try:
        entry = registry.register("g", graph)
        payload = execute_query(entry, kind, dict(params))
    finally:
        registry.close()
    payload.pop("_counters", None)
    return {"graph": "g", "kind": kind, "result": payload}


def _served_ref(graph, kind, params):
    from repro import neighborhood_skyline
    from repro.clique import base_topk_mcc, mc_brb
    from repro.core.api import group_centrality_maximize

    if kind == "skyline":
        ref_sky, ref_cand = _skyline_ref(graph)
        joined = neighborhood_skyline(graph, "lc_join")
        assert joined.skyline == ref_sky
        return {"skyline": joined.skyline, "candidate_size": len(ref_cand)}
    if kind == "group":
        res = group_centrality_maximize(graph, params["k"], measure=params["measure"],
                                        strategy="lazy")
        return {"group": res.group,
                "objective": group_objective(graph, res.group, params["measure"])}
    top_k = params["top_k"]
    cliques = [mc_brb(graph)] if top_k == 1 else base_topk_mcc(graph, top_k)
    return {"sizes": [len(c) for c in cliques]}


QUERIES = [
    ("skyline", {}),
    ("group", {"k": 3, "measure": "closeness"}),
    ("group", {"k": 2, "measure": "harmonic"}),
    ("clique", {"top_k": 1}),
    ("clique", {"top_k": 3}),
]


@pytest.mark.parametrize("kind,params", QUERIES)
def test_served_accepts_engine_answer(small_graph, kind, params):
    doc = _served(small_graph, kind, params)
    check_served("q", small_graph, kind, params, doc, _served_ref(small_graph, kind, params))


@pytest.mark.parametrize("kind,params", QUERIES)
def test_served_rejects_degraded(small_graph, kind, params):
    doc = _served(small_graph, kind, params)
    doc["degraded"] = True
    with pytest.raises(CheckError, match="degraded"):
        check_served("q", small_graph, kind, params, doc,
                     _served_ref(small_graph, kind, params))


def test_served_rejects_corrupted_answers(small_graph):
    params = {}
    doc = _served(small_graph, "skyline", params)
    ref = _served_ref(small_graph, "skyline", params)
    doc["result"]["skyline"] = doc["result"]["skyline"][1:]
    with pytest.raises(CheckError):
        check_served("q", small_graph, "skyline", params, doc, ref)

    params = {"k": 3, "measure": "closeness"}
    doc = _served(small_graph, "group", params)
    ref = _served_ref(small_graph, "group", params)
    doc["result"]["group"][0] = next(
        u for u in range(small_graph.num_vertices) if u not in doc["result"]["group"]
    )
    with pytest.raises(CheckError):
        check_served("q", small_graph, "group", params, doc, ref)

    params = {"top_k": 1}
    doc = _served(small_graph, "clique", params)
    ref = _served_ref(small_graph, "clique", params)
    clique = doc["result"]["cliques"][0]
    doc["result"]["cliques"][0] = clique[:-1]
    doc["result"]["sizes"][0] -= 1
    with pytest.raises(CheckError):
        check_served("q", small_graph, "clique", params, doc, ref)
