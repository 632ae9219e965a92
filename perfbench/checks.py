"""Semantic output checkers.

Every timed op's output is compared with a reference computed before
timing by a *different* public path.  Only fields the program promises
to reproduce are compared: skyline and candidate set (not the dominator
witness, which is "the first dominator found"), the greedy group and
its objective (not evaluation counts), clique validity and sizes (not
the members of tie-equal cliques).  Every checker raises
:class:`CheckError` on a wrong answer.
"""

from __future__ import annotations

import math

#: Relative tolerance for an objective recomputed from scratch.
OBJECTIVE_RTOL = 1e-9


class CheckError(AssertionError):
    """A timed op returned a wrong answer."""


def check_skyline(what, n, skyline, dominator, ref_skyline, candidates=None,
                  ref_candidates=None):
    """Skyline (and candidate set, when both sides have one) equal the
    reference; the dominator array is consistent with the skyline."""
    skyline = tuple(int(u) for u in skyline)
    if skyline != tuple(ref_skyline):
        missing = sorted(set(ref_skyline) - set(skyline))[:5]
        extra = sorted(set(skyline) - set(ref_skyline))[:5]
        raise CheckError(
            f"{what}: skyline differs from the reference (|R|={len(skyline)} "
            f"vs {len(ref_skyline)}; missing {missing}, extra {extra})"
        )
    if candidates is not None and ref_candidates is not None:
        if tuple(int(u) for u in candidates) != tuple(ref_candidates):
            raise CheckError(f"{what}: candidate set differs from the reference")
    if dominator is not None:
        if len(dominator) != n:
            raise CheckError(f"{what}: dominator array has {len(dominator)} entries, n={n}")
        members = set(skyline)
        for u, w in enumerate(dominator):
            if (w == u) != (u in members) or not 0 <= w < n:
                raise CheckError(f"{what}: dominator[{u}]={w} contradicts the skyline")


def objective_from_gains(n: int, gains, measure: str) -> float:
    """The group objective implied by a greedy run's per-round gains.

    Closeness gains are farness drops from the all-unreachable start
    (each vertex at penalty ``n``), so ``F(S) = n*n - sum(gains)`` and
    ``GC(S) = n / F(S)``.  Harmonic gains sum to ``GH(S)`` directly.
    """
    total = math.fsum(gains)
    if measure == "closeness":
        farness = n * n - total
        return n / farness if farness else 0.0
    return total


def group_objective(graph, group, measure: str) -> float:
    """``group_closeness`` / ``group_harmonic`` recomputed from scratch."""
    from repro.centrality import group_closeness, group_harmonic

    if measure == "closeness":
        return group_closeness(graph, group)
    return group_harmonic(graph, group)


def check_group(what, n, group, gains, ref_group, ref_objective, measure):
    """Same group as the reference; the gains imply the objective that
    ``group_closeness``/``group_harmonic`` recomputes, within 1e-9."""
    group = tuple(int(u) for u in group)
    if group != tuple(ref_group):
        raise CheckError(f"{what}: group {group} differs from reference {tuple(ref_group)}")
    if len(gains) != len(group):
        raise CheckError(f"{what}: {len(gains)} gains for a group of {len(group)}")
    value = objective_from_gains(n, gains, measure)
    scale = max(abs(ref_objective), 1e-300)
    if abs(value - ref_objective) > OBJECTIVE_RTOL * scale:
        raise CheckError(
            f"{what}: objective from gains {value!r} != recomputed "
            f"{measure} {ref_objective!r}"
        )


def check_cliques(what, graph, cliques, ref_sizes, relation="equal"):
    """Each answer is a clique of distinct vertices, listed once, in
    non-increasing size; rank 1 has the reference's size.

    Past rank 1 the two top-k variants may legitimately differ: the
    skyline-rooted variant can miss a tail clique the base variant
    finds, but never reports a larger one at any rank (the program's
    documented contract).  ``relation`` states what the reference is
    to this answer: ``"equal"`` sizes, ``"at_most"`` (answer from the
    skyline-rooted variant, reference from the base variant: each
    size <= the reference's at the same rank) or ``"at_least"`` (the
    reverse).
    """
    from repro.clique import is_clique

    seen = set()
    for rank, clique in enumerate(cliques):
        members = tuple(sorted(int(u) for u in clique))
        if not members or len(set(members)) != len(members) or not is_clique(graph, members):
            raise CheckError(f"{what}: answer {rank} is not a clique")
        if members in seen:
            raise CheckError(f"{what}: answer {rank} repeats an earlier clique")
        seen.add(members)
    sizes = [len(c) for c in cliques]
    ref_sizes = list(ref_sizes)
    if sizes != sorted(sizes, reverse=True):
        raise CheckError(f"{what}: clique sizes {sizes} are not ranked")
    if relation == "equal":
        ok = sizes == ref_sizes
    elif relation == "at_most":
        ok = len(sizes) <= len(ref_sizes) and all(
            s <= r for s, r in zip(sizes, ref_sizes))
    elif relation == "at_least":
        ok = len(sizes) >= len(ref_sizes) and all(
            s >= r for s, r in zip(sizes, ref_sizes))
    else:
        raise ValueError(f"unknown relation {relation!r}")
    if not ok or sizes[:1] != ref_sizes[:1]:
        raise CheckError(
            f"{what}: clique sizes {sizes} vs reference {ref_sizes} ({relation})"
        )


def check_served(what, graph, kind, params, doc, ref):
    """One served 200: no degraded marker, result equal to ``ref``.

    ``ref`` holds the reference fields for the query: ``skyline`` and
    ``candidate_size`` (skyline), ``group`` and ``objective`` (group),
    ``sizes`` (clique).
    """
    if doc.get("degraded"):
        raise CheckError(f"{what}: degraded answer")
    result = doc.get("result")
    if not isinstance(result, dict):
        raise CheckError(f"{what}: response has no result object")
    n = graph.num_vertices
    if kind == "skyline":
        check_skyline(what, n, result["skyline"], result["dominator"], ref["skyline"])
        if result["size"] != len(ref["skyline"]):
            raise CheckError(f"{what}: size {result['size']} != {len(ref['skyline'])}")
        if result["candidate_size"] != ref["candidate_size"]:
            raise CheckError(
                f"{what}: candidate_size {result['candidate_size']} != "
                f"{ref['candidate_size']}"
            )
    elif kind == "group":
        measure = params.get("measure", "closeness")
        if result["measure"] != measure or result["k"] != params["k"]:
            raise CheckError(f"{what}: answered a different query")
        check_group(what, n, result["group"], result["gains"], ref["group"],
                    ref["objective"], measure)
    elif kind == "clique":
        # top_k 1 is answered by neisky_mc (exact); larger top_k by the
        # skyline-rooted top-k variant, checked against the base one.
        relation = "equal" if params.get("top_k", 1) == 1 else "at_most"
        check_cliques(what, graph, result["cliques"], ref["sizes"], relation)
        if result["sizes"] != [len(c) for c in result["cliques"]]:
            raise CheckError(f"{what}: sizes field disagrees with the cliques")
    else:
        raise CheckError(f"{what}: unknown kind {kind!r}")
