"""Seeded inputs: same seed, same input; structure kept by relabeling."""

from common import relabel
from serve_mixed import HOSTED, schedule


def test_relabel_keeps_structure(small_graph):
    from repro import neighborhood_skyline

    a = relabel(small_graph, 7, 0)
    assert list(a.edges()) == list(relabel(small_graph, 7, 0).edges())
    assert list(a.edges()) != list(relabel(small_graph, 8, 0).edges())
    assert a.num_edges == small_graph.num_edges
    assert sorted(a.degrees()) == sorted(small_graph.degrees())
    assert neighborhood_skyline(a).size == neighborhood_skyline(small_graph).size


def test_schedule_is_seeded_and_keeps_the_mix():
    for seconds, blocks in ((18, 1), (36, 2)):
        items = schedule(3, seconds)
        assert items == schedule(3, seconds)
        assert items != schedule(4, seconds)
        queries = [i["payload"] for i in items if "payload" in i and "after" not in i]
        kinds = [q["kind"] for q in queries]
        counts = (kinds.count("skyline"), kinds.count("group"), kinds.count("clique"))
        assert counts == (18 * blocks, 9 * blocks, 3 * blocks)
        per_graph = {g: sum(q["graph"] == g for q in queries) for g in HOSTED}
        assert per_graph == {"karate": 6 * blocks, "bombing_proxy": 4 * blocks,
                             "wikitalk_sim": 20 * blocks}
        assert [i["at"] for i in items] == sorted(i["at"] for i in items)
        assert all(0 <= i["at"] < seconds + 1 for i in items)
        registered = [i["register"] for i in items if "register" in i]
        for item in items:
            if "after" in item:
                assert item["after"] in registered


def test_hd_quantile_is_a_smoothed_percentile():
    from common import hd_quantile

    assert abs(hd_quantile([1, 2, 3, 4, 5], 0.5) - 3.0) < 1e-3
    assert hd_quantile([7.0], 0.9) == 7.0
    values = list(range(101))
    assert abs(hd_quantile(values, 0.9) - 90.0) < 1.0
    # A slow outlier moves the estimate a little, not to the outlier.
    assert hd_quantile([10.0] * 19 + [1000.0], 0.5) < 11.0
    # Failed requests (infinitely late) fall back to the order statistic.
    assert hd_quantile([1.0, 2.0, float("inf")], 0.9) == float("inf")
