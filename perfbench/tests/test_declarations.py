"""BENCHMARK.json, the metric tables and the workload modules agree."""

import json
import re
from pathlib import Path

import metrics

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load():
    return json.loads(BENCHMARK.read_text())


def test_keys_and_command():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_workloads_match_modules():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_matches_table():
    doc = load()
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
    assert declared == list(metrics.END_TO_END)
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_per_layer_matches_table():
    doc = load()
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _maps in metrics.PER_LAYER]
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_names_are_valid_and_unique():
    doc = load()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def test_layer_mappings_name_known_targets():
    targets = {n for n, *_ in metrics.END_TO_END} | {"failed_frac"}
    for _name, _unit, _better, maps in metrics.PER_LAYER:
        for metric, workload in maps:
            assert metric in targets and workload in metrics.WORKLOADS
