"""Declared metrics of the benchmark: names, units, directions, mappings.

``END_TO_END`` lists what a user of the library or the server sees; an
untraced run prints every one of them.  ``PER_LAYER`` lists the
single-layer numbers a traced run prints, each with the end-to-end
metrics (and workloads) it is expected to move.  ``BENCHMARK.json`` at
the repository root mirrors both tables; ``tests/test_declarations.py``
keeps them in step.
"""

from __future__ import annotations

WORKLOADS = ("paper_std", "large_csr", "serve_mixed")

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Times are in reference-host seconds (see common.calibrate).  Timing
#: bounds sit at the 0.25 ceiling: even rescaled, ten-seed runs of one
#: commit spread up to ~0.13 (IQR over median) on serve_mixed's skyline
#: latencies, on a host whose speed drifts 1.4-1.8x (README.md, "Noise").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("skyline_s", "s", "lower", 0.25),
    ("join_s", "s", "lower", 0.25),
    ("group_s", "s", "lower", 0.25),
    ("clique_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
)

_SKY = (("skyline_s", "paper_std"), ("skyline_s", "large_csr"))
_GROUP = (("group_s", "paper_std"), ("group_s", "large_csr"))
_CLIQUE = (("clique_s", "paper_std"), ("clique_s", "large_csr"))
_FAILED = (("failed_frac", "large_csr"), ("failed_frac", "serve_mixed"))

#: (name, unit, better, ((end-to-end metric, workload), ...)).
PER_LAYER = (
    ("workloads.load_s", "s", "lower", (("setup_s", "paper_std"),)),
    ("graph.generate_s", "s", "lower", (("setup_s", "large_csr"),)),
    ("graph.rsky_write_s", "s", "lower", (("setup_s", "large_csr"),)),
    ("graph.rsky_open_ms", "ms", "lower", (("setup_s", "large_csr"),)),
    ("graph.cores_s", "s", "lower", (("skyline_s", "large_csr"),)),
    ("core.filter_s", "s", "lower", _SKY),
    ("bloom.index_s", "s", "lower", _SKY),
    ("core.refine_s.bloom", "s", "lower", _SKY),
    ("core.refine_s.block", "s", "lower", (("skyline_s", "large_csr"),)),
    ("core.candidate_frac", "frac", "lower", _SKY),
    ("core.skyline_frac", "frac", "lower", _SKY),
    ("core.refine_yield", "frac", "higher", _SKY),
    ("core.pair_tests", "count", "lower", _SKY),
    ("core.nbr_checks", "count", "lower", _SKY),
    ("core.bloom_precision", "frac", "higher", _SKY),
    ("core.filter_pretest_rejects", "count", "higher", _SKY),
    ("core.core_pretest_rejects", "count", "higher", (("skyline_s", "large_csr"),)),
    ("containment.index_s", "s", "lower", (("join_s", "paper_std"), ("join_s", "large_csr"))),
    ("containment.probe_s", "s", "lower", (("join_s", "paper_std"), ("join_s", "large_csr"))),
    ("containment.vertices_examined", "count", "lower", (("join_s", "paper_std"),)),
    ("centrality.evaluations", "count", "lower", _GROUP),
    ("centrality.evaluations_saved", "count", "higher", _GROUP),
    ("centrality.eval_us", "us", "lower", _GROUP),
    ("paths.gain_batch", "count", "higher", _GROUP),
    ("paths.lanes_evaluated", "count", "lower", _GROUP),
    ("paths.lane_yield", "frac", "higher", _GROUP),
    ("clique.neisky_s", "s", "lower", _CLIQUE),
    ("clique.base_s", "s", "lower", (("clique_s", "paper_std"),)),
    ("clique.root_pool", "count", "lower", _CLIQUE),
    ("parallel.cold_refine_s", "s", "lower", (("setup_s", "large_csr"),)),
    ("parallel.publish_s", "s", "lower", (("setup_s", "large_csr"),)),
    ("parallel.warm_refine_s", "s", "lower", (("skyline_s", "large_csr"),)),
    ("parallel.pooled_group_s", "s", "lower", (("group_s", "large_csr"),)),
    ("parallel.resilience_events", "count", "lower", _FAILED),
    ("parallel.children_after_close", "count", "lower", _FAILED),
    ("parallel.shm_residue", "count", "lower", _FAILED),
    ("serve.queue_wait_p50_ms", "ms", "lower", (("query_p90_ms", "serve_mixed"),)),
    ("serve.queue_wait_p90_ms", "ms", "lower", (("query_p90_ms", "serve_mixed"),)),
    ("serve.batch_size_mean", "count", "higher", (("query_p90_ms", "serve_mixed"),)),
    ("serve.service_p50_ms", "ms", "lower", (("query_p50_ms", "serve_mixed"),)),
    ("serve.service_p90_ms", "ms", "lower", (("query_p50_ms", "serve_mixed"),)),
    ("serve.warm_session_frac", "frac", "higher", (("query_p50_ms", "serve_mixed"),)),
    ("serve.rejected", "count", "lower", (("failed_frac", "serve_mixed"),)),
    ("serve.expired", "count", "lower", (("failed_frac", "serve_mixed"),)),
    ("serve.degraded", "count", "lower", (("failed_frac", "serve_mixed"),)),
    ("serve.skyline_p50_ms", "ms", "lower", (("query_p50_ms", "serve_mixed"),)),
    ("serve.group_p50_ms", "ms", "lower", (("query_p50_ms", "serve_mixed"),)),
    ("serve.clique_p50_ms", "ms", "lower", (("query_p50_ms", "serve_mixed"),)),
    ("serve.register_ms", "ms", "lower", (("query_p90_ms", "serve_mixed"),)),
    ("loadgen.lateness_p90_ms", "ms", "lower", (("query_p90_ms", "serve_mixed"),)),
    ("loadgen.lateness_max_ms", "ms", "lower", (("query_p90_ms", "serve_mixed"),)),
    # Tracing cost of the traced run itself; it moves no untraced metric.
    ("trace.overhead_frac", "frac", "lower", ()),
)

UNITS = {name: unit for name, unit, _b, _x in END_TO_END}
UNITS.update({name: unit for name, unit, _b, _m in PER_LAYER})
TIME_UNITS = ("s", "ms", "us")


def to_reference(values: dict, factor: float, names) -> None:
    """Rescale the measured times among ``names`` to reference-host
    seconds (``factor`` from :func:`common.speed_factor`), in place."""
    for name in names:
        if name in values and UNITS[name] in TIME_UNITS:
            values[name] *= factor


def metric_block(values: dict, names) -> dict:
    """``{"name": {"value": v, "unit": u}}`` for every declared name.

    A declared name missing from ``values`` is a bug in the workload
    module, so it raises instead of reporting a made-up number.
    """
    missing = [name for name in names if name not in values]
    if missing:
        raise KeyError(f"workload did not measure {missing}")
    return {
        name: {"value": float(values[name]), "unit": UNITS[name]}
        for name in names
    }
