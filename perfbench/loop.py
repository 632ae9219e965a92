"""Closed-loop runner: run a fixed list of ops in passes for N seconds.

One client, one op at a time.  A pass runs every op once, in order;
its outputs are checked after the pass, so check time never lands in a
timed interval.  A new pass starts only while it is expected to end
within the time budget (always at least one; at least two when tracing,
since traced runs alternate untraced and traced passes to measure the
tracing overhead).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from checks import CheckError
from common import calibrate, median, speed_factor
from metrics import TIME_UNITS, UNITS


@dataclass
class Op:
    group: str  # "skyline" / "join" / "group" / "clique"
    label: str
    run: Callable  # run(ctx) -> result
    check: Callable  # check(result), raises CheckError
    #: traced(ctx, tracer) -> result; defaults to ``run`` inside one span.
    traced: Optional[Callable] = None


@dataclass
class Pass:
    traced: bool
    wall: float
    #: Reference-host seconds per measured second during this pass.
    factor: float
    #: (op, reference-host seconds), each op rescaled by the calibration
    #: samples taken just before and just after it.
    op_times: list = field(default_factory=list)
    raw_times: list = field(default_factory=list)  # measured seconds
    layers: dict = field(default_factory=dict)  # traced passes only

    def group_time(self, group: str) -> float:
        """The group's time in the pass, in reference-host seconds."""
        return sum(dt for op, dt in self.op_times if op.group == group)


@dataclass
class Outcome:
    passes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)

    @property
    def untraced(self) -> list:
        return [p for p in self.passes if not p.traced]

    @property
    def traced(self) -> list:
        return [p for p in self.passes if p.traced]


def run_closed_loop(ops, seconds: float, tracer, layer_fn=None) -> Outcome:
    """Run passes of ``ops`` for about ``seconds``.

    ``layer_fn(ctx, tracer, first_span)`` turns one traced pass into its
    per-layer numbers.
    """
    out = Outcome()
    started = time.perf_counter()
    while True:
        traced = tracer.enabled and len(out.passes) % 2 == 1
        first_span = len(tracer.spans)
        ctx: dict = {"counts": {}}
        results, samples = [], []
        before = calibrate()
        pass_start = time.perf_counter()
        for op_id, op in enumerate(ops):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span(op.label, op=op_id):
                        result = (op.traced or (lambda c, _t: op.run(c)))(ctx, tracer)
                else:
                    result = op.run(ctx)
            except Exception:
                out.failed += 1
                out.wrong.append(f"{op.label}: raised\n{traceback.format_exc()}")
                result = None
            dt = time.perf_counter() - t0
            # Untimed: tracks the host's speed through the pass.
            after = calibrate()
            results.append((op, result, dt, speed_factor(before + after)))
            samples += after
            before = after
        wall = time.perf_counter() - pass_start
        record = Pass(traced, wall, speed_factor(samples),
                      [(op, dt * factor) for op, _r, dt, factor in results],
                      [dt for _op, _r, dt, _f in results])
        for op, result, _dt, _f in results:
            if result is None:
                continue
            try:
                op.check(result)
            except CheckError as exc:
                out.wrong.append(str(exc))
        if traced and layer_fn is not None:
            record.layers = layer_fn(ctx, tracer, first_span)
        out.passes.append(record)
        elapsed = time.perf_counter() - started
        if tracer.enabled and len(out.passes) < 2:
            continue
        if elapsed + wall > seconds:
            return out


def closed_loop_metrics(outcome: Outcome, groups) -> dict:
    """End-to-end numbers of the untraced passes.

    All times in reference-host seconds.  Per-group seconds are medians
    over passes; op latency percentiles are Harrell-Davis estimates over
    every op of every pass (a pass has only a few slow ops, so one order
    statistic flipped between them from run to run); ``ops_per_s`` is
    ops over busy time.
    """
    from common import hd_quantile

    passes = outcome.untraced
    values = {
        f"{g}_s": median(p.group_time(g) for p in passes) for g in groups
    }
    latencies = [dt * 1000.0 for p in passes for _op, dt in p.op_times]
    values["query_p50_ms"] = hd_quantile(latencies, 0.5)
    values["query_p90_ms"] = hd_quantile(latencies, 0.9)
    values["ops_per_s"] = len(latencies) / (sum(latencies) / 1000.0)
    values["latency_samples"] = len(latencies)
    values["pass_walls"] = [p.wall for p in outcome.passes]
    values["pass_factors"] = [p.factor for p in outcome.passes]
    values["pass_raw_s"] = [p.raw_times for p in outcome.passes]
    values["pass_groups"] = [
        {g: p.group_time(g) for g in groups} for p in outcome.passes
    ]
    return values


def layer_medians(outcome: Outcome) -> dict:
    """Median over traced passes of each per-layer number, plus the
    tracing overhead (traced over untraced median pass wall, minus 1)."""
    traced = outcome.traced
    names = set().union(*(p.layers for p in traced)) if traced else set()
    values = {
        name: median(p.layers.get(name, 0.0) * scale(name, p.factor) for p in traced)
        for name in names
    }
    untraced_wall = median(p.wall * p.factor for p in outcome.untraced)
    traced_wall = median(p.wall * p.factor for p in traced)
    values["trace.overhead_frac"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    return values


def scale(name: str, factor: float) -> float:
    """``factor`` for a per-layer time metric (by its unit), else 1."""
    return factor if UNITS.get(name) in TIME_UNITS else 1.0
