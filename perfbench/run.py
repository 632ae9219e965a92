"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_std --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``.  Untraced runs (``--trace 0``) print every
end-to-end metric; traced runs (``--trace 1``) print every per-layer
metric, each with the end-to-end metrics it maps to, and write their
spans under ``.perfbench/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when any output was wrong, 2 when the run could not
start (e.g. no program sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    from metrics import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import reaper
    from metrics import END_TO_END, PER_LAYER, metric_block
    from tracing import Tracer

    module = __import__(args.workload)
    tracer = Tracer(bool(args.trace))
    reaper.adopt_orphans()
    started = time.perf_counter()
    try:
        out = module.run(args.seed, args.seconds, tracer)
    finally:
        # No process of the run may outlive its result line.
        signalled = reaper.end_all()
    wall = time.perf_counter() - started

    values = out["values"]
    values.setdefault("peak_rss_mb", common.peak_rss_mb())
    correct = not out["wrong"]
    failed_frac = out["failed"] / out["attempted"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": common.git_sha(),
        "source_sha256": common.source_digest(),
        "host": common.host_fingerprint(),
        "sizes": out["sizes"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_frac": failed_frac,
        "correct": correct,
        "wrong": out["wrong"][:20],
        "run_wall_s": wall,
        "children_signalled": signalled,
        # Reference-host seconds per measured second, and the samples.
        "speed_factor": common.speed_factor(),
        "calibration_s": common.SPEED_SAMPLES,
        "values": values,
        "layers": out["layers"],
        "info": out["info"],
    }
    common.WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(common.WORK / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer.enabled:
        tracer.write(common.WORK / f"{stem}.trace.json")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} git={record['git_sha'][:12]} "
          f"src={record['source_sha256']}")
    print(f"host {json.dumps(record['host'])}")
    print(f"sizes {json.dumps(out['sizes'])}")
    print(f"failed_frac = {failed_frac:.4f} frac ({out['failed']}/{out['attempted']} ops)")
    print(f"speed factor = {record['speed_factor']:.4f} (times below are reference-host "
          f"seconds = measured x factor)")
    for message in out["wrong"][:20]:
        print(f"WRONG: {message}")
    if args.trace:
        layers = {name: out["layers"].get(name, 0.0) for name, *_ in PER_LAYER}
        for name, unit, _better, maps in PER_LAYER:
            targets = ", ".join(f"{m}@{w}" for m, w in maps) or "-"
            print(f"{name} = {layers[name]:.6g} {unit}   -> {targets}")
        metrics = metric_block(layers, [name for name, *_ in PER_LAYER])
    else:
        for name, unit, _better, _bound in END_TO_END:
            print(f"{name} = {values[name]:.6g} {unit}")
        print(f"latency samples = {values.get('latency_samples')}")
        metrics = metric_block(values, [name for name, *_ in END_TO_END])
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
