"""Helpers shared by the workload modules: stats, inputs, run records."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch directory for files a run writes (``.rsky`` snapshots, run
#: records, traces).  Listed in the root ``.gitignore``.
WORK = ROOT / ".perfbench"


#: Iterations of the calibration loop: fixed pure-Python work (~10 ms)
#: whose duration tracks the host's current speed.
CALIBRATION_ITERS = 120_000
#: The loop's duration on the reference host (a 2-core Xeon VM in its
#: fast phase).  Times are reported in reference-host seconds: measured
#: seconds x REF_CALIBRATION_S / the loop's duration around them.
REF_CALIBRATION_S = 0.010
#: Every calibration sample of this run.
SPEED_SAMPLES: list[float] = []


def calibrate(times: int = 1) -> list[float]:
    """Time the calibration loop ``times`` times; returns the samples."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERS):
            acc += i * i % 7
        out.append(time.perf_counter() - t0)
    SPEED_SAMPLES.extend(out)
    return out


def speed_factor(samples=None) -> float:
    """Reference-host seconds per measured second for ``samples``
    (default: every sample of the run so far)."""
    return REF_CALIBRATION_S / median(SPEED_SAMPLES if samples is None else samples)


def timed_calibration() -> tuple[float, float]:
    """One calibration sample as ``(midpoint on perf_counter, seconds)``."""
    t0 = time.perf_counter()
    (duration,) = calibrate()
    return t0 + duration / 2, duration


def local_factor(samples, at: float, nearest: int = 5) -> float:
    """Speed factor from the ``nearest`` ``(time, seconds)`` samples
    closest to ``at``: the host's speed drifts within seconds, so a
    time is rescaled by the samples taken around it."""
    near = sorted(samples, key=lambda s: abs(s[0] - at))[:nearest]
    return speed_factor([d for _t, d in near])


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted
    average of every order statistic, much less jumpy from run to run
    than one order statistic of a few dozen samples.  Falls back to
    :func:`percentile` when a value is not finite (a failed request)."""
    import numpy as np

    xs = np.sort(np.asarray(list(values), dtype=float))
    n = len(xs)
    if n == 0:
        return 0.0
    if not np.isfinite(xs).all():
        return percentile(xs.tolist(), 100.0 * p)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # The Beta(a, b) CDF at i/n, by the midpoint rule on a fine grid.
    grid = 20_000
    t = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.append(0.0, t), np.append(0.0, cdf))
    return float(np.diff(edges) @ xs)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = -(-p * len(ordered) // 100)
    return float(ordered[min(len(ordered), max(1, int(rank))) - 1])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def relabel(graph, seed: int, salt: int):
    """``graph`` with its vertex IDs permuted by a seeded permutation.

    Structure (degrees, |C|, |R|, clique sizes) is unchanged; only the
    IDs the program sees differ, so every seed is a different input of
    the same shape.
    """
    import numpy as np

    from repro.graph.csr import as_csr, graph_from_edge_arrays

    indptr, indices = as_csr(graph).csr_arrays()
    n = graph.num_vertices
    perm = np.random.default_rng([seed, salt]).permutation(n)
    src = np.repeat(np.arange(n), np.diff(np.asarray(indptr)))
    dst = np.asarray(indices)
    keep = src < dst
    return graph_from_edge_arrays(n, perm[src[keep]], perm[dst[keep]])


def source_digest() -> str:
    """SHA-256 over the program sources under ``src/`` (path + bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """The checkout's commit, or ``"none"`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }
