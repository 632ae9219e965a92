"""The reaper leaves no process of a run behind, orphans included."""

import subprocess
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import multiprocessing.resource_tracker as rt
    import subprocess, sys, time
    import reaper

    assert reaper.adopt_orphans()
    rt.ensure_running()                     # a helper like the pool's
    tracker = rt._resource_tracker._pid
    # A child that leaves a long-lived grandchild behind and exits.
    subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)
    time.sleep(0.2)
    orphans = [p for p in reaper.children() if p != tracker]
    assert orphans, "the orphaned grandchild should re-parent here"
    signalled = reaper.end_all(grace=0.5)
    print(signalled, len(reaper.children()))
""")


def test_end_all_stops_the_tracker_and_orphans():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=PERFBENCH,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    signalled, left = out.stdout.split()
    # The tracker ends on its own once its pipe closes; only the
    # orphaned sleep needs a signal.
    assert (int(signalled), int(left)) == (1, 0)
