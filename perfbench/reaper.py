"""End every process a run starts before the run reports.

The program's pool, shared-memory plane and server start helper
processes the benchmark never sees directly: multiprocessing's
resource tracker (one for this process, one for the server) outlives
its parent by a moment, and a killed server's workers would outlive it
for good.  ``adopt_orphans()`` makes this process the reaper of its
orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so they
re-parent here instead of to init; ``end_all()`` then stops this
process's own resource tracker and waits until no child is left,
terminating stragglers after a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36
#: Seconds a child gets to exit on its own (a resource tracker exits
#: once every holder of its pipe is gone), then after SIGTERM.
GRACE_S = 10.0


def adopt_orphans() -> bool:
    """Re-parent this process's orphaned descendants to it; False when
    the platform does not allow it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def _reap() -> None:
    """Collect every child that has already exited."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is None or getattr(tracker, "_pid", None) is None:
        return
    try:
        stop()  # closes the tracker's pipe and waits for it
    except (OSError, ChildProcessError):
        pass


def end_all(grace: float = GRACE_S) -> int:
    """Wait until this process has no child left; returns how many had
    to be signalled."""
    _stop_resource_tracker()
    signalled: set[int] = set()
    deadline = time.monotonic() + grace
    sig = signal.SIGTERM
    while True:
        _reap()
        left = children()
        if not left:
            return len(signalled)
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                signalled.add(pid)
            sig = signal.SIGKILL
            deadline = time.monotonic() + grace
        time.sleep(0.02)
