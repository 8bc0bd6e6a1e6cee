"""Statistics, memory probes and time limits shared by the workloads."""

from __future__ import annotations

import faulthandler
import math
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager

#: Candidate tail percentiles, highest first.  A tail is reported at
#: the highest one that leaves at least :data:`TAIL_BEYOND` samples
#: above it, so a tail is never a single outlier.  Whole "nines" keep
#: the chosen percentile put for a wide range of sample counts.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def percentile(ordered: list, p: float) -> float:
    """Nearest-rank *p*-th percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, samples)`` of the tail of *values*.

    The percentile is the highest of :data:`TAIL_PERCENTILES` whose
    nearest-rank sample has at least :data:`TAIL_BEYOND` samples ranked
    beyond it.  With fewer than ``2 * TAIL_BEYOND`` samples no candidate
    qualifies and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n
    return 100.0, ordered[-1] if ordered else 0.0, n


def median(values) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds(pid) -> float:
    """User plus system CPU time of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as stat:
        # The command name may hold spaces; the fields after it don't.
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class OpTimeout(Exception):
    """An in-process operation overran its time limit."""


@contextmanager
def time_limit(seconds: float, what: str):
    """Raise :class:`OpTimeout` in the main thread after *seconds*.

    Bounds in-process calls into the program, which have no timeout of
    their own, so that a stuck call fails the run instead of hanging it.
    """

    def expire(signum, frame):
        raise OpTimeout(f"{what} exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Subprocesses a run started; :func:`stop_children` kills them.
SUBPROCESSES: list = []
#: Runtimes a run started; :func:`stop_children` shuts them down.
RUNTIMES: list = []
#: How long :func:`stop_children` waits for the runtimes to shut down.
SHUTDOWN_TIMEOUT_S = 10.0


def abort_after(seconds: float) -> threading.Timer:
    """Arm a watchdog: after *seconds* dump every thread's stack, stop
    the processes this run started and exit with status 3.  Cancel the
    returned timer when the run is done."""

    def abort():
        print(f"error: run exceeded {seconds:g} s, aborting", file=sys.stderr)
        faulthandler.dump_traceback(all_threads=True)
        stop_children()
        os._exit(3)

    timer = threading.Timer(seconds, abort)
    timer.daemon = True
    timer.start()
    return timer


def stop_children() -> None:
    """Stop every process this run started and wait for each: servers,
    runtime shards, any other worker, then the resource tracker."""
    for process in SUBPROCESSES:
        process.kill()
        process.wait()
    # A pool respawns a killed worker, so the runtimes are shut down
    # first; that also unlinks their shared-memory segments.  The
    # program's default runtime would otherwise stop only at exit.
    stopper = threading.Thread(target=_shutdown_runtimes, daemon=True)
    stopper.start()
    stopper.join(SHUTDOWN_TIMEOUT_S)
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    stop_resource_tracker()


def _shutdown_runtimes() -> None:
    for runtime in RUNTIMES:
        runtime.shutdown()
    module = sys.modules.get("repro.core.runtime")
    if module is not None:
        module.shutdown_runtime()


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the ``multiprocessing`` resource tracker and wait for it.

    The first shared-memory segment a process creates starts a tracker
    process that otherwise lives on until it reads end-of-file after
    its parent has exited, so it would outlast the run.  Closing its
    pipe ends it; it is killed if it has not ended within *timeout*.
    Call this after every worker that inherited the pipe has ended.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is None:
            return
        os.close(tracker._fd)
        pid, tracker._fd, tracker._pid = tracker._pid, None, None
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)
