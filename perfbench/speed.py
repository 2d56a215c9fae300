"""The machine's speed, sampled while the benchmark measures.

The benchmark runs on a shared virtual machine.  Load from other guests
changes how much work one CPU second does, by up to 1.8x within minutes and
by 10-30 % within seconds, so CPU time alone is not steady.  A probe sample
times a small fixed pure-Python task, much like the program's own work (tuple
keys, dict updates, a sort).  Every timing the benchmark reports is scaled by
the samples taken around it and during it to a reference speed, at which one
sample takes ``REFERENCE_S``:

    reported = CPU seconds measured * REFERENCE_S / median sample time

A change to the program moves the measured CPU time and not the samples, so
it shows in full; a change of the machine's speed moves both, though not
exactly alike: under the heaviest load the program slowed 10-15 % more than
the task did.

Samples are taken between queries, and in an in-process workload also
during a query, every ``INTERVAL_S`` of wall time (``ITIMER_REAL``), so that
a query of several seconds is scaled by the speed it ran at.  The CPU time
of the samples taken inside a query is taken out of that query's time.  (A
CPU-time timer such as ``ITIMER_PROF`` would not do: while one is armed,
Linux reads the process's CPU clock only to the last timer tick.)
"""
from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array

from stats import median

TASK_LOOPS = 1000
REFERENCE_S = 0.0004  # the reference speed; on the 2-core VM a sample takes 0.5-1.0 ms
INTERVAL_S = 0.025
NEAREST = 9  # samples that set the speed of a query with fewer inside it


def task():
    d = {}
    for i in range(TASK_LOOPS):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + 1
    return sorted(d.items())


class Probe:
    """Speed samples: (wall time at the start, CPU seconds the task took)."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._timer = False
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        was_enabled = gc.isenabled()
        gc.disable()
        wall, t0 = time.perf_counter(), time.process_time()
        task()
        took = time.process_time() - t0
        if was_enabled:
            gc.enable()
        self.at.append(wall)
        self.took.append(took)
        self._busy = False

    def start_timer(self):
        """Also sample during queries, every INTERVAL_S of wall time."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._timer = True

    def stop_timer(self):
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._timer = False

    def inside(self, t0, t1):
        """Indices of the samples that started in the wall interval [t0, t1)."""
        return range(bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1))

    def sample_seconds(self, t0, t1):
        """CPU seconds the samples inside [t0, t1) took."""
        return sum(self.took[i] for i in self.inside(t0, t1))

    def scale(self, t0, t1):
        """REFERENCE_S over the median sample time for the interval [t0, t1).

        The samples taken inside it, if there are at least NEAREST;
        otherwise the NEAREST samples closest to it in time.
        """
        idx = self.inside(t0, t1)
        if len(idx) < NEAREST:
            lo, hi = idx.start, idx.stop
            while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
                before = t0 - self.at[lo - 1] if lo > 0 else float("inf")
                after = self.at[hi] - t1 if hi < len(self.at) else float("inf")
                if before <= after:
                    lo -= 1
                else:
                    hi += 1
            idx = range(lo, hi)
        if not idx:
            raise ValueError("no speed samples")
        return REFERENCE_S / median([self.took[i] for i in idx])
