"""A work clock that reads in seconds at a fixed reference speed of the host.

A shared cloud VM, such as the 2-vCPU Firecracker VM the figures in
README.md come from, changes speed by up to 3x with its neighbours'
load, in phases that last from seconds to many minutes.  Neither the
steal counter nor process CPU time shows these phases, and a run of a
few tens of seconds cannot average them out.  So a worker process times
a fixed reference computation every PERIOD_S seconds, from a SIGALRM
handler, and scales each slice of work between two ticks by REF_S over
the reference's time around that slice.  A pass
then reads the time it would take on a host where the reference takes
REF_S; for the small workloads in a quiet phase of that VM, that is
about their wall time.

The reference is pure Python of the kind mfc runs, sparse column
elimination on dicts, and it lives here, so a change to mfc does not
change it.  Of the references tried (dict and set loops, random reads of
a large list, sets of frozensets), it tracked the wall time of every
workload best.  Its own time is left out of both readings.  The handler
runs only between bytecodes, so a slice that ends inside a long native
call is just a longer slice.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.03     # seconds from one reference timing to the next
# the reference's time that normalized seconds assume: its time inside a
# worker in a quiet phase of the VM above, where normalized seconds then
# come close to raw ones
REF_S = 0.00055
WINDOW = 3          # reference timings whose median scales a slice


def reference() -> int:
    """Fixed work, 0.5 ms alone on a quiet host: four times, build sparse
    integer columns as dicts and eliminate the first from the others."""
    left = 0
    for _ in range(4):
        cols = [{(i * j) % 97: (i + j) % 5 - 2 for j in range(12)}
                for i in range(60)]
        pivot = cols[0]
        for col in cols[1:]:
            for r, v in pivot.items():
                nv = col.get(r, 0) - 2 * v
                if nv:
                    col[r] = nv
                elif r in col:
                    del col[r]
        left += sum(len(c) for c in cols)
    return left


class RefClock:
    """Work time of this process since ``start``, raw and normalized.

    One clock per process: it owns SIGALRM and ITIMER_REAL while it runs.
    """

    def __init__(self):
        self._raw = 0.0         # work seconds up to _mark
        self._norm = 0.0        # normalized seconds up to _mark
        self._mark = 0.0        # perf_counter at the start of this slice
        self._recent: list[float] = []

    def _time_reference(self) -> float:
        # a collection of mfc's objects must not land inside a timing
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def _scale(self) -> float:
        return REF_S / statistics.median(self._recent)

    def start(self) -> None:
        for _ in range(3):      # warm up, then keep the last timing
            r = self._time_reference()
        self._recent = [r]
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._recent = (self._recent + [self._time_reference()])[-WINDOW:]
        slice_s = t0 - self._mark
        self._raw += slice_s
        self._norm += slice_s * self._scale()
        self._mark = time.perf_counter()

    def read(self) -> tuple[float, float]:
        """(raw, normalized) work seconds since ``start``."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            s = time.perf_counter() - self._mark
            return self._raw + s, self._norm + s * self._scale()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def normalize(self, raw_seconds: float) -> float:
        """``raw_seconds`` at the latest reference speed, for an interval
        before ``start`` (the interpreter's own start-up)."""
        return raw_seconds * self._scale()
