"""Pass times at a fixed machine speed.

The host is shared, and its speed drifts: a fixed pure-Python load takes
anywhere from 12 to 28 ms within a few minutes, and its mean over a 40 s
window varies by about 12% (coefficient of variation) from one window to
the next.  The raw wall time of a pass carries that drift in full.

So the worker times each pass with a ``Ticker``.  A calibration, one run
of ``load``, runs just before the pass, just after it, and every
``TICK_S`` inside it, from a SIGALRM handler between two bytecodes of the
pass.  Time spent in calibrations is left out of the pass.  Each stretch
of the pass between two calibrations is scaled by ``REFERENCE_S`` over the
mean of those two calibrations, and the scaled stretches add up to the
pass time at reference speed.  The load does not touch the library and
allocates only short-lived objects with the collector off, so the
library's own state cannot change its time: a slower library shows in
full.  No thread or process is added.  Sampling often matters more than
sampling long: the speed moves within a second.

The load's mix follows the library's hot paths: small arrow-like objects
built and composed through index lookups, bitmask tests and dict probes.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The time of one ``load()`` that the scaled figures are expressed at: about
# its median on a 2-vCPU VM (Intel Xeon at 2.0 GHz, Python 3.11.7).
REFERENCE_S = 0.020
REPS = 1
TICK_S = 0.2


class _Arrow:
    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom, cod, table):
        self.dom, self.cod, self.table = dom, cod, table


def _compose(g, f):
    gt = g.table
    return _Arrow(f.dom, g.cod, tuple(gt[i] for i in f.table))


def load(rounds=180):
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    n = 6
    tables = [tuple((i * k + k) % n for i in range(n)) for k in range(1, n + 1)]
    arrows = [_Arrow(n, n, t) for t in tables]
    seen = {}
    acc = 0
    for r in range(rounds):
        for f in arrows:
            for g in arrows:
                h = _compose(g, f)
                key = h.table
                if key in seen:
                    acc += seen[key]
                else:
                    seen[key] = len(seen)
                mask = (r * 2654435761 + acc) & 0xFFFFFFFF
                for i in h.table:
                    acc += (mask >> i) & 1
    return acc


def measure(reps=REPS):
    """The median wall time of ``reps`` loads, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            load()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


# Seconds spent so far in calibrations inside timed calls; a caller that
# times parts of a call itself subtracts the growth of this figure.
paused_s = 0.0


class Ticker:
    """Times calls at reference speed; see the module docstring."""

    def __init__(self):
        self._marks = None
        self._busy = False

    def _calibrate(self):
        start = time.perf_counter()
        speed = measure()
        self._marks.append((start, time.perf_counter(), speed))

    def _tick(self, signum, frame):
        global paused_s
        # A tick that lands inside a calibration (when one takes longer than
        # TICK_S) is dropped rather than nested.
        if self._marks is not None and not self._busy:
            self._busy = True
            try:
                self._calibrate()
            finally:
                self._busy = False
            start, end, _ = self._marks[-1]
            paused_s += end - start

    def time(self, fn, *args):
        """fn(*args) and its time, as (result, seconds, seconds at reference
        speed); both times leave the calibrations out.  What fn raises is
        passed on."""
        self._marks = []
        try:
            self._calibrate()
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            try:
                t0 = time.perf_counter()
                result = fn(*args)
                t1 = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._calibrate()
            marks = self._marks
        finally:
            self._marks = None
        inner = [m for m in marks[1:-1] if t0 <= m[0] < t1]
        seconds = scaled = 0.0
        begin, speed = t0, marks[0][2]
        for start, end, v in [*inner, (t1, None, marks[-1][2])]:
            seconds += start - begin
            scaled += (start - begin) * REFERENCE_S / ((speed + v) / 2)
            begin, speed = end, v
        return result, seconds, scaled


def scale(seconds, before, after):
    """A time measured between two calibrations, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
