"""Operation timing calibrated against a fixed probe.

The benchmark host is shared: its CPU runs at one speed for a while, then
at about half that speed, for spells from a tenth of a second to minutes.
A plain wall time then says as much about the spell as about the program.
`Clock` therefore runs a short probe of fixed work (row reduction of a
small int64 matrix mod p, and dict, tuple and sort work in plain Python:
the same kinds of work as tauseq's own) right after each timed interval
and every SAMPLE_S seconds inside one.  It converts wall time to
*reference seconds*: wall time times speed, where speed is PROBE_REF_S /
(the probe time measured around it).

The probe does not use tauseq, so a change to the program moves the
program's times and not the probe's.  On a host whose probe takes
PROBE_REF_S, reference seconds are plain seconds.
"""

import signal
import time

import numpy as np

PROBE_P = 32003
PROBE_N = 10
PROBE_ROUNDS = 2
PROBE_ITEMS = 300
# Probe time at the fast speed of a 2-core x86-64 host (Python 3.11,
# numpy 2.4); the unit that reference seconds are measured in.
PROBE_REF_S = 4.0e-4
SAMPLE_S = 0.01

_BASE = (np.arange(PROBE_N * PROBE_N, dtype=np.int64).reshape(PROBE_N, PROBE_N)
         ** 3 + 7) % PROBE_P


def probe_work():
    """Fixed work: Gauss-Jordan reduction of a small matrix mod p, then
    building and sorting a small dict."""
    rank = 0
    for _ in range(PROBE_ROUNDS):
        a = _BASE.copy()
        row = 0
        for col in range(PROBE_N):
            piv = next((r for r in range(row, PROBE_N) if a[r, col]), None)
            if piv is None:
                continue
            a[[row, piv]] = a[[piv, row]]
            a[row] = a[row] * pow(int(a[row, col]), PROBE_P - 2, PROBE_P) \
                % PROBE_P
            for r in range(PROBE_N):
                if r != row and a[r, col]:
                    a[r] = (a[r] - a[r, col] * a[row]) % PROBE_P
            row += 1
        rank += row
    table = {(i % 37, i): (i, -i) for i in range(PROBE_ITEMS)}
    return rank + len(sorted(table.items(), key=lambda kv: kv[0][1] % 97))


def probe_s():
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class Clock:
    """Wall and reference time of intervals.

    Time is cut into segments at each probe: on every `lap()` and, from a
    SIGALRM timer, every SAMPLE_S seconds, so that an operation or a setup
    that lasts seconds is calibrated throughout and not only at its ends.
    A segment's reference time is its wall time times the mean speed of
    the probes at its two ends.  Probe time is in no segment.

    `restart()` opens an interval and `lap()` closes it and opens the next;
    `total()` is the (wall, reference) time since the clock was made, probes
    left out.
    With calibrate=False nothing is probed and reference time is wall time
    (traced passes, whose tracer would time the probes too).
    """

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.busy = False
        self.total_wall = self.total_ref = 0.0
        self.speed = self._probe()
        self.seg_start = time.perf_counter()
        self.restart()

    def __enter__(self):
        if self.calibrate:
            self.old = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)

    def _probe(self):
        return PROBE_REF_S / probe_s() if self.calibrate else 1.0

    def _on_timer(self, signum, frame):
        if not self.busy:
            self.busy = True
            self._step()
            self.busy = False

    def _step(self):
        seg = time.perf_counter() - self.seg_start
        before = self.speed
        self.speed = self._probe()
        ref = seg * (before + self.speed) / 2
        self.wall += seg
        self.ref += ref
        self.total_wall += seg
        self.total_ref += ref
        self.seg_start = time.perf_counter()

    def restart(self):
        """Open a new interval now.  The time since the last lap counts only
        in `total()`, at the last probe's speed."""
        self.busy = True
        now = time.perf_counter()
        self.total_wall += now - self.seg_start
        self.total_ref += (now - self.seg_start) * self.speed
        self.wall = self.ref = 0.0
        self.seg_start = now
        self.busy = False

    def lap(self):
        """-> (wall seconds, reference seconds) of the interval just ended."""
        self.busy = True
        self._step()
        out = (self.wall, self.ref)
        self.wall = self.ref = 0.0
        self.busy = False
        return out

    def total(self):
        """-> (wall, reference) seconds since the clock was made, probes
        left out."""
        self.busy = True
        self._step()
        self.busy = False
        return self.total_wall, self.total_ref
