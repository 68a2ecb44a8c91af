"""Interpreter speed of the host, sampled from inside a pass while it runs.

On a shared host the core a pass runs on slows by up to 1.8x while
another tenant loads it or its hyper-thread sibling.  That state changes
within seconds and its share drifts over minutes, so raw times of the
same interpreted code vary between runs by more than a regression bound
can allow.

``SpeedProbe`` arms a SIGALRM timer every ``INTERVAL_S`` seconds.  Python
runs a signal handler at the next bytecode boundary, so a handler that
runs on time finds the pass in the interpreter, and one that runs late
(or after several expiries) finds it in a C call such as a numpy or BLAS
kernel.  The share of on-time expiries is the share of the pass spent in
the interpreter.  An on-time handler also times a small fixed pure-Python
loop (``probe``); its mean time over ``REF_PROBE_S``, the probe's time on
an unloaded core of the machine in baseline.json, is the interpreter's
slowdown.  ``slowdown`` scales only the interpreter's share by it, since
the probe does not speak for C code: a time divided by ``slowdown`` is
that time with its interpreted part at the reference speed.  Sampling
costs the pass under 1% of its time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
LATE_S = 2e-3         # a handler later than this was held up by a C call
PROBE_TERMS = 300     # about 0.7 ms on an unloaded core
WARM_TERMS = 20       # untimed, so caches the program evicted are refilled
REF_PROBE_S = 0.72e-3


def probe(terms):
    """Seconds taken by a fixed mix of Fraction arithmetic and dict work."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, terms + 1):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        table[i % 16] = acc
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.probes = []      # probe seconds, one per on-time expiry
        self.in_c = 0         # expiries that found the pass in a C call

    def on_alarm(self, signum, frame):
        since = time.perf_counter() - self.t0
        expiry = math.floor((since + LATE_S / 2) / INTERVAL_S)
        on_time = since - expiry * INTERVAL_S < LATE_S
        # every expiry between the previous handler and this one found
        # the pass in the C call that held both up
        self.in_c += max(expiry - self.seen - 1, 0) + (not on_time)
        self.seen = expiry
        if on_time:
            probe(WARM_TERMS)
            self.probes.append(probe(PROBE_TERMS))

    def start(self):
        self.seen = 0
        signal.signal(signal.SIGALRM, self.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.t0 = time.perf_counter()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interpreted_share(self):
        return len(self.probes) / max(len(self.probes) + self.in_c, 1)

    def slowdown(self):
        """Raw time over the time with the interpreted share scaled to
        the reference speed."""
        if not self.probes:
            return 1.0
        share = self.interpreted_share()
        probe_slowdown = statistics.fmean(self.probes) / REF_PROBE_S
        return 1.0 / (1.0 - share + share / probe_slowdown)
