"""Host-speed reference for the benchmark's timings.

The host this benchmark was written on gives its vCPUs a speed that changes
all the time: a fixed pure-Python loop runs at one of a few speeds (up to 2x
apart) for spells of 0.1 s to a few seconds, and the mix of spells drifts over
minutes.  Left alone, that makes jobs_per_s of the same code spread by 20-30%
between runs.  So every time the benchmark reports is scaled to a fixed host
speed, measured while the job runs: an interval timer interrupts the process
every `INTERVAL_S`, and the handler runs a small reference kernel twice and
times the second run (the first refills the caches the job evicted; timed
cold, the kernel ran 8-24% slower, by an amount that depended on the job).  A
job's time, less the handler's time inside it, is multiplied by
`REF_KERNEL_S` over the mean kernel time of the samples taken during the job
(or of the `MIN_SAMPLES` nearest ones, for a short job).  A reported
millisecond is then a millisecond on a host where the kernel takes
`REF_KERNEL_S`, its median on the benchmark's 2-vCPU baseline VM.

The kernel uses only the standard library and none of amort.  A change to the
program can move it only through the state the kernel finds when it
interrupts a job, which the untimed first run mostly clears.  It does the
kinds of work amort's layers do in pure Python: exact rational elimination
(lp), hashing small tuples into dicts (prover, vcgen) and copying a
2000-entry dict whole (the vm copies its heap on every step).

Scaling does not remove everything: the same job's scaled time still varies
by about 10% from run to run, because the kernel cannot follow every change in
the host's speed during the job.  The percentiles pick such single jobs, so
they stay noisier than jobs_per_s (see baseline.json for the spreads).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.0006  # kernel time that defines the reported time scale
INTERVAL_S = 0.025  # the timer's period; the handler takes about 5% of the time
MIN_SAMPLES = 8  # kernel samples behind every scaled time
HEAP = {i: (i, i + 1) for i in range(2000)}  # copied whole, as the vm copies its heap


def kernel():
    n = 4
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(n)] for i in range(n)]
    for p in range(n):
        piv = rows[p][p]
        for i in range(n):
            if i != p:
                f = rows[i][p] / piv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
    counts = {}
    for i in range(600):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    for i in range(4):
        heap = dict(HEAP)
        heap[-i] = (i, i)
    return rows[0][0], len(counts), len(heap)


class Speedometer:
    """Samples the kernel on a timer while active (`with Speedometer() as s`)
    and scales the times measured meanwhile."""

    def __init__(self):
        self.starts, self.times, self.spent = [], [], []
        self._old = None

    def _tick(self, signum, frame):
        # the kernel makes no cycles; with the collector off, its time does
        # not depend on how many objects the program keeps alive
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()  # untimed: refills the caches the interrupted job evicted
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, t0, t1):
        """The time from t0 to t1 (perf_counter readings), less the kernel
        samples inside it, scaled to the reference host speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = sum(self.spent[lo:hi])
        if len(self.times) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(self.times)} host-speed samples; the timer did not fire")
        while hi - lo < MIN_SAMPLES:
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self.times):
                hi += 1
        return (t1 - t0 - own) * REF_KERNEL_S / statistics.fmean(self.times[lo:hi])

    def median_ms(self):
        return 1000 * statistics.median(self.times)

    def share(self):
        """The handler's share of the time the timer ran."""
        return sum(self.spent) / (self.starts[-1] - self.starts[0]) if len(self.starts) > 1 else 0.0
