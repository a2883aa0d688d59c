"""The host's speed, timed on a fixed reference kernel.

This host is a few cores of a shared machine, and its speed drifts with
the load its neighbours put on it: the same 20 analyze inputs took from
0.36 s to 0.59 s in 25 s windows of one five-minute run, an IQR of 39%
of the median.  A timing of the program alone cannot tell that drift
from a change in the program.

So the benchmark runs a short reference slice between reports and
scales each report's time by ``NOMINAL_S`` over the reference time
measured around it (see ``Pacer``): the times it reports are those of
a host that runs the slice in ``NOMINAL_S``.  In the run above, the
analyze time over the neighbouring slices' time spread 4% where the raw
time spread 39%; in a quieter run, fixed inputs of the four workloads
spread 10% to 14% raw and 4% to 8% scaled.

The kernel does what the program spends its time on, in exact rational
arithmetic: a product and an inversion of truncated power series (as in
``series``), a sparse product keyed by tuple monomials (as in
``algebra``) and a row reduction (as in ``oracle`` and ``xi``).  It is
this file's own code, so no change to ``frescos`` changes it.
"""

import bisect
import statistics
import time
from fractions import Fraction

# about the slice's median time on a busy shared 2-core host with
# Python 3.11 (5 ms when the host is quiet); the unit the scaled times
# are given in, not a figure to re-measure
NOMINAL_S = 0.007
# slices within this many seconds of a report set its local speed
HALF_WINDOW_S = 1.0
# the least time from one slice to the next
EVERY_S = 0.1
# the share of a report's time its slices take, at the least
SHARE = 0.05

_ORDER = 18
_A = [Fraction((7 * i + 3) % 23 - 11, 1 + (5 * i) % 13) for i in range(_ORDER)]
_B = [Fraction(1)] + [Fraction((11 * i + 5) % 19 - 9, 1 + (3 * i) % 17)
                      for i in range(1, _ORDER)]
_SPARSE = {((i * 5) % 7, (i * 3) % 5): Fraction(i % 9 - 4, 1 + i % 4)
           for i in range(20)}
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
            for j in range(8)] for i in range(8)]


def _product(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def _inverse(a):
    inv = [1 / a[0]]
    for n in range(1, len(a)):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += a[i] * inv[n - i]
        inv.append(-acc / a[0])
    return inv


def _sparse_product(u, v):
    out = {}
    for (i, j), x in u.items():
        for (k, l), y in v.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


def _row_reduce(m):
    """Reduced row echelon form of a list of Fraction rows."""
    m = [row[:] for row in m]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m


def kernel():
    """One reference slice; returns a checksum so no part is dead."""
    p = _product(_A, _inverse(_B))
    s = _sparse_product(_SPARSE, _SPARSE)
    m = _row_reduce(_MATRIX)
    return p[-1] + sum(s.values()) + sum(m[-1])


CHECKSUM = kernel()


def slice_s():
    """Seconds one reference slice takes now."""
    t0 = time.perf_counter()
    value = kernel()
    elapsed = time.perf_counter() - t0
    if value != CHECKSUM:
        raise AssertionError("reference kernel gave %s, not %s"
                             % (value, CHECKSUM))
    return elapsed


class Pacer:
    """Reference slices between reports.

    After a report, if EVERY_S has passed since the last slice, slices
    run until they have taken SHARE of the report's time, and at least
    one.  So a long report is timed against several slices, and short
    ones do not spend most of the run on slices.
    """

    def __init__(self):
        self.at = []
        self.took = []

    def between_reports(self, report_s=0.0, force=False):
        now = time.perf_counter()
        if not (force or not self.at or now - self.at[-1] >= EVERY_S):
            return
        spent = 0.0
        while not spent or spent < SHARE * report_s:
            took = slice_s()
            self.took.append(took)
            self.at.append(now)
            spent += took
            now = time.perf_counter()

    def at_reference_speed(self, times, ends):
        """Each time scaled by NOMINAL_S over the local reference time.

        ``times[i]`` ended at ``ends[i]``; its local reference time is
        the median of the slices that started within HALF_WINDOW_S of
        its middle, or of the nearest slice after it if none did.  The
        window follows the host's drift while a single slice's jitter
        washes out.
        """
        out = []
        for t, end in zip(times, ends):
            mid = end - t / 2
            lo = bisect.bisect_left(self.at, mid - HALF_WINDOW_S)
            hi = bisect.bisect_right(self.at, mid + HALF_WINDOW_S)
            near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
            out.append(t * NOMINAL_S / statistics.median(near))
        return out
