"""Timing that survives a shared machine.

The CPUs this benchmark runs on are shared, and their speed drifts by a
third or more within seconds, in CPU time as well as in wall time.  Every
operation is therefore bracketed by a calibration: a fixed exact-arithmetic
kernel (Gauss-Jordan over Q, the same kind of work the program does) timed
just before and just after it.  An operation's scaled time is its wall time
times ``REF_CAL_S`` over the mean of the two calibrations, i.e. the time it
would take on a machine where the kernel takes ``REF_CAL_S``.  Raw wall
times are kept next to the scaled ones.
"""

import gc
import statistics
import sys
import time
import traceback
from fractions import Fraction

# About what the kernel takes between operations on a 2-vCPU Intel Xeon
# under Python 3.11, so that scaled and raw times are close there.
REF_CAL_S = 0.0045
SETUP_REPEATS = 15


def calibration_kernel():
    """Gauss-Jordan elimination over Q on a fixed 10x10 matrix."""
    n = 10
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1


def calibrate():
    """Seconds for one calibration kernel, median of three, on a collected
    heap so that no garbage left by an operation is swept inside it."""
    gc.collect()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds, before, after):
    return seconds * REF_CAL_S * 2 / (before + after)


def setup_seconds(texts, parse):
    """(raw, scaled): per text the median of SETUP_REPEATS parses, summed."""
    raw = scaled = 0.0
    for text in texts:
        before = calibrate()
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            parse(text)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        raw += med
        scaled += scale(med, before, calibrate())
    return raw, scaled


def cache_entries(roots):
    """Entries per key family of ``algebra.cache`` over the given algebras
    and the opposite algebras cached on them."""
    seen, todo, counts = set(), list(roots), {}
    while todo:
        alg = todo.pop()
        if id(alg) in seen:
            continue
        seen.add(id(alg))
        for key in alg.cache:
            family = key[0] if isinstance(key, tuple) else key
            counts[family] = counts.get(family, 0) + 1
        if "opposite" in alg.cache:
            todo.append(alg.cache["opposite"])
    return counts


class Runner:
    """Runs a closed loop over the operations and keeps every measurement."""

    def __init__(self, ops):
        self.ops = ops
        self.wall = {op.key: [] for op in ops}
        self.scaled = {op.key: [] for op in ops}
        self.ok = 0
        self.attempted = 0
        self.failures = {}
        self.cache = {}
        self.passes = 0.0
        self.cals = []
        self._cal = None

    def run(self, seconds, whole_passes=False):
        """At least one pass, then operations in pass order until seconds
        have gone by; with whole_passes the run ends on a pass boundary."""
        begin = time.perf_counter()
        done = 0
        while (
            done < len(self.ops)
            or time.perf_counter() - begin < seconds
            or (whole_passes and done % len(self.ops))
        ):
            self.one(self.ops[done % len(self.ops)])
            done += 1
        self.passes += done / len(self.ops)

    def one(self, op):
        op.prepare()
        if self._cal is None:
            self._cal = calibrate()
            self.cals.append(self._cal)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            self.fail(op, type(exc).__name__, traceback.format_exception(exc))
        else:
            dt = time.perf_counter() - t0
            bad = op.check(result)
            if bad:
                self.fail(op, "wrong answer: " + ", ".join(bad), [])
            else:
                self.ok += 1
                for family, count in cache_entries(op.algebras()).items():
                    self.cache[family] = self.cache.get(family, 0) + count
            # calibrate with the heap as small as before the operation
            del result
        before, self._cal = self._cal, calibrate()
        self.cals.append(self._cal)
        self.wall[op.key].append(dt)
        self.scaled[op.key].append(scale(dt, before, self._cal))

    def fail(self, op, kind, lines):
        key = (op.key, kind)
        if key not in self.failures:
            print("".join(lines), file=sys.stderr, end="")
        self.failures[key] = self.failures.get(key, 0) + 1

    def medians(self, scaled=True):
        """Per operation its median time over the run."""
        table = self.scaled if scaled else self.wall
        return [statistics.median(v) for v in table.values()]

    def pass_s(self, scaled=True):
        """Time of one pass: per operation the median time, summed."""
        return sum(self.medians(scaled))
