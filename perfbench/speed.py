"""Scaling measured times to a reference host speed.

On a shared host the same code runs at very different speeds from one
second to the next.  On the 2-core host the baseline was recorded on, a
fixed pure-Python loop alternated between about 12 ms and 20 ms within a
minute, with no CPU steal and with thread CPU time tracking wall time, so
neither a longer run nor CPU time removes it.  The benchmark therefore
times a fixed calibration kernel every INTERVAL_S seconds, and reports a
time t measured while the kernel took k seconds as
t * (REF_KERNEL_S / k) ** ELASTICITY.  The kernel uses nothing from the
program, so a change to the program cannot move it; raw times are printed
next to the scaled ones.

ELASTICITY is how strongly the workloads' times follow the kernel's on
that host: the slope of log(item time) against log(kernel time), measured
by timing one fixed item again and again between kernel runs
(``elasticity`` below):

    python3 perfbench/speed.py WORKLOAD [SECONDS]

In 1-s windows over 30 to 60 s it was 0.77 and 0.62 for vector-law-m2
(two runs), 0.66 for gauss-m2 and 0.75 for theta-m3; an earlier per-item
fit over 25 s gave 0.87 for gauss-m2 and 0.70 for theta-m3.  Of the
exponents 0.5, 0.65, 0.8 and 1.0, tried on six seeds of gauss-m2 and
theta-m3, 0.8 left the smallest spread across seeds; scaling by the full ratio over-corrects runs
that spend longer in the slow phase.  One exponent for all workloads errs
by at most 1.6 ** 0.14, about 7 %, between the two phases, and less on a
run that mixes them.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import sys
import time
from fractions import Fraction

# Kernel time on the baseline host in its fast phase; only the ratio matters.
REF_KERNEL_S = 7.5e-4
ELASTICITY = 0.8
INTERVAL_S = 0.1


def kernel() -> float:
    """Seconds for a fixed piece of Fraction arithmetic, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1, 150):
            f = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i + 2)
            acc += f.numerator % 7
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Kernel times sampled along a run, interpolated to any instant."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self):
        k = kernel()
        self.at.append(time.perf_counter())
        self.kernel_s.append(k)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """The factor for a time measured at instant t, by interpolating
        the kernel times sampled around it."""
        i = bisect.bisect_left(self.at, t)
        if i == 0:
            k = self.kernel_s[0]
        elif i == len(self.at):
            k = self.kernel_s[-1]
        else:
            t0, t1 = self.at[i - 1], self.at[i]
            k0, k1 = self.kernel_s[i - 1], self.kernel_s[i]
            k = k0 + (k1 - k0) * (t - t0) / (t1 - t0)
        return factor(k)


def factor(kernel_s: float) -> float:
    """Scale for a time measured while the kernel took kernel_s seconds."""
    return (REF_KERNEL_S / kernel_s) ** ELASTICITY


def elasticity(workload_name: str, seconds: float) -> tuple:
    """(slope, windows, kernel spread) for one workload.

    The workload's warm-up item is computed again and again, the kernel
    timed before and after each computation.  Items are grouped into
    windows of a second, so that the kernel times stand for the host speed
    during a long item too, and the log of the mean item time of each
    window is regressed on the log of its mean kernel time.  The
    kernel spread is q3 / q1 of the windows' kernel times: near 1, the host
    kept one speed and the slope says little.
    """
    import workloads
    w = workloads.WORKLOADS[workload_name]
    w.prepare()
    inp = workloads.warmup_input(w)
    w.compute(inp)
    xs, ys, kernels, items = [], [], [], []
    start = time.perf_counter()
    stop = start + seconds
    while time.perf_counter() < stop:
        k0 = kernel()
        t0 = time.perf_counter()
        w.compute(inp)
        items.append(time.perf_counter() - t0)
        kernels += [k0, kernel()]
        if time.perf_counter() - start >= 1.0:
            xs.append(math.log(statistics.mean(kernels)))
            ys.append(math.log(statistics.mean(items)))
            kernels, items, start = [], [], time.perf_counter()
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return statistics.linear_regression(xs, ys).slope, len(xs), math.exp(q3 - q1)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: python3 perfbench/speed.py WORKLOAD [SECONDS]", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
    slope, n, kspread = elasticity(args[0], float(args[1]) if len(args) > 1 else 25.0)
    print(f"{args[0]}: elasticity {slope:.3f} over {n} windows "
          f"(kernel q3/q1 {kspread:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
