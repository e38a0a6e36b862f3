"""Timing harness for the rank algorithms.

Measures wall time of the rank computation over a geometric grid of n and
fits the growth exponent as the least-squares slope of log(time) against
log(n). The query fraction is fixed across the whole grid to a ratio of
consecutive Fibonacci numbers: its continued fraction is all ones, the
worst case for the Euclid-style recursion inside the floor sums, so easy
inputs cannot flatter the fit.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from .farey import rank_brute, rank_improved, rank_pawlewicz

__all__ = ["BenchRecord", "golden_x", "run_grid", "fit_exponent", "to_csv", "ALGOS"]

ALGOS = {
    "improved": rank_improved,
    "pawlewicz": rank_pawlewicz,
    "brute": rank_brute,
}


def golden_x() -> Fraction:
    """F_45/F_46, a ratio of consecutive Fibonacci numbers a hair under the
    inverse golden ratio; its 44 partial quotients are 1 but the last, 2."""
    a, b = 1, 1
    for _ in range(44):
        a, b = b, a + b
    return Fraction(a, b)


@dataclass
class BenchRecord:
    """One timed grid point."""

    algo: str
    n: int
    reps: int
    median_ns: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.reps < 3:
            raise ValueError("need at least 3 repetitions")
        if self.median_ns <= 0:
            raise ValueError("median time must be positive")


def run_grid(algo: str, sizes, reps: int) -> list:
    """Time one algorithm across an ascending grid of n.

    The grid must hold at least 4 sizes spanning at least two decades so a
    slope fit is meaningful. One discarded warm-up run per size comes
    first; then the reps go round-robin over the sizes, so every n meets
    the same mix of clock speeds, and each size keeps its median timing.
    """
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    sizes = list(sizes)
    if len(sizes) < 4:
        raise ValueError("need at least 4 grid sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if sizes[-1] < 100 * sizes[0]:
        raise ValueError("sizes must span at least two decades")
    if reps < 3:
        raise ValueError("need at least 3 repetitions")
    fn, x = ALGOS[algo], golden_x()
    for n in sizes:
        fn(x, n)  # warm-up, discarded
    times = [[] for _ in sizes]
    for _ in range(reps):
        for n, ts in zip(sizes, times):
            t0 = time.perf_counter_ns()
            fn(x, n)
            ts.append(time.perf_counter_ns() - t0)
    return [BenchRecord(algo, n, reps, round(statistics.median(ts))) for n, ts in zip(sizes, times)]


def fit_exponent(records) -> float:
    """Least-squares slope of log median time against log n."""
    records = list(records)
    if len(records) < 4:
        raise ValueError("need at least 4 records to fit a slope")
    xs = [math.log(r.n) for r in records]
    ys = [math.log(r.median_ns) for r in records]
    return statistics.linear_regression(xs, ys).slope


def to_csv(records) -> str:
    """CSV rows with the fixed header algo,n,reps,median_ns."""
    lines = ["algo,n,reps,median_ns"]
    lines.extend(f"{r.algo},{r.n},{r.reps},{r.median_ns}" for r in records)
    return "\n".join(lines) + "\n"
