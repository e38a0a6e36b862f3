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
from fractions import Fraction

from .farey import rank_brute, rank_improved, rank_pawlewicz

__all__ = ["golden_x", "run_grid", "fit_exponent", "to_csv", "ALGOS"]

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


def run_grid(algo: str, sizes, reps: int) -> list:
    """Time one algorithm across an ascending grid of n.

    The grid must hold at least 4 sizes spanning at least two decades so a
    slope fit is meaningful. One discarded warm-up run per size comes
    first; then the reps go round-robin over the sizes, so every n meets
    the same mix of clock speeds. Returns (n, median_ns) pairs.
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
    return [(n, round(statistics.median(ts))) for n, ts in zip(sizes, times)]


def fit_exponent(rows) -> float:
    """Least-squares slope of log median time against log n over (n, median_ns) pairs."""
    rows = list(rows)
    if len(rows) < 4:
        raise ValueError("need at least 4 grid points to fit a slope")
    xs, ys = ([math.log(v) for v in column] for column in zip(*rows))
    return statistics.linear_regression(xs, ys).slope


def to_csv(algo: str, reps: int, rows) -> str:
    """CSV rows with the fixed header algo,n,reps,median_ns."""
    lines = ["algo,n,reps,median_ns"]
    lines.extend(f"{algo},{n},{reps},{median_ns}" for n, median_ns in rows)
    return "\n".join(lines) + "\n"
