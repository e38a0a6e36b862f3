"""Primitive lattice point counting in star-shaped rational polygons.

A lattice point is primitive when its coordinates are coprime, i.e. it is
visible from the origin. Writing S(P) for the primitive count of the closed
region and A(P) for the plain lattice count, grouping the nonzero lattice
points by the gcd of their coordinates gives A(P) - 1 = sum_{j>=1} S(P/j),
where P/j is P shrunk by j and the -1 removes the origin, which belongs to
no coprimality class. Moebius inversion turns this into

    S(P) = sum_{d >= 1} mu(d) * (A(P/d) - 1).

Shrink factors at or above a crossover tau push the polygon so far that the
few surviving points are tabulated once, wedge by wedge, each with the
first shrink that pushes it out; S(P/j) for j >= tau is the number of those
thresholds above j, and these counts fill one flat table S[j] that is zero
below tau. The sum splits at tau. Below it only the squarefree d count,
each with one lattice count. At and above it, A(P/d) - 1 is a sum of S(P/N)
over the multiples N of d, and for N >= tau >= 2 the mu(d) of the divisors
d >= tau of N sum to minus those of the divisors d < tau, so that half
folds onto the terms below tau: the term of d becomes
A(P/d) - 1 - sum_{j>=2, d*j>=tau} S(P/(d*j)), one strided sum over the
table. The table stops at a cap A near (tau*D^2)^(1/3); the handful of
points whose threshold passes A enter each term as one list. With tau near
D^(4/7), the tail, the table and the strided sums all hold or read about
D^(6/7) entries, and about 0.61*tau lattice counts are made.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from collections import namedtuple
from itertools import compress, cycle, repeat
from math import gcd
from operator import floordiv, neg

from .exactmath import _iroot, _iroot_round, _mobius
from .geometry import (
    Polygon,
    _lattice_box,
    convex_hull,
    count_lattice,
    diameter_bound,
    point_in_scaled,
    validate,
)

__all__ = [
    "phi_value",
    "precompute_tail",
    "tail_query",
    "dp_term",
    "primitive_count",
    "primitive_brute",
    "random_star_polygon",
    "ImplicitTail",
]

BRUTE_LIMIT = 5000
# Largest accepted diameter bound. `fareylattice primitive` on the regular
# octagon at D = 10^8 took 5.1-7.0 s and 193 MiB peak RSS on a 2-CPU Xeon
# with Python 3.11 (D = 4*10^7: 1.9-2.6 s, 97 MiB); time and memory grow
# about like D^(6/7).
D_MAX = 10**8


def default_tau(D: int) -> int:
    """primitive_count's crossover for diameter bound D: D^(4/7) rounded, within [1, D]."""
    return min(D, max(1, _iroot_round(D**4, 7)))


# Longest tail side D / tau accepted from a tau override: the side the default
# tau reaches at D_MAX. The tail holds about (D/tau)^2 points; at tau = 1 the
# octagon took 0.4-0.5 s and 30 MiB at D = 2000, 1.5-2.1 s and 74 MiB at 4000.
TAIL_SIDE_MAX = -(-D_MAX // default_tau(D_MAX))
# Largest k * max(tau, ceil(D / tau)) accepted for k vertices: the dense half
# makes about 0.61*tau lattice counts of k floor sums each, and the tail scan
# at most k*(D/tau + 1) column tests. At the bound a 10^4-vertex star at
# D = 1.78*10^5 (default tau 1000) took 10 s with integer vertices and 23-27 s
# with 12-digit denominators, 23-26 MiB, on a 2-CPU Xeon with Python 3.11; at
# D = 10^8 it would take about half an hour, and the same star at D = 10^6
# with tau = 1000 (D / tau = 1000) took 20 s. The default tau, about D^(4/7),
# is below ceil(D / tau) only at D = 2 (tau = 1), so at the default tau the
# bound refuses nothing that k * tau <= KTAU_MAX let through.
KTAU_MAX = 10**7


def _wedges(poly: Polygon) -> list:
    # the edges a -> b of the cleared loop, at scale m, with cab = cross(a, b)
    # > 0; an edge with cab = 0 runs through the origin and bounds no wedge.
    # The ray through a point p of the closed wedge leaves the edge at the
    # exact parameter t = cab / (m * cross(p, b - a)).
    if not poly.validated:
        poly = validate(poly)
    return [
        (ax, ay, bx, by, m, m * (bx - ax), m * (by - ay), cab)
        for ax, ay, bx, by, m in poly._edges_cleared()
        if (cab := ax * by - ay * bx) > 0
    ]


def phi_value(poly: Polygon, pt) -> int:
    """Smallest shrink factor i >= 1 that pushes pt out of poly / i.

    pt must be a nonzero lattice point of poly. The origin lies in the
    kernel, so i*pt is in poly exactly while i <= t*, the exact parameter
    at which the ray through pt leaves poly, and the threshold is
    floor(t*) + 1. A point on a vertex direction or on a radial edge lies
    in two wedges, and the larger threshold counts.
    """
    x, y = pt
    if x == 0 and y == 0:
        raise ValueError("phi is not defined at the origin")
    phi = 1 + max((cab // (x * mdy - y * mdx) for ax, ay, bx, by, _, mdx, mdy, cab in _wedges(poly) if ax * y - ay * x >= 0 and x * by - y * bx >= 0), default=0)
    if phi <= 1:
        raise ValueError("point is outside the polygon")
    return phi


# ImplicitTail(tau, phis): the exit thresholds of the lattice points that
# survive the tau shrink. phis holds phi_value(P, p), sorted descending, for
# every primitive nonzero lattice point p of P/tau. A point is in P/i exactly
# when its phi exceeds i, so counting entries above a threshold answers
# S(P/i) for any i >= tau.
ImplicitTail = namedtuple("ImplicitTail", "tau phis")


def precompute_tail(poly: Polygon, tau: int) -> ImplicitTail:
    """Scan P/tau wedge by wedge and record the exit thresholds.

    A point p != 0 is in P/tau exactly when some wedge a -> b holds it with
    an exit parameter t >= tau, i.e. p lies in the triangle 0, a/tau, b/tau.
    The wedges' cones of a valid polygon have disjoint interiors, and a ray
    from the origin holds one primitive point, so every primitive point of
    P/tau lies strictly inside one cone or is the primitive point of a
    vertex ray. Each wedge scans the columns of its own triangle: in a
    column, the points strictly inside the cone with t >= tau form a
    y-interval cut out by three integer half-plane tests, its coprime y
    repeat with period |x| (the whole interval at x = 0), and along it
    x*mdy - y*mdx is an arithmetic progression, so the thresholds
    phi = 1 + cab // (x*mdy - y*mdx) of the coprime y come from one map over
    two ranges. Each wedge also gives the primitive point of each of its two
    rays its threshold, and a ray shared by two wedges keeps the larger one.
    The list is sorted from largest down.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    phis, rays = [], {}
    for ax, ay, bx, by, m, mdx, mdy, cab in _wedges(poly):
        # each ray's primitive point keeps the larger threshold of its wedges
        for vx, vy in ((ax, ay), (bx, by)):
            g = gcd(vx, vy)
            ux, uy = vx // g, vy // g
            rays[ux, uy] = max(rays.get((ux, uy), 0), 1 + cab // (ux * mdy - uy * mdx))
        s = m * tau
        y0, y1 = min(0, -(-ay // s), -(-by // s)), max(0, ay // s, by // s)
        for x in range(min(0, -(-ax // s), -(-bx // s)), max(0, ax // s, bx // s) + 1):
            # ax*y > ay*x (p strictly left of a), bx*y < by*x (strictly right
            # of b) and tau*mdx*y >= tau*x*mdy - cab (t >= tau), each c*y >= d
            lo, hi = y0, y1
            for c, d in ((ax, ay * x + 1), (-bx, 1 - by * x), (tau * mdx, tau * x * mdy - cab)):
                if c > 0:
                    lo = max(lo, -(-d // c))
                elif c < 0:
                    hi = min(hi, d // c)
                elif d > 0:
                    hi = lo - 1
            if lo > hi:
                continue
            # gcd(x, y) == 1 repeats with period |x| in y; x = 0 has none
            coprime = list(map({1}.__contains__, map(gcd, repeat(x), range(lo, hi + 1)[: abs(x) or None])))
            u = x * mdy - lo * mdx
            if mdx:
                stop = u - (hi - lo + 1) * mdx
                phis += map(floordiv, compress(range(cab + u, cab + stop, -mdx), cycle(coprime)), compress(range(u, stop, -mdx), cycle(coprime)))
            else:
                phis += compress(repeat(cab // u + 1, hi - lo + 1), cycle(coprime))
    phis += [phi for phi in rays.values() if phi > tau]
    phis.sort(reverse=True)
    return ImplicitTail(tau=tau, phis=phis)


def tail_query(tail: ImplicitTail, i: int) -> int:
    """S(P/i) for i at or beyond the tail cutoff: entries above i."""
    if i < tail.tau:
        raise ValueError("shrink factor below the tail cutoff")
    return bisect_left(tail.phis, -i, key=neg)


def dp_term(i: int, S, poly: Polygon, far=()) -> int:
    """A(P/i) - 1 - sum_{j>=2} S[i*j], the term of shrink factor i.

    S is any sequence holding S[j] for j < len(S) that supports stride
    slicing. Past its end, S[j] counts the tail points with phi - 1 >= j:
    far holds phi - 1 for each of them that reaches len(S) > i, and such a
    point counts for the multiples j of i in [max(len(S), 2i), phi - 1].
    With S[j] = S(P/j) for every j > i this is S(P/i), by the gcd
    recursion; with S zero below tau > i and S(P/j) from tau on, it is the
    Moebius term of i in primitive_count's fold. With far empty, S need
    only run up to its last nonzero entry.
    """
    lo = (max(len(S), 2 * i) - 1) // i
    return count_lattice(poly, i) - 1 - sum(S[2 * i :: i]) - sum(map(floordiv, far, repeat(i))) + len(far) * lo


def _table_cap(tau: int, D: int) -> int:
    # the S table holds j < A: the strided sums read about A*ln(tau) entries
    # and far about D^2/A^2 points per term, balanced near (tau*D^2)^(1/3)
    return max(tau + 1, _iroot(tau * D * D, 3))


# Longest S table accepted from a tau override: the cap the default tau
# reaches at D_MAX, 7,196,860 int64 entries.
TABLE_MAX = _table_cap(default_tau(D_MAX), D_MAX)


def primitive_count(poly: Polygon, tau: int | None = None) -> int:
    """Primitive lattice points in the closed region of poly.

    Sets the crossover tau near D^(4/7) unless overridden, by a tau with
    D <= TAIL_SIDE_MAX * tau, and fills one table S[j] for j below a cap A
    near (tau*D^2)^(1/3): zero below tau, and for tau <= j < A the number
    of tail points whose phi exceeds j, which is S(P/j), written as one run
    per distinct phi. The tail points with phi > A, few and near the origin
    or on a radial edge, stay in one list far that each term reads directly.
    The answer is S[1] plus mu(d) * dp_term(d) summed over the squarefree
    d < tau, the Moebius fold of the module docstring; S[1] is nonzero only
    at tau = 1, where that sum is empty. The origin never counts.

    Memory and time: about D^(6/7) tail points, table entries and strided
    reads, and about 0.61*tau lattice counts. The table is an int64 array
    read through a memoryview, so a strided sum copies nothing;
    S(P/j) <= (D+1)^2 fits int64 for every D up to D_MAX. D, the table
    length (TABLE_MAX) and k*max(tau, D/tau) for k vertices (KTAU_MAX) are
    checked before anything is allocated.
    """
    if not poly.validated:
        poly = validate(poly)
    D = diameter_bound(poly)
    if D > D_MAX:
        raise ValueError(f"diameter bound {D} exceeds D_MAX = {D_MAX}")
    if tau is None:
        tau = default_tau(D)
    elif not 1 <= tau <= D:
        raise ValueError("tau must be between 1 and the diameter bound")
    elif D > TAIL_SIDE_MAX * tau:
        raise ValueError(f"tau = {tau} leaves a tail of side D / tau above TAIL_SIDE_MAX = {TAIL_SIDE_MAX} (D = {D})")
    A = _table_cap(tau, D)
    if A > TABLE_MAX:
        raise ValueError(f"tau = {tau} needs an S table of {A} entries, above TABLE_MAX = {TABLE_MAX} (D = {D})")
    k, work = len(poly.vertices), max(tau, -(-D // tau))
    if k * work > KTAU_MAX:
        raise ValueError(
            f"k * max(tau, D / tau) = {k} * {work} is above KTAU_MAX = {KTAU_MAX}: too many floor sums or wedge tests"
        )
    phis = precompute_tail(poly, tau).phis
    split = bisect_left(phis, -A, key=neg)  # phis[:split] > A
    far = [phi - 1 for phi in phis[:split]]
    S = array("q", [0]) * A
    # between two distinct phis S[j] is constant; the next run starts where
    # bisection in the sorted list finds the next smaller phi
    k, hi = split, A
    while k < len(phis):
        phi = phis[k]
        S[phi:hi] = array("q", [k]) * (hi - phi)
        k, hi = bisect_right(phis, -phi, k, key=neg), phi
    S[tau:hi] = array("q", [k]) * (hi - tau)
    table = memoryview(S)
    mu = _mobius(tau - 1)
    return S[1] + sum(mu[d] * dp_term(d, table, poly, far) for d in compress(range(tau), mu))


def primitive_brute(poly: Polygon) -> int:
    """Direct bounding box scan; the reference primitive_count is checked against."""
    if not poly.validated:
        poly = validate(poly)
    if diameter_bound(poly) > BRUTE_LIMIT:
        raise ValueError(f"polygon diameter exceeds the brute-force limit {BRUTE_LIMIT}")
    x0, x1, y0, y1 = _lattice_box(poly)
    total = 0
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            if gcd(x, y) == 1 and point_in_scaled(poly, (x, y), 1):
                total += 1
    return total


def random_star_polygon(diameter: int, k: int, rng: random.Random) -> Polygon:
    """A random valid test polygon with diameter bound roughly as requested.

    Draws one rational point per angular sector of an annulus around the
    origin and takes the convex hull. The sector spread keeps the origin
    inside the hull almost always, and convexity gives star-shapedness for
    free; the rare degenerate draw is rejected and redrawn.
    """
    if k < 3:
        raise ValueError("need at least 3 points")
    if diameter < 8:
        raise ValueError("diameter must be >= 8")
    for _ in range(1000):
        pts = []
        for s in range(k):
            ang = 2 * math.pi * (s + rng.random()) / k
            rad = diameter * rng.uniform(0.25, 0.5)
            den = rng.choice((1, 2, 3, 4))
            x = Fraction(round(rad * math.cos(ang) * den), den)
            y = Fraction(round(rad * math.sin(ang) * den), den)
            pts.append((x, y))
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        try:
            return validate(Polygon(hull))
        except ValueError:
            continue
    raise RuntimeError("could not draw a valid polygon")
