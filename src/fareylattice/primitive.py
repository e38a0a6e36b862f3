"""Primitive lattice point counting in star-shaped rational polygons.

A lattice point is primitive when its coordinates are coprime, i.e. it is
visible from the origin. Writing S(P) for the primitive count of the closed
region and A(P) for the plain lattice count, grouping the nonzero lattice
points by the gcd of their coordinates gives

    S(P) = A(P) - 1 - sum_{d >= 2} S(P/d)

where P/d is P shrunk by d and the -1 removes the origin, which belongs to
no coprimality class. The recursion only ever meets shrink factors, so the
computation is a dynamic program over one flat table S[j] = S(P/j): factors
at or above a crossover tau shrink the polygon so far that the few surviving
points are tabulated once, each with the first shrink that pushes it out,
and S[j] there is the number of thresholds above j; factors below tau are
filled by the recursion itself, each term one strided sum over the table.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import neg

from .exactmath import _iroot_round
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


def _wedges(poly: Polygon) -> list:
    # the edges a -> b of the cleared loop with cab = cross(a, b) > 0; an edge
    # with cab = 0 runs through the origin and bounds no wedge. The ray
    # through a point p of the closed wedge leaves the edge at the exact
    # parameter t = cab / (m * cross(p, b - a)).
    if not poly.validated:
        poly = validate(poly)
    return [
        (ax, ay, bx, by, m * (bx - ax), m * (by - ay), cab)
        for ax, ay, bx, by, m in poly._edges_cleared()
        if (cab := ax * by - ay * bx) > 0
    ]


def _phi(wedges: list, x: int, y: int) -> int:
    # 1 + the floor of the exit parameter of the ray through (x, y) != 0, or
    # 0 when no wedge holds the point; the largest value over the wedges
    # covers a point on a vertex direction or on a radial edge
    best = -1
    for ax, ay, bx, by, mdx, mdy, cab in wedges:
        if ax * y - ay * x >= 0 and x * by - y * bx >= 0:
            t = cab // (x * mdy - y * mdx)
            if t > best:
                best = t
    return best + 1


def phi_value(poly: Polygon, pt) -> int:
    """Smallest shrink factor i >= 1 that pushes pt out of poly / i.

    pt must be a nonzero lattice point of poly. The origin lies in the
    kernel, so i*pt is in poly exactly while i <= t*, the exact parameter
    at which the ray through pt leaves poly, and the threshold is
    floor(t*) + 1.
    """
    if pt[0] == 0 and pt[1] == 0:
        raise ValueError("phi is not defined at the origin")
    phi = _phi(_wedges(poly), pt[0], pt[1])
    if phi <= 1:
        raise ValueError("point is outside the polygon")
    return phi


@dataclass
class ImplicitTail:
    """Exit thresholds of the lattice points that survive the tau shrink.

    phis holds phi_value(P, p), sorted descending, for every primitive
    nonzero lattice point p of P/tau. A point is in P/i exactly when its
    phi exceeds i, so counting entries above a threshold answers S(P/i)
    for any i >= tau.
    """

    tau: int
    phis: list = field(default_factory=list)


def precompute_tail(poly: Polygon, tau: int) -> ImplicitTail:
    """Scan P/tau for primitive points and record their exit thresholds.

    Candidates come from the integer bounding box of the shrunk polygon and
    non-primitive points are discarded. A point is in P/tau exactly when
    its phi exceeds tau, so one phi per candidate is both the membership
    test and the recorded value. The list is sorted from largest down.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    wedges = _wedges(poly)
    x0, x1, y0, y1 = _lattice_box(poly, tau)
    phis = []
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            if gcd(x, y) == 1:  # gcd(0, 0) = 0 drops the origin
                phi = _phi(wedges, x, y)
                if phi > tau:
                    phis.append(phi)
    phis.sort(reverse=True)
    return ImplicitTail(tau=tau, phis=phis)


def tail_query(tail: ImplicitTail, i: int) -> int:
    """S(P/i) for i at or beyond the tail cutoff: entries above i."""
    if i < tail.tau:
        raise ValueError("shrink factor below the tail cutoff")
    return bisect_left(tail.phis, -i, key=neg)


def dp_term(i: int, S, poly: Polygon) -> int:
    """S(P/i) = A(P/i) - 1 - sum_{d>=2} S(P/(i*d)).

    S is any sequence holding S[j] = S(P/j) for every j > i that supports
    stride slicing; indices past its end read 0, so it need only run up to
    the last nonzero entry.
    """
    return count_lattice(poly, i) - 1 - sum(S[2 * i :: i])


def primitive_count(poly: Polygon, tau: int | None = None) -> int:
    """Primitive lattice points in the closed region of poly.

    Sets the crossover tau near D^(4/7) unless overridden and fills one
    table S[j] = S(P/j). For j >= tau it counts the tail points whose phi
    exceeds j (suffix sums of the phi counts), up to the largest phi;
    below tau the recursion fills it from tau-1 down to 1, and S[1] is the
    answer. The origin never counts.

    The table is an int64 array read through a memoryview, so a strided
    sum copies nothing. S(P/j) <= (D+1)^2 fits int64 while D < 3*10^9;
    past that the table alone would need more than 12 GB, and an entry
    that overflows raises OverflowError instead of wrapping.
    """
    if not poly.validated:
        poly = validate(poly)
    D = diameter_bound(poly)
    if tau is None:
        tau = min(D, max(1, _iroot_round(D ** 4, 7)))
    elif not 1 <= tau <= D:
        raise ValueError("tau must be between 1 and the diameter bound")
    phis = precompute_tail(poly, tau).phis
    S = array("q", [0]) * ((phis[0] if phis else tau) + 1)
    for phi in phis:
        S[phi - 1] += 1
    for j in range(len(S) - 2, tau - 1, -1):
        S[j] += S[j + 1]
    table = memoryview(S)
    for i in range(tau - 1, 0, -1):
        S[i] = dp_term(i, table, poly)
    return S[1]


def primitive_brute(poly: Polygon) -> int:
    """Direct bounding box scan; the reference the recursion is checked against."""
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
