"""Seeded inputs, the query each workload issues, and the answer checks.

Input generation uses only the standard library: the package under test
receives ints, Fractions and polygon text, never anything it produced.

A run is a whole number of cycles. Each cycle has one query per slot, and
each slot covers fixed strata of the input dimensions (a size range, an x
shape, a tier), so every run of every seed carries the same mix of cheap and
costly queries and their medians and throughputs agree. The seed sets where
inside its strata each query falls, the random digits of x and of the
polygons, and the order of the queries within a cycle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("rank", "statistic", "primitive")

RANK_N = (10**6, 256 * 10**6)  # the span of the scaling-exponent acceptance test
RANK_SLOTS = 15  # one size stratum each
PAWLEWICZ_SLOTS = (2, 7, 12)  # one rank query in five goes to the n^(3/4) tier
STAT_N = 10**6
# |F_n| at n = 10^6; the benchmark's own tests re-derive it with a totient
# sieve, so statistic inputs do not depend on the code under test.
STAT_SIZE = 303963552393
OCTAGON_D = (10**4, 32 * 10**4)
STAR_D = (10**4, 10**5)
STAR_K = (8, 64)
STAR_DEN_DIGITS = 12
TRIANGLE_N = (10**4, 2 * 10**5)
TRIANGLE_DEN = 1000
# Wall time of one cycle on a 2-CPU Xeon when the benchmark was added: a run
# of --seconds issues round(seconds / CYCLE_SECONDS) cycles, the same work
# on every commit, so a faster commit finishes sooner instead of issuing more.
CYCLE_SECONDS = {"rank": 6.6, "statistic": 1.3, "primitive": 5.8}


@dataclass(frozen=True)
class Query:
    """One call into the package: kind selects the entry point."""

    kind: str  # improved, pawlewicz, statistic, octagon, star, triangle
    size: int  # n for Farey queries, the nominal diameter D for polygons
    x: Fraction | None = None  # rank argument, or the triangle's slope
    k: int | None = None  # statistic index
    vertices: tuple = ()  # exact polygon vertices
    text: str = ""  # the same polygon in the CLI file format


def golden_x(depth: int = 44) -> Fraction:
    """F_depth+1 / F_depth+2: all-ones continued fraction, the floor-sum worst case."""
    a, b = 1, 1
    for _ in range(depth):
        a, b = b, a + b
    return Fraction(a, b)


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def _cycles(rng: random.Random, slots: int, cycles: int):
    """The run's cycles, each a seeded order of (slot, positions).

    A slot covers one stratum per input dimension; the run's cycles split
    it into `cycles` fine strata, and cycle c draws a uniform position inside
    fine stratum (c + d) % cycles for dimension d. Every query is uniform
    over its slot's strata, and the sizes of a run cover them evenly.
    """
    for c in range(cycles):
        order = rng.sample(range(slots), slots)
        yield [(s, [((c + d) % cycles + rng.random()) / cycles for d in range(3)]) for s in order]


def polygon_text(vertices) -> str:
    return "".join(f"{x.numerator}/{x.denominator} {y.numerator}/{y.denominator}\n" for x, y in vertices)


def octagon(D: int) -> tuple:
    """Regular octagon of diameter D about the origin, integer vertices."""
    R = D // 2
    r = isqrt(R * R // 2)
    pts = [(R, 0), (r, r), (0, R), (-r, r), (-R, 0), (-r, -r), (0, -R), (r, -r)]
    return tuple((Fraction(x), Fraction(y)) for x, y in pts)


def star(rng: random.Random, D: int, k: int, den_digits: int) -> tuple:
    """Non-convex polygon, star-shaped about the origin, k rational vertices.

    One vertex per angular sector of width 2*pi/k at a random radius in
    [0.35, 0.5] * D. Consecutive vertices turn by less than pi about the
    origin, so the loop is simple with the origin strictly inside its
    kernel. Each coordinate has a random denominator below 10^den_digits.
    """
    vertices = []
    for s in range(k):
        angle = 2 * math.pi * (s + 0.1 + 0.8 * rng.random()) / k
        radius = D * (0.35 + 0.15 * rng.random())
        den = rng.randint(1, 10**den_digits)
        x = Fraction(round(radius * math.cos(angle) * den), den)
        y = Fraction(round(radius * math.sin(angle) * den), den)
        vertices.append((x, y))
    return tuple(vertices)


def triangle(n: int, x: Fraction) -> tuple:
    """(0,0), (n,0), (n,nx): its primitive count is the rank of x in F_n."""
    return ((Fraction(0), Fraction(0)), (Fraction(n), Fraction(0)), (Fraction(n), n * x))


def _rank_stream(rng, cycles):
    # slot s covers size stratum s; the shapes rotate over the strata and
    # three slots, one per shape, go to the n^(3/4) tier
    for cycle in _cycles(rng, RANK_SLOTS, cycles):
        queries = []
        for s, pos in cycle:
            n = _log_uniform((s + pos[0]) / RANK_SLOTS, *RANK_N)
            shape = s % 3
            if shape == 0:
                x = golden_x()
            elif shape == 1:
                b = rng.randrange(10**11, 10**12)
                a = rng.randrange(1, b)
                while gcd(a, b) != 1:
                    a = rng.randrange(1, b)
                x = Fraction(a, b)
            elif s // 3 % 2 == 0:
                x = Fraction(1)  # the totient sum
            else:
                b = rng.randint(2, 12)
                x = Fraction(rng.randint(1, b - 1), b)
            queries.append(Query("pawlewicz" if s in PAWLEWICZ_SLOTS else "improved", n, x=x))
        yield queries


def _statistic_stream(rng, cycles):
    for cycle in _cycles(rng, 1, cycles):
        yield [Query("statistic", STAT_N, k=1 + int(pos[0] * STAT_SIZE)) for _, pos in cycle]


def _primitive_stream(rng, cycles):
    # three slots per family, one per size third; a star's k and
    # denominator thirds are rotated against its size third
    for cycle in _cycles(rng, 9, cycles):
        queries = []
        for s, pos in cycle:
            family, i = s % 3, s // 3
            if family == 0:
                D = _log_uniform((i + pos[0]) / 3, *OCTAGON_D)
                vertices = octagon(D)
                queries.append(Query("octagon", D, vertices=vertices, text=polygon_text(vertices)))
            elif family == 1:
                D = _log_uniform((i + pos[0]) / 3, *STAR_D)
                k = _log_uniform(((i + 1) % 3 + pos[1]) / 3, *STAR_K)
                digits = int(((i + 2) % 3 + pos[2]) / 3 * (STAR_DEN_DIGITS + 1))
                vertices = star(rng, D, k, digits)
                queries.append(Query("star", D, vertices=vertices, text=polygon_text(vertices)))
            else:
                n = _log_uniform((i + pos[0]) / 3, *TRIANGLE_N)
                b = rng.randint(2, TRIANGLE_DEN)
                x = Fraction(rng.randint(1, b), b)
                vertices = triangle(n, x)
                queries.append(Query("triangle", n, x=x, vertices=vertices, text=polygon_text(vertices)))
        yield queries


_STREAMS = {"rank": _rank_stream, "statistic": _statistic_stream, "primitive": _primitive_stream}


def queries(workload: str, seed: int, seconds: float) -> list:
    """The queries of one run: as many whole cycles as took about `seconds`
    when the benchmark was added, so every run carries the same mix."""
    cycles = max(1, round(seconds / CYCLE_SECONDS[workload]))
    rng = random.Random(f"{workload}:{seed}")
    return [q for cycle in _STREAMS[workload](rng, cycles) for q in cycle]


def run_query(fl, q: Query):
    """Issue q through the package's module attributes, as a caller would."""
    if q.kind == "improved":
        return fl.farey.rank_improved(q.x, q.size)
    if q.kind == "pawlewicz":
        return fl.farey.rank_pawlewicz(q.x, q.size)
    if q.kind == "statistic":
        return fl.farey.statistic(q.k, q.size)
    poly = fl.geometry.validate(fl.geometry.parse_polygon(q.text))
    return fl.primitive.primitive_count(poly)


def check_tau(D: int) -> int:
    """A crossover about twice the default D^(4/7), so the check runs a
    different split between the dense DP and the tail."""
    return min(D, 2 * max(1, round(D ** (4 / 7))))


def check(fl, q: Query, answer) -> bool:
    """Is answer right, by a path independent of the one that produced it."""
    if q.kind == "improved":
        return answer == fl.farey.rank_pawlewicz(q.x, q.size)
    if q.kind == "pawlewicz":
        return answer == fl.farey.rank_improved(q.x, q.size)
    if q.kind == "statistic":
        return (
            isinstance(answer, Fraction)
            and 0 <= answer <= 1
            and answer.denominator <= q.size
            and fl.farey.rank_pawlewicz(answer, q.size) == q.k
        )
    if q.kind == "triangle":
        return answer == fl.farey.rank_improved(q.x, q.size)
    # built from the exact vertices, not the text, and counted with another
    # tail/DP split: a wrong tail or a wrong DP term moves one answer only
    poly = fl.geometry.validate(fl.geometry.Polygon(q.vertices))
    return answer == fl.primitive.primitive_count(poly, tau=check_tau(fl.geometry.diameter_bound(poly)))
