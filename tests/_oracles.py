"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: direct loops, sieves, and scans with
no shared machinery, so an agreement with the package is evidence and not
an identity.
"""

import math
from fractions import Fraction
from itertools import accumulate
from math import gcd

from hypothesis import assume
from hypothesis import strategies as st

from fareylattice.farey import rank_improved
from fareylattice.geometry import Polygon, PolygonError, contains, point_in_scaled, validate

# Degenerate polygons shared by the geometry and primitive suites: the origin
# at a vertex or inside an edge, radial edges, denominators near 10^12.
E12 = 10**12
# the edge from -(u, v) to c*(u, v), c > 0, runs through the origin
_U, _V, _C = Fraction(9 * E12 + 1, E12), Fraction(6 * E12 + 1, E12 - 11), Fraction(2, 3) - Fraction(1, E12)
DEGENERATE = {
    "farey-triangle": [(0, 0), (13, 0), (13, Fraction(65, 7))],
    "origin-vertex-two-radial-edges": [(0, 0), (5, 0), (10, 0), (10, 7)],
    "origin-in-edge": [(-6, 0), (6, 0), (4, 5), (-3, 7)],
    "origin-in-slanted-edge": [(-3, -2), (Fraction(9, 2), 3), (-1, 8)],
    "radial-edge-outward": [(-6, -6), (6, -6), (2, 2), (8, 8), (-6, 6)],
    "radial-edge-inward": [(-6, -6), (6, -6), (9, 3), (3, 1), (-6, 6)],
    # the wedges on both sides of the inward edge reach past its inner end,
    # once with the edge at x > 0 and once turned by pi to x < 0
    "radial-edge-inward-wide": [(-6, -6), (6, -6), (9, 3), (3, 1), (9, 9), (-6, 6)],
    "radial-edge-inward-wide-turned": [(6, 6), (-6, 6), (-9, -3), (-3, -1), (-9, -9), (6, -6)],
    "vertical-radial-edge-outward": [(-6, -6), (6, -6), (6, 6), (0, 2), (0, 6), (-6, 6)],
    "vertical-radial-edge-inward": [(-6, -6), (6, -6), (6, 6), (0, 6), (0, 2), (-6, 6)],
    "origin-in-vertical-edge": [(0, -5), (7, -1), (Fraction(9, 2), 6), (0, 8)],
    "den-1e12": [
        (-5 + Fraction(1, E12), -Fraction(3, E12 - 11)),
        (Fraction(7 * E12 - 1, E12), -4),
        (6 - Fraction(1, E12), 6 - Fraction(1, E12)),
        (-Fraction(1, E12 - 39), Fraction(9 * E12 + 7, E12)),
    ],
    "den-1e12-origin-in-edge": [(-_U, -_V), (_C * _U, _C * _V), (-2, 9)],
}



def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p):
    # p collinear with segment ab assumed; is it inside the bounding box
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _segments_touch(p, q, r, s):
    """Do the closed segments pq and rs share at least one point."""
    d1 = _orient(p, q, r)
    d2 = _orient(p, q, s)
    d3 = _orient(r, s, p)
    d4 = _orient(r, s, q)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    return (
        (d1 == 0 and _on_segment(p, q, r))
        or (d2 == 0 and _on_segment(p, q, s))
        or (d3 == 0 and _on_segment(r, s, p))
        or (d4 == 0 and _on_segment(r, s, q))
    )


def validate_pairwise(poly):
    """The O(k^2) validator: every pair of non-adjacent edges is tested for
    contact, then the origin by ray casting, then every edge's cross(a, b).
    Slugs in this order: too-few-vertices, repeated-vertex, degenerate-area,
    not-simple, origin-outside, not-star-shaped."""
    vs = list(poly.vertices)
    k = len(vs)
    if k < 3:
        raise PolygonError("too-few-vertices", f"need at least 3 vertices, got {k}")
    for i in range(k):
        if vs[i] == vs[(i + 1) % k]:
            raise PolygonError("repeated-vertex", f"vertices {i} and {(i + 1) % k} coincide")
    area2 = sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(vs, vs[1:] + vs[:1]))
    if area2 == 0:
        raise PolygonError("degenerate-area", "signed area is zero")
    if area2 < 0:
        vs.reverse()
    edges = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        (a1, b1), (a2, b2) = edges[i], edges[(i + 1) % k]
        d1 = (b1[0] - a1[0], b1[1] - a1[1])
        d2 = (b2[0] - a2[0], b2[1] - a2[1])
        if d1[0] * d2[1] - d1[1] * d2[0] == 0 and d1[0] * d2[0] + d1[1] * d2[1] < 0:
            raise PolygonError("not-simple", f"edges {i} and {(i + 1) % k} fold back")
    for i in range(k):
        for j in range(i + 2, k):
            if not (i == 0 and j == k - 1) and _segments_touch(*edges[i], *edges[j]):
                raise PolygonError("not-simple", f"edges {i} and {j} intersect")
    out = Polygon(vs, validated=True)
    if not contains(out, (Fraction(0), Fraction(0))):
        raise PolygonError("origin-outside", "origin is not in the closed region")
    if any(a[0] * b[1] - a[1] * b[0] < 0 for a, b in edges):
        raise PolygonError("not-star-shaped", "origin is outside the kernel")
    return out


def diameter_pairwise(points):
    """Smallest integer >= every pairwise distance, at least 1, over all pairs."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    best = max(((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p in pts for q in pts), default=Fraction(0))
    d = math.isqrt(best.numerator // best.denominator)
    while d * d * best.denominator < best.numerator:
        d += 1
    return max(d, 1)


def scale_down(poly: Polygon, d: int) -> Polygon:
    """The polygon shrunk by the integer factor d, every coordinate / d, as
    Fractions: the direct form of P/d that count_lattice(P, d),
    point_in_scaled and the shrink tables are checked against."""
    if d < 1:
        raise ValueError("scale factor must be >= 1")
    return Polygon(((x / d, y / d) for x, y in poly.vertices), validated=poly.validated)


@st.composite
def star_loops(draw):
    """Small non-convex loops, one vertex per angular sector."""
    k = draw(st.integers(4, 7))
    den = draw(st.sampled_from((1, 2, 3, E12 - 11)))
    vertices = []
    for s in range(k):
        angle = 2 * math.pi * (s + draw(st.integers(1, 9)) / 10) / k
        radius = draw(st.integers(2, 10))
        vertices.append(
            (
                Fraction(round(radius * math.cos(angle) * den), den),
                Fraction(round(radius * math.sin(angle) * den), den),
            )
        )
    try:
        return validate(Polygon(vertices))
    except PolygonError:
        assume(False)


def brute_floor_sum(n, x):
    """Direct loop for sum of floor(b*x), b = 1..n."""
    x = Fraction(x)
    return sum((b * x.numerator) // x.denominator for b in range(1, n + 1))


def divisor_sieve_prefix(x, k):
    """S_1(x)..S_k(x) by divisor lists, with no Moebius function.

    S_i = sum_{b<=i} floor(b*x) - sum_{d>=2} S_{floor(i/d)}, and while i
    climbs the d-th term of that sum moves exactly when d divides i, so the
    divisor lists of 1..k drive one running total.
    """
    x = Fraction(x)
    divisors = [[] for _ in range(k + 1)]
    for d in range(2, k + 1):
        for multiple in range(d, k + 1, d):
            divisors[multiple].append(d)
    s = [0] * (k + 1)
    floors = running = 0
    for i in range(1, k + 1):
        floors += i * x.numerator // x.denominator
        for d in divisors[i]:
            running += s[i // d] - s[(i - 1) // d]
        s[i] = floors - running
    return s[1:]


def farey_pairs(n):
    """All members of F_n ascending, as (numerator, denominator) pairs.

    Classic two-term recurrence: from consecutive members a/b < c/d the
    next one is k*c - a over k*d - b with k = (n + b) // d.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [(0, 1), (1, n)]
    if n == 1:
        return out
    a, b = 0, 1
    c, d = 1, n
    while (c, d) != (1, 1):
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append((c, d))
    return out


def farey_members(n):
    """All members of F_n ascending, as Fractions."""
    return [Fraction(a, b) for a, b in farey_pairs(n)]


def totient_sieve(limit):
    """phi[0..limit] by the standard multiplicative sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def totient_summatory(n):
    """1 + phi(1) + ... + phi(n) = |F_n|, from sum_{d<=v} Phi(v // d) = v(v+1)/2.

    Phi(v) is read from totient_sieve below about n^(2/3) and found above it
    by that recursion over the distinct quotients v // d, each run of equal
    quotients taken at once.
    """
    low = list(accumulate(totient_sieve(max(1, round(n ** (2 / 3))))))
    memo = {}

    def big_phi(v):
        if v < len(low):
            return low[v]
        if v not in memo:
            total, d = v * (v + 1) // 2, 2
            while d <= v:
                w = v // d
                d_hi = v // w
                total -= (d_hi - d + 1) * big_phi(w)
                d = d_hi + 1
            memo[v] = total
        return memo[v]

    return 1 + big_phi(n)


def mertens_naive(limit):
    """M[0..limit], the Mertens function: mu(v) by trial division, then prefix sums."""
    M = [0]
    for v in range(1, limit + 1):
        mu, rest, p = 1, v, 2
        while p * p <= rest:
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    mu = 0
                    break
                mu = -mu
            p += 1
        if mu and rest > 1:
            mu = -mu
        M.append(M[-1] + mu)
    return M


def mertens_sieve(limit):
    """M[0..limit], the Mertens function: mu from a sieve of least prime factors, then prefix sums.

    mu(v) = -mu(v / p) for the least prime p of v, or 0 when p^2 divides v.
    """
    least = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if least[p] == p:
            for multiple in range(p * p, limit + 1, p):
                if least[multiple] == multiple:
                    least[multiple] = p
    mu = [0, 1][: limit + 1] + [0] * (limit - 1)
    for v in range(2, limit + 1):
        rest = v // least[v]
        mu[v] = 0 if rest % least[v] == 0 else -mu[rest]
    return list(accumulate(mu))


def lattice_scan(poly):
    """Bounding-box scan of integer points using exact membership."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0 = -((-min(xs).numerator) // min(xs).denominator)
    x1 = max(xs).numerator // max(xs).denominator
    y0 = -((-min(ys).numerator) // min(ys).denominator)
    y1 = max(ys).numerator // max(ys).denominator
    return sum(
        1
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if contains(poly, (x, y))
    )


def gcd_classes(poly):
    """Counts of lattice points by the gcd of their coordinates.

    Returns (origin_count, {d: count}) over the bounding-box scan; the
    d-class holds exactly the points that are d times a primitive point.
    """
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0 = -((-min(xs).numerator) // min(xs).denominator)
    x1 = max(xs).numerator // max(xs).denominator
    y0 = -((-min(ys).numerator) // min(ys).denominator)
    y1 = max(ys).numerator // max(ys).denominator
    origin = 0
    classes = {}
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            if not contains(poly, (x, y)):
                continue
            if x == 0 and y == 0:
                origin += 1
            else:
                d = gcd(x, y)
                classes[d] = classes.get(d, 0) + 1
    return origin, classes


def float_contains(poly, qx, qy):
    """Floating-point even-odd ray cast; only trustworthy away from edges."""
    inside = False
    vs = [(float(x), float(y)) for x, y in poly.vertices]
    px, py = float(qx), float(qy)
    for i in range(len(vs)):
        x1, y1 = vs[i]
        x2, y2 = vs[(i + 1) % len(vs)]
        if (y1 > py) != (y2 > py):
            cross_x = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if cross_x > px:
                inside = not inside
    return inside


def edge_distance_sq(poly, qx, qy):
    """Min float squared distance from (qx, qy) to the boundary."""
    vs = [(float(x), float(y)) for x, y in poly.vertices]
    px, py = float(qx), float(qy)
    best = float("inf")
    for i in range(len(vs)):
        x1, y1 = vs[i]
        x2, y2 = vs[(i + 1) % len(vs)]
        dx, dy = x2 - x1, y2 - y1
        t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        best = min(best, (px - x1 - t * dx) ** 2 + (py - y1 - t * dy) ** 2)
    return best


def phi_scan(poly, pt, D):
    """Linear scan for the smallest shrink that drops pt, by ray casts."""
    for i in range(1, D + 3):
        num_x = pt[0] * i
        num_y = pt[1] * i
        if not contains(poly, (Fraction(num_x), Fraction(num_y))):
            return i
    raise AssertionError("point never left the polygon")


def tail_scan(poly, tau):
    """Exit thresholds of the primitive points of poly/tau, descending.

    Every primitive point of a box that holds poly/tau passes a ray-cast
    membership test; each survivor gets its threshold from phi_scan. No
    coordinate of the region exceeds R, so (R + 1) * p is outside for any
    nonzero integer p and R bounds every threshold scan.
    """
    R = max(math.ceil(abs(c)) for v in poly.vertices for c in v)
    r = R // tau
    return sorted(
        (
            phi_scan(poly, (x, y), R)
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            if gcd(x, y) == 1 and point_in_scaled(poly, (x, y), tau)
        ),
        reverse=True,
    )


def nonconvex_star(rng, diameter, k, den_digits=0):
    """A validated non-convex polygon, star-shaped about the origin.

    One vertex per angular sector of width 2*pi/k, at a random radius in
    [0.15, 0.5] * diameter, each coordinate a fraction with a random
    denominator below 10**den_digits. A draw that rounding or a wide turn
    makes invalid is redrawn.
    """
    for _ in range(1000):
        vertices = []
        for s in range(k):
            angle = 2 * math.pi * (s + 0.1 + 0.8 * rng.random()) / k
            radius = diameter * (0.15 + 0.35 * rng.random())
            den = rng.randint(1, 10**den_digits)
            vertices.append(
                (
                    Fraction(round(radius * math.cos(angle) * den), den),
                    Fraction(round(radius * math.sin(angle) * den), den),
                )
            )
        try:
            return validate(Polygon(vertices))
        except PolygonError:
            continue
    raise RuntimeError("could not draw a valid star")


def simplest_scan(lo, hi, qmax):
    """Smallest-denominator fraction in (lo, hi], by trying every q."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    for q in range(1, qmax + 1):
        num = (lo.numerator * q) // lo.denominator + 1  # smallest num with num/q > lo
        if Fraction(num, q) <= hi:
            return Fraction(num, q)
    return None


def best_approximation_in(lo: Fraction, hi: Fraction, qmax: int) -> Fraction:
    """The unique simplest fraction in (lo, hi] with denominator <= qmax.

    "Simplest" means smallest denominator (ties broken by smallest
    numerator); the Stern-Brocot descent below finds it in O(lg qmax)
    arithmetic steps. Raises ValueError when the interval holds no fraction
    with denominator <= qmax.
    """
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    f = _simplest_in(Fraction(lo), Fraction(hi), True, False)
    if f.denominator > qmax:
        raise ValueError(f"no fraction with denominator <= {qmax} in ({lo}, {hi}]")
    return f


def _simplest_in(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool) -> Fraction:
    # Simplest fraction between lo and hi, each bound open or closed.
    # Walks the continued fraction of the bounds: take the shared integer
    # part, flip to reciprocals, recurse. Each level consumes one partial
    # quotient, so the depth is the continued-fraction length of the bounds.
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        raise ValueError("empty interval")
    fl = lo.numerator // lo.denominator
    first = fl if (lo.denominator == 1 and not lo_open) else fl + 1
    if first < hi or (first == hi and not hi_open):
        return Fraction(first)
    a = lo - fl
    b = hi - fl
    if a == 0:
        # lo is an excluded integer: the answer is fl + 1/q for minimal q
        q = b.denominator // b.numerator + 1 if hi_open else -(-b.denominator // b.numerator)
        return fl + Fraction(1, q)
    sub = _simplest_in(1 / b, 1 / a, hi_open, lo_open)
    return fl + 1 / sub


def statistic_bisect(k, n, rank=rank_improved):
    """The k-th member of F_n by dyadic bisection over rank.

    Halves [0, 1] while keeping rank(lo) < k <= rank(hi); once the width is
    below 1/n^2 the bracket holds exactly one member, because distinct
    members of F_n differ by at least 1/n^2, and the simplest fraction in
    (lo, hi] recovers it. 1 + 2 lg n rank calls per query.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = rank(Fraction(1), n)
    if not 1 <= k <= size:
        raise ValueError(f"k must lie in [1, {size}] for n = {n}")
    if k == 1:
        return Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        if rank(mid, n) >= k:
            hi = mid
        else:
            lo = mid
    return best_approximation_in(lo, hi, n)
