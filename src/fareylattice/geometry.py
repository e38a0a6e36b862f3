"""Exact geometry for rational polygons.

Vertices are Fractions and every predicate clears denominators before
comparing, so all answers are exact. Membership treats the boundary as part
of the region. A valid polygon is simple, counterclockwise (clockwise input
is reversed during validation), keeps the origin in its closed region, and
is star-shaped with respect to the origin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from io import StringIO
from math import gcd, isqrt, lcm

from .exactmath import DIGITS_MAX, _floor_sum_ap, parse_fraction

__all__ = [
    "K_MAX",
    "Polygon",
    "PolygonError",
    "parse_polygon",
    "load_polygon",
    "validate",
    "contains",
    "point_in_scaled",
    "diameter_bound",
    "count_lattice",
    "convex_hull",
]

# Largest accepted vertex count; validation is O(k). primitive_count also
# bounds k*max(tau, D/tau) by primitive.KTAU_MAX = 10^7, so a 10^4-vertex
# star, one vertex per angular sector, is accepted at its default tau up to
# D = 1.78*10^5, where `fareylattice primitive` took 10 s with integer
# vertices and 23-27 s with 12-digit denominators on a 2-CPU Xeon with
# Python 3.11.
K_MAX = 10**4
# Longest accepted line: a vertex of DIGITS_MAX-digit numbers takes at most
# 4 * DIGITS_MAX + 5 characters. load_polygon reads a line no further, so a
# file without line breaks, such as /dev/zero, is refused, not read whole.
LINE_MAX = 5 * DIGITS_MAX


class PolygonError(ValueError):
    """A named polygon invariant violation."""

    def __init__(self, violation: str, message: str):
        super().__init__(f"{violation}: {message}")
        self.violation = violation


class Polygon:
    """Immutable rational vertex loop with cached derived data."""

    __slots__ = ("vertices", "validated", "_diameter", "_int_edges", "_records")

    def __init__(self, vertices, validated: bool = False):
        self.vertices = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        self.validated = validated
        self._diameter = None
        self._int_edges = None
        self._records = None

    def _edges_cleared(self):
        # per-edge integer endpoints: (ax, ay, bx, by, scale) with the true
        # edge being (ax/scale, ay/scale) -> (bx/scale, by/scale)
        if self._int_edges is None:
            cleared = []
            vs = self.vertices
            for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
                m = lcm(ax.denominator, ay.denominator, bx.denominator, by.denominator)
                cleared.append(
                    (
                        ax.numerator * (m // ax.denominator),
                        ay.numerator * (m // ay.denominator),
                        bx.numerator * (m // bx.denominator),
                        by.numerator * (m // by.denominator),
                        m,
                    )
                )
            self._int_edges = cleared
        return self._int_edges

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)!r})"


def parse_polygon(text: str) -> Polygon:
    """Parse the one-vertex-per-line format ``PX/QX PY/QY``.

    Lines end at \\n, \\r or \\r\\n; blank ones are skipped, ``#`` starts a
    comment line. Decimals, anything else parse_fraction refuses, and lines
    longer than LINE_MAX are rejected.
    """
    return _parse_lines(StringIO(text, newline=None))


def _parse_lines(handle) -> Polygon:
    vertices = []
    for lineno, raw in enumerate(iter(partial(handle.readline, LINE_MAX + 1), ""), 1):
        if len(raw) > LINE_MAX and raw[-1] != "\n":
            raise PolygonError("line-too-long", f"line {lineno}: longer than LINE_MAX = {LINE_MAX} characters")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        _check_vertex_count(len(vertices) + 1)
        parts = line.split()
        if len(parts) != 2:
            raise PolygonError("bad-vertex-line", f"line {lineno}: need two coordinates, got {len(parts)}")
        try:
            vertices.append((parse_fraction(parts[0]), parse_fraction(parts[1])))
        except ValueError as exc:
            raise PolygonError("bad-coordinate", f"line {lineno}: {exc}") from exc
    if not vertices:
        raise PolygonError("too-few-vertices", "no vertices in input")
    return Polygon(vertices)


def load_polygon(path) -> Polygon:
    """Read, parse and validate a polygon file, one line at a time."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate(_parse_lines(handle))


def _check_vertex_count(k: int) -> None:
    if k > K_MAX:
        raise PolygonError("too-many-vertices", f"more than K_MAX = {K_MAX} vertices")


def _area_sign(edges) -> int:
    # sign of the signed area, the sum of cab / m^2 over the cleared edges.
    # Each term is rounded down at scale 2^64, so the true scaled sum lies in
    # [lo, lo + k); only a (near) zero area falls back to exact Fractions.
    lo = sum((ax * by - ay * bx << 64) // (m * m) for ax, ay, bx, by, m in edges)
    if lo > 0:
        return 1
    if lo + len(edges) <= 0:
        return -1
    area2 = sum(Fraction(ax * by - ay * bx, m * m) for ax, ay, bx, by, m in edges)
    return (area2 > 0) - (area2 < 0)


def _ray_crossings(edges, ux: int, uy: int) -> int:
    """Sunday's signed crossing count of the ray {t*u : t > 0} by the edges.

    In the frame where u points along +x, s(p) = cross(u, p) plays the part
    of y: an upward crossing (s(a) <= 0 < s(b)) with the origin left of the
    edge (cab > 0) counts +1 and a downward one with cab < 0 counts -1. Over
    a closed loop that misses the origin this is the winding number.
    """
    w = 0
    for ax, ay, bx, by, _ in edges:
        sa = ux * ay - uy * ax
        sb = ux * by - uy * bx
        if sa <= 0 < sb:
            w += ax * by - ay * bx > 0
        elif sb <= 0 < sa:
            w -= ax * by - ay * bx < 0
    return w


def validate(poly: Polygon) -> Polygon:
    """Check every polygon invariant; returns the CCW-normalized polygon.

    One O(k) pass over the integer-cleared edges, for k <= K_MAX vertices.
    A loop is accepted exactly when it is simple, holds the origin in its
    closed region and has cross(a, b) >= 0 on every edge a -> b; then the
    angle about the origin never decreases along the loop, so winding once
    (or, with the origin on the boundary, never crossing the ray through the
    next vertex again) leaves no room for a self-intersection.

    Violations raise PolygonError with .violation set to the first of, in
    this order: too-many-vertices, too-few-vertices, repeated-vertex,
    degenerate-area, not-simple (adjacent edges fold back, a winding number
    other than 0 or 1, the origin on the boundary more than once, or the
    rest of the loop crossing the ray through the vertex after it),
    origin-outside (winding number 0), not-star-shaped (some edge has
    cross(a, b) < 0). A loop that breaks several invariants reports the
    first of them in that order.
    """
    k = len(poly.vertices)
    _check_vertex_count(k)
    if k < 3:
        raise PolygonError("too-few-vertices", f"need at least 3 vertices, got {k}")
    edges = poly._edges_cleared()
    for i, (ax, ay, bx, by, _) in enumerate(edges):
        if ax == bx and ay == by:
            raise PolygonError("repeated-vertex", f"vertices {i} and {(i + 1) % k} coincide")
    sign = _area_sign(edges)
    if sign == 0:
        raise PolygonError("degenerate-area", "signed area is zero")
    vs = poly.vertices
    if sign < 0:
        vs = vs[::-1]
        edges = [(bx, by, ax, ay, m) for ax, ay, bx, by, m in edges[-2::-1] + edges[-1:]]
    ax, ay, bx, by, _ = edges[-1]
    pdx, pdy = bx - ax, by - ay
    touches = []
    for i, (ax, ay, bx, by, _) in enumerate(edges):
        dx, dy = bx - ax, by - ay
        if pdx * dy - pdy * dx == 0 and pdx * dx + pdy * dy < 0:
            raise PolygonError("not-simple", f"edges {(i - 1) % k} and {i} fold back")
        pdx, pdy = dx, dy
        # the origin at vertex i, or strictly inside edge i
        if (ax == ay == 0) or (ax * by == ay * bx and ax * bx + ay * by < 0):
            touches.append(i)
    if len(touches) > 1:
        raise PolygonError("not-simple", "the boundary passes through the origin more than once")
    if touches:
        # an edge that ends at the origin never counts, so this counts the
        # rest of the loop, which starts on the ray through the vertex after
        # the touch: on a simple loop leaving that ray is its one crossing,
        # and each further turn about the origin adds another
        i = touches[0]
        if _ray_crossings(edges, edges[i][2], edges[i][3]) != 1:
            raise PolygonError("not-simple", f"the boundary crosses the ray through vertex {(i + 1) % k} again")
    else:
        w = _ray_crossings(edges, 1, 0)
        if w not in (0, 1):
            raise PolygonError("not-simple", f"the boundary winds {w} times about the origin")
        if w == 0:
            raise PolygonError("origin-outside", "origin is not in the closed region")
    # star-shapedness about the origin: for a simple polygon the kernel is
    # the intersection of the inner half-planes of the edges, and the origin
    # lies in the half-plane of edge a->b exactly when cross(a, b) >= 0
    if any(ax * by < ay * bx for ax, ay, bx, by, _ in edges):
        raise PolygonError("not-star-shaped", "origin is outside the kernel")
    out = Polygon(vs, validated=True)
    out._int_edges = edges
    return out


def _contains_cleared(poly: Polygon, px: int, py: int, pden: int) -> bool:
    # exact membership of the point (px/pden, py/pden), pden >= 1
    inside = False
    for ax, ay, bx, by, m in poly._edges_cleared():
        # bring point and edge to a common integer scale
        qx = px * m
        qy = py * m
        x1 = ax * pden
        y1 = ay * pden
        x2 = bx * pden
        y2 = by * pden
        cross = (x2 - x1) * (qy - y1) - (y2 - y1) * (qx - x1)
        if cross == 0:
            if (x1 if x1 < x2 else x2) <= qx <= (x1 if x1 > x2 else x2) and (
                y1 if y1 < y2 else y2
            ) <= qy <= (y1 if y1 > y2 else y2):
                return True  # on the boundary, counts as inside
        if (y1 > qy) != (y2 > qy):
            # ray to +x: does the edge cross strictly right of the point
            lhs = (qx - x1) * (y2 - y1)
            rhs = (qy - y1) * (x2 - x1)
            if (lhs < rhs) if y2 > y1 else (lhs > rhs):
                inside = not inside
    return inside


def contains(poly: Polygon, q) -> bool:
    """Exact closed-region membership for a rational point q."""
    qx, qy = Fraction(q[0]), Fraction(q[1])
    den = lcm(qx.denominator, qy.denominator)
    return _contains_cleared(
        poly, qx.numerator * (den // qx.denominator), qy.numerator * (den // qy.denominator), den
    )


def point_in_scaled(poly: Polygon, pt, i: int = 1) -> bool:
    """Is the integer point pt inside poly scaled down by i (i*pt in poly)."""
    return _contains_cleared(poly, pt[0] * i, pt[1] * i, 1)


def diameter_bound(poly: Polygon) -> int:
    """Smallest integer >= every pairwise vertex distance, at least 1.

    The farthest pair of points of a closed polygonal region is a pair of
    convex hull vertices, so this bounds the whole region. Rotating calipers
    walk the hull once: for each hull edge a -> b the pointer j advances
    while the next hull vertex is farther from the edge's line, and the
    pairs (a, j), (b, j) it stops at include a farthest pair. Every
    comparison cross-multiplies the cleared forms (x, y, d) of the points,
    and the exact squared distance num/den goes through an integer square
    root, never floats.
    """
    if poly._diameter is None:
        hull = _hull_cleared(poly.vertices)
        n = len(hull)
        num, den = 0, 1
        j = min(1, n - 1)
        for i in range(n):
            ax, ay, ad = a = hull[i]
            bx, by, bd = b = hull[(i + 1) % n]
            # (b - a) * ad * bd; the next vertex c' is farther from the line
            # than c when cross(u, c') > cross(u, c)
            ux, uy = bx * ad - ax * bd, by * ad - ay * bd
            cx, cy, cd = hull[j]
            while True:
                nx, ny, nd = hull[(j + 1) % n]
                if (ux * ny - uy * nx) * cd <= (ux * cy - uy * cx) * nd:
                    break
                j = (j + 1) % n
                cx, cy, cd = nx, ny, nd
            for px, py, pd in (a, b):
                dist = (px * cd - cx * pd) ** 2 + (py * cd - cy * pd) ** 2
                scale = (pd * cd) ** 2
                if dist * den > num * scale:
                    num, den = dist, scale
        d = isqrt(num // den)
        while d * d * den < num:
            d += 1
        poly._diameter = max(d, 1)
    return poly._diameter


def _lattice_box(poly: Polygon, i: int = 1):
    # integer bounding box (x0, x1, y0, y1) of poly shrunk by i, read off the
    # start vertex of every cleared edge at the scale m*i
    vs = [(ax, ay, m * i) for ax, ay, _, _, m in poly._edges_cleared()]
    return (
        min(-(-x // s) for x, _, s in vs),
        max(x // s for x, _, s in vs),
        min(-(-y // s) for _, y, s in vs),
        max(y // s for _, y, s in vs),
    )


def _edge_records(poly: Polygon):
    """count_lattice's per-edge data that does not depend on the scale i,
    built once from the validated loop and cached on it: (sums, rises,
    corners), for edges a -> b cleared to scale m and read at s = m*i.

    sums: (m, lo, hi, mod, slope, cab, up) per non-vertical edge. A leftward
    edge is a top and a rightward one a bottom, and both add
    floor((cab/s - dy*c) / |dx|), plus 1 for a bottom, over their half-open
    columns lo <= s*c < hi: the floor sum of floor((slope*c + floor(cab/s)
    + up) / mod), with mod = |dx|, slope = -dy and up = |dx| for a bottom.
    rises: (v, m, lo, hi) per upward vertical edge on x = v at i = 1; it
    adds the points strictly inside it where i divides v.
    corners: (v, delta) per vertex a with v = gcd(ax, ay)/m an integer; it
    adds delta where i divides v, that is where a is a lattice point. The
    sums miss a's column when neither edge takes it, the previous one
    (pdx, pdy) ending there rightward or upward and the next starting there
    leftward or upward (+1 at a left turn or straight up), and count it
    twice when a top turns into a bottom at a right turn (-1).
    """
    if poly._records is None:
        edges = poly._edges_cleared()
        sums, rises, corners = [], [], []
        pax, pay, pbx, pby, _ = edges[-1]
        pdx, pdy = pbx - pax, pby - pay
        for ax, ay, bx, by, m in edges:
            dx, dy = bx - ax, by - ay
            if dx:
                sums.append((m, min(ax, bx), max(ax, bx), abs(dx), -dy, ax * by - ay * bx, max(dx, 0)))
            elif dy > 0 and ax % m == 0:
                rises.append((ax // m, m, ay, by))
            turn = pdx * dy - pdy * dx
            delta = (pdx >= 0 >= dx and (turn, dy) > (0, 0)) - (pdx < 0 < dx and turn < 0)
            v, r = divmod(gcd(ax, ay), m)
            if delta and r == 0:
                corners.append((v, delta))
            pdx, pdy = dx, dy
        poly._records = sums, rises, corners
    return poly._records


def count_lattice(poly: Polygon, i: int = 1) -> int:
    """Lattice points in the closed region of poly shrunk by i, via one
    floor sum per edge; i*pt in poly is the same test as point_in_scaled.

    Closed column counts: in each integer column every interval
    [bottom, top] of the region holds floor(top) - ceil(bottom) + 1 points,
    which its top and bottom edges add as one floor sum each over their
    half-open columns; upward vertical edges and lattice vertices add what
    those sums miss (see _edge_records). Every edge is read at the integer
    scale s = m*i of its cleared form, so no Fraction is made, and all that
    does not depend on i comes from the polygon's cached edge records: per
    scale an edge costs its first column, its column count and one floor
    sum.
    """
    if i < 1:
        raise ValueError("scale factor must be >= 1")
    if not poly.validated:
        poly = validate(poly)
    sums, rises, corners = _edge_records(poly)
    total = sum(delta for v, delta in corners if v % i == 0)
    for m, lo, hi, mod, slope, cab, up in sums:
        # floor(cab/s) may stand for cab/s inside the floor, so s drops out
        s = m * i
        c0 = -(-lo // s)
        total += _floor_sum_ap(-(-hi // s) - c0, mod, slope, slope * c0 + cab // s + up)
    for v, m, lo, hi in rises:
        if v % i == 0:
            total += (hi - 1) // (m * i) - lo // (m * i)
    return total


def _turn(a, b, c) -> int:
    # orient(a, b, c) times the positive da*db*dc, on cleared points (x, y, d)
    ax, ay, ad = a
    bx, by, bd = b
    cx, cy, cd = c
    return ax * (by * cd - cy * bd) - ay * (bx * cd - cx * bd) + ad * (bx * cy - cx * by)


def _hull_cleared(points) -> list:
    """CCW convex hull as cleared points (x, y, d), each the point (x/d, y/d)
    with d >= 1; collinear points dropped."""
    pts = []
    for px, py in points:
        px, py = Fraction(px), Fraction(py)
        d = lcm(px.denominator, py.denominator)
        pts.append((px.numerator * (d // px.denominator), py.numerator * (d // py.denominator), d))
    # distinct rationals with denominators up to dmax differ by at least
    # 1/dmax^2 > 2^-k, so their floors at scale 2^k differ: an exact sort key
    k = 2 * max((d for _, _, d in pts), default=1).bit_length() + 1
    pts = [p for _, p in sorted({((x << k) // d, (y << k) // d): (x, y, d) for x, y, d in pts}.items())]
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def convex_hull(points):
    """CCW convex hull of exact rational points (collinear points dropped)."""
    return [(Fraction(x, d), Fraction(y, d)) for x, y, d in _hull_cleared(points)]
