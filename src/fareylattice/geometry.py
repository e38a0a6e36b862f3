"""Exact geometry for rational polygons.

Vertices are Fractions and every predicate clears denominators before
comparing, so all answers are exact. Membership treats the boundary as part
of the region. A valid polygon is simple, counterclockwise (clockwise input
is reversed during validation), keeps the origin in its closed region, and
is star-shaped with respect to the origin.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .exactmath import floor_sum_affine, parse_fraction

__all__ = [
    "Polygon",
    "PolygonError",
    "parse_polygon",
    "format_polygon",
    "load_polygon",
    "validate",
    "contains",
    "point_in_scaled",
    "scale_down",
    "diameter_bound",
    "count_lattice",
    "convex_hull",
]


class PolygonError(ValueError):
    """A named polygon invariant violation."""

    def __init__(self, violation: str, message: str):
        super().__init__(f"{violation}: {message}")
        self.violation = violation


class Polygon:
    """Immutable rational vertex loop with cached derived data."""

    __slots__ = ("vertices", "validated", "_diameter", "_int_edges")

    def __init__(self, vertices, validated: bool = False):
        self.vertices = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        self.validated = validated
        self._diameter = None
        self._int_edges = None

    @property
    def bits(self) -> int:
        """Largest bit length over all coordinate numerators/denominators."""
        b = 1
        for x, y in self.vertices:
            for c in (x, y):
                b = max(b, c.numerator.bit_length(), c.denominator.bit_length())
        return b

    def edges(self):
        vs = self.vertices
        for i in range(len(vs)):
            yield vs[i], vs[(i + 1) % len(vs)]

    def _edges_cleared(self):
        # per-edge integer endpoints: (ax, ay, bx, by, scale) with the true
        # edge being (ax/scale, ay/scale) -> (bx/scale, by/scale)
        if self._int_edges is None:
            cleared = []
            for (ax, ay), (bx, by) in self.edges():
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

    Blank lines are skipped and ``#`` starts a comment line. Decimals and
    anything else parse_fraction refuses are rejected.
    """
    vertices = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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


def format_polygon(poly: Polygon) -> str:
    """Inverse of parse_polygon."""
    lines = [f"{x.numerator}/{x.denominator} {y.numerator}/{y.denominator}" for x, y in poly.vertices]
    return "\n".join(lines) + "\n"


def load_polygon(path) -> Polygon:
    """Read, parse and validate a polygon file."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate(parse_polygon(handle.read()))


def _orient(a, b, c) -> Fraction:
    # twice the signed area of the triangle a, b, c
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p) -> bool:
    # p collinear with segment ab assumed; is it inside the bounding box
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_touch(p, q, r, s) -> bool:
    """Do the closed segments pq and rs share at least one point."""
    d1 = _orient(p, q, r)
    d2 = _orient(p, q, s)
    d3 = _orient(r, s, p)
    d4 = _orient(r, s, q)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(p, q, r):
        return True
    if d2 == 0 and _on_segment(p, q, s):
        return True
    if d3 == 0 and _on_segment(r, s, p):
        return True
    if d4 == 0 and _on_segment(r, s, q):
        return True
    return False


def validate(poly: Polygon) -> Polygon:
    """Check every polygon invariant; returns the CCW-normalized polygon.

    Violations raise PolygonError with .violation set to one of:
    too-few-vertices, repeated-vertex, degenerate-area, not-simple,
    origin-outside, not-star-shaped.
    """
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
    # simplicity: adjacent edges may share only their common endpoint,
    # non-adjacent edges may not touch at all
    edges = [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        a1, b1 = edges[i]
        d1 = (b1[0] - a1[0], b1[1] - a1[1])
        a2, b2 = edges[(i + 1) % k]
        d2 = (b2[0] - a2[0], b2[1] - a2[1])
        if d1[0] * d2[1] - d1[1] * d2[0] == 0 and d1[0] * d2[0] + d1[1] * d2[1] < 0:
            raise PolygonError("not-simple", f"edges {i} and {(i + 1) % k} fold back")
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if _segments_touch(*edges[i], *edges[j]):
                raise PolygonError("not-simple", f"edges {i} and {j} intersect")
    out = Polygon(vs, validated=True)
    if not contains(out, (Fraction(0), Fraction(0))):
        raise PolygonError("origin-outside", "origin is not in the closed region")
    # star-shapedness about the origin: for a simple polygon the kernel is
    # the intersection of the inner half-planes of the edges, and the origin
    # lies in the half-plane of edge a->b exactly when cross(a, b) >= 0
    for a, b in out.edges():
        if a[0] * b[1] - a[1] * b[0] < 0:
            raise PolygonError("not-star-shaped", "origin is outside the kernel")
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


def scale_down(poly: Polygon, d: int) -> Polygon:
    """The polygon shrunk by the integer factor d (every coordinate / d)."""
    if d < 1:
        raise ValueError("scale factor must be >= 1")
    return Polygon(((x / d, y / d) for x, y in poly.vertices), validated=poly.validated)


def diameter_bound(poly: Polygon) -> int:
    """Smallest integer >= every pairwise vertex distance, at least 1.

    The farthest pair of points of a closed polygonal region is a vertex
    pair, so this bounds the whole region. Computed from the exact squared
    distance with an integer square root, never through floats.
    """
    if poly._diameter is None:
        best = Fraction(0)
        vs = poly.vertices
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                dx = vs[i][0] - vs[j][0]
                dy = vs[i][1] - vs[j][1]
                d2 = dx * dx + dy * dy
                if d2 > best:
                    best = d2
        num, den = best.numerator, best.denominator
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


def _open_edge_lattice(ax, ay, dx, dy, s, cab) -> int:
    # lattice points strictly inside the edge from (ax, ay)/s along
    # (dx, dy)/s, for dx > 0 or dx == 0 < dy; they solve dy*x - dx*y = cab/s,
    # which needs cab/s to be a multiple of g = gcd(dx, dy)
    g = gcd(dx, dy)
    if cab % (s * g):
        return 0
    if dx == 0:
        return (ay + dy - 1) // s - ay // s
    # the solutions' x run through x0 + t*q; count the t with ax < s*x < ax + dx
    q = dx // g
    x0 = cab // (s * g) * pow(dy // g, -1, q) % q
    lo = ax - s * x0
    return (lo + dx - 1) // (s * q) - lo // (s * q)


def _sign_against_downright(dx, dy) -> int:
    # sign of cross(d, e) where e is the down-right probe direction, a hair
    # right of straight down; never parallel to any nonzero d
    if dx != 0:
        return -1 if dx > 0 else 1
    return -1 if dy > 0 else 1


def _downright_exterior(adx, ady, bdx, bdy) -> bool:
    """Does a tiny down-right step leave the region at a vertex entered
    along (adx, ady) and left along (bdx, bdy)? Only signs are read, so
    each direction may carry its own positive scale."""
    sa = _sign_against_downright(adx, ady)
    sb = _sign_against_downright(bdx, bdy)
    turn = adx * bdy - ady * bdx
    if turn > 0:
        interior = sa > 0 and sb > 0
    elif turn < 0:
        interior = sa > 0 or sb > 0
    else:
        interior = sa > 0
    return not interior


def count_lattice(poly: Polygon, i: int = 1) -> int:
    """Lattice points in the closed region of poly shrunk by i, via one
    floor sum per edge; i*pt in poly is the same test as point_in_scaled.

    Signed column sums with a fixed down-right half-open convention: each
    non-vertical edge contributes sum of floor(edge_y(c)) over its integer
    columns min_x <= c < max_x, positive when the edge runs leftward and
    negative when it runs rightward. The pairing of top and bottom edges
    per column makes baseline terms cancel, and what remains counts exactly
    the lattice points whose slight down-right perturbation lies in the
    interior. Boundary points that convention misses are added back: the
    relative interiors of rightward and upward edges (an integer line
    equation per edge) and the integer vertices whose down-right step exits
    the region. Every edge is read at the integer scale s = m*i of its
    cleared form, so no Fraction is made.
    """
    if i < 1:
        raise ValueError("scale factor must be >= 1")
    if not poly.validated:
        poly = validate(poly)
    edges = poly._edges_cleared()
    total = 0
    pax, pay, pbx, pby, _ = edges[-1]
    pdx, pdy = pbx - pax, pby - pay
    for ax, ay, bx, by, m in edges:
        s = m * i
        dx, dy = bx - ax, by - ay
        cab = ax * by - ay * bx
        # edge_y(c) = (s*dy*c - cab) / (s*dx) on the columns c with
        # min(ax, bx) <= s*c < max(ax, bx)
        if dx > 0:
            c0 = -(-ax // s)
            total -= floor_sum_affine(-(-bx // s) - c0, s * dx, s * dy, s * dy * c0 - cab)
        elif dx < 0:
            c0 = -(-bx // s)
            total += floor_sum_affine(-(-ax // s) - c0, -s * dx, -s * dy, cab - s * dy * c0)
        if dx > 0 or (dx == 0 and dy > 0):
            total += _open_edge_lattice(ax, ay, dx, dy, s, cab)
        if ax % s == 0 and ay % s == 0 and _downright_exterior(pdx, pdy, dx, dy):
            total += 1
        pdx, pdy = dx, dy
    return total


def convex_hull(points):
    """CCW convex hull of exact rational points (collinear points dropped)."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]
