import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice import geometry
from fareylattice.geometry import (
    LINE_MAX,
    Polygon,
    PolygonError,
    contains,
    convex_hull,
    count_lattice,
    diameter_bound,
    parse_polygon,
    point_in_scaled,
    validate,
)
from fareylattice.primitive import random_star_polygon

from _oracles import (
    DEGENERATE,
    E12,
    diameter_pairwise,
    edge_distance_sq,
    float_contains,
    lattice_scan,
    nonconvex_star,
    scale_down,
    star_loops,
    validate_pairwise,
)

SQUARE2 = [(-2, -2), (2, -2), (2, 2), (-2, 2)]
TRIANGLE = [(0, 0), (4, 0), (4, 2)]
TINY = [(Fraction(1, 3), 0), (0, Fraction(1, 3)), (Fraction(-1, 3), 0), (0, Fraction(-1, 3))]


def square2():
    return validate(Polygon(SQUARE2))


def triangle():
    return validate(Polygon(TRIANGLE))


# where the winding-number validator may name a different violation than the
# pairwise one: a loop that crosses itself and also leaves the origin outside,
# or has an edge with cross(a, b) < 0, may be reported by that second fault
RELAXED = {("origin-outside", "not-simple"), ("not-star-shaped", "not-simple")}


def outcome(check, vertices):
    try:
        return check(Polygon(vertices))
    except PolygonError as err:
        return err.violation


def check_against_pairwise(vertices):
    want = outcome(validate_pairwise, vertices)
    got = outcome(validate, vertices)
    if isinstance(want, Polygon):
        assert isinstance(got, Polygon) and got.validated
        assert got.vertices == want.vertices
        assert got._edges_cleared() == Polygon(got.vertices)._edges_cleared()
    else:
        assert got == want or (got, want) in RELAXED, (vertices, got, want)
    return got


def fuzz_loop(rng):
    """A loop of 3..8 grid points where the origin shows up at vertices,
    inside edges (the next vertex is -c times the last) and on radial edges
    (c times the last). Each vertex is then scaled along its own ray, which
    keeps those degeneracies, by 1, a shared factor or its own factor, with
    denominators up to 10^12."""
    vertices = []
    for _ in range(rng.randint(3, 8)):
        roll = rng.random()
        if roll < 0.15:
            vertices.append((0, 0))
        elif roll < 0.35 and vertices and vertices[-1] != (0, 0):
            c = rng.choice((-2, -1, Fraction(-1, 2), Fraction(1, 2), 2, 3))
            vertices.append((c * vertices[-1][0], c * vertices[-1][1]))
        else:
            vertices.append((rng.randint(-3, 3), rng.randint(-3, 3)))
    mode = rng.randrange(3)
    if mode == 0:
        return vertices
    shared = Fraction(rng.randint(1, E12), rng.choice((3, E12 - 11)))
    scales = [shared if mode == 1 else Fraction(rng.randint(1, E12), rng.randint(1, E12)) for _ in vertices]
    return [(x * s, y * s) for (x, y), s in zip(vertices, scales)]


@st.composite
def twice_wound_loops(draw):
    """Loops that go round the origin twice, one vertex per sector of 4*pi/k."""
    k = draw(st.integers(5, 10))
    den = draw(st.sampled_from((1, 3, E12 - 11)))
    vertices = []
    for s in range(k):
        angle = 4 * math.pi * (s + draw(st.integers(1, 9)) / 10) / k
        radius = draw(st.integers(2, 10))
        vertices.append(
            (Fraction(round(radius * math.cos(angle) * den), den), Fraction(round(radius * math.sin(angle) * den), den))
        )
    return vertices


@st.composite
def origin_twice_loops(draw):
    """A star loop with the origin put on its boundary twice: each touch is
    a vertex at the origin or an edge p -> -p/2 through it."""
    vertices = list(draw(star_loops()).vertices)
    for _ in range(2):
        at = draw(st.integers(0, len(vertices)))
        if draw(st.booleans()):
            vertices.insert(at, (Fraction(0), Fraction(0)))
        else:
            p = vertices[at % len(vertices)]
            vertices.insert(at, (-p[0] / 2, -p[1] / 2))
    return vertices


def rational_star(k, rng, diameter=10**5):
    """A k-vertex rational star, one vertex per angular sector, at radii in
    [0.15, 0.5] * diameter and denominators up to 10^12."""
    vertices = []
    for s in range(k):
        angle = 2 * math.pi * (s + 0.1 + 0.8 * rng.random()) / k
        radius = diameter * (0.15 + 0.35 * rng.random())
        den = rng.randint(1, E12)
        vertices.append(
            (Fraction(round(radius * math.cos(angle) * den), den), Fraction(round(radius * math.sin(angle) * den), den))
        )
    return vertices


def check_shrunk_counts(poly):
    # count_lattice(P, i) against the Fraction polygon P/i, counted and scanned
    for i in range(1, diameter_bound(poly) + 3):
        shrunk = scale_down(poly, i)
        assert count_lattice(poly, i) == count_lattice(shrunk) == lattice_scan(shrunk), i


class TestParse:
    def test_basic(self):
        poly = parse_polygon("1/2 3/4\n-1 2\n5 -6/7\n")
        assert poly.vertices == (
            (Fraction(1, 2), Fraction(3, 4)),
            (Fraction(-1), Fraction(2)),
            (Fraction(5), Fraction(-6, 7)),
        )

    def test_comments_and_blanks(self):
        text = "# a square\n\n-2 -2\n2 -2\n  # middle comment\n2 2\n-2 2\n\n"
        assert len(parse_polygon(text).vertices) == 4
        assert parse_polygon(text.replace("\n", "\r\n")) == parse_polygon(text.replace("\n", "\r")) == parse_polygon(text)

    @pytest.mark.parametrize(
        "text,violation",
        [
            ("1/2\n2 2\n3 3\n", "bad-vertex-line"),
            ("1 2 3\n2 2\n3 3\n", "bad-vertex-line"),
            ("0.5 1\n2 2\n3 3\n", "bad-coordinate"),
            ("1/0 1\n2 2\n3 3\n", "bad-coordinate"),
            ("nan 1\n2 2\n3 3\n", "bad-coordinate"),
            ("２ 1\n2 2\n3 3\n", "bad-coordinate"),  # a full-width digit
            ("", "too-few-vertices"),
            ("# only comments\n", "too-few-vertices"),
            ("1 1\n" + " " * LINE_MAX + "2 2\n3 3\n", "line-too-long"),
        ],
    )
    def test_rejects(self, text, violation):
        with pytest.raises(PolygonError) as err:
            parse_polygon(text)
        assert err.value.violation == violation


class TestValidate:
    def test_square_ok(self):
        poly = square2()
        assert poly.validated
        assert len(poly.vertices) == 4

    def test_origin_on_boundary_ok(self):
        assert triangle().validated

    def test_clockwise_is_reversed(self):
        cw = Polygon(list(reversed(SQUARE2)))
        poly = validate(cw)
        area2 = sum(
            a[0] * b[1] - a[1] * b[0]
            for a, b in zip(poly.vertices, poly.vertices[1:] + poly.vertices[:1])
        )
        assert area2 > 0
        assert count_lattice(poly) == 25

    @pytest.mark.parametrize(
        "vertices,violation",
        [
            ([(0, 0), (1, 0)], "too-few-vertices"),
            ([(0, 0), (2, 0), (2, 0), (0, 2)], "repeated-vertex"),
            ([(1, 1), (2, 2), (3, 3)], "degenerate-area"),
            # bowtie: crossing halves cancel to zero signed area
            ([(-2, -2), (2, 2), (2, -2), (-2, 2)], "degenerate-area"),
            # pentagram: self-crossing with nonzero signed area
            ([(0, 4), (2, -4), (-3, 1), (3, 1), (-2, -4)], "not-simple"),
            ([(-2, -2), (3, -2), (2, -2), (2, 2), (-2, 2)], "not-simple"),
            ([(1, 1), (3, 1), (3, 3), (1, 3)], "origin-outside"),
            (
                # C-shape: origin inside, but the notch hides part of the
                # right arm from it
                [(4, -4), (4, -1), (1, -1), (1, 1), (4, 1), (4, 4), (-4, 4), (-4, -4)],
                "not-star-shaped",
            ),
        ],
    )
    def test_rejects(self, vertices, violation):
        with pytest.raises(PolygonError) as err:
            validate(Polygon(vertices))
        assert err.value.violation == violation

    def test_collinear_pass_through_vertex_allowed(self):
        poly = validate(Polygon([(-2, -2), (0, -2), (2, -2), (2, 2), (-2, 2)]))
        assert count_lattice(poly) == 25


class TestAgainstPairwise:
    @pytest.mark.parametrize("name", DEGENERATE)
    def test_degenerate_corpus(self, name):
        assert isinstance(check_against_pairwise(DEGENERATE[name]), Polygon)

    @settings(max_examples=60, deadline=None)
    @given(star_loops())
    def test_star_loops(self, poly):
        assert isinstance(check_against_pairwise(poly.vertices), Polygon)
        assert isinstance(check_against_pairwise(poly.vertices[::-1]), Polygon)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz(self, seed):
        rng = random.Random(seed)
        outcomes = [check_against_pairwise(fuzz_loop(rng)) for _ in range(1000)]
        # the fuzz reaches every verdict, acceptance included
        verdicts = {o if isinstance(o, str) else "ok" for o in outcomes}
        assert verdicts >= {"ok", "not-simple", "origin-outside", "not-star-shaped", "degenerate-area"}

    @settings(max_examples=60, deadline=None)
    @given(twice_wound_loops())
    def test_loops_winding_twice(self, vertices):
        check_against_pairwise(vertices)

    @settings(max_examples=60, deadline=None)
    @given(origin_twice_loops())
    def test_loops_touching_the_origin_twice(self, vertices):
        assert isinstance(check_against_pairwise(vertices), str)

    def test_scale(self):
        # the pairwise validator would take hours on this loop
        vertices = rational_star(10**4, random.Random(10))
        start = time.perf_counter()
        poly = validate(Polygon(vertices))
        D = diameter_bound(poly)
        assert time.perf_counter() - start < 10
        assert poly.validated and 3 * 10**4 <= D <= 10**5


class TestVertexLimit:
    def test_parse_refuses_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(geometry, "K_MAX", 4)
        assert len(parse_polygon("-2 -2\n2 -2\n2 2\n-2 2\n").vertices) == 4
        with pytest.raises(PolygonError) as err:
            parse_polygon("-2 -2\n2 -2\n2 0\n2 2\n-2 2\n")
        assert err.value.violation == "too-many-vertices"

    def test_validate_refuses_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(geometry, "K_MAX", 4)
        assert validate(Polygon(SQUARE2)).validated
        with pytest.raises(PolygonError) as err:
            validate(Polygon([(-2, -2), (2, -2), (2, 0), (2, 2), (-2, 2)]))
        assert err.value.violation == "too-many-vertices"


class TestContains:
    def test_known_points(self):
        sq = square2()
        assert contains(sq, (0, 0))
        assert contains(sq, (2, 2))
        assert not contains(sq, (3, 0))

    def test_boundary_points(self):
        sq = square2()
        assert contains(sq, (2, Fraction(1, 2)))
        assert contains(sq, (Fraction(-2), Fraction(-2)))
        assert not contains(sq, (2, Fraction(5, 2)))
        tri = triangle()
        assert contains(tri, (2, 1))  # on the hypotenuse
        assert not contains(tri, (2, Fraction(101, 100)))

    def test_matches_float_ray_caster_away_from_boundary(self):
        rng = random.Random(31337)
        agreements = 0
        for _ in range(12):
            poly = random_star_polygon(rng.randint(8, 40), rng.randint(3, 8), rng)
            xs = [float(v[0]) for v in poly.vertices]
            ys = [float(v[1]) for v in poly.vertices]
            for _ in range(60):
                qx = Fraction(rng.randint(int(min(xs) * 8) - 8, int(max(xs) * 8) + 8), 8)
                qy = Fraction(rng.randint(int(min(ys) * 8) - 8, int(max(ys) * 8) + 8), 8)
                if edge_distance_sq(poly, qx, qy) <= 1e-6:
                    continue
                assert contains(poly, (qx, qy)) == float_contains(poly, qx, qy)
                agreements += 1
        assert agreements > 300

    def test_point_in_scaled_matches_contains_of_scaled(self):
        rng = random.Random(99)
        for _ in range(8):
            poly = random_star_polygon(rng.randint(8, 30), rng.randint(3, 7), rng)
            for _ in range(40):
                pt = (rng.randint(-30, 30), rng.randint(-30, 30))
                i = rng.randint(1, 12)
                assert point_in_scaled(poly, pt, i) == contains(scale_down(poly, i), pt)


class TestScaleDown:
    def test_identity(self):
        sq = square2()
        assert scale_down(sq, 1).vertices == sq.vertices

    def test_square_halves(self):
        assert scale_down(square2(), 2).vertices == tuple(
            (Fraction(x), Fraction(y)) for x, y in [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scale_down(square2(), 0)

    def test_diameter_scales(self):
        rng = random.Random(8)
        for _ in range(6):
            poly = random_star_polygon(rng.randint(20, 80), rng.randint(3, 7), rng)
            D = diameter_bound(poly)
            for d in (1, 2, 3, 7):
                got = diameter_bound(scale_down(poly, d))
                assert abs(got - (-(-D // d))) <= 1


class TestDiameterBound:
    def test_square(self):
        assert diameter_bound(square2()) == 6

    def test_triangle(self):
        assert diameter_bound(triangle()) == 5

    def test_tiny_is_one(self):
        assert diameter_bound(validate(Polygon(TINY))) == 1


class TestDiameterAgainstPairwise:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_hulls(self, seed):
        # small grids put collinear points on the hull and tie several
        # farthest pairs; the scale up to 10^9 over a 12-digit denominator
        # keeps the ceiling sensitive to a wrong pair
        rng = random.Random(seed)
        for _ in range(150):
            span = rng.choice((1, 2, 4, 50))
            scale = Fraction(rng.choice((1, 10**9)), rng.choice((1, 7, E12 - 11)))
            pts = [(rng.randint(-span, span) * scale, rng.randint(-span, span) * scale) for _ in range(rng.randint(1, 40))]
            assert diameter_bound(Polygon(pts)) == diameter_pairwise(pts)

    def test_rational_hulls(self):
        rng = random.Random(77)
        for _ in range(100):
            pts = [
                (Fraction(rng.randint(-E12, E12), rng.randint(1, E12)), Fraction(rng.randint(-E12, E12), rng.randint(1, E12)))
                for _ in range(rng.randint(2, 30))
            ]
            assert diameter_bound(Polygon(pts)) == diameter_pairwise(pts)

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetric_ties(self, seed):
        # the octagon (+-a, +-b), (+-b, +-a) has four farthest pairs; edge
        # midpoints add collinear hull points and the origin an interior one
        rng = random.Random(seed)
        for _ in range(40):
            a = Fraction(rng.randint(1, E12), rng.randint(1, E12))
            b = a * Fraction(rng.randint(0, 99), 100)
            pts = [(sx * u, sy * v) for sx in (1, -1) for sy in (1, -1) for u, v in ((a, b), (b, a))]
            pts += [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in zip(pts, pts[1:])] + [(0, 0)]
            rng.shuffle(pts)
            assert diameter_bound(Polygon(pts)) == diameter_pairwise(pts)


class TestCountLattice:
    def test_square(self):
        assert count_lattice(square2()) == 25

    def test_triangle(self):
        assert count_lattice(triangle()) == 9

    def test_tiny(self):
        assert count_lattice(validate(Polygon(TINY))) == 1

    def test_translated_squares(self):
        # no symmetry to hide convention bugs behind
        poly = validate(Polygon([(-1, -2), (3, -2), (3, 1), (-1, 1)]))
        assert count_lattice(poly) == lattice_scan(poly) == 20

    def test_fractional_offsets(self):
        h = Fraction(1, 2)
        poly = validate(Polygon([(-1 - h, -2 + h), (3 - h, -2 + h), (3 - h, 1 + h), (-1 - h, 1 + h)]))
        assert count_lattice(poly) == lattice_scan(poly)

    def test_random_polygons_match_scan(self):
        rng = random.Random(60601)
        for trial in range(120):
            d = round(8 * (30 ** rng.random()))  # log-uniform 8..240
            poly = random_star_polygon(d, rng.randint(3, 10), rng)
            assert count_lattice(poly) == lattice_scan(poly)

    def test_nesting_monotone(self):
        rng = random.Random(4)
        poly = random_star_polygon(60, 7, rng)
        counts = [count_lattice(scale_down(poly, d)) for d in range(1, 12)]
        assert counts == sorted(counts, reverse=True)

    def test_full_shrink_leaves_origin(self):
        rng = random.Random(44)
        for _ in range(5):
            poly = random_star_polygon(rng.randint(8, 60), rng.randint(3, 7), rng)
            assert count_lattice(scale_down(poly, diameter_bound(poly) + 1)) == 1

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_cached_records_serve_every_scale(self, name):
        # one polygon's edge records, reused across scales in any order,
        # count as records built afresh for each call do
        poly = validate(Polygon(DEGENERATE[name]))
        scales = list(range(1, diameter_bound(poly) + 3))
        random.Random(name).shuffle(scales)
        for i in scales:
            assert count_lattice(poly, i) == count_lattice(validate(Polygon(DEGENERATE[name])), i), i

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_clockwise_loop_reads_records_of_its_validated_loop(self, name):
        # the records come from the counterclockwise loop that validate
        # makes; the raw clockwise input never gets any
        ccw = validate(Polygon(DEGENERATE[name]))
        raw = Polygon(ccw.vertices[::-1])
        for i in range(1, diameter_bound(ccw) + 3):
            assert count_lattice(raw, i) == count_lattice(ccw, i), i
        assert raw._records is None
        assert geometry._edge_records(validate(raw)) == ccw._records

    @pytest.mark.parametrize("i,want", [(1, 25), (2, 9)])
    def test_clockwise_unvalidated_square(self, i, want):
        # the column sums need the counterclockwise loop that validate makes
        assert count_lattice(Polygon(SQUARE2[::-1]), i) == want

    @pytest.mark.parametrize("i", [0, -1])
    def test_rejects_scale_below_one(self, i):
        with pytest.raises(ValueError, match="scale factor must be >= 1"):
            count_lattice(square2(), i)

    def test_unvalidated_origin_outside_rejected(self):
        with pytest.raises(PolygonError) as err:
            count_lattice(Polygon([(1, 1), (3, 1), (3, 3), (1, 3)]))
        assert err.value.violation == "origin-outside"

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_shrunk_matches_scan_on_degenerate_corpus(self, name):
        check_shrunk_counts(validate(Polygon(DEGENERATE[name])))

    @settings(max_examples=40, deadline=None)
    @given(star_loops())
    def test_shrunk_matches_scan_on_star_loops(self, poly):
        check_shrunk_counts(poly)

    def test_seeded_integer_and_12_digit_stars_match_scan(self):
        # non-convex stars whose integer vertices and edges carry lattice
        # points at several scales, and whose 12-digit ones carry almost none
        rng = random.Random(1512)
        for den_digits in (12, 12, 12, 0, 0):
            poly = nonconvex_star(rng, rng.randint(20, 40), rng.randint(8, 16), den_digits)
            for i in (1, 2, 3, 5):
                assert count_lattice(poly, i) == lattice_scan(scale_down(poly, i)), (den_digits, i)

    def test_every_corner_on_small_integer_loops(self):
        # every valid loop of 3 or 4 integer vertices in [-2, 2]^2, once up to
        # rotation: every pair of edge-direction classes meets at a vertex at
        # both turn signs, and the vertices land on the lattice at i = 1, 2
        pts = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
        loops = 0
        for k in (3, 4):
            for combo in itertools.permutations(range(len(pts)), k):
                if combo[0] != min(combo):
                    continue
                try:
                    poly = validate(Polygon([pts[j] for j in combo]))
                except PolygonError:
                    continue
                loops += 1
                for i in (1, 2, 3):
                    assert count_lattice(poly, i) == lattice_scan(scale_down(poly, i)), (combo, i)
        assert loops == 22460


class TestConvexHull:
    def test_drops_interior_and_collinear(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (2, 0), (4, 2)]
        hull = convex_hull(pts)
        assert hull == [(0, 0), (4, 0), (4, 4), (0, 4)]

    def test_points_closer_than_their_denominators(self):
        # the top corners differ by about 10^-24 in x, far below 1/E12
        a, b = Fraction(1, E12), Fraction(1, E12 - 1)
        assert convex_hull([(b, 1), (0, 0), (1, 0), (a, 1), (a, 1)]) == [(0, 0), (1, 0), (b, 1), (a, 1)]

    def test_idempotent(self):
        rng = random.Random(2)
        pts = [(Fraction(rng.randint(-50, 50), rng.randint(1, 4)), Fraction(rng.randint(-50, 50), rng.randint(1, 4))) for _ in range(40)]
        hull = convex_hull(pts)
        assert convex_hull(hull) == hull
        # counterclockwise orientation
        area2 = sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1]))
        assert area2 > 0
