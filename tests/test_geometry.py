import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fareylattice.geometry import (
    Polygon,
    PolygonError,
    contains,
    convex_hull,
    count_lattice,
    diameter_bound,
    format_polygon,
    parse_polygon,
    point_in_scaled,
    scale_down,
    validate,
)
from fareylattice.primitive import random_star_polygon

from _oracles import DEGENERATE, edge_distance_sq, float_contains, lattice_scan, star_loops

SQUARE2 = [(-2, -2), (2, -2), (2, 2), (-2, 2)]
TRIANGLE = [(0, 0), (4, 0), (4, 2)]
TINY = [(Fraction(1, 3), 0), (0, Fraction(1, 3)), (Fraction(-1, 3), 0), (0, Fraction(-1, 3))]


def square2():
    return validate(Polygon(SQUARE2))


def triangle():
    return validate(Polygon(TRIANGLE))


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

    def test_round_trip(self):
        poly = square2()
        again = parse_polygon(format_polygon(poly))
        assert again.vertices == poly.vertices

    @pytest.mark.parametrize(
        "text,violation",
        [
            ("1/2\n2 2\n3 3\n", "bad-vertex-line"),
            ("1 2 3\n2 2\n3 3\n", "bad-vertex-line"),
            ("0.5 1\n2 2\n3 3\n", "bad-coordinate"),
            ("1/0 1\n2 2\n3 3\n", "bad-coordinate"),
            ("nan 1\n2 2\n3 3\n", "bad-coordinate"),
            ("", "too-few-vertices"),
            ("# only comments\n", "too-few-vertices"),
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

    def test_bit_budget(self):
        rng = random.Random(15)
        for _ in range(10):
            poly = random_star_polygon(rng.randint(8, 200), rng.randint(3, 8), rng)
            assert 1 <= diameter_bound(poly) <= 2 ** (poly.bits + 2)


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


class TestConvexHull:
    def test_drops_interior_and_collinear(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (2, 0), (4, 2)]
        hull = convex_hull(pts)
        assert hull == [(0, 0), (4, 0), (4, 4), (0, 4)]

    def test_idempotent(self):
        rng = random.Random(2)
        pts = [(Fraction(rng.randint(-50, 50), rng.randint(1, 4)), Fraction(rng.randint(-50, 50), rng.randint(1, 4))) for _ in range(40)]
        hull = convex_hull(pts)
        assert convex_hull(hull) == hull
        # counterclockwise orientation
        area2 = sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1]))
        assert area2 > 0
