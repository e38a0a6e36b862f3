import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice import primitive
from fareylattice.bench import golden_x
from fareylattice.farey import rank_brute, rank_improved
from fareylattice.geometry import (
    Polygon,
    contains,
    count_lattice,
    diameter_bound,
    validate,
)
from fareylattice.primitive import (
    BRUTE_LIMIT,
    D_MAX,
    KTAU_MAX,
    TABLE_MAX,
    TAIL_SIDE_MAX,
    dp_term,
    phi_value,
    precompute_tail,
    primitive_brute,
    primitive_count,
    random_star_polygon,
    tail_query,
)

from _oracles import (
    DEGENERATE,
    gcd_classes,
    mertens_naive,
    nonconvex_star,
    phi_scan,
    scale_down,
    star_loops,
    tail_scan,
)

SQUARE2 = [(-2, -2), (2, -2), (2, 2), (-2, 2)]
OCTAGON_D10K = [(5000, 0), (3535, 3535), (0, 5000), (-3535, 3535), (-5000, 0), (-3535, -3535), (0, -5000), (3535, -3535)]


def octagon(D):
    """Regular octagon of diameter D about the origin, integer vertices."""
    R = D // 2
    r = isqrt(R * R // 2)
    return validate(Polygon([(R, 0), (r, r), (0, R), (-r, r), (-R, 0), (-r, -r), (0, -R), (r, -r)]))


class ReachedTail(Exception):
    pass


def reaches_tail(monkeypatch, poly, tau=None):
    """Does primitive_count pass every up-front check and start the tail?"""

    def stop(*args):
        raise ReachedTail

    monkeypatch.setattr(primitive, "precompute_tail", stop)
    try:
        primitive_count(poly, tau=tau)
    except ReachedTail:
        return True
    return False


def check_phi_on_box(poly):
    # every primitive point of a box around the region: phi_value agrees
    # with the ray-cast scan inside and refuses the point outside
    D = diameter_bound(poly)
    for x in range(-D, D + 1):
        for y in range(-D, D + 1):
            if gcd(x, y) != 1:
                continue
            if contains(poly, (x, y)):
                assert phi_value(poly, (x, y)) == phi_scan(poly, (x, y), D), (x, y)
            else:
                with pytest.raises(ValueError):
                    phi_value(poly, (x, y))


def square2():
    return validate(Polygon(SQUARE2))


# table caps for the every-split tests: the smallest legal cap, which sends
# nearly every tail point to far, a few more, and the default
CAPS = {
    "tau+1": lambda tau, D: tau + 1,
    "tau+3": lambda tau, D: tau + 3,
    "default": primitive._table_cap,
}


def check_every_split_and_cap(poly):
    want = primitive_brute(poly)
    for name, cap in CAPS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primitive, "_table_cap", cap)
            for tau in range(1, diameter_bound(poly) + 1):
                assert primitive_count(poly, tau=tau) == want, (name, tau)


def farey_triangle(n, x):
    return validate(Polygon([(0, 0), (n, 0), (n, n * x)]))


class TestPhiValue:
    def test_square_examples(self):
        sq = square2()
        assert phi_value(sq, (1, 1)) == 3
        assert phi_value(sq, (2, 1)) == 2

    def test_origin_rejected(self):
        sq = square2()
        with pytest.raises(ValueError):
            phi_value(sq, (0, 0))

    def test_outside_rejected(self):
        sq = square2()
        with pytest.raises(ValueError):
            phi_value(sq, (3, 0))

    def test_matches_linear_scan(self):
        rng = random.Random(7130)
        for _ in range(10):
            poly = random_star_polygon(rng.randint(8, 40), rng.randint(3, 8), rng)
            D = diameter_bound(poly)
            pts = [
                (x, y)
                for x in range(-10, 11)
                for y in range(-10, 11)
                if (x, y) != (0, 0) and gcd(x, y) == 1 and contains(poly, (x, y))
            ]
            rng.shuffle(pts)
            checked = 0
            for pt in pts:
                assert phi_value(poly, pt) == phi_scan(poly, pt, D)
                checked += 1
                if checked >= 25:
                    break
            assert checked >= 10

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_matches_scan_on_degenerate_corpus(self, name):
        check_phi_on_box(validate(Polygon(DEGENERATE[name])))

    @settings(max_examples=40, deadline=None)
    @given(star_loops())
    def test_matches_scan_on_star_loops(self, poly):
        check_phi_on_box(poly)

    def test_range(self):
        # every in-region nonzero point leaves by scale D+1
        rng = random.Random(88)
        poly = random_star_polygon(20, 5, rng)
        D = diameter_bound(poly)
        for x in range(-6, 7):
            for y in range(-6, 7):
                if (x, y) == (0, 0):
                    continue
                try:
                    phi = phi_value(poly, (x, y))
                except ValueError:
                    continue
                assert 2 <= phi <= D + 2


class TestPrecomputeTail:
    def test_square_tau_one_has_all_primitives(self):
        tail = precompute_tail(square2(), 1)
        assert tail.tau == 1
        assert len(tail.phis) == 16

    def test_square_tau_two(self):
        tail = precompute_tail(square2(), 2)
        assert len(tail.phis) == 8

    def test_tau_past_diameter_is_empty(self):
        sq = square2()
        tail = precompute_tail(sq, diameter_bound(sq) + 1)
        assert len(tail.phis) == 0

    def test_sorted_descending(self):
        rng = random.Random(5)
        poly = random_star_polygon(40, 6, rng)
        tail = precompute_tail(poly, 3)
        phis = list(tail.phis)
        assert phis == sorted(phis, reverse=True)

    def test_counts_primitives_of_scaled_polygon(self):
        rng = random.Random(19)
        for _ in range(6):
            poly = random_star_polygon(rng.randint(10, 60), rng.randint(3, 7), rng)
            tau = rng.randint(1, diameter_bound(poly))
            tail = precompute_tail(poly, tau)
            assert len(tail.phis) == primitive_brute(scale_down(poly, tau))

    def test_phi_bounds(self):
        rng = random.Random(23)
        poly = random_star_polygon(30, 5, rng)
        D = diameter_bound(poly)
        tau = 4
        tail = precompute_tail(poly, tau)
        assert all(tau + 1 <= phi <= D + 2 for phi in tail.phis)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            precompute_tail(square2(), 0)

    def test_clockwise_unvalidated_input(self):
        # the wedges need the counterclockwise loop that validate makes
        clockwise = Polygon(SQUARE2[::-1])
        assert precompute_tail(clockwise, 1).phis == precompute_tail(square2(), 1).phis
        assert phi_value(clockwise, (1, 1)) == 3

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_matches_scan_on_degenerate_corpus(self, name):
        poly = validate(Polygon(DEGENERATE[name]))
        for tau in range(1, diameter_bound(poly) + 2):
            assert precompute_tail(poly, tau).phis == tail_scan(poly, tau), tau

    def test_degenerate_corpus_covers_wedge_cases(self):
        # the cases the wedge scan meets: a ray that bounds one wedge only (the
        # origin on the boundary); a vertex ray two wedges share with different
        # thresholds, which the larger must win (an inward radial edge, on each
        # side of x = 0); a vertical ray (ax = 0) and a vertical wedge edge
        # (mdx = 0); and the column x = 0 strictly inside a cone, scanned with
        # the run as its coprime period. The radial edges (cab = 0) away from
        # and toward the origin, vertical ones included, stay covered too.
        seen = set()
        for vertices in DEGENERATE.values():
            poly = validate(Polygon(vertices))
            if contains(poly, (0, 1)) or contains(poly, (0, -1)):
                seen.add("x=0")
            rays = {}
            for ax, ay, bx, by, _, mdx, mdy, cab in primitive._wedges(poly):
                for vx, vy in ((ax, ay), (bx, by)):
                    g = gcd(vx, vy)
                    u = (vx // g, vy // g)
                    rays.setdefault(u, []).append(1 + cab // (u[0] * mdy - u[1] * mdx))
                    if vx == 0:
                        seen.add("vertical-ray")
                for sign in (1, -1):
                    if sign * ax > 0 > sign * bx and contains(poly, (0, sign)):
                        seen.add("x=0-inside-cone")
            for u, phis in rays.items():
                if len(phis) == 1:
                    seen.add("one-wedge-ray")
                elif len(set(phis)) > 1:
                    seen.add("shared-ray-two-phis" + ("-left" if u[0] < 0 else "-right" if u[0] > 0 else "-vertical"))
            for ax, ay, bx, by, _ in poly._edges_cleared():
                if ax * by != ay * bx:
                    kind = "wedge"
                elif ax * bx + ay * by > 0:
                    kind = "outward" if ax * ax + ay * ay < bx * bx + by * by else "inward"
                else:
                    kind = "through-origin"
                seen.add(kind + ("-vertical" if ax == bx else "-left" if ax < 0 else "-right"))
        assert seen >= {
            "one-wedge-ray",
            "shared-ray-two-phis-left",
            "shared-ray-two-phis-right",
            "vertical-ray",
            "wedge-vertical",
            "x=0-inside-cone",
            "x=0",
            "outward-right",
            "inward-right",
            "inward-left",
            "outward-vertical",
            "inward-vertical",
        }

    @settings(max_examples=40, deadline=None)
    @given(star_loops(), st.integers(1, 30))
    def test_matches_scan_on_star_loops(self, poly, tau):
        tau = 1 + (tau - 1) % (diameter_bound(poly) + 1)
        assert precompute_tail(poly, tau).phis == tail_scan(poly, tau)


class TestTailQuery:
    def test_square_examples(self):
        sq = square2()
        D = diameter_bound(sq)
        tail = precompute_tail(sq, 1)
        assert tail_query(tail, 2) == 8
        assert tail_query(tail, 1) == len(tail.phis) == 16
        assert tail_query(tail, D + 1) == 0

    def test_rejects_below_tau(self):
        tail = precompute_tail(square2(), 3)
        with pytest.raises(ValueError):
            tail_query(tail, 2)

    def test_matches_brute_at_every_scale(self):
        rng = random.Random(402)
        for _ in range(8):
            poly = random_star_polygon(rng.randint(8, 50), rng.randint(3, 7), rng)
            D = diameter_bound(poly)
            tau = rng.randint(1, D)
            tail = precompute_tail(poly, tau)
            for i in range(tau, D + 2):
                assert tail_query(tail, i) == primitive_brute(scale_down(poly, i))


def brute_table(poly):
    # S[j] = S(P/j) for j = 1..D+1 by direct scans; index 0 unused
    return [0] + [primitive_brute(scale_down(poly, j)) for j in range(1, diameter_bound(poly) + 2)]


class TestDpTerm:
    def test_square_at_two(self):
        sq = square2()
        assert dp_term(2, brute_table(sq), sq) == 8

    def test_square_at_one(self):
        sq = square2()
        assert dp_term(1, brute_table(sq), sq) == 16

    def test_past_diameter_is_zero(self):
        sq = square2()
        assert dp_term(diameter_bound(sq) + 1, brute_table(sq), sq) == 0

    def test_far_points_past_a_short_table(self):
        # cut the exact table at every length above i: the tail points past
        # the cut enter through far, also when the cut is below 2i
        rng = random.Random(614)
        for poly in [square2()] + [random_star_polygon(rng.randint(10, 40), rng.randint(3, 8), rng) for _ in range(4)]:
            S = brute_table(poly)
            a = [phi - 1 for phi in precompute_tail(poly, 1).phis]
            for cap in range(1, len(S) + 1):
                far = [x for x in a if x >= cap]
                for i in range(1, cap):
                    assert dp_term(i, S[:cap], poly, far) == S[i], (cap, i)

    def test_matches_brute_table(self):
        rng = random.Random(613)
        polys = [square2()] + [
            random_star_polygon(rng.randint(10, 80), rng.randint(3, 8), rng) for _ in range(8)
        ]
        for poly in polys:
            S = brute_table(poly)
            for i in range(1, len(S)):
                assert dp_term(i, S, poly) == S[i], i


def squarefree(d):
    return all(d % (p * p) for p in range(2, isqrt(d) + 1))


class TestMoebiusFold:
    @pytest.mark.parametrize("split", ["1", "2", "default", "D"])
    def test_lattice_counts_at_squarefree_scales_only(self, monkeypatch, split):
        # A(P/d) once for each squarefree d < tau and at no other scale
        poly = nonconvex_star(random.Random(4410), 300, 12)
        D = diameter_bound(poly)
        want = primitive_brute(poly)
        scales, taus = [], []
        count, tail = primitive.count_lattice, primitive.precompute_tail

        def counting(p, i=1):
            scales.append(i)
            return count(p, i)

        def recording(p, tau):
            taus.append(tau)
            return tail(p, tau)

        monkeypatch.setattr(primitive, "count_lattice", counting)
        monkeypatch.setattr(primitive, "precompute_tail", recording)
        tau = {"1": 1, "2": 2, "default": None, "D": D}[split]
        assert primitive_count(poly, tau=tau) == want
        if tau is None:
            tau = taus[0]
            assert 2 < tau < D
        assert taus == [tau]
        assert sorted(scales) == [d for d in range(1, tau) if squarefree(d)]

    @pytest.mark.parametrize("cap", CAPS)
    def test_fold_over_the_zeroed_brute_table(self, cap):
        # S[1] + sum of mu(d) * dp_term(d) over d < tau, with the exact table
        # zeroed below tau and cut at the cap, is S(P) at every split; the
        # points whose phi - 1 reaches the cap enter through far
        rng = random.Random(615)
        polys = [square2()] + [random_star_polygon(rng.randint(10, 40), rng.randint(3, 8), rng) for _ in range(3)]
        polys.append(nonconvex_star(rng, 40, 9))
        for poly in polys:
            S = brute_table(poly)
            D = diameter_bound(poly)
            M = mertens_naive(D)
            a = [phi - 1 for phi in precompute_tail(poly, 1).phis]
            for tau in range(1, D + 1):
                A = CAPS[cap](tau, D)
                table = ([0] * tau + S[tau:] + [0] * A)[:A]
                far = [x for x in a if x >= A]
                fold = table[1] + sum((M[d] - M[d - 1]) * dp_term(d, table, poly, far) for d in range(1, tau))
                assert fold == S[1], tau


class TestPrimitiveCount:
    def test_square(self):
        assert primitive_count(square2()) == 16

    def test_sub_half_square_has_none(self):
        h = Fraction(1, 3)
        poly = validate(Polygon([(h, h), (-h, h), (-h, -h), (h, -h)]))
        assert primitive_count(poly) == 0

    def test_farey_triangle(self):
        assert primitive_count(farey_triangle(4, Fraction(1, 2))) == 4

    def test_matches_brute_on_random_polygons(self):
        rng = random.Random(90210)
        for _ in range(40):
            d = round(8 * (25 ** rng.random()))
            poly = random_star_polygon(d, rng.randint(3, 9), rng)
            assert primitive_count(poly) == primitive_brute(poly)

    def test_matches_brute_on_nonconvex_stars(self):
        rng = random.Random(2718)
        reflex = 0
        for _ in range(20):
            poly = nonconvex_star(rng, rng.randint(10, 120), rng.randint(4, 24), rng.choice((0, 12)))
            vs = poly.vertices
            reflex += any(
                (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) < 0
                for a, b, c in zip(vs[-1:] + vs[:-1], vs, vs[1:] + vs[:1])
            )
            want = primitive_brute(poly)
            assert primitive_count(poly) == want
            assert primitive_count(poly, tau=rng.randint(1, diameter_bound(poly))) == want
        assert reflex >= 15  # the corpus is mostly non-convex

    def test_tau_sweep(self):
        rng = random.Random(11)
        poly = random_star_polygon(30, 6, rng)
        want = primitive_brute(poly)
        for tau in range(1, diameter_bound(poly) + 1):
            assert primitive_count(poly, tau=tau) == want

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_every_split_on_degenerate_corpus(self, name):
        # tau = 1 leaves the whole table to the tail, tau = D can leave it
        # empty; each under every cap in CAPS
        check_every_split_and_cap(validate(Polygon(DEGENERATE[name])))

    @settings(max_examples=40, deadline=None)
    @given(star_loops())
    def test_every_split_on_star_loops(self, poly):
        check_every_split_and_cap(poly)

    @pytest.mark.parametrize("n", [10**5, 10**6])
    @pytest.mark.parametrize("x", [Fraction(1), golden_x(), Fraction(618033988749, 999999999989)], ids=["one", "golden", "den-1e12"])
    def test_large_farey_triangles(self, monkeypatch, n, x):
        # an independent algorithm at sizes no brute force reaches; the point
        # (1, 0) has phi = n + 1, past the cap, so far is never empty here
        caps = []
        cap = primitive._table_cap

        def record(tau, D):
            caps.append(cap(tau, D))
            return caps[-1]

        monkeypatch.setattr(primitive, "_table_cap", record)
        assert primitive_count(farey_triangle(n, x)) == rank_improved(x, n)
        assert caps and caps[-1] <= n

    def test_refuses_diameter_above_limit(self):
        # refused after validation, before the tail box or the table exists
        big = 10**12
        poly = validate(Polygon([(-big, -big), (big, -big), (big, big), (-big, big)]))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="D_MAX"):
            primitive_count(poly)
        assert time.perf_counter() - start < 1
        assert diameter_bound(poly) > D_MAX

    def test_rejects_bad_tau(self):
        sq = square2()
        D = diameter_bound(sq)
        with pytest.raises(ValueError):
            primitive_count(sq, tau=0)
        with pytest.raises(ValueError):
            primitive_count(sq, tau=D + 1)

    def test_refuses_small_tau_override_before_the_tail(self, monkeypatch):
        # tau = 1 at D = 10^4 would hold about 4*10^7 tail points
        octagon = validate(Polygon(OCTAGON_D10K))
        assert diameter_bound(octagon) == 10**4 > TAIL_SIDE_MAX
        calls = []
        monkeypatch.setattr(primitive, "precompute_tail", lambda *args: calls.append(args))
        for tau in (1, 2, 3):
            with pytest.raises(ValueError, match="TAIL_SIDE_MAX"):
                primitive_count(octagon, tau=tau)
        assert not calls

    def test_tail_side_bound_is_inclusive(self, monkeypatch):
        sq = square2()
        D = diameter_bound(sq)
        monkeypatch.setattr(primitive, "TAIL_SIDE_MAX", 2)
        assert primitive_count(sq, tau=-(-D // 2)) == 16
        with pytest.raises(ValueError, match="TAIL_SIDE_MAX"):
            primitive_count(sq, tau=-(-D // 2) - 1)

    def test_tail_side_max_is_the_default_side_at_d_max(self):
        tau = primitive.default_tau(D_MAX)
        assert TAIL_SIDE_MAX == 2683 and (TAIL_SIDE_MAX - 1) * tau < D_MAX <= TAIL_SIDE_MAX * tau

    def test_refuses_long_table_override_before_the_tail(self, monkeypatch):
        # tau = D at D = 10^8 would fill 10^8 + 1 int64 entries, about 800 MB
        poly = octagon(D_MAX)
        assert diameter_bound(poly) == D_MAX
        with pytest.raises(ValueError, match="TABLE_MAX = 7196860"):
            reaches_tail(monkeypatch, poly, tau=D_MAX)

    def test_table_bound_is_inclusive(self, monkeypatch):
        sq = square2()
        D = diameter_bound(sq)
        monkeypatch.setattr(primitive, "TABLE_MAX", primitive._table_cap(3, D))
        assert primitive_count(sq, tau=3) == 16
        assert primitive._table_cap(4, D) > primitive.TABLE_MAX
        with pytest.raises(ValueError, match="TABLE_MAX"):
            primitive_count(sq, tau=4)

    def test_table_max_is_the_default_cap_at_d_max(self):
        tau = primitive.default_tau(D_MAX)
        assert TABLE_MAX == primitive._table_cap(tau, D_MAX) == 7196860

    def test_refuses_many_edge_sums_before_the_tail(self, monkeypatch):
        # 10^4 vertices at D = 10^8: about 22,660 squarefree d below the default
        # tau, 10^4 floor sums each, about half an hour
        poly = nonconvex_star(random.Random(16), D_MAX, 10**4, 12)
        with pytest.raises(ValueError, match="KTAU_MAX = 10000000"):
            reaches_tail(monkeypatch, poly)

    def test_edge_sum_bound_is_inclusive(self, monkeypatch):
        # D = 6: k * max(tau, ceil(D / tau)) is 4 * 3 at tau = 2 and 3, and
        # 4 * 4 at tau = 4, 4 * 6 at tau = 1
        sq = square2()
        monkeypatch.setattr(primitive, "KTAU_MAX", 4 * 3)
        assert primitive_count(sq, tau=3) == primitive_count(sq, tau=2) == 16
        for tau in (4, 1):
            with pytest.raises(ValueError, match="KTAU_MAX = 12"):
                primitive_count(sq, tau=tau)

    @pytest.mark.parametrize(
        "D,k,tau",
        [(D_MAX, 8, None), (10**6, 8, 10**6), (10**5, 10**4, None), (10**5, 10**4, 1000), (10**5, 64, 1440)],
        ids=["octagon-d-max", "octagon-tau-d", "k-max-star", "k-max-star-at-bound", "workload-star-check-split"],
    )
    def test_accepts_inputs_below_both_bounds(self, monkeypatch, D, k, tau):
        poly = octagon(D) if k == 8 else nonconvex_star(random.Random(D + k), D, k, 12)
        assert reaches_tail(monkeypatch, poly, tau=tau)

    def test_unvalidated_input(self):
        assert primitive_count(Polygon(SQUARE2)) == 16

    def test_scale_monotone(self):
        rng = random.Random(77)
        poly = random_star_polygon(50, 7, rng)
        counts = [primitive_count(scale_down(poly, d)) for d in range(1, 8)]
        assert counts == sorted(counts, reverse=True)

    def test_equals_farey_rank(self):
        for n in (1, 2, 3, 5, 8, 13, 21):
            for x in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                assert primitive_count(farey_triangle(n, x)) == rank_brute(x, n)


class TestPrimitiveBrute:
    def test_square(self):
        assert primitive_brute(square2()) == 16

    def test_unit_square(self):
        poly = validate(Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]))
        assert primitive_brute(poly) == 8

    def test_refuses_large(self):
        half = BRUTE_LIMIT + 2
        big = validate(Polygon([(-half, -half), (half, -half), (half, half), (-half, half)]))
        with pytest.raises(ValueError):
            primitive_brute(big)

    def test_bounded_by_lattice_count(self):
        rng = random.Random(3)
        for _ in range(10):
            poly = random_star_polygon(rng.randint(8, 60), rng.randint(3, 7), rng)
            assert primitive_brute(poly) <= count_lattice(poly) - 1


class TestGcdClosure:
    def test_lattice_splits_into_gcd_classes(self):
        # every nonzero point with gcd d is a primitive point of the
        # d-fold shrink, so the class sizes are the shrink primitives
        rng = random.Random(5150)
        for _ in range(12):
            poly = random_star_polygon(rng.randint(8, 70), rng.randint(3, 8), rng)
            origin, classes = gcd_classes(poly)
            assert origin == 1
            total = count_lattice(poly)
            assert total == 1 + sum(classes.values())
            for d, size in classes.items():
                assert size == primitive_brute(scale_down(poly, d))


class TestRandomStarPolygon:
    def test_deterministic(self):
        a = random_star_polygon(40, 6, random.Random(12))
        b = random_star_polygon(40, 6, random.Random(12))
        assert a.vertices == b.vertices

    def test_validated_output(self):
        rng = random.Random(1)
        for _ in range(20):
            poly = random_star_polygon(rng.randint(8, 100), rng.randint(3, 10), rng)
            assert poly.validated
            assert 3 <= len(poly.vertices)

    def test_diameter_tracks_request(self):
        rng = random.Random(2)
        for _ in range(20):
            d = rng.randint(8, 500)
            poly = random_star_polygon(d, rng.randint(3, 8), rng)
            assert d // 4 <= diameter_bound(poly) <= 2 * d

    def test_rejects_bad_arguments(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_star_polygon(4, 5, rng)
        with pytest.raises(ValueError):
            random_star_polygon(20, 2, rng)
