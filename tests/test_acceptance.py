"""End-to-end acceptance checks.

One test per numbered criterion, each with its own time budget asserted at
the end. Run with -v for a pass/fail line per criterion; detail lines are
printed and show up under -rA or on failure.
"""

import random
import time
from fractions import Fraction
from math import gcd

from fareylattice.bench import fit_exponent, golden_x, run_grid
from fareylattice.exactmath import floor_sum
from fareylattice.farey import rank_brute, rank_improved, rank_pawlewicz, statistic, totient_sum
from fareylattice.geometry import (
    Polygon,
    count_lattice,
    diameter_bound,
    validate,
)
from fareylattice.primitive import (
    precompute_tail,
    primitive_brute,
    primitive_count,
    random_star_polygon,
    tail_query,
)

from _oracles import farey_members, farey_pairs, gcd_classes, lattice_scan, scale_down, totient_sieve


def farey_triangle(n, x):
    return validate(Polygon([(0, 0), (n, 0), (n, n * x)]))


def second_tau(poly):
    # a crossover about twice the default round(D^(4/7)), capped at D
    D = diameter_bound(poly)
    return min(D, 2 * round(D ** (4 / 7)))


def log_uniform(rng, lo, hi):
    return round(lo * ((hi / lo) ** rng.random()))


def test_1_farey_tiers_agree():
    """All three rank tiers agree; fast tiers agree out to n = 10^7.

    Exhaustive triple-tier product at n <= 40; exhaustive fast-tier
    product for every n <= 100 and every x in F_100, with expected ranks
    derived by merging the enumeration of F_n into that of F_100;
    stratified triple-tier coverage of every n <= 300 against members of
    F_300; 50 random large instances on the fast tiers.
    """
    start = time.perf_counter()

    members40 = farey_members(40)
    for n in range(1, 41):
        for x in members40:
            b = rank_brute(x, n)
            assert rank_pawlewicz(x, n) == b
            assert rank_improved(x, n) == b

    members100 = farey_members(100)
    for n in range(1, 101):
        fn = farey_members(n)
        j = 0
        for x in members100:
            while j < len(fn) and fn[j] <= x:
                j += 1
            assert rank_pawlewicz(x, n) == j
            assert rank_improved(x, n) == j

    members300 = farey_members(300)
    length = len(members300)
    for n in range(1, 301):
        for j in range(20):
            x = members300[(j * length // 20 + 7 * n) % length]
            b = rank_brute(x, n)
            assert rank_pawlewicz(x, n) == b
            assert rank_improved(x, n) == b

    rng = random.Random(14142)
    for _ in range(50):
        n = log_uniform(rng, 10**4, 10**7)
        den = rng.randint(1, 10**6)
        x = Fraction(rng.randint(0, den), den)
        assert rank_pawlewicz(x, n) == rank_improved(x, n)

    elapsed = time.perf_counter() - start
    print(f"farey tier agreement: {elapsed:.1f}s")
    assert elapsed < 60


def test_2_rank_statistic_round_trip():
    """rank and statistic invert each other across all of F_n for n <= 100."""
    start = time.perf_counter()

    for n in range(1, 101):
        for k, (a, b) in enumerate(farey_pairs(n), start=1):
            f = Fraction(a, b)
            assert rank_improved(f, n) == k
            assert statistic(k, n) == f

    elapsed = time.perf_counter() - start
    print(f"round trip n<=100: {elapsed:.1f}s")
    assert elapsed < 120


def test_3_totient_summatory_values():
    """totient_sum matches an independently sieved summatory phi."""
    phi = totient_sieve(100)
    oracle_10 = sum(phi[1:11])
    oracle_100 = sum(phi[1:101])
    assert oracle_10 == 32
    assert oracle_100 == 3044
    assert totient_sum(10) == oracle_10
    assert totient_sum(100) == oracle_100


def test_4_primitive_matches_brute():
    """Fast primitive counting equals brute enumeration on 300 random polygons."""
    start = time.perf_counter()

    square = validate(Polygon([(-2, -2), (2, -2), (2, 2), (-2, 2)]))
    assert primitive_count(square) == 16
    triangle = validate(Polygon([(0, 0), (4, 0), (4, 2)]))
    assert primitive_count(triangle) == 4

    rng = random.Random(27182)
    for trial in range(300):
        if trial < 3:
            d = 2000 - 100 * trial  # a few forced near the cap
        else:
            d = log_uniform(rng, 8, 2000)
        poly = random_star_polygon(d, rng.randint(3, 10), rng)
        assert primitive_count(poly) == primitive_brute(poly), f"trial {trial}"

    elapsed = time.perf_counter() - start
    print(f"primitive vs brute, 300 polygons: {elapsed:.1f}s")
    assert elapsed < 600


def test_5_triangle_rank_bridge():
    """Primitive points of the slope triangle count exactly the Farey rank."""
    for n in (10, 50, 100):
        for x in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            assert primitive_count(farey_triangle(n, x)) == rank_improved(x, n)


def test_6_lattice_count_matches_scan():
    """Edge-summed lattice counting equals the bounding-box scan, 500 polygons."""
    start = time.perf_counter()

    rng = random.Random(31415)
    for trial in range(500):
        if trial < 3:
            d = 200 - 10 * trial  # a few forced near the cap
        else:
            d = log_uniform(rng, 8, 200)
        poly = random_star_polygon(d, rng.randint(3, 10), rng)
        assert count_lattice(poly) == lattice_scan(poly), f"trial {trial}"

    elapsed = time.perf_counter() - start
    print(f"lattice count vs scan, 500 polygons: {elapsed:.1f}s")
    assert elapsed < 600


def test_7_scaling_exponents():
    """Empirical runtime exponents sit in their predicted windows.

    The improved tier must fit clearly below the 3/4 tier on the same
    grid, and the improved tier must finish n = 10^9 inside 30 seconds.
    """
    grid = [10**6, 4 * 10**6, 16 * 10**6, 64 * 10**6, 256 * 10**6]
    improved = fit_exponent(run_grid("improved", grid, reps=5))
    pawlewicz = fit_exponent(run_grid("pawlewicz", grid, reps=5))
    print(f"exponents: improved {improved:.3f}, pawlewicz {pawlewicz:.3f}")
    assert 0.55 <= improved <= 0.74
    assert 0.68 <= pawlewicz <= 0.82
    assert improved < pawlewicz

    start = time.perf_counter()
    value = rank_improved(golden_x(), 10**9)
    elapsed = time.perf_counter() - start
    print(f"rank_improved at 10^9: {value} in {elapsed:.1f}s")
    assert value > 0
    assert elapsed < 30


def test_8_large_octagon_and_grouping():
    """Primitive counting stays fast at diameter 10^5; the split changes nothing.

    The default crossover tau and a second one, twice round(D^(4/7)), must
    agree bit for bit, both on the large octagon and across a seeded sweep
    of brute-checkable sizes.
    """
    octagon = validate(
        Polygon(
            [
                (50000, 0),
                (35355, 35355),
                (0, 50000),
                (-35355, 35355),
                (-50000, 0),
                (-35355, -35355),
                (0, -50000),
                (35355, -35355),
            ]
        )
    )
    assert diameter_bound(octagon) == 100000

    start = time.perf_counter()
    count = primitive_count(octagon)
    elapsed = time.perf_counter() - start
    print(f"octagon D=10^5: {count} in {elapsed:.1f}s")
    assert elapsed < 120
    assert count == 4298653048
    assert primitive_count(octagon, tau=second_tau(octagon)) == count

    rng = random.Random(16180)
    for _ in range(30):
        poly = random_star_polygon(log_uniform(rng, 8, 400), rng.randint(3, 9), rng)
        a = primitive_count(poly)
        b = primitive_count(poly, tau=second_tau(poly))
        assert a == b == primitive_brute(poly)
    for _ in range(5):
        poly = random_star_polygon(rng.randint(400, 700), rng.randint(3, 9), rng)
        assert primitive_count(poly) == primitive_count(poly, tau=second_tau(poly))


def test_9_invariant_suites():
    """Identity suites: floor sums, nested floors, tail queries, gcd closure."""
    start = time.perf_counter()

    rng = random.Random(60457)
    for _ in range(200):
        den = rng.randint(1, 10**6)
        num = rng.randint(0, 10**6)
        x = Fraction(num, den)
        acc = 0
        for b in range(1, 1001):
            acc += b * num // den
            assert floor_sum(b, x) == acc

    for d1 in range(1, 201):
        for n in range(1, 201):
            q = n // d1
            assert [q // d2 for d2 in range(1, 201)] == [
                n // (d1 * d2) for d2 in range(1, 201)
            ]

    for _ in range(4):
        poly = random_star_polygon(rng.randint(8, 60), rng.randint(3, 8), rng)
        D = diameter_bound(poly)
        for tau in sorted({1, 2, max(1, D // 3), D}):
            tail = precompute_tail(poly, tau)
            for i in range(tau, D + 2):
                assert tail_query(tail, i) == primitive_brute(scale_down(poly, i))

    for _ in range(10):
        poly = random_star_polygon(rng.randint(8, 80), rng.randint(3, 8), rng)
        origin, classes = gcd_classes(poly)
        assert origin == 1
        assert count_lattice(poly) == 1 + sum(classes.values())
        for d, size in classes.items():
            assert size == primitive_brute(scale_down(poly, d))
        assert primitive_count(poly) == classes.get(1, 0)

    elapsed = time.perf_counter() - start
    print(f"invariant suites: {elapsed:.1f}s")
    assert elapsed < 60
