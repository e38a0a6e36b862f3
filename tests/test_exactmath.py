import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice.exactmath import (
    _floor_sum_ap,
    _iroot,
    _iroot_round,
    _mobius,
    floor_sum,
    format_fraction,
    parse_fraction,
)

from _oracles import best_approximation_in, brute_floor_sum, mertens_naive, mertens_sieve, simplest_scan


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,num,den",
        [
            ("1/2", 1, 2),
            ("-3/4", -3, 4),
            ("+7/2", 7, 2),
            ("0/5", 0, 1),
            ("6/4", 3, 2),
            ("5", 5, 1),
            ("-5", -5, 1),
            ("0", 0, 1),
            ("123456789123456789/2", 123456789123456789, 2),
        ],
    )
    def test_valid(self, text, num, den):
        f = parse_fraction(text)
        assert (f.numerator, f.denominator) == (num, den)

    @pytest.mark.parametrize(
        "text",
        [
            *("", "0.5", "1e3", "1/0", "1/-2", " 1/2", "1/2 ", "1 / 2", "a/b", "1//2", "/2", "1/", "nan", "½"),
            *("１/２", "1/２", "١/2", "1_0/2", "1/0_2"),  # non-ASCII digits, underscores
        ],
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)

    @pytest.mark.parametrize(
        "text",
        ["9" * 4301, "-" + "9" * 4301, "1/" + "9" * 4301, "7" * 5000 + "/3", "0" * 4301],
        ids=["integer", "negative", "denominator", "numerator", "zeros"],
    )
    def test_refuses_numbers_above_digit_limit(self, text):
        with pytest.raises(ValueError, match="DIGITS_MAX = 4300") as info:
            parse_fraction(text)
        assert "set_int_max_str_digits" not in str(info.value)

    def test_digit_limit_is_inclusive(self):
        assert parse_fraction("-" + "9" * 4300 + "/" + "0" * 4299 + "3") == Fraction(-(10**4300 - 1), 3)

    def test_format_always_shows_denominator(self):
        assert format_fraction(Fraction(1, 2)) == "1/2"
        assert format_fraction(Fraction(3)) == "3/1"
        assert format_fraction(Fraction(0)) == "0/1"
        assert format_fraction(Fraction(-2, 6)) == "-1/3"

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_round_trip(self, p, q):
        f = Fraction(p, q)
        assert parse_fraction(format_fraction(f)) == f

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
    def test_normalized(self, p, q):
        f = Fraction(p, q)
        assert gcd(abs(f.numerator), f.denominator) == 1
        assert f.denominator >= 1


class TestGcd:
    def test_identities(self):
        assert gcd(0, 7) == 7
        assert gcd(12, 18) == 6
        assert gcd(0, 0) == 0
        for n in (1, 2, 97, 10**12):
            assert gcd(1, n) == 1


class TestFloorSum:
    def test_empty(self):
        assert floor_sum(0, Fraction(3, 7)) == 0

    def test_integer_slope(self):
        for n in (1, 2, 10, 1000):
            assert floor_sum(n, Fraction(1)) == n * (n + 1) // 2

    def test_known_values(self):
        assert floor_sum(5, Fraction(1, 2)) == 6
        assert floor_sum(4, Fraction(2, 3)) == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            floor_sum(5, Fraction(-1, 2))
        with pytest.raises(ValueError):
            floor_sum(-1, Fraction(1, 2))

    def test_matches_brute_small_grid(self):
        rng = random.Random(2024)
        for _ in range(60):
            x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
            for n in (0, 1, 2, 3, 17, rng.randint(4, 400)):
                assert floor_sum(n, x) == brute_floor_sum(n, x)

    def test_huge_denominator(self):
        # denominators far beyond n, as a bisection over rank produces
        x = Fraction(3 * 10**40 + 7, 9 * 10**40)
        assert floor_sum(100, x) == brute_floor_sum(100, x)
        assert floor_sum(1, Fraction(10**50 - 1, 10**50)) == 0

    def test_large_x(self):
        x = Fraction(10**9 + 7, 3)
        assert floor_sum(50, x) == brute_floor_sum(50, x)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 500),
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
    )
    def test_superadditivity(self, n, x, y):
        lo = floor_sum(n, x) + floor_sum(n, y)
        mid = floor_sum(n, x + y)
        assert lo <= mid <= lo + n


class TestFloorSumAffine:
    # count_lattice passes moduli and coefficients of this size, and of
    # either sign; the count stays small so the loop oracle is cheap
    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(0, 60),
        st.integers(1, 40) | st.integers(1, 10**12),
        st.integers(-120, 120) | st.integers(-(10**15), 10**15),
        st.integers(-120, 120) | st.integers(-(10**15), 10**15),
    )
    def test_matches_loop(self, count, m, a, b):
        want = sum((a * i + b) // m for i in range(count))
        assert _floor_sum_ap(count, m, a, b) == want


class TestNestedFloor:
    def test_identity_small(self):
        for n in range(1, 61):
            for d1 in range(1, 61):
                q = n // d1
                for d2 in range(1, 61):
                    assert q // d2 == n // (d1 * d2)


class TestBestApproximation:
    def test_known_values(self):
        assert best_approximation_in(Fraction(7, 16), Fraction(9, 16), 4) == Fraction(1, 2)
        assert best_approximation_in(Fraction(5, 16), Fraction(3, 8), 5) == Fraction(1, 3)
        assert best_approximation_in(Fraction(0), Fraction(1), 5) == Fraction(1)

    def test_recovers_member_from_tight_bracket(self):
        for x in (Fraction(3, 7), Fraction(1, 5), Fraction(4, 5), Fraction(1)):
            eps = Fraction(1, 2 * 7**2)
            assert best_approximation_in(x - eps, x, 7) == x

    def test_lower_bound_excluded(self):
        # lo itself is a valid member but the interval is open at lo
        got = best_approximation_in(Fraction(1, 2), Fraction(2, 3), 6)
        assert got != Fraction(1, 2)
        assert Fraction(1, 2) < got <= Fraction(2, 3)

    def test_no_member_raises(self):
        with pytest.raises(ValueError):
            best_approximation_in(Fraction(1, 3), Fraction(2, 5), 2)
        with pytest.raises(ValueError):
            best_approximation_in(Fraction(1, 2), Fraction(1, 2), 10)

    def test_rejects_bad_qmax(self):
        with pytest.raises(ValueError):
            best_approximation_in(Fraction(0), Fraction(1), 0)

    def test_matches_scan(self):
        rng = random.Random(5150)
        checked = 0
        for _ in range(400):
            lo = Fraction(rng.randint(0, 300), rng.randint(1, 300))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 300))
            qmax = rng.randint(1, 40)
            want = simplest_scan(lo, hi, qmax)
            if want is None:
                with pytest.raises(ValueError):
                    best_approximation_in(lo, hi, qmax)
            else:
                assert best_approximation_in(lo, hi, qmax) == want
                checked += 1
        assert checked > 100


class TestMobius:
    @pytest.mark.parametrize("k", [0, 1, 2, 4, 9, 30, 1000])
    def test_matches_trial_division(self, k):
        # k = 0 is the empty sieve primitive_count takes at tau = 1
        M = mertens_naive(k)
        assert list(_mobius(k)) == [0] + [M[v] - M[v - 1] for v in range(1, k + 1)]

    def test_every_k_to_2000_and_at_10_to_5(self):
        # the primes above k/2 are set apart from the rest, so both parities
        # of k and the k = 0, 1, 2 ends are covered; k = 9 * 1009 - 1 puts the
        # prime 1009 in the cofactor pass (cofactor 8) and 9 * 1009 + 0, 1 leave it out
        M = mertens_naive(10**5)
        mu = [0] + [M[v] - M[v - 1] for v in range(1, 10**5 + 1)]
        for k in [*range(2001), *range(9 * 1009 - 1, 9 * 1009 + 2), 10**5]:
            assert list(_mobius(k)) == mu[: k + 1], k

    def test_a_million_against_the_sieve_oracle(self):
        # p = 111,119 is the least prime above 10^6 / 9: the cofactor split on both sides of it
        M = mertens_sieve(9 * 111_119 + 1)
        for k in (9 * 111_119 - 1, 9 * 111_119, 9 * 111_119 + 1):
            assert list(accumulate(_mobius(k))) == M[: k + 1], k

    def test_the_two_mertens_oracles_agree(self):
        # trial division against the least-prime sieve the larger table tests read
        M = mertens_naive(10**5)
        assert mertens_sieve(10**5) == M
        assert [mertens_sieve(k) for k in range(30)] == [M[: k + 1] for k in range(30)]


class TestIntegerRoots:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**30), st.integers(1, 9))
    def test_iroot_floor(self, m, e):
        r = _iroot(m, e)
        assert r**e <= m < (r + 1) ** e

    def test_iroot_at_perfect_powers(self):
        # r^e - 1, r^e and r^e + 1, where a Newton step that stops one off
        # would show; random draws rarely land on them
        rng = random.Random(16)
        rs = list(range(1, 300)) + [10**j + d for j in range(3, 21) for d in (-1, 0, 1)]
        rs += [rng.randint(1, 10**20) for _ in range(300)]
        for e in range(1, 10):
            for r in rs:
                assert _iroot(r**e - 1, e) == r - 1, (r, e)
                assert _iroot(r**e, e) == r, (r, e)
                assert _iroot(r**e + 1, e) == (r + 1 if e == 1 else r), (r, e)

    def test_iroot_round_exact_halves(self):
        # 2.5^2 = 6.25; round(sqrt(6)) = 2, round(sqrt(7)) = 3
        assert _iroot_round(6, 2) == 2
        assert _iroot_round(7, 2) == 3
        assert _iroot_round(8, 3) == 2
        assert _iroot_round(26, 3) == 3
        assert _iroot_round(0, 5) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**12), st.integers(1, 6))
    def test_iroot_round_nearest(self, m, e):
        # the result is the nearest integer e-th root, halves rounded up:
        # (r - 1/2)^e <= m < (r + 1/2)^e, scaled by 2^e to stay integral
        r = _iroot_round(m, e)
        if r > 0:
            assert (2 * r - 1) ** e <= (1 << e) * m
        assert (1 << e) * m < (2 * r + 1) ** e
