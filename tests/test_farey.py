import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareylattice import farey
from fareylattice.bench import golden_x
from fareylattice.farey import (
    BRUTE_LIMIT,
    N_MAX,
    PASS_DIV,
    WALK_MAX,
    _check_query,
    _mertens_table,
    _neighbours,
    _walk,
    improved_cutoff,
    rank_brute,
    rank_improved,
    rank_pawlewicz,
    sieved_prefix,
    statistic,
    totient_sum,
)

from _oracles import (
    divisor_sieve_prefix,
    farey_members,
    farey_pairs,
    mertens_naive,
    mertens_sieve,
    statistic_bisect,
    totient_sieve,
    totient_summatory,
)

ALL_TIERS = (rank_brute, rank_pawlewicz, rank_improved)


@pytest.fixture
def fresh_statistic_table():
    """An empty statistic table cache, so no earlier test's table is seen."""
    farey._statistic_table.cache_clear()
    yield
    farey._statistic_table.cache_clear()


@pytest.fixture
def rank_passes(monkeypatch):
    """The x of every _rank_pass call."""
    calls = []
    rank_pass = farey._rank_pass

    def counting(x, table):
        calls.append(x)
        return rank_pass(x, table)

    monkeypatch.setattr(farey, "_rank_pass", counting)
    return calls


class TestRankBrute:
    def test_zero_is_always_first(self):
        for n in (1, 2, 17):
            assert rank_brute(Fraction(0), n) == 1

    def test_half_in_f4(self):
        assert rank_brute(Fraction(1, 2), 4) == 4

    def test_full_f5(self):
        assert rank_brute(Fraction(1), 5) == 11

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            rank_brute(Fraction(1, 2), BRUTE_LIMIT + 1)

    def test_n_limit(self):
        assert _check_query(Fraction(1, 2), N_MAX) == Fraction(1, 2)
        for rank in ALL_TIERS:
            with pytest.raises(ValueError, match="N_MAX"):
                rank(Fraction(1, 2), N_MAX + 1)
        with pytest.raises(ValueError, match="N_MAX"):
            statistic(2, N_MAX + 1)

    def test_rejects_out_of_range_x(self):
        with pytest.raises(ValueError):
            rank_brute(Fraction(3, 2), 5)
        with pytest.raises(ValueError):
            rank_brute(Fraction(-1, 2), 5)
        with pytest.raises(ValueError):
            rank_brute(Fraction(1, 2), 0)


class TestFastTiers:
    def test_examples(self):
        assert rank_pawlewicz(Fraction(1, 2), 4) == 4
        assert rank_pawlewicz(Fraction(1), 10) == 33
        assert rank_pawlewicz(Fraction(0), 10**6) == 1
        assert rank_improved(Fraction(1, 2), 4) == 4
        assert rank_improved(Fraction(1), 100) == 3045
        assert rank_improved(Fraction(1), 1) == 2

    def test_all_members_up_to_40(self):
        members = farey_members(40)
        for n in range(1, 41):
            for position, f in enumerate(farey_members(n), start=1):
                assert rank_pawlewicz(f, n) == position
                assert rank_improved(f, n) == position
            # non-member values pin the inclusive convention from both sides
            for f in members[:: max(1, len(members) // 23)]:
                want = rank_brute(f, n)
                assert rank_pawlewicz(f, n) == want
                assert rank_improved(f, n) == want

    def test_tiers_agree_on_random_queries(self):
        rng = random.Random(777)
        for _ in range(120):
            n = rng.randint(1, 400)
            x = Fraction(rng.randint(0, 4 * n), 4 * n)
            want = rank_brute(x, n)
            assert rank_pawlewicz(x, n) == want
            assert rank_improved(x, n) == want

    def test_fast_tiers_agree_beyond_brute(self):
        rng = random.Random(4242)
        for _ in range(12):
            n = rng.randint(10**4, 10**6)
            x = Fraction(rng.randint(0, 10**6), 10**6)
            assert rank_pawlewicz(x, n) == rank_improved(x, n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_in_x_and_n(self, data):
        n = data.draw(st.integers(1, 200))
        n2 = data.draw(st.integers(n, 220))
        den = data.draw(st.integers(1, 500))
        a = data.draw(st.integers(0, den))
        b = data.draw(st.integers(a, den))
        x, x2 = Fraction(a, den), Fraction(b, den)
        assert rank_improved(x, n) <= rank_improved(x2, n)
        assert rank_improved(x, n) <= rank_improved(x, n2)

    def test_irrational_like_denominator(self):
        # x with a denominator far larger than n, as bisection produces
        x = Fraction(2**61 - 1, 2**62)
        assert rank_pawlewicz(x, 300) == rank_brute(x, 300)
        assert rank_improved(x, 300) == rank_brute(x, 300)


def squarefree(m):
    return all(m % (p * p) for p in range(2, isqrt(m) + 1))


class TestPawlewiczAgainstOracles:
    """rank_pawlewicz against oracles with no Moebius sum in them; rank_improved has one too."""

    def test_every_n_to_300_against_members(self):
        # F_300's members at or below x, by denominator: rank(x, n) counts those <= n
        members = farey_members(300)
        xs = members[:: len(members) // 17] + [Fraction(1), golden_x(), Fraction(2**61 - 1, 2**62)]
        for x in xs:
            dens = sorted(f.denominator for f in members[: bisect_right(members, x)])
            for n in range(1, 301):
                assert rank_pawlewicz(x, n) == bisect_right(dens, n), (n, x)

    def test_where_the_last_quotient_is_not_squarefree(self):
        # n = j^2 - 1 and j^2 give m = n // (isqrt(n) + 1) = j - 1, n = j^2 + j
        # gives m = j; keep the n whose m the Moebius sum skips
        ns = [n for j in range(2, 121) for n in (j * j - 1, j * j, j * j + j) if not squarefree(n // (isqrt(n) + 1))]
        assert {4, 8, 9, 12} <= {n // (isqrt(n) + 1) for n in ns}
        totients = list(accumulate(totient_sieve(ns[-1])))
        for x in (Fraction(1, 3), golden_x(), Fraction(387420489123, 999999999989)):
            prefix = divisor_sieve_prefix(x, ns[-1])
            for n in ns:
                assert rank_pawlewicz(x, n) == prefix[n - 1] + 1, (n, x)
        for n in ns:
            assert rank_pawlewicz(Fraction(1), n) == totients[n] + 1, n

    def test_where_the_abel_split_moves(self):
        # n = d r^2 - 1, d r^2 and d r (r + 1) put v = n // d at r^2 - 1, r^2 and
        # r^2 + r, where r = isqrt(v) and v // (r + 1) step
        ds = [d for d in range(1, 31) if squarefree(d)]
        rs = (*range(1, 26), 40, 64)
        ns = sorted({n for d in ds for r in rs for n in (d * r * r - 1, d * r * r, d * r * (r + 1)) if n})
        for x in (Fraction(1), Fraction(1, 2), golden_x(), Fraction(387420489123, 999999999989)):
            prefix = divisor_sieve_prefix(x, 10**4)
            for n in ns:
                want = prefix[n - 1] + 1 if n <= 10**4 else rank_improved(x, n)
                assert rank_pawlewicz(x, n) == want, (n, x)

    @pytest.mark.parametrize("gap", [1, 4, 10**5])
    def test_any_split_between_per_d_and_per_e(self, monkeypatch, gap):
        # FLOOR_GAP = 1 puts V = isqrt(n): every d goes one by one with a floor sum;
        # 10^5 puts V >= n: every d goes per e, F from the running sum alone
        monkeypatch.setattr(farey, "FLOOR_GAP", gap)
        ns = [*range(1, 120), 1000, 4095, 4096, 4097, 9999, 10**4]
        for x in (Fraction(1), Fraction(1, 2), Fraction(1, 10**5), golden_x(), Fraction(387420489123, 999999999989)):
            prefix = divisor_sieve_prefix(x, 10**4)
            for n in ns:
                assert rank_pawlewicz(x, n) == prefix[n - 1] + 1, (n, x)


class TestSievedPrefix:
    def test_totient_prefix(self):
        assert sieved_prefix(Fraction(1), 5) == [1, 2, 4, 6, 10]

    def test_zero_x(self):
        assert sieved_prefix(Fraction(0), 7) == [0] * 7

    def test_matches_rank_oracle(self):
        for x in (Fraction(1, 2), Fraction(2, 3), Fraction(1, 7), Fraction(1)):
            prefix = sieved_prefix(x, 200)
            for i in (1, 2, 3, 5, 17, 50, 111, 200):
                assert prefix[i - 1] == rank_brute(x, i) - 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3000),
        st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), golden_x()]),
            st.integers(10**11, 10**12 - 1).flatmap(
                lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))
            ),
        ),
    )
    def test_matches_divisor_sieve(self, k, x):
        assert sieved_prefix(x, k) == divisor_sieve_prefix(x, k)

    def test_every_k_below_300(self):
        # every k pins where the slice loop per d stops (isqrt(k)) and the loop per j
        # that adds the larger d, which at x = 1 reaches d > k / 2 through j = 1
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), golden_x(), Fraction(387420489123, 999999999989)):
            want = divisor_sieve_prefix(x, 299)
            for k in range(1, 300):
                assert sieved_prefix(x, k) == want[:k], (k, x)

    def test_pawlewicz_reads_one_sieve_below_isqrt(self, monkeypatch):
        calls = []
        sieve = farey.sieved_prefix

        def recording(x, k):
            calls.append(k)
            return sieve(x, k)

        monkeypatch.setattr(farey, "sieved_prefix", recording)
        for n in (1, 2, 3, 4, 99, 100, 101, 10**6):
            for x in (Fraction(1, 3), golden_x(), Fraction(1)):
                calls.clear()
                rank_pawlewicz(x, n)
                assert calls == [isqrt(n)], (n, x)
                rank_improved(x, n)
                assert calls == [isqrt(n)], (n, x)
        calls.clear()
        assert rank_pawlewicz(Fraction(0), 10**6) == 1 and not calls


class TestImprovedCutoff:
    def test_bounds(self):
        for n in (1, 2, 3, 10, 1000, 10**6, 10**9):
            k = improved_cutoff(n)
            assert 1 <= k <= n

    def test_tiny(self):
        assert improved_cutoff(1) == 1

    def test_growth_order(self):
        # k is a fixed share of n^(2/3): sublinear but unbounded
        assert improved_cutoff(10**6) < 10**5
        assert improved_cutoff(10**6) > 10**3
        assert improved_cutoff(10**9) > improved_cutoff(10**6)

    def test_is_the_floor_cube_root_of_n_squared(self):
        for n in list(range(1, 5000)) + [10**9, 10**10]:
            k = improved_cutoff(n)
            assert k**3 <= n * n < (k + 1) ** 3, n

    def test_never_below_isqrt(self):
        # the quotient sums of rank_improved need every S_w with w <= isqrt(n)
        for n in list(range(1, 5000)) + [10**6, 10**9, 10**12]:
            assert improved_cutoff(n) >= isqrt(n)

    def test_tiers_agree_where_the_cutoff_moves(self):
        # the cutoff steps at perfect cubes and moves on and off isqrt(n), and
        # the sieve of rank_pawlewicz ends at isqrt(n), which steps at squares
        xs = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), golden_x(), Fraction(10**12 - 11, 10**12 - 1))
        clamped = {n: improved_cutoff(n) == isqrt(n) for n in range(1, 5001)}
        ns = [n for n in range(1, 60) if improved_cutoff(n) >= n]
        ns += [m**3 + e for m in (2, 3, 7, 15, 16, 17, 31, 64) for e in (-1, 0, 1)]
        ns += [m for n in range(2, 5001) if clamped[n] != clamped[n - 1] for m in (n - 1, n)]
        ns += [j * j + e for j in range(1, 201) for e in (-1, 0, 1) if j * j + e >= 1]
        for n in ns:
            for x in xs:
                assert rank_improved(x, n) == rank_pawlewicz(x, n), (n, x)


class TestMertensTable:
    M = mertens_naive(PASS_DIV * 42**2)

    def check(self, n, M=M):
        # coef[w - 1] = M(n // w) - M(s) for w <= U, read as the consecutive
        # differences of pre, and the d <= s as n // d + 1 by increasing
        # value with the sign of mu(d), split here into two lists by that sign
        vs, signs, pre, _ = _mertens_table(n)
        plus, minus = ([v for v, sign in zip(vs, signs) if sign == want][::-1] for want in (1, -1))
        coef = list(map(sub, pre[1:], pre[:-1]))
        s = isqrt(n // PASS_DIV)
        assert list(coef) == [M[n // w] - M[s] for w in range(1, n // (s + 1) + 1)], n
        for sign, got in ((1, plus), (-1, minus)):
            assert got == [n // d + 1 for d in range(1, s + 1) if M[d] - M[d - 1] == sign], n

    def test_every_n_to_2000(self):
        for n in range(1, 2001):
            self.check(n)

    def test_seeded_n_to_a_million(self):
        # runs of equal n // j fill W above isqrt(n); near j = n^(2/3) they are
        # about n^(1/3) long, up to 100 entries here
        M = mertens_sieve(10**6)
        rng = random.Random(21)
        for n in [10**6, *(rng.randint(10**5, 10**6) for _ in range(19))]:
            self.check(n, M)

    def test_where_the_split_and_cutoff_move(self):
        # s steps at n = PASS_DIV * j^2 (and is 0 below PASS_DIV, where U = n);
        # the cutoff floor(n^(2/3)) meets n at n = 1 and isqrt(n) at n = 2, 4, 5
        ns = [PASS_DIV * j * j + e for j in range(1, 42) for e in (-1, 0, 1)]
        clamp = {n: (improved_cutoff(n) == n, improved_cutoff(n) == isqrt(n)) for n in range(1, 5001)}
        ns += [m for n in range(2, 5001) if clamp[n] != clamp[n - 1] for m in (n - 1, n)]
        assert any(improved_cutoff(n) == n for n in ns) and any(improved_cutoff(n) == isqrt(n) for n in ns)
        for n in ns:
            self.check(n)

    def test_where_the_quotient_below_isqrt_flips(self):
        # n // (isqrt(n) + 1) is isqrt(n) at n = t^2 - 1 and t^2 + t but
        # isqrt(n) - 1 at t^2 and t^2 + t - 1; W[j] = M(n // j) is read from
        # M(0..isqrt(n)) exactly for the j above that quotient
        for t in range(1, 210):
            for n in (t * t - 1, t * t, t * (t + 1) - 1, t * (t + 1)):
                if n >= 1:
                    self.check(n)

    def test_size_is_one_plus_the_totient_sum(self):
        # |F_n| is kept in the table in closed form, with no pass
        totients = list(accumulate(totient_sieve(1999)))
        for n in range(1, 2000):
            assert _mertens_table(n)[3] == 1 + totients[n], n
        assert [totient_summatory(n) for n in (1, 2, 1000, 1999)] == [1 + totients[n] for n in (1, 2, 1000, 1999)]
        assert _mertens_table(10**7 + 19)[3] == totient_summatory(10**7 + 19)

    def test_rank_is_symmetric_about_one_half(self):
        # a pass runs at x <= 1/2 and takes 1 - x as |F_n| + 1 - rank(x),
        # so check the identity at every member, and at both halves
        for n in (1, 2, 5, 24, 25, 26, 60):
            members = farey_members(n)
            for position, f in enumerate(members, start=1):
                assert rank_improved(f, n) == position, (n, f)
                assert rank_improved(f, n) + rank_improved(1 - f, n) == len(members) + 1, (n, f)

    def test_rank_matches_pawlewicz_at_the_turns_of_the_pass(self):
        # at 1/2 and a hair either side of it, below 1/U where the Beatty
        # sum is empty (J = 0) and at 1/U where it has one term, and where
        # the member just below x is 1/2 itself
        eps = Fraction(1, 10**15)
        half = Fraction(1, 2)
        for n in (2, 3, 24, 25, 26, 99, 1000, 4097, 10**5 + 3, 2 * 10**6 + 1):
            u = n // (isqrt(n // PASS_DIV) + 1)
            a, b, c, d = _neighbours(half, n)
            xs = [half, half - eps, half + eps, Fraction(1, u + 1), Fraction(1, u), Fraction(1, u) - eps]
            xs += [(half + Fraction(c, d)) / 2, Fraction(c, d) - eps, 1 - Fraction(1, u + 1)]
            for x in xs:
                assert rank_improved(x, n) == rank_pawlewicz(x, n), (n, x)

    def test_rank_where_the_first_gap_changes(self):
        # s steps at n = PASS_DIV * j^2, where the pass gains the d = s whose
        # v = n // s + 1 its first floor sum runs to; at x of 12-digit
        # denominators, at 1/U where the Beatty sum gains its first term, and
        # just below it, against the divisor-list oracle up to 10^4
        rng = random.Random(21)
        xs = [golden_x(), Fraction(1), Fraction(3, 7)]
        xs += [Fraction(rng.randrange(den + 1), den) for den in (rng.randrange(10**11, 10**12) for _ in range(3))]
        prefixes = [divisor_sieve_prefix(x, 10**4 + 1) for x in xs]
        eps = Fraction(1, 10**15)
        for j in (*range(1, 21), 31, 64, 200):
            for n in (PASS_DIV * j * j - 1, PASS_DIV * j * j, PASS_DIV * j * j + 1):
                u = n // (isqrt(n // PASS_DIV) + 1)
                for x, prefix in zip(xs, prefixes):
                    want = prefix[n - 1] + 1 if n <= 10**4 + 1 else rank_pawlewicz(x, n)
                    assert rank_improved(x, n) == want, (n, x)
                for x in (Fraction(1, u), Fraction(1, u) - eps, Fraction(1, u + 1)):
                    assert rank_improved(x, n) == rank_pawlewicz(x, n), (n, x)

    def test_rank_matches_pawlewicz_at_large_n(self):
        rng = random.Random(17)
        den = rng.randrange(10**11, 10**12)
        xs = [golden_x(), Fraction(rng.randrange(den + 1), den), Fraction(1)]
        for n in (10**7 + 19, 3 * 10**7 + 1, 10**8 - 1):
            for x in xs:
                assert rank_improved(x, n) == rank_pawlewicz(x, n), (n, x)

    def test_rank_matches_pawlewicz_at_the_ends_and_long_denominators(self):
        rng = random.Random(2024)
        ns = [1, 2, 3, 24, 25, 26, 99, 1000, 4097] + [rng.randint(10**3, 10**6) for _ in range(8)]
        for n in ns:
            xs = [Fraction(0), Fraction(1)]
            for den in (rng.randrange(10**11, 10**12) for _ in range(3)):
                xs.append(Fraction(rng.randrange(den + 1), den))
            for x in xs:
                assert rank_improved(x, n) == rank_pawlewicz(x, n), (n, x)

    def test_long_denominators_next_to_members(self):
        # a pass takes an x of denominator above n as the member of F_n just
        # below it: a hair below a member ranks one lower than the member,
        # a hair above the same, and below 1/n only 0/1 counts
        eps = Fraction(1, 10**15)
        for n in (1, 2, 5, 24, 25, 26, 60):
            for position, f in enumerate(farey_members(n), start=1):
                if f:
                    assert rank_improved(f - eps, n) == position - 1, (n, f)
                if f < 1:
                    assert rank_improved(f + eps, n) == position, (n, f)
        rng = random.Random(5)
        for n in (10**5 + 3, 2 * 10**6 + 1):
            xs = [Fraction(1, n) - eps, Fraction(1, n + 1), Fraction(1, n), 1 - Fraction(1, n) + eps]
            for b in (rng.randrange(n // 2, n + 1) for _ in range(4)):
                a = next(a for a in iter(lambda: rng.randrange(1, b), None) if gcd(a, b) == 1)
                xs += [Fraction(a, b) - eps, Fraction(a, b) + eps]
            for x in xs:
                assert rank_improved(x, n) == rank_pawlewicz(x, n), (n, x)

    def test_statistic_builds_one_table_per_n(self, monkeypatch, fresh_statistic_table):
        # the table of the last n is kept: a repeat n builds nothing, a new n
        # replaces it, and going back to an older n builds again
        built = []

        def counting(n):
            built.append(n)
            return _mertens_table(n)

        monkeypatch.setattr(farey, "_mertens_table", counting)
        for n, k in ((100, 1), (100, 3045), (7, 10), (7, 1), (10**5, 1234567), (10**5, 7), (100, 5)):
            assert rank_pawlewicz(statistic(k, n), n) == k
        assert built == [100, 7, 10**5, 100]

    def test_statistic_leaves_its_kept_table_unchanged(self, rank_passes, fresh_statistic_table):
        # every query at n reads one shared table, whose pre is a plain list: passes
        # at x <= 1/2 and at x > 1/2 (read through the symmetry of F_n), k next to
        # both ends and 40 seeded k leave it equal to a fresh build
        n = 10**5
        size = rank_improved(Fraction(1), n)
        rng = random.Random(22)
        ks = [1, 2, WALK_MAX + 2, size // 2 - 1, size // 2 + 2, size - WALK_MAX - 1, size - 1, size]
        for k in ks + [rng.randint(1, size) for _ in range(40)]:
            assert rank_pawlewicz(statistic(k, n), n) == k
        assert min(rank_passes) <= Fraction(1, 2) < max(rank_passes)
        assert farey._statistic_table.cache_info().misses == 1
        assert farey._statistic_table(n) == _mertens_table(n)  # vs, signs, pre and size

    def test_table_peak_memory_at_1e8(self):
        # tracemalloc's peak over one _mertens_table(10**8), on a 2-CPU Xeon with
        # Python 3.11.7: 2,897,957 bytes (2.76 MiB) when pre was an array('q') built
        # after del W[U + 1:], 2.44 MiB with pre a list built from a copy of W's first
        # U + 1 entries, after mu and the lists read only by the block recursion are
        # freed. Cutting W with del, or keeping those lists alive, reads above the bound.
        tracemalloc.start()
        try:
            _mertens_table(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_897_957, peak / 2**20


class TestTotientSum:
    def test_small_values(self):
        assert totient_sum(1) == 1
        assert totient_sum(10) == 32
        assert totient_sum(100) == 3044

    def test_against_sieve(self):
        phi = totient_sieve(500)
        acc = 0
        for n in range(1, 501):
            acc += phi[n]
            if n % 53 == 0 or n < 20:
                assert totient_sum(n) == acc

    def test_size_identity(self):
        for n in (1, 7, 100, 1234):
            assert rank_improved(Fraction(1), n) == 1 + totient_sum(n)


def brute_neighbours(members, x):
    """The consecutive pair around x in an ascending member list."""
    i = bisect_right(members, x)
    return members[i - 1], members[i]


def is_neighbour_pair(a, b, c, d, n):
    """a/b < c/d are consecutive in F_n exactly when bc - ad = 1 and b + d > n."""
    return 1 <= b <= n and 1 <= d <= n and b * c - a * d == 1 and b + d > n


class TestNeighbours:
    def test_matches_brute_to_25(self):
        for n in range(1, 26):
            members = farey_members(n) + [Fraction(n + 1, n)]
            for den in range(1, 2 * n + 1):
                for num in range(den + 1):
                    x = Fraction(num, den)
                    a, b, c, d = _neighbours(x, n)
                    assert (Fraction(a, b), Fraction(c, d)) == brute_neighbours(members, x)
                    assert is_neighbour_pair(a, b, c, d, n)

    def test_zero_and_members(self):
        for n in (1, 2, 7, 10**6):
            assert _neighbours(Fraction(0), n) == (0, 1, 1, n)
            assert _neighbours(Fraction(1), n) == (1, 1, n + 1, n)
        for a, b in farey_pairs(30):
            assert _neighbours(Fraction(a, b), 30)[:2] == (a, b)

    def test_twelve_digit_denominators(self):
        rng = random.Random(1212)
        members = farey_members(1000)
        for _ in range(200):
            den = rng.randrange(10**11, 10**12)
            x = Fraction(rng.randrange(den + 1), den)
            a, b, c, d = _neighbours(x, 1000)
            assert (Fraction(a, b), Fraction(c, d)) == brute_neighbours(members, x)
            for n in (10**6, 10**9, N_MAX):
                a, b, c, d = _neighbours(x, n)
                assert is_neighbour_pair(a, b, c, d, n)
                assert Fraction(a, b) <= x < Fraction(c, d)


class TestWalk:
    def test_steps_through_every_member(self):
        for n in (1, 2, 9, 40):
            pairs = farey_pairs(n)
            first = _neighbours(Fraction(0), n)
            for steps, (a, b) in enumerate(pairs):
                assert _walk(*first, n, steps)[:2] == (a, b)
            last = _neighbours(Fraction(1), n)
            for steps, (a, b) in enumerate(reversed(pairs)):
                assert _walk(*last, n, -steps)[:2] == (a, b)

    def test_forward_then_back_returns(self):
        # the recurrence runs on past 0/1 and 1/1 into F_n shifted by
        # integers, so a walk may leave [0, 1] and come back
        rng = random.Random(77)
        for n in (1, 3, 50, 10**5, 10**9):
            starts = [_neighbours(Fraction(0), n), _neighbours(Fraction(1), n)]
            starts += [_neighbours(Fraction(rng.randrange(10**12 + 1), 10**12), n) for _ in range(5)]
            for start in starts:
                for steps in (1, 2, 1000):
                    assert _walk(*_walk(*start, n, steps), n, -steps) == start
                    assert _walk(*_walk(*start, n, -steps), n, steps) == start
                    assert is_neighbour_pair(*_walk(*start, n, steps), n)


class TestStatistic:
    def test_first_is_zero(self):
        for n in (1, 5, 100):
            assert statistic(1, n) == Fraction(0)

    def test_examples(self):
        assert statistic(4, 4) == Fraction(1, 2)
        assert statistic(11, 5) == Fraction(1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            statistic(0, 5)
        with pytest.raises(ValueError):
            statistic(12, 5)

    def test_enumerates_f7(self):
        members = farey_members(7)
        got = [statistic(k, 7) for k in range(1, len(members) + 1)]
        assert got == members

    def test_round_trip_to_30(self):
        for n in range(1, 31):
            for k, f in enumerate(farey_members(n), start=1):
                assert rank_improved(f, n) == k
                assert statistic(k, n) == f

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 10**9))
    def test_matches_bisection(self, n, u):
        k = 1 + u % rank_improved(Fraction(1), n)
        assert statistic(k, n) == statistic_bisect(k, n)

    @pytest.mark.parametrize("walk_max", [1, 3, WALK_MAX])
    def test_every_k_to_60(self, monkeypatch, walk_max):
        monkeypatch.setattr(farey, "WALK_MAX", walk_max)
        for n in range(1, 61):
            members = farey_members(n)
            assert [statistic(k, n) for k in range(1, len(members) + 1)] == members

    @pytest.mark.parametrize("walk_max", [1, WALK_MAX])
    def test_adversarial_k_round_trip(self, monkeypatch, rank_passes, walk_max):
        # k next to the members with the widest gaps around them, and next to
        # the ends; walk_max = 1 drives the interpolation and midpoint probes,
        # and the midpoint rule keeps the probes under twice bisection's 35
        # (without it one of these k took 15386 calls). With the table of n
        # built, every pass is a probe
        monkeypatch.setattr(farey, "WALK_MAX", walk_max)
        n = 10**5
        size = rank_improved(Fraction(1), n)
        ks = set()
        for f in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, n), Fraction(n - 1, n)):
            r = rank_improved(f, n)
            ks.update(min(max(r + dk, 1), size) for dk in (-1000, -1, 0, 1, 1000))
        statistic(1, n)
        for k in sorted(ks):
            rank_passes.clear()
            got = statistic(k, n)
            assert got.denominator <= n
            assert rank_pawlewicz(got, n) == k
            assert len(rank_passes) <= 2 * (1 + (n * n).bit_length()) - 1

    @pytest.mark.parametrize("walk_max", [3, WALK_MAX])
    def test_interleaved_n_match_members(self, monkeypatch, fresh_statistic_table, walk_max):
        # the first k at each n builds its table and the rest read it back;
        # 97 and 100 come back after another n, so they are built twice.
        # Every k of the small n, a stride through n = 1000
        monkeypatch.setattr(farey, "WALK_MAX", walk_max)
        members = {n: farey_members(n) for n in (97, 100, 1000)}
        for n in (97, 100, 97, 1000, 100):
            ks = range(1, len(members[n]) + 1, 1 if n < 1000 else 997)
            assert [statistic(k, n) for k in ks] == [members[n][k - 1] for k in ks], n
        for k in (1, 2, len(members[1000]) - 1, len(members[1000])):
            assert statistic(k, 1000) == members[1000][k - 1]

    def test_out_of_range_same_on_hit_and_miss(self, fresh_statistic_table):
        size = len(farey_members(100))
        for k in (0, size + 1, -5):
            farey._statistic_table.cache_clear()
            messages = []
            for _ in range(2):  # a miss, then a hit
                with pytest.raises(ValueError) as err:
                    statistic(k, 100)
                messages.append(str(err.value))
            assert messages == [f"k must lie in [1, {size}] for n = 100"] * 2
            assert farey._statistic_table.cache_info()[:2] == (1, 1)  # hits, misses

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_snap_stays_near_the_interpolated_point(self, rank_passes, n):
        # the first probe is (k - 1) / (|F_n| - 1), or the fraction of
        # denominator at most n/8 + 1 nearest it when that lies within
        # WALK_MAX / (64 |F_n|) of it; k next to 1/3, 1/2 and 2/5 and 300 seeded k
        size = rank_improved(Fraction(1), n)
        statistic(1, n)
        rng = random.Random(5)
        ks = [rank_improved(f, n) + dk for f in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)) for dk in (-WALK_MAX - 10**4, WALK_MAX + 10**4)]
        for k in ks + [rng.randint(1, size) for _ in range(300)]:
            rank_passes.clear()
            got = statistic(k, n)
            assert rank_pawlewicz(got, n) == k
            if rank_passes:
                x = Fraction(k - 1, size - 1)
                assert rank_passes[0] == x or abs(rank_passes[0] - x) * size <= WALK_MAX // 64, k

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_two_rank_calls(self, rank_passes, n):
        # one interpolated probe for each of 50 seeded k: once the table,
        # which holds |F_n|, is built, one pass per query, measured, and the
        # bound the counter enforces
        size = rank_improved(Fraction(1), n)
        statistic(1, n)
        rng = random.Random(4242)
        for _ in range(50):
            k = rng.randint(1, size)
            rank_passes.clear()
            got = statistic(k, n)
            assert len(rank_passes) <= 1
            assert rank_pawlewicz(got, n) == k
