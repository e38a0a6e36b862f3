"""Farey sequence rank and order-statistic queries in sublinear time.

rank(x, n) counts members of F_n (reduced fractions in [0, 1] with
denominator <= n) that are <= x, counting both endpoints, so
rank(1/1, n) = |F_n|. Writing S_n(x) for the members with numerator >= 1,
the unreduced count sum_{b<=n} floor(b*x) groups by gcd into

    S_n(x) = sum_{b<=n} floor(b*x) - sum_{d>=2} S_{floor(n/d)}(x)

and rank = S_n(x) + 1 puts 0/1 back. Three evaluators share that identity:
a quadratic reference loop, block recursion over the distinct quotients
floor(n/d), and a Moebius sieve that fills the dense prefix S_1..S_k before
C-level sums over the remaining quotients finish the recursion.

The order statistic narrows an exact rank bracket by interpolated probes,
then walks the next-term recurrence of F_n to the k-th member.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from math import gcd, isqrt
from operator import add, floordiv, mul, neg, sub

from .exactmath import _floor_sum_ap, _iroot_round

__all__ = [
    "rank_brute",
    "rank_pawlewicz",
    "rank_improved",
    "statistic",
    "totient_sum",
    "sieved_prefix",
    "improved_cutoff",
]

BRUTE_LIMIT = 10_000
# Largest n any query accepts. rank_improved's sieve holds about
# 0.27 * n^(2/3) Python ints: measured on a 2-CPU Xeon with Python 3.11, n =
# 10^9 takes 1.6 s at 39 MiB peak RSS and n = 10^10 takes 8.1 s at 130 MiB,
# so by the n^(2/3) growth 10^12 would need about 2.5 GB.
N_MAX = 10**10
# Cost per element in ns of the two halves of rank_improved, measured on a
# 2-CPU Xeon with Python 3.11 for k of 10^4..2*10^5: the dense-prefix sieve
# takes about SIEVE_NS * k and the quotient sums about BLOCK_NS * n / sqrt(k),
# so their sum is least at k = (BLOCK_NS * n / (2 * SIEVE_NS))^(2/3).
SIEVE_NS = 2000
BLOCK_NS = 560
# Longest gap between quotients that rank_pawlewicz sums term by term: one
# floor_sum call costs 20..400 terms, and gaps of 32..256 time the same.
FLOOR_GAP = 64
# statistic stops probing once k is this many members from an end of its
# bracket and walks the rest. On the same machine one walk step costs about
# 0.24 us and one rank_improved call 4.3 ms at n = 10^5 (18,000 steps) and
# 16 ms at n = 10^6 (65,000 steps), so from n = 10^5 up the longest walk
# costs less than one more rank call.
WALK_MAX = 2**14


def _check_query(x: Fraction | int, n: int) -> Fraction:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > N_MAX:
        raise ValueError(f"n = {n} is above the limit N_MAX = {N_MAX}")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    return x


def rank_brute(x: Fraction | int, n: int) -> int:
    """Rank by the direct double loop; reference oracle, n <= 10**4 only."""
    x = _check_query(x, n)
    if n > BRUTE_LIMIT:
        raise ValueError(f"rank_brute is an oracle, refusing n > {BRUTE_LIMIT}")
    count = 1  # 0/1
    p, q = x.numerator, x.denominator
    for b in range(1, n + 1):
        for a in range(1, p * b // q + 1):
            if gcd(a, b) == 1:
                count += 1
    return count


def _mobius(k: int) -> list:
    """mu(i) at index i for 1 <= i <= k, from a prime sieve of slice assignments."""
    r = isqrt(k)
    prime = bytearray(2) + b"\1" * (k - 1)
    for p in range(2, r + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, k + 1, p)))
    mu = [1] * (k + 1)
    for p in compress(range(k + 1), prime):
        mu[p::p] = map(neg, mu[p::p])
        if p <= r:
            mu[p * p :: p * p] = bytes(len(range(p * p, k + 1, p * p)))
    return mu


def sieved_prefix(x: Fraction | int, k: int) -> list:
    """The vector S_1(x)..S_k(x) from one Moebius sieve.

    Inverting the identity in the module docstring gives
    S_i - S_{i-1} = sum_{d | i} mu(d) * floor((i/d) * x), so the increments
    start as f[j] = floor(j*x) and each squarefree d >= 2 adds mu(d) * f[j]
    to position d*j with one slice assignment (Deleglise and Rivat, Exp.
    Math. 5, 1996). O(k lg k) element operations, all of them C-level.
    """
    x = _check_query(x, k)
    p, q = x.numerator, x.denominator
    c = [j * p // q for j in range(k + 1)]
    f = c[: k // 2 + 1]
    mu = _mobius(k)
    for d in compress(range(2, k + 1), islice(mu, 2, None)):
        c[d::d] = map(add if mu[d] > 0 else sub, c[d::d], islice(f, 1, k // d + 1))
    del f, mu
    return list(accumulate(islice(c, 1, None)))


def _dense_sum(v: int, e: int, dense: list) -> int:
    """sum_{e'=e}^{v} S_{v // e'}, one dense read per run of equal quotients."""
    total = 0
    while e <= v:
        w = v // e
        e_hi = v // w
        total += (e_hi - e + 1) * dense[w]
        e = e_hi + 1
    return total


def rank_pawlewicz(x: Fraction | int, n: int) -> int:
    """Rank via block recursion over the distinct quotients, O(n^(3/4)).

    S_v(x) is filled bottom up into dense[v] for every v <= k = isqrt(n),
    then into big[d] for the quotients v = n // d > k. Nested floors collapse
    (floor(floor(n/d)/e) = floor(n/(d*e))), so the S_{v//e} above k are
    big[d*e], a stride-d slice, and the rest sit in dense.
    """
    x = _check_query(x, n)
    p, q = x.numerator, x.denominator
    if not p:
        return 1
    k = isqrt(n)
    dense = [0] * (k + 1)
    f = 0  # floor_sum(v, x), kept running
    for v in range(1, k + 1):
        f += v * p // q
        dense[v] = f - _dense_sum(v, 2, dense)
    m = n // (k + 1)
    big = [0] * (m + 1)
    t = k
    for d in range(m, 0, -1):
        v = n // d
        gap = range((t + 1) * p, v * p + 1, p)  # b*p for t < b <= v
        f = _floor_sum_ap(v + 1, q, p, 0) if len(gap) > FLOOR_GAP else f + sum(map(floordiv, gap, repeat(q)))
        t = v
        big[d] = f - sum(big[2 * d :: d]) - _dense_sum(v, v // (k + 1) + 1, dense)
    return (big[1] if m else dense[n]) + 1


def _quotient_sums(x: Fraction, n: int, k: int, dense: list) -> int:
    """S_n(x) from dense[w] = S_w(x) for all w <= k, where k >= isqrt(n).

    S_v for the quotients v = n // d > k goes to big[d], as in rank_pawlewicz,
    and sum_{e>=2} S_{v//e} splits into three C-level sums: big[d*e] while
    v // e > k; dense[v // e] at the distinct quotients above r = isqrt(v);
    and by Abel summation sum_{w<=r} (v//w) (S_w - S_{w-1}) - (v//(r+1)) S_r
    for the e with v // e = w <= r.
    """
    inc = list(map(sub, islice(dense, 1, isqrt(n) + 1), dense))
    num, den = x.numerator, x.denominator
    m = n // (k + 1)
    big = [0] * (m + 1)
    for d in range(m, 0, -1):
        v = n // d
        r = isqrt(v)
        q = v // (r + 1)
        big[d] = (
            _floor_sum_ap(v + 1, den, num, 0)  # floor_sum(v, x)
            - sum(big[2 * d :: d])
            - sum(map(dense.__getitem__, map(floordiv, repeat(v), range(v // (k + 1) + 1, q + 1))))
            - sum(map(mul, map(floordiv, repeat(v), range(1, r + 1)), inc))
            + q * dense[r]
        )
    return big[1] if m else dense[n]


def improved_cutoff(n: int) -> int:
    """The cost-balancing k, about 0.27 * n^(2/3), clamped to [isqrt(n), n]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _iroot_round(n * n * BLOCK_NS**2 // (4 * SIEVE_NS**2), 3)
    return min(n, max(isqrt(n), k))


def rank_improved(x: Fraction | int, n: int) -> int:
    """Rank with a sieved dense prefix plus block recursion on the rest.

    The prefix of length k = improved_cutoff(n) costs O(k lg k) and the
    quotients above k cost O(n / sqrt(k)) element operations, all in C-level
    slice and map passes: O(n^(2/3) lg n) in total for k ~ n^(2/3).
    """
    x = _check_query(x, n)
    k = improved_cutoff(n)
    dense = sieved_prefix(x, k)
    dense.insert(0, 0)
    return _quotient_sums(x, n, k, dense) + 1


def totient_sum(n: int) -> int:
    """Sum of Euler's totient over 1..n, via the rank of 1/1."""
    return rank_improved(Fraction(1), n) - 1


def _neighbours(x: Fraction, n: int) -> tuple:
    """(a, b, c, d) with a/b <= x < c/d consecutive in F_n, for x >= 0.

    Batched Stern-Brocot descent: from a/b = floor(x), c/d = floor(x) + 1,
    each pass takes as many mediant steps toward x on one side as fit under
    the denominator limit n, so the passes follow the continued fraction of
    x and number O(lg n). c/d may pass 1/1, as (n + 1)/n does for x = 1.
    """
    p, q = x.numerator, x.denominator
    a, b, c, d = p // q, 1, p // q + 1, 1
    while True:
        left, right = p * b - a * q, c * q - p * d  # b*q*(x - a/b) >= 0, d*q*(c/d - x) > 0
        j = min(left // right, (n - b) // d)
        a, b, left = a + j * c, b + j * d, left - j * right
        i = min((right - 1) // left if left else n, (n - d) // b)
        c, d = c + i * a, d + i * b
        if not (i or j):
            return a, b, c, d


def _walk(a: int, b: int, c: int, d: int, n: int, steps: int) -> tuple:
    """Move the consecutive pair a/b < c/d of F_n by steps members, back if negative.

    The member after c/d is (t*c - a)/(t*d - b) with t = (n + b) // d, and
    the one before a/b is (t*a - c)/(t*b - d) with t = (n + d) // b.
    """
    for _ in range(steps):
        t = (n + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
    for _ in range(-steps):
        t = (n + d) // b
        a, b, c, d = t * a - c, t * b - d, a, b
    return a, b, c, d


def statistic(k: int, n: int, rank=None) -> Fraction:
    """The k-th member of F_n in increasing order (k = 1 gives 0/1).

    Keeps the exact bracket rank(lo) <= k <= rank(hi), lo and hi on the grid
    of step 1/(4 n^2), and probes where linear interpolation of the rank
    puts k: F_n has discrepancy at most 1/n (Dress, JTNB 11, 1999), so from
    [0, 1] the first probe k/|F_n| already lands near the answer. A probe
    that does not halve the bracket's member count, or rounds onto an end,
    is followed by a midpoint probe. Once k is within WALK_MAX members of
    an end, the answer is walked to exactly from that end's Farey
    neighbours. The rank hook lets callers with many queries at one n share
    a memo; any callable agreeing with rank_improved is sound, and the
    default is rank_improved itself.
    """
    if rank is None:
        rank = rank_improved
    _check_query(0, n)
    size = rank(Fraction(1), n)
    if not 1 <= k <= size:
        raise ValueError(f"k must lie in [1, {size}] for n = {n}")
    grid = 4 * n * n
    lo, rlo, hi, rhi = 0, 1, grid, size
    halved = True
    while k - rlo > WALK_MAX and rhi - k > WALK_MAX:
        x = lo + (hi - lo) * (k - rlo) // (rhi - rlo)
        if not (halved and lo < x < hi):
            x = (lo + hi) // 2
        r = rank(Fraction(x, grid), n)
        halved = 2 * (r - rlo if r >= k else rhi - r) <= rhi - rlo
        if r >= k:
            hi, rhi = x, r
        else:
            lo, rlo = x, r
    end, steps = (lo, k - rlo) if k - rlo <= rhi - k else (hi, k - rhi)
    a, b, _, _ = _walk(*_neighbours(Fraction(end, grid), n), n, steps)
    return Fraction(a, b)
