"""Farey sequence rank and order-statistic queries in sublinear time.

rank(x, n) counts members of F_n (reduced fractions in [0, 1] with
denominator <= n) that are <= x, counting both endpoints, so
rank(1/1, n) = |F_n|. Writing S_n(x) for the members with numerator >= 1,
the unreduced count sum_{b<=n} floor(b*x) groups by gcd into

    S_n(x) = sum_{b<=n} floor(b*x) - sum_{d>=2} S_{floor(n/d)}(x)

and rank = S_n(x) + 1 puts 0/1 back. A quadratic reference loop evaluates
it as it stands; the n^(3/4) tier takes S_v(x) for v <= sqrt(n) from one
Moebius sieve, and Moebius inversion over the d <= n / (sqrt(n) + 1), whose
quotients v = floor(n/d) lie above sqrt(n), leaves one term per squarefree d:
F(v, x) below, less about 2 sqrt(v) sieve reads. Inversion over every d gives
S_n(x) = sum_d mu(d) * F(floor(n/d), x)
with F(v, x) = sum_{b<=v} floor(b*x), whose costly part, the Mertens
function at the quotients floor(n/d) (Deleglise and Rivat, Exp. Math. 5,
1996), does not depend on x: the fast tier builds it once per n as one list
of M(floor(n/j)) in O(n^(2/3)), kept as prefix sums pre with |F_n|, then
answers each x = p/q in one pass of floor sums and one Beatty sum,

    sum_{w<=U} floor(w*p/q) c_w = sum_{j<=U*p/q} (pre[U] - pre[ceil(j*q/p) - 1]),

about x*U C-level reads. F_n is symmetric about 1/2, so rank(x) +
rank(1 - x) = |F_n| + 1 for x in F_n, and the pass runs only at x <= 1/2.
The order statistic narrows an exact rank bracket by such passes, probing
at members of F_n near where interpolation puts k, then walks the next-term
recurrence of F_n to the k-th member; it keeps the last n's table, so a run
of queries at one n builds it once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat, tee
from math import comb, gcd, isqrt
from operator import add, floordiv, mul, sub

from .exactmath import _floor_sum_ap, _iroot, _mobius

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
# Largest n any query accepts. Measured on a 2-CPU Xeon with Python 3.11, in fresh
# processes, rank_improved at golden x takes 0.18-0.24 s at n = 10^9 and 24.9 MiB peak
# RSS, and 0.82-1.14 s at 10^10 and 62.8 MiB; its Mertens table grows like n^(2/3),
# to about 1 GB at 10^12.
N_MAX = 10**10
# The x pass makes a floor sum per squarefree d <= s = isqrt(n // PASS_DIV). Whole queries
# as above at x golden, 12-digit, 1, 3/7 and n = 10^6, 1.6*10^7, 2.56*10^8 (median of 9 rounds):
# 2..36 took 0.92-1.12 times as long as 25, 64 up to 1.14 and 144 1.13-1.28.
PASS_DIV = 25
# rank_pawlewicz sums floor(b*x) term by term up to V = isqrt(FLOOR_GAP * n), where the
# quotients n // d of consecutive squarefree d lie about 1.6 * FLOOR_GAP apart, and above V
# takes a floor sum per gap. Timed against 64 as above at n = 10^6, 10^8, 2.56*10^8, x golden,
# 12-digit and 1: 16..256 took 0.94..1.22 times as long (median of 9 interleaved rounds).
FLOOR_GAP = 64
_SIGN_FLAGS = (b"\0\1" + bytes(254), bytes(255) + b"\1")  # a byte of mu to 1 where it is 1, then where it is -1
# statistic stops probing once k is this many members from an end of its
# bracket and walks the rest. On the same machine a walk step costs 0.14-0.18
# us and a probe pass 0.09 ms at n = 10^5 and 0.29 ms at 10^6; a query at
# 10^6 makes one pass and walks 92 steps on average. In 10 interleaved rounds
# of 300 queries at 10^6, no power of two from 2^12 to 2^15 won more than 4.
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


def sieved_prefix(x: Fraction | int, k: int) -> list:
    """The vector S_1(x)..S_k(x) from one Moebius sieve.

    Inverting the identity in the module docstring gives
    S_i - S_{i-1} = sum_{d | i} mu(d) * floor((i/d) * x), so the increments
    start as f[j] = floor(j*x) and each squarefree d >= 2 adds mu(d) * f[j]
    at d*j (Deleglise and Rivat, Exp. Math. 5, 1996): one slice assignment per
    d <= s = isqrt(k), and for the d > s, whose j are at most k // (s + 1), one
    per j with f[j] != 0. O(k lg k) element operations, all of them C-level.
    """
    x = _check_query(x, k)
    p, q = x.numerator, x.denominator
    c = [j * p // q for j in range(k + 1)]
    f = c[: k // 2 + 1]
    mu = _mobius(k)
    s = isqrt(k)
    for d in compress(range(2, s + 1), islice(mu, 2, None)):
        c[d::d] = map(add if mu[d] > 0 else sub, c[d::d], islice(f, 1, k // d + 1))
    for j in compress(range(1, k // (s + 1) + 1), islice(f, 1, None)):
        c[(s + 1) * j :: j] = map(add, c[(s + 1) * j :: j], map(mul, mu[s + 1 : k // j + 1], repeat(f[j])))
    del f, mu
    return list(accumulate(islice(c, 1, None)))


def rank_pawlewicz(x: Fraction | int, n: int) -> int:
    """Rank via a sieve below sqrt(n) and one Moebius sum above it, O(n^(3/4)).

    dense[v] = S_v(x) for every v <= k = isqrt(n) comes from one
    sieved_prefix call. Nested floors collapse (floor(floor(n/d)/e) =
    floor(n/(d*e))), and n // d > k exactly when d <= m = n // (k + 1), so
    the identity in the module docstring at v = n // d reads
    sum_{e: d*e <= m} S_{n//(d*e)} = G[d], with G[d] = F(v, x) minus the
    S_{v//e} with e > v // (k + 1), all read from dense. Moebius inversion over
    the multiples of d in [1, m] gives S_n = sum_{d<=m} mu(d) * G[d] over the
    squarefree d. With r = isqrt(v) the e <= r are read one by one, and Abel
    summation over c_w = S_w - S_{w-1} gives sum_{e>r} S_{v//e} =
    sum_{w<=r} c_w * (v // w) - r * S_r. The d <= s = n // (V + 1), V =
    isqrt(FLOOR_GAP * n), take F(v, x) by a floor sum over the gap from the last v
    and their reads as two maps each; the d > s take F(v, x) from one running sum
    of floor(b*x), b <= V, at the member of F_V at or below x, and their reads per
    e and sign of mu, as two maps over the v >= e^2.
    """
    x = _check_query(x, n)
    if not x:
        return 1
    if x.denominator > n:  # the member of F_n at or below x has the same floors up to n
        x = Fraction(*_neighbours(x, n)[:2])
    p, q = x.numerator, x.denominator
    k, m = isqrt(n), n // (isqrt(n) + 1)
    dense = [0, *sieved_prefix(x, k)]
    if not (p and m):  # 0 < x < 1/n, or n = 1; past the sieve, so that each x > 0 makes one sieve call
        return 1 + (p and dense[n])
    c = list(map(sub, islice(dense, 1, None), dense))  # c[w - 1] = c_w
    mu = _mobius(m)
    V = isqrt(FLOOR_GAP * n)
    s = min(n // (V + 1), m)
    sel = mu[m:s:-1]  # the d > s by increasing v
    at = bytearray(V + 1)  # marks their v
    total = 0
    for sign in (1, -1):
        vs = list(map(floordiv, repeat(n), compress(range(m, s, -1), map(sign.__eq__, sel))))
        any(map(at.__setitem__, vs, repeat(1)))
        rs, rd = tee(map(isqrt, vs))
        total += sign * sum(map(mul, rs, map(dense.__getitem__, rd)))
        for e in range(1, isqrt(vs[-1]) + 1 if vs else 1):
            i = bisect_left(vs, e * e)  # the v >= e^2 have r >= e; those below e * (k + 1) read S_{v//e}
            total -= sign * (c[e - 1] * sum(map(floordiv, islice(vs, i, None), repeat(e))) + sum(map(dense.__getitem__, map(floordiv, islice(vs, i, bisect_left(vs, e * (k + 1))), repeat(e)))))
    a, b = _neighbours(x, V)[:2]
    floors = map(floordiv, range((k + 1) * a, (V + 1) * a, a or 1), repeat(b))  # none if a = 0: all F(v, x) are 0
    total += sum(map(mul, compress(accumulate(floors, initial=_floor_sum_ap(k + 1, b, a, 0)), islice(at, k, None)), compress(sel, sel)))
    f, t = _floor_sum_ap(V + 1, q, p, 0), V  # F(t, x), kept running
    for d in compress(range(s, 0, -1), mu[s:0:-1]):
        v = n // d
        r = isqrt(v)
        f, t = f + _floor_sum_ap(v - t, q, p, (t + 1) * p), v
        total += mu[d] * (f + r * dense[r] - sum(map(mul, c, map(floordiv, repeat(v), range(1, r + 1)))) - sum(map(dense.__getitem__, map(floordiv, repeat(v), range(v // (k + 1) + 1, r + 1)))))
    return total + 1


def _mertens_table(n: int) -> tuple:
    """The x-independent part of rank at n: (vs, signs, pre, size) for _rank_pass.

    In S_n(x) = sum_d mu(d) F(n // d) the squarefree d <= s are kept as vs, their
    n // d + 1 in increasing order, with signs, their mu(d); the d > s, grouped by
    w = n // d <= U = n // (s + 1), give sum_{w<=U} floor(w*x) W[w], kept as the prefix
    sums pre[w] = W[1] + ... + W[w] that _rank_pass reads; at x = 1 that sum is
    U*pre[U] - sum(pre[:U]), and F(v, 1) = v(v+1)/2, so size = |F_n| comes in
    closed form. W[j] = M(n // j) - M(s), j <= J = max(isqrt(n*m), U), m = n // (k + 1), is
    filled from one running sum of mu up to k = improved_cutoff(n) started at
    -M(s): where n // j <= t = isqrt(n), one run of its value at w per distinct
    w = n // j, over the j in (n // (w + 1), n // w]; its values at n // j for the
    other j > m; and for the d <= m, by
    sum_{e<=v} M(v // e) = 1 at v = n // d > k, r = isqrt(v), q = v // (r + 1),
    W[d] = 1 - sum(W[2d : d*q + 1 : d]) - sum_{w<=r} mu(w) (v//w) + q (M(r) - M(s)):
    n // (d*e) = v // e (d*q < sqrt(n*d)) for e <= q, Abel summation for the rest.
    """
    k = improved_cutoff(n)
    mu = _mobius(k)
    t, m, s = isqrt(n), n // (k + 1), isqrt(n // PASS_DIV)
    t0, v0 = n // (t + 1), n // (m + 1)  # n // j > t exactly for j <= t0, and v0 <= k
    acc = accumulate(mu[1 : v0 + 1], initial=-sum(mu[1 : s + 1]))
    same = {}.setdefault  # equal values share one int object
    low = list(map(same, *tee(islice(acc, t + 1))))
    at = bytearray(v0 + 1)
    any(map(at.__setitem__, map(floordiv, repeat(n), range(m + 1, t0 + 1)), repeat(1)))
    mid = list(map(same, *tee(compress(acc, islice(at, t + 1, None)))))
    del at
    J, w = max(isqrt(n * m), n // (s + 1)), n // (t0 + 1)  # j in (t0, J] has n // j <= w
    ends = tee(chain(map(floordiv, repeat(n), range(w + 1, n // J, -1)), (J,)))  # n // (w + 1) = t0
    far = chain.from_iterable(map(repeat, map(low.__getitem__, range(w, n // J - 1, -1)), map(sub, islice(ends[1], 1, None), ends[0])))
    W = list(chain(repeat(0, m + 1), reversed(mid), far))
    plus, minus = (list(compress(range(t + 1), mu.obj[: t + 1].translate(flags))) for flags in _SIGN_FLAGS)
    for d in range(m, 0, -1):
        v = n // d
        r = isqrt(v)
        q = v // (r + 1)
        W[d] = (
            1
            - sum(W[2 * d : d * q + 1 : d])
            - sum(map(floordiv, repeat(v), islice(plus, bisect_right(plus, r))))
            + sum(map(floordiv, repeat(v), islice(minus, bisect_right(minus, r))))
            + q * low[r]
        )
    vs = [n // d + 1 for d in compress(range(s, 0, -1), mu[s:0:-1])]
    signs = array("b", filter(None, mu[s:0:-1]))
    del plus, minus, low, mid, mu
    W = W[: n // (s + 1) + 1]  # a copy: del W[U + 1:] would allocate a buffer for the removed tail
    pre = list(accumulate(islice(W, 1, None), initial=0))
    del W
    size = 1 + sum(map(mul, signs, map(comb, vs, repeat(2)))) + len(pre) * pre[-1] - sum(pre)
    return vs, signs, pre, size


def _rank_pass(x: Fraction, table: tuple) -> int:
    """rank(x, n) from table = _mertens_table(n): about 0.6 s floor sums and one Beatty sum.

    All of it is floor(b*x) at b <= n, which the member p/q of F_n at or just below x
    shares in smaller numbers. F_n is symmetric about 1/2, so for 2p > q the rank is
    |F_n| + 1 - rank((q - p)/q), and the pass runs only at p/q <= 1/2. There F(v, x) at
    the vs is one running sum of floor sums over their gaps (Euclid steps ~ log gap), and
    sum_{w<=U} floor(w*p/q) c_w = sum_{j<=J} sum_{w>=ceil(j*q/p)} c_w, J = floor(U*p/q),
    reads J <= U/2 prefix sums pre[ceil(j*q/p) - 1] with no multiply.
    """
    vs, signs, pre, size = table
    n = vs[-1] - 1 if vs else len(pre) - 1  # d = 1 comes last once s >= 1, and U = n before
    p, q = _neighbours(x, n)[:2] if x.denominator > n else (x.numerator, x.denominator)
    flip = 2 * p > q
    p = q - p if flip else p
    r = 1
    if p:
        J = (len(pre) - 1) * p // q
        r += J * pre[-1] - sum(map(pre.__getitem__, map(floordiv, range(q - 1, J * q, q), repeat(p))))
        starts = map(mul, chain((0,), vs), repeat(p))  # each gap starts at the v before it
        r += sum(map(mul, signs, accumulate(map(_floor_sum_ap, map(sub, vs, chain((0,), vs)), repeat(q), repeat(p), starts))))
    return size + 1 - r if flip else r


def improved_cutoff(n: int) -> int:
    """floor(n^(2/3)), where the sieve's k steps and the block recursion's n / sqrt(k) are of one order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _iroot(n * n, 3)


def rank_improved(x: Fraction | int, n: int) -> int:
    """Rank from one Mertens table of n and one x pass over it.

    The table takes O(k + n / sqrt(k)) = O(n^(2/3)) C-level steps for
    k = improved_cutoff(n), and the pass O(sqrt(n)).
    """
    x = _check_query(x, n)
    return _rank_pass(x, _mertens_table(n))


def totient_sum(n: int) -> int:
    """Sum of Euler's totient over 1..n, via the rank of 1/1."""
    return rank_improved(Fraction(1), n) - 1


def _neighbours(x: Fraction, n: int) -> tuple:
    """(a, b, c, d) with a/b <= x < c/d consecutive in F_n, for x >= 0.

    x.limit_denominator(n) is x itself or one of x's two neighbours in F_n,
    and the other one follows from b*c - a*d = 1 with b + d > n, which pins
    b (or d) to one residue in (n - d, n] (or (n - b, n]). c/d may pass 1/1,
    as (n + 1)/n does for x = 1.
    """
    y = x.limit_denominator(n)
    if y > x:
        c, d = y.numerator, y.denominator
        b = n - (n - pow(c, -1, d)) % d
        return (b * c - 1) // d, b, c, d
    a, b = y.numerator, y.denominator
    d = n - (n + pow(a, -1, b)) % b
    return a, b, (a * d + 1) // b, d


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


@lru_cache(maxsize=1)
def _statistic_table(n: int) -> tuple:
    """_mertens_table(n), kept for the next statistic query at n.

    It holds about 0.2 MB at n = 10^6 and 21 MB at N_MAX, most of it the list pre;
    shared by every caller, so nothing may mutate it, and _rank_pass does not.
    """
    return _mertens_table(n)


def statistic(k: int, n: int) -> Fraction:
    """The k-th member of F_n in increasing order (k = 1 gives 0/1).

    Keeps the exact bracket rank(lo) <= k <= rank(hi) and probes where
    linear interpolation of the rank puts k: F_n has discrepancy at most
    1/n (Dress, JTNB 11, 1999), so from [0, 1] the first probe k/|F_n|
    already lands near the answer. The probe is the fraction nearest that
    point with denominator at most n/8 + 1, a member of F_n whose pass needs
    no neighbour search, or the point itself if that fraction is not inside
    the bracket or lies further than WALK_MAX / (64 |F_n|), about WALK_MAX / 64
    members, from it. A probe that does not halve the bracket's member count is
    followed by a midpoint probe.
    Once k is within WALK_MAX members of an end, the answer is walked to
    exactly from that end's Farey neighbours.

    Every rank call is an x pass over one Mertens table of n, which also
    holds |F_n|, kept for the next query at the same n; only the last n's
    table is kept.
    """
    _check_query(0, n)
    table = _statistic_table(n)
    size = table[3]
    if not 1 <= k <= size:
        raise ValueError(f"k must lie in [1, {size}] for n = {n}")
    lo, rlo, hi, rhi = Fraction(0), 1, Fraction(1), size
    halved = True
    while k - rlo > WALK_MAX and rhi - k > WALK_MAX:
        if halved:
            x = lo + (hi - lo) * (k - rlo) / (rhi - rlo)
            short = x.limit_denominator(n // 8 + 1)
            if lo < short < hi and abs(short - x) * size <= WALK_MAX // 64:
                x = short
        else:
            x = (lo + hi) / 2
        r = _rank_pass(x, table)
        halved = 2 * (r - rlo if r >= k else rhi - r) <= rhi - rlo
        if r >= k:
            hi, rhi = x, r
        else:
            lo, rlo = x, r
    end, steps = (lo, k - rlo) if k - rlo <= rhi - k else (hi, k - rhi)
    a, b, _, _ = _walk(*_neighbours(end, n), n, steps)
    return Fraction(a, b)
