"""Exact integer and rational building blocks.

Everything in this package reduces to plain integer arithmetic on Python
ints and fractions.Fraction; no floats are involved in any result. The one
nontrivial piece here is the Euclid-like exchange recursion for floor sums
of rational arithmetic progressions; the rest is parsing, formatting,
exact integer roots and the Moebius sieve that the rank and the primitive
count both invert with.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import isqrt

__all__ = [
    "parse_fraction",
    "format_fraction",
    "floor_sum",
]

_FRACTION_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_NEGATE = bytes(-i % 256 for i in range(256))  # a signed byte to its negation
_PRIME_SIGN = b"\1\xff" + bytes(254)  # 0 (not prime) to 1, 1 (prime) to -1
# _mobius negates the multiples j*p of the primes p > max(k // (COFACTOR_MAX + 1), COFACTOR_MIN) by one
# XOR per j. Min of 7 at k = 10^4, 215,443, 4.64*10^6 on a 2-CPU Xeon, Python 3.11, against 8: 1 took
# 1.57-1.80 times as long, 2 1.29-1.42, 4 1.08-1.13, 6 1.03-1.06 and 10..24 0.96-1.05. Against one slice
# per prime (min of 11), the primes above isqrt(k) took 1.10-1.31 times as long at k = 11..100, and those
# above 48..192 0.99-1.07 there and 0.61-1.04 at k = 150..2154.
COFACTOR_MAX = 8
COFACTOR_MIN = 64
# Longest decimal integer accepted: CPython's int() refuses longer strings by
# default, with advice to call sys.set_int_max_str_digits; checked first so
# the refusal names the input instead.
DIGITS_MAX = 4300


def parse_fraction(text: str) -> Fraction:
    """Parse ``P/Q`` or ``P`` (meaning P/1) into a normalized Fraction.

    Strict on purpose: ASCII digits only, no decimals, no exponents, no
    whitespace, and the denominator must be a positive integer literal.
    """
    if not _FRACTION_RE.fullmatch(text):
        raise ValueError(f"not a fraction: {text!r}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > DIGITS_MAX:
        raise ValueError(f"a number longer than DIGITS_MAX = {DIGITS_MAX} digits: {text[:20]}...")
    if not den:
        return Fraction(int(num))
    if int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den))


def format_fraction(x: Fraction) -> str:
    """Render as ``P/Q``, always with the denominator."""
    return f"{x.numerator}/{x.denominator}"


def _floor_sum_ap(n: int, m: int, a: int, b: int) -> int:
    # sum of floor((a*i + b)/m) for i in [0, n); n >= 0, m > 0, any a and b.
    # Exchange recursion: strip whole multiples of m out of a and b (floor
    # division does this exactly for negative values too, leaving both in
    # [0, m)), then swap the roles of the two axes, exactly like one Euclid
    # step. The state shrinks like gcd(a, m), so the loop runs O(lg m) times.
    total = 0
    while True:
        if a >= m or a < 0:
            total += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m or b < 0:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def floor_sum(n: int, x: Fraction | int) -> int:
    """Sum of floor(b*x) for b = 1..n, exactly, in O(lg) arithmetic steps.

    Denominators of x may be arbitrarily large; everything stays in exact
    integer arithmetic.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    return _floor_sum_ap(n + 1, x.denominator, x.numerator, 0)


def _iroot(m: int, e: int) -> int:
    """floor(m ** (1/e)) for m >= 0, e >= 1, exactly."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0
    # Newton from above: by AM-GM no step falls below the floor root, and
    # each step falls while r**e > m, so it stops exactly there
    r = 1 << -(-m.bit_length() // e)
    while True:
        nr = ((e - 1) * r + m // r ** (e - 1)) // e
        if nr >= r:
            return r
        r = nr


def _iroot_round(m: int, e: int) -> int:
    """round(m ** (1/e)) for m >= 0, exactly (half rounds up)."""
    r = _iroot(m, e)
    return r + 1 if (1 << e) * m >= (2 * r + 1) ** e else r


def _mobius(k: int) -> memoryview:
    """mu(0..k) as signed bytes: -1 at the primes and 1 at the other v >= 1, then negate the multiples
    j*p, j >= 2, of each prime p and zero those of p^2. The primes p in (L, k/2], with
    L = max(k // (COFACTOR_MAX + 1), COFACTOR_MIN) >= isqrt(k), have j <= COFACTOR_MAX: per j one XOR of
    the strided slice mu[j*p] with their prime flags as 0xFE negates them all (1 ^ 0xFE = 0xFF); each
    prime up to L negates its multiples as one slice."""
    r = isqrt(k)
    prime = bytearray(2) + b"\1" * (k - 1)
    for p in range(2, r + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, k + 1, p)))
    mu = bytearray(1) + prime[1 : k + 1].translate(_PRIME_SIGN)
    L = min(max(k // (COFACTOR_MAX + 1), COFACTOR_MIN), k // 2)
    flip = int.from_bytes(prime[L + 1 : k // 2 + 1], "little") * 0xFE  # no zero in mu yet for it to hit
    del prime[L + 1 :]
    for j in range(2, k // (L + 1) + 1):
        size = k // j - L
        mu[j * (L + 1) :: j] = (int.from_bytes(mu[j * (L + 1) :: j], "little") ^ flip & (1 << 8 * size) - 1).to_bytes(size, "little")
    del flip
    for p in compress(range(L + 1), prime):
        mu[2 * p :: p] = mu[2 * p :: p].translate(_NEGATE)
        if p <= r:
            mu[p * p :: p * p] = bytes(len(range(p * p, k + 1, p * p)))
    return memoryview(mu).cast("b")
