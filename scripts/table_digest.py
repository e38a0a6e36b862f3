"""Print SHA-256 digests of farey._mertens_table, exactmath._mobius, primitive.precompute_tail and geometry.count_lattice.

Run it on two source trees to check that a change to any of them keeps its
output exactly:

    python scripts/table_digest.py path/to/one/src
    python scripts/table_digest.py path/to/other/src

The n are every n < 3000, 300 random n < 10^7 (seed 0), 10^8, 2*10^8 + 7,
10^9 and 10^10, and mu is hashed at every k < 3000 and at the sieve lengths
improved_cutoff gives those n. Each table is hashed as (n, plus, minus, coef),
with coef the consecutive differences of its prefix sums pre, and its |F_n| is
checked against rank_pawlewicz(1, n). The two digests are printed apart: the
tables do not depend on the cutoff, but the sieve lengths do, so a change of
improved_cutoff moves only the second. The largest table takes a few seconds
and about 60 MiB; the whole run about a minute.

The third digest hashes precompute_tail(poly, tau).phis at primitive_count's
default tau and at twice it, for perfbench's regular octagons at
D = 10^4 * 2^i, i < 7, its seeded non-convex stars at D = 10^5 with k = 8, 64
and 1000 vertices and 0 or 12 denominator digits, and Farey triangles at
n = 10^4 and 2*10^5 with x = 1, 1/2, 617/999 and golden_x(). The fourth
hashes count_lattice(poly, i) on the same polygons for every i up to twice
that tau.
"""

import hashlib
import os
import pickle
import random
import sys
from fractions import Fraction
from itertools import islice
from operator import sub

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else "src")
sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from fareylattice.exactmath import _mobius  # noqa: E402
from fareylattice.farey import _mertens_table, improved_cutoff, rank_pawlewicz  # noqa: E402
from fareylattice.geometry import Polygon, count_lattice, diameter_bound, validate  # noqa: E402
from fareylattice.primitive import default_tau, precompute_tail  # noqa: E402
from workloads import golden_x, octagon, star, triangle  # noqa: E402

rng = random.Random(0)
ns = [*range(1, 3000), *(rng.randrange(1, 10**7) for _ in range(300)), 10**8, 2 * 10**8 + 7, 10**9, 10**10]
ks = sorted({*range(3000), *map(improved_cutoff, ns)})
tables, sieves = hashlib.sha256(), hashlib.sha256()
for n in ns:
    vs, signs, pre, size = _mertens_table(n)
    plus, minus = ([v for v, sign in zip(vs, signs) if sign == want][::-1] for want in (1, -1))
    coef = list(map(sub, islice(pre, 1, None), pre))
    tables.update(pickle.dumps((n, plus, minus, coef)))
    if size != rank_pawlewicz(1, n):
        sys.exit(f"n = {n}: the table's |F_n| = {size} is not rank_pawlewicz(1, n)")
for k in ks:
    sieves.update(pickle.dumps((k, _mobius(k).tobytes())))
star_rng = random.Random(0)
polygons = [
    *(octagon(10**4 * 2**i) for i in range(7)),
    *(star(star_rng, 10**5, k, digits) for k in (8, 64, 1000) for digits in (0, 12)),
    *(triangle(n, x) for n in (10**4, 2 * 10**5) for x in (Fraction(1), Fraction(1, 2), Fraction(617, 999), golden_x())),
]
tails, lattice = hashlib.sha256(), hashlib.sha256()
for vertices in polygons:
    poly = validate(Polygon(vertices))
    D = diameter_bound(poly)
    tau = default_tau(D)
    for t in (tau, 2 * tau):
        tails.update(pickle.dumps((vertices, t, precompute_tail(poly, t).phis)))
    lattice.update(pickle.dumps((vertices, [count_lattice(poly, i) for i in range(1, 2 * tau + 1)])))
print(f"{len(ns)} tables: {tables.hexdigest()}")
print(f"{len(ks)} sieves: {sieves.hexdigest()}")
print(f"{len(polygons)} tails: {tails.hexdigest()}")
print(f"{len(polygons)} lattice counts: {lattice.hexdigest()}")
