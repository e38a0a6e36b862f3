"""Print SHA-256 digests of farey._mertens_table and of exactmath._mobius.

Run it on two source trees to check that a change to either function keeps
its output exactly:

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
"""

import hashlib
import pickle
import random
import sys
from itertools import islice
from operator import sub

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else "src")

from fareylattice.exactmath import _mobius  # noqa: E402
from fareylattice.farey import _mertens_table, improved_cutoff, rank_pawlewicz  # noqa: E402

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
print(f"{len(ns)} tables: {tables.hexdigest()}")
print(f"{len(ks)} sieves: {sieves.hexdigest()}")
