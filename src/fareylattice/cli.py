"""Command line front end.

stdout carries exactly the answer, one value per line; diagnostics go to
stderr. Exit codes: 0 success, 1 usage error, 2 invalid input (malformed
numbers or fractions, unreadable or invalid polygon files), 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .bench import ALGOS, fit_exponent, run_grid, to_csv
from .exactmath import DIGITS_MAX, format_fraction, parse_fraction
from .farey import rank_brute, rank_improved, rank_pawlewicz, statistic, totient_sum
from .geometry import Polygon, _lattice_box, count_lattice, diameter_bound, load_polygon, point_in_scaled, validate
from .primitive import primitive_brute, primitive_count, random_star_polygon

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_arg(text: str, name: str, minimum: int = 1) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be a decimal integer, got {text!r}")
    if len(text) > DIGITS_MAX:
        raise ValueError(f"{name} is longer than DIGITS_MAX = {DIGITS_MAX} digits")
    value = int(text)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _cmd_rank(ns) -> int:
    n = _int_arg(ns.n, "--n")
    try:
        x = parse_fraction(ns.x)
    except ValueError as exc:
        raise ValueError(f"--x: {exc}") from None
    print(ALGOS[ns.algo](x, n))
    return 0


def _cmd_stat(ns) -> int:
    n = _int_arg(ns.n, "--n")
    k = _int_arg(ns.k, "--k")
    print(format_fraction(statistic(k, n)))
    return 0


def _cmd_totsum(ns) -> int:
    print(totient_sum(_int_arg(ns.n, "--n")))
    return 0


def _cmd_lattice(ns) -> int:
    print(count_lattice(load_polygon(ns.poly)))
    return 0


def _cmd_primitive(ns) -> int:
    poly = load_polygon(ns.poly)
    if ns.brute:
        print(primitive_brute(poly))
    else:
        tau = _int_arg(ns.tau, "--tau") if ns.tau is not None else None
        print(primitive_count(poly, tau=tau))
    return 0


def _algo_list(text: str) -> list:
    algos = text.split(",")
    for algo in algos:
        if algo not in ALGOS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {algo!r} (choose from {', '.join(ALGOS)})")
    return algos


def _cmd_bench(ns) -> int:
    sizes = [_int_arg(s, "--sizes entry") for s in ns.sizes.split(",")]
    reps = _int_arg(ns.reps, "--reps")
    # every grid runs before any is written, so a refused grid leaves stdout empty
    grids = [run_grid(algo, sizes, reps) for algo in ns.algo]
    for algo, rows in zip(ns.algo, grids):
        sys.stdout.write(to_csv(algo, reps, rows))
        if ns.fit:
            print(f"exponent,{fit_exponent(rows):.3f}")
    return 0


def _selftest_rank(rng: random.Random, scale: str):
    ns = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] if scale == "small" else list(range(1, 30)) + [60, 144, 233, 377]
    checked = 0
    for n in ns:
        for _ in range(3):
            den = rng.randint(1, 4 * n)
            x = Fraction(rng.randint(0, den), den)
            want = rank_brute(x, n)
            if rank_pawlewicz(x, n) != want or rank_improved(x, n) != want:
                return False, f"rank mismatch at n={n} x={x}"
            checked += 1
    if scale == "medium":
        # the two sublinear tiers against each other beyond brute range
        for n in (10**4, 10**5, 3 * 10**5):
            x = Fraction(rng.randint(1, 10**6), 10**6)
            if rank_pawlewicz(x, n) != rank_improved(x, n):
                return False, f"tier mismatch at n={n} x={x}"
            checked += 1
    return True, f"{checked} queries"


def _selftest_statistic(rng: random.Random, scale: str):
    ns = [1, 2, 5, 12, 30] if scale == "small" else [1, 2, 5, 12, 30, 120, 500]
    checked = 0
    for n in ns:
        size = rank_improved(Fraction(1), n)
        ks = range(1, size + 1) if size <= 40 else [1, 2, size - 1, size] + [rng.randint(1, size) for _ in range(12)]
        for k in ks:
            x = statistic(k, n)
            if x.denominator > n or not 0 <= x <= 1:
                return False, f"statistic({k}, {n}) = {x} is not a member"
            if rank_improved(x, n) != k:
                return False, f"rank(statistic({k}, {n})) != {k}"
            checked += 1
    return True, f"{checked} selections"


def _selftest_lattice(rng: random.Random, scale: str):
    polys, dmax = (10, 40) if scale == "small" else (25, 120)
    for _ in range(polys):
        poly = random_star_polygon(rng.randint(8, dmax), rng.randint(3, 9), rng)
        for i in (1, 2, 3):  # the primitive count reads shrunk copies P/i
            x0, x1, y0, y1 = _lattice_box(poly, i)
            scan = sum(point_in_scaled(poly, (x, y), i) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))
            if count_lattice(poly, i) != scan:
                return False, f"lattice count mismatch at i={i} on {poly!r}"
    return True, f"{polys} polygons"


def _selftest_primitive(rng: random.Random, scale: str):
    polys, dmax = (8, 60) if scale == "small" else (16, 240)
    for i in range(polys):
        poly = random_star_polygon(rng.randint(8, dmax), rng.randint(3, 9), rng)
        want = primitive_brute(poly)
        if primitive_count(poly) != want:
            return False, f"primitive count mismatch on {poly!r}"
        if primitive_count(poly, tau=diameter_bound(poly)) != want:
            return False, f"all-dense split mismatch on {poly!r}"
        if primitive_count(poly, tau=2) != want:
            return False, f"tau override mismatch on {poly!r}"
        if primitive_count(poly, tau=1) != want:
            return False, f"all-tail split mismatch on {poly!r}"
    return True, f"{polys} polygons"


def _selftest_bridge(rng: random.Random, scale: str):
    ns = [4, 10, 25] if scale == "small" else [4, 10, 25, 60, 100]
    xs = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    checked = 0
    for n in ns:
        for x in xs:
            tri = validate(Polygon([(0, 0), (n, 0), (n, x * n)]))
            if primitive_count(tri) != rank_improved(x, n):
                return False, f"triangle/rank mismatch at n={n} x={x}"
            checked += 1
    return True, f"{checked} triangles"


_SUITES = [
    ("rank-tiers", _selftest_rank),
    ("statistic-roundtrip", _selftest_statistic),
    ("lattice-count", _selftest_lattice),
    ("primitive-dp", _selftest_primitive),
    ("farey-triangle-bridge", _selftest_bridge),
]


def _cmd_selftest(ns) -> int:
    seed = _int_arg(ns.seed, "--seed", minimum=0)
    failures = 0
    for name, suite in _SUITES:
        ok, detail = suite(random.Random(seed), ns.scale)
        print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    print(f"{len(_SUITES) - failures}/{len(_SUITES)} suites passed")
    return 0 if failures == 0 else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="fareylattice")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="position of the last Farey fraction <= x")
    p.add_argument("--n", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--algo", choices=list(ALGOS), default="improved")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("stat", help="k-th smallest Farey fraction")
    p.add_argument("--n", required=True)
    p.add_argument("--k", required=True)
    p.set_defaults(func=_cmd_stat)

    p = sub.add_parser("totsum", help="totient summatory function")
    p.add_argument("--n", required=True)
    p.set_defaults(func=_cmd_totsum)

    p = sub.add_parser("lattice", help="lattice points in a polygon file")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("primitive", help="primitive lattice points in a polygon file")
    p.add_argument("--poly", required=True)
    p.add_argument("--brute", action="store_true")
    p.add_argument("--tau", default=None)
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("selftest", help="cross-check the fast paths against oracles")
    p.add_argument("--seed", default="0")
    p.add_argument("--scale", choices=["small", "medium"], default="small")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("bench", help="time the rank algorithms over a size grid")
    p.add_argument("--algo", type=_algo_list, required=True, help="comma separated: " + ",".join(ALGOS))
    p.add_argument("--sizes", required=True, help="comma separated, ascending")
    p.add_argument("--reps", required=True)
    p.add_argument("--fit", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help path
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())
