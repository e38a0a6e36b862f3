"""Write one BENCH JSON file: the rank layers, the tiers' fits, statistic and primitive counts.

    python scripts/bench_layers.py [SRC] --out BENCH.json [--seed 0]

SRC is the source tree to measure (default src). Everything runs in this one
process, one measurement after another, so run it on a quiet machine. It
records the CPU, nproc, the Python version and the git commit of SRC, then:

- rank at golden x and n = 10^6, 4*10^6, 1.6*10^7, 6.4*10^7, 2.56*10^8 and
  10^9: the Mertens table of n (farey._mertens_table, and the mu sieve inside
  it, exactmath._mobius), one x pass over it (farey._rank_pass) and
  rank_pawlewicz, each the median of 5 timings;
- each tier's fitted exponent on test_7's grid (bench.run_grid with 5 reps,
  bench.fit_exponent), 10 times with the tiers alternating first, as the
  minimum, median and every fit;
- statistic at n = 10^6 and 10^7: the table build, then 300 k drawn with
  --seed, timed one by one, as p50, p95, mean and x passes per query;
- primitive_count of the regular octagon of diameter D = 10^4 .. 6.4*10^5
  (doubling; perfbench's workloads.octagon), the median of 5 timings
  each, with the fitted exponent, and beside each row its tail layer,
  primitive.precompute_tail at the default tau, the median of 5, and its
  lattice layer, geometry.count_lattice at every squarefree d below that
  tau, the median of as many timings as the row's own;
- the same three timings for perfbench's non-convex star (workloads.star,
  drawn with --seed) with k = 64 vertices and 12-digit denominators at
  D = 10^5, and for the 10^4-vertex star with integer vertices at D = 10^5,
  whose primitive_count and lattice layer are the median of 3 (each takes
  several seconds).

Times are in seconds. The whole run takes about two minutes on a 2-CPU Xeon.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from itertools import compress

sys.path.insert(0, next((a for a in sys.argv[1:2] if not a.startswith("-")), "src"))
sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from fareylattice import Polygon, farey, primitive_count, validate  # noqa: E402
from fareylattice.bench import fit_exponent, golden_x, run_grid  # noqa: E402
from fareylattice.exactmath import _mobius  # noqa: E402
from fareylattice.geometry import count_lattice, diameter_bound  # noqa: E402
from fareylattice.primitive import default_tau, precompute_tail  # noqa: E402
from workloads import octagon, star  # noqa: E402

RANK_NS = [10**6, 4 * 10**6, 16 * 10**6, 64 * 10**6, 256 * 10**6, 10**9]
FIT_GRID = RANK_NS[:5]  # test_7's grid
STATISTIC_NS = [10**6, 10**7]
OCTAGON_DS = [10**4 * 2**i for i in range(7)]
STARS = [(10**5, 64, 12), (10**5, 10**4, 0)]  # (D, k, denominator digits)
REPS, FIT_RUNS, QUERIES = 5, 10, 300


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def median_time(reps: int, fn, *args) -> float:
    return statistics.median(timed(fn, *args) for _ in range(reps))


def machine(src: str) -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), platform.machine())
    git = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", src, "status", "--porcelain", "--", "."], capture_output=True, text=True)
    commit = git.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit, "src_dirty": bool(commit and dirty.stdout.strip())}


def rank_rows(reps: int) -> list:
    x = golden_x()
    rows = []
    for n in RANK_NS:
        table = farey._mertens_table(n)
        rows.append(
            {
                "n": n,
                "table_s": median_time(reps, farey._mertens_table, n),
                "mobius_s": median_time(reps, _mobius, farey.improved_cutoff(n)),
                "pass_s": median_time(reps, farey._rank_pass, x, table),
                "pawlewicz_s": median_time(reps, farey.rank_pawlewicz, x, n),
            }
        )
        print(rows[-1], file=sys.stderr, flush=True)
    return rows


def fits(runs: int) -> dict:
    got = {"improved": [], "pawlewicz": []}
    for run in range(runs):
        for algo in list(got) if run % 2 == 0 else list(got)[::-1]:
            got[algo].append(round(fit_exponent(run_grid(algo, FIT_GRID, reps=5)), 4))
        print(run, {algo: values[-1] for algo, values in got.items()}, file=sys.stderr, flush=True)
    summary = {algo: {"min": min(v), "median": statistics.median(v), "fits": v} for algo, v in got.items()}
    return {"grid": FIT_GRID, "reps": 5, "runs": runs, **summary}


def statistic_rows(queries: int, seed: int) -> list:
    rows = []
    passes = []
    rank_pass = farey._rank_pass

    def counting(x, table):
        passes.append(x)
        return rank_pass(x, table)

    for n in STATISTIC_NS:
        farey._statistic_table.cache_clear()
        table_s = timed(farey.statistic, 1, n)
        size = farey._statistic_table(n)[3]
        rng = random.Random(seed)
        ks = [rng.randint(1, size) for _ in range(queries)]
        times = [timed(farey.statistic, k, n) for k in ks]
        farey._rank_pass = counting
        try:
            for k in ks:
                farey.statistic(k, n)
        finally:
            farey._rank_pass = rank_pass
        q = statistics.quantiles(times, n=100)
        rows.append(
            {
                "n": n,
                "queries": queries,
                "seed": seed,
                "table_s": table_s,
                "p50_s": statistics.median(times),
                "p95_s": q[94],
                "mean_s": statistics.fmean(times),
                "passes_per_query": len(passes) / queries,
            }
        )
        passes.clear()
        print(rows[-1], file=sys.stderr, flush=True)
    return rows


def lattice_layer(poly: Polygon, tau: int) -> None:
    # primitive_count's dense layer: one lattice count per squarefree d < tau
    for d in compress(range(tau), _mobius(tau - 1)):
        count_lattice(poly, d)


def primitive_row(D: int, poly: Polygon, reps: int, tail_reps: int) -> dict:
    # primitive_count, and its tail and lattice layers at primitive_count's default tau
    tau = default_tau(diameter_bound(poly))
    primitive_count(poly)  # warm-up
    row = {
        "D": D,
        "tau": tau,
        "s": median_time(reps, primitive_count, poly),
        "tail_s": median_time(tail_reps, precompute_tail, poly, tau),
        "lattice_s": median_time(reps, lattice_layer, poly, tau),
    }
    print(row, file=sys.stderr, flush=True)
    return row


def primitive_rows(reps: int, seed: int) -> dict:
    rows = [primitive_row(D, validate(Polygon(octagon(D))), reps, reps) for D in OCTAGON_DS]
    stars = []
    for D, k, digits in STARS:
        poly = validate(Polygon(star(random.Random(seed), D, k, digits)))
        stars.append({"k": k, "den_digits": digits, "seed": seed, **primitive_row(D, poly, reps if k < 1000 else 3, reps)})
    return {"octagon": rows, "exponent": fit_exponent((row["D"], row["s"]) for row in rows), "stars": stars}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default="src")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = {
        "command": f"python scripts/bench_layers.py {args.src} --out {os.path.basename(args.out)} --seed {args.seed}",
        "machine": machine(args.src),
        "rank": {"x": "golden_x()", "reps": REPS, "rows": rank_rows(REPS)},
        "fits": fits(FIT_RUNS),
        "statistic": statistic_rows(QUERIES, args.seed),
        "primitive": primitive_rows(REPS, args.seed),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
