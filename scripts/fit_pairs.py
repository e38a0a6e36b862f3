"""Fit the rank tiers' growth exponents on two source trees, in alternating runs.

    python scripts/fit_pairs.py OLD_SRC NEW_SRC [--runs 10] [--algo improved,pawlewicz]

Each run is one `fareylattice bench --algo ALGO --sizes 1000000,4000000,
16000000,64000000,256000000 --reps 5 --fit` per tree, in a fresh interpreter
with PYTHONPATH set to that tree, so every tier in ALGO is timed in one
process, one grid after the other, as tests/test_acceptance.py's test_7 does.
Which tree goes first alternates from run to run, so both meet the same mix of
machine load. Prints every fit as it comes, then each tree's minimum and
median per tier.
"""

import argparse
import os
import statistics
import subprocess
import sys

SIZES = "1000000,4000000,16000000,64000000,256000000"


def fits(src: str, algo: str) -> list:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    command = [sys.executable, "-m", "fareylattice", "bench", "--algo", algo]
    command += ["--sizes", SIZES, "--reps", "5", "--fit"]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout
    return [float(line.split(",")[1]) for line in out.splitlines() if line.startswith("exponent,")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--algo", default="pawlewicz", help="comma separated: improved, pawlewicz")
    args = parser.parse_args()
    algos = args.algo.split(",")
    if any(algo not in ("improved", "pawlewicz") for algo in algos):
        parser.error(f"--algo takes improved and pawlewicz, comma separated, not {args.algo!r}")
    got = {(side, algo): [] for side in ("old", "new") for algo in algos}
    trees = [("old", args.old_src), ("new", args.new_src)]
    for run in range(args.runs):
        for side, src in trees if run % 2 == 0 else trees[::-1]:
            for algo, value in zip(algos, fits(src, args.algo), strict=True):
                got[side, algo].append(value)
            print(f"run {run + 1} {side}: " + ", ".join(f"{algo} {got[side, algo][-1]:.3f}" for algo in algos), flush=True)
    for (side, algo), values in got.items():
        fits_text = " ".join(f"{v:.3f}" for v in values)
        print(f"{side} {algo}: min {min(values):.3f}, median {statistics.median(values):.3f}, fits {fits_text}")


if __name__ == "__main__":
    main()
