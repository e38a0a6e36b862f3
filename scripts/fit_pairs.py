"""Fit a rank tier's growth exponent on two source trees, in alternating runs.

    python scripts/fit_pairs.py OLD_SRC NEW_SRC [--runs 10] [--algo pawlewicz]

Each run is one `fareylattice bench --sizes 1000000,4000000,16000000,
64000000,256000000 --reps 5 --fit` per tree, in a fresh interpreter with
PYTHONPATH set to that tree; which tree goes first alternates from run to
run, so both meet the same mix of machine load. Prints every fit as it
comes, then each tree's minimum and median.
"""

import argparse
import os
import statistics
import subprocess
import sys

SIZES = "1000000,4000000,16000000,64000000,256000000"


def fit(src: str, algo: str) -> float:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    command = [sys.executable, "-m", "fareylattice", "bench", "--algo", algo]
    command += ["--sizes", SIZES, "--reps", "5", "--fit"]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout
    return float(next(line for line in out.splitlines() if line.startswith("exponent,")).split(",")[1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--algo", choices=["pawlewicz", "improved"], default="pawlewicz")
    args = parser.parse_args()
    fits = {"old": [], "new": []}
    trees = [("old", args.old_src), ("new", args.new_src)]
    for run in range(args.runs):
        for side, src in trees if run % 2 == 0 else trees[::-1]:
            fits[side].append(fit(src, args.algo))
            print(f"run {run + 1} {side}: {fits[side][-1]:.3f}", flush=True)
    for side, values in fits.items():
        fits_text = " ".join(f"{v:.3f}" for v in values)
        print(f"{side}: min {min(values):.3f}, median {statistics.median(values):.3f}, fits {fits_text}")


if __name__ == "__main__":
    main()
