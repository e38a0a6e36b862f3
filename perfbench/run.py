#!/usr/bin/env python3
"""Run one benchmark workload against the package in ../src and report it.

    python3 perfbench/run.py --workload rank --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each query is issued
after the previous answer returns. The inputs, made from --seed before any
timing, are whole cycles of the workload's query mix, as many as took about
--seconds when the benchmark was added. Every answer is checked after the
timed loop. The last line of stdout is a JSON object with keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A fuller record (environment, per-query rows, tail
percentile, absent hooks, and with --trace 1 the spans) goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import END, NAME, QUERY, START, Tracer, self_times
from workloads import WORKLOADS, Query, check, queries, run_query

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7
CAP = 4  # a run stops issuing queries after CAP * --seconds of query time
PROBE_NOMINAL_S = 0.009  # probe() at a calm moment on a 2-CPU Xeon, Python 3.11

# A fresh workload process up to the point where it could take its first
# query: interpreter start, package import, and the CLI's argument parser.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import fareylattice.cli
build = getattr(fareylattice.cli, "_build_parser", None)
if build is not None:
    build()
print("ready", flush=True)
"""


@dataclass
class Result:
    query: Query
    answer: object
    error: str | None
    latency_s: float  # wall time as measured
    ref_s: float  # the same, rescaled to the machine's nominal speed
    ok: bool = False


def probe() -> float:
    """Seconds taken by a fixed loop of Python integer arithmetic, the kind
    of work the package does: a gauge of the machine's speed right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1, 40_000):
        s += (i * 1_234_567_891_011) // 987_654_321 % (i | 1)
    return time.perf_counter() - t0


def rescale(seconds: float, before: float, after: float) -> float:
    """seconds at the machine's nominal speed, judged by the probes just
    before and just after the measured interval."""
    return seconds * 2 * PROBE_NOMINAL_S / (before + after)


def measure_setup() -> float:
    """Reference seconds from spawning a workload process until it is ready
    to query, rescaled by the probes around it like a query latency."""
    before = probe()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return rescale(elapsed, before, probe())


def issue(fl, queries, cap_s: float, tracer: Tracer | None = None) -> list:
    """Closed loop: each query is issued once the previous answer is back.

    A probe runs between queries, untimed: a shared machine's speed swings
    by tens of percent within a second, so each latency is also rescaled.
    Stops early only if the queries have taken more than cap_s, which keeps
    a badly slowed commit inside the benchmark's time limit.
    """
    results = []
    busy = 0.0
    before = probe()
    for qid, q in enumerate(queries):
        if busy > cap_s:
            break
        error = None
        if tracer is not None:
            tracer.query_id = qid
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = run_query(fl, q)
            else:
                answer = tracer.call("query", run_query, fl, q)
        except Exception as exc:  # a failed query is counted, not fatal
            answer, error = None, repr(exc)
        latency = time.perf_counter() - t0
        after = probe()
        busy += latency
        results.append(Result(q, answer, error, latency, rescale(latency, before, after)))
        before = after
    return results


def count_failures(fl, results) -> int:
    """Check every answer; a wrong answer or an exception is one failure."""
    failed = 0
    for r in results:
        r.ok = r.error is None
        if r.ok:
            try:
                r.ok = check(fl, r.query, r.answer)
            except Exception as exc:
                r.ok, r.error = False, f"check raised {exc!r}"
        failed += not r.ok
    return failed


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank value has at least ten
    samples above it; 50 (the median) when there are fewer than 20 samples."""
    return max(50, 100 * (n - 10) // n) if n > 10 else 50


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass over ((i-1)/n, i/n]. The latencies of a mixed workload leave gaps,
    and one order statistic jumps across a gap from run to run where this
    weighted mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = (a - 1) / (n - 1)
    peak = (a - 1) * math.log(mode) + (b - 1) * math.log1p(-mode) if 0 < mode < 1 else 0.0

    def density(x):  # Beta density over its peak value, which cancels below
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - peak)

    steps = 64  # trapezoid rule per order statistic
    weights = []
    for i in range(n):
        ys = [density((i + j / steps) / n) for j in range(steps + 1)]
        weights.append(sum(ys) - (ys[0] + ys[-1]) / 2)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond it) at the tail percentile."""
    n = len(latencies)
    p = tail_percentile(n)
    return hd_quantile(latencies, p / 100), p, n - max(1, math.ceil(p * n / 100))


def end_to_end(results, failed: int, setup: list, rss_kib: int) -> dict:
    latencies = [r.ref_s for r in results]
    value, _, _ = tail(latencies)
    return {
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "query_s_p50": (hd_quantile(latencies, 0.5), "s"),
        "query_s_tail": (value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "correct_frac": ((len(results) - failed) / len(results), "frac"),
    }


def per_layer(tracer: Tracer, traced, plain) -> dict:
    spans = tracer.spans
    total, own, calls = defaultdict(int), defaultdict(int), Counter()
    for rec, self_ns in zip(spans, self_times(spans)):
        total[rec[NAME]] += rec[END] - rec[START]
        own[rec[NAME]] += self_ns
        calls[rec[NAME]] += 1
    counts, values = tracer.counts, tracer.values

    def median(key):
        return statistics.median(values[key]) if values[key] else 0

    queries = len(traced)
    overhead = sum(r.ref_s for r in traced) / sum(r.ref_s for r in plain) - 1
    return {
        "exactmath.floor_sum.calls": (counts["exactmath.floor_sum"], "count"),
        "farey.sieve.s": (total["farey.sieve"] / 1e9, "s"),
        "farey.sieve.calls": (calls["farey.sieve"], "count"),
        "farey.block.s": (own["farey.rank"] / 1e9, "s"),
        "farey.cutoff_k": (median("farey.cutoff_k"), "count"),
        "farey.rank.calls": (calls["farey.rank"], "count"),
        "farey.rank.s": (total["farey.rank"] / 1e9, "s"),
        "farey.rank_calls_per_query": (calls["farey.rank"] / queries, "count/query"),
        "farey.statistic.self_s": (own["farey.statistic"] / 1e9, "s"),
        "geometry.parse.s": (total["geometry.parse"] / 1e9, "s"),
        "geometry.validate.s": (total["geometry.validate"] / 1e9, "s"),
        "geometry.membership.calls": (counts["geometry.membership"], "count"),
        "geometry.count_lattice.calls": (calls["geometry.count_lattice"], "count"),
        "geometry.count_lattice.s": (total["geometry.count_lattice"] / 1e9, "s"),
        "primitive.tail.s": (total["primitive.tail"] / 1e9, "s"),
        "primitive.tail.points": (sum(values["primitive.tail.points"]), "count"),
        "primitive.phi.calls": (counts["primitive.phi"], "count"),
        "primitive.tail_query.calls": (counts["primitive.tail_query"], "count"),
        "primitive.dp.s": (own["primitive.dp"] / 1e9, "s"),
        "primitive.tau": (median("primitive.tau"), "count"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def self_time_cover(tracer: Tracer, traced) -> list:
    """Per query, the summed self times of its spans over its wall time."""
    per_query = defaultdict(int)
    for rec, self_ns in zip(tracer.spans, self_times(tracer.spans)):
        per_query[rec[QUERY]] += self_ns
    return [per_query[qid] / 1e9 / r.latency_s for qid, r in enumerate(traced)]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fareylattice").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "fareylattice" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2

    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_REPS)]
    sys.path.insert(0, str(SRC))
    import fareylattice as fl

    inputs = queries(args.workload, args.seed, args.seconds)
    plain = issue(fl, inputs, CAP * args.seconds)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    record["environment"] = environment(args.seed)
    if args.trace:
        tracer = Tracer()
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fareylattice"]
        tracer.install(fl, modules)
        try:
            results = issue(fl, [r.query for r in plain], math.inf, tracer)
        finally:
            tracer.uninstall()
        failed = count_failures(fl, results)
        failed += sum(r.ok and r.answer != p.answer for r, p in zip(results, plain))
        metrics = per_layer(tracer, results, plain)
        cover = self_time_cover(tracer, results)
        record["absent"] = tracer.absent
        record["self_time_cover"] = {"min": min(cover), "median": statistics.median(cover)}
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    else:
        results = plain
        failed = count_failures(fl, results)
        metrics = end_to_end(results, failed, setup, rss_kib)
        _, p, beyond = tail([r.ref_s for r in results])
        record["tail"] = {"percentile": p, "samples_beyond": beyond, "samples": len(results)}
        record["setup_samples_s"] = setup
    record["rows"] = [
        [r.query.kind, r.query.size, r.latency_s, r.ref_s, r.ok, r.error] for r in results
    ]
    summary = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = summary
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        spans_file.write_text(json.dumps(tracer.spans) + "\n")
        print(f"absent hooks: {tracer.absent or 'none'}; self-time cover min {min(cover):.4f}")
    else:
        print(f"tail: p{p} with {beyond} of {len(results)} samples beyond it")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
