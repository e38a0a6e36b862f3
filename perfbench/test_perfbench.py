"""The benchmark's own tests: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
import workloads
from tracer import Tracer, self_times
from workloads import Query, check, golden_x, octagon, polygon_text, star, triangle

sys.path.insert(0, str(run.SRC))
import fareylattice as fl  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def take(workload, seed, cycles=3):
    return workloads.queries(workload, seed, cycles * workloads.CYCLE_SECONDS[workload])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)


def test_rank_inputs_cover_the_stated_mix():
    qs = take("rank", 3, 20)
    assert len({q.size for q in qs}) == len(qs)
    assert all(workloads.RANK_N[0] <= q.size <= workloads.RANK_N[1] for q in qs)
    assert sum(q.kind == "pawlewicz" for q in qs) == len(qs) // 5
    # every decade of the log-uniform range gets its share
    decades = [sum(10**e <= q.size < 10 ** (e + 1) for q in qs) for e in (6, 7)]
    share = len(qs) / math.log10(256)
    assert all(abs(d - share) <= 3 for d in decades)
    xs = [q.x for q in qs]
    assert golden_x() in xs and Fraction(1) in xs
    assert any(x.denominator >= 10**11 for x in xs)


def test_statistic_size_constant():
    n = workloads.STAT_N
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    assert workloads.STAT_SIZE == 1 + sum(phi[1:])


def test_runs_are_whole_cycles():
    for workload in workloads.WORKLOADS:
        one = take(workload, 2, 1)
        three = take(workload, 2, 3)
        assert len(three) == 3 * len(one)
        assert sorted(q.kind for q in three) == sorted(3 * [q.kind for q in one])


def test_generated_polygons_are_valid():
    for q in take("primitive", 11, 6):
        poly = fl.validate(fl.parse_polygon(q.text))
        assert poly.vertices == fl.validate(fl.Polygon(q.vertices)).vertices


@pytest.mark.parametrize(
    "n, p",
    [(1, 50), (10, 50), (19, 50), (20, 50), (21, 52), (30, 66), (44, 77), (100, 90), (1000, 99), (5000, 99)],
)
def test_tail_percentile(n, p):
    assert run.tail_percentile(n) == p


def test_tail_leaves_ten_samples_beyond():
    for n in range(20, 3000, 7):
        _, p, beyond = run.tail([1.0] * n)
        assert beyond >= 10
        if n >= 40:  # one more percentile would leave fewer than ten beyond
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_hd_quantile():
    assert run.hd_quantile([3.0], 0.5) == 3.0
    assert run.hd_quantile([5.0] * 40, 0.9) == pytest.approx(5.0)
    uniform = [i / 1000 for i in range(1001)]
    for p in (0.5, 0.77, 0.9, 0.99):
        assert run.hd_quantile(uniform, p) == pytest.approx(p, abs=2e-3)
    # steady where one order statistic jumps: a gap right at the median
    gappy = [1.0] * 20 + [2.0] * 21
    assert run.hd_quantile(gappy, 0.5) == pytest.approx(1.5, abs=0.2)


def small_queries():
    x = Fraction(2, 3)
    rng = random.Random(5)
    polys = [("octagon", 200, octagon(200)), ("star", 200, star(rng, 200, 9, 6)), ("triangle", 60, triangle(60, x))]
    return [
        Query("improved", 1000, x=x),
        Query("pawlewicz", 1000, x=golden_x()),
        Query("statistic", 100, k=1234),
    ] + [Query(kind, size, x=x if kind == "triangle" else None, vertices=v, text=polygon_text(v)) for kind, size, v in polys]


@pytest.mark.parametrize("q", small_queries(), ids=lambda q: q.kind)
def test_checker_rejects_wrong_answers(q):
    answer = workloads.run_query(fl, q)
    assert check(fl, q, answer)
    if q.kind == "statistic":
        wrong = [fl.statistic(q.k + 1, q.size), answer + Fraction(1, q.size**3), None]
    else:
        wrong = [answer + 1, answer - 1]
    for bad in wrong:
        assert not check(fl, q, bad)


def test_corrupted_answers_are_counted():
    results = [run.Result(q, workloads.run_query(fl, q), None, 0.1, 0.1) for q in small_queries()]
    assert run.count_failures(fl, results) == 0
    results[0].answer += 1
    results[-1].answer, results[-1].error = None, "ValueError()"
    assert run.count_failures(fl, results) == 2
    metrics = run.end_to_end(results, 2, [0.05], 10240)
    assert metrics["correct_frac"][0] == (len(results) - 2) / len(results)


def test_metric_names_match_benchmark():
    results = [run.Result(q, None, None, 0.1 + i / 100, 0.1) for i, q in enumerate(small_queries())]
    e2e = run.end_to_end(results, 0, [0.05, 0.06], 20480)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = run.per_layer(Tracer(), results, results)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def traced_pass(queries):
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fareylattice"]
    tracer.install(fl, modules)
    try:
        results = run.issue(fl, queries, math.inf, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


def test_trace_spans_nest_and_cover_each_query():
    queries = [Query("statistic", 3000, k=777777)] + small_queries()[3:]
    tracer, results = traced_pass(queries)
    assert not tracer.absent
    assert fl.farey.rank_improved.__module__ == "fareylattice.farey"  # unwrapped again
    names = {rec[0] for rec in tracer.spans}
    assert {"query", "farey.rank", "farey.sieve", "farey.statistic", "geometry.parse", "primitive.tail"} <= names
    assert tracer.counts["exactmath.floor_sum"] > 0 and tracer.counts["geometry.membership"] > 0
    own = self_times(tracer.spans)
    assert min(own) >= 0
    for qid, r in enumerate(results):
        roots = [i for i, rec in enumerate(tracer.spans) if rec[4] == qid and rec[3] is None]
        assert len(roots) == 1
        root = tracer.spans[roots[0]]
        assert sum(s for rec, s in zip(tracer.spans, own) if rec[4] == qid) == root[2] - root[1]
        assert root[2] - root[1] <= r.latency_s * 1e9
    cover = run.self_time_cover(tracer, results)
    assert min(cover) > 0.9
    layers = run.per_layer(tracer, results, results)
    assert layers["farey.rank_calls_per_query"][0] > 1
    assert layers["primitive.tau"][0] >= 1 and layers["primitive.tail.points"][0] > 0


def test_absent_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(fl.farey, "sieved_prefix")
    monkeypatch.delattr(fl.primitive, "tail_query")
    tracer = Tracer()
    tracer.install(fl, [fl, fl.farey, fl.primitive])
    tracer.uninstall()
    assert tracer.absent == ["farey.sieved_prefix", "primitive.tail_query"]


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_declared_metrics(trace, key):
    start = time.perf_counter()
    out = run_cli(run.ROOT, "--workload", "statistic", "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert time.perf_counter() - start < 60


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = run_cli(tmp_path, "--workload", "rank", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
