"""The names outside code reaches the package by: the benchmark's tracer
hooks and workload calls, and the README's library example."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import fareylattice
from fareylattice import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize(
    "module,attr", sorted({(module, attr) for _, module, attr, _ in TRACER.TIMED + TRACER.COUNTED})
)
def test_tracer_hooks_exist(module, attr):
    assert callable(getattr(getattr(fareylattice, module), attr))


@pytest.mark.parametrize(
    "name",
    [
        "farey.rank_improved",
        "farey.rank_pawlewicz",
        "farey.statistic",
        "geometry.parse_polygon",
        "geometry.validate",
        "geometry.Polygon",
        "geometry.diameter_bound",
        "primitive.primitive_count",
        "validate",
        "parse_polygon",
        "Polygon",
        "statistic",
    ],
)
def test_benchmark_calls_exist(name):
    home = fareylattice
    for part in name.split("."):
        home = getattr(home, part)
    assert callable(home)


def test_benchmark_builds_the_cli_parser():
    assert callable(cli._build_parser)


def test_readme_library_example():
    from fareylattice import parse_polygon, primitive_count, rank_improved, statistic, validate

    assert rank_improved(Fraction(1, 2), 4) == 4
    assert statistic(4, 4) == Fraction(1, 2)
    poly = validate(parse_polygon("-2 -2\n2 -2\n2 2\n-2 2\n"))
    assert primitive_count(poly) == 16
