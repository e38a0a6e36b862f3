import ast
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fareylattice
from fareylattice import cli, geometry, primitive
from fareylattice.cli import run

from _oracles import nonconvex_star

SQUARE22 = "-2 -2\n2 -2\n2 2\n-2 2\n"
OCTAGON_D10K = [(5000, 0), (3535, 3535), (0, 5000), (-3535, 3535), (-5000, 0), (-3535, -3535), (0, -5000), (3535, -3535)]


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square22.poly"
    path.write_text(SQUARE22)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_example(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--n", "4", "--x", "1/2")
        assert (code, out) == (0, "4\n")

    def test_zero_and_one(self, capsys):
        assert invoke(capsys, "rank", "--n", "7", "--x", "0/1")[1] == "1\n"
        assert invoke(capsys, "rank", "--n", "7", "--x", "1/1")[1] == "19\n"

    def test_algorithms_agree(self, capsys):
        outputs = set()
        for algo in ("brute", "pawlewicz", "improved"):
            code, out, _ = invoke(capsys, "rank", "--n", "50", "--x", "1/3", "--algo", algo)
            assert code == 0
            outputs.add(out)
        default = invoke(capsys, "rank", "--n", "50", "--x", "1/3")
        outputs.add(default[1])
        assert len(outputs) == 1

    def test_integer_x(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--n", "4", "--x", "1")
        assert (code, out) == (0, "7\n")


class TestStat:
    def test_example(self, capsys):
        code, out, _ = invoke(capsys, "stat", "--n", "4", "--k", "4")
        assert (code, out) == (0, "1/2\n")

    def test_endpoints(self, capsys):
        assert invoke(capsys, "stat", "--n", "4", "--k", "1")[1] == "0/1\n"
        assert invoke(capsys, "stat", "--n", "4", "--k", "7")[1] == "1/1\n"


class TestTotsum:
    def test_small(self, capsys):
        code, out, _ = invoke(capsys, "totsum", "--n", "10")
        assert (code, out) == (0, "32\n")


class TestPolygonCommands:
    def test_lattice(self, capsys, square_file):
        code, out, _ = invoke(capsys, "lattice", "--poly", square_file)
        assert (code, out) == (0, "25\n")

    def test_primitive(self, capsys, square_file):
        code, out, _ = invoke(capsys, "primitive", "--poly", square_file)
        assert (code, out) == (0, "16\n")

    def test_primitive_brute_matches(self, capsys, square_file):
        fast = invoke(capsys, "primitive", "--poly", square_file)
        brute = invoke(capsys, "primitive", "--poly", square_file, "--brute")
        assert fast == brute

    def test_primitive_tau_override(self, capsys, square_file):
        for tau in ("1", "2", "4"):
            code, out, _ = invoke(capsys, "primitive", "--poly", square_file, "--tau", tau)
            assert (code, out) == (0, "16\n")

    def test_comments_in_file(self, capsys, tmp_path):
        path = tmp_path / "c.poly"
        path.write_text("# outer square\n\n-2 -2\n2 -2\n# halfway\n2 2\n-2 2\n")
        code, out, _ = invoke(capsys, "lattice", "--poly", str(path))
        assert (code, out) == (0, "25\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["rank", "--x", "1/2"],
            ["rank", "--n", "4"],
            ["rank", "--n", "4", "--x", "1/2", "--algo", "magic"],
            ["stat", "--n", "4"],
            ["bench", "--sizes", "10,40,200,1000"],
            ["bench", "--algo", "improved,magic", "--sizes", "10,40,200,1000", "--reps", "3"],
        ],
    )
    def test_exit_one(self, capsys, argv):
        assert run(argv) == 1
        capsys.readouterr()


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--n", "4", "--x", "0.5"],
            ["rank", "--n", "4", "--x", "3/2"],
            ["rank", "--n", "4", "--x", "abc"],
            ["rank", "--n", "4", "--x=-1/2"],
            ["rank", "--n", "0", "--x", "1/2"],
            ["rank", "--n", "x", "--x", "1/2"],
            ["stat", "--n", "4", "--k", "0"],
            ["stat", "--n", "4", "--k", "8"],
            ["totsum", "--n", "-3"],
            ["bench", "--algo", "brute", "--sizes", "10,40,200", "--reps", "3"],
            ["bench", "--algo", "brute", "--sizes", "10,40,200,1000", "--reps", "2"],
            ["bench", "--algo", "brute", "--sizes", "10,40,xx,1000", "--reps", "3"],
            ["rank", "--n", "５", "--x", "１/２"],
            ["rank", "--n", "5", "--x", "１/２"],
            ["rank", "--n", "1_000", "--x", "1/2"],
            ["rank", "--n", " 5", "--x", "1/2"],
            ["rank", "--n", "+5", "--x", "1/2"],
            ["stat", "--n", "٥", "--k", "2"],
            ["totsum", "--n", "5 "],
            ["bench", "--algo", "brute", "--sizes", "10,40,200,1_000", "--reps", "3"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        assert run(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["rank", "--n", "9" * 5000, "--x", "1/2"], "--n"),
            (["rank", "--n", "10", "--x", "1/" + "9" * 5000], "--x"),
            (["stat", "--n", "4", "--k", "0" * 4301 + "1"], "--k"),
        ],
        ids=["n", "x", "k"],
    )
    def test_refuses_numbers_above_digit_limit(self, capsys, argv, name):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(name) and "DIGITS_MAX = 4300" in err
        assert "set_int_max_str_digits" not in err

    def test_polygon_coordinate_above_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.poly"
        path.write_text("1/" + "7" * 5000 + " 0\n0 1\n-1 -1\n")
        code, out, err = invoke(capsys, "lattice", "--poly", str(path))
        assert (code, out) == (2, "")
        assert "bad-coordinate" in err and "line 1" in err and "DIGITS_MAX = 4300" in err
        assert "set_int_max_str_digits" not in err

    def test_longest_vertex_lines_load(self, capsys, tmp_path):
        # the square [-1, 1]^2 with every coordinate -N/N or N/N, N of
        # DIGITS_MAX digits: four such numbers and some indent fit in LINE_MAX
        big = "9" * 4300
        path = tmp_path / "long.poly"
        path.write_text("".join(f"    {x}{big}/{big}    {y}{big}/{big}\n" for x, y in ("--", "+-", "++", "-+")))
        assert invoke(capsys, "lattice", "--poly", str(path)) == (0, "9\n", "")

    @pytest.mark.parametrize("endless", [False, True], ids=["long-comment", "dev-zero"])
    def test_refuses_line_above_limit(self, capsys, tmp_path, endless):
        # a line is read no further than LINE_MAX + 1 characters, so neither
        # an over-long comment nor a file without line breaks fills memory
        path = Path("/dev/zero") if endless else tmp_path / "long.poly"
        if not endless:
            path.write_text(SQUARE22 + "#" * (geometry.LINE_MAX + 1) + "\n")
        elif not path.exists():
            pytest.skip("no /dev/zero")
        code, out, err = invoke(capsys, "lattice", "--poly", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"line-too-long: line {1 if endless else 5}:") and "LINE_MAX = 21500" in err

    def test_digit_limit_is_inclusive(self, capsys):
        assert invoke(capsys, "rank", "--n", "0" * 4299 + "4", "--x", "1/" + "0" * 4299 + "2") == (0, "4\n", "")

    def test_refuses_small_tau_override(self, capsys, tmp_path):
        path = tmp_path / "octagon.poly"
        path.write_text("".join(f"{x} {y}\n" for x, y in OCTAGON_D10K))
        code, out, err = invoke(capsys, "primitive", "--poly", str(path), "--tau", "1")
        assert (code, out) == (2, "")
        assert "TAIL_SIDE_MAX" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--n", str(10**12), "--x", "1/2"],
            ["stat", "--n", str(10**12), "--k", "2"],
            ["totsum", "--n", str(10**12)],
        ],
    )
    def test_refuses_n_above_limit(self, capsys, argv):
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "N_MAX" in captured.err
        assert elapsed < 1

    @pytest.mark.parametrize("command", ["lattice", "primitive"])
    def test_refuses_vertices_above_limit(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setattr(geometry, "K_MAX", 4)
        path = tmp_path / "pentagon.poly"
        path.write_text(SQUARE22 + "0 -3\n")
        code = run([command, "--poly", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "too-many-vertices" in captured.err and "K_MAX = 4" in captured.err

    def test_refuses_diameter_above_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.poly"
        path.write_text(SQUARE22.replace("2", "1000000000000"))
        start = time.perf_counter()
        code = run(["primitive", "--poly", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "D_MAX" in captured.err
        assert elapsed < 1

    def test_refuses_long_table_override(self, capsys, tmp_path):
        # the octagon at D = D_MAX with tau = D would fill 10^8 + 1 table entries
        path = tmp_path / "octagon.poly"
        path.write_text("".join(f"{x * 10**4} {y * 10**4}\n" for x, y in OCTAGON_D10K))
        code, out, err = invoke(capsys, "primitive", "--poly", str(path), "--tau", str(10**8))
        assert (code, out) == (2, "")
        assert "TABLE_MAX = 7196860" in err

    def test_refuses_many_edge_sums(self, capsys, square_file, monkeypatch):
        monkeypatch.setattr(primitive, "KTAU_MAX", 4 * 3)
        assert invoke(capsys, "primitive", "--poly", square_file, "--tau", "3") == (0, "16\n", "")
        code, out, err = invoke(capsys, "primitive", "--poly", square_file, "--tau", "4")
        assert (code, out) == (2, "")
        assert "KTAU_MAX = 12" in err

    def test_refuses_many_tail_wedge_tests(self, capsys, tmp_path, monkeypatch):
        # 10^4 vertices at D = 999,582 with tau = ceil(D / TAIL_SIDE_MAX):
        # k * tau = 3.73*10^6 passes, but the tail scan would make about
        # k * D / tau = 2.68*10^7 wedge tests (tau = 1000 at D / tau = 1000
        # took 33 s), so it is refused before the tail is built
        star = nonconvex_star(random.Random(1), 10**6, 10**4)
        D = geometry.diameter_bound(star)
        tau = -(-D // primitive.TAIL_SIDE_MAX)
        assert len(star.vertices) * tau <= primitive.KTAU_MAX < len(star.vertices) * -(-D // tau)
        path = tmp_path / "star.poly"
        path.write_text("".join(f"{x} {y}\n" for x, y in star.vertices))
        built = []
        monkeypatch.setattr(primitive, "precompute_tail", lambda *args: built.append(args))
        code, out, err = invoke(capsys, "primitive", "--poly", str(path), "--tau", str(tau))
        assert (code, out, built) == (2, "", [])
        assert "KTAU_MAX = 10000000" in err and "wedge tests" in err

    def test_missing_poly_file(self, capsys, tmp_path):
        assert run(["lattice", "--poly", str(tmp_path / "nope.poly")]) == 2
        capsys.readouterr()

    def test_invalid_polygon_reports_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("1 1\n3 1\n3 3\n1 3\n")
        code = run(["primitive", "--poly", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "origin-outside" in captured.err

    def test_bad_tau(self, capsys, square_file):
        assert run(["primitive", "--poly", square_file, "--tau", "0"]) == 2
        capsys.readouterr()


class TestSelftest:
    def test_small_passes(self, capsys):
        code, out, _ = invoke(capsys, "selftest", "--scale", "small")
        assert code == 0
        assert "suites passed" in out
        assert "FAIL" not in out

    def test_medium_passes(self, capsys):
        code, out, _ = invoke(capsys, "selftest", "--scale", "medium")
        assert code == 0
        assert out.endswith("5/5 suites passed\n")

    def test_failing_suite_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rank_pawlewicz", lambda x, n: -1)
        code, out, _ = invoke(capsys, "selftest", "--scale", "small")
        assert code == 3
        assert "rank-tiers: FAIL (rank mismatch" in out
        assert out.endswith("4/5 suites passed\n")

    def test_deterministic(self, capsys):
        first = invoke(capsys, "selftest", "--seed", "5", "--scale", "small")
        second = invoke(capsys, "selftest", "--seed", "5", "--scale", "small")
        assert first == second


class TestBenchCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = invoke(
            capsys, "bench", "--algo", "brute", "--sizes", "10,40,200,1000", "--reps", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "algo,n,reps,median_ns"
        assert len(lines) == 5
        assert all(line.startswith("brute,") for line in lines[1:])

    def test_fit_line(self, capsys):
        code, out, _ = invoke(
            capsys,
            "bench", "--algo", "improved", "--sizes", "100,1000,10000,100000",
            "--reps", "3", "--fit",
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last.startswith("exponent,")
        float(last.split(",")[1])  # parses as a number

    def test_algo_list_in_order(self, capsys):
        code, out, _ = invoke(
            capsys,
            "bench", "--algo", "brute,improved", "--sizes", "10,40,200,1000",
            "--reps", "3", "--fit",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        for block, algo in zip((lines[:6], lines[6:]), ("brute", "improved")):
            assert block[0] == "algo,n,reps,median_ns"
            assert all(line.startswith(algo + ",") for line in block[1:5])
            assert block[5].startswith("exponent,")

    def test_refused_grid_writes_nothing(self, capsys):
        # brute refuses n > 10^4 only after the improved grid has run
        code, out, _ = invoke(
            capsys, "bench", "--algo", "improved,brute", "--sizes", "10,40,200,20000", "--reps", "3"
        )
        assert (code, out) == (2, "")


class TestExitCodes:
    def test_help(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: fareylattice")

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(n):
            raise RuntimeError("invariant breached")

        monkeypatch.setattr(cli, "totient_sum", broken)
        code, out, err = invoke(capsys, "totsum", "--n", "10")
        assert (code, out) == (3, "")
        assert err.startswith("internal error:") and "invariant breached" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fareylattice", "rank", "--n", "4", "--x", "1/2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "4\n"

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # dataclasses alone imports inspect, several ms of every start-up. The
        # baseline is what the other standard modules the package imports, and
        # an argparse parser, load by themselves in the same fresh process, so a
        # Python whose standard library pulls either in does not fail here.
        pkg = Path(fareylattice.__file__).parent
        stdlib = set()
        for path in pkg.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    stdlib.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    stdlib.add(node.module)
        stdlib -= {"dataclasses", "inspect"}
        code = (
            "import argparse, importlib, sys; sys.path.insert(0, sys.argv[1]); watch = {'dataclasses', 'inspect'}\n"
            "for name in sys.argv[2:]: importlib.import_module(name)\n"
            "argparse.ArgumentParser().add_subparsers().add_parser('x').add_argument('--y', type=int)\n"
            "before = watch & set(sys.modules)\n"
            "import fareylattice.cli as c; c._build_parser()\n"
            "print(sorted(watch & set(sys.modules) - before))"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", code, str(pkg.parent), *sorted(stdlib)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
