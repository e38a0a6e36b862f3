import math
from fractions import Fraction

import pytest

from fareylattice.bench import ALGOS, fit_exponent, golden_x, run_grid, to_csv


class TestGoldenX:
    def test_default_is_deep_and_below_one(self):
        x = golden_x()
        assert 0 < x < 1
        assert abs(float(x) - (math.sqrt(5) - 1) / 2) < 1e-12

    def test_continued_fraction_is_all_ones(self):
        x = golden_x()
        quotients = []
        while x:
            inv = 1 / x
            quotients.append(inv.numerator // inv.denominator)
            x = inv - quotients[-1]
        assert len(quotients) == 44
        assert all(q == 1 for q in quotients[:-1])
        assert quotients[-1] == 2


class TestRunGrid:
    def test_known_algorithms(self):
        assert set(ALGOS) == {"brute", "pawlewicz", "improved"}

    def test_small_real_grid(self):
        sizes = [100, 400, 1600, 6400, 25600]
        rows = run_grid("improved", sizes, reps=3)
        assert [n for n, _ in rows] == sizes
        assert all(median_ns > 0 for _, median_ns in rows)

    @pytest.mark.parametrize(
        "algo,sizes,reps",
        [
            ("nope", [10, 40, 200, 1000], 3),
            ("brute", [10, 40, 200], 3),
            ("brute", [10, 40, 40, 1000], 3),
            ("brute", [10, 40, 200, 1000], 2),
            ("brute", [10, 20, 40, 80], 3),  # span under two decades
        ],
    )
    def test_rejects(self, algo, sizes, reps):
        with pytest.raises(ValueError):
            run_grid(algo, sizes, reps=reps)


class TestFitExponent:
    def test_linear(self):
        rows = [(16**k, 7 * 16**k) for k in range(1, 7)]
        assert abs(fit_exponent(rows) - 1.0) < 1e-9

    def test_three_quarters(self):
        # n = 16^k makes n^(3/4) = 8^k exact in integers
        rows = [(16**k, 5 * 8**k) for k in range(1, 8)]
        assert abs(fit_exponent(rows) - 0.75) < 1e-6

    def test_two_thirds(self):
        rows = [(64**k, 3 * 16**k) for k in range(1, 7)]
        assert abs(fit_exponent(rows) - Fraction(2, 3)) < 1e-6

    def test_refuses_short_series(self):
        rows = [(16**k, 8**k) for k in range(1, 4)]
        with pytest.raises(ValueError):
            fit_exponent(rows)


class TestToCsv:
    def test_shape(self):
        text = to_csv("improved", 3, [(100, 1111), (10000, 22222)])
        lines = text.strip().splitlines()
        assert lines[0] == "algo,n,reps,median_ns"
        assert lines[1] == "improved,100,3,1111"
        assert lines[2] == "improved,10000,3,22222"
