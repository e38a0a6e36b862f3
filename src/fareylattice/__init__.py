"""Exact Farey sequence queries and primitive lattice point counting.

The farey module answers rank and order-statistic queries on the Farey
sequence F_n in time sublinear in n; the geometry and primitive modules
count lattice points, and the coprime ones among them, in star-shaped
rational polygons; bench fits empirical growth exponents to the measured
running times. Everything is exact integer and rational arithmetic.
"""

from .bench import BenchRecord, fit_exponent, golden_x, run_grid, to_csv
from .exactmath import (
    floor_sum,
    floor_sum_affine,
    format_fraction,
    parse_fraction,
)
from .farey import (
    rank_brute,
    rank_improved,
    rank_pawlewicz,
    sieved_prefix,
    statistic,
    totient_sum,
)
from .geometry import (
    Polygon,
    PolygonError,
    contains,
    convex_hull,
    count_lattice,
    diameter_bound,
    format_polygon,
    load_polygon,
    parse_polygon,
    point_in_scaled,
    scale_down,
    validate,
)
from .primitive import (
    ImplicitTail,
    dp_term,
    phi_value,
    precompute_tail,
    primitive_brute,
    primitive_count,
    random_star_polygon,
    tail_query,
)

__version__ = "0.1.0"
