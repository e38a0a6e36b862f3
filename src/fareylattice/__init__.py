"""Exact Farey sequence queries and primitive lattice point counting.

The farey module answers rank and order-statistic queries on the Farey
sequence F_n in time sublinear in n; the geometry and primitive modules
count lattice points, and the coprime ones among them, in star-shaped
rational polygons; bench fits empirical growth exponents to the measured
running times. Everything is exact integer and rational arithmetic.

This namespace holds the four queries, the tiers the CLI offers and the
polygon I/O; every other helper is imported from its own module.
"""

from .farey import rank_brute, rank_improved, rank_pawlewicz, statistic, totient_sum
from .geometry import Polygon, PolygonError, count_lattice, load_polygon, parse_polygon, validate
from .primitive import primitive_brute, primitive_count

__version__ = "0.1.0"
