"""Exact-arithmetic toolkit for rational points on symmetric quartic
curves and Chebyshev curves: covering-map enumeration with completeness
certificates, local solvability, root numbers, 2-isogeny descent bounds,
elliptic heights, and quadratic orbit dynamics."""

__version__ = "0.1.0"

from .chebyshev import cheb_eval
from .demjanenko import build_input, determine_points, index_bound, n_window
from .descent import hasse_candidate_verdict
from .dynamics import (
    PolyMap,
    chebyshev_curve_points,
    conjecture_scan,
    orbit_tail,
    shifted_intersection,
)
from .elliptic import (
    EllipticCurve,
    canonical_height,
    canonical_height_doubling,
    height_gap_bounds,
    naive_height,
    point,
    torsion_subgroup,
)
from .exact import IntPoly, is_prime
from .quartic import SymQuartic, companion_curve
