"""Exact-arithmetic toolkit for rational points on symmetric quartic
curves and Chebyshev curves: covering-map enumeration with completeness
certificates, local solvability, root numbers, 2-isogeny descent bounds,
elliptic heights, and quadratic orbit dynamics."""

__version__ = "0.1.0"

from .chebyshev import ChebPoly, cheb, cheb_eval, special_values
from .demjanenko import (
    DemjanenkoInput,
    PointCertificate,
    build_input,
    determine_points,
    enumerate_and_pull_back,
    equal_index_points,
    index_bound,
    n_window,
)
from .descent import (
    HomSpace,
    hasse_candidate_verdict,
    homspace_locally_solvable,
    family_space,
    quartic_residue_criterion,
    root_number,
    selmer_rank_bound,
)
from .dynamics import (
    ChebCurve,
    PolyMap,
    chebyshev_curve_points,
    conjecture_scan,
    integral_pullback,
    nonsingular,
    orbit_tail,
    preperiodic_points,
    shifted_intersection,
)
from .elliptic import (
    INF,
    ECPoint,
    EllipticCurve,
    canonical_height,
    canonical_height_doubling,
    count_points_mod_p,
    height_difference_bound,
    naive_height,
    point,
    torsion_subgroup,
)
from .exact import (
    IntPoly,
    is_prime,
    is_squarefree,
    legendre_symbol,
    p_valuation,
    rational_sqrt,
    roots_mod_p,
)
from .localglobal import (
    count_smooth_points_quartic_Fq,
    everywhere_locally_solvable,
    real_solvable,
    special_place_checks,
)
from .quartic import (
    QuarticPoint,
    SymQuartic,
    companion_curve,
    kappa,
    phi,
    phi_preimages,
    qpoint,
)
