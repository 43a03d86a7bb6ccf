"""steintile: exact arithmetic for functions tiling with several subgroups or lattices.

Everything computes over exact rationals (fractions.Fraction); no floating
point enters any assertion-bearing path.
"""

from .abelian import (
    FiniteAbelianGroup,
    Subgroup,
    crt_iso,
    cyclic_subgroups,
    make_group,
    quotient,
    subgroup_from_generators,
)
from .copula import (
    CopulaMatrix,
    SupportPattern,
    construct_lmr,
    construct_nw_blocks,
    min_support_exact,
    support_lower_bound,
    transportation_feasible,
)
from .errors import CapExceededError, SteintileError, ValidationError
from .group_tiling import (
    GroupFunction,
    TilingCertificate,
    TilingFailure,
    common_fundamental_domain,
    discrete_to_continuous,
    min_support,
    min_support_bruteforce,
    multiple_construction,
    project_tile,
    tiling_level,
)
from .lattice import (
    Box,
    RationalLattice,
    box_convolution_stats,
    box_tiling_multiplicity,
    dual,
    make_lattice,
    many_relations_family,
    sum_and_intersection,
)
from .pp1d import (
    RationalPiecewisePoly,
    convolution_tile,
    convolve,
    fold,
    indicator,
    steinhaus_lb,
    support_stats,
    tiling_level_1d,
)

__version__ = "0.1.0"
