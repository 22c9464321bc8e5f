"""Exact characteristic numbers of compact symmetric-space duals.

Rank classification of locally symmetric spaces, the total classes and
characteristic-number tables of the rank-one duals, and the
covering-transfer divisibility bounds built on them.
"""

from symchar.catalog import (
    Classification,
    SpaceSpec,
    classify,
    dual_of,
    parse_space,
    pontrjagin_table,
    rank_one_dual,
    spec_string,
    stiefel_whitney_table,
)
from symchar.charclass import (
    CharNumberTable,
    DualSpace,
    bounds_orientably,
    cayley_plane,
    complex_projective,
    pontrjagin_numbers,
    quaternionic_projective,
    sphere,
    stiefel_whitney_numbers,
    total_pontrjagin,
    total_stiefel_whitney,
)
from symchar.errors import SymcharError
from symchar.partitions import (
    SWMonomial,
    format_partition,
    parse_partition,
    partitions_of,
    sw_monomials_of,
)
from symchar.transfer import (
    DSReport,
    MuReport,
    check_cover_degree,
    deligne_sullivan_check,
    gl_order,
    mu,
    pullback_numbers,
    solve_manifold_numbers,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "SpaceSpec",
    "classify",
    "dual_of",
    "parse_space",
    "pontrjagin_table",
    "rank_one_dual",
    "spec_string",
    "stiefel_whitney_table",
    "CharNumberTable",
    "DualSpace",
    "bounds_orientably",
    "cayley_plane",
    "complex_projective",
    "pontrjagin_numbers",
    "quaternionic_projective",
    "sphere",
    "stiefel_whitney_numbers",
    "total_pontrjagin",
    "total_stiefel_whitney",
    "SymcharError",
    "SWMonomial",
    "format_partition",
    "parse_partition",
    "partitions_of",
    "sw_monomials_of",
    "DSReport",
    "MuReport",
    "check_cover_degree",
    "deligne_sullivan_check",
    "gl_order",
    "mu",
    "pullback_numbers",
    "solve_manifold_numbers",
    "__version__",
]
