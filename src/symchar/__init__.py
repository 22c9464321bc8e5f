"""Exact characteristic numbers of compact symmetric-space duals.

Rank classification of locally symmetric spaces, the total classes and
characteristic-number tables of the rank-one duals, and the
covering-transfer divisibility bounds built on them.

Importing the package loads none of its modules: each exported name is
resolved from its home module on first use (PEP 562), so a caller pays
only for the modules it touches.
"""

# home module -> the names it exports
_EXPORTS = {
    "catalog": (
        "Classification",
        "SpaceSpec",
        "classify",
        "dual_of",
        "parse_space",
        "pontrjagin_table",
        "rank_one_dual",
        "spec_string",
        "stiefel_whitney_table",
        "wall_verdict",
    ),
    "charclass": (
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
    ),
    "errors": ("SymcharError",),
    "partitions": (
        "format_partition",
        "parse_partition",
        "partitions_of",
    ),
    "tables": ("CharNumberTable",),
    "transfer": (
        "DSReport",
        "MuReport",
        "deligne_sullivan_check",
        "gl_order",
        "mu",
        "pullback_numbers",
        "solve_manifold_numbers",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
    globals()[name] = value  # later lookups do not come back here
    return value
