"""Characteristic classes and numbers of the rank-one compact duals.

Total Pontrjagin classes, written in one generator u of the cohomology ring
Z[u]/(u^(T+1)):

  S^n:    1                               (u in degree n, T = 1)
  CP^n:   (1 + a^2)^(n+1)                 (a in degree 2, T = n)
  HP^n:   (1 + u)^(2n+2) * (1 + 4u)^(-1)  (u in degree 4, T = n)
  CayP^2: 1 + 6u + 39u^2                  (u in degree 8, T = 2)

In closed form, a^(2j) has coefficient C(n+1, j) in CP^n's class and
HP^n's has c_0 = 1, c_k = C(2n+2, k) - 4 c_(k-1): O(n) integer steps each.
The largest coefficient grows with n and first passes MAX_DIGITS digits at
CP^14291 and HP^7146, so one comparison of n with _LARGEST_N is both the
cost bound and the exact digit ceiling.
The CayP^2 coefficients are rigid up to the sign of the degree-8 term;
CAYLEY_PLANE_NOTE states the choice, and p-class prints it.
By Wu's formula every rank-one dual has total Stiefel-Whitney class
w = (1 + u)^(T+1) mod 2, whose u^j term is 1 iff the bits of j are bits of
T + 1 (Lucas); on S^n, where u^2 = 0, w = 1 (Milnor-Stasheff, section 11;
Borel-Hirzebruch 1958).  It is applied to S^n and CP^n; HP^n and CayP^2 are
still refused with UnsupportedClassError.

A characteristic number is the coefficient of the top generator power in a
product of class components; the fundamental class is normalized so that
the top power of the generator evaluates to 1.  With one generator u of
degree g, the degree-d component of a total class c_0 + c_1 u + ... is the
single monomial c_(d/g) u^(d/g), or 0 when g does not divide d.  So a
number is a product of coefficients: p_I = prod over i in I of c_(4i/g),
and w_1^r1 ... w_n^rn = prod of c_(i/g)^ri mod 2 (Milnor-Stasheff,
Characteristic Classes, sections 15-16).

A table, a tables.CharNumberTable, is one walk over the partitions
(partitions.walk_runs) in _numbers: a run of part k taken r times
contributes its key text and a coefficient power, "k,...,k" and c_(4k/g)^r
appended for Pontrjagin numbers, tables.sw_factor(k, r) and c_(k/g)^r, 0 or
1, prepended for SW monomials, whose indices ascend.
Each entry extends its parent prefix by one run, or by a finished tail of
2s and 1s that the walk builds once, so it costs one join and one product.
A table over the partitions of more than MAX_WEIGHT is refused up front,
before the total class is computed, and a DualSpace whose dimension has
more than MAX_DIGITS digits when it is made: no result has a longer integer.
Only the table builders and tables.CharNumberTable.from_json_dict use
partitions, so they import it: p-class never loads it.  The keys are written here and
read back through partitions.parse_partition, format_partition and
parse_monomial.  CharNumberTable, PONTRJAGIN and SW live in tables, so
transfer and a table read from JSON never load this module, and catalog
imports it only once a call needs a DualSpace: classify and dual never
load it.
"""

from collections import namedtuple
from itertools import accumulate

from symchar.errors import (
    DimensionMismatchError,
    SymcharError,
    TooLargeError,
    UnsupportedClassError,
    check_digits,
    past_digit_limit,
)
from symchar.tables import PONTRJAGIN, SW, CharNumberTable, sw_factor

SPHERE = "sphere"
COMPLEX_PROJECTIVE = "complex-projective"
QUATERNIONIC_PROJECTIVE = "quaternionic-projective"
CAYLEY_PLANE = "cayley-plane"

BOUNDS = "bounds"
DOES_NOT_BOUND = "does_not_bound"
INSUFFICIENT_DATA = "insufficient_data"


# kind -> (symbol, n -> (degree of the generator u, top surviving power of u))
_GEOMETRY = {
    SPHERE: ("S", lambda n: (n, 1)),
    COMPLEX_PROJECTIVE: ("CP", lambda n: (2, n)),
    QUATERNIONIC_PROJECTIVE: ("HP", lambda n: (4, n)),
    CAYLEY_PLANE: ("CayP", lambda n: (8, 2)),
}


class DualSpace(namedtuple("DualSpace", "kind n")):
    """A rank-one compact dual: S^n, CP^n, HP^n, or CayP^2 (kind a str)."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int):
        if kind not in _GEOMETRY:
            raise SymcharError(f"unknown dual space kind {kind!r}")
        if type(n) is not int:  # a bool would render as "S^True"
            raise SymcharError(f"dual space dimension must be an integer, got {n!r}")
        if n < 1 or (kind == CAYLEY_PLANE and n != 2):
            raise SymcharError(
                f"no dual space {_GEOMETRY[kind][0]}^{n}: n must be >= 1, "
                "and 2 for CayP"
            )
        space = super().__new__(cls, kind, n)
        check_digits(space.real_dimension)  # which bounds every integer derived from n
        return space

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__, and _replace calls it
        return cls(*iterable)

    def _shape(self) -> tuple:
        return _GEOMETRY[self.kind][1](self.n)

    @property
    def real_dimension(self) -> int:
        degree, top = self._shape()
        return degree * top

    def render(self) -> str:
        return f"{_GEOMETRY[self.kind][0]}^{self.n}"


def sphere(n: int) -> DualSpace:
    return DualSpace(SPHERE, n)


def complex_projective(n: int) -> DualSpace:
    return DualSpace(COMPLEX_PROJECTIVE, n)


def quaternionic_projective(n: int) -> DualSpace:
    return DualSpace(QUATERNIONIC_PROJECTIVE, n)


def cayley_plane() -> DualSpace:
    return DualSpace(CAYLEY_PLANE, 2)


class TotalClass(namedtuple("TotalClass", "generator_degree truncation_top coefficients")):
    """A total class: a tuple of coefficients of u^0 .. u^T, u in generator_degree."""

    __slots__ = ()


def _binomials(m: int, count: int) -> list:
    """C(m, 0) .. C(m, count - 1), each by one multiply and one division."""
    row = [1]
    for k in range(1, count):
        row.append(row[-1] * (m - k + 1) // k)
    return row


_LARGEST_N = {COMPLEX_PROJECTIVE: 14_290, QUATERNIONIC_PROJECTIVE: 7_145}

CAYLEY_PLANE_NOTE = (
    "degree-8 coefficient sign fixed positive; the class is then "
    "pinned by its squared middle number 36 and top number 39"
)


def total_pontrjagin(space: DualSpace) -> TotalClass:
    """Total Pontrjagin class in closed form.  A CP^n or HP^n class with a
    coefficient of more than MAX_DIGITS digits is refused with TooLargeError
    before it is computed."""
    degree, top = space._shape()
    n = space.n
    if n > _LARGEST_N.get(space.kind, n):
        raise past_digit_limit()
    if space.kind == SPHERE:
        coefficients = (1, 0)
    elif space.kind == COMPLEX_PROJECTIVE:
        row = _binomials(n + 1, n // 2 + 1)
        coefficients = tuple(0 if j % 2 else row[j // 2] for j in range(top + 1))
    elif space.kind == QUATERNIONIC_PROJECTIVE:
        row = _binomials(2 * n + 2, n + 1)
        coefficients = tuple(accumulate(row, lambda c, binomial: binomial - 4 * c))
    else:
        coefficients = (1, 6, 39)  # CAYLEY_PLANE_NOTE
    return TotalClass(degree, top, coefficients)


def _require_sw(space: DualSpace) -> None:
    if space.kind not in (SPHERE, COMPLEX_PROJECTIVE):
        raise UnsupportedClassError(
            f"Stiefel-Whitney classes are unsupported for {space.render()}"
        )


def total_stiefel_whitney(space: DualSpace) -> TotalClass:
    """Total SW class mod 2 by Wu's formula, for spheres, and for CP^n up
    to the largest n of its Pontrjagin class."""
    _require_sw(space)
    if space.n > _LARGEST_N.get(space.kind, space.n):
        raise TooLargeError(f"classes of CP^n are computed for n <= {_LARGEST_N[space.kind]}")
    degree, top = space._shape()
    bits = top + 1  # Wu: w = (1 + u)^(T+1), whose u^j term is C(T+1, j) mod 2
    return TotalClass(degree, top, tuple(int(j & bits == j) for j in range(top + 1)))


def _numbers(kind, space, total, unit, run, sep, prepend=False) -> CharNumberTable:
    """The table of one kind over the partitions of dim/unit: a run of part
    k taken r times is spelled run(k, r) and valued c_(unit*k)^r, c_d the
    coefficient of the total class total(space) in degree d."""
    from symchar.partitions import check_weight, walk_runs

    dim = space.real_dimension
    if dim % unit:
        return CharNumberTable(kind, dim, {}, reason=f"dimension-not-multiple-of-{unit}")
    check_weight(dim // unit)  # before the class, which costs O(n) products
    g, _, coefficients = total(space)
    c = [0 if d % g else coefficients[d // g] for d in range(dim + 1)]
    entries = walk_runs(dim // unit, lambda k, r: (run(k, r), c[unit * k] ** r), sep, prepend)
    return CharNumberTable(kind, dim, entries)


def pontrjagin_numbers(space: DualSpace) -> CharNumberTable:
    """All Pontrjagin numbers p_I, I ranging over partitions of dim/4."""
    return _numbers(
        PONTRJAGIN, space, total_pontrjagin, 4, lambda k, r: ",".join([str(k)] * r), ","
    )


def stiefel_whitney_numbers(space: DualSpace) -> CharNumberTable:
    """All SW numbers, indexed by degree-dim monomials in w_1 .. w_dim."""
    _require_sw(space)  # HP^n and CayP^2 are unsupported at any size
    return _numbers(SW, space, total_stiefel_whitney, 1, sw_factor, " ", prepend=True)


def bounds_orientably(
    p_table: CharNumberTable, sw_table: CharNumberTable | None
) -> str:
    """Wall's criterion: a closed orientable manifold bounds orientably
    iff all its Pontrjagin and Stiefel-Whitney numbers vanish.

    Pass sw_table=None when the SW side is unknown; the verdict is then
    either DOES_NOT_BOUND (some Pontrjagin number is nonzero) or
    INSUFFICIENT_DATA.
    """
    if p_table.kind != PONTRJAGIN:
        raise SymcharError("first table must hold Pontrjagin numbers")
    if sw_table is not None:
        if sw_table.kind != SW:
            raise SymcharError("second table must hold Stiefel-Whitney numbers")
        if sw_table.dimension != p_table.dimension:
            raise DimensionMismatchError(
                "Pontrjagin and Stiefel-Whitney tables disagree on dimension"
            )
    if not p_table.all_zero():
        return DOES_NOT_BOUND
    if sw_table is None:
        return INSUFFICIENT_DATA
    if not sw_table.all_zero():
        return DOES_NOT_BOUND
    return BOUNDS
