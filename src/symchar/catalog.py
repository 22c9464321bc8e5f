"""Symmetric-space families, compact duals, and the rank classifier.

A locally symmetric space is described by a family name plus integer
parameters ("SU_pq(2,3)", "SLnR(4)", "CayH").  Each family maps to its
compact dual presented as a quotient G_U / K of compact Lie groups; the
classifier then reads everything off rank arithmetic:

  rank(G_U) == rank(K)  -> Euler characteristic of the dual is |W(G_U)|/|W(K)|
                           (positive), Gauss-Bonnet forces chi(M) != 0.
                           Each family states that quotient in closed form,
                           2^e C(m, k).
  rank(G_U) >  rank(K)  -> the dual carries a free torus action of the
                           difference rank, so chi and every Pontrjagin
                           number of the dual vanish.

Complex-type spaces (TypeIV) have parallelizable duals; no rank data is
needed or reported for them.

The family table is the one place that maps a space to its dual and to its
number tables: a rank-one family carries the DualSpace (S^n, CP^n, HP^n,
CayP^2) whose numbers charclass computes, and pontrjagin_table gives the
all-zero table under a rank gap or on a parallelizable dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log10
from typing import Callable, NamedTuple

from symchar import charclass
from symchar.errors import (
    MalformedSpecError,
    SymcharError,
    UnknownFamilyError,
    UnsupportedClassError,
    UnsupportedFamilyError,
    refuse_past_digit_limit,
)


class _FactorKind(NamedTuple):
    rank: Callable
    dim: Callable
    template: str  # one "{}" per parameter


# Compact group factors, each a function of the factor's parameters.
_FACTOR_KINDS = {
    "SU": _FactorKind(lambda n: n - 1, lambda n: n * n - 1, "SU({})"),
    "SO": _FactorKind(lambda m: m // 2, lambda m: m * (m - 1) // 2, "SO({})"),
    "Sp": _FactorKind(lambda n: n, lambda n: n * (2 * n + 1), "Sp({})"),
    "U": _FactorKind(lambda n: n, lambda n: n * n, "U({})"),
    "SUxU": _FactorKind(
        lambda p, q: p + q - 1, lambda p, q: p * p + q * q - 1, "S(U{}xU{})"
    ),
    "Spin9": _FactorKind(lambda: 4, lambda: 36, "Spin(9)"),
    "F4": _FactorKind(lambda: 4, lambda: 52, "F4"),
    "T": _FactorKind(lambda n: n, lambda n: n, "U(1)^{}"),  # the torus U(1)^n
}


@dataclass(frozen=True, slots=True)
class GroupFactor:
    kind: str
    params: tuple

    def __post_init__(self) -> None:
        table = _FACTOR_KINDS.get(self.kind)
        if table is None or table.template.count("{}") != len(self.params):
            raise SymcharError(
                f"unknown group factor {self.kind!r} with parameters {self.params}"
            )

    def rank(self) -> int:
        return _FACTOR_KINDS[self.kind].rank(*self.params)

    def dim(self) -> int:
        return _FACTOR_KINDS[self.kind].dim(*self.params)

    def render(self) -> str:
        return _FACTOR_KINDS[self.kind].template.format(*self.params)


@dataclass(frozen=True, slots=True)
class CompactGroup:
    """A finite product of compact group factors (empty = trivial group)."""

    factors: tuple

    def rank(self) -> int:
        return sum(f.rank() for f in self.factors)

    def dim(self) -> int:
        return sum(f.dim() for f in self.factors)

    def render(self) -> str:
        if not self.factors:
            return "1"
        return "x".join(f.render() for f in self.factors)


@dataclass(frozen=True, slots=True)
class DualPair:
    """Compact dual G_U / K.  TypeIV spaces carry only the display name
    and the dimension."""

    gu: CompactGroup | None
    k: CompactGroup | None
    name: str
    dim: int


@dataclass(frozen=True, slots=True)
class SpaceSpec:
    family: str
    params: tuple


VERDICT_EQUAL_RANK = "EqualRank_EulerNonzero"
VERDICT_RANK_GAP = "RankGap_PontrjaginVanish"
VERDICT_PARALLELIZABLE = "Parallelizable_Vanish"
VERDICT_RANK_ONE = "RankOne"


@dataclass(frozen=True, slots=True)
class _Family:
    name: str
    arity: int
    min_params: tuple
    groups: Callable | None  # params -> (G_U factors, K factors); None for TypeIV
    aliases: tuple = ()  # short names parse_space accepts besides name
    # params -> (m, k, e) with chi(G_U/K) = 2^e C(m, k) at equal rank; None for
    # the families that never reach it
    euler: Callable | None = None
    space: Callable | None = None  # params -> DualSpace, for the rank-one families
    label: Callable | None = None  # params -> name of the dual, where "G_U/K" is not


def _factor(kind: str, *params: int) -> GroupFactor:
    return GroupFactor(kind, params)


# The dual's name is "G_U/K" rendered from the groups, unless the family
# has a DualSpace (rank one) or a label of its own.
_FAMILIES = {
    f.name: f
    for f in (
        _Family(
            "SU_pq", 2, (1, 1),
            lambda p, q: ([_factor("SU", p + q)], [_factor("SUxU", p, q)]),
            aliases=("SUpq",), euler=lambda p, q: (p + q, p, 0),
        ),
        _Family(
            "SO0_pq", 2, (1, 1),
            lambda p, q: ([_factor("SO", p + q)], [_factor("SO", p), _factor("SO", q)]),
            aliases=("SO0pq",), euler=lambda p, q: ((p + q) // 2, p // 2, 1),
        ),
        _Family(
            "SOstar_2n", 1, (2,), lambda n: ([_factor("SO", 2 * n)], [_factor("U", n)]),
            aliases=("SOstar2n", "SOstar"), euler=lambda n: (0, 0, n - 1),
        ),
        _Family(
            "Sp_nR", 1, (1,), lambda n: ([_factor("Sp", n)], [_factor("U", n)]),
            aliases=("SpnR",), euler=lambda n: (0, 0, n),
        ),
        _Family(
            "Sp_pq", 2, (1, 1),
            lambda p, q: ([_factor("Sp", p + q)], [_factor("Sp", p), _factor("Sp", q)]),
            aliases=("Sppq",), euler=lambda p, q: (p + q, p, 0),
        ),
        _Family(
            "SL_nR", 1, (2,), lambda n: ([_factor("SU", n)], [_factor("SO", n)]),
            aliases=("SLnR",), euler=lambda n: (0, 0, 1),  # equal rank at n = 2 only
        ),
        _Family(
            "SUstar_2n", 1, (2,), lambda n: ([_factor("SU", 2 * n)], [_factor("Sp", n)]),
            aliases=("SUstar2n", "SUstar"),
        ),
        _Family("TypeIV", 1, (1,), None, label=lambda d: "compact Lie group"),
        _Family(
            "RealHyperbolic_n", 1, (1,),
            lambda n: ([_factor("SO", n + 1)], [_factor("SO", n)]),
            aliases=("RHn",), euler=lambda n: (0, 0, 1), space=charclass.sphere,
        ),
        _Family(
            "ComplexHyperbolic_n", 1, (1,),
            lambda n: ([_factor("SU", n + 1)], [_factor("SUxU", 1, n)]),
            aliases=("CHn",), euler=lambda n: (n + 1, 1, 0),
            space=charclass.complex_projective,
        ),
        _Family(
            "QuaternionicHyperbolic_n", 1, (1,),
            lambda n: ([_factor("Sp", n + 1)], [_factor("Sp", 1), _factor("Sp", n)]),
            aliases=("QHn",), euler=lambda n: (n + 1, 1, 0),
            space=charclass.quaternionic_projective,
        ),
        _Family(
            "CayleyHyperbolic", 0, (),
            lambda: ([_factor("F4")], [_factor("Spin9")]),
            aliases=("CayH",), euler=lambda: (3, 1, 0), space=charclass.cayley_plane,
        ),
        _Family(
            "ConstantPositive_n", 1, (1,),
            lambda n: ([_factor("SO", n + 1)], [_factor("SO", n)]),
            aliases=("ConstPos",), euler=lambda n: (0, 0, 1), space=charclass.sphere,
        ),
        _Family(
            "Flat_n", 1, (1,), lambda n: ([_factor("T", n)], []),
            aliases=("Flat",), label=lambda n: f"T^{n}",
        ),
    )
}

# every name parse_space accepts -> canonical family name
_NAMES = {
    alias: f.name for f in _FAMILIES.values() for alias in (f.name, *f.aliases)
}

# Spaces modeled on other exceptional groups exist but are out of scope.
_EXCEPTIONAL = {"E6", "E7", "E8", "G2", "F4"}


def _family_record(spec: SpaceSpec) -> _Family:
    fam = _FAMILIES.get(spec.family)
    if fam is None:
        raise UnknownFamilyError(f"unknown family {spec.family!r}")
    if len(spec.params) != fam.arity:
        raise MalformedSpecError(
            f"{fam.name} takes {fam.arity} parameter(s), got {len(spec.params)}"
        )
    for value, minimum in zip(spec.params, fam.min_params):
        if not isinstance(value, int) or value < minimum:
            raise MalformedSpecError(
                f"{fam.name} parameters must be integers >= {fam.min_params}"
            )
    return fam


def parse_space(text: str) -> SpaceSpec:
    """Parse "SU_pq(2,3)", "SLnR(4)", "CayH" into a validated SpaceSpec."""
    s = text.strip()
    name, sep, rest = s.partition("(")
    name = name.strip()
    if sep:
        if not rest.endswith(")"):
            raise MalformedSpecError(f"unbalanced parentheses in {text!r}")
        body = rest[:-1].strip()
        if not body:
            raise MalformedSpecError(f"empty parameter list in {text!r}")
        try:
            params = tuple(int(tok.strip()) for tok in body.split(","))
        except ValueError:
            raise MalformedSpecError(
                f"parameters must be integers in {text!r}"
            ) from None
    else:
        params = ()
    if not name:
        raise MalformedSpecError(f"missing family name in {text!r}")
    if name in _EXCEPTIONAL:
        raise UnsupportedFamilyError(
            f"unsupported family {name!r}: exceptional spaces other than "
            "CayleyHyperbolic are out of scope"
        )
    canonical = _NAMES.get(name)
    if canonical is None:
        raise UnknownFamilyError(f"unknown family {name!r}")
    spec = SpaceSpec(canonical, params)
    _family_record(spec)  # arity and range checks
    return spec


def spec_string(spec: SpaceSpec) -> str:
    if not spec.params:
        return spec.family
    return f"{spec.family}({','.join(str(p) for p in spec.params)})"


def _resolve(spec: SpaceSpec) -> tuple:
    """(family record, dual pair) of a spec."""
    fam = _family_record(spec)
    if fam.groups is None:  # TypeIV(d) has the dimension of its group
        return fam, DualPair(None, None, fam.label(*spec.params), spec.params[0])
    gu_factors, k_factors = fam.groups(*spec.params)
    gu, k = CompactGroup(tuple(gu_factors)), CompactGroup(tuple(k_factors))
    if fam.space is not None:
        name = fam.space(*spec.params).render()
    elif fam.label is not None:
        name = fam.label(*spec.params)
    else:
        name = f"{gu.render()}/{k.render()}"
    return fam, DualPair(gu, k, name, gu.dim() - k.dim())


def dual_of(spec: SpaceSpec) -> DualPair:
    return _resolve(spec)[1]


def _two_power_binomial(m: int, k: int, e: int) -> int:
    """2^e C(m, k): the Euler characteristic |W(G_U)|/|W(K)| of an
    equal-rank dual.  Refused with TooLargeError before it is computed when
    2^e, or C(m, k) >= (m/k)^k with k = min(k, m - k), is certain to pass
    Python's int-to-text limit."""
    refuse_past_digit_limit(e, log10(2), 0)
    k = min(k, m - k)
    if k:
        refuse_past_digit_limit(k, log10(m) - log10(k), 0)
    return comb(m, k) << e


@dataclass(frozen=True, slots=True)
class Classification:
    family: str
    params: tuple
    dual: str
    dim: int
    rank_gu: int | None
    rank_k: int | None
    toral_rank: int | None
    verdict: str
    euler_char_dual: int
    minvol_positive: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": list(self.params),
            "dual": self.dual,
            "dim": self.dim,
            "rank_gu": self.rank_gu,
            "rank_k": self.rank_k,
            "toral_rank": self.toral_rank,
            "verdict": self.verdict,
            "euler_char_dual": self.euler_char_dual,
            "minvol_positive": self.minvol_positive,
        }


def classify(spec: SpaceSpec) -> Classification:
    fam, pair = _resolve(spec)
    if pair.gu is None:
        return Classification(
            spec.family, spec.params, pair.name, pair.dim,
            None, None, None, VERDICT_PARALLELIZABLE, 0, False,
        )
    rank_gu = pair.gu.rank()
    rank_k = pair.k.rank()
    toral = rank_gu - rank_k
    if toral < 0:
        raise SymcharError("dual pair has rank(K) > rank(G_U)")
    euler = _two_power_binomial(*fam.euler(*spec.params)) if toral == 0 else 0
    if fam.space is not None:
        verdict = VERDICT_RANK_ONE
    elif toral == 0:
        verdict = VERDICT_EQUAL_RANK
    else:
        verdict = VERDICT_RANK_GAP
    return Classification(
        spec.family, spec.params, pair.name, pair.dim,
        rank_gu, rank_k, toral, verdict, euler, euler > 0,
    )


def rank_one_dual(spec: SpaceSpec) -> charclass.DualSpace:
    """The compact dual S^n, CP^n, HP^n or CayP^2 of a rank-one family."""
    fam = _family_record(spec)
    if fam.space is None:
        raise UnsupportedClassError(
            "characteristic classes are computed for rank-one duals only"
        )
    return fam.space(*spec.params)


def pontrjagin_table(spec: SpaceSpec) -> charclass.CharNumberTable:
    """Pontrjagin numbers of the compact dual: computed for a rank-one
    dual, all zero under a rank gap or on a parallelizable dual.  Decided
    from the family and the ranks: the Euler characteristic is not needed."""
    fam, pair = _resolve(spec)
    if fam.space is not None:
        return charclass.pontrjagin_numbers(fam.space(*spec.params))
    if pair.gu is not None and pair.gu.rank() == pair.k.rank():
        raise UnsupportedClassError(
            "Pontrjagin numbers of higher-rank equal-rank duals are not computed"
        )
    # every number vanishes: the table of the total class 1, as on S^dim
    return charclass.pontrjagin_numbers(charclass.sphere(pair.dim))


def stiefel_whitney_table(spec: SpaceSpec) -> charclass.CharNumberTable:
    """Stiefel-Whitney numbers of a rank-one dual (S^n and CP^n only)."""
    return charclass.stiefel_whitney_numbers(rank_one_dual(spec))
