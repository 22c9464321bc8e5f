"""Symmetric-space families, compact duals, and the rank classifier.

A locally symmetric space is described by a family name plus integer
parameters ("SU_pq(2,3)", "SLnR(4)", "CayH"): a SpaceSpec, which checks
them when it is made, so no call that takes one checks it again.  Each
family maps to its compact dual presented as a quotient G_U / K of
compact Lie groups; the classifier then reads everything off rank
arithmetic:

  rank(G_U) == rank(K)  -> Euler characteristic of the dual is |W(G_U)|/|W(K)|
                           (positive), Gauss-Bonnet forces chi(M) != 0.
                           Each family states that quotient in closed form,
                           2^e C(m, k).
  rank(G_U) >  rank(K)  -> the maximal torus of G_U acts on the dual without
                           fixed points, so chi and, by localization (Bott
                           1967), every Pontrjagin number vanish; not every
                           SW number: SU(3)/SO(3) has w2 w3 = 1.

Each family states its dual in closed form: the dimension and the two
ranks, the texts of G_U and K, and chi at equal rank.  The texts are
rendered only by dual_of and for the name "G_U/K" of a family without a
label, so classify of RHn(n) answers where SO(n+1) has too many digits to
render.

Complex-type spaces (TypeIV) have parallelizable duals; no rank data is
needed or reported for them.

The family table is the one place that maps a space to its dual and to its
number tables, and _dual_model decides each spec's model once: the verdict
the ranks give (RankOne for a rank-one family) and, apart, the (kind, n) of
a rank-one family's DualSpace (S^n, CP^n, HP^n, CayP^2), whose numbers
charclass computes.  classify, dual_of and pontrjagin_table all read that
one model.  A rank-one row names its dual with a label, so classify and
dual_of build no DualSpace and never load charclass: rank_one_dual and the
table calls import it, each only after its own refusals.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, log10

from symchar.errors import (
    MAX_DIGITS,
    TEN_TO_MAX_DIGITS,
    MalformedSpecError,
    UnknownFamilyError,
    UnsupportedClassError,
    UnsupportedFamilyError,
    check_digits,
    quote,
    read_int,
    refuse_past_digit_limit,
    within_digit_limit,
)


class DualPair(namedtuple("DualPair", "family params dual gu k dim rank_gu rank_k")):
    """A space's family and parameters and its compact dual G_U / K: the
    dual's name, each group as text ("SU(5)", "1" for the trivial group)
    and its int dimension and ranks.  TypeIV spaces carry no group texts
    and no ranks."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The fields in sorted key order, params as a list."""
        return {
            "dim": self.dim, "dual": self.dual, "family": self.family, "gu": self.gu,
            "k": self.k, "params": list(self.params), "rank_gu": self.rank_gu,
            "rank_k": self.rank_k,
        }


class SpaceSpec(namedtuple("SpaceSpec", "family params")):
    """A known family (str) and its parameters: a tuple of exact ints, each
    in its range."""

    __slots__ = ()

    def __new__(cls, family: str, params: tuple):
        fam = _FAMILIES.get(family)
        if fam is None:
            named = (quote(family) if isinstance(family, str)
                     else f"of type {type(family).__name__}")
            raise UnknownFamilyError(f"unknown family {named}")
        arity = len(fam.min_params)
        if len(params) != arity:
            raise MalformedSpecError(f"{fam.name} takes {arity} parameter(s), got {len(params)}")
        for value, minimum in zip(params, fam.min_params):
            # exact ints only: a bool (True == 1, with the same hash) or another
            # int subclass would render as its own text, and classify's memo
            # would answer it from the plain int's entry
            if type(value) is not int or value < minimum:
                raise MalformedSpecError(
                    f"{fam.name} parameters must be integers >= {fam.min_params}"
                )
            if value >= TEN_TO_MAX_DIGITS:
                raise MalformedSpecError(
                    f"{fam.name} parameters must have at most {MAX_DIGITS} digits"
                )
        return super().__new__(cls, family, tuple(params))

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__, and _replace calls it
        return cls(*iterable)


VERDICT_EQUAL_RANK = "EqualRank_EulerNonzero"
VERDICT_RANK_GAP = "RankGap_PontrjaginVanish"
VERDICT_PARALLELIZABLE = "Parallelizable_Vanish"
VERDICT_RANK_ONE = "RankOne"


class _Family(namedtuple("_Family", "name min_params sizes texts aliases euler space label",
                         defaults=((), None, None, None))):
    """name: the canonical family name
    min_params: one minimum per parameter, a tuple
    sizes: params -> (dim, rank(G_U), rank(K)) of the dual, rank(G_U) >=
        rank(K) (classify does not check it), the ranks None for TypeIV
    texts: params -> (G_U text, K text), each parameter derived from the
        spec's (p+q, 2n, n+1) checked with check_digits before it is
        rendered; None for TypeIV
    aliases: short names parse_space accepts besides name, a tuple
    euler: params -> (m, k, e), chi(G_U/K) = 2^e C(m, k) at equal rank, or None
    space: params -> (kind, n), the fields of a rank-one family's
        charclass.DualSpace, which only rank_one_dual and pontrjagin_table
        build; None for the other families
    label: params -> name of the dual, where "G_U/K" is not; a rank-one
        row's is its DualSpace's render(), which tests pin"""

    __slots__ = ()


# S^n is the dual of RealHyperbolic_n and of ConstantPositive_n: one row.
_REAL_HYPERBOLIC = _Family(
    "RealHyperbolic_n", (1,), lambda n: (n, (n + 1) // 2, n // 2),
    lambda n: (f"SO({check_digits(n + 1)})", f"SO({n})"),
    aliases=("RHn",), euler=lambda n: (0, 0, 1),
    space=lambda n: ("sphere", n), label=lambda n: f"S^{n}",
)

# The dual's name is "G_U/K" rendered from the texts, unless the family
# has a label of its own.
_FAMILIES = {
    f.name: f
    for f in (
        _Family(
            "SU_pq", (1, 1),
            lambda p, q: (2 * p * q, p + q - 1, p + q - 1),
            lambda p, q: (f"SU({check_digits(p + q)})", f"S(U{p}xU{q})"),
            aliases=("SUpq",), euler=lambda p, q: (p + q, p, 0),
        ),
        _Family(
            "SO0_pq", (1, 1),
            lambda p, q: (p * q, (p + q) // 2, p // 2 + q // 2),
            lambda p, q: (f"SO({check_digits(p + q)})", f"SO({p})xSO({q})"),
            aliases=("SO0pq",), euler=lambda p, q: ((p + q) // 2, p // 2, 1),
        ),
        _Family(
            "SOstar_2n", (2,), lambda n: (n * (n - 1), n, n),
            lambda n: (f"SO({check_digits(2 * n)})", f"U({n})"),
            aliases=("SOstar2n", "SOstar"), euler=lambda n: (0, 0, n - 1),
        ),
        _Family(
            "Sp_nR", (1,), lambda n: (n * (n + 1), n, n),
            lambda n: (f"Sp({n})", f"U({n})"),
            aliases=("SpnR",), euler=lambda n: (0, 0, n),
        ),
        _Family(
            "Sp_pq", (1, 1),
            lambda p, q: (4 * p * q, p + q, p + q),
            lambda p, q: (f"Sp({check_digits(p + q)})", f"Sp({p})xSp({q})"),
            aliases=("Sppq",), euler=lambda p, q: (p + q, p, 0),
        ),
        _Family(
            "SL_nR", (2,), lambda n: ((n - 1) * (n + 2) // 2, n - 1, n // 2),
            lambda n: (f"SU({n})", f"SO({n})"),
            aliases=("SLnR",), euler=lambda n: (0, 0, 1),  # equal rank at n = 2 only
        ),
        _Family(
            "SUstar_2n", (2,), lambda n: ((2 * n + 1) * (n - 1), 2 * n - 1, n),
            lambda n: (f"SU({check_digits(2 * n)})", f"Sp({n})"),
            aliases=("SUstar2n", "SUstar"),
        ),
        _Family(
            "TypeIV", (1,), lambda d: (d, None, None), None,
            label=lambda d: "compact Lie group",
        ),
        _REAL_HYPERBOLIC,
        _Family(
            "ComplexHyperbolic_n", (1,), lambda n: (2 * n, n, n),
            lambda n: (f"SU({check_digits(n + 1)})", f"S(U1xU{n})"),
            aliases=("CHn",), euler=lambda n: (n + 1, 1, 0),
            space=lambda n: ("complex-projective", n), label=lambda n: f"CP^{n}",
        ),
        _Family(
            "QuaternionicHyperbolic_n", (1,), lambda n: (4 * n, n + 1, n + 1),
            lambda n: (f"Sp({check_digits(n + 1)})", f"Sp(1)xSp({n})"),
            aliases=("QHn",), euler=lambda n: (n + 1, 1, 0),
            space=lambda n: ("quaternionic-projective", n), label=lambda n: f"HP^{n}",
        ),
        _Family(
            "CayleyHyperbolic", (), lambda: (16, 4, 4), lambda: ("F4", "Spin(9)"),
            aliases=("CayH",), euler=lambda: (3, 1, 0),
            space=lambda: ("cayley-plane", 2), label=lambda: "CayP^2",
        ),
        _REAL_HYPERBOLIC._replace(name="ConstantPositive_n", aliases=("ConstPos",)),
        _Family(
            "Flat_n", (1,), lambda n: (n, n, 0), lambda n: (f"U(1)^{n}", "1"),
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


def _parse_space(text: str) -> SpaceSpec:
    """parse_space of any text, computed.  A parameter of more than
    MAX_DIGITS digits is read as +-TEN_TO_MAX_DIGITS, so SpaceSpec refuses
    it in its own order: arity, minimum, then digits."""
    s = text.strip()
    name, sep, rest = s.partition("(")
    name = name.strip()
    if sep:
        if not rest.endswith(")"):
            raise MalformedSpecError(f"unbalanced parentheses in {quote(text)}")
        body = rest[:-1].strip()
        if not body:
            raise MalformedSpecError(f"empty parameter list in {quote(text)}")
        # a parameter of more than MAX_DIGITS digits needs a text of as many
        # characters; int() alone does not strip U+001C..U+001F, so strip each
        long = len(body) > MAX_DIGITS
        try:
            params = tuple(map(read_int if long else int, map(str.strip, body.split(","))))
        except ValueError:
            raise MalformedSpecError(
                f"parameters must be integers in {quote(text)}"
            ) from None
    else:
        params = ()
    if not name:
        raise MalformedSpecError(f"missing family name in {quote(text)}")
    if name in _EXCEPTIONAL:
        raise UnsupportedFamilyError(
            f"unsupported family {quote(name)}: exceptional spaces other than "
            "CayleyHyperbolic are out of scope"
        )
    canonical = _NAMES.get(name)
    if canonical is None:
        raise UnknownFamilyError(f"unknown family {quote(name)}")
    return SpaceSpec(canonical, params)


# The size of each of the two memos, parse_space's and classify's: at most
# this many entries are kept, least recently used first out.
CLASSIFY_MEMO_SIZE = 1024
# parse_space's memo takes a plain str of at most this many characters,
# which bounds a full memo's memory.
_PARSE_MEMO_MAX_CHARS = 64
_parse_memo = lru_cache(maxsize=CLASSIFY_MEMO_SIZE)(_parse_space)


def parse_space(text: str) -> SpaceSpec:
    """Parse "SU_pq(2,3)", "SLnR(4)", "CayH" into a SpaceSpec.
    A text of at most _PARSE_MEMO_MAX_CHARS characters is memoized, so a
    repeated text gets the same SpaceSpec object; errors are not stored.
    Any other input (a longer text, a str subclass, bytes) is parsed each
    time, with the same errors."""
    if type(text) is str and len(text) <= _PARSE_MEMO_MAX_CHARS:
        return _parse_memo(text)
    return _parse_space(text)


def spec_string(spec: SpaceSpec) -> str:
    if not spec.params:
        return spec.family
    return f"{spec.family}({','.join(str(p) for p in spec.params)})"


def _dual_model(fam: _Family, params: tuple) -> tuple:
    """(name, dim, rank_gu, rank_k, verdict, space) of a family's dual, its
    dimension not yet checked.  The verdict is RankOne for a rank-one
    family, and space the (kind, n) of its DualSpace, not yet built; else
    the verdict is the one its ranks give, and space is None.  Only a name
    "G_U/K" renders the texts."""
    dim, rank_gu, rank_k = fam.sizes(*params)
    name = fam.label(*params) if fam.label is not None else "/".join(fam.texts(*params))
    if fam.space is not None:
        return name, dim, rank_gu, rank_k, VERDICT_RANK_ONE, fam.space(*params)
    if rank_gu is None:
        verdict = VERDICT_PARALLELIZABLE
    elif rank_gu == rank_k:
        verdict = VERDICT_EQUAL_RANK
    else:
        verdict = VERDICT_RANK_GAP
    return name, dim, rank_gu, rank_k, verdict, None


def dual_of(spec: SpaceSpec) -> DualPair:
    fam = _FAMILIES[spec.family]
    name, dim, rank_gu, rank_k, _, _ = _dual_model(fam, spec.params)
    gu, k = (None, None) if fam.texts is None else fam.texts(*spec.params)
    return DualPair(*spec, name, gu, k, check_digits(dim), rank_gu, rank_k)


def _two_power_binomial(m: int, k: int, e: int) -> int:
    """2^e C(m, k): the Euler characteristic |W(G_U)|/|W(K)| of an
    equal-rank dual.  Computed at once when m + e bits bound it, since
    C(m, k) <= 2^m.  Past that it is refused with TooLargeError before it
    is computed when 2^e, or C(m, k) >= (m/k)^k with k = min(k, m - k), is
    certain to pass MAX_DIGITS digits, and as soon as it is computed when
    it does."""
    if within_digit_limit(m + e):
        return comb(m, k) << e
    refuse_past_digit_limit(e, log10(2), 0)
    k = min(k, m - k)
    if k:
        refuse_past_digit_limit(k, log10(m) - log10(k), 0)
    return check_digits(comb(m, k) << e)


class Classification(namedtuple("Classification", "family params dual dim rank_gu rank_k "
                                "toral_rank verdict euler_char_dual minvol_positive")):
    """The dual's name and int dimension, ranks and their difference (None
    on a parallelizable dual), verdict and Euler characteristic of a space."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The fields in sorted key order, params as a list."""
        return {
            "dim": self.dim, "dual": self.dual, "euler_char_dual": self.euler_char_dual,
            "family": self.family, "minvol_positive": self.minvol_positive,
            "params": list(self.params), "rank_gu": self.rank_gu, "rank_k": self.rank_k,
            "toral_rank": self.toral_rank, "verdict": self.verdict,
        }


# classify's memo holds CLASSIFY_MEMO_SIZE results.  Only a spec whose
# parameters sum to at most _MEMO_MAX_PARAM_SUM is stored: its Euler
# characteristic is below 2^(sum + 2) for every family (C(m, k) <= 2^m),
# which bounds the integers and texts an entry holds, and so the memory of
# a full memo.
_MEMO_MAX_PARAM_SUM = 2048


def _classification(spec: SpaceSpec) -> Classification:
    """classify of a spec, computed."""
    family, params = spec
    fam = _FAMILIES[family]
    name, dim, rank_gu, rank_k, verdict, _ = _dual_model(fam, params)
    check_digits(dim)
    toral = None if rank_gu is None else rank_gu - rank_k
    euler = _two_power_binomial(*fam.euler(*params)) if toral == 0 else 0
    return Classification(
        family, params, name, dim, rank_gu, rank_k, toral, verdict, euler, euler > 0,
    )


_classify_memo = lru_cache(maxsize=CLASSIFY_MEMO_SIZE)(_classification)


def classify(spec: SpaceSpec) -> Classification:
    """The dual, the ranks, the verdict and the Euler characteristic of a
    space.  The result is memoized per spec, which was checked when it was
    made.  Results are immutable tuples and a repeated spec gets the same
    object."""
    if sum(spec.params) > _MEMO_MAX_PARAM_SUM:
        return _classification(spec)
    return _classify_memo(spec)


def rank_one_dual(spec: SpaceSpec) -> "charclass.DualSpace":
    """The compact dual S^n, CP^n, HP^n or CayP^2 of a rank-one family."""
    fam = _FAMILIES[spec.family]
    if fam.space is None:
        raise UnsupportedClassError(
            "characteristic classes are computed for rank-one duals only"
        )
    from symchar import charclass

    return charclass.DualSpace(*fam.space(*spec.params))


def pontrjagin_table(spec: SpaceSpec) -> "tables.CharNumberTable":
    """Pontrjagin numbers of the compact dual, decided by its model:
    refused at equal rank, computed for a rank-one dual, all zero otherwise.
    The name is rendered as classify renders it, so a "G_U/K" past the digit
    limit is refused before any table is built."""
    _, dim, _, _, verdict, space = _dual_model(_FAMILIES[spec.family], spec.params)
    if verdict == VERDICT_EQUAL_RANK:
        raise UnsupportedClassError(
            "Pontrjagin numbers of higher-rank equal-rank duals are not computed"
        )
    from symchar import charclass

    # with no DualSpace every number vanishes: the table of 1, as on S^dim
    kind, n = space or (charclass.SPHERE, dim)
    return charclass.pontrjagin_numbers(charclass.DualSpace(kind, n))


def stiefel_whitney_table(spec: SpaceSpec) -> "tables.CharNumberTable":
    """Stiefel-Whitney numbers of a rank-one dual (S^n and CP^n only)."""
    space = rank_one_dual(spec)
    from symchar import charclass

    return charclass.stiefel_whitney_numbers(space)


def wall_verdict(spec: SpaceSpec) -> tuple:
    """(dimension, bounds_orientably verdict) of the compact dual.  The SW
    table is built only when every Pontrjagin number vanishes, and is left
    out, giving INSUFFICIENT_DATA, where it is not computed."""
    p_table = pontrjagin_table(spec)
    sw_table = None  # a nonzero Pontrjagin number decides without it
    if p_table.all_zero():
        try:
            sw_table = stiefel_whitney_table(spec)
        except UnsupportedClassError:
            pass
    from symchar import charclass  # loaded by pontrjagin_table

    return p_table.dimension, charclass.bounds_orientably(p_table, sw_table)
