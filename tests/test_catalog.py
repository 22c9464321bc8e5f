"""Family catalog: parsing, dual pairs, rank arithmetic, classification."""

import copy
import pickle
import sys
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _COMPACT_DUALS,
    _group_rank,
    euler_char_by_weyl_quotient,
    group_weyl_order,
    weyl_order,
)
from symchar import catalog
from symchar.catalog import (
    CLASSIFY_MEMO_SIZE,
    Classification,
    SpaceSpec,
    VERDICT_EQUAL_RANK,
    VERDICT_PARALLELIZABLE,
    VERDICT_RANK_GAP,
    VERDICT_RANK_ONE,
    _FAMILIES,
    classify,
    dual_of,
    parse_space,
    pontrjagin_table,
    rank_one_dual,
    spec_string,
    stiefel_whitney_table,
    wall_verdict,
)
from symchar.charclass import PONTRJAGIN, pontrjagin_numbers, stiefel_whitney_numbers
from symchar.errors import (
    MalformedSpecError,
    SymcharError,
    TooLargeError,
    UnknownFamilyError,
    UnsupportedClassError,
    UnsupportedFamilyError,
)


def test_factor_weyl_orders():
    assert weyl_order("SU", 5) == 120
    assert weyl_order("SO", 7) == 48
    assert weyl_order("SO", 8) == 192
    assert weyl_order("SO", 2) == 1
    assert weyl_order("Sp", 3) == 48
    assert weyl_order("SUxU", 2, 3) == 12
    assert weyl_order("Spin9") == 384
    assert weyl_order("F4") == 1152


def test_rank_and_weyl_multiplicative_over_products():
    # the package's ranks and dimensions of products are checked against
    # _COMPACT_DUALS below, and by the dual goldens in test_cli
    assert group_weyl_order([("SO", 3), ("Sp", 2)]) == (
        weyl_order("SO", 3) * weyl_order("Sp", 2)
    )
    assert group_weyl_order([]) == 1


def test_dual_pair_examples():
    pair = dual_of(parse_space("SU_pq(2,3)"))
    assert pair.dual == "SU(5)/S(U2xU3)"
    assert pair.gu == "SU(5)" and pair.k == "S(U2xU3)"

    assert dual_of(parse_space("SLnR(4)")).dual == "SU(4)/SO(4)"
    assert dual_of(parse_space("RHn(3)")).dual == "S^3"
    assert dual_of(parse_space("QHn(2)")).dual == "HP^2"
    assert dual_of(parse_space("CayH")).dual == "CayP^2"
    assert dual_of(parse_space("Flat(3)")).dual == "T^3"

    type_iv = dual_of(parse_space("TypeIV(5)"))
    assert type_iv.gu is None and type_iv.k is None
    assert type_iv.dual == "compact Lie group"


# Independent dimension oracle: dim(G_U) - dim(K) from the classical
# group dimensions, written out per family.
_DIM_SU = lambda m: m * m - 1
_DIM_SO = lambda m: m * (m - 1) // 2
_DIM_SP = lambda m: m * (2 * m + 1)
_DIM_U = lambda m: m * m

_DIM_ORACLE = {
    "SU_pq": lambda p: _DIM_SU(p[0] + p[1]) - (_DIM_U(p[0]) + _DIM_U(p[1]) - 1),
    "SO0_pq": lambda p: _DIM_SO(p[0] + p[1]) - _DIM_SO(p[0]) - _DIM_SO(p[1]),
    "SOstar_2n": lambda p: _DIM_SO(2 * p[0]) - _DIM_U(p[0]),
    "Sp_nR": lambda p: _DIM_SP(p[0]) - _DIM_U(p[0]),
    "Sp_pq": lambda p: _DIM_SP(p[0] + p[1]) - _DIM_SP(p[0]) - _DIM_SP(p[1]),
    "SL_nR": lambda p: _DIM_SU(p[0]) - _DIM_SO(p[0]),
    "SUstar_2n": lambda p: _DIM_SU(2 * p[0]) - _DIM_SP(p[0]),
    "RealHyperbolic_n": lambda p: _DIM_SO(p[0] + 1) - _DIM_SO(p[0]),
    "ComplexHyperbolic_n": lambda p: _DIM_SU(p[0] + 1)
    - (_DIM_U(1) + _DIM_U(p[0]) - 1),
    "QuaternionicHyperbolic_n": lambda p: _DIM_SP(p[0] + 1)
    - _DIM_SP(1)
    - _DIM_SP(p[0]),
    "CayleyHyperbolic": lambda p: 52 - 36,
    "ConstantPositive_n": lambda p: _DIM_SO(p[0] + 1) - _DIM_SO(p[0]),
    "Flat_n": lambda p: p[0],
}


def _grid():
    specs = []
    for p in range(1, 6):
        for q in range(1, 6):
            specs.append(SpaceSpec("SU_pq", (p, q)))
            specs.append(SpaceSpec("SO0_pq", (p, q)))
            specs.append(SpaceSpec("Sp_pq", (p, q)))
    for n in range(2, 8):
        specs.append(SpaceSpec("SOstar_2n", (n,)))
        specs.append(SpaceSpec("SL_nR", (n,)))
        specs.append(SpaceSpec("SUstar_2n", (n,)))
    for n in range(1, 8):
        specs.append(SpaceSpec("Sp_nR", (n,)))
        specs.append(SpaceSpec("RealHyperbolic_n", (n,)))
        specs.append(SpaceSpec("ComplexHyperbolic_n", (n,)))
        specs.append(SpaceSpec("QuaternionicHyperbolic_n", (n,)))
        specs.append(SpaceSpec("ConstantPositive_n", (n,)))
        specs.append(SpaceSpec("Flat_n", (n,)))
    specs.append(SpaceSpec("CayleyHyperbolic", ()))
    return specs


def test_dimension_examples():
    assert classify(parse_space("CHn(2)")).dim == 4
    assert classify(parse_space("SU_pq(2,3)")).dim == 12
    assert classify(parse_space("SLnR(3)")).dim == 5
    assert classify(parse_space("SLnR(6)")).dim == 20
    assert classify(parse_space("SUstar_2n(3)")).dim == 14
    assert classify(parse_space("CayH")).dim == 16
    assert classify(parse_space("TypeIV(7)")).dim == 7


def _oracle_specs():
    """Every family but TypeIV at every parameter up to 60, which covers
    _grid()."""
    specs = []
    for fam in _FAMILIES.values():
        if fam.name in _COMPACT_DUALS:
            ranges = (range(low, 61) for low in fam.min_params)
            specs += [SpaceSpec(fam.name, params) for params in product(*ranges)]
    return specs


def test_dimension_matches_group_difference_oracle():
    for spec in _oracle_specs():
        assert classify(spec).dim == _DIM_ORACLE[spec.family](spec.params)
        assert dual_of(spec).dim == _DIM_ORACLE[spec.family](spec.params)


# A group of (kind, *params) factors as text, written out again here: the
# factors joined by "x", the trivial group "1".
_FACTOR_TEXTS = {
    "SU": "SU({})", "SO": "SO({})", "Sp": "Sp({})", "U": "U({})",
    "SUxU": "S(U{}xU{})", "Spin9": "Spin(9)", "F4": "F4",
}


def _group_text(factors) -> str:
    return "x".join(_FACTOR_TEXTS[kind].format(*params) for kind, *params in factors) or "1"


def test_ranks_and_texts_match_the_compact_dual_oracle():
    for spec in _oracle_specs():
        gu, k = _COMPACT_DUALS[spec.family](*spec.params)
        # Flat's n factors U(1) are written as a power
        gu_text = f"U(1)^{len(gu)}" if spec.family == "Flat_n" else _group_text(gu)
        cls, pair = classify(spec), dual_of(spec)
        assert (cls.rank_gu, cls.rank_k) == (_group_rank(gu), _group_rank(k)), spec
        assert (pair.rank_gu, pair.rank_k) == (_group_rank(gu), _group_rank(k)), spec
        assert (pair.gu, pair.k) == (gu_text, _group_text(k)), spec
        fam = _FAMILIES[spec.family]
        if fam.space is None and fam.label is None:
            assert cls.dual == pair.dual == f"{gu_text}/{_group_text(k)}", spec


def test_classify_sp_nr_3():
    cls = classify(parse_space("Sp_nR(3)"))
    assert cls == Classification(
        family="Sp_nR",
        params=(3,),
        dual="Sp(3)/U(3)",
        dim=12,
        rank_gu=3,
        rank_k=3,
        toral_rank=0,
        verdict=VERDICT_EQUAL_RANK,
        euler_char_dual=8,
        minvol_positive=True,
    )


def test_classify_su_star_6():
    cls = classify(parse_space("SUstar_2n(3)"))
    assert cls.rank_gu == 5
    assert cls.rank_k == 3
    assert cls.toral_rank == 2
    assert cls.verdict == VERDICT_RANK_GAP
    assert cls.euler_char_dual == 0
    assert not cls.minvol_positive


def test_classify_so0_3_5():
    cls = classify(parse_space("SO0_pq(3,5)"))
    assert (cls.rank_gu, cls.rank_k, cls.toral_rank) == (4, 3, 1)
    assert cls.verdict == VERDICT_RANK_GAP
    assert cls.dim == 15


def test_classify_flat():
    cls = classify(parse_space("Flat(3)"))
    assert cls.dual == "T^3"
    assert (cls.rank_gu, cls.rank_k, cls.toral_rank) == (3, 0, 3)
    assert cls.verdict == VERDICT_RANK_GAP
    assert cls.euler_char_dual == 0


def test_classify_type_iv():
    cls = classify(parse_space("TypeIV(8)"))
    assert cls.dual == "compact Lie group"
    assert cls.rank_gu is None and cls.rank_k is None and cls.toral_rank is None
    assert cls.verdict == VERDICT_PARALLELIZABLE
    assert cls.euler_char_dual == 0
    assert not cls.minvol_positive


def test_classify_rank_one_spaces():
    cay = classify(parse_space("CayH"))
    assert cay.verdict == VERDICT_RANK_ONE
    assert (cay.rank_gu, cay.rank_k, cay.toral_rank) == (4, 4, 0)
    assert cay.euler_char_dual == 3
    assert cay.minvol_positive
    assert cay.dim == 16

    even_sphere = classify(parse_space("ConstPos(4)"))
    assert even_sphere.verdict == VERDICT_RANK_ONE
    assert even_sphere.dual == "S^4"
    assert even_sphere.euler_char_dual == 2

    odd = classify(parse_space("RHn(3)"))
    assert odd.verdict == VERDICT_RANK_ONE
    assert odd.toral_rank == 1
    assert odd.euler_char_dual == 0
    assert not odd.minvol_positive


def test_euler_characteristics_against_betti_oracle():
    # chi as the count of nonzero Betti numbers: one per even degree
    # 0..2n for CP^n, one per multiple of 4 up to 4n for HP^n, degrees
    # {0, 8, 16} for CayP^2, {0, n} for S^n.
    for n in range(1, 7):
        cp = classify(SpaceSpec("ComplexHyperbolic_n", (n,))).euler_char_dual
        assert cp == len(range(0, 2 * n + 1, 2)) == n + 1
        hp = classify(SpaceSpec("QuaternionicHyperbolic_n", (n,))).euler_char_dual
        assert hp == len(range(0, 4 * n + 1, 4)) == n + 1
    assert classify(SpaceSpec("CayleyHyperbolic", ())).euler_char_dual == 3
    for n in range(1, 9):
        sphere_chi = classify(SpaceSpec("RealHyperbolic_n", (n,))).euler_char_dual
        assert sphere_chi == (2 if n % 2 == 0 else 0)


def test_euler_closed_forms_for_hermitian_families():
    for n in range(1, 7):
        assert classify(SpaceSpec("Sp_nR", (n,))).euler_char_dual == 2**n
    for n in range(2, 7):
        assert classify(SpaceSpec("SOstar_2n", (n,))).euler_char_dual == 2 ** (n - 1)
    for p in range(1, 6):
        for q in range(1, 6):
            assert classify(SpaceSpec("SU_pq", (p, q))).euler_char_dual == comb(
                p + q, p
            )


def test_euler_positive_iff_equal_rank():
    for spec in _grid():
        cls = classify(spec)
        assert (cls.euler_char_dual > 0) == (cls.toral_rank == 0)
        assert cls.minvol_positive == (cls.euler_char_dual > 0)
        if cls.toral_rank == 0:
            assert cls.dim % 2 == 0


def test_euler_matches_weyl_quotient_oracle():
    # every family at every parameter up to 40, every pair in 1..40 x 1..40
    for fam in _FAMILIES.values():
        for params in product(*(range(low, 41) for low in fam.min_params)):
            expected = euler_char_by_weyl_quotient(fam.name, params)
            assert classify(SpaceSpec(fam.name, params)).euler_char_dual == expected


def test_parse_aliases():
    assert parse_space("SLnR(4)") == parse_space("SL_nR(4)")
    assert parse_space("CayH") == parse_space("CayleyHyperbolic")
    assert parse_space("CHn(2)") == parse_space("ComplexHyperbolic_n(2)")
    assert parse_space("SOstar2n(3)") == parse_space("SOstar_2n(3)")
    assert parse_space("Flat(5)") == parse_space("Flat_n(5)")
    assert parse_space(" SU_pq( 2 , 3 ) ") == SpaceSpec("SU_pq", (2, 3))


def test_parse_rejects_unknown_families():
    with pytest.raises(UnknownFamilyError):
        parse_space("Frobenius(2)")
    with pytest.raises(UnknownFamilyError):
        parse_space("su_pq(2,3)")  # case-sensitive


def test_parse_rejects_exceptional_families():
    for name in ["E6(6)", "E7(7)", "E8(8)", "G2", "F4"]:
        with pytest.raises(UnsupportedFamilyError):
            parse_space(name)


def test_parse_rejects_malformed_specs():
    for bad in [
        "SLnR",          # missing parameter
        "SLnR()",        # empty parameter list
        "SLnR(1)",       # below the family minimum
        "SLnR(2.5)",     # not an integer
        "SLnR(4",        # unbalanced parens
        "SU_pq(2)",      # wrong arity
        "SU_pq(0,3)",    # non-positive parameter
        "SOstar_2n(1)",  # degenerate point
        "SUstar_2n(1)",  # degenerate point
        "CayH(2)",       # family takes no parameters
        "(3)",           # missing name
    ]:
        with pytest.raises(MalformedSpecError):
            parse_space(bad)


@pytest.mark.parametrize("limit", [4300, 0, 20_000])
def test_library_spec_parameters_have_at_most_4300_digits(limit):
    # as parse_space reads them: 10^4300 - 1 passes the spec check, and the
    # call answers or refuses with a domain error; a spec of 10^4300 cannot
    # be made in any family, at any int-to-text limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for fam in _FAMILIES.values():
            if not fam.min_params:
                continue
            longest = SpaceSpec(fam.name, (10**4300 - 1, *fam.min_params[1:]))
            with pytest.raises(MalformedSpecError, match="at most 4300 digits"):
                SpaceSpec(fam.name, (10**4300, *fam.min_params[1:]))
            for call in (classify, dual_of, pontrjagin_table):
                try:
                    call(longest)
                except SymcharError as exc:
                    assert not isinstance(exc, MalformedSpecError), (fam.name, call)
    finally:
        sys.set_int_max_str_digits(saved)


class _Int(int):
    pass


# Each spec that cannot be made, with its error class and exact text: an
# alias is a name parse_space reads, not a family.
_INVALID_SPECS = {
    "unknown family": ("Nope", (1,), UnknownFamilyError, "unknown family 'Nope'"),
    "alias": ("CHn", (2,), UnknownFamilyError, "unknown family 'CHn'"),
    "not a str": (5, (), UnknownFamilyError, "unknown family of type int"),
    "count": ("SU_pq", (2,), MalformedSpecError, "SU_pq takes 2 parameter(s), got 1"),
    "bool": (
        "RealHyperbolic_n", (True,), MalformedSpecError,
        "RealHyperbolic_n parameters must be integers >= (1,)",
    ),
    "int subclass": (
        "RealHyperbolic_n", (_Int(3),), MalformedSpecError,
        "RealHyperbolic_n parameters must be integers >= (1,)",
    ),
    "below minimum": (
        "SL_nR", (1,), MalformedSpecError, "SL_nR parameters must be integers >= (2,)"
    ),
    "10^4300": (
        "SU_pq", (2, 10**4300), MalformedSpecError,
        "SU_pq parameters must have at most 4300 digits",
    ),
}


@pytest.mark.parametrize("case", list(_INVALID_SPECS))
@pytest.mark.parametrize(
    "make",
    [
        SpaceSpec,
        lambda family, params: SpaceSpec._make((family, params)),
        lambda family, params: SpaceSpec("SU_pq", (2, 3))._replace(
            family=family, params=params
        ),
    ],
    ids=["new", "_make", "_replace"],
)
def test_an_invalid_spec_cannot_be_made(case, make):
    family, params, error, message = _INVALID_SPECS[case]
    with pytest.raises(error) as info:
        make(family, params)
    assert type(info.value) is error and str(info.value) == message


def test_replace_checks_one_changed_field():
    spec = parse_space("RHn(5)")
    with pytest.raises(MalformedSpecError, match=r"integers >= \(1,\)"):
        spec._replace(params=(True,))  # which rendered as "RealHyperbolic_n(True)"
    with pytest.raises(MalformedSpecError, match="SU_pq takes 2 parameter"):
        spec._replace(family="SU_pq")
    assert spec._replace(params=(6,)) == parse_space("RHn(6)")


def test_a_valid_spec_survives_copy_and_pickle():
    specs = [SpaceSpec(f.name, f.min_params) for f in _FAMILIES.values()] + _grid()
    for spec in specs:
        for twin in (
            copy.copy(spec),
            copy.deepcopy(spec),
            pickle.loads(pickle.dumps(spec)),
            spec._replace(),
            SpaceSpec._make(spec),
        ):
            assert type(twin) is SpaceSpec and twin == spec
        assert parse_space(spec_string(spec)) == spec
    # a parameter list is stored as a tuple
    assert type(SpaceSpec("SU_pq", [2, 3]).params) is tuple


def test_spec_string_round_trip():
    for spec in _grid():
        assert parse_space(spec_string(spec)) == spec
    assert spec_string(SpaceSpec("CayleyHyperbolic", ())) == "CayleyHyperbolic"


def test_memoized_results_equal_computed_ones():
    catalog._classify_memo.cache_clear()
    specs = _grid() + [SpaceSpec(f.name, f.min_params) for f in _FAMILIES.values()]
    for spec in specs:
        computed = catalog._classification(spec)
        first = classify(spec)
        assert first == computed
        assert classify(spec) is first
    assert catalog._classify_memo.cache_info().hits >= len(specs)
    # a parameter list is keyed as a tuple, not refused as unhashable
    assert classify(SpaceSpec("SU_pq", [2, 3])) == classify(SpaceSpec("SU_pq", (2, 3)))


def test_the_memo_is_not_keyed_on_the_digit_limit(monkeypatch):
    # chi = 2^14300 and 2^14299 pass 4300 digits: classify refuses both at
    # every int-to-text limit and stores nothing, even when the memo takes
    # specs of that size.  A stored result is shared across limits.
    specs = [parse_space(text) for text in ("SpnR(14300)", "SOstar_2n(14300)")]
    for spec in specs:
        assert euler_char_by_weyl_quotient(spec.family, spec.params) >= 10**4300
    small = SpaceSpec("SU_pq", (2, 3))
    saved = sys.get_int_max_str_digits()
    try:
        for max_sum in (catalog._MEMO_MAX_PARAM_SUM, 10**6):
            monkeypatch.setattr(catalog, "_MEMO_MAX_PARAM_SUM", max_sum)
            catalog._classify_memo.cache_clear()
            first = classify(small)
            for limit in (4300, 0, 20_000):
                sys.set_int_max_str_digits(limit)
                for spec in specs:
                    with pytest.raises(TooLargeError):
                        classify(spec)
                assert catalog._classify_memo.cache_info().currsize == 1
                assert classify(small) is first
    finally:
        sys.set_int_max_str_digits(saved)


def test_the_memo_stays_bounded():
    catalog._classify_memo.cache_clear()
    catalog._parse_memo.cache_clear()
    for n in range(1, CLASSIFY_MEMO_SIZE + 101):
        classify(parse_space(f"Flat({n})"))
    assert catalog._classify_memo.cache_info().currsize == CLASSIFY_MEMO_SIZE
    assert catalog._parse_memo.cache_info().currsize == CLASSIFY_MEMO_SIZE


def test_a_spec_past_the_size_rule_is_not_stored():
    top = catalog._MEMO_MAX_PARAM_SUM
    catalog._classify_memo.cache_clear()
    classify(SpaceSpec("SU_pq", (top - 1, 1)))
    assert catalog._classify_memo.cache_info().currsize == 1
    past = classify(SpaceSpec("SU_pq", (top, 1)))
    assert catalog._classify_memo.cache_info().currsize == 1
    assert past == catalog._classification(SpaceSpec("SU_pq", (top, 1)))


def test_a_repeated_text_gets_the_same_spec():
    catalog._parse_memo.cache_clear()
    first = parse_space("SU_pq(2,3)")
    assert parse_space("SU_pq(2,3)") is first
    assert catalog._parse_memo.cache_info().hits == 1
    # another text of the same spec is an entry of its own
    assert parse_space("SUpq( 2, 3 )") == first
    assert catalog._parse_memo.cache_info().currsize == 2


def test_a_malformed_text_is_refused_each_time_and_not_stored():
    catalog._parse_memo.cache_clear()
    texts = ("SU_pq(2,", "SU_pq(2,x)", "SU_pq(0,1)", "SU_pq(2)", "E8", "Nope(1)", "")
    for text in texts:
        errors = set()
        for _ in range(3):
            with pytest.raises(SymcharError) as info:
                parse_space(text)
            errors.add((type(info.value), str(info.value)))
        assert len(errors) == 1, text
    assert catalog._parse_memo.cache_info().currsize == 0


def test_a_text_past_the_memo_length_is_parsed_and_not_stored():
    catalog._parse_memo.cache_clear()
    longest = "SU_pq(2,3)".ljust(catalog._PARSE_MEMO_MAX_CHARS)
    past = longest + " "
    assert len(past) == 65
    assert parse_space(past) == SpaceSpec("SU_pq", (2, 3))
    assert catalog._parse_memo.cache_info().currsize == 0
    assert parse_space(longest) == SpaceSpec("SU_pq", (2, 3))
    assert catalog._parse_memo.cache_info().currsize == 1


@pytest.mark.parametrize(
    "text, error, message",
    [
        (b"SU_pq(2,3)", TypeError, "a bytes-like object is required, not 'str'"),
        (b"CayH", TypeError, "a bytes-like object is required, not 'str'"),
        (None, AttributeError, "'NoneType' object has no attribute 'strip'"),
    ],
)
def test_a_text_that_is_not_a_str_raises_as_without_the_memo(text, error, message):
    catalog._parse_memo.cache_clear()
    with pytest.raises(error) as info:
        parse_space(text)
    assert type(info.value) is error and str(info.value) == message
    assert catalog._parse_memo.cache_info().currsize == 0


def test_parameters_are_stripped_as_by_str_strip():
    # int() alone strips U+3000 and U+0085 but not U+001C..U+001F
    for space in "\x1c\x1d\x1e\x1f\u3000\x85":
        text = f"SU_pq({space}2{space},{space}3{space})"
        assert parse_space(text) == SpaceSpec("SU_pq", (2, 3)), repr(space)


# Spec texts from family names and aliases, ASCII and other Unicode decimal
# digits, commas, parentheses and whitespace, U+001C..U+001F (stripped by
# str.strip but not by int) and U+3000 among it: shaped as a spec, so that
# many parse, or mixed freely.
_BLANK = st.text(" \t\n\x1c\x1d\x1e\x1f\u3000\x85", max_size=2)
_NAME = st.sampled_from(sorted(catalog._NAMES) + ["E8", "Nope"])
_NUMBER = st.text("0123456789\u0663\uff17\u0969", min_size=1, max_size=4)
_PARAM = st.tuples(_BLANK, _NUMBER, _BLANK).map("".join)


@st.composite
def _shaped(draw):
    name = draw(_NAME)
    fam = _FAMILIES.get(catalog._NAMES.get(name))
    arity = len(fam.min_params) if fam and draw(st.booleans()) else draw(st.integers(0, 3))
    params = draw(st.lists(_PARAM, min_size=arity, max_size=arity))
    text = draw(_BLANK) + name + draw(_BLANK)
    return text + (f"({','.join(params)})" if params else "") + draw(_BLANK)


_MIXED = st.lists(st.one_of(_NAME, _NUMBER, _BLANK, st.sampled_from("(),-+")), max_size=8)
_SPEC_TEXTS = st.one_of(_shaped(), _MIXED.map("".join))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SPEC_TEXTS)
def test_the_parse_memo_answers_as_the_parser(text):
    try:
        expected = catalog._parse_space(text)
    except SymcharError as exc:
        for _ in range(2):
            with pytest.raises(type(exc)) as info:
                parse_space(text)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        assert parse_space(text) == expected
        assert parse_space(text) == expected


def test_the_json_dict_is_the_record_with_a_params_list():
    for spec in [SpaceSpec(f.name, f.min_params) for f in _FAMILIES.values()] + _grid():
        result = classify(spec)
        expected = {**result._asdict(), "params": list(result.params)}
        payload = result.to_json_dict()
        assert payload == expected
        assert list(payload) == sorted(payload)
        assert type(payload["params"]) is list


# p_1^k[CP^2k] = (2k + 1)^k decides CP^2k without its SW table, which would
# be over the partitions of 4k; odd CP^n and spheres still need theirs.
# Then one space of each family: a rank gap or a parallelizable dual has no
# SW table here, and a higher-rank equal-rank dual no Pontrjagin table.
@pytest.mark.parametrize(
    "space, answer",
    [
        ("CHn(22)", (44, "does_not_bound")),
        ("CHn(24)", (48, "does_not_bound")),
        ("CHn(90)", (180, "does_not_bound")),
        ("QHn(45)", (180, "does_not_bound")),
        ("CHn(23)", TooLargeError),
        ("RHn(46)", TooLargeError),
        ("CHn(92)", TooLargeError),
        ("SU_pq(2,3)", UnsupportedClassError),
        ("SO0_pq(3,3)", (9, "insufficient_data")),
        ("SOstar_2n(2)", UnsupportedClassError),
        ("Sp_nR(1)", UnsupportedClassError),
        ("Sp_pq(1,1)", UnsupportedClassError),
        ("SL_nR(3)", (5, "insufficient_data")),
        ("SUstar_2n(2)", (5, "insufficient_data")),
        ("TypeIV(3)", (3, "insufficient_data")),
        ("RHn(4)", (4, "bounds")),
        ("CHn(2)", (4, "does_not_bound")),
        ("CHn(3)", (6, "bounds")),
        ("QHn(1)", (4, "insufficient_data")),  # HP^1 = S^4, but no SW class of HP^n
        ("CayH", (16, "does_not_bound")),
        ("ConstPos(3)", (3, "bounds")),
        ("Flat(8)", (8, "insufficient_data")),
    ],
)
def test_wall_verdict_reads_the_sw_table_only_when_it_decides(space, answer):
    spec = parse_space(space)
    if isinstance(answer, tuple):
        assert wall_verdict(spec) == answer
    else:
        with pytest.raises(answer):
            wall_verdict(spec)


def test_the_verdict_decides_the_tables():
    # A rank-one dual has its own tables, an equal-rank dual of higher rank
    # none, and every other dual the all-zero Pontrjagin table and no SW table.
    seen = set()
    for spec in [SpaceSpec(f.name, f.min_params) for f in _FAMILIES.values()] + _grid():
        result = classify(spec)
        seen.add(result.verdict)
        if result.verdict == VERDICT_RANK_ONE:
            space = rank_one_dual(spec)
            assert pontrjagin_table(spec) == pontrjagin_numbers(space), spec
            try:
                expected = stiefel_whitney_numbers(space)
            except UnsupportedClassError:
                with pytest.raises(UnsupportedClassError):
                    stiefel_whitney_table(spec)
            else:
                assert stiefel_whitney_table(spec) == expected, spec
        elif result.verdict == VERDICT_EQUAL_RANK:
            for table in (pontrjagin_table, stiefel_whitney_table):
                with pytest.raises(UnsupportedClassError):
                    table(spec)
        else:
            assert result.verdict in (VERDICT_RANK_GAP, VERDICT_PARALLELIZABLE), spec
            table = pontrjagin_table(spec)
            assert (table.kind, table.dimension) == (PONTRJAGIN, result.dim), spec
            assert table.all_zero(), spec
            with pytest.raises(UnsupportedClassError):
                stiefel_whitney_table(spec)
    assert seen == {
        VERDICT_RANK_ONE, VERDICT_EQUAL_RANK, VERDICT_RANK_GAP, VERDICT_PARALLELIZABLE,
    }
