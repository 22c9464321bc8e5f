"""No public library call returns an integer of more than 4300 digits.

Each call below, placed on both sides of a size gate, either returns a
result whose every integer (record fields, dict values, tuple and list
items) has at most 4300 digits, or raises TooLargeError.
"""

import itertools
import json
import sys
from math import comb

import pytest

from _oracles import gl_order_by_definition
from symchar import catalog, cli
from symchar.catalog import (
    _FAMILIES,
    SpaceSpec,
    classify,
    dual_of,
    parse_space,
    pontrjagin_table,
    stiefel_whitney_table,
)
from symchar.charclass import (
    PONTRJAGIN,
    SPHERE,
    CharNumberTable,
    DualSpace,
    complex_projective,
    quaternionic_projective,
    sphere,
    total_pontrjagin,
    total_stiefel_whitney,
)
from symchar.errors import (
    BadPrimePowerError,
    EqualCharacteristicError,
    InconsistentDegreesError,
    MalformedSpecError,
    SymcharError,
    TooLargeError,
    UnsupportedClassError,
)
from symchar.transfer import (
    DSReport,
    deligne_sullivan_check,
    gl_order,
    mu,
    pullback_numbers,
    solve_manifold_numbers,
)

_CEILING = 10**4300
_VALUES = (
    2, 3, 45, 46, 90, 91, 7145, 7146, 7200, 8000, 14290, 14291, 14400,
    10**2200 + 1, _CEILING - 1,
)


def _ints(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _ints(item)
    elif isinstance(value, int):
        yield value


def _specs() -> list:
    specs = []
    for fam in _FAMILIES.values():
        arity = len(fam.min_params)
        if arity == 0:
            specs.append(SpaceSpec(fam.name, ()))
        for value in _VALUES:
            if arity == 1:
                specs.append(SpaceSpec(fam.name, (value,)))
            elif arity == 2:
                specs += [SpaceSpec(fam.name, (1, value)), SpaceSpec(fam.name, (value, value))]
    return specs


def _table(*values) -> CharNumberTable:
    return CharNumberTable(PONTRJAGIN, 8, dict(zip(("2", "1,1"), values)))


def _arguments() -> dict:
    """function -> the argument tuples it is called with."""
    specs = [(spec,) for spec in _specs()]
    cp = [(complex_projective(n),) for n in range(14288, 14293)]
    hp = [(quaternionic_projective(n),) for n in range(7143, 7148)]
    big = 10**4299
    return {
        classify: specs,
        dual_of: specs,
        pontrjagin_table: specs,
        stiefel_whitney_table: specs,
        total_pontrjagin: cp + hp,
        total_stiefel_whitney: cp,
        gl_order: [(1, 2**e) for e in range(14280, 14291)],
        # the product of the two orders reaches 10^4300 at q1 = 2^1585 with
        # q2 = 5, and at 2^1584 with 11, where the gate's estimate, a lower
        # bound, does not
        deligne_sullivan_check: [
            (1, 1, 2**a, q2) for q2 in (5, 11) for a in range(1580, 1591)
        ],
        pullback_numbers: [(_table(big, 1), 10), (_table(big - 1, -big), 10)],
        solve_manifold_numbers: [(_table(big, 1), 10, 1), (_table(-big, 1), 10, 1)],
        mu: [
            (_table(1, 1), _table(2**4300, 5**4300)),  # lcm 10^4300
            (_table(1, 1), _table(big, 10)),
            (_table(1, 1), _table(big, big + 1)),
        ],
        # a key "k" has degree 4k, which passes 10^4300 between these two
        CharNumberTable.from_json_dict: [
            ({"2" + "4" * 4299: 1},),
            ({"2" + "5" * 4299: 1},),
            ({"9" * 4300: 1},),
            ({"dim": _CEILING - 1, "kind": "pontrjagin", "entries": {}},),
            ({"dim": _CEILING, "kind": "pontrjagin", "entries": {}},),
            ({"2": _CEILING - 1, "1,1": 1 - _CEILING},),
            ({"2": _CEILING, "1,1": 1},),
            ({"2": 1, "1,1": -_CEILING},),
            ({"dim": 8, "kind": "pontrjagin", "entries": {"2": _CEILING}},),
            ({"w4": _CEILING, "w1^4": _CEILING + 1},),  # read mod 2
        ],
    }


_ARGUMENTS = _arguments()

def _label(arguments: tuple) -> str:
    """The arguments as text, an integer past 12 digits by its bit length."""
    def short(value):
        if isinstance(value, int) and abs(value) >= 10**12:
            return f"<{value.bit_length()}-bit int>"
        if isinstance(value, str) and len(value) > 12:
            return f"<{len(value)}-character text>"
        if isinstance(value, CharNumberTable):
            value = value.entries
        if isinstance(value, dict):
            return str({short(key): short(v) for key, v in value.items()})
        if isinstance(value, SpaceSpec):
            return f"{value.family}({', '.join(map(short, value.params))})"
        return str(value)

    return ", ".join(map(short, arguments))


@pytest.mark.parametrize("function", list(_ARGUMENTS), ids=lambda f: f.__name__)
def test_no_result_has_an_integer_past_4300_digits(function):
    past = []
    for arguments in _ARGUMENTS[function]:
        try:
            result = function(*arguments)
        except TooLargeError:
            continue
        except UnsupportedClassError:  # a table not computed at any size
            assert function in (pontrjagin_table, stiefel_whitney_table)
            continue
        if any(abs(value) >= _CEILING for value in _ints(result)):
            past.append(_label(arguments))
    assert not past, f"results past 4300 digits: {past}"


@pytest.mark.parametrize(
    "make, n",
    [
        (sphere, 10**5000),
        (complex_projective, _CEILING - 1),
        (lambda n: sphere(3)._replace(n=n), 10**5000),
        (lambda n: DualSpace._make((SPHERE, n)), 10**5000),
    ],
    ids=["S^(10^5000)", "CP^(10^4300 - 1)", "_replace", "_make"],
)
def test_a_dual_space_past_4300_digits_is_refused_when_it_is_made(make, n):
    # its dimension, n and 2n, would pass the ceiling, and with it the
    # generator degree and dimension of every result computed from it
    with pytest.raises(TooLargeError):
        make(n)


@pytest.mark.parametrize("alias", ["RHn", "ConstPos"])
def test_classify_of_s_n_answers_where_dual_cannot_render_so_n_plus_1(alias, capsys):
    # n = 10^4300 - 1: classify names the dual S^n and renders no group;
    # dual renders G_U = SO(n + 1), whose parameter has 4301 digits
    text = f"{alias}({_CEILING - 1})"
    spec = parse_space(text)
    assert classify(spec).dim == _CEILING - 1
    with pytest.raises(TooLargeError):
        dual_of(spec)
    assert cli.main(["dual", text]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "too-large"


# classify, dual_of and pontrjagin_table of every family with a parameter
# of 10^4300 - 1, as (code, message) or "ok", where they differ from
# _TOO_LARGE on all three.  A rank-one row names its dual by its label,
# which builds no DualSpace, so check_digits(dim) refuses CP^n and HP^n here
# where the DualSpace's own check did before.
_TOO_LARGE = ("too-large", "result has an integer of more than 4300 digits")
_AT_THE_CEILING = {
    "RealHyperbolic_n": ("ok", _TOO_LARGE, "ok"),
    "ConstantPositive_n": ("ok", _TOO_LARGE, "ok"),
    "TypeIV": ("ok", "ok", "ok"),
    "Flat_n": ("ok", "ok", "ok"),
    "Sp_nR": (_TOO_LARGE, _TOO_LARGE, (
        "unsupported-class",
        "Pontrjagin numbers of higher-rank equal-rank duals are not computed",
    )),
}


def test_a_parameter_of_4300_nines_gets_the_same_answer_from_each_call():
    specs = [spec for spec in _specs() if _CEILING - 1 in spec.params]
    assert {spec.family for spec in specs} == set(_FAMILIES) - {"CayleyHyperbolic"}
    for spec in specs:
        outcomes = []
        for call in (classify, dual_of, pontrjagin_table):
            try:
                call(spec)
                outcomes.append("ok")
            except SymcharError as exc:
                outcomes.append((exc.code, str(exc)))
        expected = _AT_THE_CEILING.get(spec.family, (_TOO_LARGE,) * 3)
        assert tuple(outcomes) == expected, _label((spec,))


# 10^4300 has 14 285 bits: check_digits compares a value with 10^4300 only
# past 14 284 bits, and near there the estimates before the work meet
# results that must be computed.  Each input that sizes a result is taken
# from 40 bits below that to 30 above it: m + e for chi = 2^e C(m, k),
# n^2 bits(q) for |GL_n(F_q)| and n^2 bits(q1 q2) for a Deligne-Sullivan
# product.
_BOUND = _CEILING.bit_length() - 1  # 14 284
_EDGE = range(_BOUND - 40, _BOUND + 31)


@pytest.fixture(params=[4300, 20_000, 0], ids=["default-limit", "limit-20000", "limit-off"])
def digit_limit(request):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield
    sys.set_int_max_str_digits(saved)


def _outcome(call, *arguments):
    try:
        return call(*arguments)
    except TooLargeError:
        return TooLargeError


def _exact(value):
    """What a gated call must give: the value, or TooLargeError iff the
    value has more than 4300 digits."""
    return value if value < _CEILING else TooLargeError


def _euler_cases():
    """(call, arguments, outcome) with m + e in _EDGE: 2^e alone, C(m, k)
    alone, 2 C(m, k) and 2^e C(24, 12)."""
    for t in _EDGE:
        for spec, chi in [
            (SpaceSpec("SOstar_2n", (t + 1,)), 2**t),
            (SpaceSpec("Sp_nR", (t,)), 2**t),
            (SpaceSpec("SU_pq", (t // 2, t - t // 2)), comb(t, t // 2)),
            (SpaceSpec("SO0_pq", (2 * (t // 2), 2 * (t - 1 - t // 2))), 2 * comb(t - 1, t // 2)),
        ]:
            yield lambda spec: classify(spec).euler_char_dual, (spec,), _exact(chi)
        yield catalog._two_power_binomial, (24, 12, t - 24), _exact(comb(24, 12) << (t - 24))


def _gl_cases():
    """Every n and every power q of 2, 3, 5 or 7 with n^2 bits(q) in _EDGE."""
    for n, base in itertools.product(range(1, 120), (2, 3, 5, 7)):
        q = base
        while n * n * q.bit_length() <= _EDGE[-1]:
            if n * n * q.bit_length() in _EDGE:
                yield gl_order, (n, q), _exact(gl_order_by_definition(n, q))
            q *= base


def _ds_cases():
    """For each odd n and each bit count b with n^2 b in _EDGE, two fields
    q1 = 2^a, q2 = 3^c with a + bits(3^c) = b, the bits of q1 q2."""
    for n in range(3, 120, 2):
        for bits in range(-(-_EDGE[0] // (n * n)), _EDGE[-1] // (n * n) + 1):
            for q2 in (3, 3 ** (bits // 3)):
                q1 = 2 ** (bits - q2.bit_length())
                o1, o2 = gl_order_by_definition(n, q1), gl_order_by_definition(n, q2)
                product = o1 * o2
                report = DSReport(product % 7 == 0, o1, o2, product)
                yield deligne_sullivan_check, (7, n // 2, q1, q2), (
                    report if product < _CEILING else TooLargeError
                )


@pytest.mark.parametrize("cases", [_euler_cases, _gl_cases, _ds_cases],
                         ids=["euler", "gl-order", "ds-check"])
def test_each_size_gate_is_exact_around_14284_bits(digit_limit, cases):
    outcomes = set()
    for call, arguments, expected in cases():
        assert _outcome(call, *arguments) == expected, (call.__name__, arguments)
        outcomes.add(expected is TooLargeError)
    assert outcomes == {False, True}  # both sides of the bound are reached



_ZEROS = "0" * 4300
_ONES = "1" * 4400
_PAST = "a number of more than 4300 digits"
# Each call that reads or writes a number of more than 4300 digits, with the
# error class and the exact message it must raise at any int-to-text limit.
_OVER_LONG = {
    "space parameter": (
        lambda: parse_space(f"CHn(1{_ZEROS})"), MalformedSpecError,
        "ComplexHyperbolic_n parameters must have at most 4300 digits",
    ),
    "leading zeros": (
        lambda: parse_space(f"CHn({_ZEROS}1)"), MalformedSpecError,
        "ComplexHyperbolic_n parameters must have at most 4300 digits",
    ),
    "arity first": (
        lambda: parse_space(f"SU_pq(1{_ZEROS})"), MalformedSpecError,
        "SU_pq takes 2 parameter(s), got 1",
    ),
    "minimum first": (
        lambda: parse_space(f"CHn(-1{_ZEROS})"), MalformedSpecError,
        "ComplexHyperbolic_n parameters must be integers >= (1,)",
    ),
    "partition part": (
        lambda: CharNumberTable.from_json_dict({_ONES: 1}), TooLargeError,
        f"partition {'1' * 100!r}... has a part of more than 4300 digits",
    ),
    "sw index": (
        lambda: CharNumberTable.from_json_dict({"w" + _ONES: 1}), TooLargeError,
        f"Stiefel-Whitney factor {'w' + '1' * 99!r}... is too long: it has a "
        "number of more than 4300 digits",
    ),
    "sw exponent": (
        lambda: CharNumberTable.from_json_dict({"w1^" + _ONES: 1}), TooLargeError,
        f"Stiefel-Whitney factor {'w1^' + '1' * 97!r}... is too long: it has a "
        "number of more than 4300 digits",
    ),
    "gl-order field": (
        lambda: gl_order(1, 10**5000), BadPrimePowerError, f"{_PAST} is not a prime power",
    ),
    "ds-check field": (
        lambda: deligne_sullivan_check(5, 1, 10**5000, 3), BadPrimePowerError,
        f"{_PAST} is not a prime power",
    ),
    "ds-check characteristic": (
        lambda: deligne_sullivan_check(5, 1, 2**14300, 2**14301), EqualCharacteristicError,
        f"{_PAST} and {_PAST} share characteristic 2; the test needs distinct "
        "characteristics",
    ),
    "solved entry": (
        lambda: solve_manifold_numbers(
            CharNumberTable(PONTRJAGIN, 4, {"1": 10**4400 + 1}), 1, 3
        ),
        InconsistentDegreesError,
        f"entry '1': 1 * {_PAST} is not divisible by 3",
    ),
}


@pytest.mark.parametrize("case", list(_OVER_LONG))
@pytest.mark.parametrize(
    "digit_limit",
    [pytest.param(4300, id="default-limit"), pytest.param(1000, id="limit-1000"),
     pytest.param(20_000, id="limit-20000"), pytest.param(0, id="limit-off")],
    indirect=True,
)
def test_an_over_long_number_gets_one_answer_at_every_limit(digit_limit, case):
    # MAX_DIGITS, not the int-to-text limit, decides: the same class, code
    # and message at 4300, 1000, 20000 and 0, in bounded space, and never a
    # bare ValueError
    call, error, message = _OVER_LONG[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
    assert (info.value.code, str(info.value)) == (error.code, message)
    assert len(message) <= 250


@pytest.mark.parametrize("key", ["w" + "1" * 2000, "w1^" + "1" * 2000], ids=["index", "exponent"])
def test_a_factor_past_a_lower_limit_is_too_large(key):
    # a caller may set Python's limit below MAX_DIGITS; a factor that int()
    # cannot read then is still refused with a code, not a bare ValueError
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        with pytest.raises(ValueError) as info:
            CharNumberTable.from_json_dict({key: 1})
    finally:
        sys.set_int_max_str_digits(saved)
    assert type(info.value) is TooLargeError
    assert str(info.value) == (
        f"Stiefel-Whitney factor {key[:100]!r}... is too long: it has a number "
        "of more digits than Python reads from text"
    )


def test_no_estimate_runs_where_m_plus_e_bounds_the_euler_characteristic(monkeypatch):
    # Every family at every parameter up to 150 (the classify-transfer range)
    def estimate(*arguments):
        raise AssertionError(f"an estimate ran on {arguments}")

    monkeypatch.setattr(catalog, "refuse_past_digit_limit", estimate)
    for fam in _FAMILIES.values():
        for params in itertools.product(*(range(low, 151) for low in fam.min_params)):
            catalog._classification(SpaceSpec(fam.name, params))
    with pytest.raises(AssertionError, match="an estimate ran"):
        catalog._two_power_binomial(_BOUND, 1, 1)
