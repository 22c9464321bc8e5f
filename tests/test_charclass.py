"""Total classes and characteristic numbers of the rank-one duals."""

import copy
import json
import pickle
import sys
from collections import Counter
from math import comb

import pytest

from _oracles import (
    cayley_plane_pontrjagin_numbers_by_localization,
    cayley_plane_tangent_weights,
    char_number_plain,
    partitions_decreasing,
    poly_mul,
    pontrjagin_numbers_by_localization,
    sw_key,
    sw_number_plain,
    total_pontrjagin_plain,
    total_stiefel_whitney_plain,
    total_stiefel_whitney_wu,
)
from symchar.catalog import (
    SpaceSpec,
    _Family,
    classify,
    dual_of,
    parse_space,
    pontrjagin_table,
)
from symchar.charclass import (
    BOUNDS,
    CharNumberTable,
    DOES_NOT_BOUND,
    DualSpace,
    INSUFFICIENT_DATA,
    PONTRJAGIN,
    SW,
    bounds_orientably,
    cayley_plane,
    complex_projective,
    pontrjagin_numbers,
    quaternionic_projective,
    sphere,
    stiefel_whitney_numbers,
    total_pontrjagin,
    total_stiefel_whitney,
    _LARGEST_N,
)
from symchar.errors import (
    BadTableError,
    DimensionMismatchError,
    MalformedSpecError,
    SymcharError,
    TooLargeError,
    UnsupportedClassError,
)
from symchar.partitions import format_partition
from symchar.transfer import deligne_sullivan_check, mu, pullback_numbers, solve_manifold_numbers


def test_sphere_class_is_trivial():
    for n in [1, 2, 3, 4, 7, 12]:
        total = total_pontrjagin(sphere(n))
        assert total.coefficients == (1, 0)
        assert total.generator_degree == n
        assert total.truncation_top == 1


def test_cp_class_binomial_coefficients():
    # (1 + a^2)^(n+1): slot 2j carries C(n+1, j), odd slots vanish
    for n in range(1, 9):
        total = total_pontrjagin(complex_projective(n))
        assert total.generator_degree == 2
        for j in range(n + 1):
            expected = comb(n + 1, j // 2) if j % 2 == 0 else 0
            assert total.coefficients[j] == expected


def test_hp2_class_frozen_and_derived():
    total = total_pontrjagin(quaternionic_projective(2))
    assert total.coefficients == (1, 2, 7)
    # independent route: (1+u)^6 times the geometric series for (1+4u)^(-1)
    binomial = [comb(6, k) for k in range(7)]
    geometric = [(-4) ** k for k in range(3)]
    plain = poly_mul(binomial, geometric)[:3]
    assert tuple(plain) == total.coefficients


def test_hp3_class():
    total = total_pontrjagin(quaternionic_projective(3))
    assert total.coefficients == (1, 4, 12, 8)
    assert total.coefficients[1] == 4


def test_hp_linear_coefficient_is_2n_minus_2():
    for n in range(1, 9):
        total = total_pontrjagin(quaternionic_projective(n))
        assert total.coefficients[1] == 2 * n - 2


def test_cayley_class_frozen():
    total = total_pontrjagin(cayley_plane())
    assert total.coefficients == (1, 6, 39)
    assert total.generator_degree == 8
    assert total.coefficients[1] > 0  # sign convention on the degree-8 term


def _hp_series(n: int, length: int) -> list:
    """c_0 .. c_(length-1) of (1 + u)^(2n+2) / (1 + 4u), the HP^n class
    for length n + 1: c_0 = 1, c_k = C(2n+2, k) - 4 c_(k-1).  Each C(m, k)
    is C(m, k-1) (m - k + 1) / k, checked against math.comb at every 64th k
    and at the last: a comb per k, on thousands of digits, took 16 s."""
    m = 2 * n + 2
    series, binomial = [1], 1
    for k in range(1, length):
        binomial = binomial * (m - k + 1) // k
        if k % 64 == 0 or k == length - 1:
            assert binomial == comb(m, k), k
        series.append(binomial - 4 * series[-1])
    return series


def test_total_classes_are_refused_only_past_the_digit_limit():
    # A class is computed, the same at every int-to-text limit, when every
    # coefficient has at most 4300 digits, and refused otherwise: at every n
    # of each window, whose ends lie on both sides of _LARGEST_N.  The exact
    # coefficients that decide come from binomials.  C(n+1, n//2) is the
    # largest of CP^n's.  HP^n's series is computed once, for the window's
    # first n, and carried to each next n by (1 + u)^2:
    # c'_k = c_k + 2 c_(k-1) + c_(k-2).
    hp_window, cp_window = range(7140, 7153), range(14284, 14299)
    hp = _hp_series(hp_window[0], hp_window[-1] + 1)
    hp_exact = {}
    for n in hp_window:
        hp_exact[n] = hp[: n + 1]
        hp = [c + 2 * b + a for a, b, c in zip([0, 0] + hp, [0] + hp, hp)]
    sweeps = [
        (
            quaternionic_projective,
            hp_window,
            lambda n: max(map(abs, hp_exact[n])),
            lambda n, c: c[n] + 4 * c[n - 1] == comb(2 * n + 2, n)
            and list(c) == hp_exact[n],
        ),
        (
            complex_projective,
            cp_window,
            lambda n: comb(n + 1, n // 2),
            lambda n, c: max(c) == c[n // 2 * 2] == comb(n + 1, n // 2),
        ),
    ]
    saved = sys.get_int_max_str_digits()
    try:
        for build, window, largest, identity in sweeps:
            last = _LARGEST_N[build(1).kind]
            assert window[0] < last < window[-1]
            for n in window:
                results = []
                for limit in (4300, 0, 20_000):
                    sys.set_int_max_str_digits(limit)
                    try:
                        results.append(total_pontrjagin(build(n)).coefficients)
                    except TooLargeError:
                        results.append("refused")
                assert results.count(results[0]) == 3, n
                if n > last:
                    assert results[0] == "refused", n
                    assert largest(n) >= 10**4300, n
                else:
                    assert identity(n, results[0]), n
                    assert max(map(abs, results[0])) < 10**4300, n
    finally:
        sys.set_int_max_str_digits(saved)


def test_cayley_numbers_golden_table():
    table = pontrjagin_numbers(cayley_plane())
    assert table.kind == PONTRJAGIN
    assert table.dimension == 16
    assert table.entries == {
        "4": 39,
        "3,1": 0,
        "2,2": 36,
        "2,1,1": 0,
        "1,1,1,1": 0,
    }
    assert table.entries["2,2"] == table.entries["4"] - 3


def test_cp2_number():
    assert pontrjagin_numbers(complex_projective(2)).entries == {"1": 3}


def test_cp4_numbers():
    table = pontrjagin_numbers(complex_projective(4)).entries
    # p_1 = 5a^2, p_2 = 10a^4 on CP^4
    assert table == {"2": 10, "1,1": 25}


def test_hp_top_power_number():
    for n in range(1, 7):
        table = pontrjagin_numbers(quaternionic_projective(n))
        ones = format_partition((1,) * n)
        assert table.entries[ones] == (2 * n - 2) ** n


def test_sphere_numbers_all_zero():
    for n in [4, 8, 12, 16]:
        table = pontrjagin_numbers(sphere(n))
        assert list(table.entries) == [
            format_partition(p) for p in partitions_decreasing(n // 4)
        ]
        assert table.all_zero()
        assert table.reason is None


def test_dimension_not_multiple_of_four_is_vacuous():
    for space in [sphere(3), sphere(6), complex_projective(3)]:
        table = pontrjagin_numbers(space)
        assert table.entries == {}
        assert table.reason == "dimension-not-multiple-of-4"
        assert table.all_zero()


def test_numbers_match_untruncated_convolution_oracle():
    # keys, their order and the values, none of them from partitions_of
    spaces = [sphere(n) for n in range(1, 49)]
    spaces += [complex_projective(n) for n in range(1, 31)]
    spaces += [quaternionic_projective(n) for n in range(1, 31)]
    spaces += [cayley_plane()]
    for space in spaces:
        dim = space.real_dimension
        g, coeffs = total_pontrjagin_plain(space.kind, space.n)
        expected = [
            (",".join(map(str, p)), char_number_plain(coeffs, g, dim, p))
            for p in (partitions_decreasing(dim // 4) if dim % 4 == 0 else [])
        ]
        table = pontrjagin_numbers(space)
        assert list(table.entries.items()) == expected, space.render()


def test_numbers_match_localization_oracle():
    # a second route that shares no arithmetic with the closed-form classes
    for space in [complex_projective(n) for n in range(1, 11)] + [
        quaternionic_projective(n) for n in range(1, 8)
    ]:
        expected = [
            (",".join(map(str, p)), number)
            for p, number in pontrjagin_numbers_by_localization(space.kind, space.n).items()
        ]
        assert list(pontrjagin_numbers(space).entries.items()) == expected, space.render()


def test_cayley_numbers_match_localization_from_the_f4_roots():
    # the golden table behind CAYLEY_PLANE_NOTE, derived from the F4 roots
    weight_sets = cayley_plane_tangent_weights()
    assert all(len(set(weights)) == 8 for weights in weight_sets)
    assert len({frozenset(weights) for weights in weight_sets}) == 3
    entries = pontrjagin_numbers(cayley_plane()).entries
    for x in ((3, 7, 19, 41), (29, -18, 44, -5)):
        expected = {
            ",".join(map(str, p)): number
            for p, number in cayley_plane_pontrjagin_numbers_by_localization(x).items()
        }
        assert entries == expected, x


def test_a_table_past_max_weight_is_refused_before_its_class(monkeypatch):
    # both spaces are at _LARGEST_N, so their classes would be computed
    import symchar.charclass as charclass

    def unreachable(space):
        pytest.fail(f"the total class of {space.render()} was computed")

    monkeypatch.setattr(charclass, "total_pontrjagin", unreachable)
    monkeypatch.setattr(charclass, "total_stiefel_whitney", unreachable)
    with pytest.raises(TooLargeError):
        pontrjagin_numbers(quaternionic_projective(7145))
    with pytest.raises(TooLargeError):
        stiefel_whitney_numbers(complex_projective(14290))
    table = pontrjagin_numbers(sphere(185))
    assert (table.entries, table.reason) == ({}, "dimension-not-multiple-of-4")


def test_sw_class_cp_binomial_mod_2():
    for n in range(1, 9):
        total = total_stiefel_whitney(complex_projective(n))
        for j in range(n + 1):
            assert total.coefficients[j] == comb(n + 1, j) % 2


def test_sw_classes_match_wu_formula():
    assert total_stiefel_whitney_wu(2, 4) == (1, 1, 0, 0, 1)
    assert total_stiefel_whitney_wu(2, 3) == (1, 0, 0, 0)
    for n in range(1, 51):
        total = total_stiefel_whitney(sphere(n))
        assert total.coefficients == total_stiefel_whitney_wu(n, 1), n
    for n in range(1, 200):
        total = total_stiefel_whitney(complex_projective(n))
        assert total.coefficients == total_stiefel_whitney_wu(2, n), n


def test_wu_formula_targets_for_hp_and_the_cayley_plane():
    # The classes charclass does not compute yet: w(HP^T) in u is w(CP^T)
    # in a, and w(CayP^2) = 1 + u + u^2.
    for top in range(1, 200):
        assert total_stiefel_whitney_wu(4, top) == total_stiefel_whitney_wu(2, top)
    assert total_stiefel_whitney_wu(8, 2) == (1, 1, 1)


def test_sw_classes_of_cp_stop_where_its_pontrjagin_classes_stop():
    assert len(total_stiefel_whitney(complex_projective(14290)).coefficients) == 14291
    for n in (14291, 10**7):
        with pytest.raises(TooLargeError):
            total_stiefel_whitney(complex_projective(n))


def test_sw_numbers_cp2():
    table = stiefel_whitney_numbers(complex_projective(2))
    assert table.kind == SW
    assert table.dimension == 4
    assert table.entries == {
        "w4": 1,
        "w1 w3": 0,
        "w2^2": 1,
        "w1^2 w2": 0,
        "w1^4": 0,
    }


def test_sw_numbers_cp3_all_zero():
    # (1 + a)^4 = 1 mod 2 after truncation at a^4
    table = stiefel_whitney_numbers(complex_projective(3))
    assert set(table.entries) == {sw_key(p) for p in partitions_decreasing(6)}
    assert table.all_zero()


def test_sw_numbers_cp5_all_zero_despite_nonzero_classes():
    # w(CP^5) = 1 + a^2 + a^4 mod 2: nonzero classes, vanishing numbers
    total = total_stiefel_whitney(complex_projective(5))
    assert total.coefficients[2] == 1 and total.coefficients[4] == 1
    assert stiefel_whitney_numbers(complex_projective(5)).all_zero()


def test_sw_numbers_spheres_all_zero():
    for n in [1, 2, 3, 4, 7]:
        table = stiefel_whitney_numbers(sphere(n))
        assert set(table.entries) == {sw_key(p) for p in partitions_decreasing(n)}
        assert table.all_zero()


def test_sw_numbers_match_untruncated_convolution_oracle():
    spaces = [complex_projective(n) for n in range(1, 14)]
    spaces += [sphere(n) for n in range(1, 17)]
    for space in spaces:
        dim = space.real_dimension
        g, coeffs = total_stiefel_whitney_plain(space.kind, space.n)
        expected = []
        for p in partitions_decreasing(dim):
            runs = sorted(Counter(p).items())
            expected.append((sw_key(p), sw_number_plain(coeffs, g, dim, runs)))
        table = stiefel_whitney_numbers(space)
        assert list(table.entries.items()) == expected, space.render()


def test_sw_unsupported_spaces():
    with pytest.raises(UnsupportedClassError):
        stiefel_whitney_numbers(quaternionic_projective(2))
    with pytest.raises(UnsupportedClassError):
        total_stiefel_whitney(cayley_plane())


def test_wall_verdicts():
    cp2 = complex_projective(2)
    assert bounds_orientably(
        pontrjagin_numbers(cp2), stiefel_whitney_numbers(cp2)
    ) == DOES_NOT_BOUND

    cp3 = complex_projective(3)
    assert bounds_orientably(
        pontrjagin_numbers(cp3), stiefel_whitney_numbers(cp3)
    ) == BOUNDS

    # nonzero Pontrjagin side decides even without SW data
    assert bounds_orientably(pontrjagin_numbers(cayley_plane()), None) == DOES_NOT_BOUND

    # all-zero Pontrjagin side alone is not enough
    assert bounds_orientably(
        pontrjagin_numbers(quaternionic_projective(1)), None
    ) == INSUFFICIENT_DATA

    s4 = sphere(4)
    assert bounds_orientably(
        pontrjagin_numbers(s4), stiefel_whitney_numbers(s4)
    ) == BOUNDS


def test_wall_validates_inputs():
    p4 = pontrjagin_numbers(sphere(4))
    sw8 = stiefel_whitney_numbers(sphere(8))
    with pytest.raises(DimensionMismatchError):
        bounds_orientably(p4, sw8)
    with pytest.raises(SymcharError):
        bounds_orientably(sw8, None)
    with pytest.raises(SymcharError):
        bounds_orientably(p4, p4)


def test_table_json_shape():
    table = pontrjagin_numbers(cayley_plane())
    payload = table.to_json_dict()
    assert payload == {
        "dim": 16,
        "kind": "pontrjagin",
        "entries": table.entries,
    }
    vacuous = pontrjagin_numbers(sphere(3)).to_json_dict()
    assert vacuous["reason"] == "dimension-not-multiple-of-4"


def test_construction_validators():
    with pytest.raises(SymcharError):
        sphere(0)
    with pytest.raises(SymcharError):
        complex_projective(0)
    with pytest.raises(SymcharError):
        quaternionic_projective(-1)
    with pytest.raises(SymcharError):
        DualSpace("quaternionic", 3)
    with pytest.raises(SymcharError):
        DualSpace("complex-projective", -3)
    with pytest.raises(SymcharError):
        DualSpace("cayley-plane", 7)
    # True == 1 and hashes alike, but is no dimension: neither "S^True" nor
    # a memo hit on the entry for 1
    with pytest.raises(SymcharError):
        sphere(True)
    with pytest.raises(MalformedSpecError):
        classify(SpaceSpec("RealHyperbolic_n", (True,)))


def test_replace_and_make_check_as_the_constructor():
    # namedtuple's own _make, which _replace calls, skips __new__
    with pytest.raises(SymcharError, match="unknown dual space kind 'nonsense'"):
        DualSpace._make(("nonsense", 1))
    with pytest.raises(SymcharError, match="must be an integer, got True"):
        complex_projective(2)._replace(n=True)  # which rendered as "CP^True"
    with pytest.raises(SymcharError, match="no dual space S\\^0"):
        sphere(3)._replace(n=0)
    with pytest.raises(SymcharError, match="no dual space CayP\\^3"):
        cayley_plane()._replace(n=3)
    for space in (complex_projective(3), DualSpace._make(("complex-projective", 3))):
        assert type(space) is DualSpace and space == complex_projective(2)._replace(n=3)


def _records() -> list:
    """One instance of each of the nine records, with its fields, its
    defaults, and whether it checks itself when it is made."""
    cayley = pontrjagin_numbers(cayley_plane())
    return [
        (parse_space("SU_pq(2,3)"), "family params", {}, True),
        (
            dual_of(parse_space("SU_pq(2,3)")),
            "family params dual gu k dim rank_gu rank_k",
            {},
            False,
        ),
        (
            classify(parse_space("CHn(2)")),
            "family params dual dim rank_gu rank_k toral_rank verdict "
            "euler_char_dual minvol_positive",
            {},
            False,
        ),
        (
            _Family("Flat_n", (1,), None, None),  # no callable, so that it pickles
            "name min_params sizes texts aliases euler space label",
            {"aliases": (), "euler": None, "space": None, "label": None},
            False,
        ),
        (complex_projective(3), "kind n", {}, True),
        (total_pontrjagin(cayley_plane()), "generator_degree truncation_top coefficients", {}, False),
        (cayley, "kind dimension entries reason", {"reason": None}, False),
        (mu(cayley, cayley), "mu contributions skipped", {}, False),
        (deligne_sullivan_check(3, 1, 2, 3), "divides order_1 order_2 order_product", {}, False),
    ]


@pytest.mark.parametrize(
    "record, fields, defaults, checked",
    [pytest.param(*case, id=type(case[0]).__name__) for case in _records()],
)
def test_every_record_keeps_the_namedtuple_protocol(record, fields, defaults, checked):
    cls = type(record)
    fields = tuple(fields.split())
    assert cls._fields == fields and cls._field_defaults == defaults
    assert not hasattr(record, "__dict__")  # __slots__ = () on the subclass
    values = ", ".join(f"{name}={value!r}" for name, value in zip(fields, record))
    assert repr(record) == f"{cls.__name__}({values})"
    assert record == tuple(record) and list(record._asdict()) == list(fields)
    for twin in (
        record._replace(),
        cls._make(record),
        copy.copy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls and twin == record
    # a checked record runs its checks through _replace and _make too
    for make in (
        lambda: record._replace(**{fields[0]: "nonsense"}),
        lambda: cls._make(("nonsense", *record[1:])),
    ):
        if checked:
            with pytest.raises(SymcharError):
                make()
        else:
            assert make() == ("nonsense", *record[1:])


def _round_trip_tables() -> list:
    tables = []
    for n in range(1, 13):
        tables += [
            pontrjagin_numbers(quaternionic_projective(n)),
            pontrjagin_numbers(sphere(n)),
            stiefel_whitney_numbers(sphere(n)),
        ]
    for n in range(1, 12):
        space = complex_projective(n)
        tables += [pontrjagin_numbers(space), stiefel_whitney_numbers(space)]
    cayley = pontrjagin_numbers(cayley_plane())
    return tables + [
        cayley,
        pontrjagin_table(parse_space("SL_nR(3)")),  # empty, with its reason
        pontrjagin_table(parse_space("Flat(8)")),
        pullback_numbers(cayley, 3),
        pullback_numbers(stiefel_whitney_numbers(complex_projective(2)), 3),
        solve_manifold_numbers(cayley, 2, 1),
    ]


def test_a_table_reads_back_from_its_json_document():
    tables = _round_trip_tables()
    assert any(table.reason for table in tables)
    for table in tables:
        document = json.loads(json.dumps(table.to_json_dict()))
        read = CharNumberTable.from_json_dict(document)
        assert read == table and list(read.entries) == list(table.entries), table


@pytest.mark.parametrize("space", ["\t", "\n", "\x1c", "\u3000"])
def test_a_bare_sw_table_led_by_any_whitespace_reads_as_sw(space):
    # parse_monomial splits on every character that str.isspace accepts,
    # so the kind of a bare table skips them all, not only " "
    for dim in range(1, 7):
        for key in stiefel_whitney_numbers(sphere(dim)).entries:
            read = CharNumberTable.from_json_dict({space + key: 1})
            assert read == CharNumberTable(SW, dim, {key: 1}), repr(space + key)


def test_a_bare_pontrjagin_table_still_reads_after_whitespace_and_parens():
    read = CharNumberTable.from_json_dict({"\t( 2, 1 )": 5, "3": 1})
    assert read == CharNumberTable(PONTRJAGIN, 12, {"2,1": 5, "3": 1})


def test_a_degree_past_the_digit_limit_is_refused_at_its_key():
    # the mismatch message writes the degree and the dimension, so a key
    # whose degree passes MAX_DIGITS is refused as too large, not with a
    # ValueError from the int-to-text limit, and before any later key
    nines = "9" * 4300
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 0):
            sys.set_int_max_str_digits(limit)
            for document in (
                {"dim": 10**5000, "kind": PONTRJAGIN, "entries": {"1": 1}},
                {"4": 1, nines: 2, "x": 3},
                {"dim": 4, "kind": SW, "entries": {"w2^" + nines: 1, "x": 1}},
            ):
                with pytest.raises(TooLargeError):
                    CharNumberTable.from_json_dict(document)
            with pytest.raises(BadTableError, match="total degree 8, expected 16"):
                CharNumberTable.from_json_dict({"4": 1, "2": 2})
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "document, message",
    [
        ({"x" * 10**5: 1}, "malformed partition"),
        ({"1," * 10**5 + "0": 1}, "partition parts must be positive"),
        ({"1," * 10**5 + "2": 1}, "partition parts must be weakly decreasing"),
        ({"w1^" + "x" * 10**6: 1}, "malformed Stiefel-Whitney factor"),
        # an exponent of 0, of as many digits as int() reads at the default limit
        ({"w1^" + "0" * 4300: 1}, "malformed Stiefel-Whitney factor"),
        ({"1," * 10**5 + "1": "1"}, "entry .* must be an integer"),
        ({"4": 1, "1," * 10**5 + "1": 2}, "entry .* has total degree"),
        ({"1," * 10**5 + "1": 1, "(" + "1," * 10**5 + "1)": 2}, "duplicate table entry"),
    ],
)
def test_a_message_quotes_at_most_100_characters_of_a_key(document, message):
    with pytest.raises(SymcharError, match=message) as info:
        CharNumberTable.from_json_dict(document)
    assert len(str(info.value)) < 250
