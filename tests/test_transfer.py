"""Covering-transfer arithmetic, mu bounds, and general linear orders."""

import random
import sys
import time
from math import isqrt, lcm, log10

import pytest

from _oracles import (
    gl_count_enumerated,
    gl_order_by_definition,
    partitions_decreasing,
    prime_power_base_by_trial_division,
    smallest_degree_divisors,
    smallest_degree_scan,
)
from symchar import transfer
from symchar.tables import PONTRJAGIN, SW, CharNumberTable
from symchar.errors import (
    BadPrimePowerError,
    DimensionMismatchError,
    EqualCharacteristicError,
    InconsistentDegreesError,
    InconsistentTablesError,
    SymcharError,
    TooLargeError,
)
from symchar.partitions import format_partition
from symchar.transfer import (
    GL_MEMO_SIZE,
    _MR_MAX_BITS,
    _ROOT_MAX_BITS,
    _prime_power_base,
    deligne_sullivan_check,
    gl_order,
    mu,
    pullback_numbers,
    solve_manifold_numbers,
)


def _p_table(dim, entries):
    return CharNumberTable(PONTRJAGIN, dim, entries)


_CAYLEY = {"4": 39, "3,1": 0, "2,2": 36, "2,1,1": 0, "1,1,1,1": 0}


def test_pullback_identity_degree():
    table = _p_table(16, dict(_CAYLEY))
    assert pullback_numbers(table, 1).entries == _CAYLEY


def test_pullback_doubles_every_entry():
    out = pullback_numbers(_p_table(16, dict(_CAYLEY)), 2)
    assert out.entries == {k: 2 * v for k, v in _CAYLEY.items()}
    assert out.kind == PONTRJAGIN and out.dimension == 16


def test_pullback_sw_reduces_mod_2():
    table = CharNumberTable(SW, 4, {"w4": 1, "w2^2": 1, "w1^4": 0})
    even = pullback_numbers(table, 2)
    assert even.entries == {"w4": 0, "w2^2": 0, "w1^4": 0}
    odd = pullback_numbers(table, 3)
    assert odd.entries == table.entries


@pytest.mark.parametrize("degree", [0, -2])
def test_pullback_refuses_a_degree_below_one(degree):
    # a covering has a positive degree: 0 would give the all-zero table, -2
    # the negated and doubled one
    for table in (_p_table(16, dict(_CAYLEY)), CharNumberTable(SW, 4, {"w4": 1})):
        with pytest.raises(SymcharError, match="covering degree must be a positive integer"):
            pullback_numbers(table, degree)


def test_pullback_composes():
    rng = random.Random(2201)
    for _ in range(200):
        weight = rng.randint(1, 4)
        entries = {
            format_partition(p): rng.randint(-50, 50)
            for p in partitions_decreasing(weight)
        }
        table = _p_table(4 * weight, entries)
        d1, d2 = rng.randint(1, 9), rng.randint(1, 9)
        assert (
            pullback_numbers(pullback_numbers(table, d1), d2).entries
            == pullback_numbers(table, d1 * d2).entries
        )


def test_solve_cayley_example():
    solved = solve_manifold_numbers(_p_table(16, dict(_CAYLEY)), 2, 3)
    assert solved.entries == {"4": 26, "3,1": 0, "2,2": 24, "2,1,1": 0, "1,1,1,1": 0}


def test_solve_requires_exact_division():
    with pytest.raises(InconsistentDegreesError):
        solve_manifold_numbers(_p_table(16, dict(_CAYLEY)), 1, 2)


def test_solve_rejects_zero_map_degree():
    with pytest.raises(InconsistentDegreesError):
        solve_manifold_numbers(_p_table(16, dict(_CAYLEY)), 1, 0)


def test_solve_zero_cover_degree():
    with pytest.raises(InconsistentDegreesError):
        solve_manifold_numbers(_p_table(16, dict(_CAYLEY)), 0, 1)
    all_zero = _p_table(16, {k: 0 for k in _CAYLEY})
    solved = solve_manifold_numbers(all_zero, 0, 7)
    assert solved.all_zero()


def test_solve_handles_negative_degrees():
    table = _p_table(8, {"2": 6, "1,1": -9})
    solved = solve_manifold_numbers(table, 2, -3)
    assert solved.entries == {"2": -4, "1,1": 6}


def test_solve_rejects_sw_tables():
    with pytest.raises(SymcharError):
        solve_manifold_numbers(CharNumberTable(SW, 4, {"w4": 1}), 1, 1)


def test_solve_inverts_pullback():
    rng = random.Random(2202)
    for _ in range(200):
        weight = rng.randint(1, 4)
        entries = {
            format_partition(p): rng.randint(-20, 20)
            for p in partitions_decreasing(weight)
        }
        table = _p_table(4 * weight, entries)
        degree = rng.randint(1, 9)
        assert (
            solve_manifold_numbers(pullback_numbers(table, degree), 1, degree).entries
            == entries
        )


def test_mu_identical_tables():
    table = _p_table(16, {"4": 39, "2,2": 36})
    report = mu(table, _p_table(16, {"4": 39, "2,2": 36}))
    assert report.mu == 1
    assert report.contributions == {"4": 1, "2,2": 1}
    assert report.skipped == []


def test_mu_single_partition_example():
    report = mu(_p_table(4, {"1": 2}), _p_table(4, {"1": 6}))
    assert report.mu == 3
    assert report.contributions == {"1": 3}


def test_mu_cayley_flavoured_example():
    report = mu(
        _p_table(16, {"4": 13, "2,2": 12}),
        _p_table(16, {"4": 39, "2,2": 36}),
    )
    assert report.mu == 3
    assert report.contributions == {"4": 3, "2,2": 3}


def test_mu_skips_partitions_vanishing_on_both_sides():
    report = mu(
        _p_table(16, {"4": 5, "3,1": 0}),
        _p_table(16, {"4": 10, "3,1": 0}),
    )
    assert report.mu == 2
    assert report.skipped == ["3,1"]
    assert "3,1" not in report.contributions


def test_mu_missing_keys_default_to_zero():
    report = mu(_p_table(16, {"4": 5}), _p_table(16, {"4": 10, "3,1": 0}))
    assert report.mu == 2
    assert report.skipped == ["3,1"]


def test_mu_all_zero_tables():
    zeros = {k: 0 for k in _CAYLEY}
    report = mu(_p_table(16, dict(zeros)), _p_table(16, dict(zeros)))
    assert report.mu == 1
    assert report.contributions == {}
    assert len(report.skipped) == 5


def test_mu_rejects_inconsistent_tables():
    with pytest.raises(InconsistentTablesError):
        mu(_p_table(16, {"4": 0}), _p_table(16, {"4": 39}))
    with pytest.raises(InconsistentTablesError):
        mu(_p_table(16, {"4": 7}), _p_table(16, {"4": 0}))


def test_mu_validates_kinds_and_dimensions():
    with pytest.raises(DimensionMismatchError):
        mu(_p_table(16, {"4": 1}), _p_table(8, {"2": 1}))
    with pytest.raises(SymcharError):
        mu(CharNumberTable(SW, 4, {"w4": 1}), _p_table(4, {"1": 1}))


def test_mu_matches_bruteforce_spot_checks():
    rng = random.Random(2203)
    for _ in range(150):
        weight = rng.randint(1, 4)
        pairs = []
        m_entries, mu_entries = {}, {}
        for p in partitions_decreasing(weight):
            key = format_partition(p)
            if rng.random() < 0.3:
                m_entries[key] = mu_entries[key] = 0
                continue
            a = rng.choice([x for x in range(-50, 51) if x])
            b = rng.choice([x for x in range(-50, 51) if x])
            m_entries[key], mu_entries[key] = a, b
            pairs.append((a, b))
        report = mu(_p_table(4 * weight, m_entries), _p_table(4 * weight, mu_entries))
        assert report.mu == smallest_degree_divisors(pairs)
        bound = 1
        for _, b in pairs:
            bound = lcm(bound, abs(b))
        if bound <= 3000:
            assert report.mu == smallest_degree_scan(pairs)


def test_gl_order_examples():
    assert gl_order(1, 2) == 1
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert gl_order(3, 3) == 11232


def test_gl_order_prime_powers_accepted():
    assert gl_order(1, 4) == 3
    assert gl_order(1, 8) == 7
    assert gl_order(1, 9) == 8
    assert gl_order(2, 4) == (16 - 1) * (16 - 4)


def test_gl_order_rejects_non_prime_powers():
    for q in [0, 1, 6, 10, 12, 15, 36]:
        with pytest.raises(BadPrimePowerError):
            gl_order(2, q)
    with pytest.raises(SymcharError):
        gl_order(0, 2)


def test_prime_power_base_matches_trial_division():
    for q in range(-2, 10**5):
        assert _prime_power_base(q) == prime_power_base_by_trial_division(q), q


@pytest.mark.parametrize(
    "q, base",
    [
        (2**61 - 1, 2**61 - 1),
        ((2**31 - 1) ** 2, 2**31 - 1),
        (10**18 + 3, 10**18 + 3),
        (3**40, 3),
        ((10**9 + 7) * (10**9 + 9), None),
        ((2**61 - 1) ** 5, 2**61 - 1),  # past the Miller-Rabin range, root within
    ],
    ids=["2^61-1", "(2^31-1)^2", "10^18+3", "3^40", "(10^9+7)(10^9+9)", "(2^61-1)^5"],
)
def test_large_prime_powers_are_decided_quickly(q, base):
    start = time.perf_counter()
    assert _prime_power_base(q) == base
    if base is None:
        with pytest.raises(BadPrimePowerError):
            gl_order(1, q)
    else:
        assert gl_order(1, q) == q - 1
    assert time.perf_counter() - start < 1.0


def test_only_primes_past_the_proven_range_are_refused():
    # Miller-Rabin on the bases 2..41 proves a prime only below 3.317e24, but
    # a witness proves a composite at any size
    for q in (2**89 - 1, (2**89 - 1) ** 2, 2**521 - 1):
        with pytest.raises(TooLargeError):
            _prime_power_base(q)
    for q in (
        3 * (2**89 - 1),
        101 * (2**89 - 1),
        101**12 * 103,
        (2**89 - 1) * (2**127 - 1),
        (2**521 - 1) ** 2 * 101,
    ):
        assert _prime_power_base(q) is None, q
        with pytest.raises(BadPrimePowerError):
            gl_order(1, q)


def test_a_large_prime_is_refused_after_one_round():
    # past 3.317e24 a q that passes base 2 is refused whatever the other
    # bases say, so only base 2 is tried: one round on 3217 bits
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        gl_order(1, 2**3217 - 1)
    assert time.perf_counter() - start < 1.0


def _odd_without_factor_to_100(q):
    q |= 1
    while any(q % p == 0 for p in range(3, 101, 2)):
        q += 2
    return q


def test_a_4300_digit_composite_is_refused_at_once():
    # no factor up to 100 and no root on 14 281 bits: the Miller-Rabin round
    # (about 7 s) is past the bit cap, so only the root search runs
    q = _odd_without_factor_to_100(10**4299)
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        gl_order(1, q)
    with pytest.raises(TooLargeError):
        deligne_sullivan_check(1, 1, 2, q)
    assert time.perf_counter() - start < 1.0


def test_a_field_size_past_the_cli_range_is_refused_before_the_root_search():
    # 57 138 bits, past the 14 285 of 10^4300 - 1: the root search alone
    # would take about 6 s
    q = _odd_without_factor_to_100(10**17200)
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        gl_order(1, q)
    with pytest.raises(TooLargeError):
        deligne_sullivan_check(1, 1, 2, q)
    assert time.perf_counter() - start < 1.0


def test_the_root_search_runs_up_to_the_bits_of_the_largest_cli_q():
    # 10^4300 - 1 has 14 285 bits: a q of that many passes the root search
    # and is refused at the Miller-Rabin cap, one bit more at once
    assert _ROOT_MAX_BITS == (10**4300 - 1).bit_length() == 14_285
    last = _odd_without_factor_to_100(2 ** (_ROOT_MAX_BITS - 1))
    past = _odd_without_factor_to_100(2**_ROOT_MAX_BITS)
    assert (last.bit_length(), past.bit_length()) == (14_285, 14_286)
    with pytest.raises(TooLargeError, match="primality is tested up to 4096 bits"):
        _prime_power_base(last)
    with pytest.raises(TooLargeError, match="prime powers are sought up to 14285 bits"):
        _prime_power_base(past)


def test_the_bit_cap_stops_only_miller_rabin():
    below = _odd_without_factor_to_100(2 ** (_MR_MAX_BITS - 1))
    above = 103 * below  # composite, no factor up to 100, no root
    assert below.bit_length() == _MR_MAX_BITS < above.bit_length()
    with pytest.raises(BadPrimePowerError):
        gl_order(1, below)  # a witness to base 2 on the last bits tested
    with pytest.raises(TooLargeError):
        gl_order(1, above)
    # 13 317 bits, but the root search comes first and finds 101
    assert _prime_power_base(101**2000) == 101
    assert gl_order(1, 101**2000) == 101**2000 - 1


def test_gl_order_matches_enumeration_spot_checks():
    for q in (2, 3):
        for n in (1, 2):
            assert gl_order(n, q) == gl_count_enumerated(n, q)


def test_gl_order_divisibility_property():
    # the determinant map onto F_q^* and the unipotent upper-triangular
    # subgroup give (q - 1) and q^(n(n-1)/2) as divisors
    for n in range(1, 6):
        for q in (2, 3, 4, 5, 8, 9):
            order = gl_order(n, q)
            assert order % (q - 1) == 0
            assert order % (q ** (n * (n - 1) // 2)) == 0


def test_gl_orders_are_refused_only_past_the_digit_limit():
    # a refused order must have been past the limit; both sides are reached
    def ds_product(n):
        return deligne_sullivan_check(7, n // 2, 2, 3).order_product

    calls = [(lambda n, q=q: gl_order(n, q), (q,)) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
    calls.append((ds_product, (2, 3)))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for call, qs in calls:
            edge = isqrt(int(4300 / sum(log10(q) for q in qs)))
            outcomes = set()
            for n in range(edge - 4, edge + 5):
                if len(qs) == 2 and n % 2 == 0:
                    continue  # ds-check orders are of GL_(2k+1)
                exact = 1
                for q in qs:
                    exact *= gl_order_by_definition(n, q)
                try:
                    assert call(n) == exact
                    outcomes.add("computed")
                except TooLargeError:
                    assert exact >= 10**4300, (n, qs)
                    outcomes.add("refused")
            assert outcomes == {"computed", "refused"}, qs
    finally:
        sys.set_int_max_str_digits(saved)


def test_gl_order_matches_the_definition():
    # every order the default limit admits, against prod_{i<n} (q^n - q^i)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27, 101, 1024):
            answered = 0
            for n in range(1, 65):
                exact = gl_order_by_definition(n, q)
                try:
                    assert gl_order(n, q) == exact, (n, q)
                    answered += 1
                except TooLargeError:
                    assert exact >= 10**4300, (n, q)
            assert answered >= 7, q
    finally:
        sys.set_int_max_str_digits(saved)


def test_a_repeated_ds_check_reads_its_orders_from_the_memo():
    transfer._gl_memo.cache_clear()
    first = deligne_sullivan_check(7, 19, 9, 16)
    assert transfer._gl_memo.cache_info()[:2] == (0, 2)  # hits, misses
    again = deligne_sullivan_check(5, 19, 9, 16)
    assert transfer._gl_memo.cache_info()[:2] == (2, 2)
    assert again.order_1 == first.order_1 == gl_order_by_definition(39, 9)
    assert again.order_2 == first.order_2 == gl_order_by_definition(39, 16)
    assert gl_order(39, 16) == first.order_2
    assert transfer._gl_memo.cache_info()[:2] == (3, 2)


def test_the_gl_memo_keeps_at_most_its_size():
    transfer._gl_memo.cache_clear()
    fields = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
    pairs = [(n, q) for q in fields for n in range(1, 41)]
    assert len(pairs) > GL_MEMO_SIZE
    for n, q in pairs:
        assert gl_order(n, q) == gl_order_by_definition(n, q)
    info = transfer._gl_memo.cache_info()
    assert (info.misses, info.currsize) == (len(pairs), GL_MEMO_SIZE)


def test_the_gl_memo_stores_only_small_orders_and_the_gate_comes_first():
    # At every int-to-text limit the gate runs before the memo and admits no
    # order past 4301 digits: (120, 2) and (1, 2^14300), of 14 400 and 14 300
    # bits, and (1, 2^14299), of 4305 digits, are refused and never stored,
    # while (1, 2^14283), whose order has 4300 digits, is answered and stored.
    transfer._gl_memo.cache_clear()
    q = 2**14283
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 0, 20_000):
            sys.set_int_max_str_digits(limit)
            for n, big_q in [(120, 2), (1, 2**14300), (1, 2**14299)]:
                with pytest.raises(TooLargeError):
                    gl_order(n, big_q)
            assert transfer._gl_memo.cache_info().currsize == 0
        for limit in (4300, 0, 20_000):
            sys.set_int_max_str_digits(limit)
            order = gl_order(1, q)
            assert order == gl_order_by_definition(1, q)
            assert 10**4299 <= order < 10**4300
        assert transfer._gl_memo.cache_info()[:2] == (2, 1)  # hits, misses
        assert transfer._gl_memo.cache_info().currsize == 1
    finally:
        sys.set_int_max_str_digits(saved)


def test_ds_check_known_true():
    report = deligne_sullivan_check(3, 1, 2, 3)
    assert report.divides
    assert report.order_1 == 168
    assert report.order_2 == 11232
    assert report.order_product == 168 * 11232


def test_ds_check_mu_one_always_divides():
    assert deligne_sullivan_check(1, 2, 3, 4).divides


def test_ds_check_false_witness():
    # 11 divides neither |GL_3(F_2)| nor |GL_3(F_3)|
    report = deligne_sullivan_check(11, 1, 2, 3)
    assert not report.divides
    assert report.order_product % 11 != 0


def test_ds_check_requires_distinct_characteristics():
    with pytest.raises(EqualCharacteristicError):
        deligne_sullivan_check(3, 1, 2, 4)
    with pytest.raises(EqualCharacteristicError):
        deligne_sullivan_check(3, 1, 3, 27)


def test_ds_check_validates_inputs(monkeypatch):
    with pytest.raises(BadPrimePowerError):
        deligne_sullivan_check(3, 1, 6, 5)
    # q1 is refused before q2 is tested: 10**25 + 13 is an 84-bit prime that
    # _prime_power_base cannot prove prime.
    tested = []

    def recording(q):
        tested.append(q)
        return _prime_power_base(q)

    monkeypatch.setattr(transfer, "_prime_power_base", recording)
    with pytest.raises(BadPrimePowerError, match="^6 is not a prime power$"):
        deligne_sullivan_check(1, 1, 6, 10**25 + 13)
    assert tested == [6]
    with pytest.raises(SymcharError):
        deligne_sullivan_check(0, 1, 2, 3)
    with pytest.raises(SymcharError):
        deligne_sullivan_check(3, 0, 2, 3)


_SW_TABLE = CharNumberTable(SW, 2, {"w1^2": 1})


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize(
    "call, arguments",
    [
        (gl_order, (2.0, 5)),
        (gl_order, (2, 5.0)),
        (gl_order, (True, 2)),
        (deligne_sullivan_check, (6, 1.0, 2, 3)),
        (deligne_sullivan_check, (6.0, 19, 9, 16)),
        (deligne_sullivan_check, (6, 1, 2, 3.0)),
        (deligne_sullivan_check, (True, 1, 2, 3)),
        (pullback_numbers, (_p_table(16, _CAYLEY), 2.5)),
        (pullback_numbers, (_p_table(16, _CAYLEY), True)),
        (pullback_numbers, (_SW_TABLE, 1.0)),
        (solve_manifold_numbers, (_p_table(16, _CAYLEY), 3, 1.5)),
        (solve_manifold_numbers, (_p_table(16, _CAYLEY), 3.0, 1)),
        (solve_manifold_numbers, (_SW_TABLE, True, 1)),  # before the kind is read
    ],
    ids=lambda value: getattr(value, "__name__", None) or ",".join(
        repr(a) for a in value if not isinstance(a, CharNumberTable)
    ),
)
def test_numeric_arguments_must_be_exact_ints(call, arguments, memo):
    # A float or bool equal to an int hashes as it does, so a warm GL memo
    # would answer it from the int's entry: the type is checked first.
    transfer._gl_memo.cache_clear()
    if memo == "warm":
        gl_order(2, 5)
        deligne_sullivan_check(6, 1, 2, 3)
        deligne_sullivan_check(6, 19, 9, 16)
    with pytest.raises(SymcharError, match=r"must be (an int|ints)$") as info:
        call(*arguments)
    assert type(info.value) is SymcharError and info.value.code == "invalid-input"
