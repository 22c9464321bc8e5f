"""Truncated-ring arithmetic: worked examples plus randomized spot checks.

The heavyweight 1000-case property suites live in test_acceptance; here
the same invariants get a few hundred cases each so failures localize.
"""

import random
from math import comb

import pytest

from symchar.errors import NotInvertibleError, RingMismatchError, SymcharError
from symchar.ring import (
    EXACT,
    MOD2,
    RingDescriptor,
    make_element,
    one,
    zero,
)


def test_make_element_pads_short_input():
    r = RingDescriptor(2, 3)
    assert make_element(r, [1, 2]).coefficients == (1, 2, 0, 0)


def test_make_element_rejects_long_input():
    r = RingDescriptor(2, 1)
    with pytest.raises(SymcharError):
        make_element(r, [1, 2, 3])


def test_mod2_reduces_on_entry():
    r = RingDescriptor(4, 1, MOD2)
    assert make_element(r, [1, 2]).coefficients == (1, 0)


def test_descriptor_validation():
    with pytest.raises(SymcharError):
        RingDescriptor(0, 1)
    with pytest.raises(SymcharError):
        RingDescriptor(2, -1)
    with pytest.raises(SymcharError):
        RingDescriptor(2, 1, "rational")


def test_add_componentwise():
    r = RingDescriptor(4, 2)
    a = make_element(r, [1, 4, -2])
    b = make_element(r, [0, -4, 5])
    assert a.add(b).coefficients == (1, 0, 3)


def test_mul_truncates_top_terms():
    r = RingDescriptor(4, 1)
    a = make_element(r, [1, 1])
    assert a.mul(a).coefficients == (1, 2)


def test_mul_difference_of_squares():
    r = RingDescriptor(4, 2)
    a = make_element(r, [1, 1])
    b = make_element(r, [1, -1])
    assert a.mul(b).coefficients == (1, 0, -1)


def test_pow_matches_binomial_coefficients():
    # (1 + u)^6 truncated at T = 2 is 1 + 6u + 15u^2
    r = RingDescriptor(4, 2)
    a = make_element(r, [1, 1])
    assert a.pow(6).coefficients == tuple(comb(6, k) for k in range(3))


def test_pow_degree_two_generator_example():
    r = RingDescriptor(2, 2)
    a = make_element(r, [1, 1])
    assert a.pow(3).coefficients == (1, 3, 3)


def test_pow_zero_is_one():
    r = RingDescriptor(4, 3)
    a = make_element(r, [1, 7, -2, 5])
    assert a.pow(0) == one(r)


def test_pow_rejects_negative_exponent():
    r = RingDescriptor(4, 1)
    with pytest.raises(SymcharError):
        make_element(r, [1, 1]).pow(-1)


def test_generator_power_above_truncation_vanishes():
    r = RingDescriptor(4, 3)
    u = make_element(r, [0, 1])
    assert u.pow(4) == zero(r)


def test_invert_geometric_example():
    # (1 + 4u)^(-1) = 1 - 4u + 16u^2 at T = 2
    r = RingDescriptor(4, 2)
    inv = make_element(r, [1, 4]).invert_unit()
    assert inv.coefficients == (1, -4, 16)


def test_invert_constant_minus_one():
    r = RingDescriptor(4, 2)
    a = make_element(r, [-1, 1])
    assert a.mul(a.invert_unit()) == one(r)


def test_invert_rejects_non_unit_constant():
    r = RingDescriptor(4, 2)
    with pytest.raises(NotInvertibleError):
        make_element(r, [2, 1]).invert_unit()
    with pytest.raises(NotInvertibleError):
        make_element(r, [0, 1]).invert_unit()


def test_mod2_invert_geometric_series():
    r = RingDescriptor(2, 5, MOD2)
    inv = make_element(r, [1, 1]).invert_unit()
    assert inv.coefficients == (1,) * 6


def test_mixed_ring_operations_rejected():
    a = make_element(RingDescriptor(4, 2), [1, 1])
    b = make_element(RingDescriptor(4, 3), [1, 1])
    c = make_element(RingDescriptor(2, 2), [1, 1])
    d = make_element(RingDescriptor(4, 2, MOD2), [1, 1])
    for other in (b, c, d):
        with pytest.raises(RingMismatchError):
            a.mul(other)
    with pytest.raises(RingMismatchError):
        a.add(b)


def test_coefficient_bounds():
    r = RingDescriptor(4, 2)
    a = make_element(r, [5, 6, 7])
    assert a.coefficient(0) == 5
    assert a.coefficient(2) == 7
    with pytest.raises(SymcharError):
        a.coefficient(3)
    with pytest.raises(SymcharError):
        a.coefficient(-1)


def test_operator_sugar_matches_methods():
    r = RingDescriptor(4, 3)
    a = make_element(r, [1, 2, 3, 4])
    b = make_element(r, [1, -1, 0, 2])
    assert a + b == a.add(b)
    assert a * b == a.mul(b)
    assert a**5 == a.pow(5)
    assert a - a == zero(r)


def _random_element(rng, ring, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(ring.n_slots)]
    return make_element(ring, coeffs)


def _random_ring(rng, mode=EXACT):
    return RingDescriptor(rng.choice([1, 2, 4, 8]), rng.randint(0, 16), mode)


def test_ring_axioms_spot_checks():
    rng = random.Random(1101)
    for _ in range(300):
        ring = _random_ring(rng)
        a = _random_element(rng, ring)
        b = _random_element(rng, ring)
        c = _random_element(rng, ring)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def test_unit_inverse_spot_checks():
    rng = random.Random(1102)
    for _ in range(300):
        mode = rng.choice([EXACT, MOD2])
        ring = _random_ring(rng, mode)
        a = _random_element(rng, ring)
        unit_constant = 1 if mode == MOD2 else rng.choice([1, -1])
        a = make_element(ring, [unit_constant, *a.coefficients[1:]])
        assert a.mul(a.invert_unit()) == one(ring)


def test_truncation_consistency_spot_checks():
    # multiply at T, drop the top slot: same as multiplying at T - 1
    rng = random.Random(1103)
    for _ in range(300):
        gen = rng.choice([1, 2, 4, 8])
        top = rng.randint(1, 16)
        wide = RingDescriptor(gen, top)
        narrow = RingDescriptor(gen, top - 1)
        a = _random_element(rng, wide)
        b = _random_element(rng, wide)
        product = a.mul(b)
        shrunk = make_element(narrow, product.coefficients[:-1])
        a_n = make_element(narrow, a.coefficients[:-1])
        b_n = make_element(narrow, b.coefficients[:-1])
        assert a_n.mul(b_n) == shrunk


def test_mod2_equals_exact_then_reduce_spot_checks():
    rng = random.Random(1104)
    for _ in range(300):
        gen = rng.choice([1, 2, 4, 8])
        top = rng.randint(0, 16)
        exact_ring = RingDescriptor(gen, top)
        mod_ring = RingDescriptor(gen, top, MOD2)

        def reduced(element):
            return make_element(mod_ring, [c & 1 for c in element.coefficients])

        a = _random_element(rng, exact_ring)
        b = _random_element(rng, exact_ring)
        assert reduced(a.add(b)) == reduced(a).add(reduced(b))
        assert reduced(a.mul(b)) == reduced(a).mul(reduced(b))
        k = rng.randint(0, 9)
        assert reduced(a.pow(k)) == reduced(a).pow(k)
        unit = make_element(exact_ring, [rng.choice([1, -1]), *a.coefficients[1:]])
        assert reduced(unit.invert_unit()) == reduced(unit).invert_unit()


def test_kernels_preserve_big_integers():
    # coefficients far beyond machine words must stay exact
    r = RingDescriptor(4, 2)
    big = 10**40
    a = make_element(r, [1, big, 0])
    assert a.mul(a).coefficients == (1, 2 * big, big * big)
