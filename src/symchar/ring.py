"""Exact arithmetic in truncated single-generator graded polynomial rings.

Models Z[u]/(u^(T+1)) and (Z/2)[u]/(u^(T+1)) where the generator u sits in a
fixed cohomological degree.  An element stores one integer coefficient per
power of u, constant term first; everything above u^T is discarded.  All
arithmetic is exact: coefficients are Python ints and never overflow.

The three convolution kernels below (product, power, unit inverse) take
coefficient sequences of length T + 1 and return lists; ``GradedElement``
wraps them with the ring checks and the mod-2 reduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from symchar.errors import NotInvertibleError, RingMismatchError, SymcharError

#: Exact integer coefficients.
EXACT = "exact-integer"
#: Coefficients reduced mod 2.
MOD2 = "mod-2"

_MODES = (EXACT, MOD2)


def _mul_trunc(a: Sequence[int], b: Sequence[int], top: int) -> list:
    """Convolution product with terms above slot ``top`` discarded."""
    n = top + 1
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _pow_trunc(a: Sequence[int], k: int, top: int) -> list:
    """k-th power by binary exponentiation, truncated above slot ``top``."""
    result = [0] * (top + 1)
    result[0] = 1
    base = list(a)
    while k:
        if k & 1:
            result = _mul_trunc(result, base, top)
        k >>= 1
        if k:
            base = _mul_trunc(base, base, top)
    return result


def _invert_trunc(a: Sequence[int], top: int) -> list:
    """Inverse of a unit whose constant term is 1 or -1.

    Geometric-series recursion: with c0 = a[0] (its own inverse),
    b[0] = c0 and b[k] = -c0 * sum(a[i] * b[k-i] for i in 1..k).
    The caller is responsible for validating the constant term.
    """
    c0 = a[0]
    out = [0] * (top + 1)
    out[0] = c0
    for k in range(1, top + 1):
        s = 0
        for i in range(1, k + 1):
            ai = a[i]
            if ai:
                s += ai * out[k - i]
        out[k] = -c0 * s
    return out


@dataclass(frozen=True, slots=True)
class RingDescriptor:
    """A truncated polynomial ring with one generator.

    generator_degree: cohomological degree of u (>= 1).
    truncation_top:   largest surviving power T of u (>= 0).
    coefficient_mode: EXACT or MOD2.
    """

    generator_degree: int
    truncation_top: int
    coefficient_mode: str = EXACT

    def __post_init__(self) -> None:
        if self.generator_degree < 1:
            raise SymcharError("generator degree must be a positive integer")
        if self.truncation_top < 0:
            raise SymcharError("truncation top must be non-negative")
        if self.coefficient_mode not in _MODES:
            raise SymcharError(
                f"unknown coefficient mode {self.coefficient_mode!r}"
            )

    @property
    def n_slots(self) -> int:
        return self.truncation_top + 1


def _reduce(ring: RingDescriptor, coeffs: list) -> tuple:
    if ring.coefficient_mode == MOD2:
        return tuple(c & 1 for c in coeffs)
    return tuple(coeffs)


@dataclass(frozen=True, slots=True)
class GradedElement:
    """An element of a truncated ring: coefficients of u^0 .. u^T."""

    ring: RingDescriptor
    coefficients: tuple

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.ring.n_slots:
            raise SymcharError(
                "coefficient tuple must have exactly T+1 entries"
            )

    def coefficient(self, power: int) -> int:
        """Coefficient of u^power.  The power must lie in 0..T."""
        if not 0 <= power <= self.ring.truncation_top:
            raise SymcharError(
                f"power {power} out of range 0..{self.ring.truncation_top}"
            )
        return self.coefficients[power]

    def add(self, other: GradedElement) -> GradedElement:
        _check_same_ring(self, other)
        coeffs = [x + y for x, y in zip(self.coefficients, other.coefficients)]
        return GradedElement(self.ring, _reduce(self.ring, coeffs))

    def mul(self, other: GradedElement) -> GradedElement:
        _check_same_ring(self, other)
        out = _mul_trunc(
            self.coefficients, other.coefficients, self.ring.truncation_top
        )
        return GradedElement(self.ring, _reduce(self.ring, out))

    def pow(self, k: int) -> GradedElement:
        """k-th power, k >= 0 (pow(a, 0) is the multiplicative unit)."""
        if k < 0:
            raise SymcharError("exponent must be non-negative")
        out = _pow_trunc(self.coefficients, k, self.ring.truncation_top)
        return GradedElement(self.ring, _reduce(self.ring, out))

    def invert_unit(self) -> GradedElement:
        """Multiplicative inverse of a unit.

        In exact mode the constant term must be 1 or -1; in mod-2 mode it
        must be 1.  Anything else raises NotInvertibleError.
        """
        c0 = self.coefficients[0]
        if self.ring.coefficient_mode == EXACT and c0 not in (1, -1):
            raise NotInvertibleError("not invertible in truncated ring")
        if self.ring.coefficient_mode == MOD2 and c0 != 1:
            raise NotInvertibleError("not invertible in truncated ring")
        out = _invert_trunc(self.coefficients, self.ring.truncation_top)
        return GradedElement(self.ring, _reduce(self.ring, out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __add__(self, other: GradedElement) -> GradedElement:
        return self.add(other)

    def __mul__(self, other: GradedElement) -> GradedElement:
        return self.mul(other)

    def __pow__(self, k: int) -> GradedElement:
        return self.pow(k)

    def __neg__(self) -> GradedElement:
        coeffs = [-c for c in self.coefficients]
        return GradedElement(self.ring, _reduce(self.ring, coeffs))

    def __sub__(self, other: GradedElement) -> GradedElement:
        return self.add(-other)


def _check_same_ring(a: GradedElement, b: GradedElement) -> None:
    if a.ring != b.ring:
        raise RingMismatchError("elements belong to different rings")


def make_element(ring: RingDescriptor, coefficients) -> GradedElement:
    """Build an element from a coefficient sequence, constant term first.

    Sequences shorter than T+1 are zero-padded on the right.  Longer ones
    are rejected: truncation must be the caller's explicit decision.
    """
    coeffs = list(coefficients)
    if len(coeffs) > ring.n_slots:
        raise SymcharError(
            f"{len(coeffs)} coefficients exceed the {ring.n_slots} slots "
            f"of a ring truncated at T={ring.truncation_top}"
        )
    coeffs.extend([0] * (ring.n_slots - len(coeffs)))
    return GradedElement(ring, _reduce(ring, coeffs))


def zero(ring: RingDescriptor) -> GradedElement:
    return make_element(ring, [])


def one(ring: RingDescriptor) -> GradedElement:
    return make_element(ring, [1])
