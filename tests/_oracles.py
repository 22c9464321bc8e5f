"""Independent oracles used to cross-check the library.

Everything here is written the dumb way on purpose: full convolutions with
no truncation, exhaustive enumeration, linear scans.  The point is a second
route to the same numbers that shares no arithmetic with the package.
"""

from __future__ import annotations

import itertools
import re
from functools import cache
from math import factorial, isqrt, lcm, prod


def poly_mul(a: list, b: list) -> list:
    """Full polynomial product, no truncation."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_pow(a: list, k: int) -> list:
    """a^k by k untruncated products."""
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def _so_weyl_order(n: int) -> int:
    m, odd = divmod(n, 2)
    return 2**m * factorial(m) if odd else 2 ** (m - 1) * factorial(m)


# Compact group factors: kind -> (rank, order of the Weyl group), each a
# function of the factor's parameters (n >= 1).  The orders: SU(n) n!,
# SO(2m+1) 2^m m!, SO(2m) 2^(m-1) m!, Sp(n) 2^n n!, U(n) n!, Spin(9) 384,
# F4 1152; S(U(p) x U(q)) has the Weyl group S_p x S_q and rank p + q - 1.
_FACTORS = {
    "SU": (lambda n: n - 1, lambda n: factorial(n)),
    "SO": (lambda n: n // 2, _so_weyl_order),
    "Sp": (lambda n: n, lambda n: 2**n * factorial(n)),
    "U": (lambda n: n, lambda n: factorial(n)),
    "SUxU": (lambda p, q: p + q - 1, lambda p, q: factorial(p) * factorial(q)),
    "Spin9": (lambda: 4, lambda: 384),
    "F4": (lambda: 4, lambda: 1152),
}


def weyl_order(kind: str, *params: int) -> int:
    """|W| of one compact factor, e.g. weyl_order("SO", 7) == 48."""
    return _FACTORS[kind][1](*params)


def group_weyl_order(factors) -> int:
    """|W| of a product of (kind, *params) factors: the product of theirs."""
    return prod(weyl_order(*f) for f in factors)


def _group_rank(factors) -> int:
    return sum(_FACTORS[kind][0](*params) for kind, *params in factors)


# family -> params -> (G_U factors, K factors) of the compact dual, written
# out again here rather than read from the package.
_COMPACT_DUALS = {
    "SU_pq": lambda p, q: ([("SU", p + q)], [("SUxU", p, q)]),
    "SO0_pq": lambda p, q: ([("SO", p + q)], [("SO", p), ("SO", q)]),
    "SOstar_2n": lambda n: ([("SO", 2 * n)], [("U", n)]),
    "Sp_nR": lambda n: ([("Sp", n)], [("U", n)]),
    "Sp_pq": lambda p, q: ([("Sp", p + q)], [("Sp", p), ("Sp", q)]),
    "SL_nR": lambda n: ([("SU", n)], [("SO", n)]),
    "SUstar_2n": lambda n: ([("SU", 2 * n)], [("Sp", n)]),
    "RealHyperbolic_n": lambda n: ([("SO", n + 1)], [("SO", n)]),
    "ComplexHyperbolic_n": lambda n: ([("SU", n + 1)], [("SUxU", 1, n)]),
    "QuaternionicHyperbolic_n": lambda n: ([("Sp", n + 1)], [("Sp", 1), ("Sp", n)]),
    "CayleyHyperbolic": lambda: ([("F4",)], [("Spin9",)]),
    "ConstantPositive_n": lambda n: ([("SO", n + 1)], [("SO", n)]),
    "Flat_n": lambda n: ([("U", 1)] * n, []),
}


def euler_char_by_weyl_quotient(family: str, params: tuple) -> int:
    """chi(G_U/K) of a family's compact dual: |W(G_U)| / |W(K)| from two
    whole factorial products at equal rank (Hopf-Samelson), 0 under a rank
    gap and on the parallelizable dual of TypeIV."""
    if family == "TypeIV":
        return 0
    gu, k = _COMPACT_DUALS[family](*params)
    if _group_rank(gu) != _group_rank(k):
        return 0
    quotient, rest = divmod(group_weyl_order(gu), group_weyl_order(k))
    assert rest == 0, (family, params)
    return quotient


def total_pontrjagin_plain(kind: str, n: int) -> tuple:
    """(generator degree, coefficients of u^0 .. u^T) of the total
    Pontrjagin class of a rank-one dual, from untruncated products truncated
    once at the end.  HP^n's factor (1 + 4u)^(-1) is its geometric series up
    to u^n; CayP^2's class is the classical constant (Borel-Hirzebruch)."""
    if kind == "sphere":
        return n, [1, 0]
    if kind == "complex-projective":
        return 2, poly_pow([1, 0, 1], n + 1)[: n + 1]
    if kind == "quaternionic-projective":
        geometric = [(-4) ** k for k in range(n + 1)]
        return 4, poly_mul(poly_pow([1, 1], 2 * n + 2), geometric)[: n + 1]
    if kind == "cayley-plane":
        return 8, [1, 6, 39]
    raise ValueError(kind)


def total_stiefel_whitney_plain(kind: str, n: int) -> tuple:
    """Same as total_pontrjagin_plain for the SW class of S^n or CP^n:
    1 and (1 + a)^(n+1), reduced mod 2 at the end."""
    if kind == "sphere":
        return n, [1, 0]
    if kind == "complex-projective":
        return 2, [c % 2 for c in poly_pow([1, 1], n + 1)[: n + 1]]
    raise ValueError(kind)


def _gf2_mul(a: list, b: list, top: int) -> list:
    """a * b over GF(2), cut at u^top."""
    out = [0] * (top + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: top + 1 - i]):
                out[i + j] ^= bj
    return out


def total_stiefel_whitney_wu(degree: int, top: int) -> tuple:
    """Total SW class mod 2 of a manifold with cohomology Z/2[u]/(u^(T+1)),
    T = top and u in the given degree, by Wu's formula w = Sq(v)
    (Milnor-Stasheff section 11), computed on the truncated ring.

    Sq is the total square, a ring map with Sq(u) = u + u^2: Sq^i u for
    0 < i < degree lands where the ring is zero, and Sq^degree u = u^2.  So
    Sq(u^m) = Sq(u^(m-1)) Sq(u) by Cartan.  The Wu class v is fixed by
    <Sq x, [M]> = <v x, [M]> for every x: with x = u^m, v_(T-m) is the u^T
    coefficient of Sq(u^m).  A ring with u^2 != 0 needs degree 1, 2, 4 or 8
    (Adams, Hopf invariant one)."""
    if degree < 1 or (top > 1 and degree not in (1, 2, 4, 8)):
        raise ValueError(f"no Z/2[u]/(u^{top + 1}) with u in degree {degree}")
    squares = [[1] + [0] * top]  # Sq(u^m), m = 0 .. top
    for _ in range(top):
        squares.append(_gf2_mul(squares[-1], [0, 1, 1], top))
    v = [squares[top - j][top] for j in range(top + 1)]
    w = [0] * (top + 1)
    for j, vj in enumerate(v):
        if vj:
            w = [a ^ b for a, b in zip(w, squares[j])]
    return tuple(w)


def char_number_plain(
    total_coeffs, generator_degree: int, dim: int, partition
) -> int:
    """Evaluate one partition product by untruncated convolution.

    total_coeffs holds the total class, one slot per generator power.
    Each part i contributes the degree-4i component; the number is the
    coefficient at the fundamental slot dim / generator_degree.
    """
    acc = [1]
    for part in partition:
        slot, rem = divmod(4 * part, generator_degree)
        if rem or slot >= len(total_coeffs):
            comp = [0]
        else:
            comp = [0] * slot + [total_coeffs[slot]]
        acc = poly_mul(acc, comp)
    top = dim // generator_degree
    return acc[top] if top < len(acc) else 0


def sw_number_plain(total_coeffs, generator_degree: int, dim: int, runs) -> int:
    """Same as char_number_plain for an SW monomial given as its runs
    ((index, exponent), ...), mod 2 at the end.  An object with the runs
    as .exponents is read too: the benchmark's verifier passes one."""
    acc = [1]
    for index, exponent in getattr(runs, "exponents", runs):
        slot, rem = divmod(index, generator_degree)
        if rem or slot >= len(total_coeffs):
            comp = [0]
        else:
            comp = [0] * slot + [total_coeffs[slot] & 1]
        for _ in range(exponent):
            acc = poly_mul(acc, comp)
    top = dim // generator_degree
    return (acc[top] & 1) if top < len(acc) else 0


def pontrjagin_numbers_by_localization(kind: str, n: int) -> dict:
    """{partition I: p_I} of CP^n or HP^n, I over the partitions of dim/4, by
    Atiyah-Bott localization at the n + 1 fixed points i of the maximal
    torus: p_I[M] is the sum over i of prod_(a in I) e_a(w^2) / prod w, where
    w runs over the tangent weights at i, x_j - x_i (CP^n) or x_j - x_i and
    x_j + x_i (HP^n) for j != i, each e_a read off prod (1 + t w^2).  It is
    evaluated exactly at x_i = i^2 + 3i + 1, then divided by the same sum for
    u^n, u restricting to x_i (CP^n) or x_i^2 (HP^n), which fixes the
    orientation: the top power of the generator evaluates to 1."""
    # imported here: fractions loads decimal, and the benchmark's workers,
    # which load this module, need neither
    from fractions import Fraction

    x = [i * i + 3 * i + 1 for i in range(n + 1)]
    points = []  # (tangent weights, restriction of u) at each fixed point
    for i, xi in enumerate(x):
        others = [xj for j, xj in enumerate(x) if j != i]
        if kind == "complex-projective":
            points.append(([xj - xi for xj in others], xi))
        elif kind == "quaternionic-projective":
            weights = [xj - xi for xj in others] + [xj + xi for xj in others]
            points.append((weights, xi * xi))
        else:
            raise ValueError(kind)
    dim = 2 * len(points[0][0])  # each weight spans a real plane
    if dim % 4:
        return {}
    fixed = []  # (prod w, [e_0(w^2), e_1(w^2), ...], u) at each fixed point
    for weights, u in points:
        elementary = [1]
        for w in weights:
            elementary = poly_mul(elementary, [1, w * w])
        fixed.append((prod(weights), elementary, u))
    orientation = sum(Fraction(u**n, euler) for euler, _, u in fixed)
    numbers = {}
    for partition in partitions_decreasing(dim // 4):
        total = sum(
            Fraction(prod(e[a] for a in partition), euler) for euler, e, _ in fixed
        )
        number = total / orientation
        assert number.denominator == 1, (kind, n, partition, number)
        numbers[partition] = number.numerator
    return numbers


def cayley_plane_tangent_weights() -> list:
    """The tangent weights of CayP^2 = F4/Spin(9) at its three torus fixed
    points, in coordinates doubled so that the 16 short roots of F4 that are
    not roots of Spin(9) are (+-1, +-1, +-1, +-1).  At the base point they
    are the 8 of these with first coordinate +1.  The fixed points
    W(F4)/W(B4) are represented by the identity and the reflections
    s_b(v) = v - (v.b/2) b in b = (1,1,1,1) and (1,1,1,-1), each applied to
    the weights at the base point."""
    base = [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]

    def reflect(b, v):
        half = sum(bi * vi for bi, vi in zip(b, v)) // 2  # v.b is even
        return tuple(vi - half * bi for vi, bi in zip(v, b))

    return [base] + [[reflect(b, v) for v in base] for b in ((1, 1, 1, 1), (1, 1, 1, -1))]


def cayley_plane_pontrjagin_numbers_by_localization(x) -> dict:
    """{partition I: p_I} of CayP^2, I over the partitions of 4, by
    Atiyah-Bott localization: p_I is the sum over the three fixed points of
    prod_(a in I) e_a(w^2) / prod w, w over the tangent weights there
    evaluated at the generic integer point x, each e_a read off
    prod (1 + t w^2).  The signature fixes the orientation: the sums are
    divided by their L-genus (381 p4 - 71 p3p1 - 19 p2^2 + 22 p2p1^2 -
    3 p1^4) / 14175, which must be +1 or -1."""
    # imported here, as in pontrjagin_numbers_by_localization
    from fractions import Fraction

    totals = dict.fromkeys(partitions_decreasing(4), Fraction(0))
    for weights in cayley_plane_tangent_weights():
        values = [sum(wi * xi for wi, xi in zip(w, x)) for w in weights]
        elementary = [1]
        for value in values:
            elementary = poly_mul(elementary, [1, value * value])
        for partition in totals:
            totals[partition] += Fraction(prod(elementary[a] for a in partition), prod(values))
    signature = (
        381 * totals[(4,)] - 71 * totals[(3, 1)] - 19 * totals[(2, 2)]
        + 22 * totals[(2, 1, 1)] - 3 * totals[(1, 1, 1, 1)]
    ) / 14175
    assert signature in (1, -1), (x, signature)
    numbers = {}
    for partition, total in totals.items():
        number = total / signature
        assert number.denominator == 1, (x, partition, number)
        numbers[partition] = number.numerator
    return numbers


def partitions_by_compositions(n: int) -> set:
    """Distinct decreasing reorderings of all compositions of n."""
    found: set = set()

    def rec(rest: int, acc: tuple) -> None:
        if rest == 0:
            found.add(tuple(sorted(acc, reverse=True)))
            return
        for k in range(1, rest + 1):
            rec(rest - k, acc + (k,))

    rec(n, ())
    return found


@cache
def partitions_by_growth(n: int) -> frozenset:
    """Partitions of n grown from those of n - 1: add a part 1, or add 1 to
    one part, then sort.  Polynomial in p(n), where compositions are 2^(n-1)."""
    if n == 0:
        return frozenset({()})
    grown = set()
    for p in partitions_by_growth(n - 1):
        grown.add(p + (1,))
        for i in range(len(p)):
            bigger = p[:i] + (p[i] + 1,) + p[i + 1 :]
            grown.add(tuple(sorted(bigger, reverse=True)))
    return frozenset(grown)


@cache
def partitions_decreasing(n: int) -> list:
    """Partitions of n, lexicographically decreasing: the compositions
    oracle up to 12, the growth oracle above, sorted."""
    found = partitions_by_compositions(n) if n <= 12 else partitions_by_growth(n)
    return sorted(found, reverse=True)


def sw_key(partition) -> str:
    """The SW table key of a partition, such as "w1^2 w3" for (3, 1, 1):
    each distinct part i, ascending, as w{i}, with ^r when it occurs r > 1
    times."""
    factors = []
    for i in sorted(set(partition)):
        r = partition.count(i)
        factors.append(f"w{i}" if r == 1 else f"w{i}^{r}")
    return " ".join(factors)


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence:
    p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            p[m] += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                p[m] += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
    return p[n]


# An SW factor: "w", decimal digits, optionally "^" and decimal digits.  \d
# matches any Unicode decimal (category Nd), as int() reads.
_FACTOR_RE = re.compile(r"^w(\d+)(?:\^(\d+))?$")


def sw_monomial_by_regex(text: str):
    """The ((index, exponent), ...) of a monomial such as "w3 w1^2", indices
    ascending, by matching each factor to _FACTOR_RE.  None when the text is
    not a monomial (no factor or a malformed one), "too long" when a factor
    has a number of more than 4300 digits, whatever Python's int-to-text
    limit is."""
    counts: dict = {}
    for token in text.split():
        m = _FACTOR_RE.match(token)
        if not m:
            return None
        if len(m[1]) > 4300 or len(m[2] or "") > 4300:
            return "too long"
        index, exponent = int(m[1]), int(m[2] or 1)
        if index < 1 or exponent < 1:
            return None
        counts[index] = counts.get(index, 0) + exponent
    return tuple(sorted(counts.items())) or None


def prime_power_base_by_trial_division(q: int):
    """The prime p with q = p^e, or None, by trial division up to sqrt(q)."""
    if q < 2:
        return None
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return q


def divisors(n: int) -> list:
    """All positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def smallest_degree_divisors(pairs) -> int:
    """Least d >= 1 with lcm(|a|, |b|) dividing d * |a| for every pair.

    Pairs must have a != 0 and b != 0.  Each per-pair constraint forces
    d to be a multiple of lcm(|a|, |b|) / |a|, which divides |b|, so the
    answer divides lcm of the |b| values; enumerate its divisors.
    """
    pairs = [(abs(a), abs(b)) for a, b in pairs]
    if not pairs:
        return 1
    bound = 1
    for _, b in pairs:
        bound = lcm(bound, b)
    for d in divisors(bound):
        if all((d * a) % lcm(a, b) == 0 for a, b in pairs):
            return d
    raise AssertionError("no admissible degree up to the lcm bound")


def smallest_degree_scan(pairs) -> int:
    """Linear-scan version of smallest_degree_divisors (small inputs only)."""
    pairs = [(abs(a), abs(b)) for a, b in pairs]
    d = 0
    while True:
        d += 1
        if all((d * a) % lcm(a, b) == 0 for a, b in pairs):
            return d


def _invertible_mod(rows: list, p: int) -> bool:
    m = [row[:] for row in rows]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            factor = (m[r][col] * inv) % p
            if factor:
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
    return True


def gl_count_enumerated(n: int, p: int) -> int:
    """Count invertible n x n matrices over F_p by trying all of them."""
    count = 0
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if _invertible_mod(rows, p):
            count += 1
    return count


def gl_order_by_definition(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i): the choices of each row outside
    the span of the rows before it, with every power of q taken whole."""
    return prod(q**n - q**i for i in range(n))


# The command line as argparse read it: cli.parse_args must accept what this
# parser accepts and read it to the same values.  Its imports are made here,
# so that the benchmark's workers, which check answers with these oracles,
# load neither argparse nor the CLI.
def build_parser() -> argparse.ArgumentParser:
    import argparse

    from symchar.cli import (
        COMMANDS,
        _cmd_ds_check,
        _cmd_gl_order,
        _cmd_mu,
        _cmd_p_class,
        _cmd_transfer,
        _cmd_wall,
    )

    parser = argparse.ArgumentParser(
        prog="symchar",
        description=(
            "Exact characteristic numbers and rank classification for "
            "compact symmetric-space duals"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", parents=[common],
        help="rank classification of a locally symmetric space",
    )
    p.add_argument("space", help='e.g. "SU_pq(2,3)", "SLnR(4)", "CayH"')
    p.set_defaults(handler=COMMANDS["classify"][0])

    p = sub.add_parser(
        "dual", parents=[common], help="compact dual pair of a space"
    )
    p.add_argument("space")
    p.set_defaults(handler=COMMANDS["dual"][0])

    p = sub.add_parser(
        "p-class", parents=[common],
        help="total Pontrjagin class of a rank-one dual",
    )
    p.add_argument("space")
    p.set_defaults(handler=_cmd_p_class)

    p = sub.add_parser(
        "p-numbers", parents=[common],
        help="Pontrjagin numbers of the compact dual",
    )
    p.add_argument("space")
    p.set_defaults(handler=COMMANDS["p-numbers"][0])

    p = sub.add_parser(
        "sw-numbers", parents=[common],
        help="Stiefel-Whitney numbers of the compact dual",
    )
    p.add_argument("space")
    p.set_defaults(handler=COMMANDS["sw-numbers"][0])

    p = sub.add_parser(
        "transfer", parents=[common],
        help="pull a number table back along a cover, or solve for the base",
    )
    p.add_argument("--table", required=True, help="JSON table or @file")
    p.add_argument("--deg", type=int, help="covering degree for a pullback")
    p.add_argument("--deg-t", type=int, help="tangential-map degree")
    p.add_argument("--deg-f", type=int, help="covering degree")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser(
        "mu", parents=[common],
        help="least covering-degree bound from two Pontrjagin tables",
    )
    p.add_argument("--m", required=True, help="table of the manifold")
    p.add_argument("--mu-dual", required=True, help="table of the dual")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser(
        "wall", parents=[common],
        help="does the space's compact dual bound orientably?",
    )
    p.add_argument("space", nargs="?")
    p.add_argument("--p", help="Pontrjagin table (JSON or @file)")
    p.add_argument("--sw", help="Stiefel-Whitney table (JSON or @file)")
    p.set_defaults(handler=_cmd_wall)

    p = sub.add_parser(
        "gl-order", parents=[common], help="order of GL_n over F_q"
    )
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_gl_order)

    p = sub.add_parser(
        "ds-check", parents=[common],
        help="divisibility test against two general linear group orders",
    )
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.set_defaults(handler=_cmd_ds_check)

    return parser
