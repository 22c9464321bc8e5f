"""Covering-transfer arithmetic on characteristic-number tables.

For a degree-d covering M' -> M, every characteristic number pulls back
multiplied by d.  When M' also has a degree-r tangential map t: M' -> M_U
to a closed oriented manifold of equal dimension, the numbers satisfy
d * p_I(M) = r * p_I(M_U), which makes three things computable exactly:

  * pullback_numbers:       multiply a table through by one degree;
  * solve_manifold_numbers: recover p_I(M) = r * p_I(M_U) / d when every
                            division is exact;
  * mu:                     the least positive mu such that mu * p_I(M) is
                            an integer multiple of lcm(|p_I(M)|, |p_I(M_U)|)
                            for every partition I with p_I(M) != 0.  mu
                            divides the degree of any covering of M that
                            admits a tangential map to M_U.

The general-linear order counts GL_n(F_q); a classical smoothing argument
needs it over two fields of distinct characteristic, which is the
``deligne_sullivan_check`` divisibility test.  Both compute an order as
q^(n(n-1)/2) * prod_{i=1}^{n} (q^i - 1) and share one memo of them, looked
up only after every gate on the request has passed.

The tables are tables.CharNumberTable records; the two made here have a
checked table's keys, so they are made unchecked.  This module imports only
tables and errors, so a transfer, mu, gl-order or ds-check call never loads charclass.
"""

from collections import namedtuple
from functools import lru_cache
from math import isqrt, lcm, log, log10

from symchar.errors import (
    TEN_TO_MAX_DIGITS,
    BadPrimePowerError,
    DimensionMismatchError,
    EqualCharacteristicError,
    InconsistentDegreesError,
    InconsistentTablesError,
    SymcharError,
    TooLargeError,
    check_digits,
    quote,
    quote_int,
    refuse_past_digit_limit,
)
from symchar.tables import PONTRJAGIN, SW, CharNumberTable


def pullback_numbers(table: CharNumberTable, degree: int) -> CharNumberTable:
    """Table of the degree-``degree`` cover: every entry times the degree.

    The degree of a covering is a positive int, any other (a float or bool
    too) refused.  SW tables live mod 2, so the result is reduced there.  A
    product past MAX_DIGITS digits is refused with TooLargeError at once."""
    if type(degree) is not int:
        raise SymcharError("covering degree must be an int")
    if degree < 1:
        raise SymcharError("covering degree must be a positive integer")
    if table.kind == SW:
        entries = {k: (v * degree) & 1 for k, v in table.entries.items()}
    else:
        entries = {}
        for key, value in table.entries.items():
            entries[key] = check_digits(value * degree)
    return tuple.__new__(CharNumberTable, (table.kind, table.dimension, entries, table.reason))


def solve_manifold_numbers(
    dual_table: CharNumberTable, deg_t: int, deg_f: int
) -> CharNumberTable:
    """Solve deg_f * p_I(M) = deg_t * p_I(M_U) for the table of M.

    deg_f is the covering degree d (nonzero), deg_t the degree r of the
    tangential map in the diagram; both must be exact ints, which is
    checked first.  Every division must be exact; a non-integer entry
    means no such manifold exists and raises InconsistentDegreesError,
    then a quotient past MAX_DIGITS digits TooLargeError.
    """
    if type(deg_t) is not int or type(deg_f) is not int:
        raise SymcharError("degrees must be ints")
    if dual_table.kind != PONTRJAGIN:
        raise SymcharError("degree solving applies to Pontrjagin tables only")
    if deg_f == 0:
        raise InconsistentDegreesError("covering degree must be nonzero")
    if deg_t == 0 and any(v != 0 for v in dual_table.entries.values()):
        raise InconsistentDegreesError(
            "degree 0 forces every solved number to vanish, but the dual "
            "table has a nonzero entry"
        )
    entries: dict = {}
    for key, value in dual_table.entries.items():
        numerator = deg_t * value
        quotient, remainder = divmod(numerator, deg_f)
        if remainder:
            raise InconsistentDegreesError(
                f"entry {quote(key)}: {quote_int(deg_t)} * {quote_int(value)} is "
                f"not divisible by {quote_int(deg_f)}"
            )
        entries[key] = quotient
    for quotient in entries.values():
        check_digits(quotient)
    return tuple.__new__(
        CharNumberTable, (PONTRJAGIN, dual_table.dimension, entries, dual_table.reason)
    )


class MuReport(namedtuple("MuReport", "mu contributions skipped")):
    """The divisibility bound mu, its per-partition pieces and the skipped keys."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"contributions": self.contributions, "mu": self.mu, "skipped": self.skipped}


def mu(table_m: CharNumberTable, table_mu: CharNumberTable) -> MuReport:
    """mu = lcm over partitions I with p_I(M) != 0 of
    lcm(|p_I(M)|, |p_I(M_U)|) / |p_I(M)|; 1 when no partition qualifies.

    Tables with p_I(M_U) != 0 but p_I(M) = 0 (or the reverse) admit no
    covering/tangential diagram at all and raise InconsistentTablesError.
    A running lcm past MAX_DIGITS digits raises TooLargeError at once.
    """
    if table_m.kind != PONTRJAGIN or table_mu.kind != PONTRJAGIN:
        raise SymcharError("mu applies to Pontrjagin tables only")
    if table_m.dimension != table_mu.dimension:
        raise DimensionMismatchError(
            "tables must describe spaces of one dimension"
        )
    contributions: dict = {}
    skipped: list = []
    for key in sorted(set(table_m.entries) | set(table_mu.entries)):
        a = table_m.entries.get(key, 0)
        b = table_mu.entries.get(key, 0)
        if a == 0:
            if b != 0:
                raise InconsistentTablesError(
                    f"entry {quote(key)}: the dual number is nonzero while "
                    "the manifold number vanishes; no tangential map of "
                    "nonzero degree allows this"
                )
            skipped.append(key)
            continue
        if b == 0:
            raise InconsistentTablesError(
                f"entry {quote(key)}: the manifold number is nonzero while "
                "the dual number vanishes; no covering transfer is "
                "consistent with this"
            )
        contributions[key] = lcm(abs(a), abs(b)) // abs(a)
    value = 1
    for c in contributions.values():
        value = check_digits(lcm(value, c))
    return MuReport(value, contributions, skipped)


_TRIAL_BOUND = 100
# Miller-Rabin on the prime bases 2..41 is deterministic below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
# One round costs about d^3 for d digits (pow reduces by long division): on a
# 2-vCPU VM, Python 3.11.7, 29 ms at 2048 bits, 0.24 s at 4096, 0.67 s at
# 6144 and 7.6 s at 14 284 (4300 digits).  At 4096 bits a round costs about
# what the root search costs on a 4300-digit q (0.23 s), so no q costs more
# than about a quarter second; past the cap q is refused before the round.
_MR_MAX_BITS = 4096
# The root search grows faster than d^2 in the digits of q (0.23 s at 4300
# digits, 5.9 s at 17 200), so a q longer than 10^4300 - 1, the largest one
# the CLI reads, is refused before it: 14 285 bits, as many as 10^4300 has.
_ROOT_MAX_BITS = TEN_TO_MAX_DIGITS.bit_length()


def _passes_miller_rabin(n: int, bases: tuple) -> bool:
    """Whether odd n > 41 is a strong probable prime to every base given.
    False proves n composite; True proves n prime only below _MR_PROVEN_BELOW,
    and there only for the bases 2..41."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1 and e >= 2, in integers only.  The root's
    top bit_length(e) + 1 bits are set one at a time, so that Newton's steps
    start within a factor 1 + 1/e above it and converge at once."""
    k = -(-n.bit_length() // e)
    t = min(k, e.bit_length() + 1)
    x = 0
    for i in range(k - 1, k - 1 - t, -1):
        if (x | 1 << i) ** e <= n:
            x |= 1 << i
    x += 1 << (k - t)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _prime_power_base(q: int) -> int | None:
    """The prime p with q = p^e, or None when q is not a prime power.

    Past trial division every prime factor of q exceeds 100 > 2^6, so
    e < bit_length(q) / 6.  If q = r^e for a prime e, q is a prime power iff
    r is one, else iff q is prime: a Miller-Rabin witness proves q composite,
    passing every base 2..41 proves it prime below 3.317e24.  Past that bound
    a q that passes is refused with TooLargeError whatever the other bases
    say, so base 2 alone is tried there, and a q of more than _MR_MAX_BITS
    bits is refused before that round.  A q left by trial division with
    more than _ROOT_MAX_BITS bits is refused before the root search.
    """
    if q < 2:
        return None
    for p in range(2, min(isqrt(q), _TRIAL_BOUND) + 1):
        if q % p == 0:  # a power of p iff p^e == q for e = log_p(q), rounded
            return p if p ** round(log(q, p)) == q else None
    if q <= _TRIAL_BOUND**2:
        return q
    if q.bit_length() > _ROOT_MAX_BITS:
        raise TooLargeError(
            f"{q.bit_length()}-bit q has no factor up to {_TRIAL_BOUND}; prime "
            f"powers are sought up to {_ROOT_MAX_BITS} bits"
        )
    for e in range(2, q.bit_length() // 6 + 1):
        if any(e % f == 0 for f in range(2, isqrt(e) + 1)):
            continue  # a power r^(fg) is an f-th power, tried before
        r = _iroot(q, e)
        if r**e == q:
            return _prime_power_base(r)
    if q.bit_length() > _MR_MAX_BITS:
        raise TooLargeError(
            f"{q.bit_length()}-bit q has no factor up to {_TRIAL_BOUND} and no "
            f"root; primality is tested up to {_MR_MAX_BITS} bits"
        )
    proven = q < _MR_PROVEN_BELOW
    if not _passes_miller_rabin(q, _MR_BASES if proven else _MR_BASES[:1]):
        return None
    if not proven:
        raise TooLargeError(f"cannot prove {q.bit_length()}-bit q prime past 3.317e24")
    return q


# |GL_n(F_q)| = q^(n^2) prod_{i=1}^{n} (1 - q^-i) > 0.288 q^(n^2), since the
# product is smallest at q = 2 and prod_{i>=1} (1 - 2^-i) = 0.2887...
_GL_FACTOR_LOG10 = log10(0.288)

# The memo of GL orders: at most this many are kept, least recently used
# first out.  No order of more than MAX_DIGITS digits is stored, so a full
# memo holds at most about 2 MB.
GL_MEMO_SIZE = 512


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = q^(n(n-1)/2) prod_{i=1}^{n} (q^i - 1).  q must be a
    prime power.

    The gates run in this order: n and q exact ints, n >= 1, q a prime
    power, then an order certain to have more than MAX_DIGITS digits is
    refused with TooLargeError.  Only then is the order looked up in the memo.
    """
    if type(n) is not int or type(q) is not int:
        raise SymcharError("matrix size and field size must be ints")
    if n < 1:
        raise SymcharError("matrix size must be a positive integer")
    if _prime_power_base(q) is None:
        raise BadPrimePowerError(f"{quote_int(q)} is not a prime power")
    refuse_past_digit_limit(n * n, log10(q), _GL_FACTOR_LOG10)
    return _gl_memo(n, q)


def _gl_factored(n: int, q: int) -> int:
    """q^(n(n-1)/2) prod_{i=1}^{n} (q^i - 1), refused past MAX_DIGITS digits."""
    q_i = rest = 1
    for _ in range(n):
        q_i *= q
        rest *= q_i - 1
    return check_digits(rest * q ** (n * (n - 1) // 2))


_gl_memo = lru_cache(maxsize=GL_MEMO_SIZE)(_gl_factored)


class DSReport(namedtuple("DSReport", "divides order_1 order_2 order_product")):
    """Witnesses for the smoothing divisibility test (a bool, then ints)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self._asdict()


def deligne_sullivan_check(mu_value: int, k: int, q1: int, q2: int) -> DSReport:
    """Test mu | |GL_{2k+1}(F_q1)| * |GL_{2k+1}(F_q2)|.

    The gates run in this order: all four arguments exact ints, mu >= 1,
    k >= 1, q1 and q2 prime powers (q1 is tested, and refused, before q2 is
    tried), distinct characteristics (equal ones raise
    EqualCharacteristicError), then a product certain to have more than
    MAX_DIGITS digits is refused with TooLargeError.  Only then are the two
    orders looked up in gl_order's memo; the orders and their product are
    checked exactly.
    """
    if (type(mu_value) is not int or type(k) is not int
            or type(q1) is not int or type(q2) is not int):
        raise SymcharError("mu, k, q1 and q2 must be ints")
    if mu_value < 1:
        raise SymcharError("mu must be a positive integer")
    if k < 1:
        raise SymcharError("k must be a positive integer")
    p1 = _prime_power_base(q1)
    if p1 is None:
        raise BadPrimePowerError(f"{quote_int(q1)} is not a prime power")
    p2 = _prime_power_base(q2)
    if p2 is None:
        raise BadPrimePowerError(f"{quote_int(q2)} is not a prime power")
    if p1 == p2:
        raise EqualCharacteristicError(
            f"{quote_int(q1)} and {quote_int(q2)} share characteristic {p1}; the test needs "
            "distinct characteristics"
        )
    n = 2 * k + 1
    refuse_past_digit_limit(n * n, log10(q1 * q2), 2 * _GL_FACTOR_LOG10)
    order_1 = _gl_memo(n, q1)
    order_2 = _gl_memo(n, q2)
    product = check_digits(order_1 * order_2)
    return DSReport(product % mu_value == 0, order_1, order_2, product)
