"""Exception hierarchy shared by the library and the CLI.

Every domain error carries a stable machine-readable ``code``; the CLI
emits it as the ``error`` field of its JSON failure payload and exits 1.
Usage errors (bad flags, missing arguments) are the command line's own and
exit 2 instead.
"""

import sys
from math import log10


class SymcharError(ValueError):
    """Base class for all domain errors raised by this package."""

    code = "invalid-input"


class UnknownFamilyError(SymcharError):
    code = "unknown-family"


class UnsupportedFamilyError(SymcharError):
    """Recognized but deliberately out-of-scope family (exceptional types)."""

    code = "unsupported-family"


class MalformedSpecError(SymcharError):
    code = "malformed-spec"


class UnsupportedClassError(SymcharError):
    """Characteristic-class data the library does not compute."""

    code = "unsupported-class"


class DimensionMismatchError(SymcharError):
    code = "dimension-mismatch"


class InconsistentDegreesError(SymcharError):
    """Degree data that admits no exact integer solution."""

    code = "inconsistent-degrees"


class InconsistentTablesError(SymcharError):
    """Number tables that no covering/tangential-map diagram can relate."""

    code = "inconsistent-tables"


class BadTableError(SymcharError):
    code = "bad-table"


class TooLargeError(SymcharError):
    """A request refused for its size: a table over too many partitions, a
    result past Python's int-to-text limit (a mu or transfer one as soon as
    a value in it passes), a probable prime past the range where Miller-Rabin
    proves primality, or a field size past the bits that it is run on."""

    code = "too-large"


# The digit count the size gates compare against when Python's int-to-text
# limit is off (0).  At 4300 the costliest result a gate admits, p-class
# 'QHn(7146)', takes about a second (1.05 s on a 2-vCPU VM, Python 3.11).
DIGITS_WHEN_UNLIMITED = 4300


def _digit_limit() -> int:
    return sys.get_int_max_str_digits() or DIGITS_WHEN_UNLIMITED


def past_digit_limit() -> TooLargeError:
    """The refusal of a result past Python's int-to-text digit limit, or
    past DIGITS_WHEN_UNLIMITED when that limit is off."""
    return TooLargeError(f"result has an integer of more than {_digit_limit()} digits")


def bits_past_digit_limit() -> float:
    """Only an integer past the digit limit has more bits: 2^(b-1) > 10^limit."""
    return _digit_limit() / log10(2) + 1


def refuse_past_digit_limit(count: int, log10_each: float, log10_rest: float) -> None:
    """Raise past_digit_limit() when a result's log10 is certain to reach
    the digit limit: count * log10_each + log10_rest.  count stays an int:
    compared with a float it cannot overflow."""
    if count >= (_digit_limit() - log10_rest) / log10_each:
        raise past_digit_limit()


class BadPrimePowerError(SymcharError):
    code = "bad-prime-power"


class EqualCharacteristicError(SymcharError):
    code = "equal-characteristic"
