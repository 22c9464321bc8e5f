"""Exception hierarchy shared by the library and the CLI.

Every domain error carries a stable machine-readable ``code``; the CLI
emits it as the ``error`` field of its JSON failure payload and exits 1.
Usage errors (bad flags, missing arguments) are argparse's business and
exit 2 instead.
"""

from __future__ import annotations

import sys


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
    result past Python's int-to-text limit, a probable prime past the range
    where Miller-Rabin proves primality, or a field size past the bits that
    Miller-Rabin is run on."""

    code = "too-large"


def past_digit_limit() -> TooLargeError:
    """The refusal of a result past Python's int-to-text digit limit."""
    limit = sys.get_int_max_str_digits()
    return TooLargeError(f"result has an integer of more than {limit} digits")


def refuse_past_digit_limit(count: int, log10_each: float, log10_rest: float) -> None:
    """Raise past_digit_limit() when a result's log10 is certain to reach
    Python's int-to-text limit (if any): count * log10_each + log10_rest.
    count stays an int: compared with a float it cannot overflow."""
    limit = sys.get_int_max_str_digits()
    if limit and count >= (limit - log10_rest) / log10_each:
        raise past_digit_limit()


class BadPrimePowerError(SymcharError):
    code = "bad-prime-power"


class EqualCharacteristicError(SymcharError):
    code = "equal-characteristic"
