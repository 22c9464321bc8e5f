"""Exception hierarchy shared by the library and the CLI.

Every domain error carries a stable machine-readable ``code``; the CLI
emits it as the ``error`` field of its JSON failure payload and exits 1.
Usage errors (bad flags, missing arguments) are the command line's own and
exit 2 instead.

No result has more than MAX_DIGITS digits, whatever Python's int-to-text
limit is: check_digits refuses a longer integer once it is computed, and
refuse_past_digit_limit from an estimate before work that could be
unbounded.  A result known to have at most ``bits`` bits needs neither
when within_digit_limit(bits) holds.

The same ceiling decides an over-long number at each int-text boundary of
the library: read_int reads a number of more than MAX_DIGITS digits as
+-TEN_TO_MAX_DIGITS, for the caller to refuse, and quote_int writes one
into a message as "a number of more than MAX_DIGITS digits".  So Python's
limit chooses no answer at its default, MAX_DIGITS, or off (0); it
matters only inside cli.main, which runs each call at MAX_DIGITS.
"""


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
    table key with a number past MAX_DIGITS digits, a result past
    MAX_DIGITS digits (before the work or as soon as it is computed), a
    probable prime past the range where Miller-Rabin proves primality, or
    a field size past the bits that it is run on."""

    code = "too-large"


# The digit ceiling of every size gate.  At 4300, Python's default
# int-to-text limit, the costliest result a gate admits, p-class
# 'QHn(7145)', takes 1.3-1.6 s in cli.main, of which 0.02-0.05 s is the
# class and most of the rest json.dumps of its coefficients (2-vCPU VM,
# Python 3.11.7).
MAX_DIGITS = 4300
# The least integer of more than MAX_DIGITS digits.
TEN_TO_MAX_DIGITS = 10**MAX_DIGITS
# Every integer of at most this many bits is below 2^_SAFE_BITS < 10^MAX_DIGITS.
_SAFE_BITS = TEN_TO_MAX_DIGITS.bit_length() - 1


def past_digit_limit() -> TooLargeError:
    """The refusal of a result past MAX_DIGITS digits."""
    return TooLargeError(f"result has an integer of more than {MAX_DIGITS} digits")


def check_digits(value: int) -> int:
    """value, or past_digit_limit() raised if it has more than MAX_DIGITS digits."""
    if value.bit_length() > _SAFE_BITS and abs(value) >= TEN_TO_MAX_DIGITS:
        raise past_digit_limit()
    return value


def within_digit_limit(bits: int) -> bool:
    """Whether every integer of at most ``bits`` bits is below 10^MAX_DIGITS,
    so that no size gate can refuse it."""
    return bits <= _SAFE_BITS


def refuse_past_digit_limit(count: int, log10_each: float, log10_rest: float) -> None:
    """Raise past_digit_limit() when a result's log10 is certain to reach
    MAX_DIGITS: count * log10_each + log10_rest.  count stays an int:
    compared with a float it cannot overflow."""
    if count >= (MAX_DIGITS - log10_rest) / log10_each:
        raise past_digit_limit()


def quote(text: str) -> str:
    """repr(text), or the repr of its first 100 characters and "..." when it
    is longer: a message quotes an input of any length in bounded space.
    No key that symchar writes is longer (the longest, 1,...,1 of
    p-numbers 'CHn(90)', has 89 characters)."""
    return repr(text) if len(text) <= 100 else f"{text[:100]!r}..."


def quote_int(value: int) -> str:
    """str(value), or "a number of more than MAX_DIGITS digits" when it is
    longer: a message writes an integer of any size in bounded space."""
    try:
        return str(check_digits(value))
    except TooLargeError:
        return f"a number of more than {MAX_DIGITS} digits"


def read_int(text: str) -> int:
    """int(text.strip()), but a number of more than MAX_DIGITS digits,
    leading zeros counted, is read as TEN_TO_MAX_DIGITS with its sign, which
    every size gate refuses.  ValueError when int() would raise it for
    another reason: a number is an optional sign, then decimal digits that
    single underscores may separate.  A caller whose text has at most
    MAX_DIGITS characters can call int() instead: no number in it is longer."""
    s = text.strip()
    unsigned = s[1:] if s[:1] in ("+", "-") else s
    if len(unsigned) - unsigned.count("_") <= MAX_DIGITS:
        return int(s)
    if not all(map(str.isdecimal, unsigned.split("_"))):
        raise ValueError(f"invalid literal for int(): {quote(s)}")
    return -TEN_TO_MAX_DIGITS if s[0] == "-" else TEN_TO_MAX_DIGITS


class BadPrimePowerError(SymcharError):
    code = "bad-prime-power"


class EqualCharacteristicError(SymcharError):
    code = "equal-characteristic"
