"""Integer partitions and Stiefel-Whitney monomials, the keys of the tables.

Partitions are plain tuples of parts in weakly decreasing order, enumerated
lexicographically decreasing: partitions_of(4) starts at (4,) and ends at
(1, 1, 1, 1).  A degree-n SW monomial w_1^r1 ... w_n^rn with sum(i * ri) = n
corresponds to the partition of n whose parts are the factor indices, and
is a plain tuple ((index, exponent), ...) of indices ascending, as
parse_monomial returns it.  This module knows no table kind: charclass
spells the keys of each kind when it builds a table, and reads them back
through parse_partition and parse_monomial.  Only the canonical spelling of
a Pontrjagin key that it reads is written here, by format_partition.  So
partitions imports only errors.

Every enumeration in the package is one walk, walk_runs.  It reads a
partition as runs, part k taken r times with k decreasing, and builds each
entry from its parent prefix by one more run: the caller gives each run a
(text, value) pair, and an entry is the prefix's text joined with the run's
and the prefix's value times the run's.  An entry so costs one join and one
product whatever its length.  What is left once only parts of at most 2 can
follow needs no call of its own: the walk lists, once, the partitions of each
m < n into parts <= 2 as finished (text, value) pairs, 2s before 1s, and
places such a remainder by one loop over that list, as Zoghbi and
Stojmenovic's successor rule treats trailing 2s and 1s ("Fast algorithms
for generating integer partitions", 1998).  The recursion so runs only
where a part >= 3 can follow (221 calls for the 2436 entries of weight 26,
6288 for the 89 134 of weight 45), at most as deep as the number of
distinct parts, below sqrt(2n).

p(n) grows like exp(pi sqrt(2n/3)), so a walk is refused with TooLargeError
above MAX_WEIGHT, before any work is done.
"""

from collections.abc import Callable

from symchar.errors import (
    MAX_DIGITS,
    TEN_TO_MAX_DIGITS,
    SymcharError,
    TooLargeError,
    quote,
    quote_int,
    read_int,
)

Partition = tuple[int, ...]

# p(45) = 89 134 entries: HP^45's table takes 0.06-0.09 s as the first table
# of a process (2-vCPU VM, Python 3.11).  The cap must stay at least 26,
# whose 2436 partitions index the table of HP^26.
MAX_WEIGHT = 45


def check_weight(n: int) -> None:
    """Refuse a walk over the partitions of n unless 0 <= n <= MAX_WEIGHT."""
    if n < 0:
        raise SymcharError("partitions are defined for non-negative integers")
    if n > MAX_WEIGHT:
        raise TooLargeError(
            f"a table over the partitions of {quote_int(n)} is refused: tables are built "
            f"over the partitions of at most {MAX_WEIGHT}"
        )


def walk_runs(
    n: int, run: Callable[[int, int], tuple], sep, prepend: bool = False
) -> dict:
    """{key: value} over the partitions of n, lexicographically decreasing.

    run(k, r) is the (text, value) of part k taken r times.  A key joins
    its runs' texts with sep, each run appended (prepended if asked) in
    order of decreasing part; a value is the product of its runs' values.
    Texts may be strings or tuples; sep has the same type.  A remainder
    that holds only parts <= 2 is placed from a list built once per walk,
    so descend recurses only where a part >= 3 can follow.
    """
    check_weight(n)
    if not n:
        return {sep[:0]: 1}
    first = [None] + [
        [None] + [run(k, r) for r in range(1, n // k + 1)] for k in range(1, n + 1)
    ]
    later = [None] + [
        [None] + [(t + sep if prepend else sep + t, v) for t, v in row[1:]]
        for row in first[1:]
    ]

    def twos(m: int, cells: list) -> list:
        # the (text, value) of each partition of m into parts <= 2, in
        # order; the first run placed comes from cells
        tail = []
        for a in range(m // 2, 0, -1):
            text, v = cells[2][a]
            if m > 2 * a:
                ones, v1 = later[1][m - 2 * a]
                text, v = (ones + text if prepend else text + ones), v * v1
            tail.append((text, v))
        tail.append(cells[1][m])
        return tail

    # what is left after a part >= 3 is at most n - 3
    tails = [None] + [twos(m, later) for m in range(1, n - 2)]
    entries: dict = {}

    def descend(rest: int, top: int, key, value, cells: list) -> None:
        # the entries whose next part is >= 3; the caller places the rest
        for k in range(min(rest, top), 2, -1):
            row = cells[k]
            for r in range(rest // k, 0, -1):
                text, v = row[r]
                child = text + key if prepend else key + text
                v *= value
                left = rest - k * r
                if not left:
                    entries[child] = v
                    continue
                if k > 3 and left > 2:
                    descend(left, k - 1, child, v, later)
                if prepend:
                    for text, w in tails[left]:
                        entries[text + child] = v * w
                else:
                    for text, w in tails[left]:
                        entries[child + text] = v * w

    descend(n, n, sep[:0], 1, first)
    entries.update(twos(n, first))
    return entries


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, lexicographically decreasing.  0 <= n <= MAX_WEIGHT."""
    return list(walk_runs(n, lambda k, r: ((k,) * r, 1), ()))


def format_partition(partition: Partition) -> str:
    """Canonical serialization: comma-joined parts, "" for the empty one."""
    return ",".join(str(p) for p in partition)


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition.  Tolerates surrounding parens and spaces.
    A part of more than MAX_DIGITS digits is refused with TooLargeError,
    after the checks that the parts are positive and weakly decreasing."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    # a part of more than MAX_DIGITS digits needs a text of as many characters
    long = len(s) > MAX_DIGITS
    try:
        # int() alone does not strip U+001C..U+001F, so strip each token
        parts = tuple(map(read_int if long else int, map(str.strip, s.split(","))))
    except ValueError:
        raise SymcharError(f"malformed partition {quote(text)}") from None
    if any(p < 1 for p in parts):
        raise SymcharError(f"partition parts must be positive: {quote(text)}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise SymcharError(f"partition parts must be weakly decreasing: {quote(text)}")
    if long and parts[0] >= TEN_TO_MAX_DIGITS:
        raise TooLargeError(
            f"partition {quote(text)} has a part of more than {MAX_DIGITS} digits"
        )
    return parts


def parse_monomial(text: str) -> tuple:
    """((index, exponent), ...) of a monomial such as "w3 w1^2", indices
    ascending and repeated factors summed.  A factor is "w", decimal digits
    and optionally "^" and decimal digits; the digits are any Unicode
    decimals, which int() reads.  A factor whose index or exponent has more
    than MAX_DIGITS digits, or more than a lower int-to-text limit that the
    caller set, is refused with TooLargeError."""
    counts: dict = {}
    tokens = text.split()
    if not tokens:
        raise SymcharError("empty Stiefel-Whitney monomial")
    # an index or exponent of more than MAX_DIGITS digits needs a text of as many
    # characters
    long = len(text) > MAX_DIGITS
    for tok in tokens:
        digits, caret, power = tok[1:].partition("^")
        if (
            tok[:1] != "w"
            or not digits.isdecimal()
            or (caret and not power.isdecimal())
        ):
            raise SymcharError(f"malformed Stiefel-Whitney factor {quote(tok)}")
        if long and max(len(digits), len(power)) > MAX_DIGITS:
            raise TooLargeError(
                f"Stiefel-Whitney factor {quote(tok)} is too long: it has a "
                f"number of more than {MAX_DIGITS} digits"
            )
        try:
            index = int(digits)
            exponent = int(power) if caret else 1
        except ValueError:  # a caller set Python's int-to-text limit below MAX_DIGITS
            raise TooLargeError(
                f"Stiefel-Whitney factor {quote(tok)} is too long: it has a "
                "number of more digits than Python reads from text"
            ) from None
        if index < 1 or exponent < 1:
            raise SymcharError(f"malformed Stiefel-Whitney factor {quote(tok)}")
        counts[index] = counts.get(index, 0) + exponent
    return tuple(sorted(counts.items()))

