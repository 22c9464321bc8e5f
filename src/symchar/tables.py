"""The characteristic-number table: its record, its kinds, its keys and its reader.

A table holds the numbers of one kind, Pontrjagin or Stiefel-Whitney, of
one closed manifold of a given dimension, keyed by the text of their index:
a partition "2,1,1" for p_2 p_1^2, a monomial "w1^2 w2" for w_1^2 w_2, as
SPELLING spells them.  A table is checked when it is made, unless a builder
whose keys are canonical makes it by tuple.__new__.  This module imports
partitions only where it walks or parses, and never charclass.
"""

from collections import Counter, namedtuple

from symchar.errors import BadTableError, SymcharError, check_digits, quote

PONTRJAGIN = "pontrjagin"
SW = "sw"


# kind -> (degree per unit of weight, the text of part k taken r times, the
# separator, whether a run precedes those of larger parts): "2,2,1", "w1 w2^2"
SPELLING = {
    PONTRJAGIN: (4, lambda k, r: ",".join([str(k)] * r), ",", False),
    SW: (1, lambda k, r: f"w{k}" if r == 1 else f"w{k}^{r}", " ", True),
}


def _canonical_keys(kind: str, dim: int, count: int) -> dict:
    """The canonical keys of a degree-dim table by one walk, or {} where it is
    refused, gives "", or costs more than count parses (0.3 us an entry, 5-7 us a parse)."""
    from symchar.partitions import MAX_WEIGHT, walk_runs

    unit, run, sep, prepend = SPELLING[kind]
    weight, rest = divmod(dim, unit)
    if rest or not 0 < weight <= MAX_WEIGHT:
        return {}
    counts = [1] + [0] * weight  # the partitions of each m <= weight into parts <= k
    for k in range(1, weight + 1):
        for m in range(k, weight + 1):
            counts[m] += counts[m - k]
        if counts[weight] > 16 * count:
            return {}
    return walk_runs(weight, lambda k, r: (run(k, r), 1), sep, prepend)


def _respell(kind: str, key) -> tuple:
    """(canonical spelling, degree) of a key, parsed."""
    from symchar.partitions import parse_monomial, parse_partition

    # its runs in the key's order: parts decreasing, SW indices ascending
    runs = parse_monomial(key) if kind == SW else Counter(parse_partition(key)).items()
    unit, run, sep, _ = SPELLING[kind]
    return sep.join(run(k, r) for k, r in runs), unit * sum(k * r for k, r in runs)


def _checked(kind, dim, raw, reason, respell: bool) -> dict:
    """The entries of raw, each key checked in turn as a table is made or, with
    respell, as a document is read: each key respelled, SW values read mod 2."""
    if kind not in (PONTRJAGIN, SW):
        raise BadTableError('table "kind" must be "pontrjagin" or "sw"')
    if type(dim) is not int or dim < 0:
        raise BadTableError('table "dim" must be a non-negative integer')
    if not isinstance(raw, dict):
        raise BadTableError('table "entries" must be a JSON object')
    if reason is not None and not isinstance(reason, str):
        raise BadTableError('table "reason" must be a string or null')
    keys = _canonical_keys(kind, dim, len(raw))
    if raw.keys() <= keys.keys() and {*map(type, raw.values())} <= {int} and (
            kind == PONTRJAGIN or {*raw.values()} <= {0, 1}):  # the loop would pass them all
        return dict(raw)
    entries: dict = {}
    for key, value in raw.items():
        canonical, degree = (key, dim) if key in keys else _respell(kind, key)
        if canonical != key and not respell:
            raise BadTableError(f"entry {quote(key)} is not spelled {quote(canonical)}")
        if type(value) is not int:  # a bool neither
            raise BadTableError(f"entry {quote(key)} must be an integer")
        if kind == SW and value & 1 != value:
            if not respell:
                raise BadTableError(f"entry {quote(key)} must be 0 or 1")
            value &= 1
        if canonical in entries:
            raise BadTableError(f"duplicate table entry {quote(canonical)}")
        if degree != dim:
            check_digits(max(degree, dim))  # before the message writes both
            raise BadTableError(f"entry {quote(key)} has total degree {degree}, expected {dim}")
        entries[canonical] = value
    return entries


class CharNumberTable(
    namedtuple("CharNumberTable", "kind dimension entries reason", defaults=(None,))
):
    """Characteristic numbers of one space, a dict keyed by serialized index.

    Pontrjagin tables are keyed by partitions ("2,2"); SW tables by
    monomials ("w1^2 w2").  ``reason``, a str or None, marks tables that are
    empty by degree bookkeeping (every number is vacuously zero).  A table is
    checked when made, through _replace and _make too, and holds its own entries.
    """

    __slots__ = ()

    def __new__(cls, kind, dimension, entries, reason=None):
        try:
            entries = _checked(kind, dimension, entries, reason, respell=False)
        except SymcharError as exc:  # a key that cannot be read is not canonical
            raise BadTableError(str(exc)) from None
        return tuple.__new__(cls, (kind, dimension, entries, reason))

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__, and _replace calls it
        return cls(*iterable)

    def all_zero(self) -> bool:
        return not any(self.entries.values())

    def to_json_dict(self) -> dict:
        """The table, its keys in sorted order and its entries in the walk's.
        The document shares the table's entries dict: do not mutate it."""
        payload = {"dim": self.dimension, "entries": self.entries, "kind": self.kind}
        if self.reason:
            payload["reason"] = self.reason
        return payload

    @classmethod
    def from_json_dict(cls, data) -> "CharNumberTable":
        """The table of a decoded JSON document: to_json_dict's form, or bare
        entries whose first key gives the kind and the degree, checked as it is
        made but with keys respelled and SW values read mod 2; then a dimension
        or value past MAX_DIGITS digits is refused with TooLargeError."""
        if not isinstance(data, dict):
            raise BadTableError("table must be a JSON object")
        if "entries" in data:
            raw, kind, dim, reason = map(data.get, ("entries", "kind", "dim", "reason"))
        else:
            raw, reason = data, None
            if not raw:
                raise BadTableError(
                    "cannot infer dimension and kind from an empty table; "
                    'pass the full {"dim", "kind", "entries"} form'
                )
            # the keys split on str.isspace, so any leading whitespace is skipped
            head = next((c for c in next(iter(raw)) if c != "(" and not c.isspace()), "")
            kind = SW if head == "w" else PONTRJAGIN
            dim = _respell(kind, next(iter(raw)))[1]  # the first key's degree
        entries = _checked(kind, dim, raw, reason, respell=True)
        check_digits(dim)  # after the keys: a key error comes first
        check_digits(max(map(abs, entries.values()), default=0))
        return tuple.__new__(cls, (kind, dim, entries, reason))
