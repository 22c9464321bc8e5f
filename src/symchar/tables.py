"""The characteristic-number table: its record, its kinds and its reader.

A table holds the numbers of one kind, Pontrjagin or Stiefel-Whitney, of
one closed manifold of a given dimension, keyed by the text of their index:
a partition "2,1,1" for p_2 p_1^2, a monomial "w1^2 w2" for w_1^2 w_2.
charclass builds tables, transfer combines them and the command line reads
them with CharNumberTable.from_json_dict, which checks each key and
canonicalizes it through partitions.  This module imports partitions only
there, and never charclass, so transfer, gl-order and ds-check load
neither.
"""

from collections import namedtuple

from symchar.errors import BadTableError, check_digits, quote

PONTRJAGIN = "pontrjagin"
SW = "sw"


def sw_factor(index: int, exponent: int) -> str:
    """The text of w_index^exponent in an SW key: "w2", "w1^3"."""
    return f"w{index}" if exponent == 1 else f"w{index}^{exponent}"


class CharNumberTable(
    namedtuple("CharNumberTable", "kind dimension entries reason", defaults=(None,))
):
    """Characteristic numbers of one space, a dict keyed by serialized index.

    Pontrjagin tables are keyed by partitions ("2,2"); SW tables by
    monomials ("w1^2 w2").  ``reason``, a str or None, marks tables that are
    empty by degree bookkeeping (every number is vacuously zero).
    """

    __slots__ = ()

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
        entries whose first key gives the kind and the degree.  Every key is
        checked and canonicalized, SW values are read mod 2, and a dimension
        or value past MAX_DIGITS digits is refused with TooLargeError."""
        from symchar.partitions import format_partition, parse_monomial, parse_partition

        if not isinstance(data, dict):
            raise BadTableError("table must be a JSON object")
        reason = None
        if "entries" in data:
            raw = data["entries"]
            kind = data.get("kind")
            dim = data.get("dim")
            reason = data.get("reason")
            if kind not in (PONTRJAGIN, SW):
                raise BadTableError('table "kind" must be "pontrjagin" or "sw"')
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
                raise BadTableError('table "dim" must be a non-negative integer')
            if not isinstance(raw, dict):
                raise BadTableError('table "entries" must be a JSON object')
            if reason is not None and not isinstance(reason, str):
                raise BadTableError('table "reason" must be a string or null')
        else:
            raw = data
            if not raw:
                raise BadTableError(
                    "cannot infer dimension and kind from an empty table; "
                    'pass the full {"dim", "kind", "entries"} form'
                )
            # the keys split on str.isspace, so any leading whitespace is skipped
            head = next((c for c in next(iter(raw)) if c != "(" and not c.isspace()), "")
            kind = SW if head == "w" else PONTRJAGIN
            dim = None
        entries: dict = {}
        for key, value in raw.items():
            if kind == PONTRJAGIN:
                partition = parse_partition(key)
                canonical, degree = format_partition(partition), 4 * sum(partition)
            else:
                exponents = parse_monomial(key)
                canonical = " ".join(sw_factor(i, r) for i, r in exponents)
                degree = sum(i * r for i, r in exponents)
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadTableError(f"entry {quote(key)} must be an integer")
            if kind == SW:
                value &= 1
            if canonical in entries:
                raise BadTableError(f"duplicate table entry {quote(canonical)}")
            if dim is None:
                dim = degree
            elif degree != dim:
                check_digits(max(degree, dim))  # before the message writes both
                raise BadTableError(
                    f"entry {quote(key)} has total degree {degree}, expected {dim}"
                )
            entries[canonical] = value
        for value in (dim, *entries.values()):  # after the loop: a key error comes first
            check_digits(value)
        return cls(kind, dim, entries, reason)
