"""A table checks itself when it is made, and its reader takes a key that the
walk of the table's partitions gives as it is, parsing only the others:
what it answers must be what a reader that parses every key answers."""

import random

import pytest

from symchar import partitions
from symchar.charclass import (
    complex_projective,
    pontrjagin_numbers,
    quaternionic_projective,
    sphere,
    stiefel_whitney_numbers,
)
from symchar.errors import BadTableError, SymcharError, check_digits, quote
from symchar.partitions import MAX_WEIGHT, format_partition, parse_monomial, parse_partition
from symchar.tables import PONTRJAGIN, SW, CharNumberTable
from symchar.transfer import mu, pullback_numbers, solve_manifold_numbers


@pytest.mark.parametrize(
    "make, message",
    [
        # two spellings of one partition, which mu read as two
        (lambda: mu(CharNumberTable(PONTRJAGIN, 16, {"2,2": 3}),
                    CharNumberTable(PONTRJAGIN, 16, {"(2, 2)": 3})),
         r"entry '\(2, 2\)' is not spelled '2,2'"),
        # a key that names no partition, which mu answered with mu = 3
        (lambda: mu(CharNumberTable(PONTRJAGIN, 8, {"x": 1}),
                    CharNumberTable(PONTRJAGIN, 8, {"x": 3})),
         "malformed partition 'x'"),
        # two spellings of one monomial, which pullback_numbers kept both of
        (lambda: pullback_numbers(CharNumberTable(SW, 4, {"w2 w2": 1, "w2^2": 1}), 1),
         "entry 'w2 w2' is not spelled 'w2\\^2'"),
        # a str value, on which pullback_numbers raised AttributeError
        (lambda: pullback_numbers(CharNumberTable(PONTRJAGIN, 4, {"1": "3"}), 2),
         "entry '1' must be an integer"),
        (lambda: CharNumberTable(PONTRJAGIN, 8, {"1": 1}), "total degree 4, expected 8"),
        (lambda: CharNumberTable(PONTRJAGIN, 4, {"1": True}), "entry '1' must be an integer"),
        (lambda: CharNumberTable("nonsense", 4, {}), 'table "kind" must be'),
        (lambda: CharNumberTable(SW, 2, {"w2": 3}), "entry 'w2' must be 0 or 1"),
        (lambda: CharNumberTable(SW, 2, {"w2": -1}), "entry 'w2' must be 0 or 1"),
        (lambda: CharNumberTable(PONTRJAGIN, -4, {}), 'table "dim" must be'),
        (lambda: CharNumberTable(PONTRJAGIN, 4.0, {}), 'table "dim" must be'),
        (lambda: CharNumberTable(PONTRJAGIN, True, {}), 'table "dim" must be'),
        (lambda: CharNumberTable(PONTRJAGIN, 4, [("1", 1)]), 'table "entries" must be'),
        (lambda: CharNumberTable(PONTRJAGIN, 4, {}, 3), 'table "reason" must be'),
        (lambda: CharNumberTable(SW, 0, {"": 1}), "empty Stiefel-Whitney monomial"),
        # a key with a part of more than MAX_DIGITS digits is still bad-table here
        (lambda: CharNumberTable(PONTRJAGIN, 4, {"1" * 4301: 1}), "more than 4300 digits"),
        # through _replace and _make, as the walk's fast path
        (lambda: pontrjagin_numbers(quaternionic_projective(12))._replace(dimension=44),
         "total degree 48, expected 44"),
        (lambda: CharNumberTable._make((SW, 20, {**stiefel_whitney_numbers(sphere(20)).entries,
                                                  "w20": 2})),
         "entry 'w20' must be 0 or 1"),
    ],
)
def test_a_table_made_directly_is_refused_when_it_is_made(make, message):
    with pytest.raises(BadTableError, match=message):
        make()


def _built_tables() -> list:
    tables = []
    for n in range(1, 13):
        tables += [
            pontrjagin_numbers(quaternionic_projective(n)),
            pontrjagin_numbers(complex_projective(n)),
            stiefel_whitney_numbers(complex_projective(n)),
            stiefel_whitney_numbers(sphere(n)),
        ]
    tables += [pullback_numbers(table, 3) for table in tables]
    tables += [
        solve_manifold_numbers(pontrjagin_numbers(quaternionic_projective(n)), 2, 1)
        for n in range(1, 13)
    ]
    return tables


def test_the_trusted_builders_make_tables_that_pass_the_check():
    for table in _built_tables():
        made = CharNumberTable(*table)
        assert made == table and list(made.entries) == list(table.entries), table
        assert made.entries is not table.entries  # a made table holds its own dict


def _sw_spelling(exponents) -> str:
    return " ".join(f"w{i}" if r == 1 else f"w{i}^{r}" for i, r in exponents)


def _parsed_load(data) -> CharNumberTable:
    """The reader as it was before the walk: every key parsed and respelled,
    in order, with the same checks and texts."""
    if not isinstance(data, dict):
        raise BadTableError("table must be a JSON object")
    reason = None
    if "entries" in data:
        raw, kind, dim, reason = data["entries"], data.get("kind"), data.get("dim"), data.get("reason")
        if kind not in (PONTRJAGIN, SW):
            raise BadTableError('table "kind" must be "pontrjagin" or "sw"')
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise BadTableError('table "dim" must be a non-negative integer')
        if not isinstance(raw, dict):
            raise BadTableError('table "entries" must be a JSON object')
        if reason is not None and not isinstance(reason, str):
            raise BadTableError('table "reason" must be a string or null')
    else:
        raw, dim = data, None
        if not raw:
            raise BadTableError(
                "cannot infer dimension and kind from an empty table; "
                'pass the full {"dim", "kind", "entries"} form'
            )
        head = next((c for c in next(iter(raw)) if c != "(" and not c.isspace()), "")
        kind = SW if head == "w" else PONTRJAGIN
    entries: dict = {}
    for key, value in raw.items():
        if kind == PONTRJAGIN:
            partition = parse_partition(key)
            canonical, degree = format_partition(partition), 4 * sum(partition)
        else:
            exponents = parse_monomial(key)
            canonical, degree = _sw_spelling(exponents), sum(i * r for i, r in exponents)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadTableError(f"entry {quote(key)} must be an integer")
        if kind == SW:
            value &= 1
        if canonical in entries:
            raise BadTableError(f"duplicate table entry {quote(canonical)}")
        if dim is None:
            dim = degree
        elif degree != dim:
            check_digits(max(degree, dim))
            raise BadTableError(f"entry {quote(key)} has total degree {degree}, expected {dim}")
        entries[canonical] = value
    for value in (dim, *entries.values()):
        check_digits(value)
    return tuple.__new__(CharNumberTable, (kind, dim, entries, reason))


def _outcome(load, data):
    """(the table and its key order) or (the error class and text)."""
    try:
        table = load(data)
    except SymcharError as exc:
        return type(exc), str(exc)
    return table, list(table.entries)


def _respelled(kind: str, key: str, rng: random.Random) -> str:
    """Another spelling of a canonical key, which the reader accepts."""
    if kind == PONTRJAGIN:
        parts = key.split(",") if key else []
        return rng.choice(["({})", " {} ", "( {} )"]).format(", ".join(parts))
    factors = [(i, r) for i, r in parse_monomial(key)]
    split = [(i, 1) for i, r in factors for _ in range(r)] if rng.random() < 0.5 else factors
    rng.shuffle(split)
    return " ".join(f"w{i}^{r}" if rng.random() < 0.5 else (f"w{i}" if r == 1 else f"w{i}^{r}")
                    for i, r in split)


def _mixed(table: CharNumberTable, rng: random.Random) -> dict:
    """The entries of a table with some keys respelled, and perhaps a defect:
    a bad value, an SW value to read mod 2, a duplicate through a respelled
    key, a key of another degree or a key that names nothing."""
    kind = table.kind
    raw = {}
    for key, value in table.entries.items():
        raw[_respelled(kind, key, rng) if rng.random() < 0.2 else key] = value
    keys = list(raw)
    defect = rng.randrange(8)
    if defect == 0 and keys:
        raw[rng.choice(keys)] = rng.choice([True, "3", 1.5, None])
    elif defect == 1 and keys:
        raw[rng.choice(keys)] = rng.choice([3, -1, -2, 10**30])
    elif defect == 2 and table.entries:
        key = rng.choice(list(table.entries))
        raw[_respelled(kind, key, rng)] = 1
        raw[key] = 0
    elif defect == 3:
        raw["w1" if kind == SW else "1"] = 1
    elif defect == 4:
        raw[rng.choice(["x", "1,2", "w0", "w1^", "", "0"])] = 1
    items = list(raw.items())
    rng.shuffle(items)
    return dict(items)


def _documents() -> list:
    rng = random.Random(20041)
    documents = []
    for table in _built_tables()[:48]:
        for _ in range(3):
            raw = _mixed(table, rng)
            documents += [
                {"dim": table.dimension, "kind": table.kind, "entries": raw},
                raw,
            ]
    documents += [  # dimension 0, where the walk gives "" for either kind
        {"dim": 0, "kind": PONTRJAGIN, "entries": {"": 5}},
        {"dim": 0, "kind": PONTRJAGIN, "entries": {"()": 5}},
        {"dim": 0, "kind": PONTRJAGIN, "entries": {"": 5, "()": 6}},
        {"dim": 0, "kind": SW, "entries": {"": 1}},
        {"dim": 0, "kind": SW, "entries": {}},
        {"": 2},
        {"  ": 2},
    ]
    documents += [  # past MAX_WEIGHT, where the walk is refused and every key parsed
        {str(MAX_WEIGHT + 1): 1},
        {f"({MAX_WEIGHT + 1})": 1, f"{MAX_WEIGHT},1": 2},
        {"dim": 4 * MAX_WEIGHT + 4, "kind": PONTRJAGIN, "entries": {"46": 1, "(46)": 2}},
        {f"w{MAX_WEIGHT + 1}": 1, f"w1 w{MAX_WEIGHT}": 3, f"w{MAX_WEIGHT} w1": 1},
        {"dim": MAX_WEIGHT + 1, "kind": SW, "entries": {f"w1^{MAX_WEIGHT + 1}": 2}},
    ]
    documents += [  # a duplicate through a respelled key, after the canonical one
        {"dim": 16, "kind": PONTRJAGIN,
         "entries": {**pontrjagin_numbers(quaternionic_projective(4)).entries, "( 2, 2 )": 1}},
        {**stiefel_whitney_numbers(complex_projective(3)).entries, "w2^2 w1^2": 0},
        {"dim": 4, "kind": "x", "entries": {}}, [], {"4": 1, "x": True},
    ]
    return documents


def test_the_reader_answers_as_a_reader_that_parses_every_key():
    documents = _documents()
    outcomes = [_outcome(CharNumberTable.from_json_dict, document) for document in documents]
    assert outcomes == [_outcome(_parsed_load, document) for document in documents]
    # the documents reach every answer: a table, and each of the errors
    assert {type(outcome[0]) for outcome in outcomes} >= {CharNumberTable, type}
    texts = " ".join(outcome[1] for outcome in outcomes if outcome[0] is not CharNumberTable
                     and isinstance(outcome[1], str))
    for text in ("must be an integer", "duplicate table entry", "total degree",
                 "malformed", "empty Stiefel-Whitney monomial"):
        assert text in texts


def test_a_canonical_table_is_read_by_the_walk_and_a_small_one_by_parses(monkeypatch):
    big = pontrjagin_numbers(quaternionic_projective(20))
    sw = stiefel_whitney_numbers(complex_projective(8))

    def refused(*args):
        raise AssertionError("not called")

    with monkeypatch.context() as patch:
        patch.setattr(partitions, "parse_partition", refused)
        patch.setattr(partitions, "parse_monomial", refused)
        for table in (big, sw):
            assert CharNumberTable.from_json_dict(table.to_json_dict()) == table
            assert CharNumberTable(*table) == table
    with monkeypatch.context() as patch:
        patch.setattr(partitions, "walk_runs", refused)
        assert CharNumberTable.from_json_dict({"45": 1}).dimension == 180
        assert CharNumberTable(PONTRJAGIN, 180, {"45": 1, "44,1": 2}).entries["44,1"] == 2


def test_format_partition_spells_a_key_as_the_table_does():
    for n in range(9):
        keys = [format_partition(p) for p in partitions.partitions_of(n)]
        # all of them are read by the walk, each alone by a parse
        assert list(CharNumberTable(PONTRJAGIN, 4 * n, dict.fromkeys(keys, 1)).entries) == keys
        for key in keys:
            assert CharNumberTable(PONTRJAGIN, 4 * n, {key: 1}).entries == {key: 1}
