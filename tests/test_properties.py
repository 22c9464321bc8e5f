"""Property tests: every parser either returns a value or raises SymcharError.

Arbitrary text, and text over each grammar's own alphabet so that the
deeper branches (numbers, separators, exponents, JSON) are reached too.
classify and dual answer any spec of a known family, however large its
parameters, with one JSON document.
"""

import io
import json
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchar import cli
from symchar.catalog import _NAMES, parse_space
from symchar.charclass import PONTRJAGIN, SW, parse_table_key
from symchar.errors import SymcharError
from symchar.partitions import parse_monomial, parse_partition

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

LONG_DIGITS = st.integers(4000, 6000).map(lambda n: "7" * n)


def _texts(alphabet: str):
    pieces = st.one_of(st.text(alphabet, max_size=12), LONG_DIGITS)
    return st.one_of(st.text(), st.lists(pieces, max_size=6).map("".join))


SPACES = _texts("SU_pqLnRCHQayFlt(),0123456789- ")
PARTITIONS = _texts("0123456789,() -+_")
MONOMIALS = _texts("w0123456789^ ")
TABLES = _texts('{}[]":,0123456789w^ -.eEntrieskdmpojsaglv@')


def _value_or_domain_error(call, text):
    try:
        call(text)
    except SymcharError:
        pass


@SETTINGS
@given(SPACES)
def test_parse_space_is_total(text):
    _value_or_domain_error(parse_space, text)


@SETTINGS
@given(PARTITIONS)
def test_parse_partition_is_total(text):
    _value_or_domain_error(parse_partition, text)


@SETTINGS
@given(MONOMIALS)
@example("w" + "7" * 5000)
def test_parse_monomial_is_total(text):
    _value_or_domain_error(parse_monomial, text)


@SETTINGS
@given(st.sampled_from([PONTRJAGIN, SW]), st.one_of(PARTITIONS, MONOMIALS))
def test_parse_table_key_is_total(kind, text):
    _value_or_domain_error(lambda key: parse_table_key(kind, key), text)


@SETTINGS
@given(TABLES)
@example("@table\x00.json")
@example("[" * 100_000)
def test_load_table_is_total(text):
    _value_or_domain_error(cli._load_table, text)


def test_load_table_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "table.json"
    path.write_bytes(b"\xff\xfe{}")
    _value_or_domain_error(cli._load_table, f"@{path}")


@pytest.fixture(scope="module")
def default_digit_limit():
    """Python's default limit on converting between int and text."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


PARAMETERS = st.lists(
    st.one_of(st.integers(-2, 10**60), st.integers(10**3999, 10**4000 - 1)),
    max_size=2,
)


NINES = 10**4300 - 1  # 4300 digits; 2n, p+q and n+1 have 4301


@settings(max_examples=300, deadline=1000, derandomize=True, database=None)
@given(st.sampled_from(["classify", "dual"]), st.sampled_from(sorted(_NAMES)), PARAMETERS)
@example(command="classify", name="SOstar_2n", params=[NINES])
@example(command="dual", name="SOstar_2n", params=[NINES])
@example(command="classify", name="SU_pq", params=[NINES, 1])
@example(command="dual", name="SU_pq", params=[NINES, 1])
@example(command="dual", name="RHn", params=[NINES])
@example(command="classify", name="RHn", params=[NINES])
def test_classify_and_dual_are_total(default_digit_limit, command, name, params):
    spec = f"{name}({','.join(map(str, params))})" if params else name
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([command, spec])
    assert code in (0, 1)
    assert out.getvalue().count("\n") == 1
    json.loads(out.getvalue())
