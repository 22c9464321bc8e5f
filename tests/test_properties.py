"""Property tests: every parser either returns a value or raises SymcharError.

Arbitrary text, and text over each grammar's own alphabet so that the
deeper branches (numbers, separators, exponents, JSON) are reached too.
classify and dual answer any spec of a known family, however large its
parameters, with one JSON document, and so does every subcommand on any
arguments, or it ends in a usage error.
"""

import argparse
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import build_parser, sw_monomial_by_regex
from symchar import cli
from symchar.catalog import _FAMILIES, _NAMES, parse_space
from symchar.tables import PONTRJAGIN, SW, CharNumberTable
from symchar.errors import BadTableError, SymcharError
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
@given(st.one_of(MONOMIALS, _texts("w^0123456789\u0663\u00b2\uff17_+ ")))
@example("w1^")
@example("w^2")
@example("w\u0663")  # an Arabic-Indic 3: a Unicode decimal
@example("w\u00b2")  # a superscript 2: a digit but not a decimal
@example("w1_0")
@example("w1^+2")  # int() reads "+2", the grammar does not
@example("w1^\u00b2")
@example("w" + "7" * 5000)
def test_parse_monomial_agrees_with_the_regex_grammar(text):
    try:
        parsed = parse_monomial(text)
    except SymcharError as exc:
        parsed = "too long" if "too long" in str(exc) else None
    assert parsed == sw_monomial_by_regex(text)


@SETTINGS
@given(st.sampled_from([PONTRJAGIN, SW]), st.one_of(PARTITIONS, MONOMIALS))
def test_reading_a_one_key_table_is_total(kind, text):
    # in the full form of either kind, where the key is read before its
    # degree is compared with "dim", and bare, where it gives kind and degree
    for document in ({"dim": 0, "kind": kind, "entries": {text: 1}}, {text: 1}):
        _value_or_domain_error(CharNumberTable.from_json_dict, document)


@SETTINGS
@given(TABLES)
@example("@table\x00.json")
@example("[" * 100_000)
def test_load_table_is_total(text):
    _value_or_domain_error(cli._load_tables, text)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.json"


@SETTINGS
@given(TABLES)
@example('{"4": %s}' % ("7" * 300_000))
@example('{"2,2": -%s, "4": 1}' % ("7" * 4301))
def test_table_files_are_total_with_the_digit_limit_off(table_path, text):
    table_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _value_or_domain_error(cli._load_tables, f"@{table_path}")
    finally:
        sys.set_int_max_str_digits(saved)


def test_load_table_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "table.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(BadTableError, match="^cannot read table file: "):
        cli._load_tables(f"@{path}")


def test_load_table_refuses_a_path_with_a_nul():
    with pytest.raises(BadTableError, match="^cannot read table file: "):
        cli._load_tables("@table\x00.json")


@pytest.fixture(scope="module")
def default_digit_limit():
    """Python's default limit on converting between int and text."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


PARAMETERS = st.lists(
    st.one_of(
        st.integers(-2, 10**60),
        st.integers(10**3999, 10**4000 - 1),
        st.integers(10**4299, 10**4300 - 1),
    ),
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


def _not_help(token: str) -> bool:
    """-h, --h, --he, ... print help text and exit 0 (the -h forms with
    more joined to them are usage errors, or -h repeated)."""
    return not re.match("-h|--h", token)


def _spec(name: str, params: list) -> str:
    return f"{name}({','.join(map(str, params))})" if params else name


def _small_specs(name: str):
    """Specs of the family named, with its arity and parameters up to 12."""
    arity = len(_FAMILIES[_NAMES[name]].min_params)
    params = st.lists(st.integers(0, 12), min_size=arity, max_size=arity)
    return params.map(lambda p: _spec(name, p))


SPECS = st.one_of(
    st.sampled_from(sorted(_NAMES)).flatmap(_small_specs),
    st.builds(_spec, st.sampled_from(sorted(_NAMES)), PARAMETERS),
    SPACES.filter(_not_help),
)
INTEGERS = st.one_of(
    st.integers(-3, 300).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.integers(10**3999, 10**4000 - 1).map(str),
    st.text("0123456789x_ .", max_size=6),
)
P_KEYS = ["4", "2,2", "(2, 2)", "1,1,1,1", "3,1", "2,1,1", "3", ""]
SW_KEYS = ["w4", "w2^2", "w2 w2", "w1^4", "w1 w3", "w1^2 w2", "w3"]
TABLE = st.one_of(
    TABLES.filter(_not_help),
    *(
        st.dictionaries(st.sampled_from(keys), st.integers(-(10**6), 10**6), max_size=5)
        .map(json.dumps)
        for keys in (P_KEYS, SW_KEYS)
    ),
)
ARGV = st.one_of(
    *(
        st.tuples(st.just(command), SPECS)
        for command in ("classify", "dual", "p-class", "p-numbers", "sw-numbers", "wall")
    ),
    st.tuples(st.just("wall"), st.just("--p"), TABLE),
    st.tuples(st.just("wall"), st.just("--p"), TABLE, st.just("--sw"), TABLE),
    st.tuples(st.just("transfer"), st.just("--table"), TABLE, st.just("--deg"), INTEGERS),
    st.tuples(
        st.just("transfer"), st.just("--table"), TABLE,
        st.just("--deg-t"), INTEGERS, st.just("--deg-f"), INTEGERS,
    ),
    st.tuples(st.just("mu"), st.just("--m"), TABLE, st.just("--mu-dual"), TABLE),
    st.tuples(st.just("gl-order"), INTEGERS, INTEGERS),
    st.tuples(
        st.just("ds-check"), st.just("--mu"), INTEGERS, st.just("--k"), INTEGERS,
        st.just("--q1"), INTEGERS, st.just("--q2"), INTEGERS,
    ),
    st.lists(st.text(max_size=8).filter(_not_help), max_size=4),  # any argv at all
).map(list)


# The slowest answers stay well under the deadline: p-class 'QHn(7000)'
# takes about 1.2 s, a 4000-digit field size about 0.2 s.
@settings(max_examples=400, deadline=2000, derandomize=True, database=None)
@given(ARGV, st.booleans())
@example(["classify", "SU_pq(2,3)"], False)
@example(["dual", "SLnR(4)"], True)
@example(["p-class", "CayH"], False)
@example(["p-numbers", "QHn(2)"], True)
@example(["sw-numbers", "CHn(2)"], False)
@example(["wall", "CHn(3)"], False)
@example(["wall", "--p", '{"4": 0}', "--sw", '{"w4": 0, "w2^2": 0}'], False)
@example(["transfer", "--table", '{"4":39,"2,2":36}', "--deg", "2"], False)
@example(["transfer", "--table", '{"4":39,"2,2":36}', "--deg-t", "2", "--deg-f", "3"], False)
@example(["mu", "--m", '{"4":13,"2,2":12}', "--mu-dual", '{"4":39,"2,2":36}'], False)
@example(["gl-order", "3", "2"], False)
@example(["ds-check", "--mu", "3", "--k", "1", "--q1", "2", "--q2", "3"], True)
@example(["gl-order", "3", "2", "x"], False)  # a usage error
def test_every_subcommand_is_total(default_digit_limit, argv, pretty):
    if pretty:
        argv = [*argv, "--pretty"]
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:
        assert out.getvalue() == ""
        return
    assert code in (0, 1)
    assert out.getvalue().endswith("}\n")
    payload = json.loads(out.getvalue())  # one document and nothing after it
    assert isinstance(payload, dict) and (code == 1) == ("error" in payload)


_ORACLE = build_parser()
_SUBPARSERS = next(
    action for action in _ORACLE._actions if isinstance(action, argparse._SubParsersAction)
).choices
_OPTION_STRINGS = {
    option for parser in _SUBPARSERS.values() for option in parser._option_string_actions
}
_INT_FIELDS = {
    action.dest
    for parser in _SUBPARSERS.values()
    for action in parser._actions
    if action.type is int
}
_OPTION_PREFIXES = sorted(
    {option[:i] for option in _OPTION_STRINGS for i in range(2, len(option) + 1)}
)
_SPECIAL_TOKENS = [
    "--", "-", "-3", "-1.5", "-x y", "", "\u0663", "-\u0663", "\u00b2", "7" * 4301, "-x",
]
_VALUES = st.one_of(
    st.sampled_from(_SPECIAL_TOKENS),
    st.integers(-(10**6), 10**6).map(str),
    st.text(max_size=8),
)
# A joined "--" is left out: argparse releases differ on it (3.11 and 3.12.1
# hand the handler an empty list, a traceback; 3.13 the text "--").
# test_cli covers how parse_args reads it.
_JOINED = st.builds(
    "{}={}".format,
    st.sampled_from([p for p in _OPTION_PREFIXES if len(p) > 2]),
    _VALUES.filter(lambda value: value != "--"),
)
_TOKENS = st.one_of(
    st.sampled_from(sorted(_SUBPARSERS)),
    st.sampled_from(_OPTION_PREFIXES),
    _JOINED,
    _VALUES,
).filter(_not_help)


@st.composite
def _near_valid(draw):
    """A subcommand with each of its arguments or none, an option spelled
    out, shortened or joined to its value, in any order, then maybe one
    token more."""
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    chunks = []
    for action in _SUBPARSERS[command]._actions:
        if action.dest == "help" or not (action.required or draw(st.booleans())):
            continue
        if action.nargs == 0:
            chunks.append([action.option_strings[0]])
            continue
        if action.type is int and draw(st.integers(0, 4)):
            value = str(draw(st.integers(-(10**6), 10**6)))
        else:
            value = draw(_VALUES)
        if not action.option_strings:
            chunks.append([value])
            continue
        option = action.option_strings[0]
        option = option[: draw(st.integers(3, len(option)))]
        if value != "--" and draw(st.booleans()):
            chunks.append([f"{option}={value}"])
        else:
            chunks.append([option, value])
    argv = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKENS))
    return [command, *argv]


_COMMAND_LINES = st.one_of(
    _near_valid(),
    st.tuples(st.sampled_from(sorted(_SUBPARSERS)), st.lists(_TOKENS, max_size=7)).map(
        lambda drawn: [drawn[0], *drawn[1]]
    ),
    st.lists(_TOKENS, max_size=4),
)


def _parsed(parse, argv):
    """The values parse reads from argv, or the code it exits with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


def _argparse_reading(argv):
    """The oracle's values.  An argparse before 3.13 strips a literal "--"
    that is an argument's only token and hands the handler []: parse_args
    reads the token instead, a usage error where an int is wanted."""
    parsed = _parsed(_ORACLE.parse_args, argv)
    if isinstance(parsed, dict):
        for field, value in parsed.items():
            if value == []:
                if field in _INT_FIELDS:
                    return 2
                parsed[field] = "--"
    return parsed


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_COMMAND_LINES)
@example(["transfer", "--tab", "x", "--de=2"])  # ambiguous: --deg, --deg-t, --deg-f
@example(["transfer", "--tab=x", "--deg", "2", "--deg", "3"])  # the last one wins
@example(["ds-check", "--q", "2", "--mu", "3", "--k", "1"])  # ambiguous: --q1, --q2
@example(["mu", "--mu", "x", "--m", "y", "--pre"])  # --mu-dual, --pretty
@example(["gl-order", "-3", "2"])  # a number, not an option
@example(["gl-order", "3", "--", "-2"])
@example(["gl-order", "--", "1", "--"])  # argparse: q = []
@example(["wall", "--pretty", "--"])
@example(["wall", "-", "--p=x", "--sw", "-1.5"])
@example(["classify", "-x y"])  # a space makes it a positional
@example(["classify", "-x"])
@example(["gl-order", "7" * 4301, "2"])
@example(["--pretty", "classify", "X"])
@example(["-3", "classify", "X"])
@example(["gl-order", "1", "2", "--"])  # a "--" at the end of the line
@example(["classify", "X", "Y", "--"])
@example(["wall", "--", "--p"])  # an option after "--" is a positional
@example(["transfer", "--table", "--"])  # "--" is no option's value
@example(["wall", "--p", "x", "--", "y"])
@example(["mu", "--m", "a", "--mu-dual", "--", "b"])
def test_parse_args_reads_what_argparse_read(default_digit_limit, argv):
    ours, theirs = _parsed(cli.parse_args, argv), _argparse_reading(argv)
    assert (ours == 2) == (theirs == 2), (ours, theirs)
    assert ours == theirs

