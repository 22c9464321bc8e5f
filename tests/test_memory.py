"""No call leaves a reference cycle behind: what a call built is freed when
its caller drops it, without waiting for the cyclic garbage collector.

Each test runs with the collector disabled.  The partition walk's recursive
closure refers to itself; left in place, that cycle would keep the entries
and tail lists of every table built or read alive until the next collection."""

import gc
import json
import tracemalloc
from functools import partial

import pytest

from symchar import catalog, charclass, cli, partitions, transfer
from symchar.errors import SymcharError
from symchar.tables import PONTRJAGIN, SPELLING, SW, CharNumberTable


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _unit_walk(kind: str, n: int) -> dict:
    _, run, sep, prepend = SPELLING[kind]
    return partitions.walk_runs(n, lambda k, r: (run(k, r), 1), sep, prepend)


_HP8 = charclass.pontrjagin_numbers(charclass.quaternionic_projective(8))

_LIBRARY_CALLS = {
    "walk_runs-pontrjagin": lambda: [_unit_walk(PONTRJAGIN, n) for n in (0, 1, 2, 3, 26)],
    "walk_runs-sw": lambda: [_unit_walk(SW, n) for n in (0, 1, 2, 3, 26)],
    "partitions_of": lambda: [partitions.partitions_of(n) for n in (0, 3, 26)],
    # Stiefel-Whitney numbers of HP^n and CayP^2 are refused
    **{
        f"{numbers.__name__}-{space.render()}": partial(numbers, space)
        for numbers in (charclass.pontrjagin_numbers, charclass.stiefel_whitney_numbers)
        for space in (
            charclass.sphere(8),
            charclass.complex_projective(10),
            charclass.quaternionic_projective(8),
            charclass.cayley_plane(),
        )
    },
    # the key check by the walk, and by parses: 22 partitions of 8 for one key
    "CharNumberTable-walk": lambda: CharNumberTable(PONTRJAGIN, 32, dict(_HP8.entries)),
    "CharNumberTable-parse": lambda: CharNumberTable(PONTRJAGIN, 32, {"8": 1}),
    "from_json_dict-full": lambda: CharNumberTable.from_json_dict(_HP8.to_json_dict()),
    "from_json_dict-bare": lambda: CharNumberTable.from_json_dict({"4": 13, "2,2": 12}),
    "from_json_dict-respelled": lambda: CharNumberTable.from_json_dict({"(2, 2)": 12}),
    "from_json_dict-refused": lambda: CharNumberTable.from_json_dict({"2,2": 1, "x": 1}),
    "pullback_numbers": lambda: transfer.pullback_numbers(_HP8, 3),
    "solve_manifold_numbers": lambda: transfer.solve_manifold_numbers(_HP8, 1, 1),
    "mu": lambda: transfer.mu(_HP8, _HP8),
    "gl_order": lambda: transfer.gl_order(3, 5),
    "deligne_sullivan_check": lambda: transfer.deligne_sullivan_check(5, 1, 3, 4),
    "wall_verdict": lambda: catalog.wall_verdict(catalog.parse_space("CHn(4)")),
}


def _garbage_after(call) -> int:
    """The objects that gc.collect() finds unreachable after call()."""
    gc.collect()
    try:
        call()
    except (SymcharError, SystemExit):  # a refusal, a usage error, --help
        pass
    return gc.collect()


@pytest.mark.parametrize("name", _LIBRARY_CALLS)
def test_no_library_call_leaves_cyclic_garbage(no_collector, name):
    assert _garbage_after(_LIBRARY_CALLS[name]) == 0


_HP8_TEXT = json.dumps(_HP8.to_json_dict())
_CLI_CALLS = {
    "classify": ["classify", "CHn(3)"],
    "dual": ["dual", "CayH"],
    "p-class": ["p-class", "QHn(3)"],
    "p-numbers": ["p-numbers", "QHn(26)"],
    "sw-numbers": ["sw-numbers", "CHn(10)"],
    "transfer": ["transfer", "--table", "@table", "--deg", "3"],
    "mu": ["mu", "--m", "@table", "--mu-dual", "@table"],
    "wall-space": ["wall", "CHn(4)"],
    "wall-tables": ["wall", "--p", "@table", "--sw", '{"w32": 0}'],
    "gl-order": ["gl-order", "3", "5"],
    "ds-check": ["ds-check", "--mu", "5", "--k", "1", "--q1", "3", "--q2", "4"],
    "usage-error": ["bogus"],
    "domain-error": ["mu", "--m", "@table", "--mu-dual", '{"x": 1}'],
    "help": ["--help"],
}


@pytest.mark.parametrize("name", _CLI_CALLS)
def test_no_cli_call_leaves_cyclic_garbage(no_collector, capsys, tmp_path, name):
    table = tmp_path / "hp8.json"
    table.write_text(_HP8_TEXT)
    argv = [arg.replace("@table", f"@{table}") for arg in _CLI_CALLS[name]]
    assert _garbage_after(lambda: cli.main(argv)) == 0
    capsys.readouterr()


def test_a_table_read_is_freed_when_its_caller_drops_it(no_collector, capsys, tmp_path):
    # each read walks the table's 8349 keys: two walks left in their cycles
    # would keep 1.7 MiB until a collection
    table = tmp_path / "qhn32.json"
    table.write_text(json.dumps(catalog.pontrjagin_table(catalog.parse_space("QHn(32)"))
                                .to_json_dict()))
    argv = ["mu", "--m", f"@{table}", "--mu-dual", f"@{table}"]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        capsys.readouterr()  # drop the printed report
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # what is left is the interpreter's free lists: 0.11 MiB
    assert left < 2**19
