"""CLI behaviour: JSON goldens, determinism, error codes, exit codes.

Payload checks call ``cli.main`` in this process.  The checks that need a
real ``python -m symchar`` process (each exit code, cross-process
determinism) start one.
"""

import gc
import importlib
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest

import symchar
from _oracles import euler_char_by_weyl_quotient, partitions_decreasing
from symchar import catalog, charclass, cli, tables, transfer
from symchar.catalog import (
    SpaceSpec,
    classify,
    dual_of,
    parse_space,
    pontrjagin_table,
    rank_one_dual,
    spec_string,
    stiefel_whitney_table,
)
from symchar.charclass import (
    BOUNDS,
    DOES_NOT_BOUND,
    PONTRJAGIN,
    CharNumberTable,
    bounds_orientably,
)
from symchar.errors import SymcharError, TooLargeError, UnsupportedClassError
from symchar.partitions import format_partition
from symchar.transfer import pullback_numbers, solve_manifold_numbers
from test_catalog import _grid

README = Path(__file__).resolve().parents[1] / "README.md"

SPACES = [
    "SU_pq(2,3)",
    "SO0_pq(3,5)",
    "SOstar_2n(4)",
    "Sp_nR(3)",
    "Sp_pq(1,2)",
    "SLnR(4)",
    "SUstar_2n(3)",
    "TypeIV(8)",
    "RHn(3)",
    "CHn(2)",
    "QHn(2)",
    "CayH",
    "ConstPos(4)",
    "Flat(3)",
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "symchar", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run(capsys):
    """cli.main in this process: (exit code, the one JSON document printed)."""

    def call(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1, out + err
        return code, json.loads(out)

    return call


@pytest.fixture
def run_json(run):
    def call(*args):
        code, payload = run(*args)
        assert code == 0, payload
        return payload

    return call


@pytest.fixture
def default_digit_limit():
    """Python's default limit on converting between int and text."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_classify_golden_slnr4(run_json):
    assert run_json("classify", "SLnR(4)") == {
        "family": "SL_nR",
        "params": [4],
        "dual": "SU(4)/SO(4)",
        "dim": 9,
        "rank_gu": 3,
        "rank_k": 2,
        "toral_rank": 1,
        "verdict": "RankGap_PontrjaginVanish",
        "euler_char_dual": 0,
        "minvol_positive": False,
    }


def test_classify_golden_su23(run_json):
    payload = run_json("classify", "SU_pq(2,3)")
    assert payload["verdict"] == "EqualRank_EulerNonzero"
    assert payload["toral_rank"] == 0
    assert payload["euler_char_dual"] == 10
    assert payload["minvol_positive"] is True


def test_classify_output_is_deterministic():
    first = run_cli("classify", "SO0_pq(3,5)")
    second = run_cli("classify", "SO0_pq(3,5)")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    assert json.loads(first.stdout)["verdict"] == "RankGap_PontrjaginVanish"


def test_pretty_flag_same_payload(run_json, capsys):
    plain = run_json("classify", "CayH")
    assert cli.main(["classify", "CayH", "--pretty"]) == 0
    pretty = capsys.readouterr().out
    assert json.loads(pretty) == plain
    assert "\n" in pretty.strip()


def test_dual_type_iv_has_null_groups(run_json):
    payload = run_json("dual", "TypeIV(5)")
    assert payload["gu"] is None and payload["k"] is None
    assert payload["dual"] == "compact Lie group"
    assert payload["dim"] == 5


def test_dual_quotient_fields(run_json):
    payload = run_json("dual", "QHn(3)")
    assert payload == {
        "family": "QuaternionicHyperbolic_n",
        "params": [3],
        "dual": "HP^3",
        "gu": "Sp(4)",
        "k": "Sp(1)xSp(3)",
        "rank_gu": 4,
        "rank_k": 4,
        "dim": 12,
    }


# `dual` of each of SPACES, byte for byte: every factor kind's rank, dimension
# and text, and the trivial K of Flat(3).
DUAL_GOLDENS = [
    '{"dim":12,"dual":"SU(5)/S(U2xU3)","family":"SU_pq","gu":"SU(5)","k":"S(U2xU3)","params":[2,3],"rank_gu":4,"rank_k":4}',
    '{"dim":15,"dual":"SO(8)/SO(3)xSO(5)","family":"SO0_pq","gu":"SO(8)","k":"SO(3)xSO(5)","params":[3,5],"rank_gu":4,"rank_k":3}',
    '{"dim":12,"dual":"SO(8)/U(4)","family":"SOstar_2n","gu":"SO(8)","k":"U(4)","params":[4],"rank_gu":4,"rank_k":4}',
    '{"dim":12,"dual":"Sp(3)/U(3)","family":"Sp_nR","gu":"Sp(3)","k":"U(3)","params":[3],"rank_gu":3,"rank_k":3}',
    '{"dim":8,"dual":"Sp(3)/Sp(1)xSp(2)","family":"Sp_pq","gu":"Sp(3)","k":"Sp(1)xSp(2)","params":[1,2],"rank_gu":3,"rank_k":3}',
    '{"dim":9,"dual":"SU(4)/SO(4)","family":"SL_nR","gu":"SU(4)","k":"SO(4)","params":[4],"rank_gu":3,"rank_k":2}',
    '{"dim":14,"dual":"SU(6)/Sp(3)","family":"SUstar_2n","gu":"SU(6)","k":"Sp(3)","params":[3],"rank_gu":5,"rank_k":3}',
    '{"dim":8,"dual":"compact Lie group","family":"TypeIV","gu":null,"k":null,"params":[8],"rank_gu":null,"rank_k":null}',
    '{"dim":3,"dual":"S^3","family":"RealHyperbolic_n","gu":"SO(4)","k":"SO(3)","params":[3],"rank_gu":2,"rank_k":1}',
    '{"dim":4,"dual":"CP^2","family":"ComplexHyperbolic_n","gu":"SU(3)","k":"S(U1xU2)","params":[2],"rank_gu":2,"rank_k":2}',
    '{"dim":8,"dual":"HP^2","family":"QuaternionicHyperbolic_n","gu":"Sp(3)","k":"Sp(1)xSp(2)","params":[2],"rank_gu":3,"rank_k":3}',
    '{"dim":16,"dual":"CayP^2","family":"CayleyHyperbolic","gu":"F4","k":"Spin(9)","params":[],"rank_gu":4,"rank_k":4}',
    '{"dim":4,"dual":"S^4","family":"ConstantPositive_n","gu":"SO(5)","k":"SO(4)","params":[4],"rank_gu":2,"rank_k":2}',
    '{"dim":3,"dual":"T^3","family":"Flat_n","gu":"U(1)^3","k":"1","params":[3],"rank_gu":3,"rank_k":0}',
]


def test_dual_goldens(capsys):
    for space, golden in zip(SPACES, DUAL_GOLDENS, strict=True):
        assert cli.main(["dual", space]) == 0
        assert capsys.readouterr().out == golden + "\n", space


def test_p_class_cayley(run_json):
    payload = run_json("p-class", "CayH")
    assert payload["coefficients"] == [1, 6, 39]
    assert payload["generator_degree"] == 8
    assert payload["truncation_top"] == 2
    assert "notes" in payload


def test_p_class_requires_rank_one(run):
    code, payload = run("p-class", "SU_pq(2,3)")
    assert (code, payload["error"]) == (1, "unsupported-class")


def test_p_numbers_cayley_golden(run_json):
    assert run_json("p-numbers", "CayH") == {
        "dim": 16,
        "kind": "pontrjagin",
        "entries": {"4": 39, "3,1": 0, "2,2": 36, "2,1,1": 0, "1,1,1,1": 0},
    }


def test_p_numbers_rank_gap_vanish(run_json):
    payload = run_json("p-numbers", "SLnR(6)")
    assert payload["dim"] == 20
    assert len(payload["entries"]) == 7  # partitions of 5
    assert all(v == 0 for v in payload["entries"].values())


def test_p_numbers_odd_dimension_reason(run_json):
    payload = run_json("p-numbers", "SLnR(4)")
    assert payload["entries"] == {}
    assert payload["reason"] == "dimension-not-multiple-of-4"


def test_p_numbers_equal_rank_unsupported(run):
    code, payload = run("p-numbers", "SU_pq(2,3)")
    assert (code, payload["error"]) == (1, "unsupported-class")


def test_sw_numbers_cp2(run_json):
    payload = run_json("sw-numbers", "CHn(2)")
    assert payload["entries"]["w2^2"] == 1
    assert payload["entries"]["w4"] == 1
    assert payload["dim"] == 4
    assert payload["kind"] == "sw"


def test_sw_numbers_unsupported_for_quaternionic(run):
    code, payload = run("sw-numbers", "QHn(2)")
    assert (code, payload["error"]) == (1, "unsupported-class")


def test_transfer_pullback(run_json):
    payload = run_json("transfer", "--table", '{"4":39,"2,2":36}', "--deg", "2")
    assert payload["entries"] == {"4": 78, "2,2": 72}
    assert payload["dim"] == 16


def test_transfer_solve(run_json):
    payload = run_json(
        "transfer", "--table", '{"4":39,"2,2":36}', "--deg-t", "2", "--deg-f", "3"
    )
    assert payload["entries"] == {"4": 26, "2,2": 24}


def test_transfer_solve_inexact_errors(run):
    code, payload = run(
        "transfer", "--table", '{"4":39}', "--deg-t", "1", "--deg-f", "2"
    )
    assert (code, payload["error"]) == (1, "inconsistent-degrees")


def test_transfer_requires_a_mode(run, monkeypatch):
    # Each handler refuses its flags before it reads a table.
    def no_read(text):
        raise AssertionError(f"table {text!r} read before the flags were checked")

    monkeypatch.setattr(cli, "_read_table", no_read)
    for argv in [
        ("transfer", "--table", "{}"),
        ("transfer", "--table", "{}", "--deg", "2", "--deg-t", "1"),
        ("transfer", "--table", "{}", "--deg-t", "1"),
        ("wall", "CHn(2)", "--p", "{}"),
        ("wall", "--sw", "{}"),
    ]:
        code, payload = run(*argv)
        assert (code, payload["error"]) == (1, "invalid-input"), argv


def test_table_reason_must_be_a_string_or_null(run, run_json):
    def table(reason):
        return '{"dim":6,"kind":"pontrjagin","entries":{},"reason":%s}' % reason

    code, payload = run("transfer", "--table", table('{"a":[1]}'), "--deg", "2")
    assert (code, payload["error"]) == (1, "bad-table")
    assert "reason" not in run_json("transfer", "--table", table("null"), "--deg", "2")
    assert run_json("transfer", "--table", table('"odd"'), "--deg", "2")["reason"] == "odd"


def test_mu_example_with_paren_keys(run_json):
    payload = run_json(
        "mu",
        "--m",
        '{"(4)": 13, "(2,2)": 12}',
        "--mu-dual",
        '{"4": 39, "2,2": 36}',
    )
    assert payload == {
        "mu": 3,
        "contributions": {"4": 3, "2,2": 3},
        "skipped": [],
    }


def test_mu_inconsistent_tables_error(run):
    code, payload = run("mu", "--m", '{"4": 0}', "--mu-dual", '{"4": 39}')
    assert (code, payload["error"]) == (1, "inconsistent-tables")


def test_wall_from_space(run_json):
    assert run_json("wall", "CHn(2)")["verdict"] == "does_not_bound"
    assert run_json("wall", "CHn(3)")["verdict"] == "bounds"
    assert run_json("wall", "CayH")["verdict"] == "does_not_bound"
    assert run_json("wall", "SLnR(4)")["verdict"] == "insufficient_data"
    payload = run_json("wall", "CHn(1)")
    assert payload["verdict"] == "bounds"  # CP^1 is a 2-sphere


# p_1^k[CP^2k] = (2k + 1)^k decides CP^2k without its SW table, which would
# be over the partitions of 4k; odd CP^n and spheres still need theirs
@pytest.mark.parametrize(
    "space, code, answer",
    [
        ("CHn(22)", 0, "does_not_bound"),
        ("CHn(24)", 0, "does_not_bound"),
        ("CHn(90)", 0, "does_not_bound"),
        ("QHn(45)", 0, "does_not_bound"),
        ("CHn(23)", 1, "too-large"),
        ("RHn(46)", 1, "too-large"),
        ("CHn(92)", 1, "too-large"),
    ],
)
def test_wall_builds_the_sw_table_only_when_needed(run, space, code, answer):
    exit_code, payload = run("wall", space)
    assert (exit_code, payload.get("verdict", payload.get("error"))) == (code, answer)


def test_a_bare_sw_table_may_start_with_any_whitespace(run_json):
    for key in ("\tw2", "\nw1^2", "\x1cw2", "\u3000w1 w1"):
        table = json.dumps({key: 1})
        assert run_json("transfer", "--table", table, "--deg", "1")["kind"] == "sw"


def test_wall_from_tables(run_json):
    assert run_json("wall", "--p", '{"1": 3}')["verdict"] == "does_not_bound"
    assert (
        run_json("wall", "--p", '{"1": 0}')["verdict"] == "insufficient_data"
    )
    payload = run_json(
        "wall", "--p", '{"1": 0}', "--sw", '{"w4": 0, "w2^2": 0}'
    )
    assert payload["verdict"] == "bounds"


# The Wu manifold SU(3)/SO(3), the compact dual of SL_nR(3): dimension 5,
# so every Pontrjagin number is 0, and w2 w3 = 1, so it does not bound by
# its SW number alone.  wall 'SL_nR(3)' answers insufficient_data, because
# SW tables are computed for rank-one duals only.
_WU_P_TABLE = '{"dim":5,"kind":"pontrjagin","entries":{}}'


@pytest.mark.parametrize("w2w3, verdict", [(1, DOES_NOT_BOUND), (0, BOUNDS)])
def test_wall_decides_the_wu_manifold_by_its_sw_number(capsys, w2w3, verdict):
    sw = json.dumps({"w2 w3": w2w3})
    assert cli.main(["wall", "--p", _WU_P_TABLE, "--sw", sw]) == 0
    assert capsys.readouterr() == (f'{{"dim":5,"verdict":"{verdict}"}}\n', "")
    p_table = CharNumberTable.from_json_dict(json.loads(_WU_P_TABLE))
    sw_table = CharNumberTable.from_json_dict(json.loads(sw))
    assert p_table.all_zero() and sw_table.entries == {"w2 w3": w2w3}
    assert bounds_orientably(p_table, sw_table) == verdict


def test_wall_table_from_file(run_json, tmp_path):
    table_file = tmp_path / "cay.json"
    table_file.write_text(
        '{"dim": 16, "kind": "pontrjagin", "entries": {"4": 39, "2,2": 36}}'
    )
    payload = run_json("wall", "--p", f"@{table_file}")
    assert payload["verdict"] == "does_not_bound"
    assert payload["dim"] == 16


@pytest.fixture
def opened(monkeypatch):
    """Every file that cli opens, in order."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return files


def test_a_second_file_that_cannot_be_opened_is_refused_before_any_parse(
    run, monkeypatch, tmp_path, opened
):
    first = tmp_path / "first.json"
    first.write_text('{"4": 13, "2,2": 12}')
    missing = tmp_path / "missing.json"

    def no_parse(data):
        raise AssertionError("a table was parsed before every file was opened")

    monkeypatch.setattr(CharNumberTable, "from_json_dict", no_parse)
    for argv in [
        ("mu", "--m", f"@{first}", "--mu-dual", f"@{missing}"),
        ("mu", "--m", '{"4": 13, "2,2": 12}', "--mu-dual", f"@{missing}"),
        ("wall", "--p", f"@{first}", "--sw", f"@{missing}"),
    ]:
        code, payload = run(*argv)
        assert (code, payload["error"]) == (1, "bad-table"), argv
        assert payload["detail"].startswith("cannot read table file"), argv
    assert len(opened) == 2 and all(fh.closed for fh in opened)


def test_every_table_file_is_closed_on_every_path(run, tmp_path, opened):
    good = tmp_path / "good.json"
    good.write_text('{"4": 39, "2,2": 36}')
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"4": ')
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"4": 1} \xff')
    for argv, error in [
        (("mu", "--m", f"@{good}", "--mu-dual", f"@{good}"), None),
        (("mu", "--m", f"@{malformed}", "--mu-dual", f"@{good}"), "bad-table"),
        (("mu", "--m", f"@{good}", "--mu-dual", f"@{not_utf8}"), "bad-table"),
        (("wall", "--p", f"@{not_utf8}", "--sw", f"@{good}"), "bad-table"),
        (("transfer", "--table", f"@{malformed}", "--deg", "2"), "bad-table"),
    ]:
        code, payload = run(*argv)
        assert (code, payload.get("error")) == (0 if error is None else 1, error), argv
    assert len(opened) == 8 and all(fh.closed for fh in opened)


def test_a_second_file_that_cannot_be_read_is_refused_before_any_parse(
    run, monkeypatch, tmp_path, opened
):
    good = tmp_path / "good.json"
    good.write_text('{"4": 13, "2,2": 12}')
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"4": 1} \xff')

    def no_parse(data):
        raise AssertionError("a table was parsed before every file was read")

    monkeypatch.setattr(CharNumberTable, "from_json_dict", no_parse)
    for argv in [
        ("mu", "--m", f"@{good}", "--mu-dual", f"@{not_utf8}"),
        ("wall", "--p", f"@{good}", "--sw", f"@{not_utf8}"),
    ]:
        code, payload = run(*argv)
        assert (code, payload["error"]) == (1, "bad-table"), argv
        assert payload["detail"].startswith("cannot read table file"), argv
    assert len(opened) == 4 and all(fh.closed for fh in opened)


def test_every_table_file_is_closed_before_the_first_table_is_parsed(
    run, monkeypatch, tmp_path, opened
):
    good = tmp_path / "good.json"
    good.write_text('{"4": 39, "2,2": 36}')
    from_json_dict = CharNumberTable.from_json_dict

    def parse_after_every_close(data):
        assert opened and all(fh.closed for fh in opened)
        return from_json_dict(data)

    monkeypatch.setattr(CharNumberTable, "from_json_dict", parse_after_every_close)
    for argv in [
        ("mu", "--m", f"@{good}", "--mu-dual", f"@{good}"),
        ("wall", "--p", f"@{good}", "--sw", '{"w16": 0}'),
        ("transfer", "--table", f"@{good}", "--deg", "2"),
    ]:
        code, payload = run(*argv)
        assert code == 0 and "error" not in payload, argv
    assert len(opened) == 4


def test_table_with_mismatched_degrees_rejected(run):
    code, payload = run("mu", "--m", '{"4": 1, "2,1": 1}', "--mu-dual", '{"4": 1}')
    assert (code, payload["error"]) == (1, "bad-table")


def test_gl_order_cli(run, run_json):
    assert run_json("gl-order", "3", "2") == {"n": 3, "q": 2, "order": 168}
    code, payload = run("gl-order", "2", "6")
    assert (code, payload["error"]) == (1, "bad-prime-power")


def test_ds_check_cli(run, run_json):
    payload = run_json(
        "ds-check", "--mu", "3", "--k", "1", "--q1", "2", "--q2", "3"
    )
    assert payload["divides"] is True
    assert payload["order_product"] == 168 * 11232
    code, payload = run("ds-check", "--mu", "3", "--k", "1", "--q1", "2", "--q2", "4")
    assert (code, payload["error"]) == (1, "equal-characteristic")


def test_unknown_family_is_domain_error():
    proc = run_cli("classify", "Banana(2)")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["error"] == "unknown-family"
    assert "detail" in payload


def test_exceptional_family_error_code(run):
    code, payload = run("classify", "E8(8)")
    assert (code, payload["error"]) == (1, "unsupported-family")


def test_malformed_spec_error_code(run):
    for bad in ["SLnR(x)", "SLnR(", "SU_pq(2)"]:
        code, payload = run("classify", bad)
        assert (code, payload["error"]) == (1, "malformed-spec")


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("gl-order", "two", "3").returncode == 2


@pytest.mark.parametrize(
    "argv, head",
    [
        # QHn(30)'s table, 356 570 bytes, fills the pipe: the child is still
        # writing when the pipe closes
        (["p-numbers", "QHn(30)"], b'{"dim":120'),
        # a pipe closed before the child writes: its first write fails
        (["classify", "SU_pq(2,3)"], b""),
        (["--help"], b""),
    ],
)
def test_a_closed_pipe_exits_1_with_nothing_on_stderr(argv, head):
    with subprocess.Popen(
        [sys.executable, "-m", "symchar", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.read(len(head)) == head
        child.stdout.close()
        assert child.wait(timeout=60) == 1
        assert child.stderr.read() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv", [["classify", "SU_pq(2,3)"], ["p-numbers", "QHn(30)"], ["gl-order", "3", "6"], ["-h"]]
)
def test_a_full_device_exits_1_with_one_line_on_stderr(argv):
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "symchar", *argv], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert child.returncode == 1
    assert child.stderr == "symchar: cannot write the result: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["bogus"], ["gl-order", "3"]])
def test_a_usage_error_exits_2_when_stderr_is_full(argv):
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "symchar", *argv], stdout=subprocess.PIPE, stderr=full, text=True
        )
    assert (child.returncode, child.stdout) == (2, "")


# A descriptor closed before the exec leaves sys.stdout or sys.stderr None.
@pytest.mark.parametrize("argv", [["classify", "CHn(3)"], ["classify", "Foo(2)"], ["--help"]])
def test_a_stdout_closed_at_start_exits_1_with_nothing_on_stderr(argv):
    child = subprocess.run(
        [sys.executable, "-m", "symchar", *argv],
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
    )
    assert (child.returncode, child.stderr) == (1, b"")


@pytest.mark.parametrize("argv", [["bogus"], ["gl-order", "3"]])
def test_a_usage_error_exits_2_when_stderr_is_closed_at_start(argv):
    child = subprocess.run(
        [sys.executable, "-m", "symchar", *argv],
        stdout=subprocess.PIPE,
        preexec_fn=lambda: os.close(2),
    )
    assert (child.returncode, child.stdout) == (2, b"")


_RUN_WITH_ATEXIT = """\
import atexit, gc, sys
from symchar import cli
atexit.register(lambda: sys.stderr.write(f"atexit frozen={gc.get_freeze_count() > 0}\\n"))
cli.run()
"""


@pytest.mark.parametrize(
    "argv, code",
    [(["classify", "CHn(3)"], 0), (["classify", "Foo(2)"], 1), (["gl-order", "3"], 2), (["--help"], 0)],
)
def test_run_exits_with_mains_code_and_runs_atexit_handlers_after_the_freeze(argv, code, capsys):
    child = subprocess.run(
        [sys.executable, "-c", _RUN_WITH_ATEXIT, *argv], capture_output=True, text=True
    )
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    out, err = capsys.readouterr()
    assert (child.returncode, child.stdout) == (code, out)
    assert child.stderr == err + "atexit frozen=True\n"


@pytest.mark.parametrize("argv", [["classify", "CHn(3)"], ["gl-order", "3"], ["--help"]])
def test_main_never_freezes_the_collector(argv, capsys):
    frozen = gc.get_freeze_count()
    try:
        cli.main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_both_process_entries_go_through_run(monkeypatch):
    with open(README.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"symchar": "symchar.cli:run"}
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    monkeypatch.delitem(sys.modules, "symchar.__main__", raising=False)
    runpy.run_module("symchar", run_name="__main__")
    assert calls == ["run"]


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["--he"], *([command, "--help"] for command in cli.COMMANDS)]
)
def test_help_exits_0_and_names_every_choice(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    if len(argv) == 1:
        assert all(command in out for command in cli.COMMANDS)
    else:
        options = [name for name, *_ in cli.COMMANDS[argv[0]][2] if name[:2] == "--"]
        assert all(option in out for option in [*options, "--pretty", "--help"])


def test_a_literal_double_dash_is_read_as_a_token(run, capsys):
    # argparse handed these handlers an empty list, which ended in a traceback
    code, payload = run("transfer", "--table=--", "--deg", "2")
    assert (code, payload["error"]) == (1, "bad-table")
    code, payload = run("wall", "--p=--")
    assert (code, payload["error"]) == (1, "bad-table")
    for argv in (["gl-order", "--", "1", "--"], ["gl-order", "1", "--", "--"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: argument q: invalid int value: '--'" in err


def test_a_long_command_line_is_read_in_linear_time(capsys):
    # each token is read once: a reader that rescans what it has read
    # takes about 20 s here
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["classify", *["a"] * 1_000_000])
    assert time.perf_counter() - start < 5.0
    assert exc.value.code == 2
    assert "error: unrecognized arguments: a a" in capsys.readouterr().err


def test_classification_round_trips_through_json(run_json):
    for space in SPACES:
        first = run_json("classify", space)
        params = ",".join(str(v) for v in first["params"])
        rebuilt = first["family"] + (f"({params})" if params else "")
        assert run_json("classify", rebuilt) == first


_CLASSIFY_ALL = (
    "import sys\n"
    "from symchar import cli\n"
    "for space in sys.argv[1:]:\n"
    "    cli.main(['classify', space])\n"
)


_FOOTPRINT = """\
import sys
try:
    {}
except SystemExit:
    pass
print(*sorted(m for m in sys.modules if m.startswith("symchar") or m in {}))
"""
# Modules no call loads: dataclasses, typing, and argparse with the gettext
# and locale it pulls in; no module imports __future__.
_NEVER_LOADED = ("dataclasses", "argparse", "gettext", "locale", "__future__", "typing")


def _main(*argv):
    return f"import symchar.cli; symchar.cli.main({list(argv)!r})"


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import symchar", ""),
        ("import symchar.cli", "cli errors"),
        ("import symchar.partitions", "errors partitions"),  # no table kind
        (_main("gl-order", "3", "2"), "cli errors tables transfer"),
        (_main("ds-check", "--mu", "3", "--k", "1", "--q1", "2", "--q2", "3"),
         "cli errors tables transfer"),
        (_main("classify", "SU_pq(2,3)"), "catalog cli errors"),
        (_main("classify", "CHn(3)"), "catalog cli errors"),  # named by its label
        (_main("dual", "SU_pq(2,3)"), "catalog cli errors"),
        (_main("p-numbers", "Foo(2)"), "catalog cli errors"),
        # the equal-rank refusal comes before charclass
        (_main("p-numbers", "SU_pq(2,3)"), "catalog cli errors"),
        (_main("wall", "SU_pq(2,3)"), "catalog cli errors"),
        (_main("p-class", "SU_pq(2,3)"), "catalog cli errors"),  # by rank_one_dual
        (_main("p-class", "CayH"), "catalog charclass cli errors tables"),
        (_main("transfer", "--table", '{"1":3}', "--deg", "2"),
         "cli errors partitions tables transfer"),
        (_main("transfer", "--table", '{"4": 1', "--deg", "2"), "cli errors tables transfer"),
        (_main("mu", "--m", '{"1":3}', "--mu-dual", '{"1":6}'),
         "cli errors partitions tables transfer"),
        (_main("wall", "--p", '{"1":3}'), "charclass cli errors partitions tables"),
        (_main("wall", "CHn(3)"), "catalog charclass cli errors partitions tables"),
        (_main("sw-numbers", "CHn(2)"), "catalog charclass cli errors partitions tables"),
        (_main("gl-order", "3"), "cli errors"),  # a usage error
    ],
    ids=[
        "package", "cli", "partitions", "gl-order", "ds-check", "classify",
        "classify-rank-one", "dual", "p-numbers-refused-spec", "p-numbers-equal-rank",
        "wall-equal-rank", "p-class-not-rank-one", "p-class", "transfer",
        "transfer-not-json", "mu", "wall-tables", "wall-space", "sw-numbers", "usage-error",
    ],
)
def test_a_call_loads_only_the_modules_it_runs(statement, loaded):
    child = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT.format(statement, _NEVER_LOADED)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(README.parent / "src")},
    )
    assert child.returncode == 0, child.stderr
    expected = ["symchar", *(f"symchar.{name}" for name in loaded.split())]
    assert child.stdout.splitlines()[-1].split() == expected  # and none of _NEVER_LOADED


def test_every_export_resolves_to_its_home_module():
    for name in symchar.__all__:
        value = getattr(symchar, name)
        if name != "__version__":
            assert value.__module__.startswith("symchar."), name
            assert getattr(importlib.import_module(value.__module__), name) is value
    namespace: dict = {}
    exec("from symchar import *", namespace)
    assert set(symchar.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        symchar.no_such_name
    with pytest.raises(ImportError):
        exec("from symchar import no_such_name", {})


def test_the_table_record_has_one_home():
    # charclass builds tables and imports the record from tables, where
    # transfer and the table reader find it without loading charclass
    assert symchar.CharNumberTable is charclass.CharNumberTable is tables.CharNumberTable
    assert CharNumberTable.__module__ == "symchar.tables"


def test_all_spaces_classify_deterministically(capsys):
    for space in SPACES:
        assert cli.main(["classify", space]) == 0
    here = capsys.readouterr().out
    for seed in ("1", "2"):
        child = subprocess.run(
            [sys.executable, "-c", _CLASSIFY_ALL, *SPACES],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert (child.returncode, child.stdout) == (0, here)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gl-order", "120", "2"], "too-large"),
        (["classify", "SU_pq(8000,8000)"], "too-large"),
        (["transfer", "--table", '{"4":%s}' % ("9" * 5000), "--deg", "2"], "bad-table"),
        # a parameter derived from a 4300-digit one (2n, p+q, n+1) has 4301
        (["classify", "SOstar_2n(%s)" % ("9" * 4300)], "too-large"),
        (["dual", "SOstar_2n(%s)" % ("9" * 4300)], "too-large"),
        (["classify", "SU_pq(%s,1)" % ("9" * 4300)], "too-large"),
        (["dual", "SU_pq(%s,1)" % ("9" * 4300)], "too-large"),
        (["dual", "RHn(%s)" % ("9" * 4300)], "too-large"),
        # a table whose key "k", of 4300 digits, has a degree 4k of 4301
        (["mu", "--m", '{"%s":1}' % ("9" * 4300), "--mu-dual", '{"%s":2}' % ("9" * 4300)], "too-large"),
        (["transfer", "--table", '{"%s":1}' % ("9" * 4300), "--deg", "0"], "too-large"),
        (["transfer", "--table", '{"%s":1}' % ("9" * 4300), "--deg", "1"], "too-large"),
    ],
)
def test_integers_past_the_digit_limit_are_refused(
    run, default_digit_limit, argv, code
):
    exit_code, payload = run(*argv)
    assert (exit_code, payload["error"]) == (1, code)


_OVERSIZED = [
    ["p-numbers", "QHn(80)"],
    ["sw-numbers", "CHn(40)"],
    ["p-numbers", "Flat(2000)"],
    ["p-numbers", "SLnR(201)"],
    ["gl-order", "3000", "2"],
    ["gl-order", "1" + "0" * 200, "2"],
    ["ds-check", "--mu", "7", "--k", "2000", "--q1", "2", "--q2", "3"],
    ["p-class", "QHn(20000)"],
    ["p-class", "CHn(40000)"],
    ["gl-order", "1", str(2**89 - 1)],
    ["classify", "SU_pq(200000,200000)"],
    ["classify", "SpnR(100000)"],
    ["classify", "SOstar(%d)" % 10**21],
    # 8600-digit products and quotients of 4300-digit entries and degrees
    ["transfer", "--table", '{"4": %s}' % ("9" * 4300), "--deg", "9" * 4300],
    ["transfer", "--table", '{"4": %s}' % ("9" * 4300), "--deg-t", "9" * 4300, "--deg-f", "1"],
    # tables over the partitions of a dimension of 4301 digits (CP^n), and of
    # a quarter of one with about 4400 digits and dim = 0 mod 4 (SU(n)/SO(n))
    ["sw-numbers", "CHn(%s)" % ("9" * 4300)],
    ["wall", "CHn(%s)" % ("9" * 4300)],
    ["p-numbers", "SLnR(%d)" % (10**2200 + 1)],
    ["wall", "SLnR(%d)" % (10**2200 + 1)],
]


@pytest.mark.parametrize("argv", _OVERSIZED)
def test_oversized_requests_are_refused_before_the_work(
    run, default_digit_limit, argv
):
    start = time.perf_counter()
    exit_code, payload = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert (exit_code, payload["error"]) == (1, "too-large")


@pytest.mark.parametrize("argv", _OVERSIZED)
def test_oversized_requests_are_refused_with_the_digit_limit_off(run, argv):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        exit_code, payload = run(*argv)
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)
    assert (exit_code, payload["error"]) == (1, "too-large")


@pytest.mark.parametrize("degrees", [["--deg", "9" * 100_000], ["--deg-t", "9" * 100_000, "--deg-f", "3"]])
def test_transfer_results_past_the_digit_limit_are_refused_with_the_limit_off(degrees):
    # the command line reads no such degree (see
    # test_integer_arguments_past_the_digit_limit_are_usage_errors), but the
    # library takes any int and refuses the result before it is written
    table = CharNumberTable(
        PONTRJAGIN, 20, {format_partition(p): int("9" * 4300) for p in partitions_decreasing(5)[:5]}
    )
    call = pullback_numbers if len(degrees) == 2 else solve_manifold_numbers
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        values = [int(text) for text in degrees[1::2]]
        start = time.perf_counter()
        with pytest.raises(TooLargeError):
            call(table, *values)
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)


# An int argument of more than 4300 digits is a usage error before int()
# converts it, at every int-to-text limit.  Without this rule, with the
# limit off, the transfer below ran for 1.5 s and printed 759 KB, and
# ds-check echoed its mu back.
_LONG = "9" * 100_000
_LONG_INTEGER_ARGUMENTS = {
    "gl-order n": ["gl-order", _LONG, "2"],
    "gl-order q": ["gl-order", "2", _LONG],
    "ds-check --mu": ["ds-check", "--mu", _LONG, "--k", "1", "--q1", "2", "--q2", "3"],
    "ds-check --k": ["ds-check", "--mu", "7", "--k", _LONG, "--q1", "2", "--q2", "3"],
    "ds-check --q2": ["ds-check", "--mu", "7", "--k", "1", "--q1", "2", "--q2", _LONG],
    "transfer --deg": ["transfer", "--table", "@TABLE", "--deg", _LONG],
    "transfer --deg-t --deg-f": ["transfer", "--table", "@TABLE", "--deg-t", _LONG, "--deg-f", _LONG],
    "4301 digits, one a leading 0": ["gl-order", "2", "0" + "9" * 4300],
    "4301 digits, signed": ["transfer", "--table", "@TABLE", "--deg=-" + "9" * 4301],
}


@pytest.mark.parametrize("limit", [4300, 0])
@pytest.mark.parametrize("case", _LONG_INTEGER_ARGUMENTS)
def test_integer_arguments_past_the_digit_limit_are_usage_errors(capsys, tmp_path, limit, case):
    path = tmp_path / "table.json"  # 176 entries of 4300 nines
    entries = ('"%s": %s' % (format_partition(p), "9" * 4300) for p in partitions_decreasing(15))
    path.write_text("{%s}" % ", ".join(entries))
    argv = [f"@{path}" if token == "@TABLE" else token for token in _LONG_INTEGER_ARGUMENTS[case]]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "invalid int value" in err


@pytest.mark.parametrize("limit", [4300, 0])
def test_integer_arguments_up_to_the_digit_limit_are_read(run, limit):
    # digits are counted as int() counts them: leading zeros count, a sign,
    # "_" and surrounding space do not
    longest = int("9" * 4300)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for deg in ("9" * 4300, "_".join("9" * 4300), " %s " % ("9" * 4300), "000" + "9" * 4297):
            exit_code, payload = run("transfer", "--table", '{"4": 1}', "--deg", deg)
            assert (exit_code, payload["entries"]) == (0, {"4": int(deg)})
        exit_code, payload = run("transfer", "--table", '{"4": 1}', "--deg-t=-" + "9" * 4300, "--deg-f", "1")
        assert (exit_code, payload["entries"]) == (0, {"4": -longest})
        assert run("gl-order", "2", "1_0_1")[1] == {"n": 2, "q": 101, "order": 103020000}
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [4300, 0])
def test_mu_is_refused_once_its_lcm_passes_the_digit_limit(run, limit):
    # 200 pairwise almost coprime 4300-digit dual entries: their lcm would
    # have 860 000 digits
    keys = [format_partition(p) for p in partitions_decreasing(16)[:200]]
    m_table = json.dumps(dict.fromkeys(keys, 1))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        dual_table = json.dumps({key: 10**4299 + i for i, key in enumerate(keys)})
        start = time.perf_counter()
        exit_code, payload = run("mu", "--m", m_table, "--mu-dual", dual_table)
        assert time.perf_counter() - start < 1.0
        assert (exit_code, payload["error"]) == (1, "too-large")
        # a bound of exactly 4300 digits is still answered
        longest = int("9" * 4300)
        exit_code, payload = run("mu", "--m", '{"4": 1}', "--mu-dual", '{"4": %d}' % longest)
        assert (exit_code, payload["mu"]) == (0, longest)
    finally:
        sys.set_int_max_str_digits(saved)


# Table input is refused with bad-table, in both limit modes: an integer of
# more than 4300 digits before json converts it, and a document past
# MAX_TABLE_CHARS before the rest of the file is read.
_OVERSIZED_TABLES = {
    "300000-digit entry": lambda: '{"4": %s}' % ("7" * 300_000),
    "4301-digit entry": lambda: '{"4": %s}' % ("7" * 4301),
    "negative 4301-digit entry": lambda: '{"4": -%s}' % ("7" * 4301),
    "document past the cap": lambda: '{"4": 1}'.ljust(cli.MAX_TABLE_CHARS + 1),
}


@pytest.mark.parametrize("limit", [4300, 0])
@pytest.mark.parametrize("case", _OVERSIZED_TABLES)
def test_oversized_table_files_are_refused(run, tmp_path, limit, case):
    path = tmp_path / "table.json"
    path.write_text(_OVERSIZED_TABLES[case]())
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        start = time.perf_counter()
        exit_code, payload = run("transfer", "--table", f"@{path}", "--deg", "3")
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)
    assert (exit_code, payload["error"]) == (1, "bad-table")


@pytest.mark.parametrize("limit", [4300, 0])
def test_tables_up_to_the_size_limits_are_read(run, tmp_path, limit):
    path = tmp_path / "table.json"
    path.write_text('{"4": 1}'.ljust(cli.MAX_TABLE_CHARS))
    longest = int("7" * 4300)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert run("transfer", "--table", f"@{path}", "--deg", "1")[1]["entries"] == {"4": 1}
        for value in (longest, -longest):
            exit_code, payload = run("transfer", "--table", '{"4": %d}' % value, "--deg", "1")
            assert (exit_code, payload["entries"]) == (0, {"4": value})
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [4300, 0])
def test_a_result_past_the_digit_limit_is_refused_when_printed(capsys, monkeypatch, limit):
    # a result that no gate refused meets the encoder, which answers too-large
    monkeypatch.setattr(transfer, "gl_order", lambda n, q: 10**4300)
    expected = {"error": "too-large", "detail": "result has an integer of more than 4300 digits"}
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for pretty, options in (([], {"separators": (",", ":")}), (["--pretty"], {"indent": 2})):
            assert cli.main(["gl-order", "3", "2", *pretty]) == 1
            assert sys.get_int_max_str_digits() == limit
            out, err = capsys.readouterr()
            assert (out, err) == (json.dumps(expected, sort_keys=True, **options) + "\n", "")
    finally:
        sys.set_int_max_str_digits(saved)


def test_the_largest_tables_fit_under_the_cap(capsys):
    # the two tables over the partitions of MAX_WEIGHT with the most digits
    for argv in (["p-numbers", "QHn(45)"], ["p-numbers", "CHn(90)", "--pretty"]):
        assert cli.main(argv) == 0
        assert 8_000_000 < len(capsys.readouterr().out) <= cli.MAX_TABLE_CHARS


@pytest.mark.parametrize(
    "argv, code, key, value",
    [
        (["classify", "SU_pq(1,300000)"], 0, "euler_char_dual", 300001),
        (["classify", "Flat(%d)" % 10**20], 0, "toral_rank", 10**20),
        (["classify", "RHn(%d)" % 10**26], 0, "euler_char_dual", 2),
        (["dual", "Flat(%d)" % 10**20], 0, "gu", "U(1)^%d" % 10**20),
        (["p-numbers", "SpnR(20000)"], 1, "error", "unsupported-class"),
        (["classify", "RHn(%s)" % ("9" * 4300)], 0, "dual", "S^%s" % ("9" * 4300)),
    ],
)
def test_large_spaces_answer_at_once(run, argv, code, key, value):
    start = time.perf_counter()
    exit_code, payload = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert (exit_code, payload[key]) == (code, value)


# Sp(n)/U(n) has chi = 2^n, past 4300 digits from n = 14285 on; SU(2m)/S(UmxUm)
# has C(2m, m), past 4300 digits from m = 7146 on and refused before it is
# computed from m = 14285 on, where C(2m, m) >= 2^m passes the limit.
_LIMIT_SWEEP = {
    "Sp_nR": [(n,) for n in range(14270, 14301)],
    "SU_pq": [(m, m) for m in (*range(7136, 7157), *range(14283, 14288))],
}


def test_euler_characteristics_at_the_digit_limit(run, default_digit_limit):
    for family, cases in _LIMIT_SWEEP.items():
        outcomes = set()
        for params in cases:
            exit_code, payload = run("classify", spec_string(SpaceSpec(family, params)))
            expected = euler_char_by_weyl_quotient(family, params)
            if exit_code:
                assert payload["error"] == "too-large", params
                assert expected >= 10**4300, params
            else:
                assert payload["euler_char_dual"] == expected, params
            outcomes.add(exit_code)
        assert outcomes == {0, 1}, family


def _limit_corpus(table: str) -> list:
    """Calls whose output the int-to-text limit must not change: the README
    examples, the oversized requests, the over-long integer arguments (usage
    errors), a space with a 100 000-digit parameter and one whose Euler
    characteristic has 4815 digits, and help."""
    spaces = ["TypeIV(%s)" % _LONG, "SU_pq(8000,8000)"]
    return [
        *_readme_commands(),
        *_OVERSIZED,
        *([table if token == "@TABLE" else token for token in argv]
          for argv in _LONG_INTEGER_ARGUMENTS.values()),
        *([command, space] for command in ("classify", "dual", "p-numbers", "wall")
          for space in spaces),
        ["--help"],
        ["transfer", "-h"],
    ]


def test_the_int_to_text_limit_is_not_an_input(capsys, tmp_path):
    # main runs at a limit of 4300 digits and gives the caller's limit back,
    # after a usage error or help too
    path = tmp_path / "table.json"
    path.write_text('{"4": 39, "2,2": 36}')
    corpus = _limit_corpus(f"@{path}")
    outputs = {}
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 0, 640, 20_000):
            sys.set_int_max_str_digits(limit)
            outputs[limit] = []
            for argv in corpus:
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                assert sys.get_int_max_str_digits() == limit, argv[:1]
                outputs[limit].append((code, *capsys.readouterr()))
    finally:
        sys.set_int_max_str_digits(saved)
    for limit in (0, 640, 20_000):
        for argv, expected, got in zip(corpus, outputs[4300], outputs[limit]):
            assert got == expected, (limit, [token[:40] for token in argv])


def _encoded(call, *args) -> str:
    try:
        payload = call(*args)
    except SymcharError as exc:
        payload = {"error": exc.code, "detail": str(exc)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _wall_payload(spec) -> dict:
    p_table = pontrjagin_table(spec)
    try:
        sw_table = stiefel_whitney_table(spec)
    except UnsupportedClassError:
        sw_table = None
    verdict = bounds_orientably(p_table, sw_table)
    return {"space": spec_string(spec), "dim": p_table.dimension, "verdict": verdict}


def test_cli_prints_the_library_tables(capsys):
    library = {
        "classify": lambda spec: classify(spec).to_json_dict(),
        "dual": lambda spec: dual_of(spec).to_json_dict(),
        "p-numbers": lambda spec: pontrjagin_table(spec).to_json_dict(),
        "sw-numbers": lambda spec: stiefel_whitney_table(spec).to_json_dict(),
        "wall": _wall_payload,
    }
    for spec in _grid():
        for command, call in library.items():
            cli.main([command, spec_string(spec)])
            assert capsys.readouterr().out == _encoded(call, spec), (command, spec)


@pytest.mark.parametrize("family", ["RHn", "ConstPos", "CHn", "QHn", "CayH"])
def test_a_rank_one_label_is_the_render_of_its_dual_space(family):
    # a rank-one row names its dual without building the DualSpace, so the
    # label and the kind restate DualSpace.render(): the two must agree at
    # every n
    texts = ["CayH"] if family == "CayH" else [f"{family}({n})" for n in range(1, 61)]
    for text in texts:
        spec = parse_space(text)
        assert classify(spec).dual == dual_of(spec).dual == rank_one_dual(spec).render(), text


def _readme_commands() -> list:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("symchar ")]


def test_readme_command_examples_run(run):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert run(*argv)[0] == 0, argv


def test_every_record_builds_its_document_in_sorted_key_order():
    # json.dumps(sort_keys=True) then passes each document through in one
    # pass.  Only the top-level keys are checked: entries keep the walk's order.
    cayley = pontrjagin_table(parse_space("CayH"))
    records = [classify(parse_space(space)) for space in SPACES] + [
        dual_of(parse_space(space)) for space in SPACES
    ] + [
        cayley,
        pontrjagin_table(parse_space("RHn(3)")),
        stiefel_whitney_table(parse_space("CHn(3)")),
        transfer.mu(cayley, cayley),
        transfer.deligne_sullivan_check(7, 1, 2, 3),
    ]
    assert {type(record) for record in records} == {
        value for module in (catalog, charclass, tables, transfer)
        for value in vars(module).values()
        if isinstance(value, type) and hasattr(value, "to_json_dict")
    }
    payloads = [record.to_json_dict() for record in records]
    assert any("reason" in payload for payload in payloads)
    for record, payload in zip(records, payloads):
        assert list(payload) == sorted(payload), list(payload)
        if type(record) is not charclass.CharNumberTable:  # a document of every field
            assert sorted(payload) == sorted(record._fields)
