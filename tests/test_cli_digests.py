"""Byte-identity of the command line over a fixed corpus.

Each case runs ``cli.main`` in this process, with and without --pretty.
The first 16 hex digits of the SHA-256 of its exit code, stdout and stderr
must equal the digest recorded for it in tests/cli_digests.json, so any
change to an output byte, an error code or an exit code shows here.  The
corpus holds no case whose text Python or the OS words (JSON decoder
messages, file errors): those change between Python versions.

Running this module as a script prints the count and the names of the
cases whose digest changed, appeared or disappeared, and then rewrites
tests/cli_digests.json from the code on the path:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from symchar import cli

DIGESTS = Path(__file__).with_name("cli_digests.json")

_FAMILIES_1 = (
    "SOstar_2n", "Sp_nR", "SL_nR", "SUstar_2n", "TypeIV",
    "RHn", "CHn", "QHn", "ConstPos", "Flat",
)
_FAMILIES_2 = ("SU_pq", "SO0_pq", "Sp_pq")
# Each side of every size gate: the largest p-numbers tables (45, 90), the
# largest computed total classes (HP^7145, CP^14290), and the last integers
# the command line reads (4300 digits) and the first it refuses.
_VALUES = (
    *map(str, (0, 1, 2, 3, 4, 45, 46, 90, 91, 7145, 7146, 14290, 14291)),
    str(10**2200 + 1), "9" * 4300, "1" + "0" * 4300,
)
_SPACE_COMMANDS = ("classify", "dual", "p-class", "p-numbers", "sw-numbers", "wall")
_Q = (2, 3, 4, 16, 27, 101, 6, 2**14283)
_DS_FIELDS = ((1, 2, 3), (6, 4, 27), (7, 16, 101), (10**4299, 5, 9))


def _specs() -> list:
    specs = ["CayH", "CayH(1)"]
    for value in _VALUES:
        specs += [f"{family}({value})" for family in _FAMILIES_1]
        specs += [f"{family}({p},{value})" for family in _FAMILIES_2 for p in (1, value)]
    specs += [
        f"{family}({n},{n})" for family in _FAMILIES_2 for n in (7200, 8000, 14400)
    ]
    return list(dict.fromkeys(specs))  # (1, value) is (value, value) at 1


def _tables() -> list:
    """Table arguments, inline: around the 4300-digit limit of an integer,
    and malformed ones."""
    nines, ten = "9" * 4300, "1" + "0" * 4300
    near = str(10**4299 + 7)  # coprime to 10**4299 + 1, so their lcm passes
    argvs = []
    for value in (nines, "-" + nines, ten, "-" + ten):
        p_table = f'{{"2":{value},"1,1":3}}'
        argvs += [
            ["transfer", "--table", p_table, "--deg", "1"],
            ["transfer", "--table", p_table, "--deg", "2"],
            ["transfer", "--table", p_table, "--deg-t", "1", "--deg-f", "1"],
            ["transfer", "--table", p_table, "--deg-t", "10", "--deg-f", "1"],
            ["transfer", "--table", p_table, "--deg-t", "3", "--deg-f", "9"],
            ["transfer", "--table", f'{{"w1^2":{value},"w2":1}}', "--deg", "3"],
            ["mu", "--m", '{"2":1,"1,1":1}', "--mu-dual", p_table],
            ["mu", "--m", p_table, "--mu-dual", '{"2":2,"1,1":6}'],
            ["wall", "--p", p_table],
            ["wall", "--p", '{"2":0,"1,1":0}', "--sw", f'{{"w1^2":{value},"w2":0}}'],
            [
                "transfer", "--deg", "1", "--table",
                f'{{"dim":{value},"kind":"pontrjagin","entries":{{"2":1}}}}',
            ],
        ]
    argvs += [
        ["mu", "--m", '{"2":1,"1,1":1}', "--mu-dual", f'{{"2":{str(10**4299 + 1)},"1,1":{near}}}'],
        ["transfer", "--table", f'{{"2":{str(10**4299)}}}', "--deg", "9"],
        ["transfer", "--table", f'{{"2":{str(10**4299)}}}', "--deg", "10"],
    ]
    argvs += [
        ["transfer", "--table", table, "--deg", "2"]
        for table in (
            '{"dim":4,"kind":"x","entries":{}}', '{"dim":4,"kind":"sw","entries":[]}',
            '{"4":true}', '{"4":1.5}',
        )
    ]
    argvs += [  # the details that name the covering or the tangential degree
        ["transfer", "--table", '{"4":39,"2,2":36}', "--deg-t", "1", "--deg-f", "0"],
        ["mu", "--m", '{"4":0,"2,2":36}', "--mu-dual", '{"4":39,"2,2":36}'],
        ["mu", "--m", '{"4":13,"2,2":12}', "--mu-dual", '{"4":0,"2,2":36}'],
    ]
    argvs += [  # a key whose total degree, not the dimension, passes 4300 digits
        ["wall", "--p", f'{{"4":1,"{nines}":2}}'],
        [
            "transfer", "--table",
            f'{{"dim":4,"kind":"sw","entries":{{"w2^{nines}":1}}}}', "--deg", "1",
        ],
    ]
    argvs += [  # a part or an index of more than 4300 digits
        ["transfer", "--table", f'{{"{"1" * 4301}":1}}', "--deg", "1"],
        ["transfer", "--table", f'{{"w{"1" * 4301}":1}}', "--deg", "1"],
    ]
    argvs += [  # a key of more than 100 characters, quoted by its first 100
        ["transfer", "--table", f'{{"{"x" * 120}":1}}', "--deg", "1"],
        ["wall", "--p", f'{{"4":1,"{"1," * 60}1":2}}'],
    ]
    return argvs


def _usage() -> list:
    """Usage errors, help, and refused arguments."""
    long = "1" + "0" * 4300
    return [
        [], ["--help"], ["-h"], ["bogus"], ["classify"],
        ["classify", "--help"], ["transfer", "-h"], ["classify", "CayH", "extra"],
        ["gl-order", "x", "2"], ["gl-order", "1"], ["gl-order", "1", long],
        ["gl-order", "9" * 4300, "2"], ["ds-check", "--mu", "1"],
        ["ds-check", "--mu", long, "--k", "1", "--q1", "2", "--q2", "3"],
        ["transfer", "--table", "{}", "--deg", "x"], ["mu", "--m", "{}"],
        ["wall", "CayH", "--p", '{"2":1}'], ["--", "classify", "CayH"],
        ["classify", "--help=x"], ["classify", "-hh"], ["wall", "--sw", '{"w4":1}'],
        ["transfer", "--table", '{"4":1}', "--deg", "2", "--deg-t", "1", "--deg-f", "1"],
        ["ds-check", "--mu", "1", "--k", "1", "--q1", "2", "--q2", "6"],
        ["ds-check", "--mu", "1", "--k", "1", "--q1", "6", "--q2", str(10**25 + 13)],
        ["ds-check", "--mu", "1", "--k", "1", "--q1", str(10**25 + 13), "--q2", "6"],
        ["transfer", "--table", '{"4":1', "--deg", "2", "--deg-t", "1"],
    ]


def corpus() -> list:
    """(argv, name) of every case, each with and without --pretty."""
    argvs = [[command, spec] for spec in _specs() for command in _SPACE_COMMANDS]
    zeros = "0" * 4300
    argvs += [  # refused by the one digit rule: leading zeros, arity, minimum
        ["classify", spec] for spec in (f"CHn({zeros}1)", f"SU_pq(1{zeros})", f"CHn(-1{zeros})")
    ]
    argvs += [["gl-order", str(n), str(q)] for q in _Q for n in range(-1, 72)]
    argvs += [
        ["ds-check", "--mu", str(mu), "--k", str(k), "--q1", str(q1), "--q2", str(q2)]
        for mu, q1, q2 in _DS_FIELDS
        for k in range(36)
    ]
    argvs += _tables() + _usage()
    return [(argv + pretty, _name(argv + pretty)) for argv in argvs for pretty in ([], ["--pretty"])]


def _name(argv: list) -> str:
    """The argv as one line, each run of more than 12 digits shortened to
    its length and its ends, as <4301 digits 100...000>."""
    def short(match):
        digits = match.group()
        return f"<{len(digits)} digits {digits[:3]}...{digits[-3:]}>"

    return " ".join(re.sub(r"\d{13,}", short, token) for token in argv)


def digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error or --help
            code = exc.code
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digests() -> dict:
    cases = corpus()
    digests = {name: digest(argv) for argv, name in cases}
    assert len(digests) == len(cases)  # no two cases share a name
    return digests


def _differences(recorded: dict, digests: dict) -> list:
    """(status, name) of every case whose digest changed, appeared or
    disappeared, in corpus order and then recorded order."""
    found = [
        ("changed" if name in recorded else "appeared", name)
        for name, value in digests.items()
        if recorded.get(name) != value
    ]
    return found + [("disappeared", name) for name in recorded if name not in digests]


def test_every_case_prints_its_recorded_bytes():
    differences = _differences(json.loads(DIGESTS.read_text()), _digests())
    assert not differences, f"{len(differences)} cases differ: {differences}"


if __name__ == "__main__":
    digests = _digests()
    differences = _differences(json.loads(DIGESTS.read_text()), digests)
    print(f"{len(differences)} cases differ")
    for status, name in differences:
        print(f"{status}: {name}")
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
