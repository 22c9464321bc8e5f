"""Command-line interface: it reads text, calls the library and prints one
JSON document.  A table argument is tables.CharNumberTable.from_json_dict
of its JSON, and wall of a space is catalog.wall_verdict.

Success exits 0.  Domain errors exit 1 with {"error": code, "detail": text}.
A usage error (an unknown subcommand or option, a missing or malformed
argument) exits 2 with the usage and the error on stderr and nothing on
stdout; -h or --help prints help and exits 0.  A closed or full stdout
exits 1 with no traceback, and a full one with a line on stderr.  A stdout
closed before the process started exits 1 with nothing on stderr; a stderr
closed then is not written to, and a usage error still exits 2.

main is the in-process call: it returns the exit code and leaves the
garbage collector alone.  run is the process entry point, of python -m
symchar and of the installed symchar script: it exits with main's code and
freezes the collector on the way out, so that the interpreter's teardown
does not collect the objects of the call one by one.

main runs each call with Python's int-to-text limit at errors.MAX_DIGITS,
the ceiling of the size gates, and then restores the caller's: every
int-text conversion of a call refuses where the gates do, in any environment.

Each handler imports the library modules it calls, so a call loads only
what its subcommand runs: a usage error loads none of them.  A handler checks
its own arguments before it reads any table, so a refused flag costs no read,
and reads each of its table files, and closes it, before it parses any, so a
missing or unreadable second file costs no parse of the first.
"""

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

from symchar.errors import MAX_DIGITS, BadTableError, SymcharError, past_digit_limit

# p-numbers 'CHn(90)' --pretty, the largest table symchar writes (9.1 M
# characters, 89 134 keys), reads back in 0.11-0.12 s, 0.08 s of it json.loads.
# Past MAX_WEIGHT every key is parsed, so the cap bounds a read: 596 766 to
# 600 293 SW keys of degree 60-64 took 4.5-7.8 s in from_json_dict after
# 0.3-0.7 s in json.loads (2-vCPU VM, Python 3.11.7; python -c pass 43-60 ms).
MAX_TABLE_CHARS = 16 * 2**20


def _read_table(argument: str) -> str:
    """A table argument's text: its inline JSON, or at most
    MAX_TABLE_CHARS + 1 characters of its @file, closed on return."""
    if argument.startswith("@"):
        try:
            with open(argument[1:], "r", encoding="utf-8") as fh:
                argument = fh.read(MAX_TABLE_CHARS + 1)  # never the whole of a larger file
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
            raise BadTableError(f"cannot read table file: {exc}") from None
    if len(argument) > MAX_TABLE_CHARS:
        raise BadTableError(f"table has more than {MAX_TABLE_CHARS} characters")
    return argument


def _load_tables(*arguments) -> list:
    """Each table argument, inline JSON or @file, as a CharNumberTable, and
    None as None.  Every argument is read, and every file closed, before any
    table is parsed, so a file that cannot be read costs no parse."""
    from symchar.tables import CharNumberTable

    tables = [None if argument is None else _read_table(argument) for argument in arguments]
    # each text in turn gives way to its JSON and then its table, so no text
    # is held while a table is built
    for i in range(len(tables)):
        if tables[i] is not None:
            try:
                tables[i] = json.loads(tables[i])
            except json.JSONDecodeError as exc:
                raise BadTableError(f"table is not valid JSON: {exc}") from None
            except ValueError:  # under main's limit, int() of more than MAX_DIGITS digits
                raise BadTableError(
                    f"table has an integer of more than {MAX_DIGITS} digits"
                ) from None
            except RecursionError:
                raise BadTableError("table is nested too deeply") from None
            tables[i] = CharNumberTable.from_json_dict(tables[i])
    return tables


def _space_record(function_name: str):
    """The handler that prints catalog.<function_name>(space).to_json_dict()."""
    def handler(args) -> dict:
        from symchar import catalog
        return getattr(catalog, function_name)(catalog.parse_space(args.space)).to_json_dict()
    return handler


def _cmd_p_class(args) -> dict:
    from symchar import catalog

    spec = catalog.parse_space(args.space)
    space = catalog.rank_one_dual(spec)
    from symchar import charclass  # only once rank_one_dual has accepted the spec

    total = charclass.total_pontrjagin(space)
    payload = {
        "space": catalog.spec_string(spec),
        "dual": space.render(),
        "generator_degree": total.generator_degree,
        "truncation_top": total.truncation_top,
        "coefficients": list(total.coefficients),
    }
    if space.kind == charclass.CAYLEY_PLANE:
        payload["notes"] = charclass.CAYLEY_PLANE_NOTE
    return payload


def _cmd_transfer(args) -> dict:
    from symchar import transfer

    if args.deg is not None:
        if args.deg_t is not None or args.deg_f is not None:
            raise SymcharError("pass either --deg or --deg-t/--deg-f, not both")
        return transfer.pullback_numbers(*_load_tables(args.table), args.deg).to_json_dict()
    if args.deg_t is None or args.deg_f is None:
        raise SymcharError(
            "pass --deg for a pullback or both --deg-t and --deg-f to solve"
        )
    return transfer.solve_manifold_numbers(
        *_load_tables(args.table), args.deg_t, args.deg_f
    ).to_json_dict()


def _cmd_mu(args) -> dict:
    from symchar import transfer

    return transfer.mu(*_load_tables(args.m, args.mu_dual)).to_json_dict()


def _cmd_wall(args) -> dict:
    if args.space is not None:
        if args.p is not None or args.sw is not None:
            raise SymcharError("pass either a space or --p/--sw tables, not both")
        from symchar import catalog

        spec = catalog.parse_space(args.space)
        dim, verdict = catalog.wall_verdict(spec)
        return {"space": catalog.spec_string(spec), "dim": dim, "verdict": verdict}
    if args.p is None:
        raise SymcharError("pass a space or at least a --p table")
    from symchar import charclass

    p_table, sw_table = _load_tables(args.p, args.sw)
    verdict = charclass.bounds_orientably(p_table, sw_table)
    return {"dim": p_table.dimension, "verdict": verdict}


def _cmd_gl_order(args) -> dict:
    from symchar import transfer

    return {"n": args.n, "q": args.q, "order": transfer.gl_order(args.n, args.q)}


def _cmd_ds_check(args) -> dict:
    from symchar import transfer

    report = transfer.deligne_sullivan_check(args.mu, args.k, args.q1, args.q2)
    return {**report.to_json_dict(), "mu": args.mu, "k": args.k, "q1": args.q1, "q2": args.q2}


# The command table: subcommand -> (handler, help, arguments).  An argument
# is (name, type, required, help): a name starting with "--" is an option
# taking one value, any other name a positional.  Every subcommand also takes
# --pretty and -h/--help.
_SPACE = ("space", str, True, "")
COMMANDS = {
    "classify": (
        _space_record("classify"),
        "rank classification of a locally symmetric space",
        [("space", str, True, 'e.g. "SU_pq(2,3)", "SLnR(4)", "CayH"')],
    ),
    "dual": (_space_record("dual_of"), "compact dual pair of a space", [_SPACE]),
    "p-class": (_cmd_p_class, "total Pontrjagin class of a rank-one dual", [_SPACE]),
    "p-numbers": (
        _space_record("pontrjagin_table"), "Pontrjagin numbers of the compact dual", [_SPACE]
    ),
    "sw-numbers": (
        _space_record("stiefel_whitney_table"), "Stiefel-Whitney numbers of the compact dual",
        [_SPACE],
    ),
    "transfer": (
        _cmd_transfer,
        "pull a number table back along a cover, or solve for the base",
        [
            ("--table", str, True, "JSON table or @file"),
            ("--deg", int, False, "covering degree for a pullback"),
            ("--deg-t", int, False, "tangential-map degree"),
            ("--deg-f", int, False, "covering degree"),
        ],
    ),
    "mu": (
        _cmd_mu,
        "least covering-degree bound from two Pontrjagin tables",
        [
            ("--m", str, True, "table of the manifold"),
            ("--mu-dual", str, True, "table of the dual"),
        ],
    ),
    "wall": (
        _cmd_wall,
        "does the space's compact dual bound orientably?",
        [
            ("space", str, False, ""),
            ("--p", str, False, "Pontrjagin table (JSON or @file)"),
            ("--sw", str, False, "Stiefel-Whitney table (JSON or @file)"),
        ],
    ),
    "gl-order": (
        _cmd_gl_order, "order of GL_n over F_q", [("n", int, True, ""), ("q", int, True, "")]
    ),
    "ds-check": (
        _cmd_ds_check,
        "divisibility test against two general linear group orders",
        [(name, int, True, "") for name in ("--mu", "--k", "--q1", "--q2")],
    ),
}
_HELP = ("-h", "--help")
# A token argparse reads as a number, not an option, when no option looks
# like one: a positional or an option's value.
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: symchar [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: symchar {command} [-h] [--pretty]"]
    for name, _, required, _ in COMMANDS[command][2]:
        word = f"{name} {_dest(name).upper()}" if name[:2] == "--" else name
        words.append(word if required else f"[{word}]")
    return " ".join(words)


def _usage_error(command: str | None, message: str):
    prog = "symchar" if command is None else f"symchar {command}"
    try:
        if sys.stderr is not None:  # None: stderr was closed when the process started
            sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    except OSError:  # a full stderr: the exit code still tells a usage error
        pass
    raise SystemExit(2)


def _print(text: str) -> int:
    """Print text and flush stdout in one try: 0, or 1 when stdout is closed
    or full (a small text meets a full device only at the flush)."""
    if sys.stdout is None:  # stdout was closed when the process started
        return 1
    try:
        print(text)
        sys.stdout.flush()
        return 0
    except OSError as exc:
        # point stdout at os.devnull, as the docs' note on SIGPIPE does, so
        # that the interpreter's own flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that left wants no text
            print(f"symchar: cannot write the result: {exc.strerror}", file=sys.stderr)
        return 1


def _help(command: str | None, name: str, joined: str | None):
    """Print the help text and exit 0, or 1 if it cannot be written.  A value
    joined to the help option is a usage error, except that -hh (-h=h, ...)
    reads as -h repeated."""
    if joined is not None and (name != "-h" or not joined or joined.strip("h")):
        _usage_error(command, f"argument -h/--help: ignored explicit argument {joined!r}")
    if command is None:
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
        head = (
            "Exact characteristic numbers and rank classification for "
            "compact symmetric-space duals"
        )
    else:
        rows = [(name, text) for name, _, _, text in COMMANDS[command][2]]
        head = COMMANDS[command][1]
        rows.append(("--pretty", "indent the JSON output"))
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(name) for name, _ in rows) + 2
    lines = [_usage(command), "", head, ""]
    lines += [f"  {name:<{width}}{text}".rstrip() for name, text in rows]
    raise SystemExit(_print("\n".join(lines)))


def _read_option(command: str | None, token: str, names) -> tuple | None:
    """argparse's reading of one token: None for a positional, else (option
    name, the value joined to it or None), the name None for an unknown
    option.  A long option may be shortened to any prefix that no other
    option of the command shares."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, joined, value = token.partition("=")
    if joined and name in names:
        return name, value
    if token[1] == "-":
        found = [(full, value if joined else None) for full in names if full.startswith(name)]
    else:
        found = [(full, token[2:]) for full in names if full == token[:2]]
    if len(found) > 1:
        matches = ", ".join(full for full, _ in found)
        _usage_error(command, f"ambiguous option: {name} could match {matches}")
    if found:
        return found[0]
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _convert(command: str, argument: tuple, text: str):
    """An argument's value.  Under main's limit int() refuses a text of
    more than MAX_DIGITS digits, leading zeros counted, before converting it."""
    name, kind, _, _ = argument
    try:
        return kind(text)
    except ValueError:  # int(): not a number, or past MAX_DIGITS digits
        _usage_error(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _parse_command(command: str, tokens: list) -> tuple:
    """The namespace of one subcommand's tokens and the tokens left over,
    read as argparse reads them: the first "--" makes every later token a
    positional, and each run of positionals between options fills as many
    of the remaining positionals as it can."""
    handler, _, arguments = COMMANDS[command]
    options = {argument[0]: argument for argument in arguments if argument[0][:2] == "--"}
    names = [*_HELP, "--pretty", *options]
    positionals = [argument for argument in arguments if argument[0][:2] != "--"]
    args = SimpleNamespace(command=command, handler=handler, pretty=False)
    for name, *_ in arguments:
        setattr(args, _dest(name), None)

    # each token's reading: an option's (name, joined), None for a positional;
    # every token after tokens[end], the first "--", is a positional
    end = tokens.index("--") if "--" in tokens else len(tokens)
    readings = [_read_option(command, token, names) for token in tokens[:end]]
    readings += [None] * (len(tokens) - end)

    def fill_positionals(i: int) -> int:
        """Each remaining positional in turn takes the next positional token
        and the "--" around it; an optional one may take none.  The first
        that finds no token before the next option stops the run."""
        while positionals:
            k = i + (i == end)
            if k < len(tokens) and readings[k] is None:
                setattr(args, positionals[0][0], _convert(command, positionals[0], tokens[k]))
                k += 1 + (k + 1 == end)
            elif positionals[0][2]:
                break
            del positionals[0]
            i = k
        return i

    extras, i = [], 0
    for at, reading in enumerate(readings):
        if reading is None:
            continue
        name, joined = reading
        if i < at:
            i = fill_positionals(i)
            extras += tokens[i:at]
        i = at + 1
        if name is None:
            extras.append(tokens[at])
        elif name in _HELP:
            _help(command, name, joined)
        elif name == "--pretty":
            if joined is not None:
                _usage_error(command, f"argument --pretty: ignored explicit argument {joined!r}")
            args.pretty = True
        else:
            if joined is None:
                if i == end or readings[i] is not None:
                    _usage_error(command, f"argument {name}: expected one argument")
                joined, i = tokens[i], i + 1
            setattr(args, _dest(name), _convert(command, options[name], joined))
    i = fill_positionals(i)
    missing = [
        name for name, _, required, _ in arguments
        if required and getattr(args, _dest(name)) is None
    ]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    return args, extras + tokens[i:]


def parse_args(argv: list) -> SimpleNamespace:
    """Read a command line from COMMANDS: the namespace of its subcommand's
    handler, its values and "pretty".  A usage error writes the usage and
    the error to stderr and raises SystemExit(2); -h, --help (or any prefix
    of it) prints help to stdout and raises SystemExit(0).  What is accepted,
    and how it is read, follows argparse's rules."""
    unknown = []  # options before the subcommand, refused once it is read
    for i, token in enumerate(argv):
        if token == "--" or (option := _read_option(None, token, _HELP)) is None:
            if token not in COMMANDS:
                _usage_error(None, f"argument command: invalid choice: {token!r}")
            args, extras = _parse_command(token, argv[i + 1:])
            if unknown or extras:
                _usage_error(None, f"unrecognized arguments: {' '.join(unknown + extras)}")
            return args
        if option[0] is None:
            unknown.append(token)
        else:
            _help(None, *option)
    _usage_error(None, "the following arguments are required: command")


def _dumps(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _error(exc: SymcharError) -> dict:
    return {"error": exc.code, "detail": str(exc)}


def main(argv=None) -> int:
    # the limit belongs to the interpreter, not the thread: calls from
    # several threads at once can restore each other's value
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        try:
            payload, status = args.handler(args), 0
        except SymcharError as exc:
            payload, status = _error(exc), 1
        try:
            text = _dumps(payload, args.pretty)
        except ValueError:  # an integer of more than MAX_DIGITS digits
            text, status = _dumps(_error(past_digit_limit()), args.pretty), 1
        return _print(text) or status
    finally:
        sys.set_int_max_str_digits(saved)


def run():
    """The process entry point: exit with main's code.  The garbage
    collector is frozen on the way out, after main and before the
    interpreter's teardown, whose collections would otherwise find and free
    one by one each class, function and module dict the call built: memory
    the system takes back at exit anyway.  main itself never freezes, since
    a caller that lives on needs its cycles collected."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()
