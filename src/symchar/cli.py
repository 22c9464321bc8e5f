"""Command-line interface.  Every subcommand prints one JSON document.

Success exits 0.  Domain errors exit 1 with {"error": code, "detail": text}.
Usage errors are argparse's and exit 2.

Each handler imports the library modules it calls, so a call loads only
what its subcommand runs: a usage error loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from symchar.errors import (
    BadTableError,
    SymcharError,
    UnsupportedClassError,
    past_digit_limit,
)


def _read_table_text(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, not UTF-8
            raise BadTableError(f"cannot read table file: {exc}") from None
    return text


def _int_entry(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadTableError(f"entry {key!r} must be an integer")
    return value


def _load_table(text: str):
    """Parse a table argument into a CharNumberTable: inline JSON or @file,
    bare entries or the full {"dim", "kind", "entries"} document."""
    from symchar.charclass import PONTRJAGIN, SW, CharNumberTable
    from symchar.partitions import parse_table_key

    text = _read_table_text(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadTableError(f"table is not valid JSON: {exc}") from None
    except ValueError:  # an integer longer than Python reads from text
        raise BadTableError(
            f"table has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise BadTableError("table is nested too deeply") from None
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
        kind = SW if next(iter(raw)).lstrip(" (").startswith("w") else PONTRJAGIN
        dim = None
    entries: dict = {}
    for key, value in raw.items():
        canonical, degree = parse_table_key(kind, key)
        entries_value = _int_entry(key, value)
        if kind == SW:
            entries_value &= 1
        if canonical in entries:
            raise BadTableError(f"duplicate table entry {canonical!r}")
        if dim is None:
            dim = degree
        elif degree != dim:
            raise BadTableError(
                f"entry {key!r} has total degree {degree}, expected {dim}"
            )
        entries[canonical] = entries_value
    return CharNumberTable(kind, dim, entries, reason)


def _cmd_classify(args) -> dict:
    from symchar import catalog

    spec = catalog.parse_space(args.space)
    return catalog.classify(spec).to_json_dict()


def _cmd_dual(args) -> dict:
    from symchar import catalog

    spec = catalog.parse_space(args.space)
    pair = catalog.dual_of(spec)
    return {
        "family": spec.family,
        "params": list(spec.params),
        "dual": pair.name,
        "gu": None if pair.gu is None else catalog.group_text(pair.gu),
        "k": None if pair.k is None else catalog.group_text(pair.k),
        "rank_gu": pair.rank_gu,
        "rank_k": pair.rank_k,
        "dim": pair.dim,
    }


def _cmd_p_class(args) -> dict:
    from symchar import catalog, charclass

    spec = catalog.parse_space(args.space)
    space = catalog.rank_one_dual(spec)
    total = charclass.total_pontrjagin(space)
    payload = {
        "space": catalog.spec_string(spec),
        "dual": space.render(),
        "generator_degree": total.generator_degree,
        "truncation_top": total.truncation_top,
        "coefficients": list(total.coefficients),
    }
    if space.kind == charclass.CAYLEY_PLANE:
        payload["notes"] = (
            "degree-8 coefficient sign fixed positive; the class is then "
            "pinned by its squared middle number 36 and top number 39"
        )
    return payload


def _cmd_p_numbers(args) -> dict:
    from symchar import catalog

    spec = catalog.parse_space(args.space)
    return catalog.pontrjagin_table(spec).to_json_dict()


def _cmd_sw_numbers(args) -> dict:
    from symchar import catalog

    spec = catalog.parse_space(args.space)
    return catalog.stiefel_whitney_table(spec).to_json_dict()


def _cmd_transfer(args) -> dict:
    from symchar import transfer

    table = _load_table(args.table)
    if args.deg is not None:
        if args.deg_t is not None or args.deg_f is not None:
            raise SymcharError("pass either --deg or --deg-t/--deg-f, not both")
        if args.deg < 1:
            raise SymcharError("covering degree must be a positive integer")
        return transfer.pullback_numbers(table, args.deg).to_json_dict()
    if args.deg_t is None or args.deg_f is None:
        raise SymcharError(
            "pass --deg for a pullback or both --deg-t and --deg-f to solve"
        )
    return transfer.solve_manifold_numbers(
        table, args.deg_t, args.deg_f
    ).to_json_dict()


def _cmd_mu(args) -> dict:
    from symchar import transfer

    table_m = _load_table(args.m)
    table_mu = _load_table(args.mu_dual)
    return transfer.mu(table_m, table_mu).to_json_dict()


def _cmd_wall(args) -> dict:
    from symchar import charclass

    if args.space is not None:
        if args.p is not None or args.sw is not None:
            raise SymcharError("pass either a space or --p/--sw tables, not both")
        from symchar import catalog

        spec = catalog.parse_space(args.space)
        p_table = catalog.pontrjagin_table(spec)
        try:
            sw_table = catalog.stiefel_whitney_table(spec)
        except UnsupportedClassError:
            sw_table = None
        verdict = charclass.bounds_orientably(p_table, sw_table)
        return {
            "space": catalog.spec_string(spec),
            "dim": p_table.dimension,
            "verdict": verdict,
        }
    if args.p is None:
        raise SymcharError("pass a space or at least a --p table")
    p_table = _load_table(args.p)
    sw_table = _load_table(args.sw) if args.sw is not None else None
    verdict = charclass.bounds_orientably(p_table, sw_table)
    return {"dim": p_table.dimension, "verdict": verdict}


def _cmd_gl_order(args) -> dict:
    from symchar import transfer

    return {"n": args.n, "q": args.q, "order": transfer.gl_order(args.n, args.q)}


def _cmd_ds_check(args) -> dict:
    from symchar import transfer

    report = transfer.deligne_sullivan_check(args.mu, args.k, args.q1, args.q2)
    payload = report.to_json_dict()
    payload.update({"mu": args.mu, "k": args.k, "q1": args.q1, "q2": args.q2})
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symchar",
        description=(
            "Exact characteristic numbers and rank classification for "
            "compact symmetric-space duals"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", parents=[common],
        help="rank classification of a locally symmetric space",
    )
    p.add_argument("space", help='e.g. "SU_pq(2,3)", "SLnR(4)", "CayH"')
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "dual", parents=[common], help="compact dual pair of a space"
    )
    p.add_argument("space")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser(
        "p-class", parents=[common],
        help="total Pontrjagin class of a rank-one dual",
    )
    p.add_argument("space")
    p.set_defaults(handler=_cmd_p_class)

    p = sub.add_parser(
        "p-numbers", parents=[common],
        help="Pontrjagin numbers of the compact dual",
    )
    p.add_argument("space")
    p.set_defaults(handler=_cmd_p_numbers)

    p = sub.add_parser(
        "sw-numbers", parents=[common],
        help="Stiefel-Whitney numbers of the compact dual",
    )
    p.add_argument("space")
    p.set_defaults(handler=_cmd_sw_numbers)

    p = sub.add_parser(
        "transfer", parents=[common],
        help="pull a number table back along a cover, or solve for the base",
    )
    p.add_argument("--table", required=True, help="JSON table or @file")
    p.add_argument("--deg", type=int, help="covering degree for a pullback")
    p.add_argument("--deg-t", type=int, help="covering degree in the diagram")
    p.add_argument("--deg-f", type=int, help="tangential-map degree")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser(
        "mu", parents=[common],
        help="least covering-degree bound from two Pontrjagin tables",
    )
    p.add_argument("--m", required=True, help="table of the manifold")
    p.add_argument("--mu-dual", required=True, help="table of the dual")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser(
        "wall", parents=[common],
        help="does the space's compact dual bound orientably?",
    )
    p.add_argument("space", nargs="?")
    p.add_argument("--p", help="Pontrjagin table (JSON or @file)")
    p.add_argument("--sw", help="Stiefel-Whitney table (JSON or @file)")
    p.set_defaults(handler=_cmd_wall)

    p = sub.add_parser(
        "gl-order", parents=[common], help="order of GL_n over F_q"
    )
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_gl_order)

    p = sub.add_parser(
        "ds-check", parents=[common],
        help="divisibility test against two general linear group orders",
    )
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.set_defaults(handler=_cmd_ds_check)

    return parser


def _dumps(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _error(exc: SymcharError) -> dict:
    return {"error": exc.code, "detail": str(exc)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, status = args.handler(args), 0
    except SymcharError as exc:
        payload, status = _error(exc), 1
    try:
        text = _dumps(payload, args.pretty)
    except ValueError:  # an integer longer than Python writes as text
        text, status = _dumps(_error(past_digit_limit()), args.pretty), 1
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
