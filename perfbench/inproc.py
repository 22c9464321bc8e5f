"""In-process requests: the public-call sequence the CLI runs for each
subcommand (parse -> classify -> table -> to_json_dict -> encode), made
directly against the library, as a notebook or script would.

Calls go through module attributes (``catalog.parse_space``), so the span
wrappers that ``tracing.install`` puts on those attributes see them.
"""

from __future__ import annotations

import json

from symchar import catalog, charclass, partitions, transfer
from symchar.charclass import CharNumberTable
from symchar.errors import SymcharError, UnsupportedClassError

_DUALS = {
    "RealHyperbolic_n": lambda p: charclass.sphere(p[0]),
    "ConstantPositive_n": lambda p: charclass.sphere(p[0]),
    "ComplexHyperbolic_n": lambda p: charclass.complex_projective(p[0]),
    "QuaternionicHyperbolic_n": lambda p: charclass.quaternionic_projective(p[0]),
    "CayleyHyperbolic": lambda p: charclass.cayley_plane(),
}
_VANISHING = (catalog.VERDICT_RANK_GAP, catalog.VERDICT_PARALLELIZABLE)


def encode(payload: dict) -> str:
    """json.dumps with the CLI's settings."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _dual_space(spec):
    make = _DUALS.get(spec.family)
    return make(spec.params) if make else None


def _vanishing_table(dim: int) -> CharNumberTable:
    if dim % 4:
        return CharNumberTable("pontrjagin", dim, {}, reason="dimension-not-multiple-of-4")
    keys = (partitions.format_partition(p) for p in partitions.partitions_of(dim // 4))
    return CharNumberTable("pontrjagin", dim, {key: 0 for key in keys})


def _p_table(spec, cls):
    if cls.verdict == catalog.VERDICT_RANK_ONE:
        return charclass.pontrjagin_numbers(_dual_space(spec))
    if cls.verdict in _VANISHING:
        return _vanishing_table(cls.dim)
    raise UnsupportedClassError("Pontrjagin numbers of higher-rank equal-rank duals are not computed")


def _classify(req):
    return catalog.classify(catalog.parse_space(req["space"])).to_json_dict()


def _p_numbers(req):
    spec = catalog.parse_space(req["space"])
    return _p_table(spec, catalog.classify(spec)).to_json_dict()


def _sw_numbers(req):
    space = _dual_space(catalog.parse_space(req["space"]))
    if space is None:
        raise UnsupportedClassError("Stiefel-Whitney numbers are computed for rank-one duals only")
    return charclass.stiefel_whitney_numbers(space).to_json_dict()


def _wall(req):
    spec = catalog.parse_space(req["space"])
    cls = catalog.classify(spec)
    p_table = _p_table(spec, cls)
    sw_table = None
    if cls.verdict == catalog.VERDICT_RANK_ONE:
        try:
            sw_table = charclass.stiefel_whitney_numbers(_dual_space(spec))
        except UnsupportedClassError:
            pass
    verdict = charclass.bounds_orientably(p_table, sw_table)
    return {"space": catalog.spec_string(spec), "dim": p_table.dimension, "verdict": verdict}


def _gl_order(req):
    return {"n": req["n"], "q": req["q"], "order": transfer.gl_order(req["n"], req["q"])}


def _ds_check(req):
    payload = transfer.deligne_sullivan_check(req["mu"], req["k"], req["q1"], req["q2"]).to_json_dict()
    payload.update({key: req[key] for key in ("mu", "k", "q1", "q2")})
    return payload


def _pullback(req):
    return transfer.pullback_numbers(req["_table"], req["deg"]).to_json_dict()


def _solve(req):
    return transfer.solve_manifold_numbers(req["_table"], req["deg_t"], req["deg_f"]).to_json_dict()


def _mu(req):
    return transfer.mu(req["_m"], req["_mu"]).to_json_dict()


HANDLERS = {
    "classify": _classify,
    "p-numbers": _p_numbers,
    "sw-numbers": _sw_numbers,
    "wall": _wall,
    "gl-order": _gl_order,
    "ds-check": _ds_check,
    "pullback": _pullback,
    "solve": _solve,
    "mu": _mu,
}


def _table(doc: dict) -> CharNumberTable:
    return CharNumberTable(doc["kind"], doc["dim"], dict(doc["entries"]))


def materialize(req: dict) -> dict:
    """Build the library objects a request passes in; done before timing."""
    if "table" in req:
        req["_table"] = _table(req["table"])
    if "m" in req:
        req["_m"], req["_mu"] = _table(req["m"]), _table(req["mu"])
    return req


def run(req: dict) -> tuple:
    """Answer one request: (exit code as the CLI would give it, JSON text)."""
    try:
        return 0, encode(HANDLERS[req["op"]](req))
    except SymcharError as exc:
        return 1, encode({"error": exc.code, "detail": str(exc)})
