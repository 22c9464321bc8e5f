"""Seeded request generators for the three workloads.

A request is a plain dict: ``op`` names the operation, the remaining keys
are its inputs.  The generators only ever build inputs; the program sees
them through the CLI (``argv``) or through library calls (``inproc``).
Tables are built here, never by the package.
"""

from __future__ import annotations

import json
import random

from verify import format_monomial, monomial_of, partitions, wall_verdict

ALIASES = {
    "SU_pq": ["SU_pq", "SUpq"],
    "SO0_pq": ["SO0_pq", "SO0pq"],
    "SOstar_2n": ["SOstar_2n", "SOstar2n", "SOstar"],
    "Sp_nR": ["Sp_nR", "SpnR"],
    "Sp_pq": ["Sp_pq", "Sppq"],
    "SL_nR": ["SL_nR", "SLnR"],
    "SUstar_2n": ["SUstar_2n", "SUstar2n", "SUstar"],
    "TypeIV": ["TypeIV"],
    "RealHyperbolic_n": ["RealHyperbolic_n", "RHn"],
    "ComplexHyperbolic_n": ["ComplexHyperbolic_n", "CHn"],
    "QuaternionicHyperbolic_n": ["QuaternionicHyperbolic_n", "QHn"],
    "CayleyHyperbolic": ["CayleyHyperbolic", "CayH"],
    "ConstantPositive_n": ["ConstantPositive_n", "ConstPos"],
    "Flat_n": ["Flat_n", "Flat"],
}
FAMILIES = list(ALIASES)
MIN_PARAMS = {
    "SU_pq": (1, 1), "SO0_pq": (1, 1), "SOstar_2n": (2,), "Sp_nR": (1,),
    "Sp_pq": (1, 1), "SL_nR": (2,), "SUstar_2n": (2,), "TypeIV": (1,),
    "RealHyperbolic_n": (1,), "ComplexHyperbolic_n": (1,),
    "QuaternionicHyperbolic_n": (1,), "CayleyHyperbolic": (),
    "ConstantPositive_n": (1,), "Flat_n": (1,),
}
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
NOT_PRIME_POWERS = [6, 10, 12, 15]

# The three inputs that end in a ValueError traceback at the 4300-digit
# int/str limit at the seed commit.  They run as a separate probe, not in a
# timed workload, because a workload must contain only requests that the
# program can answer.
LIMIT_PROBE = [
    ["gl-order", "120", "2"],
    ["classify", "SU_pq(8000,8000)"],
    ["transfer", "--table", '{"4": ' + "7" * 5000 + "}", "--deg", "2"],
]


def skewed(rng: random.Random, lo: int, hi: int) -> int:
    """An integer in lo..hi, small values far more likely (density ~ x^-2/3)."""
    return lo + int((hi - lo + 1) * rng.random() ** 3)


def space_request(op: str, family: str, params, rng: random.Random) -> dict:
    alias = rng.choice(ALIASES[family])
    sep = rng.choice([",", ", "])
    text = alias if not params else f"{alias}({sep.join(str(p) for p in params)})"
    return {"op": op, "space": text, "family": family, "params": list(params)}


def small_params(family: str, rng: random.Random, span: int = 5) -> tuple:
    return tuple(lo + rng.randrange(span) for lo in MIN_PARAMS[family])


# --- synthetic tables --------------------------------------------------------


_KEYS: dict = {}


def table_keys(kind: str, k: int) -> tuple:
    """Canonical keys of a degree-4k Pontrjagin or degree-k SW table."""
    if (kind, k) not in _KEYS:
        if kind == "pontrjagin":
            keys = (",".join(str(p) for p in part) for part in partitions(k))
        else:
            keys = (format_monomial(monomial_of(part)) for part in partitions(k))
        _KEYS[kind, k] = tuple(keys)
    return _KEYS[kind, k]


def synth_table(kind: str, k: int, tid: int, lo: int, hi: int, zero_share=0.15) -> dict:
    """A full table document of degree 4k (Pontrjagin) or k (SW)."""
    rng = random.Random(f"{kind}:{k}:{tid}:{lo}:{hi}")
    if kind == "pontrjagin":
        entries = {key: 0 if rng.random() < zero_share else rng.randint(lo, hi)
                   for key in table_keys(kind, k)}
    else:
        entries = {key: rng.randrange(2) for key in table_keys(kind, k)}
    return {"dim": 4 * k if kind == "pontrjagin" else k, "kind": kind, "entries": entries}


def scaled(table: dict, factor: int, bump: bool = False) -> dict:
    """Every entry times factor; with bump, the first entry gets +1."""
    entries = {key: v * factor for key, v in table["entries"].items()}
    if bump:
        key = next(iter(entries))
        entries[key] += 1
    return dict(table, entries=entries)


def mu_pair(k: int, tid: int, rng: random.Random, lo=1, hi=12, broken=False) -> tuple:
    m = synth_table("pontrjagin", k, tid, lo, hi, zero_share=0.2)
    d = synth_table("pontrjagin", k, tid + 10_000, lo, hi, zero_share=0.0)
    d["entries"] = {key: (v if m["entries"][key] else 0) for key, v in d["entries"].items()}
    if broken:
        key = rng.choice(list(m["entries"]))
        if m["entries"][key]:
            m["entries"][key] = 0
        else:
            d["entries"][key] = 5
    return m, d


# --- tables-large ------------------------------------------------------------


def tables_large_pass(rng: random.Random, smoke: bool, verdicts: dict) -> list:
    """One pass: every rank-one table size of the mix exactly once, shuffled.

    ``verdicts`` memoizes the oracle's Wall verdict per space for the run.
    """
    qh = range(3, 6) if smoke else range(14, 27)
    ch = range(3, 5) if smoke else range(7, 12)
    reqs = [space_request("p-numbers", "QuaternionicHyperbolic_n", (n,), rng) for n in qh]
    reqs += [space_request("sw-numbers", "ComplexHyperbolic_n", (n,), rng) for n in ch]
    for n in ch:
        req = space_request("wall", "ComplexHyperbolic_n", (n,), rng)
        if n not in verdicts:
            verdicts[n] = wall_verdict("ComplexHyperbolic_n", (n,))
        req["verdict"] = verdicts[n]
        reqs.append(req)
    rng.shuffle(reqs)
    return reqs


# --- classify-transfer -------------------------------------------------------

_CT_OPS = ["classify"] * 8 + ["gl-order"] * 2 + ["ds-check"] * 2 + ["pullback"] * 3 + ["solve"] * 2 + ["mu"] * 3


def ct_request(rng: random.Random, smoke: bool) -> dict:
    """One draw of the classify-transfer mix.  ``key`` identifies repeats."""
    top = 12 if smoke else 150
    kmax = 4 if smoke else 8
    op = rng.choice(_CT_OPS)
    if op == "classify":
        family = rng.choice(FAMILIES)
        params = tuple(skewed(rng, lo, top) for lo in MIN_PARAMS[family])
        req = space_request(op, family, params, rng)
        req["key"] = f"classify:{family}:{params}"
        return req
    if op == "gl-order":
        n = skewed(rng, 1, 10 if smoke else 40)
        bad = rng.random() < 0.05
        q = rng.choice(NOT_PRIME_POWERS) if bad else PRIME_POWERS[skewed(rng, 0, 9)]
        return {"op": op, "n": n, "q": q, "key": f"gl:{n}:{q}"}
    if op == "ds-check":
        k = skewed(rng, 1, 4 if smoke else 19)
        q1 = PRIME_POWERS[skewed(rng, 0, 6)]
        if rng.random() < 0.05:
            q2 = {2: 4, 4: 8, 8: 2, 3: 9, 9: 3}.get(q1, q1)
        else:
            q2 = rng.choice([q for q in PRIME_POWERS[:7] if q % _char(q1)])
        mu_value = skewed(rng, 1, 10**6)
        return {"op": op, "mu": mu_value, "k": k, "q1": q1, "q2": q2,
                "key": f"ds:{mu_value}:{k}:{q1}:{q2}"}
    k = skewed(rng, 1, kmax)
    tid = skewed(rng, 0, 400)
    if op == "pullback":
        kind = "sw" if rng.random() < 0.2 else "pontrjagin"
        deg = skewed(rng, 1, 50)
        table = synth_table(kind, k, tid, -10**6, 10**6)
        return {"op": op, "table": table, "deg": deg, "key": f"pb:{kind}:{k}:{tid}:{deg}"}
    if op == "solve":
        deg_f = skewed(rng, 1, 12)
        deg_t = skewed(rng, 1, 30)
        bump = deg_f > 1 and deg_t % deg_f != 0 and rng.random() < 0.1
        table = scaled(synth_table("pontrjagin", k, tid, -10**5, 10**5), deg_f, bump)
        return {"op": op, "table": table, "deg_t": deg_t, "deg_f": deg_f,
                "key": f"solve:{k}:{tid}:{deg_t}:{deg_f}:{bump}"}
    broken = rng.random() < 0.1
    m, d = mu_pair(k, tid, random.Random(tid), broken=broken)
    if rng.random() < 0.03:
        d = synth_table("pontrjagin", k + 1, tid, 1, 12, zero_share=0.0)
        return {"op": op, "m": m, "mu": d, "key": f"mu:{k}:{tid}:dim"}
    return {"op": op, "m": m, "mu": d, "key": f"mu:{k}:{tid}:{broken}"}


def _char(q: int) -> int:
    return next(p for p in (2, 3, 5, 7, 11, 13) if q % p == 0)


# --- cli-mix ---------------------------------------------------------------------

_SPEC_ERRORS = [
    ("Foo(2)", "unknown-family"),
    ("E6", "unsupported-family"),
    ("G2(2)", "unsupported-family"),
    ("SU_pq(2", "malformed-spec"),
    ("SU_pq(2,x)", "malformed-spec"),
    ("SLnR(1)", "malformed-spec"),
    ("SU_pq(2)", "malformed-spec"),
]
_USAGE_ERRORS = [
    [],
    ["gl-order", "3"],
    ["gl-order", "x", "2"],
    ["frobnicate"],
    ["transfer", "--deg", "2"],
    ["classify"],
]
_RANK_ONE = ["RealHyperbolic_n", "ConstantPositive_n", "ComplexHyperbolic_n",
             "QuaternionicHyperbolic_n", "CayleyHyperbolic"]
_HIGHER = [f for f in FAMILIES if f not in _RANK_ONE]


def _bare_or_full(table: dict, rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return table
    if table["kind"] == "pontrjagin" and rng.random() < 0.5:
        return {f"({key})": v for key, v in table["entries"].items()}
    return dict(table["entries"])


def _table_arg(table: dict, rng: random.Random, files: list, path: str) -> str:
    text = json.dumps(_bare_or_full(table, rng))
    if rng.random() < 0.5:
        files.append((path, text))
        return "@" + path
    return text


def _space_argv(req: dict, rng: random.Random) -> dict:
    argv = [req["op"], req["space"]]
    if rng.random() < 0.2:
        argv.insert(1, "--pretty")
    req["argv"] = argv
    return req


def cli_round(rng: random.Random, r: int, order: list, table_dir: str, smoke: bool):
    """One round of the cli-mix: every subcommand, three families from a
    seeded rotation over all 14, one domain error and one usage error.
    Returns the requests and the (path, text) table files they read."""
    files: list = []
    reqs = []

    def path(i: int) -> str:
        return f"{table_dir}/r{r}_{i}.json"

    for i in range(3):
        family = order[(3 * r + i) % len(order)]
        reqs.append(space_request("classify", family, small_params(family, rng), rng))
    family = rng.choice(FAMILIES)
    reqs.append(space_request("dual", family, small_params(family, rng), rng))
    family = rng.choice(_RANK_ONE if rng.random() < 0.8 else _HIGHER)
    reqs.append(space_request("p-class", family, small_params(family, rng, 6), rng))
    family = rng.choice(_RANK_ONE)
    reqs.append(space_request("p-numbers", family, small_params(family, rng, 6), rng))
    family = rng.choice(_HIGHER)
    reqs.append(space_request("p-numbers", family, small_params(family, rng, 4), rng))
    family = rng.choice(["ComplexHyperbolic_n"] * 3 + ["RealHyperbolic_n", "QuaternionicHyperbolic_n", "CayleyHyperbolic"])
    reqs.append(space_request("sw-numbers", family, small_params(family, rng, 6), rng))
    family = rng.choice(FAMILIES)
    reqs.append(space_request("wall", family, small_params(family, rng, 4), rng))
    reqs = [_space_argv(req, rng) for req in reqs]

    k = 1 + rng.randrange(4)
    table = synth_table("sw" if rng.random() < 0.2 else "pontrjagin", k, rng.randrange(100), -999, 999)
    deg = 1 + rng.randrange(9)
    reqs.append({"op": "pullback", "table": table, "deg": deg,
                 "argv": ["transfer", "--table", _table_arg(table, rng, files, path(0)), "--deg", str(deg)]})

    deg_f = rng.choice([2, 3, 5, 7])
    deg_t = rng.choice([d for d in range(1, 12) if d % deg_f])
    bump = rng.random() < 0.2
    table = scaled(synth_table("pontrjagin", k, rng.randrange(100), -99, 99), deg_f, bump)
    reqs.append({"op": "solve", "table": table, "deg_t": deg_t, "deg_f": deg_f,
                 "argv": ["transfer", "--table", _table_arg(table, rng, files, path(1)),
                          "--deg-t", str(deg_t), "--deg-f", str(deg_f)]})

    m, d = mu_pair(k, rng.randrange(100), rng, broken=rng.random() < 0.2)
    reqs.append({"op": "mu", "m": m, "mu": d,
                 "argv": ["mu", "--m", _table_arg(m, rng, files, path(2)),
                          "--mu-dual", _table_arg(d, rng, files, path(3))]})

    p = synth_table("pontrjagin", k, rng.randrange(100), -9, 9, zero_share=0.9)
    sw = synth_table("sw", 4 * k, rng.randrange(100), 0, 1) if rng.random() < 0.7 else None
    argv = ["wall", "--p", _table_arg(p, rng, files, path(4))]
    if sw is not None:
        argv += ["--sw", _table_arg(sw, rng, files, path(5))]
    reqs.append({"op": "wall-tables", "p": p, "sw": sw, "argv": argv})

    n = 1 + rng.randrange(6)
    q = rng.choice(NOT_PRIME_POWERS) if rng.random() < 0.15 else rng.choice(PRIME_POWERS[:7])
    reqs.append({"op": "gl-order", "n": n, "q": q, "argv": ["gl-order", str(n), str(q)]})

    k = 1 + rng.randrange(3)
    q1 = rng.choice(PRIME_POWERS[:7])
    q2 = rng.choice([x for x in PRIME_POWERS[:7] if x % _char(q1)] if rng.random() < 0.8 else [q1])
    mu_value = 1 + rng.randrange(1000)
    reqs.append({"op": "ds-check", "mu": mu_value, "k": k, "q1": q1, "q2": q2,
                 "argv": ["ds-check", "--mu", str(mu_value), "--k", str(k),
                          "--q1", str(q1), "--q2", str(q2)]})

    text, code = rng.choice(_SPEC_ERRORS)
    op = rng.choice(["classify", "dual", "p-numbers"])
    reqs.append({"op": op, "expect": code, "argv": [op, text]})
    if rng.random() < 0.5:
        reqs.append({"op": "pullback", "expect": "bad-table",
                     "argv": ["transfer", "--table", '{"4": 1', "--deg", "2"]})
    reqs.append({"op": "usage", "argv": list(rng.choice(_USAGE_ERRORS))})
    rng.shuffle(reqs)
    return reqs, files
