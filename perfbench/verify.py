"""Output checks, written independently of the package's arithmetic.

Every request the benchmark sends is checked here, outside the timed
region.  The expected values come from closed formulas (binomial Euler
characteristics, the cyclotomic form of |GL_n(F_q)|, binomial total
classes), from Euler's pentagonal-number recurrence for p(n), and from the
repository's own oracles in ``tests/_oracles.py``; nothing calls into
``symchar``.  ``check`` returns ``None`` for a correct output and a short
problem description otherwise.
"""

from __future__ import annotations

import json
import re
from math import comb, gcd, prod
from types import SimpleNamespace

import _oracles

RANK_ONE = "RankOne"
EQUAL_RANK = "EqualRank_EulerNonzero"
RANK_GAP = "RankGap_PontrjaginVanish"
PARALLELIZABLE = "Parallelizable_Vanish"

CAYLEY_GOLDEN = {"4": 39, "3,1": 0, "2,2": 36, "2,1,1": 0, "1,1,1,1": 0}


def _so_euler(p: int, q: int) -> int:
    """chi(SO(p+q)/SO(p)xSO(q)): 0 when both are odd, else 2*C(a+b, a)."""
    if p % 2 and q % 2:
        return 0
    return 2 * comb(p // 2 + q // 2, p // 2)


# canonical family -> (dim, (rank G_U, rank K), chi of the dual, dual name,
# rank-one model or None).  Closed formulas only; the package gets chi as a
# ratio of Weyl group orders.
FAMILIES = {
    "SU_pq": lambda p, q: (
        2 * p * q, (p + q - 1, p + q - 1), comb(p + q, p),
        f"SU({p + q})/S(U{p}xU{q})", None),
    "SO0_pq": lambda p, q: (
        p * q, ((p + q) // 2, p // 2 + q // 2), _so_euler(p, q),
        f"SO({p + q})/SO({p})xSO({q})", None),
    "SOstar_2n": lambda n: (
        n * (n - 1), (n, n), 2 ** (n - 1), f"SO({2 * n})/U({n})", None),
    "Sp_nR": lambda n: (n * (n + 1), (n, n), 2**n, f"Sp({n})/U({n})", None),
    "Sp_pq": lambda p, q: (
        4 * p * q, (p + q, p + q), comb(p + q, p),
        f"Sp({p + q})/Sp({p})xSp({q})", None),
    "SL_nR": lambda n: (
        (n - 1) * (n + 2) // 2, (n - 1, n // 2), 2 if n == 2 else 0,
        f"SU({n})/SO({n})", None),
    "SUstar_2n": lambda n: (
        (n - 1) * (2 * n + 1), (2 * n - 1, n), 0, f"SU({2 * n})/Sp({n})", None),
    "TypeIV": lambda d: (d, None, 0, "compact Lie group", None),
    "RealHyperbolic_n": lambda n: (
        n, ((n + 1) // 2, n // 2), 0 if n % 2 else 2, f"S^{n}", ("sphere", n)),
    "ComplexHyperbolic_n": lambda n: (
        2 * n, (n, n), n + 1, f"CP^{n}", ("cp", n)),
    "QuaternionicHyperbolic_n": lambda n: (
        4 * n, (n + 1, n + 1), n + 1, f"HP^{n}", ("hp", n)),
    "CayleyHyperbolic": lambda: (16, (4, 4), 3, "CayP^2", ("cay", 2)),
    "ConstantPositive_n": lambda n: (
        n, ((n + 1) // 2, n // 2), 0 if n % 2 else 2, f"S^{n}", ("sphere", n)),
    "Flat_n": lambda n: (n, (n, 0), 0, f"T^{n}", None),
}


def family_facts(family: str, params) -> dict:
    dim, ranks, euler, dual, model = FAMILIES[family](*params)
    if ranks is None:
        verdict, toral = PARALLELIZABLE, None
    else:
        toral = ranks[0] - ranks[1]
        if model is not None:
            verdict = RANK_ONE
        else:
            verdict = EQUAL_RANK if toral == 0 else RANK_GAP
    return {
        "dim": dim,
        "rank_gu": ranks and ranks[0],
        "rank_k": ranks and ranks[1],
        "toral_rank": toral,
        "euler_char_dual": euler,
        "dual": dual,
        "verdict": verdict,
        "model": model,
    }


def spec_string(family: str, params) -> str:
    if not params:
        return family
    return f"{family}({','.join(str(p) for p in params)})"


# --- p(n) and the total classes --------------------------------------------

_P_CACHE = [1]


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    while len(_P_CACHE) <= n:
        m = len(_P_CACHE)
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _P_CACHE[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _P_CACHE[m - g2]
            k += 1
        _P_CACHE.append(total)
    return _P_CACHE[n]


def pontrjagin_total(model) -> tuple:
    """(coefficients, generator degree, dimension) of the total class,
    from binomial formulas: CP^n (1+a^2)^(n+1), HP^n (1+u)^(2n+2)/(1+4u)."""
    kind, n = model
    if kind == "sphere":
        return [1, 0], n, n
    if kind == "cp":
        return [comb(n + 1, j // 2) if j % 2 == 0 else 0 for j in range(n + 1)], 2, 2 * n
    if kind == "hp":
        coeffs = [
            sum(comb(2 * n + 2, j) * (-4) ** (k - j) for j in range(k + 1))
            for k in range(n + 1)
        ]
        return coeffs, 4, 4 * n
    return [1, 6, 39], 8, 16


def sw_total(model):
    """(coefficients mod 2, generator degree, dimension), or None when the
    package deliberately does not compute Stiefel-Whitney classes."""
    kind, n = model
    if kind == "sphere":
        return [1, 0], n, n
    if kind == "cp":
        return [comb(n + 1, j) & 1 for j in range(n + 1)], 2, 2 * n
    return None


# --- table keys --------------------------------------------------------------

_SW_FACTOR = re.compile(r"^w([1-9]\d*)(?:\^([1-9]\d*))?$")


def parse_partition_key(key: str):
    parts = tuple(int(tok) for tok in key.split(",")) if key else ()
    if ",".join(str(p) for p in parts) != key:
        raise ValueError(f"non-canonical partition key {key!r}")
    if any(p < 1 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"not a partition: {key!r}")
    return parts


def parse_monomial_key(key: str):
    exps = []
    for tok in key.split(" "):
        m = _SW_FACTOR.match(tok)
        if not m:
            raise ValueError(f"malformed monomial key {key!r}")
        exps.append((int(m.group(1)), int(m.group(2) or 1)))
    if any(a[0] >= b[0] for a, b in zip(exps, exps[1:])):
        raise ValueError(f"non-canonical monomial key {key!r}")
    return tuple(exps)


def format_monomial(exps) -> str:
    return " ".join(f"w{i}" if r == 1 else f"w{i}^{r}" for i, r in exps)


def partitions(n: int, largest: int | None = None):
    """Partitions of n as descending tuples (used to build synthetic tables)."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def monomial_of(partition) -> tuple:
    return tuple((i, partition.count(i)) for i in sorted(set(partition)))


# --- tables ------------------------------------------------------------------


def _check_table(doc, kind, dim, value_of, rng, sample):
    if doc.get("kind") != kind or doc.get("dim") != dim:
        return f"table header {doc.get('kind')}/{doc.get('dim')}, expected {kind}/{dim}"
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        return "table has no entries object"
    if kind == "pontrjagin" and dim % 4:
        if entries or doc.get("reason") != "dimension-not-multiple-of-4":
            return "odd-degree table must be empty with its reason"
        return None
    weight = dim // 4 if kind == "pontrjagin" else dim
    expected_count = partition_count(weight)
    if len(entries) != expected_count:
        return f"{len(entries)} entries, p({weight}) = {expected_count}"
    parsed = {}
    for key in entries:
        try:
            if kind == "pontrjagin":
                index = parse_partition_key(key)
                total = sum(index)
            else:
                index = parse_monomial_key(key)
                total = sum(i * r for i, r in index)
        except ValueError as exc:
            return str(exc)
        if total != weight:
            return f"key {key!r} has weight {total}, expected {weight}"
        parsed[key] = index
    keys = list(entries)
    chosen = set(rng.sample(keys, min(sample, len(keys))))
    chosen.update((keys[0], keys[-1]))
    for key in sorted(chosen):
        want = value_of(parsed[key])
        if entries[key] != want:
            return f"entry {key!r} = {entries[key]}, oracle says {want}"
    return None


def _p_value(model):
    coeffs, gdeg, dim = pontrjagin_total(model)
    return lambda part: _oracles.char_number_plain(coeffs, gdeg, dim, part)


def _sw_value(model):
    coeffs, gdeg, dim = sw_total(model)
    return lambda exps: _oracles.sw_number_plain(
        coeffs, gdeg, dim, SimpleNamespace(exponents=exps)
    )


def check_p_table(doc, model, rng, sample):
    dim = pontrjagin_total(model)[2]
    return _check_table(doc, "pontrjagin", dim, _p_value(model), rng, sample)


def check_sw_table(doc, model, rng, sample):
    dim = sw_total(model)[2]
    return _check_table(doc, "sw", dim, _sw_value(model), rng, sample)


def _all_zero_p(model) -> bool:
    coeffs, gdeg, dim = pontrjagin_total(model)
    if dim % 4:
        return True
    value = _p_value(model)
    return all(value(p) == 0 for p in partitions(dim // 4))


def _all_zero_sw(model) -> bool:
    value = _sw_value(model)
    return all(value(monomial_of(p)) == 0 for p in partitions(sw_total(model)[2]))


def wall_verdict(family: str, params) -> str:
    """Wall's criterion evaluated on oracle tables, or "error:<code>" when
    the package does not compute the numbers (higher equal-rank duals)."""
    facts = family_facts(family, params)
    model = facts["model"]
    if model is None:
        if facts["verdict"] == EQUAL_RANK:
            return "error:unsupported-class"
        return "insufficient_data"
    if not _all_zero_p(model):
        return "does_not_bound"
    if sw_total(model) is None:
        return "insufficient_data"
    return "bounds" if _all_zero_sw(model) else "does_not_bound"


# --- transfer ------------------------------------------------------------------


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = q^(n(n-1)/2) * prod_{i=1..n} (q^i - 1)."""
    return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(1, n + 1))


def prime_base(q: int):
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def expected_error(req: dict):
    """The error code a request must produce, or None for a success."""
    op = req["op"]
    if "expect" in req:
        return req["expect"]
    if op in ("classify", "dual", "p-class", "p-numbers", "sw-numbers", "wall"):
        facts = family_facts(req["family"], req["params"])
        if op == "p-class" and facts["model"] is None:
            return "unsupported-class"
        if op == "p-numbers" and facts["verdict"] == EQUAL_RANK:
            return "unsupported-class"
        if op == "sw-numbers" and (
            facts["model"] is None or sw_total(facts["model"]) is None
        ):
            return "unsupported-class"
        if op == "wall":
            verdict = req.get("verdict") or wall_verdict(req["family"], req["params"])
            if verdict.startswith("error:"):
                return verdict[len("error:"):]
        return None
    if op == "gl-order":
        if req["n"] < 1:
            return "invalid-input"
        return None if prime_base(req["q"]) else "bad-prime-power"
    if op == "ds-check":
        if req["mu"] < 1 or req["k"] < 1:
            return "invalid-input"
        p1, p2 = prime_base(req["q1"]), prime_base(req["q2"])
        if p1 is None or p2 is None:
            return "bad-prime-power"
        return "equal-characteristic" if p1 == p2 else None
    if op == "pullback":
        return None
    if op == "solve":
        t, dt, df = req["table"], req["deg_t"], req["deg_f"]
        values = t["entries"].values()
        if t["kind"] != "pontrjagin":
            return "invalid-input"
        if df == 0 or (dt == 0 and any(values)):
            return "inconsistent-degrees"
        if any((dt * v) % df for v in values):
            return "inconsistent-degrees"
        return None
    if op == "mu":
        m, d = req["m"], req["mu"]
        if m["kind"] != "pontrjagin" or d["kind"] != "pontrjagin":
            return "invalid-input"
        if m["dim"] != d["dim"]:
            return "dimension-mismatch"
        for key in set(m["entries"]) | set(d["entries"]):
            a, b = m["entries"].get(key, 0), d["entries"].get(key, 0)
            if (a == 0) != (b == 0):
                return "inconsistent-tables"
        return None
    if op == "wall-tables":
        p, sw = req["p"], req["sw"]
        if sw is not None and p["dim"] != sw["dim"]:
            return "dimension-mismatch"
        return None
    raise ValueError(f"unknown op {op!r}")


def _expected_payload(req: dict, rng, sample):
    """Check a successful payload; returns a problem string or None."""
    op = req["op"]
    doc = req["_doc"]
    if op in ("classify", "dual", "p-class", "p-numbers", "sw-numbers", "wall"):
        family, params = req["family"], req["params"]
        facts = family_facts(family, params)
        if op == "classify":
            want = {
                "family": family, "params": list(params), "dual": facts["dual"],
                "dim": facts["dim"], "rank_gu": facts["rank_gu"],
                "rank_k": facts["rank_k"], "toral_rank": facts["toral_rank"],
                "verdict": facts["verdict"],
                "euler_char_dual": facts["euler_char_dual"],
                "minvol_positive": facts["euler_char_dual"] > 0,
            }
            return None if doc == want else f"classify payload {doc} != {want}"
        if op == "dual":
            got = {k: doc.get(k) for k in ("family", "params", "dual", "rank_gu", "rank_k", "dim")}
            want = {
                "family": family, "params": list(params), "dual": facts["dual"],
                "rank_gu": facts["rank_gu"], "rank_k": facts["rank_k"],
                "dim": facts["dim"],
            }
            return None if got == want else f"dual payload {got} != {want}"
        model = facts["model"]
        if op == "p-class":
            coeffs, gdeg, _ = pontrjagin_total(model)
            got = (doc.get("coefficients"), doc.get("generator_degree"),
                   doc.get("truncation_top"), doc.get("space"))
            want = (coeffs, gdeg, len(coeffs) - 1, spec_string(family, params))
            return None if got == want else f"p-class {got} != {want}"
        if op == "p-numbers":
            if model is None:
                return _check_table(doc, "pontrjagin", facts["dim"], lambda _: 0, rng, sample)
            return check_p_table(doc, model, rng, sample)
        if op == "sw-numbers":
            return check_sw_table(doc, model, rng, sample)
        verdict = req.get("verdict") or wall_verdict(family, params)
        got = (doc.get("space"), doc.get("dim"), doc.get("verdict"))
        want = (spec_string(family, params), facts["dim"], verdict)
        return None if got == want else f"wall {got} != {want}"
    if op == "gl-order":
        want = {"n": req["n"], "q": req["q"], "order": gl_order(req["n"], req["q"])}
        if req["n"] <= 2 and req["q"] <= 3:
            if want["order"] != _oracles.gl_count_enumerated(req["n"], req["q"]):
                return "closed-form GL order disagrees with enumeration"
        return None if doc == want else f"gl-order {doc} != {want}"
    if op == "ds-check":
        n = 2 * req["k"] + 1
        o1, o2 = gl_order(n, req["q1"]), gl_order(n, req["q2"])
        want = {
            "divides": (o1 * o2) % req["mu"] == 0, "order_1": o1, "order_2": o2,
            "order_product": o1 * o2, "mu": req["mu"], "k": req["k"],
            "q1": req["q1"], "q2": req["q2"],
        }
        return None if doc == want else "ds-check payload differs from the closed form"
    if op == "pullback":
        t, d = req["table"], req["deg"]
        if doc.get("kind") != t["kind"] or doc.get("dim") != t["dim"]:
            return "pullback changed the table header"
        if doc.get("entries", {}).keys() != t["entries"].keys():
            return "pullback changed the key set"
        for key, v in t["entries"].items():
            want = (d * v) & 1 if t["kind"] == "sw" else d * v
            if doc["entries"][key] != want:
                return f"pullback entry {key!r}: {doc['entries'][key]} != d*v = {want}"
        return None
    if op == "solve":
        t, dt, df = req["table"], req["deg_t"], req["deg_f"]
        if doc.get("dim") != t["dim"] or doc.get("entries", {}).keys() != t["entries"].keys():
            return "solve changed the table header or key set"
        for key, v in t["entries"].items():
            if df * doc["entries"][key] != dt * v:
                return f"solve entry {key!r} breaks deg_f*x = deg_t*v"
        return None
    if op == "mu":
        m, d = req["m"]["entries"], req["mu"]["entries"]
        pairs, contributions, skipped = [], {}, []
        for key in sorted(set(m) | set(d)):
            a, b = abs(m.get(key, 0)), abs(d.get(key, 0))
            if a == 0:
                skipped.append(key)
                continue
            pairs.append((a, b))
            contributions[key] = b // gcd(a, b)
        value = 1
        for c in contributions.values():
            value = _lcm(value, c)
        want = {"mu": value, "contributions": contributions, "skipped": skipped}
        if doc != want:
            return f"mu payload {doc} != {want}"
        bound = 1
        for _, b in pairs:
            bound = _lcm(bound, b)
        if value <= 200 and _oracles.smallest_degree_scan(pairs) != value:
            return "mu disagrees with the oracle scan"
        if bound <= 10**6 and _oracles.smallest_degree_divisors(pairs) != value:
            return "mu disagrees with the oracle divisor search"
        return None
    if op == "wall-tables":
        p, sw = req["p"], req["sw"]
        if any(p["entries"].values()):
            verdict = "does_not_bound"
        elif sw is None:
            verdict = "insufficient_data"
        else:
            verdict = "does_not_bound" if any(v & 1 for v in sw["entries"].values()) else "bounds"
        want = {"dim": p["dim"], "verdict": verdict}
        return None if doc == want else f"wall-tables {doc} != {want}"
    raise ValueError(f"unknown op {op!r}")


def answered(exit_code: int, stdout: str, stderr: str):
    """(problem, document): the CLI contract every call must keep.  Exit 0
    or 1 with exactly one JSON object on stdout, or exit 2 for usage errors;
    never a traceback."""
    if "Traceback" in stderr:
        return f"traceback: {stderr.strip().splitlines()[-1][:160]}", None
    if exit_code not in (0, 1, 2):
        return f"exit code {exit_code}", None
    if exit_code == 2:
        return None, None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"stdout is not one JSON document: {stdout[:80]!r}", None
    if not isinstance(doc, dict):
        return "stdout JSON is not an object", None
    return None, doc


def check(req: dict, exit_code: int, stdout: str, stderr: str, rng, sample: int = 6):
    """Check one request's outcome.  Returns None when it is correct."""
    problem, doc = answered(exit_code, stdout, stderr)
    if problem is not None:
        return problem
    if req["op"] == "usage" or exit_code == 2:
        if req["op"] != "usage" or exit_code != 2 or stdout.strip():
            return f"usage error expected: {req['op']!r} gave exit {exit_code}"
        return None
    code = expected_error(req)
    if code is not None:
        if exit_code != 1 or doc.get("error") != code:
            return f"expected error {code!r}, got exit {exit_code} {str(doc)[:120]}"
        return None
    if exit_code != 0 or "error" in doc:
        return f"unexpected failure: exit {exit_code} {str(doc)[:160]}"
    return _expected_payload(dict(req, _doc=doc), rng, sample)


def check_cayley_goldens(p_numbers_doc: dict, total_class: list):
    if p_numbers_doc.get("entries") != CAYLEY_GOLDEN or p_numbers_doc.get("dim") != 16:
        return f"CayP^2 numbers {p_numbers_doc} differ from the goldens"
    if total_class != [1, 6, 39]:
        return f"CayP^2 total class {total_class} != [1, 6, 39]"
    return None
