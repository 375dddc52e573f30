"""Check each op's result against the answer known by construction.

``check(op, trips, rc, payload)`` returns None when the result is right
and a short reason otherwise.  For a CLI op, rc is the exit code and
payload the parsed JSON of its stdout; for an API op, rc is None and
payload the plain data returned by the call ``api.prepare`` built.
"""

from __future__ import annotations

from fractions import Fraction

from . import oracle


def _columns(matrix) -> tuple:
    """Column tuples of a JSON hom matrix (rows = target coordinates)."""
    return tuple(zip(*matrix))


def _rows(matrix) -> tuple:
    return tuple(tuple(row) for row in matrix)


def check(op, trips, rc, payload):
    exp = op.expect
    if op.kind == "api":
        return _check_api(op, payload)
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    name = op.name
    if name in ("malleability", "selftest", "validate"):
        if rc != exp["exit"] or payload.get("ok") is not exp["ok"]:
            return f"exit {rc}, ok {payload.get('ok')!r}"
        return None
    if name == "conjugate":
        return _check_conjugate(op, trips, rc, payload)
    if name == "centralizer":
        return _check_centralizer(op, trips, rc, payload)
    if name == "factor":
        if rc != exp["exit"] or payload.get("nondegenerate") is not exp["nondegenerate"]:
            return f"exit {rc}, nondegenerate {payload.get('nondegenerate')!r}"
        if not exp["nondegenerate"]:
            t = exp["trip"]
            g = tuple(payload.get("witness_g") or ())
            if len(g) != t.rank or not any(oracle.reduce(t.orders, g)):
                return "degeneracy witness is zero or malformed"
            s = oracle.star_matrix(t)
            gens = [tuple(1 if i == j else 0 for i in range(t.rank)) for j in range(t.rank)]
            if any(oracle.pair(s, g, e) for e in gens):
                return "degeneracy witness pairs nontrivially"
        return None
    if name == "bicharacter":
        if (rc != 0 or payload.get("antisymmetric") is not True
                or payload.get("matrix") != exp["matrix"]):
            return f"exit {rc}, star matrix differs"
        return None
    return f"no check for {name}"


def _check_conjugate(op, trips, rc, payload):
    exp = op.expect
    verdict = payload.get("verdict")
    ta, tb = (trips[a["trip"]] for a in op.args[:2])
    if verdict == "UNKNOWN" and exp.get("may_be_unknown"):
        return None if rc == 3 and payload.get("complete") is False else f"UNKNOWN with exit {rc}"
    if verdict != exp["verdict"] or rc != exp["exit"]:
        return f"verdict {verdict} exit {rc}, expected {exp['verdict']}"
    if verdict == "YES":
        w = payload.get("witness")
        if not w or not oracle.is_witness(ta, tb, _rows(w["matrix"])):
            return "YES without a valid witness"
    return None


def _check_centralizer(op, trips, rc, payload):
    exp = op.expect
    t = trips[op.args[0]["trip"]]
    verdict = payload.get("verdict")
    if verdict == "INFINITE" and exp.get("infinite"):
        return None if rc == 0 and payload.get("complete") is True else "INFINITE but incomplete"
    if verdict != "OK" or rc != 0:
        return f"verdict {verdict} exit {rc}"
    found = [_columns(e["matrix"]) for e in payload.get("elements", [])]
    if len(set(found)) != len(found):
        return "repeated centralizer elements"
    if "bound" in exp:
        if payload.get("complete") is not False:
            return "bounded search claims completeness"
        want = oracle.centralizer_set(t, exp["bound"])
        return None if set(found) == want else f"{len(found)} elements, expected {len(want)}"
    if payload.get("complete") is not True:
        return "finite centralizer reported incomplete"
    want = oracle.centralizer_product_count(exp["parts"])
    if len(found) != want or payload.get("order") != want:
        return f"order {payload.get('order')}, expected {want}"
    for cols in found:
        if not oracle.is_witness(t, t, tuple(zip(*cols))):
            return "centralizer element fails the conditions"
    return None


def _check_api(op, result):
    exp = op.expect
    if op.name in ("pi", "motion"):
        return None if result == {"ok": True} else f"result {result}"
    if op.name == "mixing":
        if tuple(result["shift"]) != exp["shift"]:
            return f"shift {result['shift']}, expected {exp['shift']}"
        return None
    if op.name == "cohom":
        if result["cohomologous"] is not exp["cohomologous"]:
            return "cohomologous verdict is wrong"
        b = result["witness"]
        if (b is not None) != exp["cohomologous"]:
            return "witness presence disagrees with the class"
        if b is not None:
            orders = op.args["orders"]
            b = {tuple(g): Fraction(v) for g, v in b}
            mu1, mu2 = op.args["mu1"], op.args["mu2"]
            for (g, h), v in mu1.items():
                gh = oracle.reduce(orders, [x + y for x, y in zip(g, h)])
                if (b[g] + b[h] - b[gh] - (v - mu2[(g, h)])) % 1:
                    return "coboundary witness does not solve the equations"
        return None
    return f"no check for {op.name}"
