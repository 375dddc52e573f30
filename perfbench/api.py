"""Turn generated op data into ``tbshift`` calls.

``prepare`` builds the program's objects from plain data before timing
starts; the closure it returns is the timed op and gives back plain data
for ``check`` and the output digest.
"""

from __future__ import annotations

from fractions import Fraction


def prepare(op, tb):
    """tb is the imported ``tbshift`` package."""
    from tbshift.serialize import triplet_from_json

    def triplet(t):
        return triplet_from_json(t.to_json())

    def element(cocycle, terms):
        group = cocycle.group
        out = {}
        for cfg, (k, c) in terms:
            key = tb.Config.from_items(group, [(p, v) for p, v in sorted(cfg.items())])
            out[key] = tb.Cyclotomic.from_phase(tb.Phase(k, 12)) * Fraction(c)
        return tb.AlgebraElement(cocycle, out)

    a = op.args
    if op.name == "pi":
        ta, tbt = triplet(a["ta"]), triplet(a["tb"])
        phi = tb.AbHom(ta.group, tbt.group, a["phi"])
        pairs = [(element(ta.cocycle, x), element(ta.cocycle, y)) for x, y in a["pairs"]]

        def run():
            return {"ok": tb.verify_pi(tb.build_pi(ta, tbt, phi), pairs).ok}

        return run
    if op.name == "motion":
        t = triplet(a["t"])
        samples = [
            (tb.LatticePoint(*k), tb.LatticePoint(*l), gamma, element(t.cocycle, x))
            for k, l, gamma, x in a["samples"]
        ]

        def run():
            return {"ok": tb.verify_motion_relations(t, samples).ok}

        return run
    if op.name == "cohom":
        group = tb.AbGroup(0, a["orders"])

        def table(mu):
            return tb.TableCocycle(group, {
                (g, h): tb.Phase(v.numerator, v.denominator) for (g, h), v in mu.items()
            })

        mu1, mu2 = table(a["mu1"]), table(a["mu2"])

        def run():
            same = tb.cohomologous(mu1, mu2)
            b = tb.coboundary_witness(mu1, mu2)
            witness = None if b is None else sorted(
                (list(g.coords), str(p)) for g, p in b.items()
            )
            return {"cohomologous": same, "witness": witness}

        return run
    if op.name == "mixing":
        t = triplet(a["t"])
        elems = [element(t.cocycle, terms) for terms in a["elems"]]

        def run():
            k = tb.weak_mixing_witness(t, elems)
            return {"shift": [k.q, k.r]}

        return run
    raise ValueError(f"unknown api op {op.name}")
