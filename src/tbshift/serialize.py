"""JSON schemas for every value the CLI reads or writes.

Parsing is strict and every error carries the JSON path of the offending
node, so a bad triplet file points at the exact field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from .abelian import AbElem, AbGroup, AbHom, Character
from .algebra import AlgebraElement
from .cocycle import BilinearCocycle, TableCocycle
from .configs import Config
from .dynamics import Triplet
from .lattice import AffineSL2, LatticePoint
from .scalars import Cyclotomic, Phase


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _need(obj: Any, kind: type, path: str, what: str) -> Any:
    if kind is int and isinstance(obj, bool):
        raise SchemaError(path, f"expected {what}, got a boolean")
    if not isinstance(obj, kind):
        raise SchemaError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _need_key(obj: dict, key: str, path: str) -> Any:
    _need(obj, dict, path, "an object")
    if key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    return obj[key]


# phases ---------------------------------------------------------------

def phase_to_json(p: Phase) -> str:
    return str(p)


def phase_from_json(obj: Any, path: str = "$") -> Phase:
    text = _need(obj, str, path, 'a phase string "p/q"')
    try:
        return Phase.from_fraction(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad phase {text!r}: {exc}") from None


def cyclotomic_to_json(x: Cyclotomic) -> dict:
    return {"order": x.order, "coeffs": [str(c) for c in x.coeffs]}


def cyclotomic_from_json(obj: Any, path: str = "$") -> Cyclotomic:
    order = _need(_need_key(obj, "order", path), int, path + ".order", "an integer")
    coeffs = _need(_need_key(obj, "coeffs", path), list, path + ".coeffs", "a list")
    values = []
    for i, c in enumerate(coeffs):
        here = f"{path}.coeffs[{i}]"
        # JSON floats (and inf/nan) are not exact rationals; bool is not a number
        if isinstance(c, bool) or not isinstance(c, (int, str)):
            raise SchemaError(
                here, f'expected an integer or a rational string "p/q", got {type(c).__name__}'
            )
        try:
            values.append(Fraction(c))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(here, f"bad coefficient {c!r}: {exc}") from None
    try:
        return Cyclotomic(order, tuple(values))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


# groups and their parts -----------------------------------------------

def group_to_json(g: AbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def group_from_json(obj: Any, path: str = "$") -> AbGroup:
    free = _need(_need_key(obj, "free_rank", path), int, path + ".free_rank", "an integer")
    torsion = _need(_need_key(obj, "torsion", path), list, path + ".torsion", "a list")
    for i, n in enumerate(torsion):
        _need(n, int, f"{path}.torsion[{i}]", "an integer")
        if n < 2:
            raise SchemaError(f"{path}.torsion[{i}]", f"torsion order {n} must be >= 2")
    if free < 0:
        raise SchemaError(path + ".free_rank", "must be nonnegative")
    return AbGroup(free, tuple(torsion))


def element_to_json(e: AbElem) -> list:
    return list(e.coords)


def element_from_json(group: AbGroup, obj: Any, path: str = "$") -> AbElem:
    coords = _need(obj, list, path, "a coordinate list")
    if len(coords) != group.rank:
        raise SchemaError(path, f"expected {group.rank} coordinates, got {len(coords)}")
    for i, c in enumerate(coords):
        _need(c, int, f"{path}[{i}]", "an integer")
    return group.element(coords)


def hom_to_json(f: AbHom) -> dict:
    return {"matrix": [list(row) for row in f.matrix]}


def hom_from_json(source: AbGroup, target: AbGroup, obj: Any, path: str = "$") -> AbHom:
    matrix = _need(_need_key(obj, "matrix", path), list, path + ".matrix", "a matrix")
    rows = []
    for i, row in enumerate(matrix):
        _need(row, list, f"{path}.matrix[{i}]", "a row")
        for j, x in enumerate(row):
            _need(x, int, f"{path}.matrix[{i}][{j}]", "an integer")
        rows.append(tuple(row))
    try:
        return AbHom(source, target, tuple(rows))
    except ValueError as exc:
        raise SchemaError(path + ".matrix", str(exc)) from None


def character_to_json(c: Character) -> dict:
    return {"phases": [str(p) for p in c.phases]}


def character_from_json(group: AbGroup, obj: Any, path: str = "$") -> Character:
    phases = _need(_need_key(obj, "phases", path), list, path + ".phases", "a list")
    parsed = [phase_from_json(p, f"{path}.phases[{i}]") for i, p in enumerate(phases)]
    if len(parsed) != group.rank:
        raise SchemaError(path + ".phases", f"expected {group.rank} phases, got {len(parsed)}")
    try:
        return Character(group, tuple(parsed))
    except ValueError as exc:
        raise SchemaError(path + ".phases", str(exc)) from None


# cocycles --------------------------------------------------------------

def cocycle_to_json(mu) -> dict:
    if isinstance(mu, BilinearCocycle):
        return {
            "kind": "bichar",
            "matrix": [[str(p) for p in row] for row in mu.matrix],
        }
    if isinstance(mu, TableCocycle):
        entries = sorted(
            (list(g), list(h), str(p)) for (g, h), p in mu.entries.items()
        )
        return {"kind": "table", "entries": [list(e) for e in entries]}
    raise TypeError(f"cannot serialize cocycle of type {type(mu).__name__}")


def cocycle_from_json(group: AbGroup, obj: Any, path: str = "$"):
    kind = _need(_need_key(obj, "kind", path), str, path + ".kind", "a string")
    if kind == "bichar":
        matrix = _need(_need_key(obj, "matrix", path), list, path + ".matrix", "a matrix")
        rows = []
        for i, row in enumerate(matrix):
            _need(row, list, f"{path}.matrix[{i}]", "a row")
            rows.append(
                tuple(
                    phase_from_json(p, f"{path}.matrix[{i}][{j}]")
                    for j, p in enumerate(row)
                )
            )
        try:
            return BilinearCocycle(group, tuple(rows))
        except ValueError as exc:
            raise SchemaError(path + ".matrix", str(exc)) from None
    if kind == "table":
        entries = _need(_need_key(obj, "entries", path), list, path + ".entries", "a list")
        table = {}
        for i, entry in enumerate(entries):
            here = f"{path}.entries[{i}]"
            _need(entry, list, here, "an [g, h, phase] triple")
            if len(entry) != 3:
                raise SchemaError(here, "need exactly [g, h, phase]")
            g = element_from_json(group, entry[0], here + "[0]")
            h = element_from_json(group, entry[1], here + "[1]")
            table[(g.coords, h.coords)] = phase_from_json(entry[2], here + "[2]")
        try:
            return TableCocycle(group, table)
        except ValueError as exc:
            raise SchemaError(path + ".entries", str(exc)) from None
    raise SchemaError(path + ".kind", f"unknown cocycle kind {kind!r}")


# lattice ---------------------------------------------------------------

def point_to_json(k: LatticePoint) -> list:
    return [k.q, k.r]


def point_from_json(obj: Any, path: str = "$") -> LatticePoint:
    pair = _need(obj, list, path, "a [q, r] pair")
    if len(pair) != 2 or not all(isinstance(x, int) for x in pair):
        raise SchemaError(path, "expected two integers")
    return LatticePoint(pair[0], pair[1])


def affine_to_json(a: AffineSL2) -> dict:
    return {"t": point_to_json(a.translation), "m": [list(row) for row in a.matrix]}


def affine_from_json(obj: Any, path: str = "$") -> AffineSL2:
    t = point_from_json(_need_key(obj, "t", path), path + ".t")
    m = _need(_need_key(obj, "m", path), list, path + ".m", "a 2x2 matrix")
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise SchemaError(path + ".m", "expected a 2x2 matrix")
    try:
        return AffineSL2(t, tuple(tuple(row) for row in m))
    except ValueError as exc:
        raise SchemaError(path + ".m", str(exc)) from None


# configurations and algebra elements ------------------------------------

def config_to_json(c: Config) -> dict:
    return {"support": [[point_to_json(p), list(coords)] for p, coords in c.support]}


def config_from_json(group: AbGroup, obj: Any, path: str = "$") -> Config:
    support = _need(_need_key(obj, "support", path), list, path + ".support", "a list")
    items = []
    for i, pair in enumerate(support):
        here = f"{path}.support[{i}]"
        _need(pair, list, here, "a [[q,r], coords] pair")
        if len(pair) != 2:
            raise SchemaError(here, "expected [[q,r], coords]")
        point = point_from_json(pair[0], here + "[0]")
        value = element_from_json(group, pair[1], here + "[1]")
        items.append((point, value))
    return Config.from_items(group, items)


def algebra_element_to_json(x: AlgebraElement) -> dict:
    ordered = sorted(x.terms.items(), key=lambda kv: kv[0].support)
    return {
        "terms": [[config_to_json(k), cyclotomic_to_json(v)] for k, v in ordered]
    }


def algebra_element_from_json(cocycle, obj: Any, path: str = "$") -> AlgebraElement:
    terms = _need(_need_key(obj, "terms", path), list, path + ".terms", "a list")
    out = {}
    for i, pair in enumerate(terms):
        here = f"{path}.terms[{i}]"
        _need(pair, list, here, "a [config, coefficient] pair")
        if len(pair) != 2:
            raise SchemaError(here, "expected [config, coefficient]")
        key = config_from_json(cocycle.group, pair[0], here + "[0]")
        out[key] = cyclotomic_from_json(pair[1], here + "[1]")
    return AlgebraElement(cocycle, out)


# triplet files ----------------------------------------------------------

def triplet_to_json(t: Triplet, label: Optional[str] = None) -> dict:
    out = {
        "group": group_to_json(t.group),
        "cocycle": cocycle_to_json(t.cocycle),
        "character": character_to_json(t.character),
    }
    if label:
        out["label"] = label
    return out


def triplet_from_json(obj: Any, path: str = "$") -> Triplet:
    group = group_from_json(_need_key(obj, "group", path), path + ".group")
    cocycle = cocycle_from_json(group, _need_key(obj, "cocycle", path), path + ".cocycle")
    character = character_from_json(group, _need_key(obj, "character", path), path + ".character")
    return Triplet(group, cocycle, character)
