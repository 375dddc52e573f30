"""JSON schemas for the values the CLI reads and writes.

The CLI reads triplet files (group, cocycle, character) and writes
homomorphisms (`conjugate`, `centralizer`); an element, such as
`factor`'s witness, is written as its coordinate list.
Parsing is strict and every error carries the JSON path of the offending
node, so a bad triplet file points at the exact field.  A character's or a
bilinear cocycle's phases become ints over the lcm of their denominators
here, the one place where a Phase turns into an integer form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Any

from .abelian import AbGroup, AbHom, Character
from .cocycle import BilinearCocycle, TableCocycle
from .dynamics import Triplet
from .scalars import Phase


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

MAX_PHASE_EXPONENT = 4300
"""Largest |exponent| of a decimal phase string ("1e4300"), the digits `int`
reads from a string by default: `Fraction` raises 10 to it in one step no
signal interrupts, so a larger one is refused before `Fraction` sees it."""


_PLAIN_PHASE = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def phase_from_json(obj: Any, path: str = "$") -> Phase:
    """The phase a JSON string p/q (or p) names.

    The plain form, an optional minus, ASCII digits and a denominator with
    a nonzero digit, is read by `int` straight into a Phase.  Any other
    text is `Fraction`'s: a plus sign, spaces, underscores, decimals,
    exponents, other digits and a zero denominator, after the exponent
    guard.  Both reads sit in one `try`, so a refusal (`int`'s digit limit
    among them) is the same SchemaError on either path.
    """
    text = _need(obj, str, path, 'a phase string "p/q"')
    plain = _PLAIN_PHASE.fullmatch(text)
    try:
        if plain:
            num, den = plain.groups()
            return Phase(int(num), int(den or 1))
        # the exponent as Fraction reads it: E in either case, a sign,
        # digits with single underscores
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
        if exponent and abs(int(exponent[1])) > MAX_PHASE_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_PHASE_EXPONENT}")
        return Phase.from_fraction(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad phase {text!r}: {exc}") from None


def _phases(obj: Any, path: str, what: str) -> tuple:
    """Entry i of the JSON list obj (else not `what`) as a phase read at path[i]."""
    return tuple(phase_from_json(p, f"{path}[{i}]")
                 for i, p in enumerate(_need(obj, list, path, what)))


def _lifted(rows: list) -> tuple:
    """(int rows, D) for rows of parsed phases, D the lcm of their
    denominators: the one place where a Phase becomes an int over D."""
    den = lcm(*(p.den for row in rows for p in row))
    return tuple(tuple(p.num * (den // p.den) for p in row) for row in rows), den


# groups and their parts -----------------------------------------------

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


def element_from_json(group: AbGroup, obj: Any, path: str = "$") -> tuple:
    """The element's reduced coordinate tuple."""
    coords = _need(obj, list, path, "a coordinate list")
    if len(coords) != group.rank:
        raise SchemaError(path, f"expected {group.rank} coordinates, got {len(coords)}")
    for i, c in enumerate(coords):
        _need(c, int, f"{path}[{i}]", "an integer")
    return group.reduce(coords)


def hom_to_json(f: AbHom) -> dict:
    return {"matrix": [list(row) for row in f.matrix]}


def character_from_json(group: AbGroup, obj: Any, path: str = "$") -> Character:
    parsed = _phases(_need_key(obj, "phases", path), path + ".phases", "a list")
    if len(parsed) != group.rank:
        raise SchemaError(path + ".phases", f"expected {group.rank} phases, got {len(parsed)}")
    (ints,), den = _lifted([parsed])
    try:
        return Character(group, ints, den)
    except ValueError as exc:
        raise SchemaError(path + ".phases", str(exc)) from None


# cocycles --------------------------------------------------------------

def cocycle_from_json(group: AbGroup, obj: Any, path: str = "$"):
    kind = _need(_need_key(obj, "kind", path), str, path + ".kind", "a string")
    if kind == "bichar":
        matrix = _need(_need_key(obj, "matrix", path), list, path + ".matrix", "a matrix")
        rows = [_phases(row, f"{path}.matrix[{i}]", "a row") for i, row in enumerate(matrix)]
        try:
            return BilinearCocycle(group, *_lifted(rows))
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
            key = (g, h)
            if key in table:
                raise SchemaError(here, f"second entry for ({g}, {h})")
            table[key] = phase_from_json(entry[2], here + "[2]")
        try:
            return TableCocycle(group, table)
        except ValueError as exc:
            raise SchemaError(path + ".entries", str(exc)) from None
    raise SchemaError(path + ".kind", f"unknown cocycle kind {kind!r}")


# triplet files ----------------------------------------------------------

MAX_FREE_RANK = 2 ** 20
"""Largest free rank a triplet file may give: a valid triplet lists
free_rank**2 matrix entries, 2**40 at this rank, and its group holds
tuples of free_rank entries."""


def triplet_from_json(obj: Any, path: str = "$") -> Triplet:
    group_obj = _need_key(obj, "group", path)
    # the character lists one phase per generator, so a free rank above the
    # length of its list, or above MAX_FREE_RANK, is refused before a group
    # of that rank is built
    free = group_obj.get("free_rank") if isinstance(group_obj, dict) else None
    chi = obj.get("character")
    phases = chi.get("phases") if isinstance(chi, dict) else None
    if type(free) is int and isinstance(phases, list) and free > len(phases):
        detail = f"free rank {free} exceeds the length {len(phases)} of the character's phases"
        raise SchemaError(path + ".group.free_rank", detail)
    if type(free) is int and free > MAX_FREE_RANK:
        raise SchemaError(path + ".group.free_rank", f"free rank {free} exceeds {MAX_FREE_RANK}")
    group = group_from_json(group_obj, path + ".group")
    cocycle = cocycle_from_json(group, _need_key(obj, "cocycle", path), path + ".cocycle")
    character = character_from_json(group, _need_key(obj, "character", path), path + ".character")
    return Triplet(group, cocycle, character)
