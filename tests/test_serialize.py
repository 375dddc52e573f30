import json
from pathlib import Path

import pytest

from oracles import elements, lattice_det_triplet, phase_character, to_table
from tbshift import serialize
from tbshift.abelian import AbGroup, AbHom
from tbshift.cocycle import trivial_cocycle
from tbshift.dynamics import mod_q_cocycle, mod_q_triplet
from tbshift.scalars import Phase
from tbshift.serialize import (
    SchemaError,
    character_from_json,
    cocycle_from_json,
    group_from_json,
    hom_to_json,
    phase_from_json,
    triplet_from_json,
)

TRIPLETS = Path(__file__).resolve().parent.parent / "triplets"


def _read(name):
    return json.loads((TRIPLETS / name).read_text("utf-8"))


def test_phase_roundtrip():
    # a triplet file holds each phase as str(p)
    for p in [Phase.ZERO, Phase(1, 2), Phase(7, 9), Phase(15, 16)]:
        assert phase_from_json(str(p)) == p
    assert phase_from_json("-1/4") == Phase(3, 4)
    with pytest.raises(SchemaError):
        phase_from_json("not-a-phase")
    with pytest.raises(SchemaError):
        phase_from_json(12)


def test_a_phase_exponent_beyond_the_bound_is_refused_before_fraction(fraction_guard):
    for text, phase in [("1e3", Phase.ZERO), ("1E+3", Phase.ZERO), ("-2.5e-2", Phase(39, 40)),
                        ("1e1_0", Phase.ZERO), ("5e-1", Phase(1, 2)), ("1e4300", Phase.ZERO),
                        (" 1e-4_300 ", Phase(1, 10 ** 4300))]:
        assert phase_from_json(text) == phase
    for text in ["1e4301", "1E+4301", "-2.5e-4301", "1e4_301", "3E99999999999999999999",
                 " 1e1000000 ", "0e-5000"]:
        with pytest.raises(SchemaError) as err:
            phase_from_json(text, "$.phases[0]")
        assert err.value.path == "$.phases[0]"
        assert str(err.value) == f"$.phases[0]: bad phase {text!r}: exponent beyond 4300"
    assert serialize.MAX_PHASE_EXPONENT == 4300


def test_group_and_parts_roundtrip():
    g = AbGroup(1, (2, 6))
    assert group_from_json({"free_rank": 1, "torsion": [2, 6]}) == g
    chi = phase_character(g, (Phase(1, 7), Phase(1, 2), Phase(5, 6)))
    assert character_from_json(g, {"phases": ["1/7", "1/2", "5/6"]}) == chi
    f = AbHom(g, g, ((1, 0, 0), (0, 1, 0), (0, 0, 5)))
    assert hom_to_json(f) == {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 5]]}


def test_group_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        group_from_json({"free_rank": 0, "torsion": [2, 1]})
    assert err.value.path == "$.torsion[1]"
    with pytest.raises(SchemaError) as err:
        group_from_json({"free_rank": 0})
    assert "torsion" in str(err.value)
    with pytest.raises(SchemaError) as err:
        group_from_json({"free_rank": True, "torsion": []})
    assert err.value.path == "$.free_rank"


def test_character_validation_path():
    g = AbGroup(0, (3,))
    with pytest.raises(SchemaError) as err:
        character_from_json(g, {"phases": ["1/4"]})
    assert err.value.path == "$.phases"
    with pytest.raises(SchemaError) as err:
        character_from_json(g, {"phases": ["1/3", "0/1"]})
    assert err.value.path == "$.phases"


def test_cocycle_roundtrip_both_kinds():
    mu = mod_q_cocycle(3)
    bichar = {"kind": "bichar", "matrix": [["0/1", "1/3"], ["0/1", "0/1"]]}
    assert cocycle_from_json(mu.group, bichar) == mu
    table = _read("mod3_table.json")["cocycle"]
    assert cocycle_from_json(mu.group, table) == to_table(mu)
    with pytest.raises(SchemaError) as err:
        cocycle_from_json(mu.group, {"kind": "mystery"})
    assert err.value.path == "$.kind"


def test_table_entry_given_twice_is_refused():
    # the standard table, then the trivial one with every g written as
    # [c + 3, d + 3]: the second entry for ((0, 0), (0, 0)) is the 82nd
    group = mod_q_cocycle(3).group
    entries = []
    for mu, shift in ((mod_q_cocycle(3), 0), (trivial_cocycle(group), 3)):
        for g in elements(group):
            for h in elements(group):
                coords = [c + shift for c in g.coords]
                entries.append([coords, list(h.coords), str(mu(g, h))])
    data = _read("mod3_standard.json")
    data["cocycle"] = {"kind": "table", "entries": entries}
    with pytest.raises(SchemaError, match="second entry") as err:
        triplet_from_json(data)
    assert err.value.path == "$.cocycle.entries[81]"


def test_triplet_roundtrips():
    # every fixture file parses to a valid triplet; two are family members
    for path in sorted(TRIPLETS.glob("*.json")):
        trip = triplet_from_json(json.loads(path.read_text("utf-8")))
        trip.validate()
        assert trip.character.group == trip.cocycle.group == trip.group
    for name, trip in [
        ("mod3_standard.json", mod_q_triplet(3)),
        ("lattice_theta_1_16.json", lattice_det_triplet(Phase(1, 16))),
    ]:
        again = triplet_from_json(_read(name))
        assert again.group == trip.group
        assert again.character == trip.character
        assert again.cocycle == trip.cocycle


def test_triplet_error_paths():
    bad = _read("mod3_standard.json")
    bad["cocycle"]["matrix"][0][1] = "1/4"  # not killed by torsion order 3
    with pytest.raises(SchemaError) as err:
        triplet_from_json(bad)
    assert err.value.path == "$.cocycle.matrix"
    bad2 = _read("mod3_standard.json")
    del bad2["character"]
    with pytest.raises(SchemaError) as err:
        triplet_from_json(bad2)
    assert err.value.path == "$"
    for entry, where in [
        ([[0, 0], [1, 2], 0.5], "[5][2]"),
        ([[0, 0], [1, 2]], "[5]"),
        ([[0, 0], [0], "0/1"], "[5][1]"),
    ]:
        bad3 = _read("mod3_table.json")
        bad3["cocycle"]["entries"][5] = entry
        with pytest.raises(SchemaError) as err:
            triplet_from_json(bad3)
        assert err.value.path == "$.cocycle.entries" + where
    bad4 = _read("mod3_table.json")
    bad4["group"] = {"free_rank": 1, "torsion": []}
    bad4["cocycle"]["entries"] = []
    with pytest.raises(SchemaError, match="finite group") as err:
        triplet_from_json(bad4)
    assert err.value.path == "$.cocycle.entries"

