import json
from fractions import Fraction

import pytest

from tbshift.abelian import AbGroup, AbHom, Character
from tbshift.algebra import AlgebraElement
from tbshift.cocycle import to_table
from tbshift.configs import Config, dipole
from tbshift.families import mod_q_cocycle, mod_q_triplet, lattice_det_triplet
from tbshift.lattice import XI, AffineSL2, LatticePoint
from tbshift import scalars
from tbshift.scalars import Cyclotomic, Phase
from tbshift.serialize import (
    SchemaError,
    affine_from_json,
    affine_to_json,
    algebra_element_from_json,
    algebra_element_to_json,
    character_from_json,
    cocycle_from_json,
    cocycle_to_json,
    config_from_json,
    config_to_json,
    cyclotomic_from_json,
    cyclotomic_to_json,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    phase_from_json,
    phase_to_json,
    triplet_from_json,
    triplet_to_json,
)


def test_phase_roundtrip():
    for p in [Phase.ZERO, Phase(1, 2), Phase(7, 9), Phase(15, 16)]:
        assert phase_from_json(phase_to_json(p)) == p
    with pytest.raises(SchemaError):
        phase_from_json("not-a-phase")
    with pytest.raises(SchemaError):
        phase_from_json(12)


def test_cyclotomic_roundtrip():
    x = Cyclotomic.from_phase(Phase(2, 5)) * 3 + Cyclotomic.ONE
    assert cyclotomic_from_json(cyclotomic_to_json(x)) == x
    with pytest.raises(SchemaError):
        cyclotomic_from_json({"order": 5, "coeffs": ["1/2"]})  # wrong length


def test_short_coefficient_list_is_refused_without_factoring(monkeypatch):
    # phi(N) >= sqrt(N/2), so one coefficient cannot fit a 14-digit prime order
    def no_factoring(n):
        raise AssertionError("euler_phi called")

    monkeypatch.setattr(scalars, "euler_phi", no_factoring)
    with pytest.raises(SchemaError, match="needs more than 1 coefficients") as err:
        cyclotomic_from_json({"order": 99999999999973, "coeffs": ["1"]})
    assert err.value.path == "$"


def test_cyclotomic_coefficients_are_ints_or_strings():
    x = cyclotomic_from_json({"order": 4, "coeffs": [2, "-1/3"]})
    assert x.coeffs == (Fraction(2), Fraction(-1, 3))


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.1, True, None, [1]])
def test_cyclotomic_coefficient_must_be_exact(bad):
    with pytest.raises(SchemaError) as err:
        cyclotomic_from_json({"order": 5, "coeffs": ["1/2", "0", bad, "0"]})
    assert err.value.path == "$.coeffs[2]"


def test_cyclotomic_bad_coefficient_string_has_its_path():
    with pytest.raises(SchemaError) as err:
        cyclotomic_from_json({"order": 4, "coeffs": ["1/0", "x"]})
    assert err.value.path == "$.coeffs[0]"


def test_group_and_parts_roundtrip():
    g = AbGroup(1, (2, 6))
    assert group_from_json(group_to_json(g)) == g
    chi = Character(g, (Phase(1, 7), Phase(1, 2), Phase(5, 6)))
    assert character_from_json(g, {"phases": ["1/7", "1/2", "5/6"]}) == chi
    f = AbHom.identity(g)
    assert hom_from_json(g, g, hom_to_json(f)) == f


def test_group_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        group_from_json({"free_rank": 0, "torsion": [2, 1]})
    assert err.value.path == "$.torsion[1]"
    with pytest.raises(SchemaError) as err:
        group_from_json({"free_rank": 0})
    assert "torsion" in str(err.value)


def test_character_validation_path():
    g = AbGroup(0, (3,))
    with pytest.raises(SchemaError) as err:
        character_from_json(g, {"phases": ["1/4"]})
    assert err.value.path == "$.phases"


def test_cocycle_roundtrip_both_kinds():
    mu = mod_q_cocycle(3)
    assert cocycle_from_json(mu.group, cocycle_to_json(mu)) == mu
    table = to_table(mu)
    back = cocycle_from_json(mu.group, cocycle_to_json(table))
    assert back == table
    with pytest.raises(SchemaError):
        cocycle_from_json(mu.group, {"kind": "mystery"})


def test_lattice_roundtrip():
    assert affine_from_json(affine_to_json(XI)) == XI
    with pytest.raises(SchemaError):
        affine_from_json({"t": [0, 0], "m": [[1, 0], [0, -1]]})


def test_config_and_algebra_roundtrip():
    mu = mod_q_cocycle(3)
    g = mu.group
    cfg = dipole(g.element((1, 2)))
    assert config_from_json(g, config_to_json(cfg)) == cfg
    x = AlgebraElement(
        mu,
        {
            cfg: Cyclotomic.from_phase(Phase(1, 12)),
            dipole(g.element((2, 0))): Cyclotomic.ONE * 2,
        },
    )
    assert algebra_element_from_json(mu, algebra_element_to_json(x)) == x


def test_config_support_is_sorted():
    mu = mod_q_cocycle(3)
    g = mu.group
    cfg = Config.from_items(
        g, [(LatticePoint(3, 1), g.element((1, 0))), (LatticePoint(-2, 0), g.element((0, 1)))]
    )
    data = config_to_json(cfg)
    assert data["support"][0][0] == [-2, 0]


def test_triplet_roundtrips():
    for trip in [mod_q_triplet(3), lattice_det_triplet(Phase(1, 16))]:
        data = triplet_to_json(trip, label="x")
        again = triplet_from_json(json.loads(json.dumps(data)))
        assert again.group == trip.group
        assert again.character == trip.character
        assert again.cocycle == trip.cocycle


def test_triplet_error_paths():
    base = triplet_to_json(mod_q_triplet(3))
    bad = json.loads(json.dumps(base))
    bad["cocycle"]["matrix"][0][1] = "1/4"  # not killed by torsion order 3
    with pytest.raises(SchemaError) as err:
        triplet_from_json(bad)
    assert err.value.path == "$.cocycle.matrix"
    bad2 = json.loads(json.dumps(base))
    del bad2["character"]
    with pytest.raises(SchemaError):
        triplet_from_json(bad2)
