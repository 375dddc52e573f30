"""The observable contract of the package's value and report types: repr,
equality, hashing, immutability, copies and keyword construction."""

import copy
import pickle

import pytest

from tbshift.abelian import AbElem, AbGroup, AbHom, Character, StructureReport
from tbshift.classify import CentralizerReport, ConjugacyReport, PiPhi, VerifyReport
from tbshift.cocycle import Bicharacter, BilinearCocycle, TableCocycle
from tbshift.configs import Config
from tbshift.dynamics import Motion, RelationReport, Triplet
from tbshift.lattice import AffineSL2, LatticePoint, gcd2, spiral_index
from tbshift.scalars import Phase

Z2 = "AbGroup(free_rank=0, torsion=(2,))"
HOM = f"AbHom(source={Z2}, target={Z2}, matrix=((1,),))"
CHAR = f"Character(group={Z2}, ints=(1,), den=2)"
FORM = f"BilinearCocycle(group={Z2}, ints=((1,),), den=2)"
TRIPLET = f"Triplet(group={Z2}, cocycle={FORM}, character={CHAR})"
MOVE = "AffineSL2(translation=LatticePoint(q=1, r=2), matrix=((1, 1), (0, 1)))"


def z2():
    return AbGroup(0, (2,))


def triplet():
    return Triplet(z2(), BilinearCocycle(z2(), ((2,),), 4), Character(z2(), (3,), 2))


def move():
    return AffineSL2(translation=LatticePoint(1, 2), matrix=((1, 1), (0, 1)))


def table():
    entries = {((g,), (h,)): Phase(g * h, 2) for g in range(2) for h in range(2)}
    return TableCocycle(z2(), entries)


# (build a fresh instance, its repr, a field to assign, a cached view to
# read first); one row per type, each a different class from the next
TYPES = [
    (lambda: AbGroup(free_rank=1, torsion=(2, 6)),
     "AbGroup(free_rank=1, torsion=(2, 6))", "torsion", None),
    (lambda: AbElem(z2(), (1,)), f"AbElem(group={Z2}, coords=(1,))", "coords", None),
    (lambda: AbHom(z2(), z2(), ((3,),)), HOM, "matrix", None),
    (lambda: Character(z2(), (3,), 2), CHAR, "ints", None),
    (lambda: StructureReport(order=2, abelian=True, invariant_factors=(2,), noncommuting=None),
     "StructureReport(order=2, abelian=True, invariant_factors=(2,), noncommuting=None)",
     "order", None),
    (lambda: PiPhi(triplet(), triplet(), AbHom.identity(z2()), weight=gcd2, order_key=spiral_index),
     f"PiPhi(ta={TRIPLET}, tb={TRIPLET}, phi={HOM}, weight={gcd2!r}, "
     f"order_key={spiral_index!r})", "weight", "mismatch"),
    (lambda: VerifyReport(ok=False, failures=[("trace", 1)]),
     "VerifyReport(ok=False, failures=[('trace', 1)])", None, None),
    (lambda: ConjugacyReport("YES", AbHom.identity(z2()), {"cocycle": True, "character": True},
                             True, decided_by="search"),
     f"ConjugacyReport(verdict='YES', witness={HOM}, checks={{'cocycle': True, 'character': "
     "True}, complete=True, note='', decided_by='search')", "verdict", None),
    (lambda: CentralizerReport("OK", (AbHom.identity(z2()),), StructureReport(1, True, (), None),
                               True),
     f"CentralizerReport(verdict='OK', elements=({HOM},), structure=StructureReport(order=1, "
     "abelian=True, invariant_factors=(), noncommuting=None), complete=True, note='')",
     "note", None),
    (lambda: BilinearCocycle(z2(), ((2,),), 4), FORM, "den", None),
    (table, f"TableCocycle(group={Z2}, entries={{((0,), (0,)): Phase(num=0, den=1), "
     "((0,), (1,)): Phase(num=0, den=1), ((1,), (0,)): Phase(num=0, den=1), "
     "((1,), (1,)): Phase(num=1, den=2)})", "entries", "den"),
    (lambda: Bicharacter(z2(), ((0,),), 1), f"Bicharacter(group={Z2}, ints=((0,),), den=1)",
     "ints", None),
    (triplet, TRIPLET, "character", None),
    (lambda: Motion(Character(z2(), (1,), 2), move=move()), f"Motion(char={CHAR}, move={MOVE})",
     "move", None),
    (lambda: RelationReport(ok=True), "RelationReport(ok=True, counterexamples=[])", None, None),
    (lambda: Config(z2(), ((LatticePoint(0, 0), (1,)), (LatticePoint(1, 0), (1,)))),
     f"Config(group={Z2}, support=((LatticePoint(q=0, r=0), (1,)), "
     "(LatticePoint(q=1, r=0), (1,))))", "support", "is_zero_sum"),
    (move, MOVE, "translation", None),
    (lambda: Phase(num=2, den=-6), "Phase(num=2, den=3)", "num", None),
]
UNHASHABLE = {VerifyReport, TableCocycle, RelationReport}


def test_every_value_type_has_a_row():
    assert len({type(make()) for make, *_ in TYPES}) == len(TYPES) == 18


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_repr_equality_and_hash(row):
    make, text, _, cached = TYPES[row]
    a, b = make(), make()
    if cached:
        getattr(a, cached)  # a view kept after the first read shows in none of these
    assert a is not b
    assert repr(a) == repr(b) == text
    assert a == b and not a != b
    cls = type(a)
    if cls in UNHASHABLE:
        assert cls.__hash__ is None
    elif cls is ConjugacyReport:
        # hashed over its fields, and `checks` is a dict
        with pytest.raises(TypeError, match="dict"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_equality_against_another_class_is_false(row):
    a, other = TYPES[row][0](), TYPES[(row + 1) % len(TYPES)][0]()
    assert type(a).__eq__(a, other) is NotImplemented
    assert not a == other and a != other


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_frozen_types_refuse_assignment(row):
    make, text, field, _ = TYPES[row]
    a = make()
    if field is None:  # the two reports the checks fill in
        a.ok = not a.ok
        return
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before and repr(a) == text


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_copies_and_pickles_are_equal(row):
    make, text, _, cached = TYPES[row]
    a = make()
    if cached:
        getattr(a, cached)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and repr(twin) == text
