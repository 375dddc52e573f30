"""The observable contract of the package's value and report types: repr,
equality, hashing, immutability, copies and keyword construction."""

import ast
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import tbshift.cli  # noqa: F401  (defines every value type of the package)
from tbshift import classify
from tbshift.abelian import AbElem, AbGroup, AbHom, Character, StructureReport
from tbshift.algebra import AlgebraElement, TensorElement
from tbshift.classify import CentralizerReport, ConjugacyReport, PiPhi, VerifyReport
from tbshift.cocycle import Bicharacter, BilinearCocycle, TableCocycle
from tbshift.configs import Config
from tbshift.dynamics import Motion, Triplet
from tbshift.lattice import E1, ORIGIN, AffineSL2, LatticePoint, gcd2
from tbshift.scalars import Cyclotomic, Immutable, Phase

Z2 = "AbGroup(free_rank=0, torsion=(2,))"
HOM = f"AbHom(source={Z2}, target={Z2}, matrix=((1,),))"
CHAR = f"Character(group={Z2}, ints=(1,), den=2)"
FORM = f"BilinearCocycle(group={Z2}, ints=((1,),), den=2)"
TRIPLET = f"Triplet(group={Z2}, cocycle={FORM}, character={CHAR})"
MOVE = "AffineSL2(translation=LatticePoint(q=1, r=2), matrix=((1, 1), (0, 1)))"
SITE = f"Config(group={Z2}, support=((LatticePoint(q=0, r=0), (1,)),))"
PAIR = (f"Config(group={Z2}, support=((LatticePoint(q=0, r=0), (1,)), "
        "(LatticePoint(q=1, r=0), (1,))))")
ONE = "Cyclotomic(order=1, coeffs=(Fraction(1, 1),))"
ROOT = "Cyclotomic(order=4, coeffs=(Fraction(0, 1), Fraction(1, 1)))"

# The tuples of plain values whose hashes the types above had when each
# wrote its own __hash__ over its fields: a tuple's hash reads only the
# hashes of its entries, so a plain key stands in for a value with that hash
Z2_KEY = (0, (2,))
HOM_KEY = (Z2_KEY, Z2_KEY, ((1,),))
CHAR_KEY = (Z2_KEY, (1,), 2)
FORM_KEY = (Z2_KEY, ((1,),), 2)
TRIPLET_KEY = (Z2_KEY, FORM_KEY, CHAR_KEY)
MOVE_KEY = ((1, 2), ((1, 1), (0, 1)))


def z2():
    return AbGroup(0, (2,))


def triplet():
    return Triplet(z2(), BilinearCocycle(z2(), ((2,),), 4), Character(z2(), (3,), 2))


def move():
    return AffineSL2(translation=LatticePoint(1, 2), matrix=((1, 1), (0, 1)))


def site(*values):
    # g at ORIGIN, then h at E1: a key of the shift algebra or its tensor square
    return Config.from_items(z2(), zip((ORIGIN, E1), values))


def algebra_element():
    return AlgebraElement(triplet().cocycle, {site((1,)): Cyclotomic.ONE})


def tensor_element():
    # the zero coefficient is pruned when built
    terms = {site((1,)): Cyclotomic.ONE, site((1,), (1,)): Cyclotomic.ONE.rotated(1, 4),
             site((0,), (1,)): Cyclotomic.ZERO}
    return TensorElement(triplet().cocycle, terms)


def table():
    entries = {((g,), (h,)): Phase(g * h, 2) for g in range(2) for h in range(2)}
    return TableCocycle(z2(), entries)


# (build a fresh instance, its repr, a field to assign, a derived view
# outside the fields to read first, its hash or None if it has none); one
# row per type, each a different class from the next.  The hash is that of
# the coordinates for AbElem, of the support for Config and of the repr's
# fields for the others
TYPES = [
    (lambda: AbGroup(free_rank=1, torsion=(2, 6)),
     "AbGroup(free_rank=1, torsion=(2, 6))", "torsion", None, hash((1, (2, 6)))),
    (lambda: AbElem(z2(), (1,)), f"AbElem(group={Z2}, coords=(1,))", "coords", None,
     hash((1,))),
    (lambda: AbHom(z2(), z2(), ((3,),)), HOM, "matrix", None, hash(HOM_KEY)),
    (lambda: Character(z2(), (3,), 2), CHAR, "ints", None, hash(CHAR_KEY)),
    (lambda: StructureReport(order=2, invariant_factors=(2,), noncommuting=None),
     "StructureReport(order=2, abelian=True, invariant_factors=(2,), noncommuting=None)",
     "order", None, hash((2, True, (2,), None))),
    (lambda: PiPhi(triplet(), triplet(), AbHom.identity(z2()), weight=gcd2),
     f"PiPhi(ta={TRIPLET}, tb={TRIPLET}, phi={HOM}, weight={gcd2!r})", "weight", "mismatch",
     hash((TRIPLET_KEY, TRIPLET_KEY, HOM_KEY, gcd2))),
    (lambda: VerifyReport(failures=[("trace", 1)]),
     "VerifyReport(ok=False, failures=[('trace', 1)])", "failures", None, None),
    (lambda: ConjugacyReport("YES", AbHom.identity(z2()), {"cocycle": True, "character": True},
                             True, decided_by="search"),
     f"ConjugacyReport(verdict='YES', witness={HOM}, checks={{'cocycle': True, 'character': "
     "True}, complete=True, note='', decided_by='search')", "verdict", None, None),
    (lambda: CentralizerReport("OK", (AbHom.identity(z2()),), StructureReport(1, (), None),
                               True),
     f"CentralizerReport(verdict='OK', elements=({HOM},), structure=StructureReport(order=1, "
     "abelian=True, invariant_factors=(), noncommuting=None), complete=True, note='')",
     "note", None, hash(("OK", (HOM_KEY,), (1, True, (), None), True, ""))),
    (lambda: BilinearCocycle(z2(), ((2,),), 4), FORM, "den", None, hash(FORM_KEY)),
    (table, f"TableCocycle(group={Z2}, entries={{((0,), (0,)): Phase(num=0, den=1), "
     "((0,), (1,)): Phase(num=0, den=1), ((1,), (0,)): Phase(num=0, den=1), "
     "((1,), (1,)): Phase(num=1, den=2)})", "entries", "den", None),
    (lambda: Bicharacter(z2(), ((0,),), 1), f"Bicharacter(group={Z2}, ints=((0,),), den=1)",
     "ints", None, hash((Z2_KEY, ((0,),), 1))),
    (triplet, TRIPLET, "character", None, hash(TRIPLET_KEY)),
    (lambda: Motion(Character(z2(), (1,), 2), move=move()), f"Motion(char={CHAR}, move={MOVE})",
     "move", None, hash((CHAR_KEY, MOVE_KEY))),
    (lambda: Config(z2(), ((LatticePoint(0, 0), (1,)), (LatticePoint(1, 0), (1,)))),
     f"Config(group={Z2}, support=((LatticePoint(q=0, r=0), (1,)), "
     "(LatticePoint(q=1, r=0), (1,))))", "support", "is_zero_sum",
     hash((((0, 0), (1,)), ((1, 0), (1,))))),
    (move, MOVE, "translation", None, hash(MOVE_KEY)),
    (lambda: Phase(num=2, den=-6), "Phase(num=2, den=3)", "num", None, hash((2, 3))),
    (algebra_element, f"AlgebraElement(cocycle={FORM}, terms={{{SITE}: {ONE}}})", "terms", None,
     None),
    (tensor_element, f"TensorElement(cocycle={FORM}, terms={{{SITE}: {ONE}, {PAIR}: {ROOT}}})",
     "cocycle", None, None),
]
UNHASHABLE = {TableCocycle}


def test_every_value_type_has_a_row():
    assert len({type(make()) for make, *_ in TYPES}) == len(TYPES) == 19


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_repr_equality_and_hash(row):
    make, text, _, view, expected = TYPES[row]
    a, b = make(), make()
    if view:
        getattr(a, view)  # a derived view shows in none of these
    assert a is not b
    assert repr(a) == repr(b) == text
    assert a == b and not a != b
    cls = type(a)
    if cls in UNHASHABLE:
        assert cls.__hash__ is None
    elif cls in (ConjugacyReport, VerifyReport, AlgebraElement, TensorElement):
        # hashed over their fields: `checks` and `terms` are dicts, `failures` a list
        with pytest.raises(TypeError, match="list" if cls is VerifyReport else "dict"):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_a_value_equals_itself_with_no_field_compared(row, monkeypatch):
    # the base answers identity first, so a caller's `a != b` costs no
    # field comparison when both name one object
    a = TYPES[row][0]()
    cls = type(a)
    assert cls.__eq__ is Immutable.__eq__ and cls.__ne__ is Immutable.__ne__

    def refuse(value):
        raise AssertionError(f"{cls.__name__} compared its fields with itself")

    monkeypatch.setattr(cls, "_key", staticmethod(refuse))
    assert a == a
    assert not (a != a)


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_every_slot_is_set_when_built(row):
    # a value is complete when built: no slot is left unset, or None in a
    # private slot, for a later read to fill in
    a = TYPES[row][0]()
    slots = [name for cls in type(a).__mro__ for name in vars(cls).get("__slots__", ())]
    assert slots
    unset = [name for name in slots if not hasattr(a, name)]
    empty = [name for name in slots if name.startswith("_") and getattr(a, name, None) is None]
    assert (unset, empty) == ([], [])


def test_an_intertwiner_keeps_its_value_with_warm_memos_and_a_table_side(monkeypatch):
    # PiPhi's memos and its pullback are private slots outside its fields:
    # after calls fill the memos, the term phases among them, the row's
    # repr, equality and hash hold, and so they do for a copy, a deep copy
    # and a pickle, each holding the same memos and no private slot None;
    # another call order, or another order function read on the call, gives
    # a fresh pi's images; a table side leaves no pullback, held as () and
    # not None
    make, text, _, _, expected = next(row for row in TYPES if row[1].startswith("PiPhi("))
    warm = make()
    x = AlgebraElement(warm.ta.cocycle, {site((1,), (1,)): Cyclotomic.ONE.rotated(1, 4),
                                         site(): Cyclotomic.ONE})
    y = AlgebraElement(warm.ta.cocycle, {site((1,), (1,)): Cyclotomic.ONE * 2})
    assert warm(x) == warm(x) and warm._images and warm._indices and warm._phases
    assert repr(warm) == text and warm == make() and hash(warm) == expected
    images = [warm(x), warm(y)]
    assert [make()(z) for z in (y, x)] == images[::-1]
    private = [name for name in PiPhi.__slots__ if name.startswith("_")]
    for twin in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        assert twin == warm and repr(twin) == text and hash(twin) == expected
        assert [name for name in private if getattr(twin, name, None) is None] == []
        assert twin._phases == warm._phases and twin._images == warm._images
        assert [twin(z) for z in (x, y)] == images
    with monkeypatch.context() as patch:
        patch.setattr(classify, "spiral_index", lambda p: (-p.q, -p.r))
        assert [warm(z) for z in (x, y)] == [make()(z) for z in (x, y)]
        assert len(warm._indices) == 2
    assert [warm(z) for z in (x, y)] == images
    t = triplet()
    tab = Triplet(z2(), table(), t.character)
    for pi in (PiPhi(t, tab, AbHom.identity(z2())), PiPhi(tab, t, AbHom.identity(z2()))):
        slots = [name for name in type(pi).__slots__ if name.startswith("_")]
        assert [name for name in slots if getattr(pi, name, None) is None] == []
        assert pi._pullback == ()
        y = AlgebraElement(pi.ta.cocycle, x.terms)
        assert pi(y).terms == warm(x).terms


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_equality_against_another_class_is_false(row):
    a, other = TYPES[row][0](), TYPES[(row + 1) % len(TYPES)][0]()
    assert type(a).__eq__(a, other) is NotImplemented
    assert type(a).__ne__(a, other) is NotImplemented
    assert not a == other and a != other


def test_not_equal_negates_the_cyclotomic_equality():
    # the base's __ne__ negates the class's own __eq__, so a Cyclotomic is
    # equal across orders and to a number for != as for ==
    one, i = Cyclotomic.ONE, Cyclotomic.from_phase(Phase(1, 4))
    for a, b in ((one, one.rebase(4)), (i, i.rebase(12)), (one, 1), (1, one),
                 (Cyclotomic.from_rational(Fraction(1, 2)), Fraction(1, 2))):
        assert a == b and not a != b
    for a, b in ((i, one.rebase(4)), (one, 2), (2, one), (i, Phase(1, 4)), (Phase(1, 4), i)):
        assert a != b and not a == b
    assert Cyclotomic.__ne__(i, Phase(1, 4)) is NotImplemented


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_frozen_types_refuse_assignment(row):
    make, text, field, _, _ = TYPES[row]
    a = make()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before and repr(a) == text


@pytest.mark.parametrize("row", range(len(TYPES)))
def test_copies_and_pickles_are_equal(row):
    make, text, _, view, _ = TYPES[row]
    a = make()
    if view:
        getattr(a, view)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and repr(twin) == text


# The only types whose equality, hash or repr is not the base's: AbElem
# hashes its coordinates alone, Config its support alone (computed when built),
# a TableCocycle holds a dict and is not hashed, and a Cyclotomic compares
# across orders and with numbers and shows Fractions (defining __eq__ sets
# its __hash__ to None, as it was).
OVERRIDES = {
    "AbElem.__hash__", "Config.__hash__", "TableCocycle.__hash__",
    "Cyclotomic.__eq__", "Cyclotomic.__hash__", "Cyclotomic.__repr__",
}


def test_the_base_alone_defines_equality_hashing_and_repr():
    classes, todo = set(), [Immutable, *(type(make()) for make, *_ in TYPES), Cyclotomic]
    while todo:
        cls = todo.pop()
        if cls not in classes:
            classes.add(cls)
            todo += cls.__subclasses__()
    classes -= {Immutable}
    assert len(classes) == 20 and all(issubclass(cls, Immutable) for cls in classes)
    own = {f"{cls.__name__}.{name}" for cls in classes
           for name in ("__eq__", "__ne__", "__hash__", "__repr__") if name in vars(cls)}
    assert own == OVERRIDES
    assert TableCocycle.__hash__ is None and Cyclotomic.__hash__ is None
    # every slot is set by object.__setattr__, so no module binds (or calls)
    # a slot descriptor's own setter
    src = Path(tbshift.cli.__file__).parent
    setters = [f"{path.stem}:{node.lineno}" for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "__set__"]
    assert setters == []


def test_no_class_outside_the_base_defines_equality_or_hashing():
    # a class of the package that compares or hashes by its own methods
    # beside Immutable would be a second value model, with its own repr,
    # copies and assignment rules; classes nested in a class count too
    modules = [importlib.import_module(f"tbshift.{info.name}")
               for info in pkgutil.iter_modules(tbshift.__path__)]
    classes, todo = [], [vars(module) for module in modules]
    while todo:
        for value in todo.pop().values():
            ours = isinstance(value, type) and value.__module__.startswith("tbshift.")
            if ours and value not in classes:
                classes.append(value)
                todo.append(vars(value))
    assert AlgebraElement in classes and LatticePoint in classes
    own = [cls.__qualname__ for cls in classes if not issubclass(cls, Immutable)
           and {"__eq__", "__ne__", "__hash__"} & set(vars(cls))]
    assert own == []
