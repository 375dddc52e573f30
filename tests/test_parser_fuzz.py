"""A bounded fuzz of the triplet parser: mutations of `triplets/*.json`.

Each example takes one fixture triplet, may set its free rank (above
2**63 among the values) and drop its character or its phase list, and
applies one to three mutations: a node replaced by a value of another
type or an extreme one (torsion orders above 2**63 among them), a list
cut short or grown by one entry (the phases, the matrix rows, the table
entries), or a key removed.  Phase strings include decimal exponents
beyond `serialize.MAX_PHASE_EXPONENT`.  `triplet_from_json` must return a
Triplet or raise SchemaError, and `Triplet.validate`, the gate of every
CLI command, must then return or raise ValueError, both within the
deadline: any other exception would make the CLI exit 4.

A second fuzz keeps the file parseable: one to three of its phases (the
character's, a matrix entry's or a table entry's) become another phase,
or a torsion order another order in 2..12.  `validate`, `factor`,
`bicharacter` and `malleability --samples 1` then run through `cli.main`,
each under the deadline, and each must print one JSON object and exit 0,
1, 2 or 3.  `centralizer` and `conjugate` are left out: their searches on
a mutated (Z/3)^4 can run long.

A third test holds `phase_from_json`, which reads the plain form p/q with
`int`, against `Fraction`'s reading of every text: the same Phase, or a
SchemaError of the same text, never another exception.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import deadline
from oracles import fraction_phase_from_json
from tbshift.cli import main
from tbshift.dynamics import Triplet
from tbshift.serialize import SchemaError, phase_from_json, triplet_from_json

TRIPLETS = {
    path.name: json.loads(path.read_text("utf-8"))
    for path in sorted((Path(__file__).resolve().parent.parent / "triplets").glob("*.json"))
}

INTS = st.one_of(
    st.integers(-3, 8),
    st.integers(-(2 ** 80), 2 ** 80),
    st.sampled_from([2 ** 20, 2 ** 20 + 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 20]),
)
PHASES = st.one_of(
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-12, 12)),
    st.builds("{}/{}".format, st.integers(2 ** 62, 2 ** 70), st.integers(2 ** 62, 2 ** 70)),
    st.text(max_size=6),
    st.sampled_from(["", "1/0", "0.5", "-0", " 1/3 ", "1e3", "1_0/3", "nan", "inf"]),
    st.builds("{}e{}".format, st.sampled_from(["1", "-2.5", "0"]),
              st.integers(-10 ** 12, 10 ** 12) | st.integers(4290, 4310)),
    st.sampled_from(["1e4301", "1E-4301", "1e4_301", "1e+99999999999", "1e4300"]),
)
LEAVES = st.one_of(INTS, PHASES, st.booleans(), st.none(),
                   st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.one_of(LEAVES, st.lists(LEAVES, max_size=3), st.lists(PHASES, max_size=4),
                   st.dictionaries(st.sampled_from(["free_rank", "torsion", "phases", "kind"]),
                                   LEAVES, max_size=2))
# where a mutation lands: anywhere, or under one of the parts the parser
# reads, so each is mutated often whatever the size of the table
FOCUS = [(), ("group", "free_rank"), ("group", "torsion"), ("character",),
         ("character", "phases"), ("cocycle", "matrix"), ("cocycle", "entries"),
         ("cocycle", "kind")]


def _nodes(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _mutate(data, obj):
    focus = data.draw(st.sampled_from(FOCUS))
    paths = [p for p in _nodes(obj) if p[:len(focus)] == focus] or list(_nodes(obj))
    path = data.draw(st.sampled_from(paths))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else obj
    kind = data.draw(st.sampled_from(["replace", "shorten", "extend", "drop"]))
    if kind == "shorten" and isinstance(node, list) and node:
        node.pop(data.draw(st.integers(0, len(node) - 1)))
    elif kind == "extend" and isinstance(node, list):
        extra = copy.deepcopy(data.draw(st.sampled_from(node))) if node else data.draw(VALUES)
        node.append(extra)
    elif kind == "drop" and isinstance(parent, dict) and path:
        del parent[path[-1]]
    elif path:
        # an int or a phase string mostly becomes another of its kind
        same = INTS if type(node) is int else PHASES if isinstance(node, str) else VALUES
        parent[path[-1]] = data.draw(st.one_of(same, VALUES))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_mutated_triplet_file_is_a_triplet_or_a_schema_error(fraction_guard, data):
    obj = copy.deepcopy(TRIPLETS[data.draw(st.sampled_from(sorted(TRIPLETS)))])
    # the parser bounds the free rank by the character's phase list, so
    # both are drawn on their own before one to three mutations
    free_rank = data.draw(st.none() | INTS)
    if free_rank is not None:
        obj["group"]["free_rank"] = free_rank
    character = data.draw(st.sampled_from(["kept", "dropped", "phases not a list"]))
    if character == "dropped":
        del obj["character"]
    elif character == "phases not a list":
        obj["character"]["phases"] = data.draw(LEAVES)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, obj)
    with deadline(2):
        try:
            result = triplet_from_json(obj)
        except SchemaError:
            return
        assert isinstance(result, Triplet)
        try:
            result.validate()
        except ValueError:  # CocycleError among them
            pass


# texts the plain-form reader must read as `Fraction` does, or refuse with
# the same SchemaError: int's 4300-digit limit on either side of the slash,
# zero denominators, and the forms only Fraction reads
NAMED_PHASES = {
    "numerator-of-4301-digits": "1" * 4301 + "/3",
    "negative-numerator-of-5000-digits": "-" + "7" * 5000,
    "denominator-of-4301-digits": "1/" + "9" * 4301,
    "zero-denominator": "1/0",
    "two-digit-zero-denominator": "1/00",
    "plus-sign": "+1/2",
    "leading-space": " 1/2",
    "underscore": "1_0/3",
    "arabic-indic-digits": "\u0661/\u0662",
    "negative-denominator": "1/-2",
    "leading-zeros": "-007/010",
    "trailing-newline": "1/2\n",
}
PHASE_TEXTS = st.one_of(
    st.sampled_from(sorted(NAMED_PHASES.values())),
    st.builds("{}/{}".format, st.integers(-10 ** 30, 10 ** 30), st.integers(-20, 10 ** 30)),
    st.from_regex(r"-?[0-9]{1,5}(/[0-9]{1,5})?", fullmatch=True),
    st.text(alphabet="-+/0123456789_. eE\u0661\u0662", max_size=8),
    PHASES,
)


def _read(reader, text):
    """The phase `reader` reads from text, or the text of its SchemaError;
    any other exception propagates and fails the test."""
    try:
        return reader(text, "$.phase")
    except SchemaError as exc:
        return f"SchemaError: {exc}"


@pytest.mark.parametrize("text", NAMED_PHASES.values(), ids=NAMED_PHASES.keys())
def test_a_named_phase_text_reads_as_fraction_reads_it(text):
    with deadline(2):
        assert _read(phase_from_json, text) == _read(fraction_phase_from_json, text)


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(PHASE_TEXTS)
def test_a_phase_text_reads_as_its_fraction_or_the_same_refusal(fraction_guard, text):
    with deadline(2):
        assert _read(phase_from_json, text) == _read(fraction_phase_from_json, text)


# the parts of a file a parseable mutation may change: its phase strings
# and its torsion orders
PHASE_PARTS = [("character", "phases"), ("cocycle", "matrix"), ("cocycle", "entries")]
SMALL_PHASES = st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 12))
COMMANDS = [["validate"], ["factor"], ["bicharacter"], ["malleability", "--samples", "1"]]


def _mutate_keeping_it_parseable(data, obj):
    spots = [path for path in _nodes(obj)
             if path[:2] in PHASE_PARTS and isinstance(_at(obj, path), str)
             or path[:2] == ("group", "torsion") and len(path) == 3]
    path = data.draw(st.sampled_from(spots))
    value = SMALL_PHASES if path[0] != "group" else st.integers(2, 12)
    _at(obj, path[:-1])[path[-1]] = data.draw(value)


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_parseable_mutation_gets_json_and_a_documented_exit(tmp_path_factory, data):
    obj = copy.deepcopy(TRIPLETS[data.draw(st.sampled_from(sorted(TRIPLETS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_keeping_it_parseable(data, obj)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for command in COMMANDS:
        out = io.StringIO()
        with deadline(5), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], str(path), *command[1:]])
        assert isinstance(json.loads(out.getvalue()), dict), command
        assert code in (0, 1, 2, 3), (command, out.getvalue())
