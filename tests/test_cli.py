"""Exit codes and JSON stdout of the CLI on invalid input."""

import ast
import contextlib
import io
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import deadline
from tbshift import algebra, cli, dynamics, selftest, serialize
from tbshift.abelian import Character
from tbshift.cli import EXIT_INTERNAL, EXIT_INVALID, EXIT_NO, EXIT_OK, EXIT_UNKNOWN, main
from tbshift.scalars import Cyclotomic


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("q", ["1", "0", "-3"])
def test_selftest_rejects_modulus_below_two(q):
    code, payload = _run(["selftest", "--suite", "malleability", "--q", q])
    assert code == EXIT_INVALID
    assert payload["ok"] is False
    assert "torsion orders" in payload["detail"]


def test_selftest_rejects_modulus_below_two_before_any_suite(monkeypatch, capsys):
    def never(rng):
        raise AssertionError("a bad --q is refused before any suite runs")

    for name in selftest.SUITES:
        if name != "malleability":
            monkeypatch.setitem(selftest.SUITES, name, never)
    assert main(["selftest", "--q", "1"]) == EXIT_INVALID
    assert capsys.readouterr().out == (
        '{\n  "detail": "torsion orders must be >= 2",\n  "ok": false\n}\n'
    )


def test_selftest_ignores_modulus_without_the_malleability_suite():
    code, payload = _run(["selftest", "--suite", "detgcd", "--q", "1"])
    assert code == EXIT_OK and payload["ok"] is True


@pytest.mark.parametrize("suite", [[], ["--suite", "malleability"]])
def test_selftest_refuses_modulus_above_the_flow_bound(suite):
    # (Z/1000)^2 has 10^6 elements: refused before any suite runs
    start = time.perf_counter()
    code, payload = _run(["selftest", *suite, "--q", "1000"])
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID
    assert payload == {
        "ok": False,
        "detail": "the flow is only run for |H| <= 1024, got 1000000",
    }


def test_malleability_refuses_groups_above_the_flow_bound(tmp_path):
    triplet = {
        "group": {"free_rank": 0, "torsion": [64, 64]},
        "cocycle": {"kind": "bichar", "matrix": [["0/1", "1/64"], ["0/1", "0/1"]]},
        "character": {"phases": ["1/64", "0/1"]},
    }
    path = tmp_path / "mod64.json"
    path.write_text(json.dumps(triplet), encoding="utf-8")
    start = time.perf_counter()
    code, payload = _run(["malleability", str(path)])
    assert time.perf_counter() - start < 1
    assert code == EXIT_UNKNOWN
    assert payload == {"ok": False, "detail": "the flow is only run for |H| <= 1024, got 4096"}


def test_malleability_on_z16_squared_finishes_within_its_deadline(tmp_path):
    # a bound case no benchmark workload reaches: |H| = 256 at the default --samples
    triplet = {
        "group": {"free_rank": 0, "torsion": [16, 16]},
        "cocycle": {"kind": "bichar", "matrix": [["0/1", "1/16"], ["0/1", "0/1"]]},
        "character": {"phases": ["1/16", "0/1"]},
    }
    path = tmp_path / "mod16.json"
    path.write_text(json.dumps(triplet), encoding="utf-8")
    with deadline(5):
        code, payload = _run(["malleability", str(path)])
    assert code == EXIT_OK
    assert payload == {"ok": True, "self_adjoint": True, "square_is_order": True,
                       "full_swap": True, "half_composition": True,
                       "character_commutation": True}


def test_factor_reports_no_zero_witness(tmp_path):
    # the rational kernel of this star form is spanned by (0, -8, 3), which
    # is the zero element of Z x Z/4 x Z/3; no torsion element pairs trivially
    triplet = {
        "group": {"free_rank": 1, "torsion": [4, 3]},
        "cocycle": {"kind": "bichar", "matrix": [["0", "1/4", "2/3"], ["0", "0", "0"], ["0", "0", "0"]]},
        "character": {"phases": ["0", "0", "0"]},
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(triplet), encoding="utf-8")
    assert _run(["validate", str(path)]) == (EXIT_OK, {"ok": True})
    assert _run(["factor", str(path)]) == (EXIT_OK, {"nondegenerate": True})


def _write(tmp_path, name, torsion, matrix, free_rank=0, phases=None):
    path = tmp_path / name
    triplet = {
        "group": {"free_rank": free_rank, "torsion": list(torsion)},
        "cocycle": {"kind": "bichar", "matrix": matrix},
        "character": {"phases": phases or ["0"] * (free_rank + len(torsion))},
    }
    path.write_text(json.dumps(triplet), encoding="utf-8")
    return str(path)


def test_validate_names_the_phase_a_torsion_order_does_not_kill(tmp_path):
    # "4/12" and "1/2" become the ints (2, 3) over their lcm 6; the
    # refusal names the first one as its reduced phase 1/3
    path = _write(tmp_path, "chi.json", (2, 2), [["0", "0"], ["0", "0"]],
                  phases=["4/12", "1/2"])
    detail = "phase 1/3 is not killed by the generator order 2"
    assert _run(["validate", path]) == (EXIT_INVALID, {
        "ok": False,
        "violation": "schema",
        "detail": f"$.character.phases: {detail}",
        "path": "$.character.phases",
    })


def test_a_phase_exponent_beyond_the_bound_is_invalid_input(tmp_path, fraction_guard):
    path = _write(tmp_path, "exp.json", (2, 2), [["0", "0"], ["0", "0"]], phases=["1e5000", "0"])
    detail = "$.character.phases[0]: bad phase '1e5000': exponent beyond 4300"
    assert _run(["validate", path]) == (EXIT_INVALID, {
        "ok": False, "violation": "schema", "detail": detail, "path": "$.character.phases[0]"})
    assert _run(["factor", path]) == (EXIT_INVALID, {
        "ok": False, "violation": "invalid-input", "detail": detail})


def test_factor_on_free_rank_three_finds_the_odd_rank_kernel(tmp_path):
    # every antisymmetric form of odd rank is singular; the antisymmetric
    # lift [[0, 15, 10], [-15, 0, 6], [-10, -6, 0]] / 30 has kernel (6, -10, 15)
    path = _write(tmp_path, "z3.json", (), [["0", "1/2", "1/3"], ["0", "0", "1/5"], ["0", "0", "0"]], 3)
    assert _run(["factor", path]) == (EXIT_NO, {"nondegenerate": False, "witness_g": [-6, 10, -15]})


def test_factor_on_a_huge_cyclic_group(tmp_path):
    path = _write(tmp_path, "z2_70.json", (2 ** 70,), [["0"]])
    assert _run(["factor", path]) == (EXIT_NO, {"nondegenerate": False, "witness_g": [1]})


@pytest.mark.parametrize("free_rank", [10 ** 20, 2 ** 31])
def test_a_free_rank_above_the_phase_count_is_refused_before_the_group_is_built(
        tmp_path, monkeypatch, free_rank):
    # a group of this free rank would hold a tuple of free_rank zeros, which
    # overflows at 10**20 and does not fit in memory at 2**31; the character
    # lists one phase, or has no phase list and the rank is above
    # MAX_FREE_RANK = 2**20, so every command refuses the file without
    # building it
    def never(*args):
        raise AssertionError("the group was built")

    monkeypatch.setattr(serialize, "AbGroup", never)
    path = _write(tmp_path, "huge.json", (), [["0"]], free_rank, phases=["0"])
    triplet = json.loads(Path(path).read_text("utf-8"))
    del triplet["character"]
    missing = tmp_path / "no_character.json"
    missing.write_text(json.dumps(triplet), encoding="utf-8")
    triplet["character"] = {"phases": "0"}
    no_list = tmp_path / "phases_not_a_list.json"
    no_list.write_text(json.dumps(triplet), encoding="utf-8")
    above = f"$.group.free_rank: free rank {free_rank} exceeds {2 ** 20}"
    for path, detail in ((path, f"$.group.free_rank: free rank {free_rank} exceeds the length 1 "
                                "of the character's phases"),
                         (str(missing), above), (str(no_list), above)):
        assert _run(["validate", path]) == (EXIT_INVALID, {
            "ok": False, "violation": "schema", "detail": detail, "path": "$.group.free_rank"})
        for argv in (["factor", path], ["bicharacter", path], ["centralizer", path],
                     ["malleability", path], ["conjugate", path, path]):
            assert _run(argv) == (EXIT_INVALID, {
                "ok": False, "violation": "invalid-input", "detail": detail})


def _too_many(size):
    return f"the isomorphism search would build {size} candidate images, more than its limit of {2 ** 26}"


@pytest.mark.parametrize("exponent", [40, 70])
def test_searches_on_a_huge_cyclic_group_are_unknown_up_front(tmp_path, exponent):
    # Z/2^e: the pools would hold 2^e candidate images; they are counted
    # from the torsion orders, not built
    n = 2 ** exponent
    path = _write(tmp_path, "z2.json", (n,), [["0"]])
    chi = tmp_path / "z2_chi.json"
    chi.write_text(Path(path).read_text("utf-8").replace('["0"]}', f'["1/{n}"]}}'), encoding="utf-8")
    with deadline(1):
        centralizer = _run(["centralizer", path])
        same = _run(["conjugate", path, path])
        # chi^2 of order 2^(e-1) against the trivial one: the invariants
        # still answer NO; the cocycle check they leave open is null
        other = _run(["conjugate", str(chi), path])
    assert centralizer == (EXIT_UNKNOWN, {
        "verdict": "UNKNOWN", "complete": False, "elements": [], "order": None,
        "structure": None, "note": _too_many(n),
    })
    assert same == (EXIT_UNKNOWN, {
        "verdict": "UNKNOWN", "witness": None, "checks": {"cocycle": False, "character": False},
        "complete": False, "note": _too_many(n),
    })
    assert other == (EXIT_NO, {
        "verdict": "NO", "witness": None, "checks": {"cocycle": None, "character": False},
        "complete": True, "note": _too_many(n),
    })


def test_bounded_searches_in_a_huge_box_are_unknown_up_front(tmp_path):
    # Z^3 with entries up to 10^4: each of the three pools would hold
    # 20001^3 candidate images
    path = _write(tmp_path, "z3.json", (), [["0", "1/2", "1/3"], ["0", "0", "1/5"], ["0", "0", "0"]], 3)
    with deadline(1):
        runs = [_run(["centralizer", path, "--bound", "10000"]),
                _run(["conjugate", path, path, "--bound", "10000"])]
    for code, payload in runs:
        assert code == EXIT_UNKNOWN and payload["verdict"] == "UNKNOWN"
        assert payload["complete"] is False and payload["note"] == _too_many(3 * 20001 ** 3)


@pytest.mark.parametrize("torsion, witness", [
    ((2 ** 22,), [[1]]),
    ((2 ** 11, 2 ** 11), [[0, 1], [1, 0]]),
])
def test_a_yes_at_the_first_candidates_walks_no_whole_pool(tmp_path, torsion, witness):
    # 2^22 candidate images for each generator, all with chi^2 = 0: the
    # first one of full order (that adds a direct summand) is a hit, so
    # a search that built each pool before its first node would run past
    # the deadline
    path = _write(tmp_path, "z2.json", torsion, [["0"] * len(torsion)] * len(torsion))
    with deadline(1):
        code, payload = _run(["conjugate", path, path])
    assert code == EXIT_OK and payload["verdict"] == "YES" and payload["complete"] is True
    assert payload["witness"] == {"matrix": witness}


def test_a_yes_at_the_first_candidates_copies_no_coordinate_range(tmp_path):
    # the pool of Z/2^22 walks one coordinate range of 2^22 entries; a walk
    # that copied it into a tuple first (as itertools.product does) peaked
    # at about 160 MiB here
    path = _write(tmp_path, "z2.json", (2 ** 22,), [["0"]])
    tracemalloc.start()
    try:
        code, payload = _run(["conjugate", path, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and payload["verdict"] == "YES"
    assert peak < 8 * 2 ** 20


def test_centralizer_walks_the_chi_filtered_pool_at_every_node(tmp_path):
    # chi^2 keeps 211 of the 211^2 candidate images of the second
    # generator; each of the 211 nodes at that depth must walk only those,
    # not the whole product (about 9.4M draws, seconds past the deadline)
    path = _write(tmp_path, "z211chi.json", (211, 211), [["0", "1/211"], ["0", "0"]],
                  phases=["1/211", "0"])
    with deadline(2):
        code, payload = _run(["centralizer", path])
    assert code == EXIT_OK and payload["complete"] is True
    assert payload["order"] == 211 and payload["structure"] == "Z/211"
    assert payload["elements"] == [{"matrix": [[1, 0], [k, 1]]} for k in range(211)]


def test_factor_on_order_1009_squared_is_fast(tmp_path):
    path = _write(tmp_path, "z1009.json", (1009, 1009), [["0", "1/1009"], ["0", "0"]])
    with deadline(1):
        assert _run(["factor", path]) == (EXIT_OK, {"nondegenerate": True})


def test_conjugate_on_order_211_squared_is_fast(tmp_path):
    path = _write(tmp_path, "z211.json", (211, 211), [["0", "1/211"], ["0", "0"]])
    with deadline(3):
        code, payload = _run(["conjugate", path, path])
    # with trivial chi every pool is all of H; the first hit swaps the
    # generators up to sign, so det = 1 keeps the s1*t2 star form
    assert code == EXIT_OK and payload["verdict"] == "YES"
    assert payload["witness"] == {"matrix": [[0, 210], [1, 0]]}


def test_conjugate_no_on_order_211_squared_is_fast(tmp_path):
    # the star radicals (0 and all of H) differ, so the cocycle condition
    # is settled without a search; the character search stops at its
    # first hit
    a = _write(tmp_path, "z211.json", (211, 211), [["0", "1/211"], ["0", "0"]])
    b = _write(tmp_path, "z211_trivial.json", (211, 211), [["0", "0"], ["0", "0"]])
    with deadline(3):
        code, payload = _run(["conjugate", a, b])
    assert code == EXIT_NO and payload == {
        "checks": {"character": True, "cocycle": False},
        "complete": True,
        "note": "",
        "verdict": "NO",
        "witness": None,
    }


TABLE = Path(__file__).resolve().parent.parent / "triplets" / "mod3_table.json"


def _edited_table(tmp_path, drop=None, replace=None):
    """mod3_table.json with the entry at index drop removed, or with
    replace = (index, phase) giving one entry another value."""
    triplet = json.loads(TABLE.read_text("utf-8"))
    entries = triplet["cocycle"]["entries"]
    if drop is not None:
        del entries[drop]
    if replace is not None:
        index, phase = replace
        entries[index][2] = phase
    path = tmp_path / "table.json"
    path.write_text(json.dumps(triplet), encoding="utf-8")
    return str(path)


def test_validate_refuses_a_table_with_a_missing_entry(tmp_path):
    path = _edited_table(tmp_path, drop=40)  # ((1, 1), (1, 1))
    code, payload = _run(["validate", path])
    assert code == EXIT_INVALID
    assert payload == {
        "ok": False,
        "violation": "table",
        "detail": "table: missing entry ((1, 1), (1, 1))",
    }


@pytest.mark.parametrize("command", ["validate", "factor"])
def test_a_table_over_a_huge_group_is_refused_at_its_first_missing_entry(tmp_path, command):
    # the 81 entries of mod3_table.json over Z/(3*10**12) + Z/3: the scan
    # meets the missing pair after ten pairs, without listing the group
    triplet = json.loads(TABLE.read_text("utf-8"))
    triplet["group"]["torsion"] = [3 * 10 ** 12, 3]
    path = tmp_path / "huge_table.json"
    path.write_text(json.dumps(triplet), encoding="utf-8")
    with deadline(2):
        code, payload = _run([command, str(path)])
    assert code == EXIT_INVALID
    assert payload == {"ok": False, "violation": "table" if command == "validate" else "invalid-input",
                       "detail": "table: missing entry ((0, 0), (3, 0))"}


def test_validate_refuses_a_table_that_breaks_the_cocycle_identity(tmp_path):
    # mu((1, 0), (0, 1)) = 1/3 becomes 2/3; the values on the axes stay 0
    path = _edited_table(tmp_path, replace=(28, "2/3"))
    code, payload = _run(["validate", path])
    assert code == EXIT_INVALID
    assert payload["ok"] is False and payload["violation"] == "cocycle-identity"


FIXTURE = "triplets/lattice_theta_1_16_chi_1_5.json"


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)


def test_malleability_runs_the_degeneracy_witness_once(at_root, monkeypatch):
    calls = []
    witness = algebra.degeneracy_witness

    def counted(mu):
        calls.append(mu)
        return witness(mu)

    monkeypatch.setattr(algebra, "degeneracy_witness", counted)
    code, payload = _run(["malleability", "triplets/mod3_standard.json", "--samples", "2"])
    assert code == 0 and payload["ok"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [["centralizer", FIXTURE], ["conjugate", FIXTURE, FIXTURE]])
def test_bound_below_one_is_invalid_input(at_root, command, bound):
    # a box with no nonzero free entry holds no isomorphism, not even the identity
    code, payload = _run(command + ["--bound", bound])
    assert code == EXIT_INVALID
    assert payload == {
        "ok": False,
        "violation": "invalid-input",
        "detail": f"--bound must be at least 1, got {bound}",
    }


@pytest.mark.parametrize("samples", ["0", "-5", "101", "1000000000000"])
def test_malleability_rejects_samples_below_one(at_root, samples):
    # and above MAX_SAMPLES, refused before any sample runs
    with deadline(5):
        code, payload = _run(["malleability", "triplets/mod3_standard.json", "--samples", samples])
    assert code == EXIT_INVALID
    assert payload["ok"] is False and payload["violation"] == "invalid-input"
    assert "--samples" in payload["detail"]


@pytest.mark.parametrize(
    "data, detail",
    [
        (b"[" * 100_000, "nests too deeply"),
        (b"\xff\xfe{}", "is not UTF-8 text"),
        # json refuses an int of more than 4,300 digits with a plain ValueError
        (b'{"group": {"free_rank": 0, "torsion": [' + b"7" * 5000 + b"]}}", "is not JSON"),
    ],
    ids=["deep", "not-utf8", "too-long-int"],
)
@pytest.mark.parametrize(
    "command, violation",
    [(["validate"], "schema"), (["centralizer"], "invalid-input"), (["factor"], "invalid-input")],
)
def test_deeply_nested_file_is_invalid_input(tmp_path, command, violation, data, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, payload = _run(command + [str(path)])
    assert code == EXIT_INVALID
    assert payload["ok"] is False and payload["violation"] == violation
    assert detail in payload["detail"]
    if violation == "schema":
        assert payload["path"] == "$"


def test_uncaught_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("table out of step")

    monkeypatch.setattr(cli, "cmd_factor", broken)
    code = main(["factor", "triplets/mod3_standard.json"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert json.loads(captured.out) == {
        "ok": False,
        "violation": "internal",
        "detail": "RuntimeError: table out of step",
    }
    assert "Traceback" in captured.err


def test_a_payload_that_cannot_be_written_is_an_internal_error(at_root, monkeypatch, capsys):
    # serialized inside the guard: stdout holds the internal-error JSON alone
    monkeypatch.setattr(cli, "cmd_factor", lambda args: ({"witness_g": {1, 2}}, EXIT_NO))
    code = main(["factor", "triplets/mod3_standard.json"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert json.loads(captured.out) == {
        "ok": False,
        "violation": "internal",
        "detail": "TypeError: Object of type set is not JSON serializable",
    }
    assert "Traceback" in captured.err


def test_only_main_and_the_usage_error_write_stdout():
    # every command returns its payload; `main` writes it, and `_Parser.error`
    # the usage error argparse raises before any command runs
    tree = ast.parse(Path(cli.__file__).read_text("utf-8"))
    writers, stdout = [], []
    for stmt in tree.body:
        for fn in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = fn.name if fn is stmt else f"{stmt.name}.{fn.name}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id in ("_emit", "print"):
                    writers.append(name)
                elif isinstance(node, ast.Attribute) and node.attr == "stdout":
                    stdout.append(name)
    assert sorted(writers) == ["_Parser.error", "main", "main"]
    assert stdout == ["_emit"]


def test_the_weakmixing_suite_fails_and_ends_with_a_wrong_trace(monkeypatch):
    # a trace off by one leaves no shift that factorizes some of the suite's
    # elements; the bounded search gives up on them instead of running on
    trace = algebra.AlgebraElement.trace
    monkeypatch.setattr(algebra.AlgebraElement, "trace",
                        lambda self: trace(self) + Cyclotomic.ONE)
    with deadline(5):
        code, payload = _run(["selftest", "--suite", "weakmixing"])
    assert code == EXIT_NO
    assert payload == {"ok": False, "suites": {"weakmixing": {"ok": False, "witnesses": 2}}}


def test_the_weakmixing_suite_fails_on_a_beta_that_ignores_the_move(monkeypatch):
    # every other case appends a* to its first element a, and tr(a a*) is
    # not tr(a) tr(a*) for a non-scalar a: its witness is off the origin,
    # so a shift that moves nothing finds none for those four cases
    monkeypatch.setattr(dynamics, "beta", lambda t, move, x: x)
    with deadline(5):
        code, payload = _run(["selftest", "--suite", "weakmixing"])
    assert code == EXIT_NO
    assert payload == {"ok": False, "suites": {"weakmixing": {"ok": False, "witnesses": 4}}}


def test_the_actions_suite_fails_on_a_rho_that_drops_the_character(monkeypatch):
    # rho(c) multiplies by c of the total content, which is 0 on a zero-sum
    # configuration: the suite's units at one nonzero site see the loss
    rho = dynamics.rho
    monkeypatch.setattr(dynamics, "rho", lambda t, g, x: rho(
        t, dynamics.Motion(Character.trivial(t.group), g.move), x))
    with deadline(5):
        code, payload = _run(["selftest", "--suite", "actions"])
    assert code == EXIT_NO
    assert payload == {"ok": False, "suites": {"actions": {
        "ok": False, "associativity_failures": 0, "relation_failures": 4}}}


def test_command_replaced_after_the_parser_is_built_is_the_one_run(at_root, monkeypatch, capsys):
    assert main(["validate", "triplets/mod3_standard.json"]) == EXIT_OK

    def broken(args):
        raise RuntimeError("replaced later")

    monkeypatch.setattr(cli, "cmd_factor", broken)
    capsys.readouterr()
    assert main(["factor", "triplets/mod3_standard.json"]) == EXIT_INTERNAL
    assert json.loads(capsys.readouterr().out) == {
        "ok": False,
        "violation": "internal",
        "detail": "RuntimeError: replaced later",
    }


def test_parser_is_built_once_per_process(at_root, monkeypatch, capsys):
    path = "triplets/mod3_standard.json"
    assert main(["validate", path]) == EXIT_OK
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for argv in (["validate", path], ["factor", path], ["bicharacter", path],
                 ["conjugate", path, path]):
        assert main(argv) == EXIT_OK
    with pytest.raises(SystemExit) as stop:
        main(["factor"])
    assert stop.value.code == EXIT_INVALID
    capsys.readouterr()
    assert built == []


@pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(7)])
def test_exit_and_interrupt_are_not_caught(monkeypatch, exc):
    def stopped(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_factor", stopped)
    with pytest.raises(type(exc)):
        main(["factor", "triplets/mod3_standard.json"])


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["selftest", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["centralizer", FIXTURE, "--bound", "abc"], "argument --bound: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["centralizer"], "the following arguments are required: path"),
    ],
)
def test_usage_error_is_json(at_root, argv, detail, capsys):
    # after a command that succeeded, and twice: a reused parser keeps no state
    assert main(["factor", "triplets/mod3_standard.json"]) == EXIT_OK
    capsys.readouterr()
    runs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == EXIT_INVALID
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]
    payload = json.loads(runs[0].out)
    assert payload["ok"] is False and payload["violation"] == "usage"
    assert payload["detail"].startswith(detail)
    assert runs[0].err.startswith("usage: tbshift")


def test_help_is_not_a_usage_error(at_root, capsys):
    assert main(["factor", "triplets/mod3_standard.json"]) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    captured = capsys.readouterr()
    assert stop.value.code == 0
    assert captured.out.startswith("usage: tbshift") and captured.err == ""
