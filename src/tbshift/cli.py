"""Command-line surface: triplet files in, sorted JSON out.

Exit codes: 0 success/YES, 1 NO (or a failed check), 2 invalid input,
3 UNKNOWN, 4 internal error.  Each `cmd_<command>` returns (payload, exit
code) and writes nothing; `main` alone writes stdout.  A command refuses
input by raising `_Invalid`: exit 2 with
{"ok": false, "violation": "invalid-input", "detail": "<message>"}.  Any
other exception, one raised while serializing the payload too, exits 4
with {"ok": false, "violation": "internal", "detail": "<Type>: <message>"}
and the traceback on stderr.  A usage error (a missing or unknown
command, argument or choice, or an option of the wrong type) exits 2 with
{"ok": false, "violation": "usage", "detail": "<message>"} on stdout and
the usage text on stderr.  Output is deterministic: identical inputs give
byte-identical JSON.

`build_parser()` is cached: its first call builds the argument parser,
and every later call in the process, `main`'s among them, returns that
one, so callers that run many commands in-process pay for one build.
Importing this module builds nothing; a fresh process pays for the one
build that the start-up measurement times.  The command function is
looked up by name (`cmd_<command>`) at each call, so a function replaced
on the module after the parser exists is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional

from .algebra import FlowRefused, check_malleability, malleability_unitary
from .classify import centralizer, decide_conjugacy
from .cocycle import CocycleError, degeneracy_witness, star_bicharacter
from .dynamics import Triplet
from .selftest import SUITES, run_suites
from .serialize import (
    SchemaError,
    element_to_json,
    hom_to_json,
    triplet_from_json,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INVALID = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4

# ten times the --samples default; a sample costs about 0.6 s at |H| = 1024
MAX_SAMPLES = 100


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_triplet(path: str) -> Triplet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc}") from None
    except RecursionError:
        raise SchemaError("$", f"{path} nests too deeply to parse") from None
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise SchemaError("$", f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise SchemaError("$", f"{path} is not JSON: {exc}") from None
    return triplet_from_json(raw)


def cmd_validate(args) -> tuple:
    try:
        _load_triplet(args.path).validate()
    except SchemaError as exc:
        return ({"ok": False, "violation": "schema", "detail": str(exc), "path": exc.path},
                EXIT_INVALID)
    except CocycleError as exc:
        return {"ok": False, "violation": exc.violation, "detail": str(exc)}, EXIT_INVALID
    except ValueError as exc:
        return {"ok": False, "violation": "invariant", "detail": str(exc)}, EXIT_INVALID
    return {"ok": True}, EXIT_OK


class _Invalid(Exception):
    """Input a command refuses; `main` reports it as invalid input, exit 2."""


def _triplet(path: str) -> Triplet:
    try:
        triplet = _load_triplet(path)
        triplet.validate()
    except ValueError as exc:  # SchemaError and CocycleError among them
        raise _Invalid(str(exc)) from None
    return triplet


def _at_least_one(flag: str, value: Optional[int]) -> None:
    """Refuse a count option below 1; None means unset.

    A --bound below 1 leaves no nonzero free matrix entry, so no
    isomorphism; --samples below 1 checks nothing.
    """
    if value is not None and value < 1:
        raise _Invalid(f"{flag} must be at least 1, got {value}")


def cmd_centralizer(args) -> tuple:
    _at_least_one("--bound", args.bound)
    report = centralizer(_triplet(args.path), bound=args.bound)
    payload = {
        "verdict": report.verdict,
        "complete": report.complete,
        "elements": [hom_to_json(f) for f in report.elements],
        "order": len(report.elements) if report.verdict == "OK" else None,
        "structure": report.structure.description if report.structure else None,
        "note": report.note,
    }
    return payload, EXIT_OK if report.verdict in ("OK", "INFINITE") else EXIT_UNKNOWN


def cmd_conjugate(args) -> tuple:
    _at_least_one("--bound", args.bound)
    report = decide_conjugacy(_triplet(args.path_a), _triplet(args.path_b), bound=args.bound)
    payload = {
        "verdict": report.verdict,
        "witness": hom_to_json(report.witness) if report.witness else None,
        "checks": report.checks,
        "complete": report.complete,
        "note": report.note,
    }
    return payload, {"YES": EXIT_OK, "NO": EXIT_NO}.get(report.verdict, EXIT_UNKNOWN)


def cmd_factor(args) -> tuple:
    witness = degeneracy_witness(_triplet(args.path).cocycle)
    payload = {"nondegenerate": witness is None}
    if witness is not None:
        payload["witness_g"] = element_to_json(witness)
    return payload, EXIT_OK if witness is None else EXIT_NO


def cmd_bicharacter(args) -> tuple:
    star = star_bicharacter(_triplet(args.path).cocycle)
    payload = {
        "antisymmetric": True,  # mu(g, h) - mu(h, g) is alternating by construction
        "matrix": [[str(p) for p in row] for row in star.matrix],
    }
    return payload, EXIT_OK


def cmd_malleability(args) -> tuple:
    _at_least_one("--samples", args.samples)
    if args.samples > MAX_SAMPLES:
        raise _Invalid(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    triplet = _triplet(args.path)
    try:
        v = malleability_unitary(triplet.cocycle)
    except ValueError as exc:
        code = EXIT_UNKNOWN if isinstance(exc, FlowRefused) else EXIT_NO
        return {"ok": False, "detail": str(exc)}, code
    checks = check_malleability(v, random.Random(5), args.samples)
    checks["square_is_order"] = checks.pop("square")
    payload = {"ok": all(checks.values()), **checks}
    return payload, EXIT_OK if payload["ok"] else EXIT_NO


def cmd_selftest(args) -> tuple:
    names = [args.suite] if args.suite else None
    try:
        report = run_suites(names, args.q)
    except ValueError as exc:  # a --q that names no group, or a group the flow refuses
        return {"ok": False, "detail": str(exc)}, EXIT_INVALID
    return report, EXIT_OK if report["ok"] else EXIT_NO


class _Parser(argparse.ArgumentParser):
    """argparse with the JSON contract for usage errors; subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        _emit({"ok": False, "violation": "usage", "detail": message})
        sys.exit(EXIT_INVALID)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tbshift",
        description="Exact algebra for twisted Bernoulli shift data: "
        "validate triplet files, decide conjugacy, compute centralizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a triplet file against all invariants")
    p.add_argument("path")

    p = sub.add_parser("centralizer", help="automorphisms commuting with the action")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("conjugate", help="decide conjugacy of two triplets")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("factor", help="nondegeneracy (factoriality) of the cocycle")
    p.add_argument("path")

    p = sub.add_parser("bicharacter", help="print the star bicharacter matrix")
    p.add_argument("path")

    p = sub.add_parser("malleability", help="run the tensor-square flow checks")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=10)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--suite", default=None, choices=sorted(SUITES))
    p.add_argument("--q", type=int, default=3, help="modulus for the malleability suite")

    return parser


def main(argv=None) -> int:
    """Run `cmd_<command>`, looked up on this module at call time, write
    its payload, or the one its exception maps to, and return the exit code.
    """
    args = build_parser().parse_args(argv)
    try:
        try:
            payload, code = globals()[f"cmd_{args.command}"](args)
        except _Invalid as exc:
            payload = {"ok": False, "violation": "invalid-input", "detail": str(exc)}
            code = EXIT_INVALID
        _emit(payload)
        return code
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        import traceback  # here, not at the top: it would add to every start-up

        traceback.print_exc(file=sys.stderr)
        _emit({"ok": False, "violation": "internal", "detail": f"{type(exc).__name__}: {exc}"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
