"""Byte-for-byte CLI contract on the fixture triplets.

Each case in golden/cli.json is an argv, the exit code and the exact
stdout that `tbshift.cli.main` gave for it.  The CLI runs in-process with
stdout captured and the repository root as the working directory, so the
triplet paths in the argv resolve the same way wherever pytest starts.

`malleability` runs on mod5_standard at `--samples 1` and with the default
samples, on mod7_standard, and on product_3_5 (|H| = 225) at
`--samples 1`.  No fixture command is left out for its cost.

The Z^2 fixtures with a nontrivial character (lattice_theta_1_16_chi_*)
run `centralizer` and `conjugate` with `--bound`, which reaches the
bounded searches; product_3_5 against itself and against product_3_5_trivial
covers the finite YES and NO searches.  `centralizer` on
z3_4_symplectic_chi is the largest finite centralizer here (648
elements, nonabelian), which pins the structure step on (Z/3)^4.

mod3_table is mod3_standard with its cocycle written as a `"kind":
"table"` of all 81 values; `validate`, `factor`, `bicharacter` and
`centralizer` on it print the same bytes as on mod3_standard, through the
table branches of the parser and of `TableCocycle`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tbshift.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text("utf-8"))


def _case_id(case):
    return "-".join(Path(arg).stem for arg in case["argv"])


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_cli_output_is_unchanged(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
