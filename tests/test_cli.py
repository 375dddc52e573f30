"""Exit codes and JSON stdout of the CLI on invalid input."""

import contextlib
import io
import json

import pytest

from tbshift.cli import EXIT_INVALID, main


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
