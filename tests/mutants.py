"""Sample mutants of one `tbshift` module and print those tier-1 misses.

    python tests/mutants.py MODULE COUNT SEED

MODULE is a module of `src/tbshift` (`abelian`, `configs`, ...).  A
mutant changes one node of the module's syntax tree: `+` and `-` swap, as
do `*` and `//`; `%` becomes `//`; a comparison becomes its strict or
loose twin or its negation; `and` and `or` swap; an int constant grows by
one.  COUNT of the module's mutation sites are drawn with
`random.Random(SEED)`.  The changed node is written back with
`ast.unparse` in place of its own text, in parentheses that keep its line
count, so the rest of the file and every line number stay as they were.

The source tree is copied once to a temporary directory, and each mutant
is written there, never into this checkout.  For each mutant, pytest runs
the module's own test file with -x, then, if that passes, the rest of
tier-1 with -x.  A mutant that no test fails survives.  The survivors are
printed last, one per line, as `module.py:line: old -> new`.  This is a
tool, not a test: pytest does not collect it, and its score gates
nothing.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "triplets", "perfbench", "pyproject.toml")
RUN_LIMIT = 900  # seconds per pytest run; a mutant that hangs counts as killed

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
          ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
TWIN = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
NEGATION = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
AUGMENTED = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//"}


def _in_fstrings(tree: ast.AST) -> set:
    """The ids of the nodes inside f-strings, whose text is not spliced."""
    return {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            for sub in ast.walk(node)}


def _changes(node: ast.AST) -> list:
    """The mutants of one node, each a function that changes it in place."""
    out = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
        out.append(lambda n: setattr(n, "op", BINARY[type(n.op)]()))
    elif isinstance(node, ast.BoolOp):
        out.append(lambda n: setattr(n, "op", BOOLEAN[type(n.op)]()))
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            for table in (TWIN, NEGATION):
                if type(op) in table:
                    out.append(lambda n, k=k, table=table: n.ops.__setitem__(
                        k, table[type(n.ops[k])]()))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out.append(lambda n: setattr(n, "value", n.value + 1))
    return out


def sites(text: str) -> list:
    """(node number in `ast.walk` order, change number) of every mutant."""
    tree = ast.parse(text)
    skip = _in_fstrings(tree)
    return [(i, j) for i, node in enumerate(ast.walk(tree)) if id(node) not in skip
            for j in range(len(_changes(node)))]


def _offset(lines: list, line: int, col: int) -> int:
    """The text offset of a node position (1-based line, byte column)."""
    return sum(len(x) for x in lines[:line - 1]) + len(lines[line - 1].encode()[:col].decode())


def mutate(text: str, site: tuple) -> tuple:
    """(mutated text, line, old, new) for one site: the node's own text is
    replaced by its changed form, parenthesized over as many lines."""
    i, j = site
    node = list(ast.walk(ast.parse(text)))[i]
    lines, old = text.splitlines(True), ast.unparse(node)
    if isinstance(node, ast.AugAssign):  # a statement: splice only its operator
        start = _offset(lines, node.target.end_lineno, node.target.end_col_offset)
        end = _offset(lines, node.value.lineno, node.value.col_offset)
        _changes(node)[j](node)
        spliced = f" {AUGMENTED[type(node.op)]}= "
    else:
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        _changes(node)[j](node)
        spliced = "(" + ast.unparse(node) + "\n" * (node.end_lineno - node.lineno) + ")"
    return text[:start] + spliced + text[end:], node.lineno, old, ast.unparse(node)


def _pytest(tree: Path, *args: str) -> bool:
    """True iff pytest passes in the copied tree (a timeout is a failure)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module")
    parser.add_argument("count", type=int)
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    name = f"{args.module}.py"
    original = (ROOT / "src" / "tbshift" / name).read_text("utf-8")
    found = sites(original)
    drawn = random.Random(args.seed).sample(found, min(args.count, len(found)))
    own = f"tests/test_{args.module}.py"
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / part)
        target = tree / "src" / "tbshift" / name
        print(f"{name}: {len(found)} mutation sites, {len(drawn)} drawn", flush=True)
        for site in drawn:
            text, line, old, new = mutate(original, site)
            target.write_text(text, "utf-8")
            killed = not _pytest(tree, own) or not _pytest(
                tree, "tests", f"--ignore={own}", "--continue-on-collection-errors")
            label = f"{name}:{line}: {old} -> {new}"
            print(("killed   " if killed else "SURVIVED ") + label, flush=True)
            if not killed:
                survivors.append(label)
    print(f"{len(survivors)} of {len(drawn)} survived")
    for label in survivors:
        print(label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
