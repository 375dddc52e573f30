"""Only what the CLI, selftest and benchmark reach stays in `tbshift`."""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import tbshift

SRC = Path(tbshift.__file__).resolve().parent
ROOT = SRC.parent.parent
BENCHMARK_API = ROOT / "perfbench" / "api.py"
BENCHMARK_TRACE = ROOT / "perfbench" / "trace.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


class _Reads(ast.NodeVisitor):
    """The names a piece of code reads; annotations are left out."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _reads(node) -> set:
    visitor = _Reads()
    visitor.visit(node)
    return visitor.names


def _package():
    """(bindings, imports, loose) of every module of the package.

    bindings maps (module, name) to the top-level statements that bind the
    name; imports maps (module, name) to what a `from .x import y` binds it
    to; loose holds the other top-level statements, which run on import.
    """
    bindings, imports, loose = {}, {}, []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text("utf-8")).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    imports[module, alias.asname or alias.name] = (stmt.module, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bindings[module, stmt.name] = [stmt]
            elif isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Name) for t in stmt.targets):
                for target in stmt.targets:
                    bindings.setdefault((module, target.id), []).append(stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                bindings.setdefault((module, stmt.target.id), []).append(stmt)
            else:
                loose.append((module, stmt))
    return bindings, imports, loose


def test_every_public_name_is_reached_from_the_cli_selftest_or_benchmark():
    # roots: all of cli and selftest, the import-time statements, the
    # `tb.<name>` calls of the benchmark's API ops and triplet_from_json,
    # with which the benchmark reads its triplets; then every binding a
    # reached one reads, through the imports.  Module-level private
    # functions and classes (one leading underscore) are held to the same
    # rule, so a helper outliving its last caller fails here too
    bindings, imports, loose = _package()

    def resolve(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        return (module, name) if (module, name) in bindings else None

    roots = [key for key in bindings if key[0] in ("cli", "selftest")]
    roots.append(("serialize", "triplet_from_json"))
    for node in ast.walk(ast.parse(BENCHMARK_API.read_text("utf-8"))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "tb":
            roots.append(resolve("__init__", node.attr))
    assert None not in roots
    todo = roots + [resolve(module, name) for module, stmt in loose for name in _reads(stmt)]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo += [resolve(key[0], name) for stmt in bindings[key] for name in _reads(stmt)]
    defined = {
        f"{module}.{name}"
        for (module, name), stmts in bindings.items()
        if module != "__init__" and not name.startswith("__")
        and isinstance(stmts[0], (ast.FunctionDef, ast.ClassDef))
    }
    assert defined - {f"{module}.{name}" for module, name in reached} == set()


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own: a helper another module needs
    # is public, or lives where it is used
    found = {
        (path.stem, node.module, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == set()


def test_no_module_reads_a_private_attribute_it_does_not_define():
    # obj._name on anything but self or cls reads another object's
    # internals; it is allowed only where the module defines _name itself
    # (a def, a class, an assigned name or a __slots__ entry), so no module
    # reaches into the storage of another module's objects
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                      for t in node.targets):
                defined.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        found += [
            f"{path.stem}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and getattr(node.value, "id", None) not in ("self", "cls")
            and node.attr not in defined
        ]
    assert found == []


def _pinned() -> dict:
    """The tracer's METHODS table, (module, class, attribute) -> group, read
    from its source: the tracer is not imported."""
    tree = ast.parse(BENCHMARK_TRACE.read_text("utf-8"))
    (table,) = (stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "METHODS" for t in stmt.targets))
    return ast.literal_eval(table)


def test_every_method_the_tracer_pins_is_defined_on_its_class():
    # the tracer reads each (module, class, attribute) of its METHODS table
    # with cls.__dict__[attr], so a method deleted or moved to a base class
    # would make every traced benchmark run raise KeyError
    pinned = _pinned()
    assert pinned
    missing = [
        key for key in pinned
        if key[2] not in vars(getattr(importlib.import_module(f"tbshift.{key[0]}"), key[1]))
    ]
    assert missing == []


# Runs in a fresh interpreter, so that no cache another test filled (the
# CLI's parser, the cyclotomic polynomials) hides a function from the hook.
_PROBE = """
import contextlib, io, json, os, sys
import tbshift
from tbshift.cli import main

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(hook)
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
package = os.path.dirname(tbshift.__file__)
print(json.dumps(sorted([os.path.basename(file)[:-3], name] for file, name in entered
                        if os.path.dirname(file) == package)))
"""


def _entered(argvs: list) -> set:
    """(module, qualified name) of every function of the package that the
    CLI enters over argvs, each run in-process by `main` under a profile
    hook."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], input=json.dumps(argvs), cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         text=True, check=True).stdout
    return {tuple(key) for key in json.loads(out)}


def _members():
    """(module, qualified name, class or None, def) of every function
    defined at module level or in a class body (nested classes too);
    nested functions are their function's own business."""
    found = []

    def walk(name, path, body):
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                module = importlib.import_module(f"tbshift.{name}")
                cls = functools.reduce(getattr, path, module) if path else None
                found.append((name, ".".join((*path, stmt.name)), cls, stmt))
            elif isinstance(stmt, ast.ClassDef):
                walk(name, (*path, stmt.name), stmt.body)

    for file in sorted(SRC.glob("*.py")):
        walk(file.stem, (), ast.parse(file.read_text("utf-8")).body)
    return found


def test_every_function_and_method_is_entered_by_the_cli_or_kept_by_rule():
    # every golden argv (all of selftest among them), one usage error and one
    # invalid input run under a profile hook, and each function of `src`,
    # module-level or a class member, must be one of: entered by that run;
    # a dunder (the type's contract: equality, hash, repr, operators);
    # pinned by the tracer's METHODS (looked up on the class, so an alias
    # such as cocycle's `_bilinear_value` counts); or a member read as
    # `self.<name>`/`cls.<name>` by one kept on these grounds, from its own
    # class, a base or a subclass
    argvs = [case["argv"] for case in json.loads(GOLDEN.read_text("utf-8"))]
    argvs += [["centralizer", "triplets/mod3_standard.json", "--bound", "abc"],
              ["factor", "triplets/no_such_triplet.json"]]
    entered = _entered(argvs)
    pinned = set()
    for module, cls, attr in _pinned():
        member = vars(getattr(importlib.import_module(f"tbshift.{module}"), cls)).get(attr)
        if member is not None:  # a static method's code is its function's
            code = getattr(member, "__func__", member).__code__
            pinned.add((Path(code.co_filename).stem, code.co_qualname))
    kept = entered | pinned
    todo, left = [], []
    for member in _members():
        module, name, _, node = member
        dunder = node.name.startswith("__") and node.name.endswith("__")
        (todo if (module, name) in kept or dunder else left).append(member)
    while todo:
        _, _, cls, node = todo.pop()
        if cls is None:
            continue
        names = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                 and getattr(sub.value, "id", None) in ("self", "cls")}
        reached = [m for m in left if m[2] is not None and m[3].name in names
                   and (issubclass(m[2], cls) or issubclass(cls, m[2]))]
        left = [m for m in left if m not in reached]
        todo += reached
    assert [f"{module}.{name}" for module, name, _, _ in left] == []


def test_a_group_element_is_its_coordinate_tuple():
    # an element is its reduced coordinate tuple everywhere but in the map
    # coboundary_witness returns, keyed by AbElems (the benchmark's
    # cohomology op reads their `coords`): that is the one AbElem built,
    # and the class carries no arithmetic of its own
    def builds(node):
        return sum(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "AbElem"
                   for sub in ast.walk(node))

    total = sum(builds(ast.parse(path.read_text("utf-8"))) for path in SRC.glob("*.py"))
    builders = [f"{module}.{name}" for module, name, _, node in _members() if builds(node)]
    assert (builders, total) == (["cocycle.coboundary_witness"], 1)
    tree = ast.parse((SRC / "abelian.py").read_text("utf-8"))
    body = next(node for node in tree.body if getattr(node, "name", None) == "AbElem").body
    assert [ast.unparse(node).split("\n")[0] for node in body] == [
        "__slots__ = ('group', 'coords')",
        "def __init__(self, group: AbGroup, coords: tuple) -> None:",
        "def __hash__(self) -> int:",
    ]


def test_every_module_level_import_is_read_by_its_module():
    # a name a module imports and never reads is a stale import; the
    # package's __init__ imports only to re-export
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", "") != "__future__":
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}.{name}")
    assert unread == []


def test_only_the_text_readers_convert_with_int():
    # int() truncates 2.5 to 2 and parses "3", so a constructor that
    # converts with it takes a non-integer silently; the package converts
    # with operator.index, which refuses both.  serialize (a phase
    # exponent's digit string) and cli (argparse's type=int) read text.
    # Annotations and isinstance checks only name the type.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("cli", "serialize"):
            continue
        tree = ast.parse(path.read_text("utf-8"))
        named = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                named.append(node.annotation)
            elif isinstance(node, ast.FunctionDef):
                named.append(node.returns)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named.append(node.args[1])
        allowed = {id(sub) for node in named if node is not None for sub in ast.walk(node)}
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "int" and id(node) not in allowed]
    assert found == []


def _compared(node: ast.BoolOp, op: type) -> set:
    return {(ast.unparse(c.left), ast.unparse(c.comparators[0])) for c in node.values
            if isinstance(c, ast.Compare) and len(c.ops) == 1 and isinstance(c.ops[0], op)}


def test_no_guard_restates_the_identity_answer_of_equality():
    # Immutable.__eq__ answers True for the object itself before it reads
    # a field, so `a is not b and a != b` says no more than `a != b`
    # and none spells `a != b` as `not a == b`: the base's __ne__ answers it
    found, negated = [], []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text("utf-8"))))
        found += [f"{path.stem}:{node.lineno}" for node in nodes
                  if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)
                  and _compared(node, ast.IsNot) & _compared(node, ast.NotEq)]
        negated += [f"{path.stem}:{node.lineno}" for node in nodes
                    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
                    and isinstance(node.operand, ast.Compare) and len(node.operand.ops) == 1
                    and isinstance(node.operand.ops[0], ast.Eq)]
    assert (found, negated) == ([], [])
    # and the base keeps the shortcuts that the plain `==` and `!=` rely on
    tree = ast.parse((SRC / "scalars.py").read_text("utf-8"))
    base = next(node for node in tree.body if getattr(node, "name", None) == "Immutable")
    eq, ne = (next(node for node in base.body if getattr(node, "name", None) == name)
              for name in ("__eq__", "__ne__"))
    assert ast.unparse(eq.body[0]) == "if other is self:\n    return True"
    assert ast.unparse(ne.body[0]) == "if other is self:\n    return False"


def test_the_cli_starts_without_dataclasses_or_inspect():
    # every CLI process pays for this import before its one question:
    # `dataclasses` alone pulls in inspect, ast, dis and tokenize, so no
    # module uses it, and the CLI still loads the whole package
    code = "import sys, tbshift.cli; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout.split()
    assert "dataclasses" not in out and "inspect" not in out
    assert {m for m in out if m.split(".")[0] == "tbshift"} == {
        "tbshift", "tbshift.abelian", "tbshift.algebra", "tbshift.classify", "tbshift.cli",
        "tbshift.cocycle", "tbshift.configs", "tbshift.dynamics", "tbshift.lattice",
        "tbshift.linalg", "tbshift.scalars", "tbshift.selftest", "tbshift.serialize",
    }
    importing = [
        path.stem for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert importing == []
