"""Only what the CLI, selftest and benchmark reach stays in `tbshift`."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import tbshift

SRC = Path(tbshift.__file__).resolve().parent
BENCHMARK_API = SRC.parent.parent / "perfbench" / "api.py"
BENCHMARK_TRACE = SRC.parent.parent / "perfbench" / "trace.py"

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


def test_every_method_the_tracer_pins_is_defined_on_its_class():
    # the tracer reads each (module, class, attribute) of its METHODS table
    # with cls.__dict__[attr], so a method deleted or moved to a base class
    # would make every traced benchmark run raise KeyError
    tree = ast.parse(BENCHMARK_TRACE.read_text("utf-8"))
    (table,) = (stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "METHODS" for t in stmt.targets))
    pinned = ast.literal_eval(table)
    assert pinned
    missing = [
        key for key in pinned
        if key[2] not in vars(getattr(importlib.import_module(f"tbshift.{key[0]}"), key[1]))
    ]
    assert missing == []


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
        "tbshift.cocycle", "tbshift.configs", "tbshift.dynamics", "tbshift.families",
        "tbshift.lattice", "tbshift.linalg", "tbshift.scalars", "tbshift.selftest",
        "tbshift.serialize",
    }
    importing = [
        path.stem for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert importing == []
