"""Per-layer tracing of ``tbshift`` from outside the package.

``Tracer.install`` replaces every binding of a public ``tbshift`` function
(the defining module's and each ``from .x import f`` copy in another
module) and the methods listed in ``METHODS`` with timing wrappers; no
file of the package is edited.  ``uninstall`` puts the originals back.

Each call opens a span.  Self time is the span's duration minus the time
of the spans it directly encloses, computed on the fly from a stack, so
it equals what a pass over the recorded spans would give.  Spans of the
hot scalar and cocycle-evaluation calls are only counted: recording
millions of them would cost more memory than the run itself.  Other
spans are kept in memory (name, start, end, parent, op id), up to
MAX_RECORDED of them, and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

# (module, class, attribute) -> span group.  Groups are what per-layer
# metrics are named after; a function not listed here gets the group
# "<module>.<function>".
METHODS = {
    ("scalars", "Cyclotomic", "__mul__"): "scalars.cyc_mul",
    ("scalars", "Cyclotomic", "__rmul__"): "scalars.cyc_mul",
    ("scalars", "Cyclotomic", "__add__"): "scalars.cyc_add",
    ("scalars", "Cyclotomic", "__sub__"): "scalars.cyc_add",
    ("scalars", "Cyclotomic", "__neg__"): "scalars.cyc_add",
    ("scalars", "Cyclotomic", "__eq__"): "scalars.cyc_eq",
    ("scalars", "Cyclotomic", "from_phase"): "scalars.cyc_from_phase",
    ("scalars", "Cyclotomic", "from_rational"): "scalars.cyc_other",
    ("scalars", "Cyclotomic", "rebase"): "scalars.cyc_other",
    ("scalars", "Cyclotomic", "conjugate"): "scalars.cyc_other",
    ("scalars", "Phase", "__add__"): "scalars.phase_ops",
    ("scalars", "Phase", "__sub__"): "scalars.phase_ops",
    ("scalars", "Phase", "__neg__"): "scalars.phase_ops",
    ("scalars", "Phase", "__mul__"): "scalars.phase_ops",
    ("scalars", "Phase", "__rmul__"): "scalars.phase_ops",
    ("scalars", "Phase", "conjugate"): "scalars.phase_ops",
    ("scalars", "Phase", "from_fraction"): "scalars.phase_ops",
    ("scalars", "Phase", "parse"): "scalars.phase_ops",
    ("scalars", "Phase", "as_fraction"): "scalars.phase_ops",
    ("cocycle", "BilinearCocycle", "__call__"): "cocycle.eval",
    ("cocycle", "TableCocycle", "__call__"): "cocycle.eval",
    ("cocycle", "Bicharacter", "value"): "cocycle.bichar_value",
    ("algebra", "TensorElement", "__mul__"): "algebra.tensor_mul",
    ("algebra", "AlgebraElement", "__mul__"): "algebra.alg_mul",
    ("algebra", "TensorElement", "star"): "algebra.star",
    ("algebra", "AlgebraElement", "star"): "algebra.star",
    ("classify", "PiPhi", "__call__"): "classify.pi_apply",
}

FUNCTION_GROUPS = {
    ("cocycle", "star_bicharacter"): "cocycle.star",
    ("cocycle", "coboundary_witness"): "cocycle.witness",
    ("cocycle", "degeneracy_witness"): "cocycle.degeneracy",
    ("algebra", "malleability_flow"): "algebra.flow",
    ("abelian", "is_isomorphism"): "abelian.is_iso",
    ("abelian", "enumerate_isomorphisms"): "abelian.enum_iso",
    ("classify", "check_conditions"): "classify.check",
    ("classify", "decide_conjugacy"): "classify.conjugacy",
    ("linalg", "smith_normal_form"): "linalg.snf",
    ("linalg", "solve_congruence"): "linalg.congruence",
    ("dynamics", "weak_mixing_witness"): "dynamics.weak_mixing",
}

# Groups whose spans are counted but not recorded one by one.
UNRECORDED = ("scalars.", "cocycle.eval", "cocycle.bichar_value", "lattice.")
# Spans recorded per run at most; later ones are still counted and timed.
MAX_RECORDED = 200_000


def _group_for_function(module: str, name: str) -> str:
    if module == "serialize" and name.endswith("_from_json"):
        return "serialize.parse"
    return FUNCTION_GROUPS.get((module, name), f"{module}.{name}")


class Tracer:
    def __init__(self, package: str = "tbshift"):
        self.package = package
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []  # (group, start, end, parent span id, op id)
        self.dropped = 0
        self.op_id = -1
        self._stack = []  # [child seconds, span id] per open span
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def span(self, group: str, fn, hook=None):
        """Wrap fn so that each call is one span of the given group."""
        recorded_group = not group.startswith(UNRECORDED)
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            record = recorded_group and len(spans) < MAX_RECORDED
            if recorded_group and not record:
                tracer.dropped += 1
            frame = [0.0, len(spans) if record else parent]
            if record:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[group] += 1
                self_s[group] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if record:
                    spans[frame[1]] = (group, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, group: str, fn):
        """Run one benchmark op as a root span.

        The stack is emptied first: a timeout raised between two statements
        of a wrapper can leave a frame of the previous op behind.
        """
        self.op_id = op_id
        del self._stack[:]
        return self.span(group, fn)()

    # -- installing the wrappers --------------------------------------------

    def _modules(self) -> dict:
        pkg = importlib.import_module(self.package)
        out = {}
        for info in pkgutil.iter_modules(pkg.__path__):
            out[info.name] = importlib.import_module(f"{self.package}.{info.name}")
        return out

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    group = _group_for_function(short, name)
                    wrappers[id(fn)] = self.span(group, fn, HOOKS.get(group))
        for mod in [importlib.import_module(self.package), *modules.values()]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(mod, name, wrappers[id(value)])
        for (short, cls_name, attr), group in METHODS.items():
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.span(group, raw.__func__, HOOKS.get(group)))
            else:
                wrapped = self.span(group, raw, HOOKS.get(group))
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:  # None: a span cut short by a timeout
                    fh.write(json.dumps(list(span)) + "\n")


def _max_conductor(tracer: Tracer, args, result) -> None:
    order = getattr(result, "order", 0)
    if order > tracer.counters["scalars.max_conductor"]:
        tracer.counters["scalars.max_conductor"] = order


def _term_pairs(tracer: Tracer, args, result) -> None:
    a, b = args
    if hasattr(b, "terms"):
        tracer.counters["algebra.tensor_mul.term_pairs"] += len(a.terms) * len(b.terms)


def _iso_hit(tracer: Tracer, args, result) -> None:
    if result:
        tracer.counters["abelian.iso_hits"] += 1


def _check_pass(tracer: Tracer, args, result) -> None:
    if all(result):
        tracer.counters["classify.check_pass"] += 1


HOOKS = {
    "scalars.cyc_mul": _max_conductor,
    "scalars.cyc_add": _max_conductor,
    "scalars.cyc_from_phase": _max_conductor,
    "algebra.tensor_mul": _term_pairs,
    "abelian.is_iso": _iso_hit,
    "classify.check": _check_pass,
}
