"""Benchmark of tbshift: one client, closed loop, seeded generated inputs.

    python3 perfbench/run.py --workload flow|search|shift --seed N \
        --seconds S --trace 0|1

Works on the checkout that holds this directory: it imports ``tbshift``
from ``src/`` there, writes its triplet files and span dump under
``.perfbench/`` and nothing elsewhere, and exits with an error and no
result when the sources are missing.

Each op is one in-process ``tbshift.cli.main(argv)`` call with stdout
captured, or one call of the public API where the CLI has no command for
it.  The next op starts when the last one ends.  Every answer is checked
against the one known by construction (see gen.py and check.py).

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off.  Times are scaled to a reference machine
speed (see PROBE_REF_S); the metadata also gives them as measured.  With
``--trace 1`` the op list runs once untraced and once traced, and the
metrics are the per-layer ones from the traced pass plus the tracing
overhead.  The line before it holds the
run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 15
# probe() on the 2-core sandbox the benchmark was tuned on, in a quiet
# period.  That host's speed drifts by up to 2x within minutes, so every
# reported time is scaled to this speed by probes taken next to the work.
PROBE_REF_S = 0.00065
# Per-op limit in seconds; the traced pass gets TRACE_SLOWDOWN times more.
OP_LIMIT = 30
TRACE_SLOWDOWN = 4
# All op passes of a run end by this many seconds after it starts; ops
# left when it is reached fail as timeouts without running.
RUN_BUDGET = 150


def probe() -> float:
    """Seconds for a fixed pure-Python loop, best of 3: the machine's speed now.

    The loop does what the program mostly does, small-integer arithmetic
    and dict updates under tuple keys, and runs none of its code.
    """
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        table = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i * i
        best = min(best, time.perf_counter() - t)
    return best


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran over its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_program():
    if not os.path.isfile(os.path.join(SRC, "tbshift", "cli.py")):
        sys.exit(f"perfbench: no tbshift sources under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import tbshift
    import tbshift.cli

    if not os.path.abspath(tbshift.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported a tbshift that is not this checkout's")
    return tbshift


# Run in a fresh interpreter: probe the speed of the core it runs on, then
# time importing tbshift and building the CLI parser.
SETUP_CODE = "import time\n\n" + inspect.getsource(probe) + (
    "p = probe()\n"
    "t = time.perf_counter()\n"
    "import tbshift.cli\n"
    "tbshift.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t), repr(p))\n"
)


def measure_setup() -> tuple:
    """Median import-and-parser time over fresh interpreters: (scaled, raw).

    A first, unmeasured process writes the bytecode cache.  Each sample is
    scaled by the probe its own process ran just before the import.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        took, probed = map(float, proc.stdout.split())
        if i:
            raw.append(took)
            scaled.append(took * PROBE_REF_S / probed)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Runs an op list and keeps each op's latency, exit code and output."""

    def __init__(self, tb, ops, trips, deadline: float, name: str):
        self.main = tb.cli.main
        self.ops = ops
        self.deadline = deadline
        self.paths = []
        folder = os.path.join(os.path.relpath(WORK, ROOT), name)
        os.makedirs(os.path.join(ROOT, folder), exist_ok=True)
        for i, t in enumerate(trips):
            path = os.path.join(folder, f"t{i:04d}.json")
            with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
                json.dump(t.to_json(), fh, sort_keys=True)
            self.paths.append(path)
        from . import api

        self.calls = [
            api.prepare(op, tb) if op.kind == "api" else self._cli_call(op) for op in ops
        ]

    def _cli_call(self, op):
        argv = [op.name] + [self.paths[a["trip"]] if isinstance(a, dict) else a for a in op.args]
        main = self.main

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, buf.getvalue()

        return run

    def run_pass(self, limit: int, tracer=None) -> dict:
        """Run every op once, with a speed probe before each op and after the last.

        Each op's latency is also kept scaled to PROBE_REF_S by the mean of
        the two probes around it; slowness is the pass's total latency over
        its total scaled latency.
        """
        clock = time.perf_counter
        lat, results, probes = [], [], []
        start = clock()
        for i, (op, call) in enumerate(zip(self.ops, self.calls)):
            probes.append(probe())
            status, out = "timeout", None
            left = self.deadline - time.monotonic()
            t0 = clock()
            if left >= 1:
                try:
                    signal.alarm(int(min(limit, left)))
                    try:
                        out = call() if tracer is None else tracer.run_op(i, f"op.{op.name}", call)
                        status = "done"
                    finally:
                        signal.alarm(0)
                except OpTimeout:
                    pass
                except Exception as exc:  # an op that raises is a failed op
                    status, out = "exception", f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t0)
            results.append((status, out))
        probes.append(probe())
        wall = clock() - start
        scaled = [t * 2 * PROBE_REF_S / (a + b) for t, a, b in zip(lat, probes, probes[1:])]
        return {"lat": lat, "scaled": scaled, "results": results, "wall": wall,
                "slowness": sum(lat) / sum(scaled) if sum(scaled) else 1.0}

    def verify(self, trips, run) -> dict:
        """Check every answer; digest the output bytes in op order."""
        from .check import check

        digest = hashlib.sha256()
        failures = []
        out_bytes = 0
        for i, (op, (status, out)) in enumerate(zip(self.ops, run["results"])):
            if status != "done":
                failures.append((i, op.shape, status if out is None else out))
                continue
            if op.kind == "cli":
                rc, text = out
                data = text.encode()
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError:
                    payload = None
            else:
                rc, payload = None, out
                data = (json.dumps(out, sort_keys=True) + "\n").encode()
            digest.update(data)
            out_bytes += len(data)
            reason = check(op, trips, rc, payload)
            if reason:
                failures.append((i, op.shape, reason))
        return {"failures": failures, "sha256": digest.hexdigest(), "out_bytes": out_bytes}


def tail_index(n: int) -> int:
    """Index (ascending) of the highest percentile with >= 10 samples beyond it."""
    return max(0, n - 11)


def shape_table(ops, lat) -> dict:
    by = {}
    for op, t in zip(ops, lat):
        by.setdefault(op.shape, []).append(t)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in sorted(by.items())}


def end_to_end(ops, lat, setup_s: float, failed: int) -> dict:
    """The end-to-end metrics from per-op latencies, scaled or as measured."""
    lat = sorted(lat)
    done = len(ops) - failed
    return {
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "latency_tail_s": {"value": lat[tail_index(len(lat))], "unit": "s"},
        "throughput_ops_s": {"value": done / sum(lat), "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }


CLI_COMMANDS = ("bicharacter", "centralizer", "conjugate", "factor", "malleability",
                "selftest", "validate")
API_CALLS = ("cohom", "mixing", "motion", "pi")
LAYERS = ("scalars", "cocycle", "configs", "algebra", "abelian", "classify", "linalg",
          "dynamics", "serialize", "lattice", "cli", "selftest")
CALLS = ("scalars.cyc_mul", "scalars.cyc_add", "scalars.cyc_eq", "scalars.cyc_from_phase",
         "scalars.phase_ops", "cocycle.eval", "cocycle.star", "cocycle.bichar_value",
         "configs.mu_tilde", "configs.mu_hat", "algebra.flow", "algebra.tensor_mul",
         "algebra.alg_mul", "algebra.star", "classify.check", "classify.pi_apply",
         "linalg.snf", "linalg.congruence", "dynamics.rho", "dynamics.beta")
SELF = ("scalars.cyc_mul", "scalars.phase_ops", "cocycle.eval", "cocycle.star",
        "cocycle.witness", "cocycle.degeneracy", "configs.mu_tilde", "configs.mu_hat",
        "algebra.flow", "algebra.tensor_mul", "algebra.alg_mul", "abelian.is_iso",
        "abelian.enum_iso", "abelian.subgroup_generated", "abelian.group_structure",
        "classify.check", "classify.conjugacy", "classify.centralizer", "classify.pi_apply",
        "classify.verify_pi", "linalg.snf", "linalg.congruence", "dynamics.rho",
        "dynamics.weak_mixing", "serialize.parse")


def per_layer(tracer, ops, plain, traced, verified) -> dict:
    """Per-layer metrics of the traced pass, times scaled to PROBE_REF_S."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / traced["slowness"] if unit == "s" else value,
                     "unit": unit}

    for g in CALLS:
        put(f"{g}.calls", calls[g], "count")
    for g in SELF:
        put(f"{g}.self_s", self_s[g], "s")
    put("scalars.cyc_addeq.self_s", self_s["scalars.cyc_add"] + self_s["scalars.cyc_eq"], "s")
    put("scalars.max_conductor", counters["scalars.max_conductor"], "count")
    put("algebra.tensor_mul.term_pairs", counters["algebra.tensor_mul.term_pairs"], "count")
    cand = calls["abelian.is_iso"]
    put("abelian.iso_candidates", cand, "count")
    put("abelian.iso_hit_ratio", counters["abelian.iso_hits"] / cand if cand else 0.0, "ratio")
    checks = calls["classify.check"]
    put("classify.witness_ratio", counters["classify.check_pass"] / checks if checks else 0.0,
        "ratio")
    put("serialize.out_bytes", verified["out_bytes"], "bytes")
    for layer in LAYERS:
        put(f"{layer}.self_s",
            sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0), "s")
    busy = {}
    for op, t in zip(ops, traced["lat"]):
        busy[op.name] = busy.get(op.name, 0.0) + t
    for name in CLI_COMMANDS:
        put(f"cli.{name}.busy_s", busy.get(name, 0.0), "s")
    for name in API_CALLS:
        put(f"api.{name}.busy_s", busy.get(name, 0.0), "s")
    put("trace.overhead_ratio", sum(traced["scaled"]) / sum(plain["scaled"]), "ratio")
    return out


def commit() -> str:
    """HEAD of the checkout, or "unknown" where the checkout is no git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow", "search", "shift"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tb = load_program()
    from . import workloads

    started = time.monotonic()
    load_before = os.getloadavg()
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s, setup_raw = measure_setup() if args.trace == 0 else (None, None)
    ops, trips = workloads.build(args.workload, args.seed, args.seconds)
    runner = Runner(tb, ops, trips, started + RUN_BUDGET, f"{args.workload}-{args.seed}")

    plain = runner.run_pass(OP_LIMIT)
    verified = runner.verify(trips, plain)
    meta = {}
    if args.trace:
        from .trace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(OP_LIMIT * TRACE_SLOWDOWN, tracer)
        finally:
            tracer.uninstall()
        traced_check = runner.verify(trips, traced)
        verified["failures"] += [("traced",) + f for f in traced_check["failures"]]
        if traced_check["sha256"] != verified["sha256"]:
            verified["failures"].append(("traced", "all", "traced output differs"))
        span_file = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(span_file)
        metrics = per_layer(tracer, ops, plain, traced, verified)
        meta["spans_recorded"] = len(tracer.spans)
        meta["spans_not_recorded"] = tracer.dropped
        meta["span_file"] = os.path.relpath(span_file, ROOT)
        meta["traced_wall_s"] = traced["wall"]
        meta["traced_slowness"] = traced["slowness"]
    failed_ops = {f[0] for f in verified["failures"] if f[0] != "traced"}
    failed = len(failed_ops)
    if not args.trace:
        metrics = end_to_end(ops, plain["scaled"], setup_s, failed)
        raw = end_to_end(ops, plain["lat"], setup_raw, failed)
        meta["as_measured"] = {k: v["value"] for k, v in raw.items() if v["unit"] != "MB"}

    n = len(ops)
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "slowness": plain["slowness"],
        "op_count": n,
        "tail_percentile": round(100 * (tail_index(n) + 1) / n, 2),
        "fail_rate": failed / n,
        "failures": verified["failures"][:20],
        "stdout_sha256": verified["sha256"],
        "untraced_wall_s": plain["wall"],
        "shapes": shape_table(ops, plain["lat"]),
    })
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps({
        "correct": not verified["failures"],
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # import this file again as perfbench.run, so that its relative imports
    # work and perfbench/ does not shadow stdlib modules such as trace
    sys.path[0] = ROOT
    from perfbench import run as _self

    sys.exit(_self.main())
