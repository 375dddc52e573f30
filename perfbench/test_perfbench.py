"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import check, gen, oracle, workloads  # noqa: E402


@pytest.fixture
def workdir(request):
    """A scratch directory under the checkout's ignored .perfbench/."""
    path = os.path.join(ROOT, ".perfbench", "test", request.node.name.replace("/", "_"))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _plain(ops, trips):
    return (
        [(op.kind, op.name, repr(op.args), repr(op.expect), op.shape) for op in ops],
        [t.to_json() for t in trips],
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    a = workloads.build(workload, 5, 4)
    b = workloads.build(workload, 5, 4)
    c = workloads.build(workload, 6, 4)
    assert _plain(*a) == _plain(*b)
    assert _plain(*a) != _plain(*c)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_op_mix_depends_only_on_length(workload):
    mixes = [sorted(op.shape for op in workloads.build(workload, s, 20)[0]) for s in (1, 2)]
    assert mixes[0] == mixes[1]


def test_pullback_matrix_is_a_witness():
    rng = random.Random(3)
    for n in (3, 4, 6):
        tb = gen.homocyclic(rng, n, 2)
        m = gen.random_invertible(rng, n, 2)
        assert oracle.is_witness(gen.pullback(tb, m), tb, m)


def test_symmetric_addition_and_order_two_twist_keep_the_invariants():
    rng = random.Random(4)
    t = gen.homocyclic(rng, 4, 2)
    s = gen.add_matrices(t.B, gen.random_symmetric(rng, t.orders))
    chi = tuple((x + y) % 1 for x, y in zip(t.chi, (Fraction(1, 2), Fraction(1, 2))))
    u = gen.Trip(0, t.tors, s, chi)
    assert oracle.star_matrix(u) == oracle.star_matrix(t)
    assert [oracle.chi2(u, g) for g in oracle.elements(t.orders)] == \
        [oracle.chi2(t, g) for g in oracle.elements(t.orders)]


def test_nondegenerate_square_has_trivial_star_kernel():
    rng = random.Random(5)
    for n, k in ((2, 1), (3, 1), (4, 1), (2, 2)):
        assert oracle.star_kernel_size(gen.nondegenerate_square(rng, n, k)) == 1


def test_centralizer_of_standard_mod_p_data_is_a_vector_stabilizer():
    # (Z/p)^2 with s1*t2/p and chi = s1/p: SL(2, p) fixing a nonzero vector
    for p in (3, 5):
        t = gen.Trip(0, (p, p), ((Fraction(0), Fraction(1, p)), (Fraction(0), Fraction(0))),
                     (Fraction(1, p), Fraction(0)))
        assert len(oracle.centralizer_set(t)) == p


def test_first_mixing_shift_skips_cancelling_shifts():
    # over Z/3, lam + lam != 0, so the origin already works for lam alone;
    # with -lam present the origin cancels and the next spiral point is used
    cfg = {(1, 0): (1,), (0, 0): (2,)}
    assert oracle.first_mixing_shift([cfg], (3,)) == (0, 0)
    neg = {(1, 0): (2,), (0, 0): (1,)}
    assert oracle.first_mixing_shift([cfg, neg], (3,)) == (1, 0)


def _cli(argv):
    from tbshift.cli import main
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, json.loads(buf.getvalue())


@pytest.mark.parametrize("builder", [
    lambda rng, trips: gen.conj_yes(rng, trips, 3, 2, True),
    lambda rng, trips: gen.conj_no_chi(rng, trips, 3, 2),
    lambda rng, trips: gen.conj_no_kernel(rng, trips, 3, 2),
    lambda rng, trips: gen.conj_no_group(rng, trips, 3, 2),
    lambda rng, trips: gen.conj_lattice(rng, trips, 2, True),
    lambda rng, trips: gen.centralizer_finite(rng, trips, 5),
    lambda rng, trips: gen.centralizer_product(rng, trips, 2, 3),
    lambda rng, trips: gen.centralizer_bounded(rng, trips, (), 1),
    lambda rng, trips: gen.factor_op(rng, trips),
    lambda rng, trips: gen.bicharacter_op(rng, trips),
    lambda rng, trips: gen.validate_op(rng, trips, False),
    lambda rng, trips: gen.flow_op(rng, trips, "z2sq", 1),
])
def test_known_answers_hold_for_small_cases(builder, workdir):
    rng = random.Random(11)
    for _ in range(3):
        trips = []
        op = builder(rng, trips)
        paths = []
        for i, t in enumerate(trips):
            path = os.path.join(workdir, f"t{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(t.to_json(), fh)
            paths.append(path)
        argv = [op.name] + [paths[a["trip"]] if isinstance(a, dict) else a for a in op.args]
        rc, payload = _cli(argv)
        assert check.check(op, trips, rc, payload) is None


def test_check_rejects_wrong_answers():
    rng = random.Random(12)
    trips = []
    op = gen.conj_yes(rng, trips, 3, 2, False)
    assert check.check(op, trips, 1, {"verdict": "NO"}) is not None
    bogus = {"verdict": "YES", "witness": {"matrix": [[0, 0], [0, 0]]}}
    assert check.check(op, trips, 0, bogus) is not None
    op = gen.conj_lattice(rng, trips, 2, False)
    assert check.check(op, trips, 3, {"verdict": "UNKNOWN", "complete": False}) is None
    assert check.check(op, trips, 0, {"verdict": "YES", "witness": None}) is not None


@pytest.mark.parametrize("builder", [
    lambda rng: gen.pi_op(rng, 3, 2),
    lambda rng: gen.motion_op(rng, 3, 3),
    lambda rng: gen.cohom_op(rng, (3, 3), True),
    lambda rng: gen.cohom_op(rng, (2, 2), False),
    lambda rng: gen.mixing_op(rng, 3, 3),
])
def test_known_answers_hold_for_api_ops(builder):
    import tbshift
    from perfbench import api

    op = builder(random.Random(13))
    assert check.check(op, [], None, api.prepare(op, tbshift)()) is None


def test_run_refuses_a_directory_without_sources(workdir):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_excludes_children():
    from perfbench.trace import Tracer

    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    child = tracer.span("m.child", leaf)

    def body():
        child()
        child()
        time.sleep(0.01)

    tracer.run_op(0, "op.test", tracer.span("m.parent", body))
    assert tracer.calls == {"m.child": 2, "m.parent": 1, "op.test": 1}
    assert tracer.self_s["m.child"] >= 0.02
    assert 0.01 <= tracer.self_s["m.parent"] < tracer.self_s["m.child"]
    assert tracer.self_s["op.test"] < 0.005
    names = [s[0] for s in tracer.spans]
    assert names == ["op.test", "m.parent", "m.child", "m.child"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]


def test_tracer_wraps_every_binding_and_restores_them():
    import tbshift.abelian
    import tbshift.classify
    from perfbench.trace import Tracer

    original = tbshift.abelian.is_isomorphism
    assert tbshift.classify.is_isomorphism is original
    tracer = Tracer()
    tracer.install()
    try:
        assert tbshift.abelian.is_isomorphism is not original
        assert tbshift.classify.is_isomorphism is tbshift.abelian.is_isomorphism
        assert tbshift.is_isomorphism is tbshift.abelian.is_isomorphism
        g = tbshift.AbGroup(0, (3,))
        tbshift.is_isomorphism(tbshift.AbHom.identity(g))
        tbshift.Phase(1, 3) + tbshift.Phase(1, 3)
    finally:
        tracer.uninstall()
    assert tbshift.abelian.is_isomorphism is original
    assert tbshift.classify.is_isomorphism is original
    assert tracer.calls["abelian.is_iso"] == 1
    assert tracer.calls["scalars.phase_ops"] >= 1
