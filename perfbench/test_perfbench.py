"""Self-tests of the benchmark: generators, oracle and tracer.

    python3 -m pytest perfbench -q

The generated truth must be exact, and the oracle must reject a report
that contradicts it.
"""

import contextlib
import io
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import exactpoly as ep  # noqa: E402
import generators as gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fiber_cases():
    rng = random.Random(5)
    cases = gen.criterion3_cases(rng, 4)
    cases += [gen.automorphism_case(rng, n, 4) for n in (2, 3)]
    cases += [gen.rooted_case(rng, roots, factors)
              for roots in ((2, 3), (1, 2, 2)) for factors in (1, 2)]
    cases += [gen.oriented(c, tuple(rng.choice((-1, 1)) for _ in range(c.n))) for c in cases]
    return cases


@pytest.mark.parametrize("case", _fiber_cases(), ids=lambda c: c.name)
def test_every_preimage_maps_exactly_to_the_target(case):
    assert len(set(case.preimages)) == len(case.preimages)
    for x, sign in zip(case.preimages, case.signs):
        assert ep.eval_map(case.components, x) == case.z
        det = ep.jacobian_det_at(case.components, x)
        assert det != 0 and (det > 0) == (sign > 0)
        assert all(abs(c) < case.radius for c in x)


def test_keller_and_family_preimages_are_exact():
    rng = random.Random(6)
    for n in (2, 3):
        case = gen.keller_case(rng, n)
        assert ep.jacobian_det_poly(case.components) == ep.const(n, 1)
        for q in case.queries:
            assert ep.eval_map(case.components, case.preimage_of(q)) == q
    for n in (2, 3):
        fam = gen.family_case(rng, n)
        for t in fam.t_grid:
            instance = [ep.compose(c, [ep.var(n, i + 1) for i in range(n)] + [ep.const(n, t)], n)
                        for c in fam.components]
            assert ep.jacobian_det_poly(instance) == ep.const(n, 1)
            pre = gen._triangular_solve(True, [ep.sub(c, ep.var(n, i + 1))
                                               for i, c in enumerate(instance)], fam.z)
            assert ep.eval_map(instance, pre) == fam.z
            assert fam.degrees[fam.t_grid.index(t)] == int(max(map(abs, pre)) < fam.radius)


def test_fold_maps_collide_and_change_sign():
    case = gen.fold_case(random.Random(2), 2)
    a, b = (Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 2), Fraction(1, 3))
    assert ep.eval_map(case.components, a) == ep.eval_map(case.components, b)
    assert ep.jacobian_det_at(case.components, a) * ep.jacobian_det_at(case.components, b) < 0


def test_pinchuk_determinant_is_the_stated_sum_of_squares():
    truth = workloads.load_pinchuk(ROOT)
    x, y = ep.var(2, 1), ep.var(2, 2)
    one = ep.const(2, 1)
    t = ep.sub(ep.mul(x, y), one)
    h = ep.mul(t, ep.add(ep.mul(x, t), one))
    f = ep.mul(ep.power(ep.add(ep.mul(x, t), one), 2, 2), ep.add(ep.mul(t, t), y))
    inner = ep.add(t, ep.mul(f, ep.add(ep.const(2, 13), ep.scale(h, 15))))
    sos = ep.add(ep.mul(t, t), ep.mul(inner, inner), ep.mul(f, f))
    assert ep.jacobian_det_poly(truth.components) == sos


def _cli_report(argv):
    from degreelab import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture
def fiber_op(tmp_path):
    case = gen.rooted_case(random.Random(2), (2, 3), factors=1)
    w = workloads._Writer(tmp_path)
    path = w.map("case", case.components)
    common = ["--map", path, f"--box={workloads._cube(2, case.radius)}",
              f"--z={workloads._point(case.z)}"]
    return case, common


def test_oracle_accepts_true_reports_and_flags_doctored_ones(fiber_op):
    case, common = fiber_op
    op = workloads.Op("fibers", ("fibers",), case)
    code, report = _cli_report(["fibers"] + common)
    assert report["results"]["status"] == "complete"
    assert oracle.check(op, code, report) is None

    missing = json.loads(json.dumps(report))
    missing["results"]["roots"].pop()
    missing["results"]["count"] -= 1
    with pytest.raises(oracle.Contradiction, match="true fiber has"):
        oracle.check(op, code, missing)

    flipped = json.loads(json.dumps(report))
    flipped["results"]["roots"][0]["jacobian_sign"] *= -1
    with pytest.raises(oracle.Contradiction, match="Jacobian sign"):
        oracle.check(op, code, flipped)

    op = workloads.Op("degree", ("degree",), case)
    code, report = _cli_report(["degree"] + common)
    assert oracle.check(op, code, report) is None
    report["results"]["count"]["value"] += 1
    with pytest.raises(oracle.Contradiction, match="count degree"):
        oracle.check(op, code, report)


def test_oracle_flags_a_witness_on_an_injective_map():
    case = gen.triangular_case(random.Random(3), 2)
    op = workloads.Op("collide", ("collide",), case)
    report = {"results": {"found": False}}
    assert oracle.check(op, 0, report) is None
    p = ("1/2", "1/3")
    report = {"results": {"found": True, "p1": list(p), "p2": list(p)}}
    with pytest.raises(oracle.Contradiction, match="re-verification"):
        oracle.check(op, 3, report)
    fold = gen.fold_case(random.Random(3), 2)
    report = {"results": {"found": True, "p1": ["1/2", "1/3"], "p2": ["-1/2", "1/3"]}}
    assert oracle.check(workloads.Op("collide", ("collide",), fold), 3, report) is None
    # a verified witness against a truth record that says "injective"
    claimed = workloads.Op("collide", ("collide",), replace(fold, injective=True))
    with pytest.raises(oracle.Contradiction, match="injective map"):
        oracle.check(claimed, 3, report)
    with pytest.raises(oracle.Contradiction, match="re-verification"):
        oracle.check(op, 3, report)


def test_oracle_flags_a_wrong_sign_survey(tmp_path):
    case = gen.fold_case(random.Random(4), 2)
    path = workloads._Writer(tmp_path).map("fold", case.components)
    op = workloads.Op("analyze", ("analyze",), case)
    code, report = _cli_report(["analyze", "--map", path, "--box=-2:2,-2:2"])
    assert oracle.check(op, code, report) is None
    survey = report["results"]["sign_survey"]
    survey["evidence"][0]["value"] = str(Fraction(survey["evidence"][0]["value"]) + 1)
    with pytest.raises(oracle.Contradiction, match="not exact"):
        oracle.check(op, code, report)
    survey["evidence"] = []
    survey["classification"] = "positive"
    with pytest.raises(oracle.Contradiction, match="sign-changing"):
        oracle.check(op, code, report)


def test_tracer_records_spans_and_restores_the_functions(fiber_op):
    from degreelab import cli, degree, fibersolve
    case, common = fiber_op
    before = (cli.main, degree.solve_fiber, fibersolve.solve_fiber)
    tracer = Tracer()
    tracer.install()
    try:
        assert degree.solve_fiber is fibersolve.solve_fiber is not before[2]
        tracer.op_id = 0
        cli_main = sys.modules["degreelab.cli"].main
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["fibers"] + common)
    finally:
        tracer.uninstall()
    assert (cli.main, degree.solve_fiber, fibersolve.solve_fiber) == before
    agg = tracer.aggregate()
    assert agg["cli.main.calls"] == 1 and agg["fibersolve.solve_fiber.calls"] == 1
    assert agg["fibersolve.solve_fiber.roots"] == len(case.preimages)
    assert 0.0 <= agg["cli.main.self_s"] <= agg["cli.main.s"]
    assert agg["fibersolve.solve_fiber.self_s"] <= agg["fibersolve.solve_fiber.s"]
    assert set(tracer.op) == {0}
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
