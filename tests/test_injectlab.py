import random
from fractions import Fraction

import numpy as np
import pytest

from degreelab.polycore import IntervalBox, parse_poly
from degreelab.mapforms import PolyMap, jacobian_matrix, realify
from degreelab.fibersolve import solve_fiber
from degreelab.injectlab import (
    CollisionConfig,
    PipelineConfig,
    SurveyBudget,
    collision_search,
    global_injectivity_probe,
    injectivity_pipeline,
    jacobian_sign_survey,
    origin_injectivity_cubic,
    witness_from_fiber,
)
from degreelab.injectlab import _newton_float, _prune_candidates
from gen_maps import (
    random_complex_map,
    random_composed_automorphism,
    random_druzkowski_map,
)


def make_map(n, *exprs):
    return PolyMap([parse_poly(e, n) for e in exprs])


def cube(n, radius):
    return IntervalBox.cube(n, Fraction(radius))


# ---------------------------------------------------------------------
# Sign survey
# ---------------------------------------------------------------------

def test_survey_keller_positive_exact():
    s = jacobian_sign_survey(make_map(2, "x1 + x2^3", "x2"), cube(2, 4))
    assert s.classification == "positive"
    assert s.certified and not s.partial
    assert s.samples_used == 0 and s.boxes_used == 0
    assert s.evidence[0][1] == 1


def test_survey_keller_negative_exact():
    s = jacobian_sign_survey(make_map(2, "x2", "x1"), cube(2, 1))
    assert s.classification == "negative"
    assert s.certified
    assert s.evidence[0][1] == -1


def test_survey_mixed_with_opposite_evidence():
    s = jacobian_sign_survey(make_map(2, "x1^2", "x2^2"), cube(2, 2))
    assert s.classification == "mixed"
    assert s.certified
    signs = sorted(1 if v > 0 else -1 for _, v in s.evidence)
    assert signs == [-1, 1]
    for point, value in s.evidence:
        det = 4 * point[0] * point[1]
        assert det == value
        assert value != 0


def test_survey_positive_nonconstant_certified():
    # det of x^3 + x is 3x^2 + 1, at least 1 everywhere
    s = jacobian_sign_survey(make_map(1, "x1^3 + x1"), cube(1, 3))
    assert s.classification == "positive"
    assert s.certified and not s.partial
    assert s.evidence and s.evidence[0][1] > 0


def test_survey_positive_after_subdivision():
    # det 3x1^2 - 2x1 + 1 is positive (discriminant < 0) but a single
    # interval evaluation straddles zero, forcing real subdivision work
    F = make_map(2, "x1^3 - x1^2 + x1", "x2")
    s = jacobian_sign_survey(F, cube(2, 2))
    assert s.classification == "positive"
    assert s.certified
    assert s.boxes_used > 1


def test_survey_vanishing_on_degenerate_det():
    # det JF = 3x1^2 vanishes exactly on the line x1 = 0
    s = jacobian_sign_survey(make_map(2, "x1^3", "x2"), cube(2, 2))
    assert s.classification == "vanishing_found"
    assert s.certified
    point, value = s.evidence[0]
    assert value == 0
    assert point[0] == 0


def test_survey_budget_partial():
    F = make_map(2, "x1^3 - x1^2 + x1", "x2")
    s = jacobian_sign_survey(F, cube(2, 2), SurveyBudget(samples=8, max_boxes=1))
    assert s.partial
    assert not s.certified
    assert s.classification == "positive"  # every sample sits at det > 0
    assert s.detail


def test_survey_budget_ending_mid_level_is_partial():
    # breadth-first levels of this survey hold 1, 2, 2, 4, 8, 16, 16 and
    # 32 cells (81 in all); a budget of 60 stops inside the last level
    F = make_map(2, "x1^3 - x1^2 + x1", "x2")
    s = jacobian_sign_survey(F, cube(2, 2), SurveyBudget(samples=8, max_boxes=60))
    assert s.partial and not s.certified
    assert s.boxes_used == 60
    assert s.classification == "positive"


def test_survey_budget_ending_at_a_level_boundary():
    F = make_map(2, "x1^3 - x1^2 + x1", "x2")
    full = jacobian_sign_survey(F, cube(2, 2), SurveyBudget(samples=8))
    assert full.certified and full.boxes_used == 81
    # the budget ends exactly at the last cell of a level that all certifies
    s = jacobian_sign_survey(F, cube(2, 2), SurveyBudget(samples=8, max_boxes=81))
    assert s == full
    # it ends at the last cell of a level that still leaves children
    s = jacobian_sign_survey(F, cube(2, 2), SurveyBudget(samples=8, max_boxes=49))
    assert s.partial and not s.certified
    assert s.boxes_used == 49


def test_survey_realified_maps_never_negative():
    rng = random.Random(71)
    for _ in range(8):
        Fc = random_complex_map(rng, rng.choice([1, 2]), max_deg=2)
        FR = realify(Fc)
        s = jacobian_sign_survey(FR, cube(FR.n, 2),
                                 SurveyBudget(samples=128, max_boxes=64))
        assert s.classification in ("positive", "vanishing_found")


def test_survey_dimension_mismatch():
    with pytest.raises(ValueError):
        jacobian_sign_survey(make_map(1, "x1^2"), cube(2, 1))


# ---------------------------------------------------------------------
# Origin check for cubic-form maps
# ---------------------------------------------------------------------

def test_origin_check_triangular():
    check = origin_injectivity_cubic(make_map(2, "x1 + x2^3", "x2"), cube(2, 4))
    assert check.verdict == "verified_in_box"
    assert len(check.fiber.roots) == 1
    assert check.fiber.roots[0].isolator.contains_point((0, 0))


def test_origin_check_random_druzkowski():
    rng = random.Random(902)
    for _ in range(4):
        F, _rows = random_druzkowski_map(rng, 3, nilpotent=True)
        check = origin_injectivity_cubic(F, cube(3, 4))
        assert check.verdict == "verified_in_box"
        # independent coarse grid search: no second zero candidate
        grid = np.linspace(-4.0, 4.0, 9)
        for x in grid:
            for y in grid:
                for z in grid:
                    if max(abs(x), abs(y), abs(z)) < 0.5:
                        continue
                    vals = [abs(float(c.eval((x, y, z)))) for c in F.components]
                    assert max(vals) > 1e-6


def test_origin_check_rejects_non_keller():
    with pytest.raises(ValueError):
        origin_injectivity_cubic(make_map(2, "x1^3", "x2"), cube(2, 1))


def test_origin_check_rejects_non_cubic_form():
    # Keller, but the nonlinear part is quadratic
    with pytest.raises(ValueError):
        origin_injectivity_cubic(make_map(2, "x1 + x2^2", "x2"), cube(2, 1))


def test_origin_check_requires_origin_in_box():
    F = make_map(2, "x1 + x2^3", "x2")
    box = IntervalBox.from_bounds([(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        origin_injectivity_cubic(F, box)


# ---------------------------------------------------------------------
# Fiber-count probe
# ---------------------------------------------------------------------

def test_probe_injective_cubic_singleton():
    probe = global_injectivity_probe(make_map(1, "x1^3 + x1"), [0], cube(1, 3))
    assert probe.kind == "singleton"
    assert probe.count == 1


def test_probe_three_preimages():
    probe = global_injectivity_probe(make_map(1, "x1^3 - 3*x1"), [0], cube(1, 3))
    assert probe.kind == "multiple"
    assert probe.count == 3


def test_probe_identity_singleton():
    probe = global_injectivity_probe(
        PolyMap.identity(2), [Fraction(1, 2), Fraction(-1, 3)], cube(2, 1))
    assert probe.kind == "singleton"


def test_probe_empty_fiber_is_multiple_zero():
    probe = global_injectivity_probe(make_map(1, "x1^3 + x1"), [100], cube(1, 2))
    assert probe.kind == "multiple"
    assert probe.count == 0


def test_probe_inconclusive_on_singular_fiber():
    probe = global_injectivity_probe(make_map(1, "x1^2"), [0], cube(1, 2))
    assert probe.kind == "inconclusive"
    assert probe.count is None


# ---------------------------------------------------------------------
# Collision search
# ---------------------------------------------------------------------

def test_witness_from_multi_root_fiber():
    F = make_map(1, "x1^2")
    fiber = solve_fiber(F, [1], cube(1, 2))
    witness = witness_from_fiber(F, fiber)
    assert witness is not None
    assert witness.separation > 1.9
    assert witness.residual <= 1e-8
    assert {round(float(witness.p1[0])), round(float(witness.p2[0]))} == {-1, 1}


def test_collision_even_map():
    F = make_map(2, "x1^2", "x2")
    witness = collision_search(F, cube(2, 2))
    assert witness is not None
    assert witness.separation >= 0.1
    assert witness.residual <= 1e-8
    # invariant: re-evaluate exactly at the witness points
    res_sq = Fraction(0)
    for comp in F.components:
        d = comp.eval(witness.p1) - comp.eval(witness.p2)
        res_sq += d * d
    assert res_sq <= Fraction(1, 10 ** 16)


def test_collision_search_deterministic():
    F = make_map(2, "x1^2", "x2")
    a = collision_search(F, cube(2, 2))
    b = collision_search(F, cube(2, 2))
    assert a == b


def test_collision_none_on_identity():
    assert collision_search(PolyMap.identity(2), cube(2, 2)) is None


def test_collision_none_on_injective_cubic():
    cfg = CollisionConfig(samples=512, prune_boxes=256)
    assert collision_search(make_map(1, "x1^3 + x1"), cube(1, 2), cfg) is None


def test_prune_candidate_cap_mid_level_keeps_fifo_prefix():
    # every candidate of F(x) = x^2 on [-2, 2] comes from one breadth-first
    # level, so each cap below is reached in the middle of that level
    F = make_map(1, "x1^2")
    full = _prune_candidates(F, cube(1, 2), CollisionConfig(max_candidates=10 ** 6))
    assert len(full) == 88
    for cap in (1, 5, 87):
        capped = _prune_candidates(F, cube(1, 2), CollisionConfig(max_candidates=cap))
        assert capped == full[:cap]


def _newton_point(F, jac, target, x, iters):
    # reference: the same float Newton, one point at a time
    last = float("inf")
    for _ in range(iters):
        res = np.array([c.eval(tuple(x)) for c in F.components]) - target
        if not np.isfinite(res).all():
            return None
        last = np.abs(res).max()
        if last < 1e-13:
            return x
        J = np.array([[e.eval(tuple(x)) for e in row] for row in jac])
        try:
            x = x - np.linalg.solve(J, res)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(x).all():
            return None
    return x if last < 1e-9 else None


def test_newton_float_stacked_rows_fail_independently():
    F = make_map(2, "x1^2", "x2")
    jac = jacobian_matrix(F)
    targets = np.array([[4.0, 1.0]] * 4)
    starts = np.array([
        [3.0, 5.0],      # converges to (2, 1)
        [-1.5, 0.0],     # converges to (-2, 1)
        [0.0, 0.0],      # singular Jacobian at the start
        [1e-160, 0.0],   # first step lands near 2e160, then x1^2 overflows
    ])
    x, ok = _newton_float(F, jac, targets, starts, 50)
    assert ok.tolist() == [True, True, False, False]
    assert np.allclose(x[:2], [[2.0, 1.0], [-2.0, 1.0]], rtol=0, atol=1e-12)


def test_newton_float_stacked_equals_per_point_loop():
    rng = np.random.default_rng(5)
    for F in (make_map(2, "x1^2", "x2"), make_map(2, "x1^2 + x2", "x1*x2^2 - x2"),
              make_map(1, "x1^3 - 3*x1^2")):
        jac = jacobian_matrix(F)
        starts = rng.uniform(-3, 3, (40, F.n))
        starts[:5] = 0.0  # singular start Jacobians for every map above
        targets = rng.uniform(-2, 2, (40, F.n))
        x, ok = _newton_float(F, jac, targets, starts, 30)
        with np.errstate(all="ignore"):
            for k in range(len(starts)):
                ref = _newton_point(F, jac, targets[k], starts[k], 30)
                assert ok[k] == (ref is not None)
                if ref is not None:
                    assert np.array_equal(x[k], ref)


def test_collision_dimension_mismatch():
    with pytest.raises(ValueError):
        collision_search(make_map(1, "x1^2"), cube(2, 1))


# ---------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------

def test_pipeline_triangular_consistent():
    F = make_map(2, "x1 + x2^3", "x2")
    report = injectivity_pipeline(F, [[1, 1], [-2, 3]])
    assert report.verdict == "consistent_with_injectivity"
    assert report.base_point == (0, 0)  # cubic form: origin base
    assert len(report.base_fiber.roots) == 1
    assert len(report.records) == 2
    for rec in report.records:
        assert rec.fiber_size == 1
        assert rec.degree_at_query == 1
        assert rec.degree_at_base == 1
        assert rec.path_certified


def test_pipeline_identity():
    report = injectivity_pipeline(PolyMap.identity(2), [[3, -5], [0, 0]])
    assert report.verdict == "consistent_with_injectivity"
    for rec in report.records:
        assert abs(rec.degree_at_query) == 1
        assert rec.fiber_size == 1


def test_pipeline_composed_automorphism():
    rng = random.Random(515)
    F, G = random_composed_automorphism(rng, 2, factors=2)
    q = [Fraction(1), Fraction(-1)]
    report = injectivity_pipeline(F, [q])
    assert report.verdict == "consistent_with_injectivity"
    rec = report.records[0]
    assert rec.fiber_size == 1
    assert abs(rec.degree_at_query) == 1
    # the known inverse gives the root the solver must have found
    expected = tuple(g.eval(tuple(q)) for g in G.components)
    root_box = report.records[0]
    fiber = solve_fiber(F, q, IntervalBox.cube(2, rec.radius))
    assert fiber.roots[0].isolator.contains_point(expected)


def test_pipeline_non_keller_rejected():
    with pytest.raises(ValueError):
        injectivity_pipeline(make_map(2, "x1^2", "x2"), [[1, 1]])


def test_pipeline_base_defaults_to_image_of_zero():
    # Keller but not cubic form: base must be F(0) = (1, -2)
    F = make_map(2, "x1 + x2^2 + 1", "x2 - 2")
    report = injectivity_pipeline(F, [[1, -2]])
    assert report.base_point == (1, -2)
    assert report.verdict == "consistent_with_injectivity"


def test_pipeline_caller_base():
    F = PolyMap.identity(2)
    report = injectivity_pipeline(F, [[2, 2]], base=[Fraction(1, 2), 0])
    assert report.base_point == (Fraction(1, 2), 0)
    assert report.verdict == "consistent_with_injectivity"
