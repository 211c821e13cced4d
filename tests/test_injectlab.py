import collections
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from degreelab.polycore import IntervalBox, IntervalStack, Poly, parse_poly
from degreelab.mapforms import (PolyMap, jacobian_det, jacobian_matrix, keller_check,
                                map_compose, realify)
from degreelab import fibersolve, injectlab
from degreelab.fibersolve import solve_fiber, split_widest
from degreelab.injectlab import (
    CollisionConfig,
    SignSurvey,
    SurveyBudget,
    collision_search,
    global_injectivity_probe,
    injectivity_pipeline,
    jacobian_sign_survey,
    origin_injectivity_cubic,
    witness_from_fiber,
)
from degreelab.injectlab import (
    _BUCKET_CELLS,
    _WITNESS_SEPARATION,
    _midpoint_boxes,
    _midpoint_exact,
    _newton_float,
    _prune_candidates,
    _rational_point,
    _sampled_pairs,
)
from gen_maps import (
    random_complex_map,
    random_composed_automorphism,
    random_druzkowski_map,
    random_map,
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


def _reference_sign_survey(F, box, budget=None):
    # reference: the survey written out plainly, with separate positive and
    # negative evidence, the exact-evidence check repeated in both passes
    # and a SignSurvey built at each of its seven exits.  It has no
    # midpoint filter: it evaluates exactly at every cell the rule names,
    # even where the value can only repeat a sign already held
    budget = budget or SurveyBudget()
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    det = jacobian_det(F)
    status = keller_check(F)
    if status.kind == "nonzero_constant":
        c = status.constant_value
        mid = _midpoint_exact(box.lo, box.hi)
        return SignSurvey(
            classification="positive" if c > 0 else "negative",
            evidence=((mid, c),),
            certified=True, partial=False, samples_used=0, boxes_used=0,
            detail=f"constant Jacobian determinant {c}")
    if status.kind == "zero_constant":
        mid = _midpoint_exact(box.lo, box.hi)
        return SignSurvey(
            classification="vanishing_found",
            evidence=((mid, Fraction(0)),),
            certified=True, partial=False, samples_used=0, boxes_used=0,
            detail="Jacobian determinant is identically zero")

    # sampling pass: exact re-evaluation turns float hints into proof-grade
    # evidence (two strict opposite signs certify mixed; an exact zero
    # certifies vanishing)
    rng = np.random.default_rng(budget.seed)
    lo, hi = np.array(box.lo), np.array(box.hi)
    pts = lo[None, :] + rng.random((budget.samples, F.n)) * (hi - lo)[None, :]
    vals = det.eval_array(pts)
    pos_evidence = None
    neg_evidence = None
    for idx in itertools.chain(np.nonzero(vals > 0)[0][:4], np.nonzero(vals < 0)[0][:4],
                               np.nonzero(vals == 0)[0][:4]):
        point = _rational_point(pts[int(idx)])
        exact = det.eval(point)
        if exact == 0:
            return SignSurvey(
                classification="vanishing_found", evidence=((point, exact),),
                certified=True, partial=False,
                samples_used=budget.samples, boxes_used=0)
        if exact > 0 and pos_evidence is None:
            pos_evidence = (point, exact)
        elif exact < 0 and neg_evidence is None:
            neg_evidence = (point, exact)
    if pos_evidence and neg_evidence:
        return SignSurvey(
            classification="mixed", evidence=(pos_evidence, neg_evidence),
            certified=True, partial=False,
            samples_used=budget.samples, boxes_used=0)

    # subdivision pass, breadth first: certify one uniform sign, or catch a
    # zero at the midpoint of a straddling cell.  Each level is enclosed in
    # one batched call, then its cells are decided one by one in FIFO order.
    los, his = lo[None, :], hi[None, :]
    boxes_used = 0
    level_done = True
    while len(los) and boxes_used < budget.max_boxes:
        take = min(len(los), budget.max_boxes - boxes_used)
        level_done = take == len(los)
        los, his = los[:take], his[:take]
        enc_lo, enc_hi = det.eval_interval_batch(los, his)
        straddle = (enc_lo <= 0.0) & (enc_hi >= 0.0)
        for k in range(take):
            boxes_used += 1
            # exact midpoint values: on a straddling cell always, on a
            # signed cell only while that sign still lacks evidence
            if (straddle[k] or (pos_evidence is None and enc_lo[k] > 0.0)
                    or (neg_evidence is None and enc_hi[k] < 0.0)):
                mid = _midpoint_exact(los[k].tolist(), his[k].tolist())
                exact = det.eval(mid)
                if exact == 0:
                    return SignSurvey(
                        classification="vanishing_found", evidence=((mid, exact),),
                        certified=True, partial=False,
                        samples_used=budget.samples, boxes_used=boxes_used)
                if exact > 0 and pos_evidence is None:
                    pos_evidence = (mid, exact)
                elif exact < 0 and neg_evidence is None:
                    neg_evidence = (mid, exact)
            if pos_evidence and neg_evidence:
                return SignSurvey(
                    classification="mixed", evidence=(pos_evidence, neg_evidence),
                    certified=True, partial=False,
                    samples_used=budget.samples, boxes_used=boxes_used)
        los, his, _ = split_widest(los[straddle], his[straddle], 0.5)
    # certified only if the last level was finished and left no children
    certified_uniform = level_done and not len(los)

    evidence = tuple(e for e in (pos_evidence, neg_evidence) if e is not None)
    if pos_evidence and not neg_evidence:
        classification = "positive"
    elif neg_evidence and not pos_evidence:
        classification = "negative"
    else:
        # not a single exactly signed point found: the determinant hugs
        # zero as far as this budget can see
        classification = "vanishing_found"
        certified_uniform = False
    return SignSurvey(
        classification=classification,
        evidence=evidence,
        certified=certified_uniform,
        partial=not certified_uniform,
        samples_used=budget.samples,
        boxes_used=boxes_used,
        detail=None if certified_uniform else "box budget exhausted before certification")


def _random_monomial(rng, variables, max_deg):
    factors = [f"x{v}^{rng.randint(1, max_deg)}" for v in variables
               if rng.random() < 0.5]
    return "*".join([str(rng.choice([-3, -2, -1, 1, 2, 3]))] + factors)


def _random_survey_map(rng, n):
    """A random map of one of four shapes, so that every classification
    comes up: dense components, a triangular map whose determinant is a
    product of powers of the variables, a linear map (a constant
    determinant, sometimes 0) and a map with a zero component."""
    shape = rng.choice(["dense", "triangular", "triangular", "linear", "zero"])
    if shape == "linear":
        exprs = [" + ".join(f"{rng.randint(-2, 2)}*x{j}" for j in range(1, n + 1))
                 for _ in range(n)]
    elif shape == "triangular":
        exprs = [" + ".join([f"{rng.choice([-2, -1, 1, 2])}*x{i}^{rng.randint(1, 3)}"]
                            + [_random_monomial(rng, range(i + 1, n + 1), 2)
                               for _ in range(rng.randint(0, 2))])
                 for i in range(1, n + 1)]
    else:
        exprs = [" + ".join(_random_monomial(rng, range(1, n + 1), 3)
                            for _ in range(rng.randint(1, 4)))
                 for _ in range(n)]
        if shape == "zero":
            exprs[rng.randrange(n)] = "0"
    return make_map(n, *exprs)


def _random_survey_box(rng, n):
    # symmetric and lopsided sides, degenerate ones, and the side of two
    # subnormals, on which samples land exactly on -tiny, 0 and tiny
    tiny = 5e-324
    sides = []
    for _ in range(n):
        kind = rng.choice(["symmetric", "symmetric", "lopsided", "degenerate", "tiny"])
        if kind == "symmetric":
            r = rng.choice([0.5, 1.0, 2.0, 3.0])
            sides.append((-r, r))
        elif kind == "lopsided":
            a, b = sorted(rng.sample([-2.0, -1.5, -0.25, 0.0, 0.75, 1.0, 2.5], 2))
            sides.append((a, b))
        elif kind == "degenerate":
            a = rng.choice([-1.0, 0.0, 0.5, 2.0])
            sides.append((a, a))
        else:
            sides.append((-tiny, tiny))
    return IntervalBox.from_bounds(sides)


def test_survey_equals_reference_on_random_maps():
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 3)
        F = _random_survey_map(rng, n)
        box = _random_survey_box(rng, n)
        # budgets log-uniform on 1..2048, so that most cases stay cheap
        budget = SurveyBudget(samples=round(2 ** rng.uniform(0, 11)),
                              max_boxes=round(2 ** rng.uniform(0, 11)),
                              seed=rng.randint(0, 5))
        with np.errstate(all="ignore"):
            got = jacobian_sign_survey(F, box, budget)
            ref = _reference_sign_survey(F, box, budget)
        assert got == ref, (F.components, box.lo, box.hi, budget)
        seen.add((got.classification, got.certified))
    assert {c for c, _ in seen} == {"positive", "negative", "mixed", "vanishing_found"}
    assert {certified for _, certified in seen} == {True, False}


def _counting_exact_evals(monkeypatch):
    """Count every exact (rational) Poly.eval from here on."""
    counts = [0]
    real_eval = Poly.eval

    def counted(self, point):
        if not any(isinstance(x, float) for x in point):
            counts[0] += 1
        return real_eval(self, point)

    monkeypatch.setattr(Poly, "eval", counted)
    return counts


def test_survey_midpoint_filter_changes_no_result(monkeypatch):
    # varying determinants only, so that the subdivision pass runs: few
    # samples, and budgets that mostly end mid-level
    rng = random.Random(19)
    counts = _counting_exact_evals(monkeypatch)
    survey_evals = reference_evals = 0
    seen = set()
    cases = 0
    while cases < 60:
        n = rng.randint(1, 3)
        F = _random_survey_map(rng, n)
        if keller_check(F).kind != "nonconstant":
            continue
        cases += 1
        # half the boxes off-centre, where midpoints rarely meet a zero
        box = _random_survey_box(rng, n) if cases % 2 else IntervalBox.from_bounds(
            (a, a + rng.uniform(0.25, 3.0)) for a in (rng.uniform(-2.0, 1.0) for _ in range(n)))
        budget = SurveyBudget(samples=rng.choice([1, 2, 8]),
                              max_boxes=rng.choice([3, 7, 50, 300, 1000]),
                              seed=rng.randint(0, 5))
        with np.errstate(all="ignore"):
            got = jacobian_sign_survey(F, box, budget)
            survey_evals, counts[0] = survey_evals + counts[0], 0
            ref = _reference_sign_survey(F, box, budget)
            reference_evals, counts[0] = reference_evals + counts[0], 0
        assert got == ref, (F.components, box.lo, box.hi, budget)
        seen.add((got.classification, got.boxes_used > 0, got.boxes_used == budget.max_boxes))
    assert {c for c, _, _ in seen} == {"positive", "negative", "mixed", "vanishing_found"}
    # found by the subdivision pass
    assert {("vanishing_found", True, False), ("mixed", True, False)} <= seen
    assert {c for c, _, cut in seen if cut} >= {"positive", "negative"}  # budget ran out
    assert survey_evals < reference_evals / 2


def test_survey_finds_a_zero_at_a_dyadic_midpoint(monkeypatch):
    # det JF = (2*x1 - 1)^2: no sample hits its zero x1 = 1/2, the first
    # cell's midpoint (1, 0) is proved positive, and the second level's
    # cell [0, 1] x [-1, 1] has the zero at its midpoint
    F = make_map(2, "4/3*x1^3 - 2*x1^2 + x1", "x2")
    box = IntervalBox.from_bounds([(0.0, 2.0), (-1.0, 1.0)])
    budget = SurveyBudget(samples=8, max_boxes=100)
    counts = _counting_exact_evals(monkeypatch)
    s = jacobian_sign_survey(F, box, budget)
    survey_evals, counts[0] = counts[0], 0
    assert s == _reference_sign_survey(F, box, budget)
    assert s.classification == "vanishing_found" and s.certified
    assert s.evidence == (((Fraction(1, 2), Fraction(0)), Fraction(0)),)
    assert s.boxes_used == 2
    # the reference's evaluations: 4 positive samples, (1, 0) and (1/2, 0);
    # the survey skips the last 3 samples and (1, 0), whose sign the first
    # sample already showed
    assert (survey_evals, counts[0]) == (2, 6)


def _contains(lo: float, x: Fraction, hi: float) -> bool:
    return (lo == -math.inf or Fraction(lo) <= x) and (hi == math.inf or x <= Fraction(hi))


def test_midpoint_boxes_contain_the_exact_midpoint():
    rng = random.Random(5)
    big = sys.float_info.max
    special = [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 2.2250738585072014e-308,
               -2.2250738585072009e-308, 1.0, -1.0, 2.0 ** -1022, 2.0 ** 1023, -2.0 ** 1023,
               0.5, 3.0, big, -big, math.nextafter(big, 0.0), -math.nextafter(big, 0.0)]

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice(special)
        if kind == 1:  # a power of two, or a neighbour of one
            x = math.ldexp(1.0, rng.randint(-1074, 1023)) * rng.choice([-1, 1])
            return rng.choice([x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)])
        if kind == 2:  # subnormal
            return rng.randint(-2 ** 52, 2 ** 52) * 5e-324
        return rng.uniform(-1.0, 1.0) * math.ldexp(1.0, rng.randint(-1074, 1023))

    pairs = []
    for _ in range(4000):
        a = draw()
        b = rng.choice([a, -a, draw(), math.nextafter(a, math.inf) if a < big else a])
        pairs.append((min(a, b), max(a, b)))
    los = np.array([[lo] for lo, _ in pairs])
    his = np.array([[hi] for _, hi in pairs])
    box_lo, box_hi = _midpoint_boxes(los, his)
    for (lo, hi), blo, bhi in zip(pairs, box_lo[:, 0].tolist(), box_hi[:, 0].tolist()):
        assert _contains(blo, (Fraction(lo) + Fraction(hi)) / 2, bhi), (lo, hi, blo, bhi)
    # two dimensions at once, and a row with a side that is not finite
    box_lo, box_hi = _midpoint_boxes(np.array([[0.0, -1.0], [1.0, -math.inf]]),
                                     np.array([[1.0, 3.0], [2.0, 0.0]]))
    assert box_lo[0, 0] < 0.5 < box_hi[0, 0] and box_lo[0, 1] < 1.0 < box_hi[0, 1]
    assert np.isnan(box_lo[1]).all() and np.isnan(box_hi[1]).all()


def _survey_exact_evals(monkeypatch, F, box, budget):
    """Run the survey; return its result and, for each exact value of
    det JF it takes, the pass that took it ("sampling" or "subdivision"),
    the signs of det JF known before it and the sign that the enclosure
    of its sample's degenerate box or of its cell's midpoint box proves
    (0 where the enclosure reaches 0)."""
    det = jacobian_det(F)
    real_eval, real_batch = Poly.eval, Poly.eval_interval_batch
    signs, level, out = set(), [], []

    def evaluate(self, point):
        value = real_eval(self, point)
        if self is det:
            los, his, lo, hi = level[-1]
            if np.array_equal(los, his):
                # the sampling pass: row k of the batch is sample k's point
                k = next(k for k in range(len(los)) if _rational_point(los[k]) == point)
                out.append(("sampling", frozenset(signs), int(lo[k] > 0) - int(hi[k] < 0)))
            else:
                count = len(los) // 2
                (k,) = [k for k in range(count)
                        if _midpoint_exact(los[k].tolist(), his[k].tolist()) == point]
                # row count + k of the batch is a box about that midpoint
                assert all(Fraction(a) <= x <= Fraction(b) for a, x, b
                           in zip(los[count + k].tolist(), point, his[count + k].tolist()))
                out.append(("subdivision", frozenset(signs),
                            int(lo[count + k] > 0) - int(hi[count + k] < 0)))
            signs.add((value > 0) - (value < 0))
        return value

    def batch(self, los, his):
        lo, hi = real_batch(self, los, his)
        if self is det:
            level.append((los, his, lo, hi))
        return lo, hi

    monkeypatch.setattr(Poly, "eval", evaluate)
    monkeypatch.setattr(Poly, "eval_interval_batch", batch)
    return jacobian_sign_survey(F, box, budget), out


@pytest.mark.parametrize("exprs, bounds, samples", [
    (None, [(0.0, 2.0), (-1.0, 1.0)], 2048),  # the Pinchuk map
    (("x1^2", "x2^2"), [(-1.0, 2.0), (-1.5, 1.0)], 1),
    (("4/3*x1^3 - 2*x1^2 + x1", "x2"), [(0.0, 2.0), (-1.0, 1.0)], 8),
])
def test_survey_evaluates_exactly_only_where_evidence_can_change(
        monkeypatch, fixtures_dir, exprs, bounds, samples):
    if exprs is None:
        doc = json.loads((fixtures_dir / "pinchuk.map").read_text())
        F = make_map(doc["n"], *doc["components"])
    else:
        F = make_map(2, *exprs)
    box = IntervalBox.from_bounds(bounds)
    budget = SurveyBudget(samples=samples, max_boxes=64)
    s, evals = _survey_exact_evals(monkeypatch, F, box, budget)
    assert s.boxes_used > sum(step == "subdivision" for step, _, _ in evals)
    assert any(step == "sampling" for step, _, _ in evals)
    for _, known, proved in evals:
        assert proved == 0 or proved not in known


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


def _reference_prune_candidates(F, box, cfg):
    # reference: the prune walk run whatever its budget, kept as it was
    # before the walk could be skipped
    n = F.n
    diffs = IntervalStack([comp.pad(n) - comp.shift(n) for comp in F.components])
    sep = _WITNESS_SEPARATION
    leaf_width = box.max_width() / 16.0
    candidates = []

    def decide(los, his):
        room = cfg.max_candidates - len(candidates)
        if room <= 0:
            return None
        gap_lo = np.nextafter(los[:, :n] - his[:, n:], -np.inf)
        gap_hi = np.nextafter(his[:, :n] - los[:, n:], np.inf)
        keep = (((gap_lo <= -sep) | (gap_hi >= sep)).any(axis=1)
                & fibersolve._reaches_zero(diffs, los, his))
        leaf = (his - los).max(axis=1) <= leaf_width
        candidates.extend(_midpoint_exact(los[k].tolist(), his[k].tolist())
                          for k in np.nonzero(keep & leaf)[0][:room].tolist())
        return keep & ~leaf

    fibersolve.subdivide(np.array([box.lo * 2]), np.array([box.hi * 2]), decide,
                         cfg.prune_boxes, 0.5)
    return candidates


def _random_prune_box(rng, n):
    kind = rng.choice(["cube", "sides", "far", "narrow"])
    if kind == "cube":
        r = rng.choice([0.5, 1.0, 2.0, 3.0])
        return IntervalBox.from_bounds([(-r, r)] * n)
    if kind == "sides":
        return IntervalBox.from_bounds(
            [(a, a + rng.uniform(0.25, 4.0)) for a in (rng.uniform(-3.0, 1.0) for _ in range(n))])
    if kind == "far":
        # about 1e6 floats are 1.2e-10 apart, so midpoints of cells round
        return IntervalBox.from_bounds(
            [(c - 0.5, c + 0.5) for c in (rng.choice([-1, 1]) * rng.uniform(1e6, 2e6)
                                          for _ in range(n))])
    # narrower than 3 separations: the gap test drops diagonal cells
    return IntervalBox.from_bounds(
        [(a, a + rng.uniform(0.02, 0.3)) for a in (rng.uniform(-2.0, 2.0) for _ in range(n))])


def _random_prune_map(rng, n):
    F = random_map(rng, n)
    if rng.random() < 0.5:  # after a fold in x1, (a, y) and (-a, y) collide
        fold = PolyMap([Poly.var(n, 1) ** 2] + [Poly.var(n, i) for i in range(2, n + 1)])
        return map_compose(F, fold)
    return F


def test_prune_candidates_equal_the_reference_walk(monkeypatch):
    rng = random.Random(22)
    held = []
    real_no_leaf = injectlab._no_leaf_within

    def recorded(*args):
        held.append(real_no_leaf(*args))
        return held[-1]

    monkeypatch.setattr(injectlab, "_no_leaf_within", recorded)
    with_candidates = proved = 0
    for _ in range(600):
        n = rng.choice((1, 2, 3))
        F = _random_prune_map(rng, n)
        box = _random_prune_box(rng, n)
        cfg = CollisionConfig(prune_boxes=rng.choice((0, 1, 16, 256, 2048, 8192)),
                              max_candidates=rng.choice((0, 1, 48)))
        got = _prune_candidates(F, box, cfg)
        assert got == _reference_prune_candidates(F, box, cfg), (F.components, box, cfg)
        with_candidates += bool(got)
        # proofs on budgets that let the walk reach some depth
        proved += held[-1] and cfg.prune_boxes >= 256
    assert with_candidates >= 30
    assert proved >= 30


def test_prune_walks_a_box_wider_than_the_float_range():
    # the leaf width is not finite there, so no leaf depth is known
    F = make_map(2, "x1^2", "x2")
    box = IntervalBox.from_bounds([(-1.7e308, 1.7e308), (-1.0, 1.0)])
    cfg = CollisionConfig()
    assert not injectlab._no_leaf_within(box, 2, box.max_width() / 16.0, cfg.prune_boxes)
    got = _prune_candidates(F, box, cfg)
    with np.errstate(over="ignore"):
        assert got == _reference_prune_candidates(F, box, cfg)


@pytest.mark.parametrize("F, box", [
    (PolyMap([parse_poly(c, 2) for c in json.loads(
        (Path(__file__).parent.parent / "fixtures" / "pinchuk.map").read_text())["components"]]),
     cube(2, 2)),
    (random_composed_automorphism(random.Random(3), 3)[0], cube(3, 2)),
], ids=["pinchuk", "aut3"])
def test_prune_encloses_nothing_where_the_budget_cannot_reach_a_leaf(monkeypatch, F, box):
    calls = [0]
    real_enclose = IntervalStack.enclose

    def counted(self, los, his):
        calls[0] += 1
        return real_enclose(self, los, his)

    monkeypatch.setattr(IntervalStack, "enclose", counted)
    assert _prune_candidates(F, box, CollisionConfig()) == []
    assert calls[0] == 0


def _reference_pairs(F, box, cfg):
    # reference: the scalar pair search, a dict of cell buckets holding the
    # first 16 samples of each cell and a scan of the 3^n neighbour cells
    # per sample
    n = F.n
    rng = np.random.default_rng(cfg.seed)
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    pts = lo[None, :] + rng.random((cfg.samples, n)) * span[None, :]
    images = np.stack([comp.eval_array(pts) for comp in F.components], axis=1)
    finite = np.all(np.isfinite(images), axis=1)
    pts, images = pts[finite], images[finite]
    if pts.shape[0] < 2:
        return []
    img_lo = np.percentile(images, 0.5, axis=0)
    img_hi = np.percentile(images, 99.5, axis=0)
    img_span = np.maximum(img_hi - img_lo, 1e-30)
    cells = np.clip(
        np.floor((images - img_lo[None, :]) / img_span[None, :] * _BUCKET_CELLS),
        -1, _BUCKET_CELLS + 1).astype(np.int64)
    buckets = {}
    scored = []
    scale = img_span / _BUCKET_CELLS
    for i in range(pts.shape[0]):
        key = tuple(cells[i])
        for off in itertools.product((-1, 0, 1), repeat=n):
            neighbor = tuple(k + o for k, o in zip(key, off))
            for j in buckets.get(neighbor, ()):
                if np.max(np.abs(pts[i] - pts[j])) >= 0.8 * _WITNESS_SEPARATION:
                    gap = float(np.max(np.abs((images[i] - images[j]) / scale)))
                    scored.append((gap, j, i))
        bucket = buckets.setdefault(key, [])
        if len(bucket) < 16:
            bucket.append(i)
    scored.sort()
    return [(pts[j].copy(), pts[i].copy()) for _, j, i in scored[:cfg.max_pairs]]


@pytest.mark.parametrize("exprs, radius, samples, max_pairs", [
    # 1-D: about 23 samples per cell, far more than the 16 paired
    (("x1^3 - x1",), 2, 3000, 10 ** 6),
    (("x1^2",), 2, 700, 64),
    # x1 spreads evenly, so the clipped cells -1 and _BUCKET_CELLS + 1 of
    # axis 1 each hold about 20 samples across the cells of axis 2
    (("x1", "x2^2"), 2, 4000, 10 ** 6),
    (("x1^2", "x2"), 2, 2500, 10 ** 6),
    # x1^300 overflows for |x1| > 10.5: inf and inf - inf samples drop out
    (("x1^300 - x2^300", "x2"), 20, 1500, 10 ** 6),
    (("x1 + x2^2", "x2 + x3^2", "x3"), 2, 2000, 300),
    (("x1*x2", "x2*x3", "x3 + x1^2"), 1, 1200, 10 ** 6),
    # 9-D: 132^9 passes int64, so the cell keys are Python ints; x^41 piles
    # most images into the cells next to 0 on every axis
    (tuple(f"x{k}^41" for k in range(1, 10)), 1, 50, 10 ** 6),
])
@pytest.mark.parametrize("seed, row_block", [(0, None), (3, 1000)])
def test_sampled_pairs_equals_reference_loop(monkeypatch, exprs, radius, samples, max_pairs,
                                             seed, row_block):
    if row_block:  # samples i in several blocks
        monkeypatch.setattr(fibersolve, "_ROW_BLOCK", row_block)
    F = make_map(len(exprs), *exprs)
    cfg = CollisionConfig(samples=samples, seed=seed, max_pairs=max_pairs)
    with np.errstate(all="ignore"):
        got = _sampled_pairs(F, cube(F.n, radius), cfg)
        ref = _reference_pairs(F, cube(F.n, radius), cfg)
    assert len(got) == len(ref) > 0
    if max_pairs == 10 ** 6:
        assert len(ref) < max_pairs  # every scored pair comes back
    for (a, b), (c, d) in zip(got, ref):
        assert a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes()


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
    assert report.base_fiber_size == 1
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


def test_pipeline_orientation_reversing_swap():
    # det J = -1: the degree is -1 at every point, and the fiber size its
    # product with the sign of det J
    report = injectivity_pipeline(make_map(2, "x2", "x1"), [[3, -5], [0, 0]])
    assert report.verdict == "consistent_with_injectivity"
    for rec in report.records:
        assert rec.fiber_size == 1
        assert rec.degree_at_query == -1 and rec.degree_at_base == -1


@pytest.mark.parametrize("wrong", [-1, 2])
def test_pipeline_wrong_winding_degree_is_a_soundness_bug(monkeypatch, wrong):
    # the certified segment forces the degree at the query to equal the
    # base's signed count, 1 here
    monkeypatch.setattr(injectlab, "winding_degree", lambda F, z, box: wrong)
    with pytest.raises(RuntimeError, match="soundness bug"):
        injectivity_pipeline(make_map(2, "x1 + x2^3", "x2"), [[1, 1]])


_ON_BOUNDARY = "no winding degree: the target lies on F(boundary)"


def _assert_signed_counts_match(F, report):
    """The signed count of each record's query and base fibers, solved
    over the record's box, equals the record's degree."""
    for rec in report.records:
        box = IntervalBox.cube(2, rec.radius)
        for z, deg in ((rec.query, rec.degree_at_query), (report.base_point, rec.degree_at_base)):
            fiber = solve_fiber(F, z, box)
            assert fiber.status == "complete" and fiber.signed_count == deg


def test_pipeline_undecided_winding_degree_refuses_the_query_radius(monkeypatch):
    # a None winding degree means the query lies on F(boundary), so every
    # radius the query tries is turned down without a solve; the degrees
    # of the decided report equal the signed counts of the solved fibers
    for F, queries in _plane_keller_cases():
        report = injectivity_pipeline(F, queries)
        base = report.base_point
        winding = injectlab.winding_degree
        with monkeypatch.context() as patch:
            patch.setattr(injectlab, "winding_degree",
                          lambda F, z, box: winding(F, z, box) if tuple(z) == base else None)
            solves = _record_solves(patch)
            refused = injectivity_pipeline(F, queries)
        assert refused.verdict == "inconclusive" and refused.base_fiber_size == 1
        assert not solves
        for rec, decided in zip(refused.records, report.records, strict=True):
            if rec.query == base:
                # a query at the base keeps the base's decided degree
                assert rec == decided
                continue
            assert rec.radius is None and not rec.path_certified
            assert rec.note.startswith("radius cap reached without full certification; "
                                       "last at radius ")
            assert rec.note.endswith(f": {_ON_BOUNDARY}")
        _assert_signed_counts_match(F, report)


def _plane_keller_cases():
    rng = random.Random(515)
    automorphism, _ = random_composed_automorphism(rng, 2, factors=2)
    return [(make_map(2, "x1 + x2^3", "x2"), [[1, 1], [-2, 3], [0, 3]]),
            (make_map(2, "x1 + x2^2 + 1", "x2 - 2"), [[1, -2], [5, 4]]),
            (make_map(2, "x2", "x1"), [[3, -5], [40, 1]]),
            (automorphism, [[1, -1], [0, 1], [-1, 2]])]


def _record_solves(monkeypatch):
    """Wrap solve_fiber; returns the target and box radius of every solve."""
    solves, solve = [], injectlab.solve_fiber

    def recording(F, z, box, cfg=None, **kwargs):
        solves.append((tuple(z), box.hi[0]))
        return solve(F, z, box, cfg, **kwargs)

    monkeypatch.setattr(injectlab, "solve_fiber", recording)
    return solves


def test_pipeline_reads_a_unit_base_degree_instead_of_solving_the_base(monkeypatch):
    # the base's winding degree is +-1 at Step 1's radius and at every
    # query radius, so the base is never solved
    for F, queries in _plane_keller_cases():
        with monkeypatch.context() as patch:
            solves = _record_solves(patch)
            alone = injectivity_pipeline(F, [])
            report = injectivity_pipeline(F, queries)
        base = report.base_point
        assert alone.base_fiber_size == report.base_fiber_size == 1
        assert report.verdict == "consistent_with_injectivity"
        assert not [radius for z, radius in solves if z == base]
        for rec in report.records:
            assert rec.degree_at_base in (1, -1) and rec.degree_at_base == rec.degree_at_query


def test_pipeline_undecided_base_degree_refuses_the_radius(monkeypatch):
    # with the base's winding degree None the base lies on F(boundary) at
    # every radius, so Step 1 certifies none and nothing is solved; the
    # degrees of the decided report equal the signed counts of the solved
    # fibers at each record's radius
    winding = injectlab.winding_degree
    for F, queries in _plane_keller_cases():
        report = injectivity_pipeline(F, queries)
        base = report.base_point
        with monkeypatch.context() as patch:
            patch.setattr(injectlab, "winding_degree",
                          lambda F, z, box: None if tuple(z) == base else winding(F, z, box))
            solves = _record_solves(patch)
            refused = injectivity_pipeline(F, queries)
        assert refused.verdict == "inconclusive" and refused.base_fiber_size is None
        assert not refused.records and not solves
        assert refused.detail == ("no certified base fiber within the radius cap; last at "
                                  f"radius {injectlab._MAX_RADIUS}: {_ON_BOUNDARY}")
        _assert_signed_counts_match(F, report)


@pytest.mark.parametrize("wrong", [-1, 0, 2])
def test_pipeline_base_degree_off_its_signed_count_is_a_soundness_bug(monkeypatch, wrong):
    # Step 1's fiber is the singleton about the origin, signed count 1; with
    # no queries only Step 1's cross-check can see the base's degree
    winding = injectlab.winding_degree
    monkeypatch.setattr(injectlab, "winding_degree",
                        lambda F, z, box: wrong if tuple(z) == (0, 0) else winding(F, z, box))
    with pytest.raises(RuntimeError, match="soundness bug"):
        injectivity_pipeline(make_map(2, "x1 + x2^3", "x2"), [])


def test_pipeline_refuses_step_1_radii_where_the_base_degree_is_undecided(monkeypatch):
    # with the base's winding degree None, and no queries, Step 1 tries
    # every radius up to the cap once and solves nothing; at the first
    # radius, where the decided degree certifies the base, the solved
    # fiber's signed count gives the same fiber size
    winding = injectlab.winding_degree
    for F, _ in _plane_keller_cases():
        report = injectivity_pipeline(F, [])
        base = report.base_point
        wound = []
        with monkeypatch.context() as patch:
            patch.setattr(injectlab, "winding_degree",
                          lambda F, z, box: wound.append(box.hi[0]) if tuple(z) == base
                          else winding(F, z, box))
            solves = _record_solves(patch)
            refused = injectivity_pipeline(F, [])
        assert report.base_fiber_size == 1 and refused.base_fiber_size is None
        assert not solves
        assert wound == [float(2 ** k) for k in range(21)]
        fiber = solve_fiber(F, base, IntervalBox.cube(2, injectlab._INITIAL_RADIUS))
        det_sign = 1 if injectlab.keller_check(F).constant_value > 0 else -1
        assert fiber.status == "complete" and fiber.signed_count * det_sign == 1


@pytest.mark.parametrize("F", [make_map(2, "x1 + x2^3", "x2"),
                               make_map(2, "x1 + x2^2 + 1", "x2 - 2"),
                               make_map(2, "x2", "x1")])
@pytest.mark.parametrize("size", [0, -1])
def test_pipeline_base_degree_that_misses_the_origin_is_a_soundness_bug(
        monkeypatch, F, size):
    # the default base is the origin for a cubic form and F(0) otherwise;
    # either way F(0) is the base, and the origin a root inside the box,
    # so a fiber size of 0 or -1 is caught without a solve.  The same
    # base passed by the caller is caught too
    det_sign = 1 if injectlab.keller_check(F).constant_value > 0 else -1
    base = injectivity_pipeline(F, []).base_point
    winding = injectlab.winding_degree
    monkeypatch.setattr(injectlab, "winding_degree",
                        lambda G, z, box: size * det_sign if tuple(z) == base
                        else winding(G, z, box))
    solves = _record_solves(monkeypatch)
    for given in (None, base):
        with pytest.raises(RuntimeError, match="soundness bug"):
            injectivity_pipeline(F, [[1, 1]], base=given)
    assert not [z for z, radius in solves if z == base]


def test_pipeline_reads_the_degree_of_a_base_other_than_the_image_of_zero(monkeypatch):
    # F((1/2, -1/2)) = (3/8, -1/2) is not F(0), so no root of the base is
    # known in advance; its degree is still read without a solve, and the
    # records match those of the default base.  Its root lies inside the
    # first box, where Step 1 reads the degree
    F = make_map(2, "x1 + x2^3", "x2")
    queries = [[1, 1], [-2, 3], [0, 3]]
    base = tuple(c.eval((Fraction(1, 2), Fraction(-1, 2))) for c in F.components)
    assert base == (Fraction(3, 8), Fraction(-1, 2))
    default = injectivity_pipeline(F, queries)
    solves = _record_solves(monkeypatch)
    report = injectivity_pipeline(F, queries, base=base)
    assert report.base_point == base and report.base_fiber_size == 1
    assert report.verdict == "consistent_with_injectivity"
    assert not [z for z, radius in solves if z == base]
    for rec, ref in zip(report.records, default.records, strict=True):
        assert rec.fiber_size == ref.fiber_size == 1
        assert rec.degree_at_query == rec.degree_at_base == ref.degree_at_query
        assert rec.path_certified


def test_pipeline_base_away_from_the_image_of_zero_may_be_empty_but_not_negative(
        monkeypatch):
    # without a known root a certified degree of 0 is an empty fiber, while
    # a degree of -sign(det JF) = -1 is a soundness bug at any base
    F = make_map(2, "x1 + x2^3", "x2")
    base = (Fraction(3, 8), Fraction(-1, 2))
    winding, forced = injectlab.winding_degree, []
    monkeypatch.setattr(injectlab, "winding_degree",
                        lambda G, z, box: forced[0] if tuple(z) == base else winding(G, z, box))
    forced[:] = [0]
    report = injectivity_pipeline(F, [[1, 1]], base=base)
    assert report.verdict == "inconclusive" and report.base_fiber_size == 0
    assert report.detail == "base point has an empty certified fiber"
    forced[:] = [-1]
    with pytest.raises(RuntimeError, match="base degree -1 has the opposite sign of det JF; "
                                           "this is a soundness bug"):
        injectivity_pipeline(F, [[1, 1]], base=base)


@pytest.mark.parametrize("base, queries, message", [
    ([1, 0], [[0, 0, 0]], r"query 0 = \['0', '0', '0'\] has length 3, expected 2"),
    ([1, 0], [[1, 1], [Fraction(1, 2)]], r"query 1 = \['1/2'\] has length 1, expected 2"),
    ([1, 0, 0], [[1, 1]], r"base = \['1', '0', '0'\] has length 3, expected 2"),
    ([1], [[1, 1]], r"base = \['1'\] has length 1, expected 2"),
])
def test_pipeline_checks_every_length_before_step_1(monkeypatch, base, queries, message):
    # with the cap at 1 the base (1, 0) lies on F(boundary) at every
    # radius tried, so Step 1 fails there, and a base of the wrong length
    # cannot be read at all; the lengths are checked before Step 1
    monkeypatch.setattr(injectlab, "_MAX_RADIUS", 1)
    solves = _record_solves(monkeypatch)
    with pytest.raises(ValueError, match=message):
        injectivity_pipeline(PolyMap.identity(2), queries, base=base)
    assert not solves


def test_pipeline_query_degree_off_its_signed_count_is_a_soundness_bug(monkeypatch):
    # a winding degree of 2 is checked against the query's solved fiber,
    # the singleton (-2, 1) with signed count 1, before the query's degree
    # is compared with the base's
    winding = injectlab.winding_degree
    monkeypatch.setattr(injectlab, "winding_degree",
                        lambda F, z, box: 2 if tuple(z) == (-1, 1) else winding(F, z, box))
    with pytest.raises(RuntimeError, match="a winding degree and the signed count of "
                                           "its certified fiber disagree"):
        injectivity_pipeline(make_map(2, "x1 + x2^3", "x2"), [[-1, 1]])


@pytest.mark.parametrize("forced, message", [
    # the query's winding degree alone is -1, so the degrees differ
    (lambda z, box: z == (1, 1), "certified degrees at the query and the base disagree"),
    # from radius 2 on, the query's and the base's: they agree on -1, while
    # det JF = 1; Step 1 certifies the base at radius 1
    (lambda z, box: box.hi[0] >= 2, "degree -1 has the opposite sign of det JF"),
])
def test_pipeline_degree_cross_checks_are_soundness_bugs(monkeypatch, forced, message):
    # a winding degree of -1 needs no solve, so only the cross-checks
    # between the degrees can see it
    winding = injectlab.winding_degree
    monkeypatch.setattr(injectlab, "winding_degree",
                        lambda F, z, box: -1 if forced(tuple(z), box) else winding(F, z, box))
    with pytest.raises(RuntimeError, match=message + ".*soundness bug"):
        injectivity_pipeline(make_map(2, "x1 + x2^3", "x2"), [[1, 1]])


def test_pipeline_names_a_first_radius_above_the_cap():
    # the first radius of the query (10^7, 0) is 2 * 10^7, above the cap of
    # 2^20, so no radius is tried; the other query still certifies
    report = injectivity_pipeline(make_map(2, "x1 + x2^3", "x2"), [[10**7, 0], [1, 1]])
    assert report.verdict == "inconclusive"
    far, near = report.records
    assert far.radius is None and not far.path_certified
    assert far.note == ("radius cap reached without full certification; "
                        "first radius 20000000 is above the cap 1048576")
    assert near.fiber_size == 1 and near.path_certified


def _record_pipeline_calls(monkeypatch, query):
    """Wrap the query's degree calls and fiber solves and the path segment
    checks; returns the box radii of the query's degree calls, of its
    solves, of the segments that held and of the segments that failed."""
    wound, solved, held, failed = [], [], [], []
    segment, solve = injectlab.segment_failure, injectlab.solve_fiber
    winding = injectlab.winding_degree

    def recording_segment(F, box, a, b):
        failure = segment(F, box, a, b)
        (held if failure is None else failed).append(box.hi[0])
        return failure

    def recording_solve(F, z, box, cfg=None, **kwargs):
        if tuple(z) == query:
            solved.append(box.hi[0])
        return solve(F, z, box, cfg, **kwargs)

    def recording_winding(F, z, box):
        if tuple(z) == query:
            wound.append(box.hi[0])
        return winding(F, z, box)

    monkeypatch.setattr(injectlab, "segment_failure", recording_segment)
    monkeypatch.setattr(injectlab, "solve_fiber", recording_solve)
    monkeypatch.setattr(injectlab, "winding_degree", recording_winding)
    return wound, solved, held, failed


def test_pipeline_solves_no_query_fiber_where_the_segment_failed(monkeypatch):
    # the base-to-query segment crosses the image of the boundary of the
    # radius-50 box (its preimage reaches x2 = 74) and clears that of every
    # larger box.  The query's degree is read at radius 50, whose box holds
    # its root; the segment turns that radius down, and radius 100 is
    # certified.  The degree is 1 at both, so the query's fiber is never
    # solved.  With the cap at 50 no further radius is tried, and the cap
    # note names the edge whose image the segment meets
    F = make_map(2, "18*x1^4 - 12*x1^2*x2 + 6*x1^2 + 2*x2^2 + x1 - 2*x2",
                 "-3*x1^2 + x2")
    query = (Fraction(25), Fraction(-3))
    with monkeypatch.context() as patch:
        patch.setattr(injectlab, "_MAX_RADIUS", 1600)
        wound, solved, held, failed = _record_pipeline_calls(patch, query)
        report = injectivity_pipeline(F, [query])
    assert failed == [50.0] and held == [100.0]
    assert wound == [50.0, 100.0] and solved == []
    assert report.verdict == "consistent_with_injectivity"
    (record,) = report.records
    assert record.radius == 100 and record.path_certified

    monkeypatch.setattr(injectlab, "_MAX_RADIUS", 50)
    wound, solved, held, failed = _record_pipeline_calls(monkeypatch, query)
    report = injectivity_pipeline(F, [query])
    assert failed == [50.0] and not held
    assert wound == [50.0] and solved == []
    assert report.verdict == "inconclusive"
    (record,) = report.records
    assert record.radius is None and not record.path_certified
    assert record.note == ("radius cap reached without full certification; "
                           "last at radius 50: path segment: F maps a point of the "
                           "edge x2 = 50 onto the segment")


def test_pipeline_checks_no_segment_while_the_query_fiber_is_empty(monkeypatch):
    # the root (-27, 3) of the query lies outside the boxes of radius 6, 12
    # and 24; the segment must fail there, but a zero degree turns those
    # radii down first, and the segment is checked only at radius 48
    query = (Fraction(0), Fraction(3))
    wound, solved, held, failed = _record_pipeline_calls(monkeypatch, query)
    report = injectivity_pipeline(make_map(2, "x1 + x2^3", "x2"), [query])
    assert report.verdict == "consistent_with_injectivity"
    assert report.records[0].radius == 48
    assert wound == [6.0, 12.0, 24.0, 48.0] and solved == []
    assert held == [48.0] and not failed


def test_plane_pipeline_certifies_its_segments_without_the_sum_of_squares_heap(
        monkeypatch, fixtures_dir):
    # for n = 2 the segment test is exact, in integer arithmetic
    doc = json.loads((fixtures_dir / "triangular.map").read_text())
    F = make_map(doc["n"], *doc["components"])
    inside, segments, heap_calls = [], [], []
    segment, heap = injectlab.segment_failure, fibersolve.certified_min_sum_squares

    def recording_segment(*args):
        inside.append(True)
        try:
            segments.append(segment(*args))
        finally:
            inside.pop()
        return segments[-1]

    def recording_heap(*args, **kwargs):
        heap_calls.append(bool(inside))
        return heap(*args, **kwargs)

    monkeypatch.setattr(injectlab, "segment_failure", recording_segment)
    monkeypatch.setattr(fibersolve, "certified_min_sum_squares", recording_heap)
    report = injectivity_pipeline(F, [[0, 3], [5, -2], [Fraction(1, 3), 7]])
    assert report.verdict == "consistent_with_injectivity"
    assert len(segments) >= 3 and None in segments
    assert True not in heap_calls


def test_pipeline_base_cap_names_the_failed_certificate(monkeypatch):
    # the base point (1, 0) lies on the image of the radius-1 box's
    # boundary, where the winding degree is None, and the cap allows no
    # larger box
    monkeypatch.setattr(injectlab, "_MAX_RADIUS", 1)
    solves = _record_solves(monkeypatch)
    report = injectivity_pipeline(PolyMap.identity(2), [[0, 0]], base=[1, 0])
    assert report.verdict == "inconclusive" and report.base_fiber_size is None
    assert report.detail == ("no certified base fiber within the radius cap; "
                             f"last at radius 1: {_ON_BOUNDARY}")
    assert not solves


def _record_certificates(monkeypatch, winding=None):
    """Wrap the fiber solve, the winding degree (replaced by winding when
    given) and the sum-of-squares heap under every clearance; returns one
    list of the calls in order, each as (kind, target, box radius), with
    a heap call made outside a path segment test as ("clearance", None,
    None), the winding results and the max_boxes of every solve."""
    calls, wound, budgets = [], {}, []
    solve, heap = injectlab.solve_fiber, fibersolve.certified_min_sum_squares
    segment = injectlab.segment_failure
    winding = winding or injectlab.winding_degree
    inside = []

    def recording_solve(F, z, box, cfg=None, **kwargs):
        calls.append(("solve", tuple(z), box.hi[0]))
        budgets.append(kwargs.get("max_boxes"))
        return solve(F, z, box, cfg, **kwargs)

    def recording_winding(F, z, box):
        calls.append(("winding", tuple(z), box.hi[0]))
        wound[tuple(z), box.hi[0]] = winding(F, z, box)
        return wound[tuple(z), box.hi[0]]

    def recording_segment(*args):
        inside.append(True)
        try:
            return segment(*args)
        finally:
            inside.pop()

    def recording_heap(*args, **kwargs):
        if not inside:
            calls.append(("clearance", None, None))
        return heap(*args, **kwargs)

    monkeypatch.setattr(injectlab, "solve_fiber", recording_solve)
    monkeypatch.setattr(injectlab, "winding_degree", recording_winding)
    monkeypatch.setattr(injectlab, "segment_failure", recording_segment)
    monkeypatch.setattr(fibersolve, "certified_min_sum_squares", recording_heap)
    return calls, wound, budgets


def test_pipeline_runs_no_clearance_where_the_winding_degree_is_decided(monkeypatch):
    # a decided winding degree proves the target off F(boundary), which is
    # all the clearance certified; every winding degree is decided here
    for F, queries in _plane_keller_cases():
        report = injectivity_pipeline(F, queries)
        with monkeypatch.context() as patch:
            calls, wound, _ = _record_certificates(patch)
            wrapped = injectivity_pipeline(F, queries)
        assert wrapped == report
        assert wound and None not in wound.values()
        assert not [call for call in calls if call[0] == "clearance"]


def test_pipeline_makes_no_clearance_where_the_winding_degree_is_undecided(monkeypatch):
    # with every winding degree None the base lies on F(boundary) at each
    # radius Step 1 tries, so each is turned down by its winding degree
    # alone: no clearance and no solve
    for F, queries in _plane_keller_cases():
        with monkeypatch.context() as patch:
            calls, _, _ = _record_certificates(patch, lambda F, z, box: None)
            refused = injectivity_pipeline(F, queries)
        assert refused.verdict == "inconclusive" and refused.base_fiber_size is None
        assert calls == [("winding", refused.base_point, float(2 ** k)) for k in range(21)]


def test_pipeline_certifies_a_decided_query_whose_clearance_fails(monkeypatch):
    # the pipeline asks no clearance where the winding degree is decided,
    # so a clearance kernel that cannot certify anything changes no report
    for F, queries in _plane_keller_cases():
        report = injectivity_pipeline(F, queries)
        with monkeypatch.context() as patch:
            patch.setattr(fibersolve, "certified_min_sum_squares",
                          lambda *args, **kwargs: (0.0, 1, 0, "forced to fail"))
            forced = injectivity_pipeline(F, queries)
        assert forced == report
        assert forced.verdict == "consistent_with_injectivity"
        assert all(rec.path_certified for rec in forced.records)


def test_pipeline_budgets_every_solve_without_a_clearance_in_three_dimensions(monkeypatch):
    # n = 3 has no winding degree: a complete solve within the box budget
    # certifies the point off F(boundary), so the sum-of-squares heap runs
    # only for the path segments, every solve passes the budget, and the
    # report equals that of unbudgeted solves
    F, _ = random_druzkowski_map(random.Random(23), 3)
    queries = [[1, -1, 2], [0, 2, -1]]
    solve = injectlab.solve_fiber
    with monkeypatch.context() as patch:
        patch.setattr(injectlab, "solve_fiber",
                      lambda F, z, box, cfg=None, **kwargs: solve(F, z, box, cfg))
        unbudgeted = injectivity_pipeline(F, queries)
    calls, wound, budgets = _record_certificates(monkeypatch)
    report = injectivity_pipeline(F, queries)
    assert report == unbudgeted
    assert report.verdict == "consistent_with_injectivity"
    assert not wound
    assert not [call for call in calls if call[0] == "clearance"]
    solves = [call[1:] for call in calls if call[0] == "solve"]
    assert {z for z, radius in solves} == {(0, 0, 0), (1, -1, 2), (0, 2, -1)}
    assert len({radius for z, radius in solves}) >= 3
    assert budgets == [injectlab._SOLVE_BOXES] * len(solves)


def test_pipeline_certifies_a_query_on_the_boundary_image_of_its_first_radius(monkeypatch):
    # F(1, 1, 1/2) = (0, 0, 1/2), whose first radius is 1: that box's face
    # x1 = 1 holds the root, so the solve there ends boundary_contact
    # within the budget, and radius 2 certifies the query, with no
    # clearance made
    F = make_map(3, "x1 - 8*x3^3", "x2 - 8*x3^3", "x3")
    query = (Fraction(0), Fraction(0), Fraction(1, 2))
    assert tuple(c.eval((1, 1, Fraction(1, 2))) for c in F.components) == query
    statuses, solve = [], injectlab.solve_fiber

    def recording_solve(F, z, box, cfg=None, **kwargs):
        fiber = solve(F, z, box, cfg, **kwargs)
        if tuple(z) == query:
            statuses.append((box.hi[0], fiber.status))
        return fiber

    calls, _, _ = _record_certificates(monkeypatch)
    monkeypatch.setattr(injectlab, "solve_fiber", recording_solve)
    report = injectivity_pipeline(F, [query])
    assert report.verdict == "consistent_with_injectivity"
    (record,) = report.records
    assert record.radius == 2 and record.path_certified and record.fiber_size == 1
    assert statuses == [(1.0, "boundary_contact"), (2.0, "complete")]
    assert not [call for call in calls if call[0] == "clearance"]


def test_pipeline_cap_note_names_an_exhausted_solve_budget(monkeypatch):
    # the benchmark's r1map1 map with the base F(64, -32, -128), whose root
    # lies on the face x3 = -128 of the radius-128 box: Step 1's solve
    # there spends its budget, where an unbudgeted one walks 497,229
    # boxes, and with only that radius allowed the detail names the budget
    F = make_map(3, "x1 - 8*x3^3", "x2 - 8*x3^3", "x3")
    base = tuple(c.eval((64, -32, -128)) for c in F.components)
    monkeypatch.setattr(injectlab, "_INITIAL_RADIUS", 128)
    monkeypatch.setattr(injectlab, "_MAX_RADIUS", 128)
    report = injectivity_pipeline(F, [], base=base)
    assert report.verdict == "inconclusive" and report.base_fiber_size is None
    prefix = ("no certified base fiber within the radius cap; last at radius 128: "
              "solver status budget_exhausted after ")
    assert report.detail.startswith(prefix) and report.detail.endswith(" boxes")
    assert int(report.detail[len(prefix):-len(" boxes")]) <= injectlab._SOLVE_BOXES
