"""Tests for certified fiber enumeration and boundary clearance."""

import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from degreelab.polycore import IntervalBox, Poly, parse_poly
from degreelab.mapforms import PolyMap, jacobian_matrix, keller_check
from degreelab.fibersolve import (
    _ROW_BLOCK,
    _SPLIT_RATIO,
    ClearanceResult,
    SolverConfig,
    _krawczyk_batch,
    bezout_bound,
    boundary_clearance,
    box_faces,
    certified_min_sum_squares,
    solve_fiber,
)

from gen_maps import (
    invert_triangular,
    random_composed_automorphism,
    random_druzkowski_map,
    random_poly,
    random_upper_triangular_map,
)


def make_map(*exprs):
    n = len(exprs)
    return PolyMap([parse_poly(e, n) for e in exprs])


def cube(n, r):
    return IntervalBox.cube(n, r)


def midpoints(result):
    return [r.isolator.midpoint() for r in result.roots]


# ------------------------------------------------------------ bezout

def test_bezout_triangular():
    assert bezout_bound(make_map("x1 + x2^3", "x2")) == 3


def test_bezout_squares():
    assert bezout_bound(make_map("x1^2", "x2^2")) == 4


def test_bezout_cubic_3d():
    F, _ = random_druzkowski_map(random.Random(5), 3, nilpotent=False)
    assert bezout_bound(F) == 27


def test_bezout_zero_component():
    with pytest.raises(ValueError):
        bezout_bound(make_map("x1", "0"))


# --------------------------------------------------------- solve_fiber

def test_fiber_triangular_origin():
    res = solve_fiber(make_map("x1 + x2^3", "x2"), [0, 0], cube(2, 2.0))
    assert res.status == "complete"
    assert len(res.roots) == 1
    root = res.roots[0]
    assert root.jac_sign == +1
    x, y = root.isolator.midpoint()
    assert abs(x) < 1e-8 and abs(y) < 1e-8


def test_fiber_1d_square_at_one():
    res = solve_fiber(make_map("x1^2"), [1], cube(1, 2.0))
    assert res.status == "complete"
    assert len(res.roots) == 2
    (m1,), (m2,) = midpoints(res)
    assert abs(m1 + 1) < 1e-8 and abs(m2 - 1) < 1e-8
    assert res.roots[0].jac_sign == -1
    assert res.roots[1].jac_sign == +1


def test_fiber_1d_cubic_three_roots():
    res = solve_fiber(make_map("x1^3 - 3*x1"), [0], cube(1, 3.0))
    assert res.status == "complete"
    assert len(res.roots) == 3
    expected = [-math.sqrt(3), 0.0, math.sqrt(3)]
    for root, loc, sign in zip(res.roots, expected, (+1, -1, +1)):
        assert abs(root.isolator.midpoint()[0] - loc) < 1e-8
        assert root.jac_sign == sign


def test_fiber_1d_double_root_is_singular():
    res = solve_fiber(make_map("x1^2"), [0], cube(1, 2.0))
    assert res.status == "singular_suspect"


def test_fiber_empty():
    res = solve_fiber(make_map("x1^2"), [-1], cube(1, 2.0))
    assert res.status == "complete"
    assert res.roots == ()


def test_fiber_squares_four_roots():
    res = solve_fiber(make_map("x1^2", "x2^2"), [1, 1], cube(2, 2.0))
    assert res.status == "complete"
    assert len(res.roots) == 4
    signs = [r.jac_sign for r in res.roots]
    # det = 4 x1 x2: sign is the sign of the product of coordinates
    for r in res.roots:
        x, y = r.isolator.midpoint()
        assert r.jac_sign == (1 if x * y > 0 else -1)
    assert sorted(signs) == [-1, -1, 1, 1]


def test_fiber_root_on_boundary_is_flagged():
    # root of x^2 = 4 at x = 2 sits exactly on the box boundary
    res = solve_fiber(make_map("x1^2"), [4], cube(1, 2.0))
    assert res.status == "boundary_contact"


def test_fiber_refinement_width():
    cfg = SolverConfig()
    res = solve_fiber(make_map("x1^3 - 3*x1"), [0], cube(1, 3.0), cfg)
    for root in res.roots:
        assert root.refinement_width <= 1e-8


def test_fiber_residual_soundness():
    F = make_map("x1^3 - 3*x1")
    res = solve_fiber(F, [0], cube(1, 3.0))
    for root in res.roots:
        value = F.components[0].eval([root.isolator.midpoint()[0]])
        assert abs(value) <= 1e-8


def test_fiber_isolators_disjoint():
    res = solve_fiber(make_map("x1^2", "x2^2"), [1, 1], cube(2, 2.0))
    boxes = [r.isolator for r in res.roots]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            assert any(max(al, bl) > min(ah, bh)
                       for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi))


def test_fiber_count_respects_bezout():
    rng = random.Random(77)
    for _ in range(5):
        F, _ = random_druzkowski_map(rng, 3)
        res = solve_fiber(F, [0, 0, 0], cube(3, 4.0))
        assert len(res.roots) <= bezout_bound(F)


def test_fiber_keller_signs_constant():
    # for a Keller map every root carries the sign of the constant det
    rng = random.Random(88)
    for _ in range(5):
        F, _ = random_composed_automorphism(rng, 2)
        status = keller_check(F)
        assert status.kind == "nonzero_constant"
        expected = 1 if status.constant_value > 0 else -1
        res = solve_fiber(F, [Fraction(1, 3), Fraction(-1, 2)], cube(2, 6.0))
        for root in res.roots:
            assert root.jac_sign == expected


def test_fiber_grid_crosscheck_2d():
    # dense-grid sampling oracle: every sign-change cell of a complete
    # solve must land inside some isolator
    F = make_map("x1^2 - x2", "x2^2 - x1")
    res = solve_fiber(F, [0, 0], cube(2, 2.0))
    assert res.status == "complete"
    assert len(res.roots) == 2  # (0,0) and (1,1)
    locs = midpoints(res)
    assert any(abs(x) < 1e-8 and abs(y) < 1e-8 for x, y in locs)
    assert any(abs(x - 1) < 1e-8 and abs(y - 1) < 1e-8 for x, y in locs)


def test_fiber_determinism_across_workers():
    F = make_map("x1^3 - 3*x1", "x2 + x1^2")
    serial = solve_fiber(F, [0, 0], cube(2, 3.0), workers=1)
    threaded = solve_fiber(F, [0, 0], cube(2, 3.0), workers=4)
    assert serial == threaded
    assert repr(serial) == repr(threaded)


def _residuals(F, z):
    return [p - Poly.const(F.n, t) for p, t in zip(F.components, z)]


def test_krawczyk_batch_image_keeps_known_preimage():
    # upper-triangular maps have exact inverses, so the preimage x of z is
    # known; every usable row of a stack of boxes around x must map onto a
    # Krawczyk image that still contains x
    rng = random.Random(4242)
    usable_rows = 0
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        F = random_upper_triangular_map(rng, n)
        G = invert_triangular(F, upper=True)
        z = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
        x = [g.eval(z) for g in G.components]
        rows = rng.randint(1, 5)
        los = np.empty((rows, n))
        his = np.empty((rows, n))
        for k in range(rows):
            for i in range(n):
                below = Fraction(rng.randint(0, 64), rng.choice([64, 256, 4096]))
                above = Fraction(rng.randint(0, 64), rng.choice([64, 256, 4096]))
                los[k, i] = math.nextafter(float(x[i] - below), -math.inf)
                his[k, i] = math.nextafter(float(x[i] + above), math.inf)
        k_lo, k_hi, usable = _krawczyk_batch(_residuals(F, z), jacobian_matrix(F), los, his)
        for k in np.nonzero(usable)[0]:
            usable_rows += 1
            for i in range(n):
                assert k_lo[k, i] == -math.inf or Fraction(k_lo[k, i]) <= x[i]
                assert k_hi[k, i] == math.inf or x[i] <= Fraction(k_hi[k, i])
    assert usable_rows > 100


def test_krawczyk_batch_marks_only_singular_row():
    # the Jacobian of (x1^2, x2) at the centre of the first box is singular;
    # the stacked inverse must flag that row and leave the others intact
    F = make_map("x1^2", "x2")
    gs = _residuals(F, [1, 0])
    jac = jacobian_matrix(F)
    los = np.array([[-1.0, -1.0], [0.5, -0.5], [-1.5, -0.25]])
    his = np.array([[1.0, 1.0], [1.5, 0.5], [-0.5, 0.25]])
    k_lo, k_hi, usable = _krawczyk_batch(gs, jac, los, his)
    assert usable.tolist() == [False, True, True]
    alone_lo, alone_hi, alone_ok = _krawczyk_batch(gs, jac, los[1:], his[1:])
    assert alone_ok.all()
    assert np.array_equal(alone_lo, k_lo[1:]) and np.array_equal(alone_hi, k_hi[1:])
    for k, root in ((1, 1.0), (2, -1.0)):
        assert k_lo[k, 0] <= root <= k_hi[k, 0] and k_lo[k, 1] <= 0.0 <= k_hi[k, 1]
    # a stack longer than one row block: every copy keeps its row's image
    reps = _ROW_BLOCK // len(los) + 2
    big_lo, big_hi, big_ok = _krawczyk_batch(
        gs, jac, np.tile(los, (reps, 1)), np.tile(his, (reps, 1)))
    assert len(big_lo) > _ROW_BLOCK
    assert np.array_equal(big_ok, np.tile(usable, reps))
    assert np.array_equal(big_lo, np.tile(k_lo, (reps, 1)), equal_nan=True)
    assert np.array_equal(big_hi, np.tile(k_hi, (reps, 1)), equal_nan=True)


def test_fiber_input_validation():
    F = make_map("x1", "x2")
    with pytest.raises(ValueError):
        solve_fiber(F, [0], cube(2, 1.0))
    with pytest.raises(ValueError):
        solve_fiber(F, [0, 0], cube(3, 1.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_depth=0)
    with pytest.raises(ValueError):
        SolverConfig(target_width=-1.0)


# -------------------------------------------------- boundary clearance

def test_clearance_identity():
    res = boundary_clearance(PolyMap.identity(2), [0, 0], cube(2, 1.0))
    assert res.ok
    assert 0.9 <= res.m <= 1.0


def test_clearance_triangular():
    res = boundary_clearance(make_map("x1 + x2^3", "x2"), [0, 0], cube(2, 2.0))
    assert res.ok
    # sampling oracle: certified bound cannot exceed any sampled value
    F = make_map("x1 + x2^3", "x2")
    best = min(
        math.hypot(float(F.components[0].eval([Fraction(a, 8), Fraction(b, 8)])),
                   float(F.components[1].eval([Fraction(a, 8), Fraction(b, 8)])))
        for a in range(-16, 17) for b in range(-16, 17)
        if abs(a) == 16 or abs(b) == 16)
    assert res.m <= best + 1e-12


def test_clearance_target_on_boundary_image():
    res = boundary_clearance(PolyMap.identity(1), [1], cube(1, 1.0))
    assert not res.ok
    assert res.m == 0.0
    assert res.failure is not None


def test_clearance_result_is_failure_not_proof():
    # z very near (but off) the boundary image: still certifiable
    res = boundary_clearance(PolyMap.identity(1), [Fraction(255, 256)], cube(1, 1.0))
    assert res.ok
    assert res.m <= 1.0 / 256.0 + 1e-9


def test_box_faces_structure():
    faces = box_faces(cube(2, 1.0))
    assert len(faces) == 4
    degenerate = [tuple(lo == hi for lo, hi in zip(f.lo, f.hi)) for f in faces]
    assert degenerate == [(True, False), (True, False), (False, True), (False, True)]


def test_positivity_kernel_simple():
    p = parse_poly("x1^2 + 1", 1)
    bound, _, _, failure = certified_min_sum_squares([p], [cube(1, 1.0)])
    assert failure is None
    assert bound >= 0.9  # true min of (x^2+1)^2 is 1


def test_positivity_kernel_detects_zero():
    p = parse_poly("x1", 1)
    bound, _, _, failure = certified_min_sum_squares([p], [cube(1, 1.0)])
    assert bound == 0.0
    assert failure is not None


def _reference_min_sum_squares(polys, regions, max_depth, split_budget, improve_splits):
    """The clearance heap one box at a time: pop the weakest box, split it
    at its widest axis and enclose its two children.  Returns the tuple of
    certified_min_sum_squares and the number of sharpening splits."""

    def lower(sides):
        box = IntervalBox.from_bounds(sides)
        acc = 0.0
        for p in polys:
            enc = p.eval_interval(box)
            if enc.lo >= 0.0:
                sq = math.nextafter(enc.lo * enc.lo, -math.inf)
            elif enc.hi <= 0.0:
                sq = math.nextafter(enc.hi * enc.hi, -math.inf)
            else:
                sq = 0.0
            acc = math.nextafter(acc + sq, -math.inf)
        return acc

    heap = [(lower(sides), seq, 0, sides) for seq, sides in enumerate(regions)]
    heapq.heapify(heap)
    seq = examined = len(heap)
    deepest = splits = sharpened = 0
    while True:
        low, _, depth, sides = heap[0]
        positive = low > 0.0
        if positive and sharpened >= improve_splits:
            break
        widths = [hi - lo for lo, hi in sides]
        axis = widths.index(max(widths))
        lo, hi = sides[axis]
        at = lo + _SPLIT_RATIO * (hi - lo)
        if depth >= max_depth:
            failure = f"sum-of-squares enclosure still reaches {low} at depth {depth}"
        elif not positive and splits >= split_budget:
            failure = "split budget exhausted"
        elif not lo < at < hi:
            failure = "degenerate box still encloses zero; the minimum may be zero"
        else:
            failure = None
        if failure is not None:
            if positive:
                break
            return (0.0, examined, deepest, failure), sharpened
        if positive:
            sharpened += 1
        else:
            splits += 1
        heapq.heappop(heap)
        for side in ((lo, at), (at, hi)):
            child = sides[:axis] + [side] + sides[axis + 1:]
            heapq.heappush(heap, (lower(child), seq, depth + 1, child))
            seq += 1
            examined += 1
            deepest = max(deepest, depth + 1)
    return (heap[0][0], examined, deepest, None), sharpened


def _random_clearance_case(rng):
    n = rng.randint(1, 3)
    polys = [random_poly(rng, n, max_deg=3) for _ in range(rng.randint(1, 3))]
    regions = []
    for _ in range(rng.choice([1, 2, 5, 40])):
        sides = []
        for _ in range(n):
            lo = Fraction(rng.randint(-16, 16), 8)
            sides.append((lo, lo + Fraction(rng.choice([0, 1, 3, 16]), 8)))
        regions.append(sides)
    if rng.random() < 0.3:
        # a point region on which every polynomial vanishes exactly
        point = [lo for lo, _ in regions[0]]
        polys = [p - p.eval(point) for p in polys]
        regions.insert(0, [(x, x) for x in point])
    elif rng.random() < 0.4:
        # shifted off zero, so the sharpening phase runs
        polys = [p + 40 for p in polys]
    regions = [[(float(lo), float(hi)) for lo, hi in sides] for sides in regions]
    budgets = dict(max_depth=rng.choice([2, 6, 12, 40]),
                   split_budget=rng.choice([0, 1, 5, 40, 400]),
                   improve_splits=rng.choice([0, 3, 30, 100]))
    return polys, regions, budgets


def test_min_sum_squares_equals_sequential_reference():
    # the lookahead batches must not change what the heap returns: bound,
    # counts and failure text equal a heap that encloses two children per pop
    rng = random.Random(5151)
    kinds = ("sum-of-squares enclosure still reaches", "split budget exhausted",
             "degenerate box still encloses zero")
    failures = set()
    sharpening = 0
    for _ in range(200):
        polys, regions, budgets = _random_clearance_case(rng)
        expected, sharpened = _reference_min_sum_squares(polys, regions, **budgets)
        got = certified_min_sum_squares(
            polys, [IntervalBox.from_bounds(sides) for sides in regions], **budgets)
        assert got == expected, (polys, regions, budgets)
        assert all(type(v) is type(w) for v, w in zip(got, expected))
        if got[3] is not None:
            failures.update(k for k in kinds if got[3].startswith(k))
        sharpening += sharpened > 0 and got[3] is None
    assert failures == set(kinds)
    assert sharpening > 5
