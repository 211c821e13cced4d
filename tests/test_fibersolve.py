"""Tests for certified fiber enumeration and boundary clearance."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from degreelab.polycore import IntervalBox, Poly, parse_poly
from degreelab.mapforms import PolyMap, jacobian_matrix, keller_check
from degreelab.fibersolve import (
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
            assert boxes[i].intersect(boxes[j]) is None


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
    degenerate = [tuple(s.lo == s.hi for s in f.sides) for f in faces]
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
