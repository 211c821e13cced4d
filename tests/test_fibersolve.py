"""Tests for certified fiber enumeration and boundary clearance."""

import functools
import heapq
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from degreelab import fibersolve
from degreelab.polycore import IntervalBox, IntervalStack, Poly, parse_poly
from degreelab.mapforms import PolyMap, jacobian_det, jacobian_matrix, keller_check
from degreelab.degree import _faces_times_unit
from degreelab.fibersolve import (
    _BOUNDARY_MARGIN,
    _KRAWCZYK_GATE,
    _ROW_BLOCK,
    _SPLIT_RATIO,
    _STATUS_PRIORITY,
    _TARGET_WIDTH,
    CertifiedRoot,
    ClearanceResult,
    FiberResult,
    SolverConfig,
    SolveStats,
    _krawczyk_batch,
    _reaches_zero,
    _stuck_kinds,
    bezout_bound,
    boundary_clearance,
    box_faces,
    certified_min_sum_squares,
    solve_fiber,
    split_widest,
    subdivide,
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
    return IntervalStack([p - Poly.const(F.n, t) for p, t in zip(F.components, z)])


def _unfused(F, z):
    """The residual stack, the Jacobian entries and their own stack, each
    compiled apart in n variables."""
    jac = [p for row in jacobian_matrix(F) for p in row]
    return _residuals(F, z), jac, IntervalStack(jac)


def _krawczyk_unfused(gs, jac, jac_stack, los, his):
    """_krawczyk_batch on enclosures from the separate stacks of _unfused:
    the Jacobian entries over the boxes and the residuals at the midpoints."""
    with np.errstate(all="ignore"):
        mids = los + 0.5 * (his - los)
    return _krawczyk_batch(jac, los, his, mids, jac_stack.enclose(los, his), gs.enclose(mids, mids))


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
        k_lo, k_hi, usable = _krawczyk_unfused(*_unfused(F, z), los, his)
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
    stacks = _unfused(F, [1, 0])
    los = np.array([[-1.0, -1.0], [0.5, -0.5], [-1.5, -0.25]])
    his = np.array([[1.0, 1.0], [1.5, 0.5], [-0.5, 0.25]])
    k_lo, k_hi, usable = _krawczyk_unfused(*stacks, los, his)
    assert usable.tolist() == [False, True, True]
    alone_lo, alone_hi, alone_ok = _krawczyk_unfused(*stacks, los[1:], his[1:])
    assert alone_ok.all()
    assert np.array_equal(alone_lo, k_lo[1:]) and np.array_equal(alone_hi, k_hi[1:])
    for k, root in ((1, 1.0), (2, -1.0)):
        assert k_lo[k, 0] <= root <= k_hi[k, 0] and k_lo[k, 1] <= 0.0 <= k_hi[k, 1]
    # a long stack: every copy keeps its row's image
    reps = _ROW_BLOCK // len(los) + 2
    big_lo, big_hi, big_ok = _krawczyk_unfused(
        *stacks, np.tile(los, (reps, 1)), np.tile(his, (reps, 1)))
    assert len(big_lo) > _ROW_BLOCK
    assert np.array_equal(big_ok, np.tile(usable, reps))
    assert np.array_equal(big_lo, np.tile(k_lo, (reps, 1)), equal_nan=True)
    assert np.array_equal(big_hi, np.tile(k_hi, (reps, 1)), equal_nan=True)


def test_fiber_stack_rows_equal_separate_enclosures():
    # the solver's one stack over 2n variables: every row equals, bit for
    # bit, the enclosure of its polynomial alone in n variables, over the
    # box or over the degenerate box at its midpoint; rows whose powers
    # overflow widen to (-inf, inf) alike
    rng = random.Random(2525)
    widened = 0
    for _ in range(80):
        n = rng.choice([1, 2, 3])
        F = PolyMap([random_poly(rng, n, max_deg=rng.choice([2, 4, 7])) for _ in range(n)])
        z = [Fraction(rng.randint(-9, 9), rng.choice([1, 3])) for _ in range(n)]
        residuals = [p - t for p, t in zip(F.components, z)]
        jac = [p for row in jacobian_matrix(F) for p in row]
        rows = rng.randint(1, 9)
        scale = rng.choice([1.0, 1e3, 1e60, 1e155, 1e300])
        centres = np.array([[rng.uniform(-1.0, 1.0) * scale for _ in range(n)]
                            for _ in range(rows)])
        radii = np.array([[rng.choice([0.0, 1e-3, 1.0]) * scale for _ in range(n)]
                          for _ in range(rows)])
        los, his = centres - radii, centres + radii
        mids, *got = fibersolve._enclose_fiber(fibersolve._fiber_stack(residuals, jac), los, his)
        with np.errstate(all="ignore"):
            assert mids.tobytes() == (los + 0.5 * (his - los)).tobytes()
        alone = IntervalStack(residuals)
        want = (alone.enclose(los, his), IntervalStack(jac).enclose(los, his),
                alone.enclose(mids, mids))
        for pair, expected in zip(got, want):
            for a, b in zip(pair, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (F, los, his)
        widened += int(((got[0][0] == -math.inf) & (got[0][1] == math.inf)).sum())
    assert widened > 0


def test_solve_fiber_encloses_once_per_chunk_and_once_per_refinement_step(monkeypatch):
    # roots certified at two depths: the walk makes one enclosure per
    # chunk, of the one 2n-variable stack, and the one refinement batch one
    # per step, of the same stack; then the determinant signs are read in
    # one enclosure of det JF
    F = make_map("x1^2 - 2", "x2^2 - 3")
    det = jacobian_det(F)
    phase, calls, refined, certified = ["walk"], [], [], []
    real_enclose = IntervalStack.enclose
    real_refine = fibersolve._refine_rows
    real_krawczyk = fibersolve._krawczyk_batch

    def enclose(self, los, his):
        calls.append((phase[0], self))
        return real_enclose(self, los, his)

    def refine(*args):
        phase[0] = "refine"
        refined.append(len(args[2]))
        out = real_refine(*args)
        phase[0] = "signs"
        return out

    def krawczyk(*args):
        k_lo, k_hi, usable = real_krawczyk(*args)
        if phase[0] == "walk":
            # the first two arrays are the boxes' bounds
            los, his = [a for a in args if isinstance(a, np.ndarray)][:2]
            certified.append(int((usable & (los < k_lo).all(axis=1)
                                  & (k_hi < his).all(axis=1)).sum()))
        return k_lo, k_hi, usable

    monkeypatch.setattr(IntervalStack, "enclose", enclose)
    monkeypatch.setattr(fibersolve, "_refine_rows", refine)
    monkeypatch.setattr(fibersolve, "_krawczyk_batch", krawczyk)
    res = solve_fiber(F, [0, 0], cube(2, 2.0))
    assert res.status == "complete" and len(res.roots) == 4
    walk = [s for p, s in calls if p == "walk"]
    steps = [s for p, s in calls if p == "refine"]
    # every level holds one chunk, so the chunks are the depths walked
    assert len(walk) == res.stats.max_depth + 1
    assert sum(c > 0 for c in certified) >= 2
    assert refined == [4] and 1 <= len(steps) <= fibersolve._NEWTON_MAX_ITERS
    assert len({id(s) for s in walk + steps}) == 1 and walk[0].nvars == 2 * F.n
    assert [s for p, s in calls if p == "signs"] == [det.interval_stack()]


def _reference_refine(stacks, los, his):
    """_refine_rows on the separate stacks of _unfused, one Krawczyk step
    at a time."""
    los, his = los.copy(), his.copy()
    active = np.arange(len(los))
    for _ in range(fibersolve._NEWTON_MAX_ITERS):
        active = active[(his[active] - los[active]).max(axis=1) > _TARGET_WIDTH]
        if not active.size:
            break
        xl, xh = los[active], his[active]
        k_lo, k_hi, usable = _krawczyk_unfused(*stacks, xl, xh)
        new_lo, new_hi = np.maximum(xl, k_lo), np.minimum(xh, k_hi)
        moved = (usable & (new_lo <= new_hi).all(axis=1)
                 & ((new_lo != xl) | (new_hi != xh)).any(axis=1))
        active = active[moved]
        los[active], his[active] = new_lo[moved], new_hi[moved]
    return los, his


def _reference_solve_fiber(F, z, box, cfg=SolverConfig()):
    """solve_fiber as a breadth-first search: each level of the box tree is
    one pair of bound arrays, taken whole through exclusion, the Krawczyk
    step, certification, refinement and the split, each stage on
    enclosures from separate n-variable stacks."""
    stacks = _unfused(F, [Fraction(v) for v in z])
    gs = stacks[0]
    det = jacobian_det(F)
    outer_lo, outer_hi = np.array(box.lo), np.array(box.hi)
    if det.is_zero:
        # no root can be certified: exclusion alone, level by level, until
        # nothing is left, a box cannot be split, or the next level would
        # pass _ROW_BLOCK boxes in all
        los, his = outer_lo[None, :], outer_hi[None, :]
        boxes, depth, status = 0, 0, None
        while status is None:
            boxes += len(los)
            alive = _reaches_zero(gs, los, his)
            los, his = los[alive], his[alive]
            if not len(los):
                status = "complete"
                continue
            kids_lo, kids_hi, inside = fibersolve.split_widest(los, his, _SPLIT_RATIO)
            widths = (his - los).max(axis=1)
            if (boxes + len(kids_lo) > fibersolve._ROW_BLOCK or (~inside).any()
                    or (widths <= _TARGET_WIDTH).any() or depth == cfg.max_depth):
                status = "singular_suspect"
            else:
                los, his, depth = kids_lo, kids_hi, depth + 1
        return FiberResult((), status, SolveStats(boxes, depth))
    roots, stuck_lo, stuck_hi = [], [], []
    boxes_processed = deepest = depth = 0
    los, his = outer_lo[None, :], outer_hi[None, :]
    while len(los):
        boxes_processed += len(los)
        deepest = depth
        alive = _reaches_zero(gs, los, his)
        los, his = los[alive], his[alive]
        certify = np.zeros(len(los), dtype=bool)
        newton = ((his - los).max(axis=1) <= _KRAWCZYK_GATE) | (depth == 0)
        if newton.any():
            rows = np.nonzero(newton)[0]
            k_lo, k_hi, usable = _krawczyk_unfused(*stacks, los[rows], his[rows])
            rows, k_lo, k_hi = rows[usable], k_lo[usable], k_hi[usable]
            xl, xh = los[rows], his[rows]
            keep = np.ones(len(los), dtype=bool)
            keep[rows] = ~((k_hi < xl).any(axis=1) | (k_lo > xh).any(axis=1))
            certify[rows] = (xl < k_lo).all(axis=1) & (k_hi < xh).all(axis=1)
            los[rows] = np.maximum(xl, k_lo)
            his[rows] = np.minimum(xh, k_hi)
            los, his, certify = los[keep], his[keep], certify[keep]
        if certify.any():
            iso_lo, iso_hi = _reference_refine(stacks, los[certify], his[certify])
            det_lo, det_hi = det.eval_interval_batch(iso_lo, iso_hi)
            signs = np.where(det_lo > 0.0, 1, np.where(det_hi < 0.0, -1, 0))
            for lo, hi, sign in zip(iso_lo.tolist(), iso_hi.tolist(), signs.tolist()):
                if sign:
                    isolator = IntervalBox(lo, hi)
                    roots.append(CertifiedRoot(isolator, sign, isolator.max_width()))
            stuck_lo.append(iso_lo[signs == 0])
            stuck_hi.append(iso_hi[signs == 0])
            los, his = los[~certify], his[~certify]
        if len(los):
            kids_lo, kids_hi, inside = fibersolve.split_widest(los, his, _SPLIT_RATIO)
            split = (inside & ((his - los).max(axis=1) > _TARGET_WIDTH)
                     & (depth < cfg.max_depth))
            stuck_lo.append(los[~split])
            stuck_hi.append(his[~split])
            pair = np.repeat(split, 2)
            los, his = kids_lo[pair], kids_hi[pair]
        depth += 1
    kinds = set()
    if sum(len(s) for s in stuck_lo):
        kinds = _stuck_kinds(np.concatenate(stuck_lo), np.concatenate(stuck_hi),
                             outer_lo, outer_hi, det)
    roots.sort(key=lambda r: r.isolator.midpoint())
    if any(r.isolator.boundary_gap(box) <= _BOUNDARY_MARGIN for r in roots):
        status = "boundary_contact"
    elif kinds:
        status = next(s for s in _STATUS_PRIORITY if s in kinds)
    else:
        status = "complete"
    return FiberResult(tuple(roots), status, SolveStats(boxes_processed, deepest))


def _random_fiber_case(rng):
    n = rng.choice([1, 2, 2, 3])
    kind = rng.choice(["automorphism", "druzkowski", "random"])
    if kind == "automorphism":
        F, _ = random_composed_automorphism(rng, n)
    elif kind == "druzkowski":
        F, _ = random_druzkowski_map(rng, n, nilpotent=rng.random() < 0.5)
    else:
        F = PolyMap([random_poly(rng, n, max_deg=3) for _ in range(n)])
    # the image of a point inside the box, so that the fiber is not empty
    x = [Fraction(rng.randint(-7, 7), 8) for _ in range(n)]
    z = [p.eval(x) for p in F.components]
    return F, z, cube(n, rng.choice([1.0, 2.0])), SolverConfig(max_depth=rng.choice([6, 16]))


@pytest.mark.parametrize("row_block", [None, 7])
def test_solve_fiber_equals_breadth_first_reference(monkeypatch, row_block):
    # walking the box tree depth first in chunks of at most _ROW_BLOCK rows
    # must give the roots, isolators, status and counts of whole levels
    if row_block:
        monkeypatch.setattr(fibersolve, "_ROW_BLOCK", row_block)
    rng = random.Random(6161)
    cases = [_random_fiber_case(rng) for _ in range(16)] + [
        (make_map("x1^2", "x2"), [0, 0], cube(2, 2.0), SolverConfig()),
        (make_map("x1^2"), [4], cube(1, 2.0), SolverConfig()),
        (make_map("x1^3 - 3*x1", "x2 + x1^2"), [0, 0], cube(2, 3.0), SolverConfig(max_depth=3)),
        # det JF vanishes identically: exclusion alone decides
        (make_map("x1 + x2", "x1 + x2"), [0, 1], cube(2, 1.0), SolverConfig()),
        (make_map("0", "x2"), [0, 0], cube(2, 1.0), SolverConfig()),
        (make_map("x1^2 + x2^2", "x1^2 + x2^2"), [0, 0], cube(2, 1.0), SolverConfig(max_depth=6)),
    ]
    statuses, roots = set(), 0
    for F, z, box, cfg in cases:
        got = solve_fiber(F, z, box, cfg)
        expected = _reference_solve_fiber(F, z, box, cfg)
        assert got == expected, (F, z, box, cfg)
        assert repr(got) == repr(expected)
        statuses.add(got.status)
        roots += len(got.roots)
    assert len(statuses) == 4 and roots > 10


@pytest.mark.parametrize("row_block, radius", [(None, 400), (7, 2), (256, 50)])
def test_solve_fiber_splits_at_most_a_row_block(monkeypatch, row_block, radius):
    # the breadth-first levels of this solve grow far past the row block;
    # solve_fiber never hands split_widest more than _ROW_BLOCK rows
    if row_block:
        monkeypatch.setattr(fibersolve, "_ROW_BLOCK", row_block)
    block = fibersolve._ROW_BLOCK
    rows = []
    split_widest = fibersolve.split_widest

    def recording(los, his, ratio):
        rows.append(len(los))
        return split_widest(los, his, ratio)

    monkeypatch.setattr(fibersolve, "split_widest", recording)
    F = make_map("18*x1^4 - 12*x1^2*x2 + 6*x1^2 + 2*x2^2 + x1 - 2*x2", "-3*x1^2 + x2")
    expected = _reference_solve_fiber(F, [25, -3], cube(2, radius))
    assert max(rows) > block
    rows.clear()
    assert solve_fiber(F, [25, -3], cube(2, radius)) == expected
    assert sum(rows) > block and max(rows) <= block


def test_fiber_input_validation():
    F = make_map("x1", "x2")
    with pytest.raises(ValueError):
        solve_fiber(F, [0], cube(2, 1.0))
    with pytest.raises(ValueError):
        solve_fiber(F, [0, 0], cube(3, 1.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_depth=0)


# ------------------------------------------------- breadth-first walk

def _walk(budget, decide_rule):
    """subdivide from the unit square at the midpoint; returns what it
    returned and the (los, his) of every level handed to decide."""
    seen = []

    def decide(los, his):
        seen.append((los, his))
        return decide_rule(len(seen), los)

    left = subdivide(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), decide, budget, 0.5)
    return left, seen


def _split_all(level, los):
    return np.ones(len(los), dtype=bool)


def test_subdivide_budget_ending_mid_level_hands_decide_the_fifo_prefix():
    # levels of 1, 2 and 4 boxes; a budget of 5 leaves 2 of the third
    left, seen = _walk(5, _split_all)
    assert left is True
    assert [len(los) for los, _ in seen] == [1, 2, 2]
    kids_lo, kids_hi, _ = split_widest(*seen[1], 0.5)
    assert np.array_equal(seen[2][0], kids_lo[:2])
    assert np.array_equal(seen[2][1], kids_hi[:2])


def test_subdivide_stops_at_once_when_decide_returns_none():
    left, seen = _walk(100, lambda level, los: None)
    assert left is True and len(seen) == 1


def test_subdivide_budget_spent_at_a_level_that_splits_nothing():
    # the third level, of 4 boxes, ends the budget of 7 and splits none
    left, seen = _walk(7, lambda level, los: np.full(len(los), level < 3))
    assert left is False
    assert [len(los) for los, _ in seen] == [1, 2, 4]


def test_subdivide_budget_spent_at_a_level_that_leaves_children():
    # the children of the second level are never handed to decide
    left, seen = _walk(3, _split_all)
    assert left is True
    assert [len(los) for los, _ in seen] == [1, 2]


def _split_at_width(los, his, ratio):
    """split_widest as formed from the width, lo + ratio * (hi - lo)."""
    axis = (his - los).argmax(axis=1)
    rows = np.arange(len(los))
    side_lo, side_hi = los[rows, axis], his[rows, axis]
    at = side_lo + ratio * (side_hi - side_lo)
    kids_lo, kids_hi = np.repeat(los, 2, axis=0), np.repeat(his, 2, axis=0)
    kids_hi[2 * rows, axis] = at
    kids_lo[2 * rows + 1, axis] = at
    return kids_lo, kids_hi, (side_lo < at) & (at < side_hi)


def _random_boxes(rng, count, n, overflow):
    """count boxes in n dims, sides of random scale; with overflow, each
    box gets one side whose width passes the float range."""
    scale = 10.0 ** rng.integers(-320, 307, size=(count, n))
    a, b = rng.standard_normal((2, count, n)) * scale
    los, his = np.minimum(a, b), np.maximum(a, b)
    if overflow:
        rows, axis = np.arange(count), rng.integers(0, n, size=count)
        los[rows, axis] = -np.finfo(float).max * rng.uniform(0.5, 1.0, size=count)
        his[rows, axis] = np.finfo(float).max * rng.uniform(0.5, 1.0, size=count)
    return los, his


@pytest.mark.parametrize("ratio", [0.5, _SPLIT_RATIO])
def test_split_widest_forms_finite_splits_from_the_width(ratio):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        los, his = _random_boxes(rng, 500, n, overflow=False)
        assert np.isfinite(his - los).all()
        got, want = split_widest(los, his, ratio), _split_at_width(los, his, ratio)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("ratio", [0.5, _SPLIT_RATIO])
def test_split_widest_keeps_overflowing_widths_finite_and_inside(ratio):
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        finite = _random_boxes(rng, 200, n, overflow=False)
        wide = _random_boxes(rng, 200, n, overflow=True)
        los, his = (np.concatenate(pair) for pair in zip(finite, wide))
        with np.errstate(over="ignore"):
            assert not np.isfinite(his[200:] - los[200:]).all(axis=1).any()
        kids_lo, kids_hi, inside = split_widest(los, his, ratio)
        # the rows of finite width split as before, whatever the other rows
        for g, w in zip((kids_lo[:400], kids_hi[:400], inside[:200]),
                        _split_at_width(*finite, ratio)):
            assert np.array_equal(g, w)
        assert np.isfinite(kids_lo).all() and np.isfinite(kids_hi).all()
        parent_lo, parent_hi = np.repeat(los, 2, axis=0), np.repeat(his, 2, axis=0)
        assert (parent_lo <= kids_lo).all() and (kids_lo <= kids_hi).all()
        assert (kids_hi <= parent_hi).all()
        assert inside[200:].all()


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


def _squares_bound(encs):
    """Lower bound of the sum of squares of the (lo, hi) enclosures."""
    acc = 0.0
    for lo, hi in encs:
        if lo >= 0.0:
            sq = math.nextafter(lo * lo, -math.inf)
        elif hi <= 0.0:
            sq = math.nextafter(hi * hi, -math.inf)
        else:
            sq = 0.0
        acc = math.nextafter(acc + sq, -math.inf)
    return acc


def _natural_encs(polys, sides):
    box = IntervalBox.from_bounds(sides)
    return [(enc.lo, enc.hi) for enc in (p.eval_interval(box) for p in polys)]


def _reference_lower(polys, sides):
    """_sum_squares_lower on one box, from eval_interval and float scalars:
    the natural bound, and where it is not positive, the bound of the
    natural enclosures intersected with the mean-value ones, whose sums skip
    the derivatives that are identically zero."""
    encs = _natural_encs(polys, sides)
    if _squares_bound(encs) > 0.0:
        return _squares_bound(encs)
    box = IntervalBox.from_bounds(sides)
    mid = []
    for lo, hi in sides:
        c = lo + 0.5 * (hi - lo)
        mid.append(c if lo <= c <= hi else lo)
    offsets = [(math.nextafter(lo - c, -math.inf), math.nextafter(hi - c, math.inf))
               for (lo, hi), c in zip(sides, mid)]
    tight = []
    for p, (lo, hi) in zip(polys, encs):
        at_mid = p.eval_interval(IntervalBox(mid, mid))
        mv_lo, mv_hi = at_mid.lo, at_mid.hi
        for i, (off_lo, off_hi) in enumerate(offsets):
            grad = p.diff(i + 1)
            if grad.is_zero:
                continue
            grad = grad.eval_interval(box)
            products = [a * b for a in (grad.lo, grad.hi) for b in (off_lo, off_hi)]
            if any(math.isnan(v) for v in products):
                t_lo = t_hi = math.nan
            else:
                t_lo = math.nextafter(min(products), -math.inf)
                t_hi = math.nextafter(max(products), math.inf)
            mv_lo = math.nextafter(mv_lo + t_lo, -math.inf)
            mv_hi = math.nextafter(mv_hi + t_hi, math.inf)
        tight.append((lo if math.isnan(mv_lo) else max(lo, mv_lo),
                      hi if math.isnan(mv_hi) else min(hi, mv_hi)))
    return _squares_bound(tight)


def _fallback_case(rng, scale):
    """Polynomials about a point, about half of them vanishing there, and
    boxes of widths from 1e-8 to 1 relative to the point, about the point or
    up to a width off it, some with degenerate sides as on the faces of a
    box."""
    n = rng.randint(1, 3)
    point = [Fraction(rng.uniform(-scale, scale)) for _ in range(n)]
    # in the coordinates about the point, whose terms cancel far from the
    # origin as the face terms of a large box do
    about = [Poly.var(n, i + 1) - x for i, x in enumerate(point)]
    polys = []
    for _ in range(rng.choice([n, n, rng.randint(1, 3)])):
        p = random_poly(rng, n, max_deg=3)
        polys.append((p - p.constant_value() if rng.random() < 0.5 else p).compose(about))
    rows = []
    for _ in range(16):
        sides = []
        for x in point:
            width = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-8, 0) * max(1.0, abs(x))
            gap = rng.choice([-rng.random(), rng.uniform(0.01, 1), -1 - rng.uniform(0.01, 1)])
            lo = float(x + Fraction(gap * width))
            sides.append((lo, lo + width))
        rows.append(sides)
    return polys, rows


def _kernel_bounds(polys, rows):
    los = np.array([[lo for lo, _ in sides] for sides in rows])
    his = np.array([[hi for _, hi in sides] for sides in rows])
    grads = IntervalStack([p.diff(i) for p in polys for i in range(1, p.nvars + 1)])
    return fibersolve._sum_squares_lower(IntervalStack(polys), grads, los, his).tolist()


def test_sum_squares_fallback_is_sound_and_never_below_natural():
    # the kernel's bound on a box is at most the exact sum of squares at its
    # corners, its midpoint and random rational points, and at least the
    # natural enclosure's bound, so a clearance that held without the
    # mean-value fallback still holds; coordinates reach 1e5, as on the faces
    # of the pipeline's path segment clearances
    rng = random.Random(7373)
    raised = 0
    for _ in range(60):
        polys, rows = _fallback_case(rng, rng.choice([1.0, 1e2, 1e5]))
        for sides, bound in zip(rows, _kernel_bounds(polys, rows)):
            natural = _squares_bound(_natural_encs(polys, sides))
            assert bound >= natural, (polys, sides)
            assert bound == _reference_lower(polys, sides), (polys, sides)
            raised += natural <= 0.0 < bound
            exact = [[Fraction(lo), Fraction(hi)] for lo, hi in sides]
            points = [list(corner) for corner in itertools.product(*exact)]
            points.append([(lo + hi) / 2 for lo, hi in exact])
            points += [[lo + Fraction(rng.random()) * (hi - lo) for lo, hi in exact]
                       for _ in range(3)]
            for point in points:
                assert Fraction(bound) <= sum(p.eval(point) ** 2 for p in polys), (
                    polys, sides, point)
    assert raised >= 50, raised


def test_sum_squares_fallback_near_float_max_gives_zero():
    # coefficients near the largest float overflow both enclosures; the
    # bound on boxes holding a zero must stay at most zero, never NaN, and the
    # heap must fail with bound 0.0 rather than raise
    rng = random.Random(7474)
    for _ in range(40):
        polys, rows = _fallback_case(rng, rng.choice([1.0, 1e2]))
        point = [lo + rng.random() * (hi - lo) for lo, hi in rows[0]]
        polys = [p.scale(Fraction(4e307)) for p in polys]
        polys = [p - p.eval([Fraction(x) for x in point]) for p in polys]
        bounds = _kernel_bounds(polys, rows)
        assert not any(math.isnan(b) for b in bounds)
        assert bounds[0] <= 0.0
        bound, _, _, failure = certified_min_sum_squares(
            polys, [IntervalBox.from_bounds(sides) for sides in rows], split_budget=20)
        assert bound == 0.0 and failure is not None


def _reference_min_sum_squares(polys, regions, max_depth, split_budget, improve_splits):
    """The clearance heap one box at a time: pop the weakest box, split it
    at its widest axis and enclose its two children, each child's bound
    raised to its parent's where lower.  Returns the tuple of
    certified_min_sum_squares and the number of sharpening splits."""
    lower = functools.partial(_reference_lower, polys)
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
            heapq.heappush(heap, (max(lower(child), low), seq, depth + 1, child))
            seq += 1
            examined += 1
            deepest = max(deepest, depth + 1)
    return (heap[0][0], examined, deepest, None), sharpened


def _random_clearance_case(rng):
    n = rng.randint(1, 3)
    polys = [random_poly(rng, n, max_deg=3) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        # the faces of a box times a parameter side [0, 1], as the degree
        # module's homotopy and path clearances pass them
        polys = [random_poly(rng, n + 1, max_deg=3) for _ in range(n)]
        regions = [[(Fraction(lo), Fraction(hi)) for lo, hi in zip(face.lo, face.hi)]
                   for face in _faces_times_unit(cube(n, rng.choice([1.0, 2.0])))]
    else:
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
                   improve_splits=rng.choice([0, 3, 30, 100, 300]))
    return polys, regions, budgets


def _ulps_around(x, ulps):
    lo = hi = x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


# Cases that end inside the descendants one look-ahead batch enclosed:
# (expressions, regions, budgets, expected failure or None)
_CLEARANCE_CASES = [
    # a zero a few ulps from each end: a few splits leave a side too narrow to
    # split, deep inside the first batch
    (("x1 - 1/2",), [[_ulps_around(0.5, 2)]], {}, "degenerate box"),
    (("x1 - 1/2", "x2"), [[_ulps_around(0.5, 3), (0.0, 0.0)]], {}, "degenerate box"),
    # a zero circle: the budgets run out while boxes reaching zero remain
    (("x1^2 + x2^2 - 1",), [[(-2.0, 2.0), (-2.0, 2.0)]], dict(split_budget=3),
     "split budget exhausted"),
    (("x1^2 + x2^2 - 1",), [[(-2.0, 2.0), (-2.0, 2.0)]], dict(split_budget=100),
     "split budget exhausted"),
    (("x1^2 + x2^2 - 1",), [[(-2.0, 2.0), (-2.0, 2.0)]], dict(max_depth=5),
     "sum-of-squares enclosure still reaches"),
    # the default 300 sharpening splits, which dive deeper than one batch
    # reaches (8 levels below the popped box)
    (("x1^2 - x2 + 2", "x1*x2 - 1/5"), [[(-2.0, 2.0), (-1.0, 1.0)]], {}, None),
    (("x1 + x3*x1^3 - 1/3", "x2 + x3*x2^3 - 1/4"),
     [list(zip(f.lo, f.hi)) for f in _faces_times_unit(cube(2, 1.0))], {}, None),
]


def test_min_sum_squares_equals_sequential_reference():
    # the look-ahead batches must not change what the heap returns: bound,
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
    defaults = dict(max_depth=40, split_budget=20000, improve_splits=300)
    for exprs, regions, budgets, failure in _CLEARANCE_CASES:
        polys = [parse_poly(e, len(regions[0])) for e in exprs]
        budgets = {**defaults, **budgets}
        expected, sharpened = _reference_min_sum_squares(polys, regions, **budgets)
        got = certified_min_sum_squares(
            polys, [IntervalBox.from_bounds(sides) for sides in regions], **budgets)
        assert got == expected, (exprs, budgets)
        if failure is None:
            assert got[3] is None and got[2] > 16
        else:
            assert got[3].startswith(failure), got


def test_clearance_without_sharpening_keeps_ok_and_failure(monkeypatch):
    # the sharpening splits start only once every box is positive, and a
    # child's bound is never below its parent's, so skipping them leaves ok
    # and the failure text alone and can only lower m; the random depth and
    # split budgets stand in for the defaults, to reach every way to fail
    rng = random.Random(6262)
    outcomes = set()
    for _ in range(200):
        polys, regions, budgets = _random_clearance_case(rng)
        del budgets["improve_splits"]
        boxes = [IntervalBox.from_bounds(sides) for sides in regions]
        with monkeypatch.context() as patch:
            patch.setattr(fibersolve, "certified_min_sum_squares", functools.partial(
                certified_min_sum_squares, **budgets))
            plain = fibersolve.certified_clearance(polys, boxes, improve_splits=0)
            sharp = fibersolve.certified_clearance(polys, boxes)
        assert (plain.ok, plain.failure) == (sharp.ok, sharp.failure), (polys, regions)
        assert plain.m <= sharp.m
        expected, sharpened = _reference_min_sum_squares(
            polys, regions, improve_splits=0, **budgets)
        assert plain.boxes_examined == expected[1] and sharpened == 0
        outcomes.add(plain.failure.split(" ")[0] if plain.failure else plain.m < sharp.m)
    assert outcomes == {"sum-of-squares", "split", "degenerate", False, True}
