import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from degreelab.polycore import IntervalBox, IntervalStack, Poly, parse_poly
from degreelab.mapforms import PolyMap, jacobian_det
from degreelab.fibersolve import (
    _ROW_BLOCK,
    _SPLIT_RATIO,
    ClearanceResult,
    FiberResult,
    SolveStats,
    _reaches_zero,
    _residuals,
    boundary_clearance,
    solve_fiber,
    split_widest,
    subdivide,
)
from degreelab import degree
from degreelab.degree import (
    BudgetExceededError,
    Bump,
    DegreeComputationError,
    IncompleteSolveError,
    PreconditionViolation,
    QuadratureConfig,
    RoundingAmbiguousError,
    bump_build,
    component_constancy_check,
    degree_integral,
    degree_signed_count,
    homotopy_constancy_check,
    path_segment_clearance,
    signed_count_from_fiber,
    winding_degree,
)

from gen_maps import random_map, random_poly


def make_map(n, *exprs):
    return PolyMap([parse_poly(e, n) for e in exprs])


def cube(n, radius):
    return IntervalBox.cube(n, Fraction(radius))


# ---------------------------------------------------------------------
# Bump
# ---------------------------------------------------------------------

def test_bump_fields():
    b = bump_build(2.0, 3)
    assert b.epsilon == 2.0
    assert b.inner_radius == pytest.approx(0.5)
    assert b.outer_radius == pytest.approx(1.5)
    assert b.dims == 3
    assert "exp(-1/s)" in b.profile
    assert b.normalization_constant > 0.0


def test_bump_support():
    b = bump_build(8.0, 2)
    # zero at and below an eighth of epsilon, zero at and beyond three quarters
    for r in (0.0, 0.5, 1.0, 6.0, 7.5, 100.0):
        assert b.value(r) == 0.0
    # strictly positive strictly inside the support
    for r in (1.2, 2.0, 3.0, 5.0, 5.9):
        assert b.value(r) > 0.0


def test_bump_plateau_flat():
    b = bump_build(8.0, 2)
    # between eps/4 and (eps/4 + 3 eps/4)/2 = eps/2 the profile is exactly 1
    plateau = [b.value(r) for r in (2.0, 2.5, 3.0, 3.5, 4.0)]
    assert all(v == pytest.approx(b.normalization_constant) for v in plateau)


def test_bump_rise_monotone():
    b = bump_build(8.0, 1)
    rs = np.linspace(1.0, 2.0, 50)
    vals = b.value_array(rs)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(b.normalization_constant)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("eps", [0.25, 1.0, 7.5])
def test_bump_unit_mass(n, eps):
    # independent oracle: adaptive quadrature of the full-space integral
    # in polar form, int_0^inf area(S^{n-1}) r^{n-1} Phi(r) dr
    b = bump_build(eps, n)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    total, err = quad(
        lambda r: area * r ** (n - 1) * b.value(r),
        0.5 * b.inner_radius, b.outer_radius,
        points=[b.inner_radius, 0.5 * (b.inner_radius + b.outer_radius)],
        epsabs=1e-10, epsrel=1e-10, limit=200)
    assert err < 1e-8
    assert abs(total - 1.0) < 1e-6


def test_bump_rejects_bad_args():
    with pytest.raises(ValueError):
        bump_build(0.0, 2)
    with pytest.raises(ValueError):
        bump_build(-1.0, 2)
    with pytest.raises(ValueError):
        bump_build(1.0, 0)


# ---------------------------------------------------------------------
# Signed count
# ---------------------------------------------------------------------

def test_signed_count_identity():
    res = degree_signed_count(PolyMap.identity(2), cube(2, 1), [0, 0])
    assert res.value == 1
    assert res.method == "signed_count"
    assert res.certified is True
    assert res.raw is None
    assert res.diagnostics["roots"] == 1
    assert res.diagnostics["clearance"] > 0.9


def test_signed_count_square_cancels():
    res = degree_signed_count(make_map(1, "x1^2"), cube(1, 2), [1])
    assert res.value == 0
    assert res.diagnostics["positive_roots"] == 1
    assert res.diagnostics["negative_roots"] == 1


def test_signed_count_cubic_three_roots():
    res = degree_signed_count(make_map(1, "x1^3 - 3*x1"), cube(1, 3), [0])
    assert res.value == 1
    assert res.diagnostics["roots"] == 3


def test_signed_count_shear():
    res = degree_signed_count(make_map(2, "x1 + x2^3", "x2"), cube(2, 2), [0, 0])
    assert res.value == 1


def test_signed_count_two_squares():
    res = degree_signed_count(make_map(2, "x1^2", "x2^2"), cube(2, 2), [1, 1])
    assert res.value == 0
    assert res.diagnostics["roots"] == 4


def test_signed_count_orientation_reversing():
    res = degree_signed_count(make_map(2, "x2", "x1"), cube(2, 1), [0, 0])
    assert res.value == -1


def test_signed_count_boundary_target_rejected():
    with pytest.raises(PreconditionViolation) as info:
        degree_signed_count(make_map(1, "x1^2"), cube(1, 2), [4])
    assert info.value.reason == "boundary"


def test_signed_count_singular_root_rejected():
    with pytest.raises(PreconditionViolation) as info:
        degree_signed_count(make_map(1, "x1^2"), cube(1, 2), [0])
    assert info.value.reason == "singular"


def test_assembly_from_precomputed_parts():
    F = make_map(1, "x1^3 - 3*x1")
    box = cube(1, 3)
    clearance = boundary_clearance(F, [0], box)
    fiber = solve_fiber(F, [0], box)
    res = signed_count_from_fiber(fiber, clearance)
    assert res.value == 1
    assert res.diagnostics["clearance"] == clearance.m


def test_assembly_rejects_failed_clearance():
    fiber = FiberResult(roots=(), status="complete", stats=SolveStats(0, 0))
    bad = ClearanceResult(0.0, 5, 2, "depth")
    with pytest.raises(PreconditionViolation) as info:
        signed_count_from_fiber(fiber, bad)
    assert info.value.reason == "boundary"


def test_assembly_rejects_incomplete_fiber():
    fiber = FiberResult(roots=(), status="depth_exceeded", stats=SolveStats(9, 9))
    good = ClearanceResult(1.0, 5, 2, None)
    with pytest.raises(IncompleteSolveError):
        signed_count_from_fiber(fiber, good)


@pytest.mark.parametrize("status, message", [
    ("depth_exceeded", "solver status depth_exceeded"),
    ("budget_exhausted", "solver status budget_exhausted after 4055 boxes"),
])
def test_assembly_names_the_incomplete_status(status, message):
    fiber = FiberResult(roots=(), status=status, stats=SolveStats(4055, 11))
    good = ClearanceResult(1.0, 5, 2, None)
    with pytest.raises(IncompleteSolveError, match=f"^{message}$"):
        signed_count_from_fiber(fiber, good)


# ---------------------------------------------------------------------
# Winding number
# ---------------------------------------------------------------------

@pytest.mark.parametrize("exprs, expected", [
    (("x1", "x2"), 1),
    (("x1", "-x2"), -1),
    (("x1^2 - x2^2", "2*x1*x2"), 2),
    (("x1^3 - 3*x1*x2^2", "3*x1^2*x2 - x2^3"), 3),
    (("x2", "x1"), -1),
])
def test_winding_known_degrees(exprs, expected):
    # z^2 and z^3 have a singular root at 0, where the signed count fails
    assert winding_degree(make_map(2, *exprs), [0, 0], cube(2, 1)) == expected


def test_winding_target_on_boundary_image_undecided():
    # (1, 0) is the image of a point of the right edge
    assert winding_degree(PolyMap.identity(2), [1, 0], cube(2, 1)) is None


def test_winding_target_outside_the_image_is_zero():
    assert winding_degree(PolyMap.identity(2), [3, 0], cube(2, 1)) == 0


def test_winding_degenerate_box_undecided():
    box = IntervalBox((-1.0, 0.0), (1.0, 0.0))
    assert winding_degree(PolyMap.identity(2), [0, 0], box) is None


def test_winding_rejects_other_dimensions():
    with pytest.raises(ValueError):
        winding_degree(PolyMap.identity(3), [0, 0, 0], cube(3, 1))
    with pytest.raises(ValueError):
        winding_degree(PolyMap.identity(2), [0], cube(2, 1))


def test_winding_rotates_past_a_corner_zero(monkeypatch):
    # x1^2 - x2^2 vanishes at all four corners, so the edge index of
    # Q/P is not defined there; the pair is turned until R misses them
    turned = []
    edge_index = degree._edge_index

    def recording(R, S, lo, hi):
        turned.append((R, lo, hi))
        return edge_index(R, S, lo, hi)

    monkeypatch.setattr(degree, "_edge_index", recording)
    F = make_map(2, "x1^2 - x2^2", "2*x1*x2")
    assert winding_degree(F, [0, 0], cube(2, 1)) == 2
    assert len(turned) == 4
    for R, lo, hi in turned:
        for x in (lo, hi):
            assert sum(c * x ** k for k, c in enumerate(R)) != 0


def test_winding_coefficient_near_float_max_decided():
    # the components sum to x1 + x2, so a root has x2 = -x1, and then the
    # first is x1: 0 is the only root, and det JF(0) = 1, so the degree
    # is 1; exact integers neither overflow nor round
    big = "17" + "0" * 307
    F = make_map(2, f"{big}*x1^2 - {big}*x2^2 + x1", f"{big}*x2^2 - {big}*x1^2 + x2")
    assert winding_degree(F, [0, 0], cube(2, 2)) == 1


def test_winding_odd_index_total_is_a_soundness_bug(monkeypatch):
    # around a closed curve R changes sign an even number of times, so
    # the edge indices cannot sum to an odd number
    indices = iter([1, 0, 0, 0])
    monkeypatch.setattr(degree, "_edge_index", lambda R, S, lo, hi: next(indices))
    with pytest.raises(RuntimeError, match="soundness bug"):
        winding_degree(PolyMap.identity(2), [0, 0], cube(2, 1))


@pytest.mark.parametrize("z", [[1, 0], [Fraction(1, 2), -1]])
def test_winding_target_on_the_boundary_image_encloses_nothing(monkeypatch, z):
    # the images of points of the right and bottom edges; the interval
    # walk split the segment about (1, 0) for 1,076 levels
    def enclose(self, los, his):
        raise AssertionError("the winding degree enclosed an interval")

    monkeypatch.setattr(IntervalStack, "enclose", enclose)
    assert winding_degree(PolyMap.identity(2), z, cube(2, 1)) is None


def test_winding_equals_signed_count_on_random_maps():
    # half the targets are images of points of the box, so that nonzero
    # degrees occur; wherever the signed count completes the two agree
    rng = random.Random(1616)
    compared, nonzero = 0, 0
    for k in range(160):
        F = random_map(rng, 2, max_deg=3)
        box = cube(2, Fraction(rng.randint(1, 8), 4))
        if k % 2:
            z = [Fraction(rng.randint(-8, 8), 4) for _ in range(2)]
        else:
            x = tuple(Fraction(rng.randint(-8, 8), 8) * Fraction(box.hi[0]) for _ in range(2))
            z = [c.eval(x) for c in F.components]
        wound = winding_degree(F, z, box)
        try:
            count = degree_signed_count(F, box, z).value
        except DegreeComputationError:
            continue
        assert wound == count, (F, box, z)
        compared += 1
        nonzero += count != 0
    assert compared >= 100 and nonzero >= 20


# Quadrant of a nonzero plane vector by its sign pair, at index
# 3 (s1 + 1) + (s2 + 1): q0 is v1 > 0, v2 >= 0, q1 v1 <= 0, v2 > 0, q2
# v1 < 0, v2 <= 0, q3 v1 >= 0, v2 < 0.  The zero vector has none (-1).
_QUADRANT = np.array([2, 2, 1, 3, -1, 1, 3, 0, 0])


def _quadrants(gs, pts):
    """Quadrant of (g1, g2) at each row of pts, each sign from a point
    enclosure, or from exact evaluation where that reaches zero."""
    index = np.zeros(len(pts), dtype=np.int64)
    for g, lo, hi, weight in zip(gs.polys, *gs.enclose(pts, pts), (3, 1)):
        sign = (lo > 0.0).astype(np.int64) - (hi < 0.0)
        for k in np.nonzero(~((lo > 0.0) | (hi < 0.0)))[0]:
            value = g.eval(tuple(Fraction(float(x)) for x in pts[k]))
            sign[k] = (value > 0) - (value < 0)
        index += weight * (sign + 1)
    return _QUADRANT[index]


def _reference_winding_degree(F, z, box):
    """The winding degree as an interval walk: the four edges split into
    segments until g1 or g2 excludes zero on each, or the segment budget
    is spent, or a segment cannot be split; then the quadrant steps
    between the segments' ends sum to 4 times the degree.  None when
    undecided."""
    gs = IntervalStack(_residuals(F, z, box))
    (a1, a2), (b1, b2) = box.lo, box.hi
    if a1 == b1 or a2 == b2:
        return None
    done = []

    def decide(los, his):
        split = _reaches_zero(gs, los, his)
        if not split_widest(los[split], his[split], _SPLIT_RATIO)[2].all():
            return None
        done.append((los[~split], his[~split]))
        return split

    if subdivide(np.array([[a1, a2], [b1, a2], [a1, b2], [a1, a2]]),
                 np.array([[b1, a2], [b1, b2], [b1, b2], [a1, b2]]),
                 decide, _ROW_BLOCK, _SPLIT_RATIO):
        return None
    los, his = (np.concatenate(part) for part in zip(*done))
    edges = np.where(los[:, 1] == his[:, 1], np.where(los[:, 1] == a2, 0, 2),
                     np.where(los[:, 0] == b1, 1, 3))
    up = edges < 2
    starts = np.where(up[:, None], los, his)
    along = starts[np.arange(len(edges)), edges % 2] * np.where(up, 1.0, -1.0)
    quadrants = _quadrants(gs, starts[np.lexsort((along, edges))])
    steps = (np.roll(quadrants, -1) - quadrants) % 4
    assert (quadrants >= 0).all() and not (steps == 2).any()
    total = int(np.sum(np.where(steps == 3, -1, steps)))
    assert total % 4 == 0
    return total // 4


def _boundary_points(rng, box):
    """The corners and a dyadic point of every edge, exactly."""
    (a1, a2), (b1, b2) = ((Fraction(x) for x in corner) for corner in (box.lo, box.hi))
    s, t = (Fraction(rng.randint(1, 15), 16) for _ in range(2))
    x1, x2 = a1 + s * (b1 - a1), a2 + t * (b2 - a2)
    return [(a1, a2), (b1, a2), (b1, b2), (a1, b2), (x1, a2), (b1, x2), (x1, b2), (a1, x2)]


@pytest.mark.parametrize("lo, hi", [
    ((-1.0, -1.0), (1.0, 1.0)),
    ((0.5, -2.0), (3.0, -0.25)),
    ((0.1, -0.3), (0.7, 0.2)),
    ((-1e300, 5e299), (2e300, 1e300)),
])
def test_winding_equals_the_walk_on_random_maps(lo, hi):
    # wherever the walk decides the two agree.  F at the corners and at
    # dyadic points of the edges is on F(boundary), where the kernel says
    # None; a random target with a 2^-20 grain is off that curve, where it
    # decides.  F at points strictly inside is compared with the walk only,
    # as it can lie on F(boundary) too: (-x1^2/3, x2^3 - x2) maps (3/4, 0)
    # and (3/4, 1) to one point.
    rng = random.Random(2727)
    box = IntervalBox(lo, hi)
    (a1, a2), (b1, b2) = ((Fraction(x) for x in corner) for corner in (box.lo, box.hi))
    compared, nonzero = 0, 0
    for k in range(24):
        F = random_map(rng, 2, max_deg=3)
        boundary = _boundary_points(rng, box)
        inside = [(a1 + Fraction(rng.randint(1, 15), 16) * (b1 - a1),
                   a2 + Fraction(rng.randint(1, 15), 16) * (b2 - a2)) for _ in range(2)]
        span = max(abs(c.eval(x)) for c in F.components for x in boundary) + 1
        targets = [([c.eval(x) for c in F.components], True)
                   for x in (boundary[k % 4], boundary[4 + k % 4])]
        targets += [([c.eval(x) for c in F.components], None) for x in inside]
        targets += [([span * Fraction(rng.randint(-1 << 20, 1 << 20), 1 << 20)
                      for _ in range(2)], False)]
        for z, on_boundary in targets:
            wound = winding_degree(F, z, box)
            reference = _reference_winding_degree(F, z, box)
            if reference is not None:
                assert wound == reference, (F, box, z)
                compared += 1
            if on_boundary is not None:
                assert (wound is None) == on_boundary, (F, box, z)
            nonzero += bool(wound)
    assert nonzero >= 15 and compared >= (40 if hi[0] < 1e300 else 10)


@pytest.mark.parametrize("exprs, z, expected", [
    (("x1", "x2"), [1, -1], 1),
    (("x1", "x2"), [0, 0], 0),
    (("x2", "x1"), [-1, 1], -1),
    # z^2 maps p and -p to one point, and only p is in the box
    (("x1^2 - x2^2", "2*x1*x2"), [0, -2], 1),
])
def test_winding_known_degrees_on_an_off_origin_box(exprs, z, expected):
    # no edge of [1/2, 3] x [-2, -1/4] lies on an axis or has its opposite
    # edge's length
    box = IntervalBox((0.5, -2.0), (3.0, -0.25))
    assert winding_degree(make_map(2, *exprs), z, box) == expected


@pytest.mark.parametrize("lo, hi", [
    ((0.5, -2.0), (3.0, -0.25)),
    ((-3.0, 0.75), (-1.25, 1.5)),
    ((-0.5, -4.0), (2.5, 1.0)),
])
def test_winding_equals_signed_count_on_lopsided_boxes(lo, hi):
    # each edge's label is read off its segments' flat sides, so boxes
    # whose sides differ in length and position exercise all four labels
    rng = random.Random(1717)
    box = IntervalBox(lo, hi)
    compared, nonzero = 0, 0
    for k in range(40):
        F = random_map(rng, 2, max_deg=3)
        x = tuple(Fraction(a) + (Fraction(b) - Fraction(a)) * Fraction(rng.randint(1, 15), 16)
                  for a, b in zip(lo, hi))
        z = [c.eval(x) for c in F.components]
        if k % 2:
            z = [v + Fraction(rng.randint(-8, 8), 4) for v in z]
        wound = winding_degree(F, z, box)
        try:
            count = degree_signed_count(F, box, z).value
        except DegreeComputationError:
            continue
        assert wound == count, (F, box, z)
        compared += 1
        nonzero += count != 0
    assert compared >= 20 and nonzero >= 10


# ---------------------------------------------------------------------
# Path segment against the boundary image (n = 2)
# ---------------------------------------------------------------------

def _random_box(rng, degenerate=False):
    """A box with sides in quarters; a degenerate one is a segment or a
    point."""
    lo = [Fraction(rng.randint(-8, 4), 4) for _ in range(2)]
    hi = [x + Fraction(rng.randint(1, 8), 4) for x in lo]
    if degenerate:
        flat = rng.choice(((0,), (1,), (0, 1)))
        hi = [lo[i] if i in flat else hi[i] for i in range(2)]
    return IntervalBox(tuple(map(float, lo)), tuple(map(float, hi)))


def _boundary_point(rng, box, corner):
    """A rational point of the box boundary: a corner, or a point of an
    edge other than its ends where the edge has length."""
    lo, hi = ([Fraction(x) for x in end] for end in (box.lo, box.hi))
    if corner:
        return tuple(rng.choice(pair) for pair in zip(lo, hi))
    x = [a + (b - a) * Fraction(rng.randint(1, 7), 8) for a, b in zip(lo, hi)]
    fixed = rng.randrange(2)
    x[fixed] = rng.choice((lo[fixed], hi[fixed]))
    return tuple(x)


def _random_point(rng):
    return [Fraction(rng.randint(-12, 12), 4) for _ in range(2)]


def test_plane_segment_misses_wherever_the_clearance_certifies():
    rng = random.Random(2828)
    certified = met = 0
    for k in range(100):
        F = random_map(rng, 2, max_deg=4)
        box = _random_box(rng, degenerate=k % 5 == 0)
        a, b = _random_point(rng), _random_point(rng)
        failure = degree.plane_segment_failure(F, box, a, b)
        if path_segment_clearance(F, box, a, b).ok:
            assert failure is None, (F, box, a, b)
            certified += 1
        met += failure is not None
    assert certified >= 60 and met >= 10


@pytest.mark.parametrize("corner", [True, False], ids=["corner", "edge_point"])
@pytest.mark.parametrize("where", ["at_a", "at_b", "inside"])
def test_plane_segment_through_a_boundary_image_meets(corner, where):
    # the segment holds F(x) for a rational point x of the box boundary,
    # at a, at b or at a + s (b - a) for some s in (0, 1)
    rng = random.Random(2929)
    for k in range(40):
        F = random_map(rng, 2, max_deg=4)
        box = _random_box(rng, degenerate=k % 5 == 0)
        x = _boundary_point(rng, box, corner)
        y = [c.eval(x) for c in F.components]
        other = _random_point(rng)
        if where == "at_a":
            a, b = y, other
        elif where == "at_b":
            a, b = other, y
        else:
            s = Fraction(rng.randint(1, 7), 8)
            a, b = [(v - s * w) / (1 - s) for v, w in zip(y, other)], other
        assert degree.plane_segment_failure(F, box, a, b) is not None, (F, box, a, b)


def test_plane_segment_of_one_point_meets_where_the_winding_degree_is_undecided():
    # a = b: the segment meets F(boundary) exactly where the point lies on it
    rng = random.Random(3030)
    met = missed = 0
    for k in range(60):
        F = random_map(rng, 2, max_deg=4)
        box = _random_box(rng)
        if k % 2:
            x = _boundary_point(rng, box, k % 4 == 1)
            z = [c.eval(x) for c in F.components]
        else:
            z = _random_point(rng)
        failure = degree.plane_segment_failure(F, box, z, z)
        assert (failure is not None) == (winding_degree(F, z, box) is None), (F, box, z)
        met += failure is not None
        missed += failure is None
    assert met >= 30 and missed >= 20


@pytest.mark.parametrize("a, b, meets", [
    # the identity maps the top edge of [-1, 1]^2 onto the segment's line
    # x2 = 1: through both corners, between them only, wholly before them
    # (s < 0 on the edge) and wholly after them (s > 1)
    ([-2, 1], [2, 1], True),
    ([Fraction(-1, 2), 1], [Fraction(1, 2), 1], True),
    ([2, 1], [3, 1], False),
    ([-3, 1], [-2, 1], False),
    ([0, 1], [0, 1], True),
    ([0, 2], [0, 2], False),
])
def test_plane_segment_along_an_edge_image(a, b, meets):
    failure = degree.plane_segment_failure(PolyMap.identity(2), cube(2, 1), a, b)
    assert (failure is not None) == meets


def test_plane_segment_across_a_degenerate_box():
    # the box [-1, 1] x {0} is its own boundary, which the identity keeps
    box = IntervalBox((-1.0, 0.0), (1.0, 0.0))
    F = PolyMap.identity(2)
    assert degree.plane_segment_failure(F, box, [0, -1], [0, 1]) == (
        "F maps a point of the edge x2 = 0 onto the segment")
    assert degree.plane_segment_failure(F, box, [1, -1], [1, 1]) == "F(1, 0) lies on the segment"
    assert degree.plane_segment_failure(F, box, [2, -1], [2, 1]) is None
    assert path_segment_clearance(F, box, [2, -1], [2, 1]).ok


def test_plane_segment_sequences_stay_below_the_degree_of_the_first(monkeypatch):
    # V, W and every product are reduced modulo U before a remainder
    # sequence is formed, so no sequence element outgrows the first
    lengths = []
    remainders = degree._remainders

    def recording(a, b):
        lengths.append((len(a), len(b)))
        return remainders(a, b)

    monkeypatch.setattr(degree, "_remainders", recording)
    rng = random.Random(3131)
    for k in range(40):
        F = random_map(rng, 2, max_deg=4)
        a, b = _random_point(rng), _random_point(rng)
        b[0] += a == b
        degree.plane_segment_failure(F, _random_box(rng), a, b)
    assert len(lengths) >= 100
    assert all(lb < la for la, lb in lengths)


def test_segment_clearance_and_exact_test_agree_on_quartic_face_terms():
    # the face terms of this quartic Keller map grow like R^4 and cancel:
    # the natural enclosure alone runs out of splits on them, and the
    # mean-value fallback lets the clearance certify the segment at radius
    # 100, the first radius whose boundary image the segment misses
    F = make_map(2, "18*x1^4 - 12*x1^2*x2 + 6*x1^2 + 2*x2^2 + x1 - 2*x2", "-3*x1^2 + x2")
    a, b = [0, 0], [25, -3]
    assert degree.plane_segment_failure(F, cube(2, 50), a, b) is not None
    assert degree.plane_segment_failure(F, cube(2, 100), a, b) is None
    assert path_segment_clearance(F, cube(2, 100), a, b).ok


def test_segment_failure_takes_the_clearance_off_the_plane(monkeypatch):
    calls = []
    clearance = degree.path_segment_clearance

    def recording(F, box, a, b):
        calls.append(F.n)
        return clearance(F, box, a, b)

    monkeypatch.setattr(degree, "path_segment_clearance", recording)
    assert degree.segment_failure(PolyMap.identity(2), cube(2, 1), [0, 0], [2, 0]) == (
        "F maps a point of the edge x1 = 1 onto the segment")
    assert degree.segment_failure(PolyMap.identity(1), cube(1, 2), [0], [1]) is None
    assert degree.segment_failure(PolyMap.identity(3), cube(3, 1), [0, 0, 0], [1, 1, 1])
    assert calls == [1, 3]


@pytest.mark.parametrize("check", [path_segment_clearance, degree.plane_segment_failure,
                                   degree.segment_failure])
def test_segment_rejects_an_end_of_the_wrong_length(check):
    with pytest.raises(ValueError, match=r"segment end b = \['1', '2', '3'\] has length 3, "
                                         r"expected 2"):
        check(PolyMap.identity(2), cube(2, 1), [0, 0], [1, 2, 3])
    with pytest.raises(ValueError, match=r"segment end a = \['1/2'\] has length 1, expected 2"):
        check(PolyMap.identity(2), cube(2, 1), [Fraction(1, 2)], [0, 0])


# ---------------------------------------------------------------------
# Integral method
# ---------------------------------------------------------------------

def test_integral_identity_1d():
    res = degree_integral(PolyMap.identity(1), cube(1, 1), [0])
    assert res.value == 1
    assert res.method == "integral"
    assert res.certified is False
    assert abs(res.raw - 1.0) < 0.25
    assert res.diagnostics["epsilon"] == pytest.approx(
        res.diagnostics["clearance"] / 2.0)
    assert res.diagnostics["samples"] >= 2 * 4096
    assert "Halton" in res.diagnostics["quadrature"]


def test_integral_square_1d():
    res = degree_integral(make_map(1, "x1^2"), cube(1, 2), [1])
    assert res.value == 0
    assert abs(res.raw) < 0.25


def test_integral_cubic_1d():
    res = degree_integral(make_map(1, "x1^3 - 3*x1"), cube(1, 3), [0])
    assert res.value == 1


def test_integral_identity_2d():
    res = degree_integral(PolyMap.identity(2), cube(2, 1), [0, 0])
    assert res.value == 1


def test_integral_orientation_reversing():
    res = degree_integral(make_map(2, "x2", "x1"), cube(2, 1), [0, 0])
    assert res.value == -1


def test_integral_two_squares():
    res = degree_integral(make_map(2, "x1^2", "x2^2"), cube(2, 2), [1, 1])
    assert res.value == 0


def test_integral_matches_signed_count():
    cases = [
        (PolyMap.identity(2), cube(2, 1), [0, 0]),
        (make_map(1, "x1^3 - 3*x1"), cube(1, 3), [0]),
        (make_map(2, "x1 + x2^3", "x2"), cube(2, 2), [0, 0]),
    ]
    for F, box, z in cases:
        exact = degree_signed_count(F, box, z)
        est = degree_integral(F, box, z)
        assert est.value == exact.value
        assert abs(est.raw - exact.value) < 0.25


def test_integral_boundary_target_rejected():
    with pytest.raises(PreconditionViolation) as info:
        degree_integral(make_map(1, "x1^2"), cube(1, 2), [4])
    assert info.value.reason == "boundary"


def test_integral_budget_exceeded():
    # an agreement threshold of zero can never be met
    quad_cfg = QuadratureConfig(start_samples=64, max_samples=256, agreement=0.0)
    with pytest.raises(BudgetExceededError):
        degree_integral(PolyMap.identity(1), cube(1, 1), [0], quad_cfg)


def test_integral_rounding_guard():
    # an absurdly strict rounding tolerance flags the estimate as ambiguous
    quad_cfg = QuadratureConfig(rounding_tol=1e-12)
    with pytest.raises(RoundingAmbiguousError) as info:
        degree_integral(make_map(2, "x1 + x2^3", "x2"), cube(2, 2), [0, 0], quad_cfg)
    assert abs(info.value.raw - 1.0) < 0.25


def test_integral_deterministic():
    F = make_map(2, "x1 + x2^3", "x2")
    a = degree_integral(F, cube(2, 2), [0, 0])
    b = degree_integral(F, cube(2, 2), [0, 0])
    assert a.raw == b.raw
    assert a.diagnostics["samples"] == b.diagnostics["samples"]
    assert a == b


def test_integral_dimension_mismatch():
    with pytest.raises(ValueError):
        degree_integral(PolyMap.identity(2), cube(3, 1), [0, 0])


def test_halton_equals_scipy():
    # bit for bit, over pieces whose starts fall inside the digit tables'
    # runs (2^12, 3^7, 5^5, ... indices)
    rng = np.random.default_rng(12)
    total = 1 << 17
    for d in range(1, 7):
        expected = qmc.Halton(d=d, scramble=False).random(total)
        halton = degree._Halton(d)
        pieces, start = [], 0
        while start < total:
            count = min(int(rng.integers(1, 9000)), total - start)
            pieces.append(halton.points(start, count))
            start += count
        got = np.concatenate(pieces)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), d


def _reference_integral(F, box, z, quad_cfg):
    """degree_integral's sampling loop with one (batch, n) array per round
    from scipy's Halton engine, each polynomial evaluated on its own.
    Returns (estimates, samples); raises BudgetExceededError like it."""
    clearance = boundary_clearance(F, z, box)
    bump = bump_build(clearance.m / 2.0, F.n)
    det = jacobian_det(F)
    z_float = np.array([float(Fraction(v)) for v in z])
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    volume = float(np.prod(span))
    halton = qmc.Halton(d=F.n, scramble=False)
    total, drawn, estimates = 0.0, 0, []
    batch = quad_cfg.start_samples
    while True:
        pts = lo[None, :] + halton.random(batch) * span[None, :]
        residual_sq = np.zeros(pts.shape[0])
        for i, comp in enumerate(F.components):
            diff = comp.eval_array(pts) - z_float[i]
            residual_sq = residual_sq + diff * diff
        weights = bump.value_array(np.sqrt(residual_sq))
        total += float(np.sum(weights * det.eval_array(pts)))
        drawn += batch
        estimates.append(volume * total / drawn)
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < quad_cfg.agreement:
            return estimates, drawn
        if drawn >= quad_cfg.max_samples:
            tail = estimates[-2:] if len(estimates) >= 2 else estimates
            raise BudgetExceededError(
                f"no agreement after {drawn} samples; last estimates {tail}")
        batch = drawn


@pytest.mark.parametrize("F, box, z", [
    (make_map(2, "x1^2 - x2^2", "2*x1*x2"), cube(2, 2), [Fraction(1, 2), Fraction(1, 3)]),
    (make_map(3, "x1 + x2^2*x3", "x2 + x3^3", "x3"), cube(3, 1), [0, Fraction(1, 5), 0]),
])
@pytest.mark.parametrize("quad_cfg", [
    QuadratureConfig(), QuadratureConfig(start_samples=1000),
    # rounds up to 512000 points: many blocks, the last of each round
    # ending inside it, and a round summed per block would differ
    QuadratureConfig(start_samples=1000, agreement=0.002)])
def test_integral_equals_one_array_reference(F, box, z, quad_cfg):
    # row blocks, the built-in Halton points and the shared power table
    # leave every estimate unchanged bit for bit, also when a round is not
    # a whole number of blocks
    estimates, samples = _reference_integral(F, box, z, quad_cfg)
    res = degree_integral(F, box, z, quad_cfg)
    assert res.raw == estimates[-1]
    assert res.diagnostics["estimates"] == estimates[-2:]
    assert res.diagnostics["samples"] == samples


def test_integral_budget_message_equals_one_array_reference():
    F = make_map(2, "x1^2 - x2^2", "2*x1*x2")
    z = [Fraction(1, 2), Fraction(1, 3)]
    quad_cfg = QuadratureConfig(start_samples=1000, max_samples=20000, agreement=0.0)
    with pytest.raises(BudgetExceededError) as expected:
        _reference_integral(F, cube(2, 2), z, quad_cfg)
    with pytest.raises(BudgetExceededError) as got:
        degree_integral(F, cube(2, 2), z, quad_cfg)
    assert str(got.value) == str(expected.value)
    assert "32000 samples" in str(got.value)


def test_integral_ignores_a_det_that_is_not_finite_where_the_weight_is_0():
    # det JF = 301 x1^300 + 1 overflows to inf for |x1| above about 10.2,
    # where |F - z| overflows too and the weight is 0: those samples add 0,
    # not 0 * inf = NaN, and the estimate stays finite
    F = make_map(1, "x1^301 + x1")
    assert np.isinf(jacobian_det(F).eval_array(np.array([[10.5], [-10.5]]))).all()
    with np.errstate(over="ignore"):  # |F - z|^2 overflows far from the root
        res = degree_integral(F, cube(1, 11), [0], QuadratureConfig(max_samples=1 << 15))
    assert res.value == 1 and math.isfinite(res.raw)


# ---------------------------------------------------------------------
# Homotopy constancy
# ---------------------------------------------------------------------

def test_homotopy_cubic_perturbation():
    # x + t x^3 on [-2, 2]: the boundary values x = +/-2 never cross zero
    family = [parse_poly("x1 + x2*x1^3", 2)]
    grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    report = homotopy_constancy_check(family, cube(1, 2), [0], grid)
    assert report.boundary_certified is True
    assert report.degrees == (1, 1, 1, 1, 1)
    assert report.constant is True
    assert report.failures == ()
    assert report.t_grid == tuple(grid)


def test_homotopy_2d_family():
    family = [parse_poly("x1 + x3*x1^3", 3), parse_poly("x2", 3)]
    report = homotopy_constancy_check(
        family, cube(2, 2), [0, 0], [Fraction(0), Fraction(1, 2), Fraction(1)])
    assert report.boundary_certified is True
    assert report.constant is True
    assert set(report.degrees) == {1}


def test_homotopy_boundary_hit_aborts():
    # x + t on [-1, 1]: at t = 1 the endpoint x = -1 lands on the target
    family = [parse_poly("x1 + x2", 2)]
    report = homotopy_constancy_check(
        family, cube(1, 1), [0], [Fraction(0), Fraction(1)])
    assert report.boundary_certified is False
    assert report.degrees == (None, None)
    assert report.constant is False
    assert report.failures


def _random_family(rng, n):
    # x + t * H(x) / 8 with a random cubic H: the target 0 often stays off
    # the image of (box boundary) x [0, 1], and the degree is that of x
    t = Poly.var(n + 1, n + 1)
    return [Poly.var(n + 1, i + 1) + (t * random_poly(rng, n + 1, max_deg=3)).scale(
        Fraction(1, 8)) for i in range(n)]


def test_homotopy_family_certificate_serves_every_grid_instance(fixtures_dir, monkeypatch):
    # the family clearance over (box boundary) x [0, 1] certifies each
    # instance's boundary, so no instance clearance is computed, and the
    # degrees equal those of a signed count that certifies each instance
    rng = random.Random(1414)
    fixture = json.loads((fixtures_dir / "family_cubic.map").read_text())
    cases = [([parse_poly(e, 2) for e in fixture["components"]], cube(1, 2), [0])]
    for n in (1, 1, 1, 2, 2, 2):
        cases.append((_random_family(rng, n), cube(n, 2), [0] * n))
    grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    calls = []
    real = degree.boundary_clearance
    certified = 0
    for family, box, z in cases:
        n = box.dims
        expected = []
        for t in grid:
            instance = PolyMap([p.substitute(n + 1, t) for p in family])
            try:
                expected.append(degree_signed_count(instance, box, z).value)
            except DegreeComputationError:
                expected.append(None)
        with monkeypatch.context() as patch:
            patch.setattr(degree, "boundary_clearance",
                          lambda *args, **kw: calls.append(args) or real(*args, **kw))
            report = homotopy_constancy_check(family, box, z, grid)
        if report.boundary_certified:
            certified += 1
            assert report.degrees == tuple(expected), family
    assert calls == []
    assert certified >= 4


def test_homotopy_plane_instances_read_the_winding_degree(monkeypatch):
    # no plane instance solves its fiber, and with the winding degree
    # undecided every instance falls back to the signed count, with the
    # same report
    rng = random.Random(1616)
    grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    families = [[parse_poly("x1 + x3*x1^3", 3), parse_poly("x2", 3)]]
    families += [_random_family(rng, 2) for _ in range(4)]
    for family in families:
        solves = []
        with monkeypatch.context() as patch:
            patch.setattr(degree, "solve_fiber",
                          lambda *args: solves.append(args) or solve_fiber(*args))
            report = homotopy_constancy_check(family, cube(2, 2), [0, 0], grid)
        assert solves == []
        with monkeypatch.context() as patch:
            patch.setattr(degree, "winding_degree", lambda F, z, box: None)
            patch.setattr(degree, "solve_fiber",
                          lambda *args: solves.append(args) or solve_fiber(*args))
            fallback = homotopy_constancy_check(family, cube(2, 2), [0, 0], grid)
        assert fallback == report
        assert len(solves) == (len(grid) if report.boundary_certified else 0)


def test_homotopy_validates_arity():
    with pytest.raises(ValueError):
        homotopy_constancy_check([parse_poly("x1", 1)], cube(1, 1), [0], [0])
    with pytest.raises(ValueError):
        homotopy_constancy_check(
            [parse_poly("x1 + x2", 2)], cube(1, 1), [0], [Fraction(3, 2)])


def test_homotopy_empty_grid_rejected():
    # no degree is computed on an empty grid, so there is nothing to compare
    family = [parse_poly("x1 + x2*x1^3", 2)]
    with pytest.raises(ValueError, match="at least one"):
        homotopy_constancy_check(family, cube(1, 2), [0], [])


# ---------------------------------------------------------------------
# Component constancy
# ---------------------------------------------------------------------

def test_segment_clearance_identity():
    seg = path_segment_clearance(
        PolyMap.identity(1), cube(1, 2), [Fraction(0)], [Fraction(1)])
    assert seg.ok
    assert 0.9 < seg.m <= 1.0


def test_component_path_constant():
    F = make_map(1, "x1^2")
    report = component_constancy_check(F, cube(1, 2), [[1], [2]])
    assert report.path_certified is True
    assert report.degrees == (0, 0)
    assert report.constant is True


def test_component_path_cubic():
    F = make_map(1, "x1^3 - 3*x1")
    report = component_constancy_check(F, cube(1, 3), [[0], [1], [Fraction(3, 2)]])
    assert report.path_certified is True
    assert report.degrees == (1, 1, 1)
    assert report.constant is True


def test_component_path_crossing_boundary_image():
    # on [-2, 2] the boundary of x^2 maps to {4}; the segment 1 -> 5 crosses it
    F = make_map(1, "x1^2")
    report = component_constancy_check(F, cube(1, 2), [[1], [5]])
    assert report.path_certified is False
    # both endpoint degrees exist and agree, yet the check must not claim
    # constancy without the connecting certificate
    assert report.degrees == (0, 0)
    assert report.constant is False
    assert report.failures


def test_component_single_vertex():
    report = component_constancy_check(PolyMap.identity(2), cube(2, 1), [[0, 0]])
    assert report.path_certified is True
    assert report.degrees == (1,)
    assert report.constant is True


def test_component_path_identity_plane():
    report = component_constancy_check(
        PolyMap.identity(2), cube(2, 1), [[0, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert report.path_certified is True
    assert report.degrees == (1, 1)
    assert report.constant is True
    assert report.failures == ()


def test_component_path_plane_segment_through_the_boundary_image():
    # (2, 0) lies outside [-1, 1]^2, so the segment from (0, 0) crosses the
    # identity's boundary image
    report = component_constancy_check(PolyMap.identity(2), cube(2, 1), [[0, 0], [2, 0]])
    assert report.path_certified is False
    assert report.constant is False
    assert report.degrees == (1, 0)
    assert len(report.failures) == 1
    assert report.failures[0].startswith("segment ['0', '0'] -> ['2', '0']: ")


@pytest.mark.parametrize("path, message", [
    # a short vertex used to raise a bare IndexError from the segment step
    ([[0, 0], [Fraction(1, 2)]], r"vertex 1 = \['1/2'\] has length 1, expected 2"),
    # a long one used to pass it
    ([[0, 0, 0], [0, 0]], r"vertex 0 = \['0', '0', '0'\] has length 3, expected 2"),
])
def test_component_path_rejects_a_vertex_of_the_wrong_length(path, message):
    with pytest.raises(ValueError, match=message):
        component_constancy_check(PolyMap.identity(2), cube(2, 1), path)


def test_component_empty_path_rejected():
    with pytest.raises(ValueError):
        component_constancy_check(PolyMap.identity(1), cube(1, 1), [])
