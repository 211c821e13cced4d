"""Tests for the exact polynomial core and interval arithmetic."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from degreelab.polycore import (
    Interval,
    IntervalBox,
    Poly,
    PolyParseError,
    _pow_arrays,
    div_exact,
    parse_poly,
    poly_to_string,
)
from degreelab.fibersolve import split_widest


def random_poly(rng, nvars, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(nvars, terms)


# ---------------------------------------------------------------- parser

def test_parse_simple():
    p = parse_poly("x1 + 2*x2", 2)
    assert p == Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)})


def test_parse_binomial_cube():
    p = parse_poly("(x1 + x2)^3", 2)
    expected = Poly(2, {
        (3, 0): Fraction(1),
        (2, 1): Fraction(3),
        (1, 2): Fraction(3),
        (0, 3): Fraction(1),
    })
    assert p == expected


def test_parse_rational_coefficient():
    p = parse_poly("3/4*x1^2 - 1/2", 1)
    assert p == Poly(1, {(2,): Fraction(3, 4), (0,): Fraction(-1, 2)})


def test_parse_unary_minus():
    assert parse_poly("-x1", 1) == -Poly.var(1, 1)
    assert parse_poly("- - x1", 1) == Poly.var(1, 1)
    assert parse_poly("2 - -3", 1) == Poly.const(1, 5)


def test_parse_nested_parens():
    p = parse_poly("((x1 - 1)*(x1 + 1))", 1)
    assert p == parse_poly("x1^2 - 1", 1)


def test_parse_cancellation_to_zero():
    p = parse_poly("x1 - x1", 1)
    assert p.is_zero


def test_parse_error_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + ", 1)
    assert exc.value.position == 5


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolyParseError):
        parse_poly("x3", 2)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolyParseError):
        parse_poly("2 x1", 1)
    with pytest.raises(PolyParseError):
        parse_poly("x1 x2", 2)


def test_parse_rejects_negative_exponent():
    with pytest.raises(PolyParseError):
        parse_poly("x1^-2", 1)


def test_parse_rejects_bad_character():
    with pytest.raises(PolyParseError):
        parse_poly("x1 + y", 2)


def test_parse_rejects_nonliteral_division():
    with pytest.raises(PolyParseError):
        parse_poly("x1/2", 1)


def test_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        p = random_poly(rng, nvars)
        text = poly_to_string(p)
        assert parse_poly(text, nvars) == p


def test_string_canonical_order():
    p = parse_poly("1 + x1^2 + x1*x2 + x2", 2)
    # graded-lex descending: x1^2, x1*x2, then x2, then 1
    assert poly_to_string(p) == "x1^2 + x1*x2 + x2 + 1"


def test_string_zero():
    assert poly_to_string(Poly.zero(3)) == "0"


# ------------------------------------------------------------- ring laws

def test_ring_axioms_random():
    rng = random.Random(991)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        c = random_poly(rng, nvars)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero(nvars)


def test_pow_matches_repeated_mul():
    rng = random.Random(55)
    p = random_poly(rng, 2, max_deg=2, max_terms=3)
    q = Poly.const(2, 1)
    for k in range(5):
        assert p ** k == q
        q = q * p


def test_derivative_product_rule():
    rng = random.Random(77)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        v = rng.randint(1, nvars)
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


def test_derivative_linear():
    p = parse_poly("x1^3 - 3*x1", 1)
    assert p.diff(1) == parse_poly("3*x1^2 - 3", 1)


def test_mismatched_nvars_raises():
    with pytest.raises(ValueError):
        Poly.var(2, 1) + Poly.var(3, 1)


# ------------------------------------------------------------ evaluation

def test_eval_exact():
    p = parse_poly("x1^2 + x2", 2)
    assert p.eval([Fraction(1, 2), Fraction(3)]) == Fraction(13, 4)
    assert isinstance(p.eval([1, 2]), Fraction)


def test_eval_float_matches_exact():
    rng = random.Random(303)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars, max_deg=3)
        pt = [Fraction(rng.randint(-8, 8), 4) for _ in range(nvars)]
        exact = p.eval(pt)
        approx = p.eval([float(x) for x in pt])
        assert isinstance(approx, float)
        assert abs(approx - float(exact)) <= 1e-9 * (1 + abs(float(exact)))


def test_eval_array_matches_scalar():
    rng = random.Random(404)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars)
        pts = np.array([[rng.uniform(-2, 2) for _ in range(nvars)]
                        for _ in range(7)])
        vec = p.eval_array(pts)
        for i in range(pts.shape[0]):
            scalar = p.eval([float(x) for x in pts[i]])
            assert vec[i] == scalar  # identical operation order, so exact match


def test_eval_wrong_arity():
    with pytest.raises(ValueError):
        parse_poly("x1", 1).eval([1, 2])


# ---------------------------------------------------------- substitution

def test_substitute_pins_a_variable():
    p = parse_poly("x1^2*x2 + x2^3", 2)
    q = p.substitute(1, Fraction(2))
    assert q == parse_poly("x1^3 + 4*x1", 1)


def test_substitute_last_variable_guard():
    with pytest.raises(ValueError):
        parse_poly("x1", 1).substitute(1, 0)


def test_pad_adds_trailing_variables():
    p = parse_poly("x1^2 + 1", 1)
    q = p.pad(2)
    assert q.nvars == 3
    assert q == parse_poly("x1^2 + 1", 3)


def test_compose_against_direct_expansion():
    p = parse_poly("x1^2 + x2", 2)
    g1 = parse_poly("x1 + x2", 2)
    g2 = parse_poly("x1*x2", 2)
    assert p.compose([g1, g2]) == parse_poly("(x1 + x2)^2 + x1*x2", 2)


def test_compose_eval_consistency():
    rng = random.Random(66)
    for _ in range(20):
        p = random_poly(rng, 2, max_deg=3, max_terms=4)
        gs = [random_poly(rng, 2, max_deg=2, max_terms=3) for _ in range(2)]
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        via_compose = p.compose(gs).eval(pt)
        direct = p.eval([g.eval(pt) for g in gs])
        assert via_compose == direct


# ------------------------------------------------------- exact division

def test_div_exact_recovers_factor():
    rng = random.Random(123)
    for _ in range(25):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars, max_deg=2, max_terms=3)
        b = random_poly(rng, nvars, max_deg=2, max_terms=3)
        if b.is_zero:
            continue
        assert div_exact(a * b, b) == a


def test_div_exact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        div_exact(parse_poly("x1^2 + 1", 1), parse_poly("x1", 1))


def test_div_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact(parse_poly("x1", 1), Poly.zero(1))


# -------------------------------------------------- homogeneous pieces

def test_homogeneous_split_and_rebuild():
    p = parse_poly("x1^3 + 2*x1*x2 + 5", 2)
    assert p.homogeneous_degrees() == [0, 2, 3]
    rebuilt = Poly.zero(2)
    for d in p.homogeneous_degrees():
        rebuilt = rebuilt + p.homogeneous_component(d)
    assert rebuilt == p


def test_degree_and_flags():
    assert Poly.zero(2).total_degree() == 0
    assert Poly.zero(2).is_zero
    assert Poly.const(2, 5).total_degree() == 0
    assert not Poly.const(2, 5).is_zero
    assert parse_poly("x1^2*x2", 2).total_degree() == 3


# -------------------------------------------------------- intervals

def test_interval_basic_ops_contain_exact():
    box = IntervalBox.from_bounds([(1.0, 2.0), (-1.0, 0.5)])
    assert _contains(parse_poly("x1 + x2", 2).eval_interval(box), 1.0 + (-1.0))
    product = parse_poly("x1*x2", 2).eval_interval(box)
    assert _contains(product, 2.0 * (-1.0))
    assert _contains(product, 2.0 * 0.5)


def test_interval_power_even_floors_at_zero():
    # the square of [-2, 3] floors at 0; the enclosure then takes two
    # outward roundings (coefficient product and sum), one ulp each
    sq = parse_poly("x1^2", 1).eval_interval(IntervalBox.from_bounds([(-2.0, 3.0)]))
    assert sq.lo == math.nextafter(math.nextafter(0.0, -math.inf), -math.inf)
    assert sq.hi >= 9.0
    lo, hi = _pow_arrays(np.array([-2.0]), np.array([3.0]), 2)
    assert lo[0] == 0.0 and hi[0] >= 9.0


def test_interval_power_odd_preserves_sign_span():
    cu = parse_poly("x1^3", 1).eval_interval(IntervalBox.from_bounds([(-2.0, 3.0)]))
    assert cu.lo <= -8.0
    assert cu.hi >= 27.0


def test_interval_from_fraction_outward():
    q = Fraction(1, 3)
    iv = Interval.from_fraction(q)
    assert iv.lo < q < iv.hi
    exact = Interval.from_fraction(Fraction(3, 4))
    assert exact.lo == exact.hi == 0.75


def test_interval_from_fraction_beyond_float_range():
    big = Fraction(10) ** 400
    assert Interval.from_fraction(big) == Interval(sys.float_info.max, math.inf)
    assert Interval.from_fraction(-big) == Interval(-math.inf, -sys.float_info.max)


def test_enclosure_keeps_root_with_overflowing_coefficient():
    # the exact root x1 = 10^-300 lies in the box; a coefficient 10^400
    # enclosed as [inf, inf] would push the whole enclosure above zero
    p = parse_poly("10^400*x1 - 10^100", 1)
    assert p.eval([Fraction(1, 10 ** 300)]) == 0
    enc = p.eval_interval(IntervalBox.from_bounds([(5e-301, 2e-300)]))
    assert _contains(enc, 0.0)


def test_float_evaluation_with_overflowing_coefficient():
    # the float path maps a coefficient beyond the float range to an infinity
    p = parse_poly("-(10^400)*x1 + x2", 2)
    assert p.eval_array(np.array([[1.0, 0.0], [-2.0, 5.0]])).tolist() == [-math.inf, math.inf]
    assert p.eval([0.5, 1.0]) == -math.inf


def test_interval_invalid():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


def test_interval_enclosure_soundness_bulk():
    # Compare interval evaluation with exact rational evaluation at points
    # sampled inside the box: the enclosure must contain every exact value.
    rng = random.Random(161803)
    for _ in range(250):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars, max_deg=4, max_terms=5)
        sides = []
        for _ in range(nvars):
            lo = Fraction(rng.randint(-40, 30), 8)
            hi = lo + Fraction(rng.randint(0, 40), 8)
            sides.append((lo, hi))
        box = IntervalBox.from_bounds([(float(lo), float(hi)) for lo, hi in sides])
        enc = p.eval_interval(box)
        for _ in range(4):
            pt = []
            for lo, hi in sides:
                t = Fraction(rng.randint(0, 16), 16)
                pt.append(lo + t * (hi - lo))
            val = p.eval(pt)
            assert enc.lo <= val <= enc.hi, (p, box, pt, val, enc)


def _overflow_poly(rng, nvars):
    """Random polynomial whose terms often have degree 300-420, so that
    float powers of sides wider than 1 overflow."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 3) for _ in range(nvars)]
        if rng.random() < 0.6:
            exps[rng.randrange(nvars)] = rng.randint(300, 420)
        c = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
        terms[tuple(exps)] = c
    return Poly(nvars, terms)


def _random_side(rng):
    if rng.random() < 0.3:
        lo = Fraction(rng.choice([0, -10, -1]))
        return lo, lo + rng.choice([0, 1, 10, 20])
    lo = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4]))
    return lo, lo + Fraction(rng.randint(0, 16), rng.choice([1, 2, 4]))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


# Scalar reference enclosure: the per-term loop over plain floats, with
# outward-rounded add, multiply and power.  eval_interval_batch must equal
# it bit for bit.

def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _ref_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    total = ps[0] + ps[1] + ps[2] + ps[3]
    if total != total:
        # a 0 * inf corner (after overflow) means nothing is known; corners
        # of inf and -inf give this too
        return -math.inf, math.inf
    return _down(min(ps)), _up(max(ps))


def _ref_pow_pos(x: float, k: int, step) -> float:
    # x >= 0; repeated multiplication, rounding each step with step
    r = x
    for _ in range(k - 1):
        r = step(r * x)
    return r


def _ref_power(lo: float, hi: float, k: int):
    if k == 1:
        return lo, hi
    if lo >= 0.0:
        return _ref_pow_pos(lo, k, _down), _ref_pow_pos(hi, k, _up)
    if hi <= 0.0:
        if k % 2 == 0:
            return _ref_pow_pos(-hi, k, _down), _ref_pow_pos(-lo, k, _up)
        return -_ref_pow_pos(-lo, k, _up), -_ref_pow_pos(-hi, k, _down)
    if k % 2 == 0:
        return 0.0, _ref_pow_pos(max(-lo, hi), k, _up)
    return -_ref_pow_pos(-lo, k, _up), _ref_pow_pos(hi, k, _up)


def _scalar_enclosure(p: Poly, sides) -> tuple[float, float]:
    """Enclosure of p over a box given as float (lo, hi) sides."""
    lo = hi = 0.0
    for exps, coeff in p.sorted_terms():
        c = Interval.from_fraction(coeff)
        term = (c.lo, c.hi)
        for (s_lo, s_hi), e in zip(sides, exps):
            if e:
                term = _ref_mul(term, _ref_power(s_lo, s_hi, e))
        lo, hi = _down(lo + term[0]), _up(hi + term[1])
    # an overflow-induced NaN means nothing is known: widen fully
    return (-math.inf if lo != lo else lo), (math.inf if hi != hi else hi)


def _contains(enc: Interval, x: float) -> bool:
    return enc.lo <= x <= enc.hi


def test_eval_interval_batch_sound_and_equal_to_scalar():
    # each row must enclose the exact values over its box and equal the
    # scalar reference enclosure of that box bit for bit, overflow included;
    # eval_interval is the one-row case
    rng = random.Random(271828)
    cases = [(parse_poly("x1^400*x2", 2), [[(0, 10), (0, 1)]])]
    for _ in range(300):
        nvars = rng.randint(1, 3)
        boxes = [[_random_side(rng) for _ in range(nvars)]
                 for _ in range(rng.randint(1, 4))]
        cases.append((_overflow_poly(rng, nvars), boxes))
    for p, boxes in cases:
        los = np.array([[float(lo) for lo, _ in b] for b in boxes])
        his = np.array([[float(hi) for _, hi in b] for b in boxes])
        b_lo, b_hi = p.eval_interval_batch(los, his)
        for k, sides in enumerate(boxes):
            float_sides = [(float(lo), float(hi)) for lo, hi in sides]
            s_lo, s_hi = _scalar_enclosure(p, float_sides)
            assert (_bits(b_lo[k]), _bits(b_hi[k])) == (
                _bits(s_lo), _bits(s_hi)), (p, sides, s_lo, s_hi, b_lo[k], b_hi[k])
            one = p.eval_interval(IntervalBox.from_bounds(float_sides))
            assert (_bits(one.lo), _bits(one.hi)) == (_bits(s_lo), _bits(s_hi))
            for _ in range(2):
                pt = [lo + Fraction(rng.randint(0, 8), 8) * (hi - lo) for lo, hi in sides]
                val = p.eval(pt)
                assert b_lo[k] == -math.inf or Fraction(b_lo[k]) <= val, (p, sides, pt)
                assert b_hi[k] == math.inf or val <= Fraction(b_hi[k]), (p, sides, pt)


def test_interval_mul_zero_times_inf_is_unbounded():
    # x1^400 overflows to [DBL_MAX, inf] on [8, 16]; times x2 on [0, 1]
    # that meets 0 * inf, and nothing is known
    p = parse_poly("x1^400*x2", 2)
    box = IntervalBox.from_bounds([(8.0, 16.0), (0.0, 1.0)])
    assert p.eval_interval(box) == Interval(-math.inf, math.inf)


def test_box_split_and_geometry():
    box = IntervalBox.from_bounds([(0.0, 4.0), (-1.0, 1.0)])
    assert box.dims == 2
    assert box.max_width() == 4.0
    kids_lo, kids_hi, inside = split_widest(
        np.array([[0.0, -1.0]]), np.array([[4.0, 1.0]]), 0.375)
    assert kids_lo.tolist() == [[0.0, -1.0], [1.5, -1.0]]
    assert kids_hi.tolist() == [[1.5, 1.0], [4.0, 1.0]]
    assert inside.tolist() == [True]
    assert box.contains_point([2.0, 0.0])
    assert not box.contains_point([5.0, 0.0])


def test_box_boundary_gap():
    outer = IntervalBox.cube(2, 4.0)
    inner = IntervalBox.from_bounds([(-1.0, 1.0), (-3.5, 2.0)])
    assert inner.boundary_gap(outer) == 0.5


def test_box_requires_finite_sides():
    bad = [((0.0,), (math.inf,)), ((-math.inf,), (0.0,)),
           ((math.nan,), (1.0,)), ((0.0, 0.0), (1.0, math.nan)),
           ((1.0,), (0.0,)),  # lo > hi
           ((0.0, 0.0), (1.0,)), ((0.0,), (1.0, 1.0)),  # mismatched lengths
           ((), ())]  # no dimensions
    for lo, hi in bad:
        with pytest.raises(ValueError):
            IntervalBox(lo, hi)
    box = IntervalBox((0.0, 2.0), (0.0, 3.0))  # a degenerate side is a box
    assert box.lo == (0.0, 2.0) and box.hi == (0.0, 3.0)
    assert box.midpoint() == (0.0, 2.5)
