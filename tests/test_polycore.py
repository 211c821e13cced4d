"""Tests for the exact polynomial core and interval arithmetic."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from degreelab.polycore import (
    Interval,
    IntervalBox,
    Poly,
    PolyParseError,
    div_exact,
    parse_poly,
    poly_to_string,
)


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
    a = Interval(1.0, 2.0)
    b = Interval(-1.0, 0.5)
    assert (a + b).contains(1.0 + (-1.0))
    assert (a * b).contains(2.0 * (-1.0))
    assert (a * b).contains(2.0 * 0.5)


def test_interval_power_even_floors_at_zero():
    s = Interval(-2.0, 3.0)
    sq = s.power(2)
    assert sq.lo == 0.0
    assert sq.hi >= 9.0


def test_interval_power_odd_preserves_sign_span():
    s = Interval(-2.0, 3.0)
    cu = s.power(3)
    assert cu.lo <= -8.0
    assert cu.hi >= 27.0


def test_interval_from_fraction_outward():
    q = Fraction(1, 3)
    iv = Interval.from_fraction(q)
    assert iv.lo < q < iv.hi
    exact = Interval.from_fraction(Fraction(3, 4))
    assert exact.lo == exact.hi == 0.75


def test_interval_invalid():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


def test_interval_set_ops():
    a = Interval(0.0, 2.0)
    b = Interval(1.0, 3.0)
    assert a.intersect(b) == Interval(1.0, 2.0)
    assert a.intersect(Interval(5.0, 6.0)) is None


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


def test_eval_interval_batch_sound_and_equal_to_scalar():
    # each row must enclose the exact values over its box and equal the
    # scalar enclosure of that box bit for bit, overflow included
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
            scalar = p.eval_interval(IntervalBox.from_bounds(
                [(float(lo), float(hi)) for lo, hi in sides]))
            assert (_bits(b_lo[k]), _bits(b_hi[k])) == (
                _bits(scalar.lo), _bits(scalar.hi)), (p, sides, scalar, b_lo[k], b_hi[k])
            for _ in range(2):
                pt = [lo + Fraction(rng.randint(0, 8), 8) * (hi - lo) for lo, hi in sides]
                val = p.eval(pt)
                assert b_lo[k] == -math.inf or Fraction(b_lo[k]) <= val, (p, sides, pt)
                assert b_hi[k] == math.inf or val <= Fraction(b_hi[k]), (p, sides, pt)


def test_interval_mul_zero_times_inf_is_unbounded():
    prod = Interval(0.0, 1.0) * Interval(1.0, math.inf)
    assert prod == Interval(-math.inf, math.inf)


def test_box_split_and_geometry():
    box = IntervalBox.from_bounds([(0.0, 4.0), (-1.0, 1.0)])
    assert box.dims == 2
    assert box.widest_axis() == 0
    assert box.max_width() == 4.0
    left, right = box.split(0, 1.5)
    assert left.sides[0] == Interval(0.0, 1.5)
    assert right.sides[0] == Interval(1.5, 4.0)
    assert left.sides[1] == box.sides[1]
    assert box.contains_point([2.0, 0.0])
    assert not box.contains_point([5.0, 0.0])


def test_box_boundary_gap():
    outer = IntervalBox.cube(2, 4.0)
    inner = IntervalBox.from_bounds([(-1.0, 1.0), (-3.5, 2.0)])
    assert inner.boundary_gap(outer) == 0.5


def test_box_requires_finite_sides():
    with pytest.raises(ValueError):
        IntervalBox([Interval(0.0, math.inf)])
