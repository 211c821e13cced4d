"""Tests for the exact polynomial core and interval arithmetic."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from degreelab import polycore
from degreelab.polycore import (
    Interval,
    IntervalBox,
    IntervalStack,
    Poly,
    PolyParseError,
    _pow_arrays,
    div_exact,
    parse_poly,
    poly_to_string,
)
from degreelab.fibersolve import split_widest
from degreelab.mapforms import PolyMap, jacobian_det


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


# Reference ring arithmetic: the Fraction-dict loops that Poly's integer
# numerator arithmetic replaced, on terms dicts.  Poly's results must equal
# them term for term, with no zero coefficient kept.

def _ref_poly_add(a, b, sign=1):
    out = dict(a)
    for exps, coeff in b.items():
        out[exps] = out.get(exps, Fraction(0)) + sign * coeff
    return {e: c for e, c in out.items() if c != 0}


def _ref_poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _ref_poly_pow(n, a, k):
    result, base = {(0,) * n: Fraction(1)}, a
    while k:
        if k & 1:
            result = _ref_poly_mul(result, base)
        k >>= 1
        if k:
            base = _ref_poly_mul(base, base)
    return result


def _ref_poly_diff(a, var):
    out = {}
    for exps, coeff in a.items():
        if exps[var - 1]:
            new = tuple(e - (i == var - 1) for i, e in enumerate(exps))
            out[new] = out.get(new, Fraction(0)) + coeff * exps[var - 1]
    return out


def _assert_terms(p: Poly, ref: dict):
    assert p.terms == ref
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(e) is int for exps in p.terms for e in exps)


def _mixed_poly(rng, nvars, max_terms):
    # coefficients over several unrelated denominators, some of them large
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 5) for _ in range(nvars))
        den = rng.choice([1, 2, 3, 7, 12, 35, 2 ** 40, 10 ** 15 + 37])
        terms[exps] = Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, den)
    return Poly(nvars, terms)


def test_ring_arithmetic_equals_fraction_reference():
    rng = random.Random(8080)
    for _ in range(80):
        n = rng.randint(1, 3)
        a = _mixed_poly(rng, n, rng.choice([1, 2, 8, 30]))
        b = _mixed_poly(rng, n, rng.choice([1, 2, 8, 30]))
        zero, one = Poly.zero(n), Poly.const(n, 1)
        # a - a and a + (-a) cancel to zero; b + a - b cancels b's terms
        operands = [(a, b), (a, -a), (a, zero), (zero, b), (one, a), (a, a)]
        for x, y in operands:
            _assert_terms(x + y, _ref_poly_add(x.terms, y.terms))
            _assert_terms(x - y, _ref_poly_add(x.terms, y.terms, -1))
            _assert_terms(x * y, _ref_poly_mul(x.terms, y.terms))
            _assert_terms(y * x, _ref_poly_mul(y.terms, x.terms))
        _assert_terms(a - a, {})
        _assert_terms(b + a - b, a.terms)
        # products whose terms cancel: (a + b)(a - b) = a^2 - b^2
        _assert_terms((a + b) * (a - b), _ref_poly_add(_ref_poly_mul(a.terms, a.terms),
                                                       _ref_poly_mul(b.terms, b.terms), -1))
        # one term (the direct path), a few terms, and many terms
        mono = Poly(n, dict([next(iter(a.terms.items()))]))
        for p, ks in ((mono, (0, 1, 2, 7)), (_mixed_poly(rng, n, 3), (0, 1, 2, 5)),
                      (a, (0, 1, 2))):
            for k in ks:
                _assert_terms(p ** k, _ref_poly_pow(n, p.terms, k))
        _assert_terms(zero ** 0, {(0,) * n: Fraction(1)})
        _assert_terms(zero ** 3, {})
        var = rng.randint(1, n)
        _assert_terms(a.diff(var), _ref_poly_diff(a.terms, var))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        _assert_terms(a.scale(c), {e: c * v for e, v in a.terms.items() if c * v})


def _random_expression(rng, n, depth=0):
    # text and reference terms of a sum of signed products, with (...)^k
    # groups, repeated monomials and terms that cancel
    pieces, total = [], {}
    for _ in range(rng.randint(1, 5)):
        factors, value = [], {(0,) * n: Fraction(1)}
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.3 and depth < 2:
                inner_text, inner = _random_expression(rng, n, depth + 1)
                k = rng.randint(0, 3)
                factors.append(f"({inner_text})^{k}")
                value = _ref_poly_mul(value, _ref_poly_pow(n, inner, k))
            elif roll < 0.6:
                num, den = rng.randint(0, 30), rng.choice([1, 2, 3, 4, 7])
                factors.append(f"{num}/{den}")
                value = _ref_poly_mul(value, {(0,) * n: Fraction(num, den)})
            else:
                i, e = rng.randint(1, n), rng.randint(1, 4)
                factors.append(f"x{i}^{e}")
                exps = tuple(e if j == i else 0 for j in range(1, n + 1))
                value = _ref_poly_mul(value, {exps: Fraction(1)})
        text = "*".join(factors)
        copies = [(rng.choice("+-"), text)]
        if rng.random() < 0.3:
            copies.append(("-" if copies[0][0] == "+" else "+", text))  # cancels
        elif rng.random() < 0.3:
            copies.append((copies[0][0], text))  # repeats
        for sign, t in copies:
            pieces.append(f"{sign} {t}")
            total = _ref_poly_add(total, value, 1 if sign == "+" else -1)
    return " ".join(pieces), total


def test_parse_poly_equals_fraction_reference():
    rng = random.Random(8081)
    for _ in range(100):
        n = rng.randint(1, 3)
        text, ref = _random_expression(rng, n)
        _assert_terms(parse_poly(text, n), ref)
    _assert_terms(parse_poly("x1*x2 - 2*x2*x1 + x1*x2", 2), {})
    _assert_terms(parse_poly("(x1 - x1)^0 + (x1 - 1)^0", 1), {(0,): Fraction(2)})


def test_jacobian_det_of_pinchuk_equals_cofactor_reference(fixtures_dir):
    doc = json.loads((fixtures_dir / "pinchuk.map").read_text())
    f, g = (parse_poly(c, 2) for c in doc["components"])
    det = jacobian_det(PolyMap([f, g]))
    ref = _ref_poly_add(_ref_poly_mul(_ref_poly_diff(f.terms, 1), _ref_poly_diff(g.terms, 2)),
                        _ref_poly_mul(_ref_poly_diff(f.terms, 2), _ref_poly_diff(g.terms, 1)),
                        -1)
    _assert_terms(det, ref)
    assert len(det.terms) == 78 and det.total_degree() == 30


# ------------------------------------------------------------ evaluation

def test_eval_exact():
    p = parse_poly("x1^2 + x2", 2)
    assert p.eval([Fraction(1, 2), Fraction(3)]) == Fraction(13, 4)
    assert isinstance(p.eval([1, 2]), Fraction)


def _eval_term_by_term(p: Poly, point) -> Fraction:
    # reference: the exact evaluation as a Fraction sum, one term at a time
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def test_eval_exact_equals_term_by_term():
    rng = random.Random(505)
    # exact values: a tiny power of ten, negative integers, 0, and dyadic
    # fractions taken from floats
    pool = [Fraction(1, 10 ** 300), -3, -1, 0, 2, Fraction(7, 3), Fraction(-22, 9),
            Fraction(0.1), Fraction(-2.75), Fraction(1e-300), Fraction(1e300)]
    cases = []
    for _ in range(60):
        nvars = rng.randint(1, 3)
        cases.append((random_poly(rng, nvars, max_deg=6, max_terms=10), pool))
    cases += [
        (Poly.zero(2), pool),
        (Poly.const(3, Fraction(-7, 3)), pool),
        # x1 and x3 never occur
        (parse_poly("x2^3 - 1/5*x2 + 4/7", 3), pool),
        (parse_poly("x1^401", 1), pool),
        # sparse: only the powers 1 and 20000 are formed
        (parse_poly("x1^20000 + x1", 1), [-3, 0, 1, Fraction(3, 2), Fraction(0.1)]),
        # cancellation: the lifted sum shares large powers of 2 and 3 with
        # its denominator
        (parse_poly("x1^40*x2 - x1^40 + 1/3*x1^7", 2), pool),
    ]
    for p, values in cases:
        for _ in range(8):
            point = [rng.choice(values) for _ in range(p.nvars)]
            got = p.eval(point)
            assert type(got) is Fraction
            assert got == _eval_term_by_term(p, point)
    p = parse_poly("x1^40*x2 - x1^40 + 1/3*x1^7", 2)
    assert p.eval([Fraction(1, 6), 1]) == Fraction(1, 3 * 6 ** 7)


def test_eval_exact_with_public_fraction_constructor(monkeypatch):
    # the fallback for a Python without Fraction's private coprime constructor
    monkeypatch.setattr(polycore, "_coprime_fraction", Fraction)
    rng = random.Random(506)
    pool = [-3, 0, 2, Fraction(7, 3), Fraction(0.1), Fraction(-2.75)]
    for _ in range(20):
        p = random_poly(rng, rng.randint(1, 3), max_deg=6, max_terms=10)
        point = [rng.choice(pool) for _ in range(p.nvars)]
        got = p.eval(point)
        assert type(got) is Fraction
        assert got == _eval_term_by_term(p, point)
    p = parse_poly("x1^40*x2 - x1^40 + 1/3*x1^7", 2)
    assert p.eval([Fraction(1, 6), 1]) == Fraction(1, 3 * 6 ** 7)


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


def test_shift_adds_leading_variables():
    p = parse_poly("x1^2*x2 - 3*x2 + 1", 2)
    q = p.shift(2)
    assert q.nvars == 4
    assert q == parse_poly("x3^2*x4 - 3*x4 + 1", 4)
    assert p.shift(0) is p
    with pytest.raises(ValueError):
        p.shift(-1)


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
    if any(p != p for p in ps):
        # a 0 * inf corner (after overflow) means nothing is known
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


def _high_poly(rng, nvars, top):
    """Random polynomial using many exponents of x1 up to top, some shared
    with other polynomials and some not, and low powers of the others."""
    terms = {}
    for e in sorted(rng.sample(range(1, top + 1), 8)) + [top]:
        exps = [e] + [rng.randint(0, 3) for _ in range(nvars - 1)]
        terms[tuple(exps)] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3, 7]))
    return Poly(nvars, terms)


def _bound_arrays(boxes, nvars):
    """(N, nvars) float lower and upper bound arrays of boxes given as sides."""
    los = np.array([[float(lo) for lo, _ in b] for b in boxes]).reshape(len(boxes), nvars)
    his = np.array([[float(hi) for _, hi in b] for b in boxes]).reshape(len(boxes), nvars)
    return los, his


def _assert_rows_equal_scalar(polys, boxes, lo, hi):
    # row p of (lo, hi) equals the scalar reference of polys[p] on every box
    assert lo.shape == hi.shape == (len(polys), len(boxes))
    for p, row_lo, row_hi in zip(polys, lo, hi):
        for k, sides in enumerate(boxes):
            s_lo, s_hi = _scalar_enclosure(p, [(float(a), float(b)) for a, b in sides])
            assert (_bits(row_lo[k]), _bits(row_hi[k])) == (_bits(s_lo), _bits(s_hi)), (
                p, sides, s_lo, s_hi, row_lo[k], row_hi[k])


def test_interval_stack_of_several_polynomials_equals_scalar():
    # polynomials with many shared and unshared powers over one stack of
    # boxes: every row of every polynomial equals the scalar reference bit
    # for bit, in either order of the polynomials
    rng = random.Random(314159)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        boxes = [[_random_side(rng) for _ in range(nvars)] for _ in range(rng.randint(1, 5))]
        # sides near 1 keep high powers finite; others overflow, as they may
        for b in boxes[:2]:
            lo = Fraction(rng.randint(-8, 8), 8)
            b[0] = (lo, lo + Fraction(rng.randint(0, 4), 8))
        los, his = _bound_arrays(boxes, nvars)
        polys = [random_poly(rng, nvars, max_deg=3), _high_poly(rng, nvars, 12),
                 _high_poly(rng, nvars, 41), _high_poly(rng, nvars, rng.randint(42, 60)),
                 random_poly(rng, nvars, max_deg=5)]
        for order in (polys, polys[::-1]):
            _assert_rows_equal_scalar(order, boxes, *IntervalStack(order).enclose(los, his))


def _stack_polys(rng, nvars):
    """Polynomials of mixed term counts for one stack: zero and constant
    ones at times, and at times coefficients near the float maximum, whose
    products and sums overflow to NaN bounds that widen to -inf and inf."""
    polys = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.15:
            polys.append(Poly.zero(nvars))
        elif kind < 0.3:
            polys.append(Poly.const(nvars, Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        else:
            p = random_poly(rng, nvars, max_deg=3, max_terms=rng.choice([2, 6, 14]))
            if rng.random() < 0.3:
                p = p * (Fraction(sys.float_info.max) / rng.choice([1, 4, 16]))
            polys.append(p)
    return polys


def test_interval_stack_property():
    # enclosures of a stack equal the scalar reference, one polynomial at a
    # time, bit for bit; they do not depend on the other rows or on the
    # order of the polynomials; and they hold the exact values at the
    # corners and at rational points of each box.  4,097 rows put a term
    # block boundary inside the polynomials of more than 7 terms.
    rng = random.Random(20261019)
    big = polycore._TERM_BLOCK // 8 + 1
    cases = [(rows, 40) for rows in (0, 1, 3, 17)] + [(big, 2)]
    for rows, count in cases:
        for _ in range(count):
            nvars = rng.randint(2 if rows == big else 1, 3)
            polys = _stack_polys(rng, nvars)
            if rows == big:
                # every monomial of degree 3 at most: 10 or 20 terms
                polys.append(Poly(nvars, {e: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                                          for e in itertools.product(range(4), repeat=nvars)
                                          if sum(e) <= 3}))
                assert polycore._TERM_BLOCK // rows < len(polys[-1].terms)
            boxes = [[_random_side(rng) for _ in range(nvars)] for _ in range(rows)]
            los, his = _bound_arrays(boxes, nvars)
            stack = IntervalStack(polys)
            lo, hi = stack.enclose(los, his)
            _assert_rows_equal_scalar(polys, boxes, lo, hi)
            # other rows and another order of the polynomials change nothing
            perm = np.array(rng.sample(range(rows), rows), dtype=np.intp)
            p_lo, p_hi = stack.enclose(los[perm], his[perm])
            assert p_lo.tobytes() == lo[:, perm].tobytes()
            assert p_hi.tobytes() == hi[:, perm].tobytes()
            order = rng.sample(range(len(polys)), len(polys))
            o_lo, o_hi = IntervalStack([polys[k] for k in order]).enclose(los, his)
            assert o_lo.tobytes() == lo[order].tobytes()
            assert o_hi.tobytes() == hi[order].tobytes()
            for k in rng.sample(range(rows), min(rows, 6)):
                one_lo, one_hi = stack.enclose(los[k:k + 1], his[k:k + 1])
                assert one_lo[:, 0].tobytes() == lo[:, k].tobytes()
                assert one_hi[:, 0].tobytes() == hi[:, k].tobytes()
                sides = boxes[k]
                points = [list(c) for c in itertools.product(*sides)]
                points += [[a + Fraction(rng.randint(0, 8), 8) * (b - a) for a, b in sides]
                           for _ in range(2)]
                for p, p_lo, p_hi in zip(polys, lo[:, k], hi[:, k]):
                    for pt in points:
                        val = p.eval(pt)
                        assert p_lo == -math.inf or Fraction(p_lo) <= val, (p, sides, pt)
                        assert p_hi == math.inf or val <= Fraction(p_hi), (p, sides, pt)


def test_interval_stack_checks_its_input():
    with pytest.raises(ValueError):
        IntervalStack([])
    with pytest.raises(ValueError):
        IntervalStack([parse_poly("x1", 1), parse_poly("x1*x2", 2)])
    stack = IntervalStack([parse_poly("x1*x2", 2)])
    with pytest.raises(ValueError):
        stack.enclose(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        stack.enclose(np.zeros((3, 2)), np.zeros((2, 2)))


def _scalar_value(p: Poly, point) -> float:
    """eval_array's per-term loop over plain floats: x_i^e by the chain
    1.0 * x_i * ... * x_i, terms in the canonical order, summed left to right."""
    acc = 0.0
    for exps, coeff in p.sorted_terms():
        t = polycore._float_or_inf(coeff)
        for x, e in zip(point, exps):
            if e:
                power = 1.0
                for _ in range(e):
                    power = power * x
                t = t * power
        acc = acc + t
    return acc


def test_eval_array_shared_pow_cache_equals_scalar():
    # polynomials over the same points sharing one pow_cache, as the degree
    # integral, the Krawczyk midpoints and the Newton stacks do: whichever
    # polynomial forms a power first, every row equals the scalar loop bit
    # for bit
    rng = random.Random(271828)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows = [[rng.uniform(-1.2, 1.2) for _ in range(nvars)] for _ in range(4)]
        # large coordinates overflow high powers, as they may
        rows += [[rng.choice([-1, 1]) * rng.uniform(2, 1e3) for _ in range(nvars)]
                 for _ in range(2)]
        pts = np.array(rows)
        polys = [random_poly(rng, nvars, max_deg=3), _high_poly(rng, nvars, 12),
                 _high_poly(rng, nvars, 41), _high_poly(rng, nvars, rng.randint(42, 60)),
                 random_poly(rng, nvars, max_deg=5)]
        for order in (polys, polys[::-1]):
            cache: dict = {}
            for p in order:
                vals = p.eval_array(pts, cache)
                for k, point in enumerate(rows):
                    assert _bits(vals[k]) == _bits(_scalar_value(p, point)), (p, point)
            assert max(e for _, e in cache) >= 41


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
