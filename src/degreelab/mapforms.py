"""Square polynomial mappings and their structural analysis.

Covers Jacobian matrices and exact determinants, constant-Jacobian
classification, homogeneous decomposition, recognition of the
identity-plus-cubic and cube-of-linear-form shapes, the rational form of
the scaled-argument derivative identity for cubic maps, and the
translation of complex maps into real maps on twice the variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polycore import Poly, div_exact


class FormViolationError(ValueError):
    """An operation required a map shape the input does not have."""


class PolyMap:
    """A square polynomial mapping: n components, each in n variables.

    The Jacobian matrix and its determinant are computed once on demand and
    kept (write-once; recomputation would give the same values).
    """

    __slots__ = ("n", "components", "_jacobian", "_jac_det")

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        n = len(components)
        for i, p in enumerate(components):
            if not isinstance(p, Poly):
                raise TypeError(f"component {i} is not a Poly")
            if p.nvars != n:
                raise ValueError(
                    f"component {i} has {p.nvars} variables, expected {n}")
        self.n = n
        self.components = components
        self._jacobian = None
        self._jac_det = None

    @classmethod
    def identity(cls, n: int) -> PolyMap:
        return cls([Poly.var(n, i + 1) for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyMap) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        body = ", ".join(str(p) for p in self.components)
        return f"PolyMap({body})"

    def eval(self, point):
        """Evaluate all components at a point (exact or float per polycore)."""
        return tuple(p.eval(point) for p in self.components)


def jacobian_matrix(F: PolyMap) -> tuple[tuple[Poly, ...], ...]:
    """The n-by-n matrix of partial derivatives, entry (i,j) = dF_i/dx_j."""
    if F._jacobian is None:
        F._jacobian = tuple(
            tuple(p.diff(j + 1) for j in range(F.n)) for p in F.components)
    return F._jacobian


def _det_cofactor(rows: list[list[Poly]], nvars: int) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(nvars)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sub = _det_cofactor(minor, nvars)
        term = entry * sub
        total = total + term if j % 2 == 0 else total - term
    return total


def _det_bareiss(rows: list[list[Poly]], nvars: int) -> Poly:
    # Fraction-free elimination: every division is exact in the
    # polynomial ring, which keeps intermediate entries polynomial.
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = Poly.const(nvars, 1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot_row = next(
                (r for r in range(k + 1, n) if not m[r][k].is_zero), None)
            if pivot_row is None:
                return Poly.zero(nvars)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = div_exact(num, prev)
            m[i][k] = Poly.zero(nvars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def jacobian_det(F: PolyMap) -> Poly:
    """Exact Jacobian determinant polynomial.

    Cofactor expansion for n <= 4; fraction-free elimination above that,
    where cofactor expression swell becomes the bottleneck.
    """
    if F._jac_det is None:
        rows = [list(row) for row in jacobian_matrix(F)]
        if F.n <= 4:
            F._jac_det = _det_cofactor(rows, F.n)
        else:
            F._jac_det = _det_bareiss(rows, F.n)
    return F._jac_det


@dataclass(frozen=True)
class KellerStatus:
    kind: str
    constant_value: Fraction | None = None

    @property
    def is_keller(self) -> bool:
        return self.kind == "nonzero_constant"


def keller_check(F: PolyMap) -> KellerStatus:
    """Classify the Jacobian determinant: nonzero constant, zero, or varying.

    The determinant of the zero polynomial is reported as zero_constant
    with value 0.
    """
    det = jacobian_det(F)
    if det.is_constant():
        value = det.constant_value()
        if value == 0:
            return KellerStatus("zero_constant", Fraction(0))
        return KellerStatus("nonzero_constant", value)
    return KellerStatus("nonconstant", None)


def decompose_homogeneous(F: PolyMap) -> dict[int, PolyMap]:
    """Split F into maps of pure total degree; only present degrees appear."""
    degrees = sorted({d for p in F.components for d in p.homogeneous_degrees()})
    out = {}
    for d in degrees:
        out[d] = PolyMap([p.homogeneous_component(d) for p in F.components])
    return out


def _integer_cbrt(m: int) -> int | None:
    """Exact cube root of a non-negative integer, or None."""
    if m == 0:
        return 0
    r = 1 << ((m.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + m // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    return r if r ** 3 == m else None


def _rational_cbrt(q: Fraction) -> Fraction | None:
    num = _integer_cbrt(abs(q.numerator))
    den = _integer_cbrt(q.denominator)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return root if q >= 0 else -root


@dataclass(frozen=True)
class FormWitness:
    form: str
    linear_part_identity: bool
    druzkowski_matrix: tuple[tuple[Fraction, ...], ...] | None = None


def _linear_form(n: int, row: Sequence[Fraction]) -> Poly:
    terms = {}
    for j, a in enumerate(row):
        if a != 0:
            exps = [0] * n
            exps[j] = 1
            terms[tuple(exps)] = a
    return Poly(n, terms)


def recognize_form(F: PolyMap) -> FormWitness:
    """Detect the identity-plus-cubic shape and its cube-of-linear refinement.

    A map qualifies as cubic_homogeneous when subtracting x_i from the
    i-th component leaves either zero or a polynomial whose terms all
    have total degree 3.  It is additionally druzkowski when each such
    leftover is the exact cube of a linear form; the coefficient row is
    read off the pure-cube coefficients (the coefficient of x_j^3 is the
    cube of entry j, which also pins every zero entry) and then checked
    by expanding the cube, so mixed terms never need a separate recovery
    step.
    """
    n = F.n
    higher: list[Poly] = []
    for i, p in enumerate(F.components):
        h = p - Poly.var(n, i + 1)
        higher.append(h)
    linear_ok = all(
        h.homogeneous_component(0).is_zero and h.homogeneous_component(1).is_zero
        for h in higher)
    cubic_ok = linear_ok and all(
        h.is_zero or h.homogeneous_degrees() == [3] for h in higher)
    if not cubic_ok:
        return FormWitness("neither", linear_ok, None)
    matrix: list[tuple[Fraction, ...]] = []
    for h in higher:
        row = []
        for j in range(n):
            exps = [0] * n
            exps[j] = 3
            coeff = h.terms.get(tuple(exps), Fraction(0))
            root = _rational_cbrt(coeff)
            if root is None:
                return FormWitness("cubic_homogeneous", True, None)
            row.append(root)
        candidate = _linear_form(n, row)
        if candidate ** 3 != h:
            return FormWitness("cubic_homogeneous", True, None)
        matrix.append(tuple(row))
    return FormWitness("druzkowski", True, tuple(matrix))


def euler_cubic_identity_check(F: PolyMap, a: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Residual of F(a) minus the Jacobian at the 1/sqrt(3)-scaled point times a.

    For maps of the identity-plus-cubic shape the Jacobian entries have
    only even homogeneous degrees (0 and 2), so scaling the argument by
    t with t^2 = 1/3 is a purely rational operation: a degree-d entry
    picks up a factor (1/3)^(d/2).  The residual is exactly zero for
    every such map.
    """
    witness = recognize_form(F)
    if witness.form == "neither":
        raise FormViolationError(
            "scaled-derivative identity needs the identity-plus-cubic shape")
    point = tuple(Fraction(x) for x in a)
    if len(point) != F.n:
        raise ValueError(f"point has length {len(point)}, expected {F.n}")
    jac = jacobian_matrix(F)
    third = Fraction(1, 3)
    residuals = []
    for i in range(F.n):
        acc = Fraction(0)
        for j in range(F.n):
            entry = jac[i][j]
            val = Fraction(0)
            for d in entry.homogeneous_degrees():
                if d % 2:
                    raise FormViolationError(
                        "Jacobian entry has an odd-degree part; the scaled "
                        "evaluation would be irrational")
                val += third ** (d // 2) * entry.homogeneous_component(d).eval(point)
            acc += val * point[j]
        residuals.append(F.components[i].eval(point) - acc)
    return tuple(residuals)


# ---------------------------------------------------------------------
# Complex maps as pairs of real polynomials
#
# A complex polynomial component is a pair (re, im) of Polys in the
# complex variables z1..zn; the coefficient of a monomial is the
# Gaussian rational re + i*im.  No complex scalar type exists.
# ---------------------------------------------------------------------

PolyPair = tuple[Poly, Poly]


def _pair_add(a: PolyPair, b: PolyPair) -> PolyPair:
    return (a[0] + b[0], a[1] + b[1])


def _pair_sub(a: PolyPair, b: PolyPair) -> PolyPair:
    return (a[0] - b[0], a[1] - b[1])


def _pair_mul(a: PolyPair, b: PolyPair) -> PolyPair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pair_zero(nvars: int) -> PolyPair:
    return (Poly.zero(nvars), Poly.zero(nvars))


def _check_complex_map(Fc: Sequence[PolyPair]) -> int:
    n = len(Fc)
    if n == 0:
        raise ValueError("empty complex map")
    for i, (re, im) in enumerate(Fc):
        if re.nvars != n or im.nvars != n:
            raise ValueError(
                f"component {i} must live in {n} complex variables")
    return n


def _substitute_real_imag(re: Poly, im: Poly) -> PolyPair:
    """Expand a complex component at z_k = x_k + i*y_k into 2n real vars.

    Real variable convention: x_k sits at index 2k-1, y_k at 2k
    (1-based), i.e. variables interleave as (x1, y1, ..., xn, yn).
    """
    n = re.nvars
    m = 2 * n
    coeffs: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    for exps, c in re.terms.items():
        prev = coeffs.get(exps, (Fraction(0), Fraction(0)))
        coeffs[exps] = (prev[0] + c, prev[1])
    for exps, c in im.terms.items():
        prev = coeffs.get(exps, (Fraction(0), Fraction(0)))
        coeffs[exps] = (prev[0], prev[1] + c)

    base: list[PolyPair] = [
        (Poly.var(m, 2 * k + 1), Poly.var(m, 2 * k + 2)) for k in range(n)]
    pow_cache: dict[tuple[int, int], PolyPair] = {}

    def z_power(k: int, e: int) -> PolyPair:
        key = (k, e)
        got = pow_cache.get(key)
        if got is None:
            if e == 1:
                got = base[k]
            else:
                got = _pair_mul(z_power(k, e - 1), base[k])
            pow_cache[key] = got
        return got

    acc = _pair_zero(m)
    for exps, (cr, ci) in sorted(coeffs.items()):
        term: PolyPair = (Poly.const(m, cr), Poly.const(m, ci))
        for k, e in enumerate(exps):
            if e:
                term = _pair_mul(term, z_power(k, e))
        acc = _pair_add(acc, term)
    return acc


def realify(Fc: Sequence[PolyPair]) -> PolyMap:
    """Real form of a complex map: components (Re F1, Im F1, ..., Re Fn, Im Fn)."""
    _check_complex_map(Fc)
    out: list[Poly] = []
    for re, im in Fc:
        real_part, imag_part = _substitute_real_imag(re, im)
        out.append(real_part)
        out.append(imag_part)
    return PolyMap(out)


def _pair_det(rows: list[list[PolyPair]], nvars: int) -> PolyPair:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = _pair_zero(nvars)
    for j in range(n):
        entry = rows[0][j]
        if entry[0].is_zero and entry[1].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = _pair_mul(entry, _pair_det(minor, nvars))
        acc = _pair_add(acc, term) if j % 2 == 0 else _pair_sub(acc, term)
    return acc


def complex_jacobian_det(Fc: Sequence[PolyPair]) -> PolyPair:
    """Determinant of the complex Jacobian, as a (re, im) pair in z-variables."""
    n = _check_complex_map(Fc)
    rows = [[(re.diff(j + 1), im.diff(j + 1)) for j in range(n)]
            for re, im in Fc]
    return _pair_det(rows, n)


def realify_det_identity_residual(Fc: Sequence[PolyPair]) -> Poly:
    """det J(realify(Fc)) minus the squared modulus of det JFc, exactly.

    Zero for every complex map; kept as an explicit residual so tests
    assert the polynomial identity rather than spot values.
    """
    F_real = realify(Fc)
    det_real = jacobian_det(F_real)
    dr, di = complex_jacobian_det(Fc)
    a, b = _substitute_real_imag(dr, di)
    return det_real - (a * a + b * b)


def map_compose(F: PolyMap, G: PolyMap) -> PolyMap:
    """The composition F after G, expanded exactly."""
    if F.n != G.n:
        raise ValueError(f"mismatched dimensions: {F.n} vs {G.n}")
    gs = list(G.components)
    return PolyMap([p.compose(gs) for p in F.components])
