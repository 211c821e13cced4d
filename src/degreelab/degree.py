"""Topological degree of a polynomial map over a box, three ways.

The signed-count method enumerates the certified fiber and adds the
Jacobian signs; it is exact whenever the solver finishes.  The integral
method averages a compactly supported radial weight composed with the
map, times the Jacobian determinant, over a low-discrepancy point set;
it is a floating-point estimate that must land near an integer.  The two
share no machinery beyond the boundary-clearance certificate, which is
what makes their agreement a meaningful cross-check.  For plane maps the
winding method reads the degree off the box boundary alone, as the
winding number of F - z along it, summed from the Cauchy indices of the
four edge restrictions in exact integer arithmetic (Eisenbud and Levine,
Ann. Math. 106 (1977)); it needs no root to be simple or isolated, and
it gives None exactly when z lies on the image of the boundary or a box
side is degenerate.

Degree constancy along a path of targets rests on the segments between
them missing the image of the boundary, which segment_failure certifies.
For plane maps it is exact, in the same integer arithmetic on the same
edge restrictions (plane_segment_failure): on each edge it counts the
points mapped onto the segment by Tarski queries on the roots of the
cross product of F - a with b - a, with every polynomial reduced modulo
that cross product first (Basu, Pollack and Roy, Algorithms in Real
Algebraic Geometry, 2006, Thm. 2.58).  For other dimensions the
sum-of-squares path_segment_clearance certifies it.

Conventions the underlying theory does not fix — the weight profile and
the quadrature scheme — are recorded in each result's diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .polycore import IntervalBox, Poly, _float_or_inf
from .mapforms import PolyMap, jacobian_det
from .fibersolve import (
    ClearanceResult,
    FiberResult,
    SolverConfig,
    _residuals,
    _row_blocks,
    boundary_clearance,
    box_faces,
    certified_clearance,
    solve_fiber,
)

BUMP_PROFILE = "plateau of exp(-1/s) smoothsteps on [eps/8, 3*eps/4]"
QUADRATURE_SCHEME = "unscrambled Halton, sample count doubling"


class DegreeComputationError(Exception):
    """Base for everything the degree operations can refuse to answer."""


class PreconditionViolation(DegreeComputationError):
    """A hypothesis of the degree theory could not be certified."""

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


class IncompleteSolveError(DegreeComputationError):
    """The fiber enumeration gave up before covering the box."""


class RoundingAmbiguousError(DegreeComputationError):
    """The integral estimate is too far from every integer to trust."""

    def __init__(self, raw: float):
        super().__init__(f"estimate {raw} is not within tolerance of an integer")
        self.raw = raw


class BudgetExceededError(DegreeComputationError):
    """Sampling hit its cap before consecutive estimates agreed."""


@dataclass(frozen=True)
class DegreeResult:
    value: int
    raw: float | None
    method: str
    certified: bool
    diagnostics: dict


# ---------------------------------------------------------------------
# Signed count
# ---------------------------------------------------------------------

def signed_count_from_fiber(fiber: FiberResult, clearance: ClearanceResult) -> DegreeResult:
    """Assemble the signed-count degree from already-computed certificates.

    Raises the same taxonomy as degree_signed_count; exposed separately
    so multi-step analyses can reuse their fiber solves.
    """
    if not clearance.ok:
        raise PreconditionViolation(
            "boundary", f"no certified clearance ({clearance.failure})")
    if fiber.status == "boundary_contact":
        raise PreconditionViolation(
            "boundary", "a candidate root could not be separated from the box boundary")
    if fiber.status == "singular_suspect":
        raise PreconditionViolation(
            "singular", "a root region with vanishing Jacobian enclosure was found")
    if fiber.status != "complete":
        raise IncompleteSolveError(f"solver status {fiber.status}")
    return DegreeResult(
        value=fiber.signed_count,
        raw=None,
        method="signed_count",
        certified=True,
        diagnostics={
            "clearance": clearance.m,
            "roots": len(fiber.roots),
            "positive_roots": sum(1 for r in fiber.roots if r.jac_sign > 0),
            "negative_roots": sum(1 for r in fiber.roots if r.jac_sign < 0),
            "boxes_processed": fiber.stats.boxes_processed,
        },
    )


def degree_signed_count(F: PolyMap, box: IntervalBox, z: Sequence[Fraction | int],
                        cfg: SolverConfig | None = None,
                        clearance: ClearanceResult | None = None) -> DegreeResult:
    """Degree as the sum of Jacobian signs over the certified fiber.

    clearance is a certificate that z stays off the image of the box
    boundary, such as a family's clearance over (box boundary) x [0, 1];
    without one, boundary_clearance computes it, sharpened, since the
    result reports its m.
    """
    if clearance is None:
        clearance = boundary_clearance(F, z, box)
    if not clearance.ok:
        raise PreconditionViolation(
            "boundary", f"no certified clearance ({clearance.failure})")
    fiber = solve_fiber(F, z, box, cfg)
    return signed_count_from_fiber(fiber, clearance)


# ---------------------------------------------------------------------
# Winding number (n = 2)
# ---------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    """c without its zero leading coefficients: [] is the zero polynomial."""
    while c and not c[-1]:
        c.pop()
    return c


def _restriction(g: Poly, fixed: int, v: Fraction) -> tuple[list[int], int]:
    """g with x_(fixed + 1) = v, as (c, s): the integer coefficients c of
    s * g in the other variable, lowest power first, and the scale s > 0."""
    den, terms = g._int_terms()
    p, q = v.numerator, v.denominator
    m = max((e[fixed] for e, _ in terms), default=0)
    coeffs = [0] * (1 + max((e[1 - fixed] for e, _ in terms), default=-1))
    for e, c in terms:
        coeffs[e[1 - fixed]] += c * p ** e[fixed] * q ** (m - e[fixed])
    return _trim(coeffs), den * q ** m


def _edges(F: PolyMap, z: Sequence[Fraction], box: IntervalBox):
    """The restrictions of F - z to the four box edges, bottom, right, top
    and left, each walked in increasing coordinate, as (P, Q, S, fixed,
    v, lo, hi, sign): integer polynomials P and Q, padded with zeros to
    one length, that are S > 0 times the two components of F - z on the
    edge x_(fixed + 1) = v, the other coordinate running over [lo, hi],
    and the sign -1 of the top and left edges, walked against the
    counter-clockwise boundary."""
    gs = _residuals(F, z, box)
    (a1, a2), (b1, b2) = ((Fraction(x) for x in corner) for corner in (box.lo, box.hi))
    for fixed, v, lo, hi, sign in ((1, a2, a1, b1, 1), (0, b1, a2, b2, 1),
                                   (1, b2, a1, b1, -1), (0, a1, a2, b2, -1)):
        (P, sP), (Q, sQ) = (_restriction(g, fixed, v) for g in gs)
        size = max(len(P), len(Q))
        # both scaled by sP * sQ, and padded with zeros to one length
        P, Q = ([c * s for c in C] + [0] * (size - len(C)) for C, s in ((P, sQ), (Q, sP)))
        yield P, Q, sP * sQ, fixed, v, lo, hi, sign


def _values(seq: list[list[int]], x: Fraction) -> list[int]:
    """q^d c(p/q) for each polynomial c of seq at x = p/q, d the highest
    degree in seq, by a homogenised Horner sum: one positive multiple of
    each value."""
    p, q = x.numerator, x.denominator
    d = max(map(len, seq)) - 1
    out = []
    for c in seq:
        acc = 0
        for k in range(len(c) - 1, -1, -1):
            acc = acc * p + c[k] * q ** (d - k)
        out.append(acc)
    return out


def _variations(seq: list[list[int]], x: Fraction) -> int:
    """Sign changes along the values of seq at x, zeros skipped."""
    signs = [v > 0 for v in _values(seq, x) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _rem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by the nonzero b, as a positive multiple of the
    exact one with coprime coefficients: the pseudo-remainder scales the
    dividend by |lc(b)| at each step, and the result is divided by the
    gcd of its coefficients, so every sign stays the same."""
    lc = b[-1]
    scale, sign = abs(lc), (lc > 0) - (lc < 0)
    while len(a) >= len(b):
        c = a[-1] * sign
        shift = len(a) - len(b)
        a = _trim([x * scale for x in a[:shift]] + [
            x * scale - c * y for x, y in zip(a[shift:], b)])
    content = math.gcd(*a)
    return [x // content for x in a] if content > 1 else a


def _remainders(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed remainder sequence a, b, -rem(a, b), ..., to its last nonzero
    element, each a positive multiple of the exact one (_rem)."""
    seq = [a, b] if b else [a]
    while len(seq) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-x for x in r])
    return seq


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A constant multiple of gcd(a, b), for a or b nonzero: the last
    element of their signed remainder sequence, the longer first."""
    return _remainders(*sorted((a, b), key=len, reverse=True))[-1]


def _derivative(c: list[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


def _has_root(c: list[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether c, nonzero at lo and hi, has a root in (lo, hi), by
    Sturm's theorem on the sequence of c and its derivative."""
    sturm = _remainders(c, _derivative(c))
    return _variations(sturm, lo) != _variations(sturm, hi)


def _edge_index(R: list[int], S: list[int], lo: Fraction, hi: Fraction) -> int | None:
    """Cauchy index of S/R over (lo, hi), for R nonzero at lo and hi, or
    None when R and S share a root in (lo, hi).

    The index is V(lo) - V(hi) for the signed remainder sequence of (R, S)
    (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, 2006,
    Thm. 2.58).  Its last element is gcd(R, S).
    """
    seq = _remainders(R, S)
    if _has_root(seq[-1], lo, hi):
        return None
    return _variations(seq, lo) - _variations(seq, hi)


# pairwise non-parallel directions (alpha, beta): each nonzero corner value
# is orthogonal to at most one of them, so one misses all four corners
_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))


def winding_degree(F: PolyMap, z: Sequence[Fraction | int],
                   box: IntervalBox) -> int | None:
    """Degree of a plane map over the box as the winding number of F - z
    along the box boundary, or None when z lies on F(boundary) or a box
    side is degenerate.

    Exact, in integer arithmetic.  Each edge, with its fixed coordinate
    pinned exactly, restricts F - z to a pair (P, Q) of integer polynomials
    in the other coordinate, both scaled by one positive integer, which
    leaves the curve's turning unchanged.  All four edges are walked in
    increasing coordinate, and the top and left ones, walked against the
    counter-clockwise boundary, count negated.  The pair is turned to
    R = alpha P + beta Q, S = -beta P + alpha Q by the first direction of
    _DIRECTIONS along which R is nonzero at every edge end, which keeps
    the winding number; then it is -1/2 the sum of the Cauchy indices of
    S/R over the edges (Eisenbud and Levine, Ann. Math. 106 (1977)).  F - z
    vanishing at a corner, or gcd(R, S) at a point of an edge, gives None.
    An odd index sum raises RuntimeError.
    """
    if F.n != 2 or box.dims != 2 or len(z) != 2:
        raise ValueError("the winding degree needs a plane map, box and target")
    if any(lo == hi for lo, hi in zip(box.lo, box.hi)):
        return None
    edges = [(P, Q, lo, hi, sign) for P, Q, _, _, _, lo, hi, sign in _edges(F, z, box)]
    # (P, Q) at an end is a positive multiple of F - z at that corner
    ends = [_values([P, Q], x) for P, Q, lo, hi, _ in edges for x in (lo, hi)]
    if [0, 0] in ends:
        return None
    alpha, beta = next((al, be) for al, be in _DIRECTIONS
                       if all(al * u + be * w for u, w in ends))
    total = 0
    for P, Q, lo, hi, sign in edges:
        R = _trim([alpha * u + beta * w for u, w in zip(P, Q)])
        S = _trim([alpha * w - beta * u for u, w in zip(P, Q)])
        index = _edge_index(R, S, lo, hi)
        if index is None:
            return None
        total += sign * index
    if total % 2:
        raise RuntimeError(
            f"Cauchy indices sum to {total}, not an even number; this is a soundness bug")
    return -total // 2


# ---------------------------------------------------------------------
# Path segment against the boundary image (n = 2)
# ---------------------------------------------------------------------

def _deflate(c: list[int], x: Fraction) -> list[int]:
    """c / (q t - p) for a root x = p/q of c, by synthetic division from
    the top; the quotient has integer coefficients (Gauss's lemma)."""
    p, q = x.numerator, x.denominator
    out, carry = [], 0
    for k in range(len(c) - 1, 0, -1):
        carry = (c[k] + p * carry) // q
        out.append(carry)
    return out[::-1]


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _tarski(U: list[int], G: list[int], lo: Fraction, hi: Fraction) -> int:
    """Tarski query of G on the roots of U in (lo, hi), for U nonzero at
    lo and hi: the number of roots with G > 0 less the number with G < 0.
    It is the Cauchy index of U' G / U (Basu, Pollack and Roy, 2006,
    Thm. 2.58), read with U' G reduced modulo U, which leaves the index."""
    seq = _remainders(U, _rem(_mul(_derivative(U), G), U))
    return _variations(seq, lo) - _variations(seq, hi)


def _negative_on(c: list[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether c < 0 on the whole of [lo, hi]."""
    return max(_values([c], lo) + _values([c], hi)) < 0 and not _has_root(c, lo, hi)


def _edge_hit(P: list[int], Q: list[int], S: int, d1: int, d2: int, D: int,
              lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction] | None:
    """Where on the edge [lo, hi] S (F - a) = (P, Q) takes a value in
    S [0, 1] (b - a), with D (b - a) = (d1, d2) integers and D > 0:
    (x, x) for an end x that does, else (lo, hi) when a point of the edge
    does, else None.

    Where (d1, d2) = 0 the segment is the point a, met at the roots of
    gcd(P, Q).  Otherwise F - a lies on the segment's line at the roots of
    U = d2 P - d1 Q, and there F - a = s (b - a) with s >= 0 where
    V = d1 P + d2 Q >= 0 and s <= 1 where W = S |d|^2 - D V >= 0.  Where
    U = 0 on the whole edge s is continuous on it, so some s lies in
    [0, 1] unless s < 0 or s > 1 on the whole edge.  Otherwise the ends are
    checked exactly and divided out of U, and an edge on which U has no
    root is missed.  V and W are reduced modulo U, as is every product
    below, so that no polynomial in a remainder sequence has a degree
    above U's.  A root of U in (lo, hi) where V = 0 has F = a, and one
    where W = 0 has F = b: a root of gcd(U, V) or gcd(U, W).  With none,
    the roots of U with V > 0 and W > 0 number
    (TaQ(1) + TaQ(V) + TaQ(W) + TaQ(V W)) / 4, each Tarski query on the
    roots of U.  A sum that is not a multiple of 4 raises RuntimeError.
    """
    if not (d1 or d2):
        ends = [x for x in (lo, hi) if _values([P, Q], x) == [0, 0]]
        if ends:
            return ends[0], ends[0]
        inside = _has_root(_gcd(_trim(P[:]), _trim(Q[:])), lo, hi)
        return (lo, hi) if inside else None
    U = _trim([d2 * p - d1 * q for p, q in zip(P, Q)])
    V = _trim([d1 * p + d2 * q for p, q in zip(P, Q)])
    W = [-D * v for v in V] or [0]
    W[0] += S * (d1 * d1 + d2 * d2)
    W = _trim(W)
    for x in (lo, hi):
        u, v, w = _values([U, V, W], x)
        if not u and v >= 0 and w >= 0:
            return x, x
    if not U:
        inside = not (_negative_on(V, lo, hi) or _negative_on(W, lo, hi))
        return (lo, hi) if inside else None
    for x in (lo, hi):
        while not _values([U], x)[0]:
            U = _deflate(U, x)
    roots = _tarski(U, [1], lo, hi)
    if not roots:
        return None
    V, W = _rem(V, U), _rem(W, U)
    if any(_has_root(_gcd(U, G), lo, hi) for G in (V, W)):
        return lo, hi
    count = roots + sum(_tarski(U, G, lo, hi) for G in (V, W, _rem(_mul(V, W), U)))
    if count % 4:
        raise RuntimeError(
            f"Tarski queries sum to {count}, not a multiple of 4; this is a soundness bug")
    return (lo, hi) if count else None


def plane_segment_failure(F: PolyMap, box: IntervalBox,
                          a: Sequence[Fraction | int],
                          b: Sequence[Fraction | int]) -> str | None:
    """Where the segment from a to b meets the image of the box boundary
    under a plane map, or None when it misses it.

    Exact, in integer arithmetic.  Each of the four edges restricts F - a
    as winding_degree does, to S (F - a) = (P, Q) with integer polynomials
    and S > 0, and _edge_hit decides it by the real roots of
    d2 P - d1 Q, for D (b - a) = (d1, d2), and the signs there.  A
    degenerate box is its own boundary: its edges cover it.
    """
    a, b = _segment_ends(F, box, a, b)
    if F.n != 2:
        raise ValueError("the plane segment test needs a plane map")
    D = math.lcm(*((y - x).denominator for x, y in zip(a, b)))
    d1, d2 = (int((y - x) * D) for x, y in zip(a, b))
    for P, Q, S, fixed, v, lo, hi, _ in _edges(F, a, box):
        hit = _edge_hit(P, Q, S, d1, d2, D, lo, hi)
        if hit is None:
            continue
        if hit[0] == hit[1]:
            point = (hit[0], v) if fixed else (v, hit[0])
            return f"F({', '.join(map(str, point))}) lies on the segment"
        return f"F maps a point of the edge x{fixed + 1} = {v} onto the segment"
    return None


# ---------------------------------------------------------------------
# Radial weight
# ---------------------------------------------------------------------

def _smoothstep(s: np.ndarray) -> np.ndarray:
    # 0 below s=0, 1 above s=1, smooth exp(-1/s) blend between
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    with np.errstate(divide="ignore", over="ignore"):
        low = s <= 0.0
        high = s >= 1.0
        mid = ~(low | high)
        out[low] = 0.0
        out[high] = 1.0
        sm = s[mid]
        a = np.exp(-1.0 / sm)
        b = np.exp(-1.0 / (1.0 - sm))
        out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class Bump:
    epsilon: float
    inner_radius: float
    outer_radius: float
    normalization_constant: float
    dims: int
    profile: str

    def raw_profile(self, r: np.ndarray) -> np.ndarray:
        """Unnormalized radial profile, supported on [eps/8, 3*eps/4]."""
        r = np.asarray(r, dtype=np.float64)
        r0 = self.inner_radius
        r1 = self.outer_radius
        start = 0.5 * r0
        plateau_end = 0.5 * (r0 + r1)
        rise = _smoothstep((r - start) / (r0 - start))
        fall = _smoothstep((r1 - r) / (r1 - plateau_end))
        return rise * fall

    def value_array(self, r: np.ndarray) -> np.ndarray:
        return self.normalization_constant * self.raw_profile(r)

    def value(self, r: float) -> float:
        return float(self.value_array(np.array([r]))[0])


def _gauss_panels(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Composite 16-point Gauss-Legendre with panel doubling to convergence."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    prev = None
    panels = 2
    while panels <= 4096:
        edges = np.linspace(a, b, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * (edges[1:] - edges[:-1])
        pts = mids[:, None] + halves[:, None] * nodes[None, :]
        vals = f(pts.ravel()).reshape(pts.shape)
        total = float(np.sum(halves[:, None] * weights[None, :] * vals))
        if prev is not None and abs(total - prev) <= 1e-10 * (1.0 + abs(total)):
            return total
        prev = total
        panels *= 2
    return prev


def _sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def bump_build(epsilon: float, n: int) -> Bump:
    """Normalized radial weight whose integral over all of n-space is 1."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if n < 1:
        raise ValueError("dimension must be positive")
    shape = Bump(
        epsilon=float(epsilon),
        inner_radius=epsilon / 4.0,
        outer_radius=3.0 * epsilon / 4.0,
        normalization_constant=1.0,
        dims=n,
        profile=BUMP_PROFILE,
    )
    knots = (0.5 * shape.inner_radius, shape.inner_radius,
             0.5 * (shape.inner_radius + shape.outer_radius), shape.outer_radius)
    radial = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        radial += _gauss_panels(
            lambda r: shape.raw_profile(r) * r ** (n - 1), lo, hi)
    constant = 1.0 / (_sphere_area(n) * radial)
    return Bump(
        epsilon=float(epsilon),
        inner_radius=shape.inner_radius,
        outer_radius=shape.outer_radius,
        normalization_constant=constant,
        dims=n,
        profile=BUMP_PROFILE,
    )


# ---------------------------------------------------------------------
# Integral method
# ---------------------------------------------------------------------

# Each Halton coordinate reads its low digits from a table of at most
# _HALTON_TABLE radical inverses.
_HALTON_TABLE = 4096


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


class _Halton:
    """Unscrambled Halton points in [0, 1)^d, index 0 first.

    Coordinate j of point k is the radical inverse of k in the j-th prime
    base p, summed the way scipy.stats.qmc.Halton(d, scramble=False)
    sums it, least significant digit first: seq += digit * b2r, then
    b2r /= p, from b2r = 1 / p.  So every point equals scipy's bit for bit.
    The partial sums over the m lowest digits (p^m <= _HALTON_TABLE) come
    from a table; the higher digits are constant along each aligned run of
    p^m indices, so they are added to a run as scalars.
    """

    def __init__(self, d: int):
        self.digits = []
        for p in _first_primes(d):
            size = p
            while size * p <= _HALTON_TABLE:
                size *= p
            q = np.arange(size)
            table = np.zeros(size)
            b2r = 1.0 / p
            while q.any():
                table += (q % p) * b2r
                b2r /= p
                q //= p
            # b2r is now the place value of the first digit above the table
            self.digits.append((p, size, table, b2r))

    def points(self, start: int, count: int) -> np.ndarray:
        """Points start .. start + count - 1 as a (count, d) array."""
        out = np.empty((count, len(self.digits)))
        for j, (p, size, table, b2r_high) in enumerate(self.digits):
            k = start
            while k < start + count:
                run, low = divmod(k, size)
                take = min(size - low, start + count - k)
                seg = out[k - start:k - start + take, j]
                seg[:] = table[low:low + take]
                b2r = b2r_high
                while run:
                    seg += (run % p) * b2r
                    b2r /= p
                    run //= p
                k += take
        return out


@dataclass(frozen=True)
class QuadratureConfig:
    start_samples: int = 4096
    max_samples: int = 1 << 21
    agreement: float = 0.05
    rounding_tol: float = 0.25


def degree_integral(F: PolyMap, box: IntervalBox, z: Sequence[Fraction | int],
                    quad: QuadratureConfig | None = None,
                    clearance: ClearanceResult | None = None) -> DegreeResult:
    """Degree as the box average of weight(|F - z|) times det JF.

    The weight's scale is set to half the certified boundary clearance,
    so its support cannot reach the image of the boundary.  clearance is
    that certificate when the caller already has it; its m sets the
    scale, so it should be boundary_clearance's sharpened one, which is
    computed here when none is given.  Each round draws as many Halton
    points as were drawn before (start_samples in the first) and
    evaluates them in blocks of _ROW_BLOCK rows, the n components sharing
    one power table per block.  The weight and det JF are evaluated only
    on the samples inside the weight's support, eps/8 < |F - z| < 3*eps/4,
    and every other product is 0, so a det JF that is not finite where the
    weight is 0 does not reach the estimate.  The round's per-point
    products are summed in one np.sum.
    """
    quad = quad or QuadratureConfig()
    n = F.n
    if box.dims != n:
        raise ValueError(f"box has {box.dims} dims, expected {n}")
    if clearance is None:
        clearance = boundary_clearance(F, z, box)
    if not clearance.ok:
        raise PreconditionViolation(
            "boundary", f"no certified clearance ({clearance.failure})")
    epsilon = clearance.m / 2.0
    bump = bump_build(epsilon, n)
    det = jacobian_det(F)
    # a target beyond the float range is an infinity: no sample weighs in
    z_float = np.array([_float_or_inf(Fraction(v)) for v in z])
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    volume = float(np.prod(span))

    halton = _Halton(n)
    total = 0.0
    drawn = 0
    estimates: list[float] = []
    batch = quad.start_samples
    while True:
        products = np.empty(batch)
        for rows in _row_blocks(batch):
            block = products[rows]
            unit = halton.points(drawn + rows.start, len(block))
            pts = lo[None, :] + unit * span[None, :]
            pows: dict = {}
            residual_sq = np.zeros(len(block))
            for i, comp in enumerate(F.components):
                diff = comp.eval_array(pts, pows) - z_float[i]
                residual_sq = residual_sq + diff * diff
            r = np.sqrt(residual_sq)
            # the weight and det JF only where the weight's support lies;
            # elsewhere the product is 0, whatever det JF is
            live = ~((r <= 0.5 * bump.inner_radius) | (r >= bump.outer_radius))
            block[:] = 0.0
            block[live] = bump.value_array(r[live]) * det.eval_array(pts[live])
        total += float(np.sum(products))
        drawn += batch
        estimates.append(volume * total / drawn)
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < quad.agreement:
            break
        if drawn >= quad.max_samples:
            tail = estimates[-2:] if len(estimates) >= 2 else estimates
            raise BudgetExceededError(
                f"no agreement after {drawn} samples; last estimates {tail}")
        batch = drawn  # double the total each round
    raw = estimates[-1]
    value = round(raw)
    if abs(raw - value) >= quad.rounding_tol:
        raise RoundingAmbiguousError(raw)
    return DegreeResult(
        value=int(value),
        raw=raw,
        method="integral",
        certified=False,
        diagnostics={
            "clearance": clearance.m,
            "epsilon": epsilon,
            "samples": drawn,
            "estimates": estimates[-2:],
            "bump_profile": bump.profile,
            "quadrature": QUADRATURE_SCHEME,
        },
    )


# ---------------------------------------------------------------------
# Constancy checks
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyReport:
    boundary_certified: bool
    degrees: tuple[int | None, ...]
    constant: bool
    t_grid: tuple[Fraction, ...]
    failures: tuple[str, ...]


def _faces_times_unit(box: IntervalBox) -> list[IntervalBox]:
    """The box faces, each with one more side [0, 1] for a parameter."""
    return [IntervalBox(face.lo + (0.0,), face.hi + (1.0,)) for face in box_faces(box)]


def _family_arity(family: Sequence[Poly], box: IntervalBox) -> int:
    n = box.dims
    if len(family) != n:
        raise ValueError(f"family has {len(family)} components, box has {n} dims")
    for p in family:
        if p.nvars != n + 1:
            raise ValueError(
                "family components must have one extra variable (the parameter)")
    return n


def homotopy_constancy_check(family: Sequence[Poly], box: IntervalBox,
                             z: Sequence[Fraction | int],
                             t_grid: Sequence[Fraction | float],
                             cfg: SolverConfig | None = None) -> HomotopyReport:
    """Degree constancy along a one-parameter family on parameter range [0,1].

    The family is given as n polynomials in n+1 variables, the last
    variable being the parameter.  First the target is certified to stay
    off the image of (box boundary) x [0,1]; if that fails the degrees
    are not computed.  Then the degree is found at each grid value: for
    n = 2 as winding_degree, which needs no fiber solve, and otherwise, or
    where the winding degree is None, as the signed count.  The
    family certificate serves as each grid instance's boundary certificate
    for the count, as it covers the boundary at every t in [0, 1]; only its
    ok and failure are read, so it is not sharpened.
    """
    n = _family_arity(family, box)
    ts = tuple(Fraction(t) for t in t_grid)
    if not ts:
        raise ValueError("parameter grid needs at least one value")
    if any(t < 0 or t > 1 for t in ts):
        raise ValueError("parameter grid must lie in [0, 1]")
    target = [Fraction(v) for v in z]
    shifted = [p - Poly.const(n + 1, zi) for p, zi in zip(family, target)]
    clearance = certified_clearance(shifted, _faces_times_unit(box), improve_splits=0)
    if not clearance.ok:
        return HomotopyReport(
            boundary_certified=False,
            degrees=(None,) * len(ts),
            constant=False,
            t_grid=ts,
            failures=(f"boundary certification failed: {clearance.failure}",),
        )
    degrees: list[int | None] = []
    failures: list[str] = []
    for t in ts:
        instance = PolyMap([p.substitute(n + 1, t) for p in family])
        wound = winding_degree(instance, target, box) if n == 2 else None
        if wound is not None:
            degrees.append(wound)
            continue
        try:
            degrees.append(
                degree_signed_count(instance, box, target, cfg, clearance).value)
        except DegreeComputationError as exc:
            degrees.append(None)
            failures.append(f"t={t}: {exc}")
    found = [d for d in degrees if d is not None]
    constant = (not failures) and len(set(found)) == 1
    return HomotopyReport(
        boundary_certified=True,
        degrees=tuple(degrees),
        constant=constant,
        t_grid=ts,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class ComponentPathReport:
    path_certified: bool
    degrees: tuple[int | None, ...]
    constant: bool
    failures: tuple[str, ...]


def _segment_ends(F: PolyMap, box: IntervalBox, a: Sequence[Fraction | int],
                  b: Sequence[Fraction | int]) -> tuple[list[Fraction], list[Fraction]]:
    """a and b as Fractions, once they and the box are checked to have
    F's dimension."""
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    for name, end in (("a", a), ("b", b)):
        if len(end) != F.n:
            raise ValueError(f"segment end {name} = {[str(x) for x in end]} has length "
                             f"{len(end)}, expected {F.n}")
    return [Fraction(x) for x in a], [Fraction(x) for x in b]


def path_segment_clearance(F: PolyMap, box: IntervalBox,
                           a: Sequence[Fraction], b: Sequence[Fraction]) -> ClearanceResult:
    """Certify that the segment from a to b misses the boundary image.

    Builds residuals F_i(x) - (a_i + s (b_i - a_i)) in one extra segment
    variable s and bounds their squared norm away from zero over
    (box faces) x [0,1] with the sum-of-squares heap.  Callers read only
    ok and failure, so m is not sharpened.  segment_failure uses it for
    n != 2 only; plane maps take the exact plane_segment_failure.
    """
    a, b = _segment_ends(F, box, a, b)
    n = F.n
    seg = Poly.var(n + 1, n + 1)
    polys = []
    for comp, x, y in zip(F.components, a, b):
        polys.append(comp.pad(1) - Poly.const(n + 1, x) - seg.scale(y - x))
    return certified_clearance(polys, _faces_times_unit(box), improve_splits=0)


def segment_failure(F: PolyMap, box: IntervalBox, a: Sequence[Fraction | int],
                    b: Sequence[Fraction | int]) -> str | None:
    """Why the segment from a to b is not certified to miss the image of
    the box boundary, or None when it is: for n = 2 exactly, by
    plane_segment_failure, and otherwise by path_segment_clearance."""
    if F.n == 2:
        return plane_segment_failure(F, box, a, b)
    return path_segment_clearance(F, box, a, b).failure


def component_constancy_check(F: PolyMap, box: IntervalBox,
                              z_path: Sequence[Sequence[Fraction | int]],
                              cfg: SolverConfig | None = None) -> ComponentPathReport:
    """Degree constancy along a polyline of targets.

    Certifying that every segment stays off the boundary image places
    all vertices in one connected component of the complement, which is
    exactly when their degrees are forced to agree.  Each segment is
    certified by segment_failure.
    """
    vertices = [[Fraction(c) for c in vertex] for vertex in z_path]
    if not vertices:
        raise ValueError("path needs at least one vertex")
    for k, vertex in enumerate(vertices):
        if len(vertex) != F.n:
            raise ValueError(f"vertex {k} = {[str(x) for x in vertex]} has length "
                             f"{len(vertex)}, expected {F.n}")
    failures: list[str] = []
    path_certified = True
    for a, b in zip(vertices[:-1], vertices[1:]):
        failure = segment_failure(F, box, a, b)
        if failure is not None:
            path_certified = False
            failures.append(
                f"segment {[str(x) for x in a]} -> {[str(x) for x in b]}: {failure}")
    degrees: list[int | None] = []
    for vertex in vertices:
        try:
            degrees.append(degree_signed_count(F, box, vertex, cfg).value)
        except DegreeComputationError as exc:
            degrees.append(None)
            failures.append(f"z={[str(x) for x in vertex]}: {exc}")
    found = [d for d in degrees if d is not None]
    constant = path_certified and len(found) == len(degrees) and len(set(found)) == 1
    return ComponentPathReport(
        path_certified=path_certified,
        degrees=tuple(degrees),
        constant=constant,
        failures=tuple(failures),
    )
