"""Topological degree of a polynomial map over a box, two ways.

The signed-count method enumerates the certified fiber and adds the
Jacobian signs; it is exact whenever the solver finishes.  The integral
method averages a compactly supported radial weight composed with the
map, times the Jacobian determinant, over a low-discrepancy point set;
it is a floating-point estimate that must land near an integer.  The two
share no machinery beyond the boundary-clearance certificate, which is
what makes their agreement a meaningful cross-check.

Conventions the underlying theory does not fix — the weight profile and
the quadrature scheme — are recorded in each result's diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.stats import qmc

from .polycore import IntervalBox, Poly, _float_or_inf
from .mapforms import PolyMap, jacobian_det
from .fibersolve import (
    ClearanceResult,
    FiberResult,
    SolverConfig,
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
    value = sum(r.jac_sign for r in fiber.roots)
    return DegreeResult(
        value=value,
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
                        cfg: SolverConfig | None = None) -> DegreeResult:
    """Degree as the sum of Jacobian signs over the certified fiber."""
    cfg = cfg or SolverConfig()
    clearance = boundary_clearance(F, z, box)
    if not clearance.ok:
        raise PreconditionViolation(
            "boundary", f"no certified clearance ({clearance.failure})")
    fiber = solve_fiber(F, z, box, cfg)
    return signed_count_from_fiber(fiber, clearance)


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

@dataclass(frozen=True)
class QuadratureConfig:
    start_samples: int = 4096
    max_samples: int = 1 << 21
    agreement: float = 0.05
    rounding_tol: float = 0.25


def degree_integral(F: PolyMap, box: IntervalBox, z: Sequence[Fraction | int],
                    quad: QuadratureConfig | None = None) -> DegreeResult:
    """Degree as the box average of weight(|F - z|) times det JF.

    The weight's scale is set to half the certified boundary clearance,
    so its support cannot reach the image of the boundary.
    """
    quad = quad or QuadratureConfig()
    n = F.n
    if box.dims != n:
        raise ValueError(f"box has {box.dims} dims, expected {n}")
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

    halton = qmc.Halton(d=n, scramble=False)
    total = 0.0
    drawn = 0
    estimates: list[float] = []
    batch = quad.start_samples
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
    are not computed.  Then the degree is counted at each grid value.
    """
    n = _family_arity(family, box)
    cfg = cfg or SolverConfig()
    ts = tuple(Fraction(t) for t in t_grid)
    if any(t < 0 or t > 1 for t in ts):
        raise ValueError("parameter grid must lie in [0, 1]")
    target = [Fraction(v) for v in z]
    shifted = [p - Poly.const(n + 1, zi) for p, zi in zip(family, target)]
    clearance = certified_clearance(shifted, _faces_times_unit(box))
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
        try:
            degrees.append(degree_signed_count(instance, box, target, cfg).value)
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


def path_segment_clearance(F: PolyMap, box: IntervalBox,
                           a: Sequence[Fraction], b: Sequence[Fraction]) -> ClearanceResult:
    """Certify that the segment from a to b misses the boundary image.

    Builds residuals F_i(x) - (a_i + s (b_i - a_i)) in one extra segment
    variable s and bounds their squared norm away from zero over
    (box faces) x [0,1].
    """
    n = F.n
    seg = Poly.var(n + 1, n + 1)
    polys = []
    for i, comp in enumerate(F.components):
        drift = Fraction(b[i]) - Fraction(a[i])
        polys.append(comp.pad(1) - Poly.const(n + 1, Fraction(a[i])) - seg.scale(drift))
    return certified_clearance(polys, _faces_times_unit(box))


def component_constancy_check(F: PolyMap, box: IntervalBox,
                              z_path: Sequence[Sequence[Fraction | int]],
                              cfg: SolverConfig | None = None) -> ComponentPathReport:
    """Degree constancy along a polyline of targets.

    Certifying that every segment stays off the boundary image places
    all vertices in one connected component of the complement, which is
    exactly when their degrees are forced to agree.
    """
    cfg = cfg or SolverConfig()
    vertices = [[Fraction(c) for c in vertex] for vertex in z_path]
    if not vertices:
        raise ValueError("path needs at least one vertex")
    failures: list[str] = []
    path_certified = True
    for a, b in zip(vertices[:-1], vertices[1:]):
        seg = path_segment_clearance(F, box, a, b)
        if not seg.ok:
            path_certified = False
            failures.append(
                f"segment {[str(x) for x in a]} -> {[str(x) for x in b]}: {seg.failure}")
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
