"""Seeded map generators that return the exact truth with every map.

Each generator takes an explicit ``random.Random`` and returns the map
components as exact polynomials (see exactpoly) together with what is
known about the map exactly: preimages of a target with their Jacobian
signs, injectivity, or the sign behaviour of the Jacobian determinant.

The triangular automorphisms draw their random numbers in the same order
as the generators of the repository's test suite, so a given
``random.Random`` state yields the same map there and here.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from exactpoly import (Point, Poly, add, compose, const, eval_map, evaluate,
                       jacobian_det_at, jacobian_det_poly, mul, power, scale, sub, var)


@dataclass(frozen=True)
class Automorphism:
    """A composed triangular automorphism with unit Jacobian determinant.

    ``factors`` are applied right to left: components = factors[0] after
    factors[1].  Each factor is (upper, shifts) with component i equal to
    x_i + shifts[i], where shifts[i] uses only later (upper) or earlier
    (lower) variables.
    """
    n: int
    components: tuple[Poly, ...]
    factors: tuple[tuple[bool, tuple[Poly, ...]], ...]

    def inverse_at(self, y: Point) -> Point:
        """The unique exact preimage of y."""
        x = tuple(Fraction(v) for v in y)
        for upper, shifts in self.factors:
            x = _triangular_solve(upper, shifts, x)
        return x


def _triangular_solve(upper: bool, shifts, y: Point, fixed: int = 0) -> Point:
    """Solve x_i + shifts[i](x) = y_i; the last ``fixed`` entries of y are
    parameters copied into x unchanged."""
    n = len(y) - fixed
    x = [Fraction(0)] * n + list(y[n:])
    order = range(n - 1, -1, -1) if upper else range(n)
    for i in order:
        x[i] = y[i] - evaluate(shifts[i], x)
    return tuple(x)


def _shift_poly(rng: random.Random, n: int, only_vars: list[int]) -> Poly:
    if not only_vars:
        return {}
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * n
        for _ in range(rng.randint(1, 2)):
            exps[rng.choice(only_vars) - 1] += 1
        c = rng.choice([-2, -1, 1, 2])
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return {e: Fraction(c) for e, c in terms.items() if c}


def composed_automorphism(rng: random.Random, n: int, factors: int = 2) -> Automorphism:
    """Upper unit-triangular map after a lower one (or the upper one alone):
    exactly invertible."""
    upper = tuple(_shift_poly(rng, n, list(range(i + 1, n + 1))) for i in range(1, n + 1))
    if factors == 1:
        comps = tuple(add(var(n, i + 1), upper[i]) for i in range(n))
        return Automorphism(n, comps, ((True, upper),))
    lower = tuple(_shift_poly(rng, n, list(range(1, i))) for i in range(1, n + 1))
    lower_map = [add(var(n, i + 1), lower[i]) for i in range(n)]
    comps = tuple(compose(add(var(n, i + 1), upper[i]), lower_map, n) for i in range(n))
    # inverting undoes the outer (upper) factor first
    return Automorphism(n, comps, ((True, upper), (False, lower)))


def druzkowski_nilpotent(rng: random.Random, n: int) -> tuple[Poly, ...]:
    """x_i + (sum_{j>i} a_ij x_j)^3: triangular, so injective with det 1."""
    comps = []
    for i in range(n):
        ell = add(*[scale(var(n, j + 1), rng.randint(-2, 2)) for j in range(i + 1, n)])
        comps.append(add(var(n, i + 1), power(ell, 3, n)))
    return tuple(comps)


# ---------------------------------------------------------------------
# Truth records
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FiberCase:
    """A map, a target z and the complete exact fiber of z in the box."""
    name: str
    n: int
    components: tuple[Poly, ...]
    z: Point
    radius: int
    preimages: tuple[Point, ...]
    signs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.signs)


def oriented(case: FiberCase, signs: tuple[int, ...]) -> FiberCase:
    """The case with component i and target entry i multiplied by signs[i].

    The preimages stay the same and each Jacobian sign is multiplied by
    the product of the signs.  Negating a residual F_i - z_i is exact in
    floating point and leaves |F - z| unchanged, so the fiber solver and
    the degree integral do the same work, box for box and sample for
    sample, on every orientation.
    """
    flip = math.prod(signs)
    return FiberCase(case.name, case.n, tuple(scale(c, s) for c, s in zip(case.components, signs)),
                     tuple(s * v for s, v in zip(signs, case.z)), case.radius, case.preimages,
                     tuple(flip * s for s in case.signs))


def _radius_for(points, floor: int = 2) -> int:
    reach = max((abs(c) for p in points for c in p), default=Fraction(0))
    return max(floor, math.ceil(2 * reach))


def criterion3_cases(rng: random.Random, count: int) -> list[FiberCase]:
    """Composed automorphisms with a known rational preimage, n = 2, 3, 2, ...

    Mirrors the draw order of the acceptance test for criterion 3, so
    ``random.Random(33)`` reproduces its twenty maps.
    """
    cases = []
    for k in range(count):
        n = 2 if k % 2 == 0 else 3
        aut = composed_automorphism(rng, n)
        x0 = tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n))
        z = eval_map(aut.components, x0)
        cases.append(FiberCase(f"aut{n}", n, aut.components, z,
                               _radius_for([x0]), (x0,), (1,)))
    return cases


def automorphism_case(rng: random.Random, n: int, half_steps: int) -> FiberCase:
    """A composed automorphism and a preimage with coordinates in
    [-half_steps/2, half_steps/2], so the box radius is at most
    max(2, half_steps)."""
    aut = composed_automorphism(rng, n)
    x0 = tuple(Fraction(rng.randint(-half_steps, half_steps), 2) for _ in range(n))
    z = eval_map(aut.components, x0)
    return FiberCase(f"aut{n}", n, aut.components, z, _radius_for([x0]), (x0,), (1,))


ROOT_POOL = tuple(Fraction(k, 2) for k in range(-3, 4))


def rooted_case(rng: random.Random, roots_per_axis: tuple[int, ...],
                factors: int = 2) -> FiberCase:
    """D after T: T a composed automorphism, D_i(y) = c_i prod_k (y_i - r_ik).

    The fiber of 0 is T^-1 of the grid of roots, and the Jacobian sign at
    each preimage is the product of the signs of D_i' at its roots, so
    neighbouring roots carry opposite signs.
    """
    n = len(roots_per_axis)
    aut = composed_automorphism(rng, n, factors)
    factors = []
    roots = []
    for i, k in enumerate(roots_per_axis):
        rs = sorted(rng.sample(ROOT_POOL, k))
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        d = const(n, c)
        for r in rs:
            d = mul(d, sub(var(n, i + 1), const(n, r)))
        factors.append(d)
        roots.append(rs)
    comps = tuple(compose(factors[i], list(aut.components), n) for i in range(n))
    preimages = []
    grid = [()]
    for rs in roots:
        grid = [g + (r,) for g in grid for r in rs]
    for y in grid:
        preimages.append(aut.inverse_at(y))
    preimages.sort()
    z = (Fraction(0),) * n
    signs = tuple(1 if jacobian_det_at(comps, x) > 0 else -1 for x in preimages)
    name = f"rooted{n}x" + "x".join(str(k) for k in roots_per_axis)
    return FiberCase(name, n, comps, z, _radius_for(preimages), tuple(preimages), signs)


@dataclass(frozen=True)
class MapCase:
    """A map with its exactly known injectivity and Jacobian sign."""
    name: str
    n: int
    components: tuple[Poly, ...]
    injective: bool
    det_sign: str  # positive | mixed
    radius: int

    @functools.cached_property
    def det(self) -> Poly:
        return jacobian_det_poly(self.components)


def fold_case(rng: random.Random, n: int) -> MapCase:
    """T after (x1^2, x2, ..., xn): (a, y) and (-a, y) collide; det 2*x1 changes sign."""
    aut = composed_automorphism(rng, n)
    fold = [mul(var(n, 1), var(n, 1))] + [var(n, i + 1) for i in range(1, n)]
    comps = tuple(compose(c, fold, n) for c in aut.components)
    return MapCase(f"fold{n}", n, comps, False, "mixed", 2)


def triangular_case(rng: random.Random, n: int) -> MapCase:
    aut = composed_automorphism(rng, n)
    return MapCase(f"aut{n}", n, aut.components, True, "positive", 2)


@dataclass(frozen=True)
class KellerCase:
    """An injective map with det JF = 1 and query points with their preimages."""
    name: str
    n: int
    components: tuple[Poly, ...]
    queries: tuple[Point, ...]
    preimage_of: Callable[[Point], Point]


def keller_case(rng: random.Random, n: int, queries: int = 2) -> KellerCase:
    if n == 2:
        aut = composed_automorphism(rng, n)
        comps, inverse, name = aut.components, aut.inverse_at, "aut2"
    else:
        comps = druzkowski_nilpotent(rng, n)
        upper_shifts = tuple(sub(c, var(n, i + 1)) for i, c in enumerate(comps))
        inverse = lambda y, s=upper_shifts: _triangular_solve(True, s, y)  # noqa: E731
        name = f"druz{n}"
    qs = tuple(tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n))
               for _ in range(queries))
    return KellerCase(name, n, comps, qs, inverse)


@dataclass(frozen=True)
class FamilyCase:
    """x + t*H(x) in n+1 variables (t last); H strictly upper triangular.

    Every instance is a triangular automorphism, so the degree at z over
    the box is 1 exactly when the unique preimage lies inside the box,
    and that preimage follows exactly by back substitution.
    """
    name: str
    n: int
    components: tuple[Poly, ...]
    z: Point
    radius: int
    t_grid: tuple[Fraction, ...]
    degrees: tuple[int, ...]


def family_case(rng: random.Random, n: int) -> FamilyCase:
    m = n + 1
    shifts = tuple(mul(var(m, m), _shift_poly(rng, m, list(range(i + 2, n + 1))))
                   for i in range(n))
    comps = tuple(add(var(m, i + 1), s) for i, s in enumerate(shifts))
    z = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(n))
    t_grid = tuple(Fraction(k, 4) for k in range(5))
    pre = [_triangular_solve(True, shifts, z + (tv,), fixed=1)[:n] for tv in t_grid]
    radius = _radius_for(pre)
    degrees = tuple(1 if max(abs(c) for c in p) < radius else 0 for p in pre)
    return FamilyCase(f"family{n}", n, comps, z, radius, t_grid, degrees)
