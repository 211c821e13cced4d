"""Exact sparse multivariate polynomials, intervals, and boxes.

A polynomial is a map from exponent tuples (one non-negative int per
variable) to nonzero rational coefficients (Fraction).  All ring
arithmetic is exact; floating point enters only through the dedicated
float/interval evaluation paths.  The constructor Poly(nvars, terms)
checks every term it is given; the results of Poly's own operations are
built unchecked, with zero coefficients dropped as they arise.  A product
multiplies integer numerators over each operand's common denominator and
makes one Fraction per output term; a one-term operand shifts exponents
instead.  The parser sums an expression's terms into one dict.

Canonical term order everywhere (printing, float evaluation) is graded
lexicographic, descending: higher total degree first, ties broken by the
exponent tuple compared left to right.  Float evaluation walks terms in
that order and sums left to right, so repeated runs are bit-identical.

Interval enclosures come from one array kernel, IntervalStack, which is
compiled once for a list of polynomials and encloses all of them over a
stack of boxes held as (N, nvars) lower and upper bound arrays.
Poly.eval_interval_batch is row 0 of the polynomial's own stack, and
Poly.eval_interval its one-row case.  The kernel uses outward rounding:
after every primitive float operation the lower endpoint is nudged one ulp
down and the upper one ulp up, which covers the rounding error of the
correctly-rounded IEEE result.  Enclosures are therefore sound but not
tight.  Every power a stack uses is read off one run of rounded products,
and each polynomial's enclosure is the same, bit for bit, as its terms
enclosed and summed left to right one at a time.  An IntervalBox
is a box's lower and upper bound vectors, one row of those arrays; an
Interval is one enclosure value, the result of eval_interval or a
coefficient's bounds.  Neither carries arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

import numpy as np

Exponent = tuple[int, ...]

Scalar = int | Fraction


class PolyParseError(ValueError):
    """Syntax or range error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _float_or_inf(c: Fraction) -> float:
    """float(c), or an infinity of its sign when |c| is beyond the float range."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _power_table(base: int, exponents: Iterable[int]) -> dict[int, int]:
    """base^k for each k, each one made from the next lower one."""
    table: dict[int, int] = {}
    k0, acc = 0, 1
    for k in sorted(set(exponents)):
        acc *= base ** (k - k0)
        table[k] = acc
        k0 = k
    return table


def _lowest_terms(num: int, den: int, radical: int) -> Fraction:
    """num/den as a Fraction, for den > 0 whose every prime factor divides radical.

    Fraction(num, den) would take gcd(num, den), which costs time quadratic
    in their length even when it is 1.  Here every gcd has the short radical,
    or a factor already found, as one argument.  A prime shared by num and
    den divides radical, so it divides h; squaring h keeps those primes and
    doubles what the next round can remove.
    """
    while (h := math.gcd(radical, num, den)) > 1:
        num //= h
        den //= h
        radical = h * h
    return _coprime_fraction(num, den)


if sys.version_info < (3, 12):
    def _coprime_fraction(num: int, den: int) -> Fraction:
        """Fraction(num, den) for coprime num and den > 0, with no second gcd."""
        return Fraction(num, den, _normalize=False)
else:
    # a private constructor: should a later Python drop it, Fraction's own
    # gcd gives the same value, only slower on long integers
    _coprime_fraction = getattr(Fraction, "_from_coprime_ints", Fraction)


class Interval:
    """Closed float interval [lo, hi]: an enclosure value, such as the
    range bound of Poly.eval_interval or a coefficient's bounds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoint is NaN")
        if lo > hi:
            raise ValueError(f"interval has lo > hi: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> Interval:
        q = Fraction(q)
        try:
            f = float(q)
        except OverflowError:
            # beyond the float range: bounded by the largest float on the
            # side toward zero, unbounded on the other
            big = sys.float_info.max
            return cls(big, math.inf) if q > 0 else cls(-math.inf, -big)
        if Fraction(f) == q:
            return cls(f, f)
        return cls(math.nextafter(f, -math.inf), math.nextafter(f, math.inf))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


class IntervalBox:
    """Axis-aligned closed box, held as its lower and upper bound vectors:
    one row of the (N, n) bound arrays the kernels work on."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Iterable[float], hi: Iterable[float]):
        self.lo = tuple(float(x) for x in lo)
        self.hi = tuple(float(x) for x in hi)
        if len(self.lo) != len(self.hi):
            raise ValueError(f"box has {len(self.lo)} lower and {len(self.hi)} upper bounds")
        if not self.lo:
            raise ValueError("box needs at least one dimension")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("box sides must be finite")
            if a > b:
                raise ValueError(f"box side has lo > hi: [{a}, {b}]")

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[float, float]]) -> IntervalBox:
        bounds = list(bounds)
        return cls([lo for lo, _ in bounds], [hi for _, hi in bounds])

    @classmethod
    def cube(cls, dims: int, radius: float) -> IntervalBox:
        return cls((-float(radius),) * dims, (float(radius),) * dims)

    @property
    def dims(self) -> int:
        return len(self.lo)

    def midpoint(self) -> tuple[float, ...]:
        return tuple(a if a == b else a + 0.5 * (b - a) for a, b in zip(self.lo, self.hi))

    def max_width(self) -> float:
        return max(b - a for a, b in zip(self.lo, self.hi))

    def contains_point(self, point: Sequence[float | Fraction]) -> bool:
        return all(a <= x <= b for a, b, x in zip(self.lo, self.hi, point))

    def boundary_gap(self, outer: IntervalBox) -> float:
        """Smallest distance from this box to the boundary of an enclosing box."""
        return min(min(a - oa, ob - b)
                   for a, b, oa, ob in zip(self.lo, self.hi, outer.lo, outer.hi))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalBox) and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return "Box(" + " x ".join(f"[{a!r}, {b!r}]" for a, b in zip(self.lo, self.hi)) + ")"


def _grlex_key(exps: Exponent) -> tuple:
    return (sum(exps), exps)


def _next_down(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, -np.inf)


def _next_up(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, np.inf)


def _mul_arrays(al, ah, bl, bh):
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _next_down(lo), _next_up(hi)


def _add_terms(a: dict[Exponent, Fraction], b: dict[Exponent, Fraction],
               sign: int) -> dict[Exponent, Fraction]:
    """The terms of a + sign * b, sign = 1 or -1, without zero coefficients."""
    out = dict(a)
    for exps, coeff in b.items():
        c = out.get(exps)
        if c is None:
            out[exps] = coeff if sign > 0 else -coeff
        elif (c := c + coeff if sign > 0 else c - coeff):
            out[exps] = c
        else:
            del out[exps]
    return out


def _over(nums: dict[Exponent, int], den: int) -> dict[Exponent, Fraction]:
    """{exps: num / den} for the nonzero numerators, den > 0."""
    out = {}
    for exps, num in nums.items():
        if num:
            g = math.gcd(num, den)
            out[exps] = _coprime_fraction(num // g, den // g)
    return out


_ROUND_DOWN_UP = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf]])


def _power_run(xl: np.ndarray, xh: np.ndarray, exps: Sequence[int]) -> dict:
    """{e: elementwise tight interval power [xl, xh]^e} for ascending e >= 2,
    rounded outward.

    Powers of a side are formed from its endpoint magnitudes by one run of
    products, r_k = next(r_{k-1} * |x|), rounding down for lower and up for
    upper bounds; each e is read off the run at step e.  Even powers of a
    side that straddles 0 floor at 0.
    """
    base = np.abs(np.array((xl, xh, xl, xh)))
    run, k = base, 1
    nonneg = xl >= 0.0
    nonpos = xh <= 0.0
    out = {}
    for e in exps:
        for _ in range(e - k):
            run = np.nextafter(run * base, _ROUND_DOWN_UP)
        k = e
        down_l, down_h, up_l, up_h = run
        if e % 2 == 0:
            lo = np.where(nonneg, down_l, np.where(nonpos, down_h, 0.0))
            hi = np.where(nonneg, up_h, np.where(nonpos, up_l, np.maximum(up_l, up_h)))
        else:
            lo = np.where(xl >= 0.0, down_l, -up_l)
            hi = np.where(xh >= 0.0, up_h, -down_h)
        out[e] = (lo, hi)
    return out


def _pow_arrays(xl: np.ndarray, xh: np.ndarray, e: int):
    """Elementwise tight interval powers [xl, xh]^e for e >= 2, rounded
    outward: the one-exponent case of _power_run."""
    return _power_run(xl, xh, (e,))[e]


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_sorted", "_floats", "_stack", "_ints", "_exps",
                 "_hash")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[exps] = coeff
        self.nvars = nvars
        self.terms = clean
        self._sorted = None
        self._floats = None
        self._stack = None
        self._ints = None
        self._exps = None
        self._hash = None

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> Poly:
        """A Poly over terms that Poly's own operations made: int exponent
        tuples of length nvars and nonzero Fraction coefficients, unchecked."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._sorted = None
        p._floats = None
        p._stack = None
        p._ints = None
        p._exps = None
        p._hash = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> Poly:
        if nvars < 1:
            raise ValueError("nvars must be positive")
        value = Fraction(value)
        return cls._trusted(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def var(cls, nvars: int, index: int) -> Poly:
        """Variable x_{index}, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls._trusted(nvars, {tuple(exps): Fraction(1)})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial (see is_zero)."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical graded-lex descending order."""
        if self._sorted is None:
            self._sorted = sorted(self.terms.items(),
                                  key=lambda item: _grlex_key(item[0]),
                                  reverse=True)
        return self._sorted

    # -- ring arithmetic ----------------------------------------------

    def _check_same_arity(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mismatched nvars: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check_same_arity(other)
        return Poly._trusted(self.nvars, _add_terms(self.terms, other.terms, 1))

    def __radd__(self, other: Scalar) -> Poly:
        return self.__add__(other)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check_same_arity(other)
        return Poly._trusted(self.nvars, _add_terms(self.terms, other.terms, -1))

    def __rsub__(self, other: Scalar) -> Poly:
        return Poly.const(self.nvars, other) - self

    def __neg__(self) -> Poly:
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same_arity(other)
        if len(other.terms) == 1:
            return self._shift(*next(iter(other.terms.items())))
        if len(self.terms) == 1:
            return other._shift(*next(iter(self.terms.items())))
        if not (self.terms and other.terms):
            return Poly._trusted(self.nvars, {})
        # integer numerators over the product of the two common denominators,
        # and one Fraction per output term
        den_a, terms_a = self._int_terms()
        den_b, terms_b = other._int_terms()
        acc: dict[Exponent, int] = {}
        get = acc.get
        for ea, ca in terms_a:
            for eb, cb in terms_b:
                exps = tuple(map(add, ea, eb))
                acc[exps] = get(exps, 0) + ca * cb
        return Poly._trusted(self.nvars, _over(acc, den_a * den_b))

    def _shift(self, exps: Exponent, coeff: Fraction) -> Poly:
        """self times the one term coeff * x^exps, coeff nonzero: adding the
        same exponent tuple to every term merges none."""
        return Poly._trusted(self.nvars, {tuple(map(add, e, exps)): c * coeff
                                          for e, c in self.terms.items()})

    def __rmul__(self, other: Scalar) -> Poly:
        return self.scale(other)

    def scale(self, c: Scalar) -> Poly:
        c = Fraction(c)
        if not c:
            return Poly._trusted(self.nvars, {})
        return Poly._trusted(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> Poly:
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power needs a non-negative integer exponent")
        if len(self.terms) == 1 and k:
            [(exps, coeff)] = self.terms.items()
            return Poly._trusted(self.nvars, {tuple(e * k for e in exps): coeff ** k})
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def diff(self, var: int) -> Poly:
        """Formal partial derivative with respect to x_{var} (1-based)."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
        i = var - 1
        # lowering x_i by one is one-to-one on the terms that contain x_i
        return Poly._trusted(self.nvars, {exps[:i] + (e - 1,) + exps[i + 1:]: coeff * e
                                          for exps, coeff in self.terms.items()
                                          if (e := exps[i])})

    def homogeneous_component(self, d: int) -> Poly:
        """Sum of the terms of total degree exactly d."""
        return Poly._trusted(self.nvars,
                             {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_degrees(self) -> list[int]:
        return sorted({sum(e) for e in self.terms})

    # -- evaluation ---------------------------------------------------

    def eval(self, point: Sequence[Scalar | float]) -> Fraction | float:
        """Evaluate at a point: exact for rational input, float otherwise.

        The exact path sums in integers: each coordinate p/q is lifted to
        p^e * q^(m - e) for its exponent e and the variable's highest
        exponent m, so every term is an integer over the one denominator
        D * prod(q^m), D the common coefficient denominator.  Only the
        powers that occur are formed, once per call.  The float path is
        one row of eval_array, so results are reproducible bit for bit.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        if any(isinstance(x, float) for x in point):
            return float(self.eval_array(np.array([[float(x) for x in point]]))[0])
        den, terms = self._int_terms()
        maxes, occurring = self._exponents()
        radical = den
        lifted = []
        for x, m, exps in zip(map(Fraction, point), maxes, occurring):
            nums = _power_table(x.numerator, exps)
            dens = _power_table(x.denominator, [m - e for e in exps] + [m])
            lifted.append({e: nums[e] * dens[m - e] for e in exps})
            if m:
                den *= dens[m]
                radical *= x.denominator
        total = 0
        for exps, coeff in terms:
            for powers, e in zip(lifted, exps):
                coeff *= powers[e]
            total += coeff
        if not total:
            return Fraction(0)
        return _lowest_terms(total, den, radical)

    def _int_terms(self) -> tuple[int, list[tuple[Exponent, int]]]:
        """(D, [(exponents, coeff * D)]), D the least common denominator of
        the coefficients."""
        if self._ints is None:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            self._ints = (den, [(e, c.numerator * (den // c.denominator))
                                for e, c in self.terms.items()])
        return self._ints

    def _exponents(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(highest exponent of each variable, sorted exponents that occur
        of each variable)."""
        if self._exps is None:
            occurring = tuple(tuple(sorted({e[i] for e in self.terms}))
                              for i in range(self.nvars))
            self._exps = (tuple(exps[-1] if exps else 0 for exps in occurring), occurring)
        return self._exps

    def _float_terms(self) -> list[tuple[Exponent, float]]:
        if self._floats is None:
            self._floats = [(e, _float_or_inf(c)) for e, c in self.sorted_terms()]
        return self._floats

    def eval_array(self, points: np.ndarray, pow_cache: dict | None = None) -> np.ndarray:
        """Vectorized float evaluation on an (N, nvars) array of points.

        Terms are walked in the canonical order and summed left to right,
        so each row's value is reproducible bit for bit.

        pow_cache maps (i, e), i a 0-based variable index and e >= 1, to the
        column x_i^e over the rows, formed by the chain x_i^e = x_i^(e-1) *
        x_i.  The dict may be shared by several calls evaluating different
        polynomials over the same points; an entry does not depend on which
        polynomial made it.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"expected shape (N, {self.nvars}), got {pts.shape}")
        terms = self._float_terms()
        maxes = self._exponents()[0]
        n = pts.shape[0]
        if pow_cache is None:
            pow_cache = {}
        # overflow gives inf or nan, as Python floats do, and no warning
        with np.errstate(all="ignore"):
            for i, m in enumerate(maxes):
                x = prev = pts[:, i]
                for e in range(1, m + 1):
                    got = pow_cache.get((i, e))
                    if got is None:
                        got = pow_cache[i, e] = x if e == 1 else prev * x
                    prev = got
            acc = np.zeros(n)
            for exps, coeff in terms:
                t = coeff
                for i, e in enumerate(exps):
                    if e:
                        t = t * pow_cache[i, e]
                acc = acc + t
        return acc

    def eval_interval(self, box: IntervalBox) -> Interval:
        """Sound enclosure of the range over a box: one row of eval_interval_batch."""
        if box.dims != self.nvars:
            raise ValueError(f"box has {box.dims} dims, expected {self.nvars}")
        lo, hi = self.eval_interval_batch(np.array([box.lo]), np.array([box.hi]))
        return Interval(float(lo[0]), float(hi[0]))

    def eval_interval_batch(self, los: np.ndarray, his: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Interval evaluation over many boxes at once: row 0 of
        interval_stack().enclose.

        los/his have shape (N, nvars): row k holds the side bounds of box
        k.  Returns (lo, hi) arrays of shape (N,), each row enclosing the
        range over its box.  Terms are walked in the canonical order: each
        term is its coefficient's enclosure times the powers of the sides,
        and the terms are summed left to right, rounding outward after
        every operation.  Rows are independent, so a row's enclosure does
        not depend on the other rows.
        """
        lo, hi = self.interval_stack().enclose(los, his)
        return lo[0], hi[0]

    def interval_stack(self) -> IntervalStack:
        """The IntervalStack of this polynomial alone, compiled on first use."""
        if self._stack is None:
            self._stack = IntervalStack((self,))
        return self._stack

    # -- substitution and reshaping -----------------------------------

    def substitute(self, var: int, value: Scalar) -> Poly:
        """Pin x_{var} (1-based) to an exact value; the result has nvars-1."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
        if self.nvars == 1:
            raise ValueError("cannot remove the last variable")
        i = var - 1
        value = Fraction(value)
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            c = coeff * value ** exps[i]
            if c == 0:
                continue
            new = exps[:i] + exps[i + 1:]
            out[new] = out.get(new, 0) + c
        return Poly._trusted(self.nvars - 1, {e: c for e, c in out.items() if c})

    def pad(self, extra: int) -> Poly:
        """Embed into a ring with `extra` trailing variables."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if extra == 0:
            return self
        zeros = (0,) * extra
        return Poly._trusted(self.nvars + extra, {e + zeros: c for e, c in self.terms.items()})

    def shift(self, extra: int) -> Poly:
        """Embed into a ring with `extra` leading variables, so that x_i
        becomes x_(i + extra); p.shift(p.nvars) acts on the second copy of
        the variables of a doubled ring, where p.pad(p.nvars) acts on the
        first."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if extra == 0:
            return self
        zeros = (0,) * extra
        return Poly._trusted(self.nvars + extra, {zeros + e: c for e, c in self.terms.items()})

    def compose(self, gs: Sequence[Poly]) -> Poly:
        """Substitute polynomial gs[i] for x_{i+1}; all gs share one arity."""
        if len(gs) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution polynomials, got {len(gs)}")
        m = gs[0].nvars
        for g in gs:
            if g.nvars != m:
                raise ValueError("substitution polynomials have mixed nvars")
        pow_cache: dict[tuple[int, int], Poly] = {}

        def g_power(i: int, e: int) -> Poly:
            key = (i, e)
            got = pow_cache.get(key)
            if got is None:
                got = gs[i] ** e
                pow_cache[key] = got
            return got

        acc = Poly.zero(m)
        for exps, coeff in self.terms.items():
            t = Poly.const(m, coeff)
            for i, e in enumerate(exps):
                if e:
                    t = t * g_power(i, e)
            acc = acc + t
        return acc

    # -- comparisons and text -----------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {poly_to_string(self)!r})"


def div_exact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial quotient a / b; raises if b does not divide a."""
    if a.nvars != b.nvars:
        raise ValueError("mismatched nvars")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if b.is_constant():
        return a.scale(1 / b.constant_value())
    lead_b, cb = max(b.terms.items(), key=lambda item: _grlex_key(item[0]))
    quotient: dict[Exponent, Fraction] = {}
    rem = a
    while not rem.is_zero:
        lead_r, cr = max(rem.terms.items(), key=lambda item: _grlex_key(item[0]))
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        c = cr / cb
        quotient[diff] = quotient.get(diff, Fraction(0)) + c
        rem = rem - Poly(a.nvars, {diff: c}) * b
    return Poly(a.nvars, quotient)


# Most term products one block of IntervalStack.enclose forms at once,
# counted per row: term positions are taken in blocks of at most this many
# (term, row) elements, one position at least, which bounds its
# temporaries whatever the number of rows.
_TERM_BLOCK = 1 << 15

# The outward direction of each bound of a stacked (lo, hi) pair, which is
# also what an overflow-induced NaN bound widens to.
_OUTWARD = np.array([-np.inf, np.inf])[:, None, None]


class IntervalStack:
    """Compiled outward-rounded enclosure of a sequence of polynomials in
    the same variables over a stack of boxes.

    enclose(los, his) takes (N, nvars) bound arrays and returns (lo, hi)
    arrays of shape (P, N), row p enclosing polys[p] over each box.  Every
    row equals the sequential evaluation of its polynomial alone bit for
    bit: a term is its coefficient's enclosure times the powers of the
    sides in variable order, the terms are summed left to right in the
    canonical order, rounding outward after every operation, and an
    overflow-induced NaN widens to (-inf, inf) at the end.  Rows are
    independent of each other and of the order of the polynomials.

    Built once, a stack holds the coefficient enclosures and, per term, the
    power table rows its factors read, the terms grouped by factor count.
    A call forms one table of every power the polynomials use, from one
    _power_run over all variables, then the products of every term of a
    group at once, one factor slot at a time.  The polynomials are ranked
    by term count, longest first, and the terms laid out by position in
    their polynomial, then by rank: the polynomials that have a j-th term
    are a prefix of the ranking, so step j of the sums is one add and one
    rounding on that prefix.  Term positions are taken in blocks of at
    most _TERM_BLOCK products.  A stack is never changed after it is
    built, so threads may share one.
    """

    __slots__ = ("polys", "nvars", "_places", "_widths", "_starts", "_exps", "_groups")

    def __init__(self, polys: Iterable[Poly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("a stack needs at least one polynomial")
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ValueError("the polynomials of a stack have mixed nvars")
        order = sorted(range(len(polys)), key=lambda k: len(polys[k].terms), reverse=True)
        ranked = [polys[k].sorted_terms() for k in order]
        widths = [sum(len(terms) > j for terms in ranked) for j in range(len(ranked[0]))]
        # term j of each polynomial that has one, position by position
        terms = [ranked[r][j] for j, w in enumerate(widths) for r in range(w)]
        # the exponents used: power table row k * nvars + i holds x_i to the k-th
        used = [1, *sorted({e for exps, _ in terms for e in exps if e >= 2})]
        level = {e: k * nvars for k, e in enumerate(used)}
        groups: dict[int, tuple[list, list, list]] = {}
        for t, (exps, c) in enumerate(terms):
            c = Interval.from_fraction(c)
            rows = [level[e] + i for i, e in enumerate(exps) if e]
            places, coefs, factors = groups.setdefault(len(rows), ([], [], []))
            places.append(t)
            coefs.append((c.lo, c.hi))
            factors.append(rows)
        self.polys = polys
        self.nvars = nvars
        self._places = np.argsort(order)
        self._widths = widths
        self._starts = [0, *itertools.accumulate(widths)]
        self._exps = tuple(used[1:])
        # per factor count k: the terms' places in the layout, as a list and
        # an array, their coefficient enclosures, shape (2, terms, 1), and
        # the table rows of each factor slot, shape (k, terms)
        self._groups = [
            (places, np.array(places), np.array(coefs).T[:, :, None],
             np.array(factors, dtype=np.intp).reshape(len(places), k).T.copy())
            for k, (places, coefs, factors) in sorted(groups.items())]

    def enclose(self, los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of shape (P, N): row p encloses polys[p] over each box."""
        if los.shape != his.shape or los.ndim != 2 or los.shape[1] != self.nvars:
            raise ValueError(f"expected (N, {self.nvars}) bound arrays")
        count = los.shape[0]
        widths, starts = self._widths, self._starts
        acc = np.zeros((2, len(self.polys), count))
        with np.errstate(all="ignore"):
            # power table row k * nvars + i: x_i to the k-th exponent used
            xl, xh = los.T.ravel(), his.T.ravel()
            table = np.empty((2, len(self._exps) + 1, len(xl)))
            table[0, 0], table[1, 0] = xl, xh
            if self._exps:
                for k, (lo, hi) in enumerate(_power_run(xl, xh, self._exps).values(), 1):
                    table[0, k], table[1, k] = lo, hi
            table = table.reshape(2, (len(self._exps) + 1) * self.nvars, count)
            per_block = _TERM_BLOCK // max(count, 1)
            first = 0
            while first < len(widths):
                last = max(first + 1, bisect_right(starts, starts[first] + per_block) - 1)
                t0, t1 = starts[first], starts[last]
                prods = np.empty((2, t1 - t0, count))
                for places, at, coefs, factors in self._groups:
                    a, b = bisect_left(places, t0), bisect_left(places, t1)
                    if a < b:
                        lo, hi = coefs[:, a:b]
                        for rows in factors:
                            got = table[:, rows[a:b]]
                            lo, hi = _mul_arrays(lo, hi, got[0], got[1])
                        prods[:, at[a:b] - t0] = lo, hi
                for j in range(first, last):
                    part = acc[:, :widths[j]]
                    np.add(part, prods[:, starts[j] - t0:starts[j + 1] - t0], out=part)
                    np.nextafter(part, _OUTWARD, out=part)
                first = last
            out = acc[:, self._places]
            np.copyto(out, _OUTWARD, where=np.isnan(out))
        return out[0], out[1]


# ---------------------------------------------------------------------
# Expression parsing and printing
#
# Grammar: variables x1..xN; integer and rational (p/q) literals;
# operators + - * ^ and parentheses; implicit multiplication forbidden;
# whitespace insignificant.  '^' takes a non-negative integer exponent.
# ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<var>x\d+)|(?P<op>[-+*^/()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.lastgroup == "num":
            tokens.append(("num", int(m.group("num")), pos))
        elif m.lastgroup == "var":
            tokens.append(("var", int(m.group("var")[1:]), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group("op"), pos))
        else:
            raise PolyParseError(f"unexpected character {m.group('bad')!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.nvars = nvars
        self.i = 0

    def peek(self) -> tuple[str, str | int, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str | int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.peek()[2])

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self) -> Poly:
        kind, val, _ = self.peek()
        negate = False
        while kind == "op" and val in "+-":
            self.advance()
            if val == "-":
                negate = not negate
            kind, val, _ = self.peek()
        # the terms are summed into one dict, and one Poly is built at the end
        acc: dict[Exponent, Fraction] = {}
        while True:
            for exps, coeff in self.term().terms.items():
                acc[exps] = acc.get(exps, 0) + (-coeff if negate else coeff)
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                return Poly._trusted(self.nvars, {e: c for e, c in acc.items() if c})
            self.advance()
            negate = val == "-"

    def term(self) -> Poly:
        p = self.signed_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = p * self.signed_factor()
            else:
                return p

    def signed_factor(self) -> Poly:
        kind, val, _ = self.peek()
        negate = False
        while kind == "op" and val in "+-":
            self.advance()
            if val == "-":
                negate = not negate
            kind, val, _ = self.peek()
        p = self.power()
        return -p if negate else p

    def power(self) -> Poly:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            sign = 1
            if kind == "op" and val == "-":
                sign = -1
                self.advance()
                kind, val, pos = self.peek()
            if kind != "num":
                raise PolyParseError("expected integer exponent after '^'", pos)
            self.advance()
            if sign < 0:
                raise PolyParseError(f"negative exponent -{val}", pos)
            return base ** int(val)
        return base

    def atom(self) -> Poly:
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.advance()
                kind3, val3, pos3 = self.peek()
                if kind3 != "num":
                    raise PolyParseError("expected integer denominator after '/'", pos3)
                self.advance()
                den = int(val3)
                if den == 0:
                    raise PolyParseError("zero denominator", pos3)
                return Poly.const(self.nvars, Fraction(num, den))
            return Poly.const(self.nvars, num)
        if kind == "var":
            self.advance()
            index = int(val)
            if not 1 <= index <= self.nvars:
                raise PolyParseError(
                    f"variable x{index} out of range 1..{self.nvars}", pos)
            return Poly.var(self.nvars, index)
        if kind == "op" and val == "(":
            self.advance()
            p = self.expr()
            kind2, val2, pos2 = self.peek()
            if not (kind2 == "op" and val2 == ")"):
                raise PolyParseError("expected ')'", pos2)
            self.advance()
            return p
        raise PolyParseError(
            "expected a number, variable, or '('" if kind == "end"
            else f"unexpected {val!r}", pos)


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse an expression in variables x1..x{nvars} into canonical form."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    return _Parser(text, nvars).parse()


def _format_monomial(exps: Exponent) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def poly_to_string(p: Poly) -> str:
    """Canonical text form: graded-lex descending, round-trips via parse_poly."""
    if p.is_zero:
        return "0"
    chunks = []
    for exps, coeff in p.sorted_terms():
        mono = _format_monomial(exps)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)
