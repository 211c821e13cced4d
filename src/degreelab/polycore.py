"""Exact sparse multivariate polynomials, intervals, and boxes.

A polynomial is a map from exponent tuples (one non-negative int per
variable) to nonzero rational coefficients (Fraction).  All ring
arithmetic is exact; floating point enters only through the dedicated
float/interval evaluation paths.

Canonical term order everywhere (printing, float evaluation) is graded
lexicographic, descending: higher total degree first, ties broken by the
exponent tuple compared left to right.  Float evaluation walks terms in
that order and sums left to right, so repeated runs are bit-identical.

Interval enclosures come from one array kernel, eval_interval_batch,
which encloses a polynomial over a stack of boxes held as (N, nvars)
lower and upper bound arrays; Poly.eval_interval is its one-row case.  It
uses outward rounding: after every primitive float operation the lower
endpoint is nudged one ulp down and the upper one ulp up, which covers the
rounding error of the correctly-rounded IEEE result.  Enclosures are
therefore sound but not tight.  An IntervalBox is a box's lower and upper
bound vectors, one row of those arrays; an Interval is one enclosure
value, the result of eval_interval or a coefficient's bounds.  Neither
carries arithmetic.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
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


def _pow_pos_down_arr(x: np.ndarray, k: int) -> np.ndarray:
    r = x.copy()
    for _ in range(k - 1):
        r = _next_down(r * x)
    return r


def _pow_pos_up_arr(x: np.ndarray, k: int) -> np.ndarray:
    r = x.copy()
    for _ in range(k - 1):
        r = _next_up(r * x)
    return r


def _pow_arrays(xl: np.ndarray, xh: np.ndarray, e: int):
    """Elementwise tight interval powers [xl, xh]^e, rounded outward.

    Powers of a side are formed from its endpoint magnitudes by repeated
    multiplication; even powers of a side that straddles 0 floor at 0.
    """
    if e == 0:
        ones = np.ones_like(xl)
        return ones, ones
    if e == 1:
        return xl, xh
    abs_l, abs_h = np.abs(xl), np.abs(xh)
    down_l = _pow_pos_down_arr(abs_l, e)
    up_l = _pow_pos_up_arr(abs_l, e)
    down_h = _pow_pos_down_arr(abs_h, e)
    up_h = _pow_pos_up_arr(abs_h, e)
    if e % 2 == 0:
        nonneg = xl >= 0.0
        nonpos = xh <= 0.0
        lo = np.where(nonneg, down_l, np.where(nonpos, down_h, 0.0))
        hi = np.where(nonneg, up_h, np.where(nonpos, up_l, np.maximum(up_l, up_h)))
    else:
        lo = np.where(xl >= 0.0, down_l, -up_l)
        hi = np.where(xh >= 0.0, up_h, -down_h)
    return lo, hi


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_sorted", "_floats", "_iterms", "_hash")

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
        self._iterms = None
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> Poly:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def var(cls, nvars: int, index: int) -> Poly:
        """Variable x_{index}, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

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
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Poly(self.nvars, out)

    def __radd__(self, other: Scalar) -> Poly:
        return self.__add__(other)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check_same_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) - coeff
        return Poly(self.nvars, out)

    def __rsub__(self, other: Scalar) -> Poly:
        return Poly.const(self.nvars, other) - self

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same_arity(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                out[exps] = out.get(exps, Fraction(0)) + ca * cb
        return Poly(self.nvars, out)

    def __rmul__(self, other: Scalar) -> Poly:
        return self.scale(other)

    def scale(self, c: Scalar) -> Poly:
        c = Fraction(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> Poly:
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power needs a non-negative integer exponent")
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
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            out[new] = out.get(new, Fraction(0)) + coeff * e
        return Poly(self.nvars, out)

    def homogeneous_component(self, d: int) -> Poly:
        """Sum of the terms of total degree exactly d."""
        return Poly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_degrees(self) -> list[int]:
        return sorted({sum(e) for e in self.terms})

    # -- evaluation ---------------------------------------------------

    def eval(self, point: Sequence[Scalar | float]) -> Fraction | float:
        """Evaluate at a point: exact for rational input, float otherwise.

        The float path is one row of eval_array, so results are
        reproducible bit for bit.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        if any(isinstance(x, float) for x in point):
            return float(self.eval_array(np.array([[float(x) for x in point]]))[0])
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term *= Fraction(x) ** e
            total += term
        return total

    def _float_terms(self) -> tuple[list[tuple[Exponent, float]], tuple[int, ...]]:
        if self._floats is None:
            terms = [(e, _float_or_inf(c)) for e, c in self.sorted_terms()]
            maxes = [0] * self.nvars
            for e, _ in terms:
                for i, d in enumerate(e):
                    if d > maxes[i]:
                        maxes[i] = d
            self._floats = (terms, tuple(maxes))
        return self._floats

    def eval_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation on an (N, nvars) array of points.

        Terms are walked in the canonical order and summed left to right,
        so each row's value is reproducible bit for bit.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"expected shape (N, {self.nvars}), got {pts.shape}")
        terms, maxes = self._float_terms()
        n = pts.shape[0]
        # overflow gives inf or nan, as Python floats do, and no warning
        with np.errstate(all="ignore"):
            pows = []
            for i, m in enumerate(maxes):
                col = [np.ones(n)]
                for _ in range(m):
                    col.append(col[-1] * pts[:, i])
                pows.append(col)
            acc = np.zeros(n)
            for exps, coeff in terms:
                t = np.full(n, coeff)
                for i, e in enumerate(exps):
                    if e:
                        t = t * pows[i][e]
                acc = acc + t
        return acc

    def eval_interval(self, box: IntervalBox) -> Interval:
        """Sound enclosure of the range over a box: one row of eval_interval_batch."""
        if box.dims != self.nvars:
            raise ValueError(f"box has {box.dims} dims, expected {self.nvars}")
        lo, hi = self.eval_interval_batch(np.array([box.lo]), np.array([box.hi]))
        return Interval(float(lo[0]), float(hi[0]))

    def eval_interval_batch(self, los: np.ndarray, his: np.ndarray,
                            pow_cache: dict | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Interval evaluation over many boxes at once.

        los/his have shape (N, nvars): row k holds the side bounds of box
        k.  Returns (lo, hi) arrays of shape (N,), each row enclosing the
        range over its box.  Terms are walked in the canonical order: each
        term is its coefficient's enclosure times the powers of the sides,
        and the terms are summed left to right, rounding outward after
        every operation.  Rows are independent, so a row's enclosure does
        not depend on the other rows.  A pow_cache dict may be shared by
        several calls evaluating different polynomials over the same box
        arrays.
        """
        if los.shape != his.shape or los.ndim != 2 or los.shape[1] != self.nvars:
            raise ValueError(f"expected (N, {self.nvars}) bound arrays")
        count = los.shape[0]
        if not self.terms:
            return np.zeros(count), np.zeros(count)
        if self._iterms is None:
            self._iterms = [(e, Interval.from_fraction(c))
                            for e, c in self.sorted_terms()]
        if pow_cache is None:
            pow_cache = {}

        def var_power(i: int, e: int):
            key = (i, e)
            got = pow_cache.get(key)
            if got is None:
                got = _pow_arrays(los[:, i], his[:, i], e)
                pow_cache[key] = got
            return got

        with np.errstate(all="ignore"):
            acc_lo = np.zeros(count)
            acc_hi = np.zeros(count)
            for exps, coeff in self._iterms:
                tl, th = coeff.lo, coeff.hi
                for i, e in enumerate(exps):
                    if e:
                        pl, ph = var_power(i, e)
                        tl, th = _mul_arrays(tl, th, pl, ph)
                acc_lo = _next_down(acc_lo + tl)
                acc_hi = _next_up(acc_hi + th)
            # an overflow-induced NaN means "nothing is known": widen fully
            acc_lo = np.where(np.isnan(acc_lo), -np.inf, acc_lo)
            acc_hi = np.where(np.isnan(acc_hi), np.inf, acc_hi)
        return acc_lo, acc_hi

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
            out[new] = out.get(new, Fraction(0)) + c
        return Poly(self.nvars - 1, out)

    def pad(self, extra: int) -> Poly:
        """Embed into a ring with `extra` trailing variables."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if extra == 0:
            return self
        zeros = (0,) * extra
        return Poly(self.nvars + extra, {e + zeros: c for e, c in self.terms.items()})

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
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

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
