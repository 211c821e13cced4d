"""Exact sparse polynomials over Fraction, independent of degreelab.

The benchmark builds its maps and checks every certified answer with this
module, so the truth it compares against never passes through the code
under test.  A polynomial is a dict from exponent tuples to nonzero
Fractions; every function returns a fresh dict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = dict  # {tuple[int, ...]: Fraction}
Point = tuple  # tuple[Fraction, ...]


def const(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n: int, i: int) -> Poly:
    """x_i, with i counted from 1."""
    exps = [0] * n
    exps[i - 1] = 1
    return {tuple(exps): Fraction(1)}


def add(*ps: Poly) -> Poly:
    out: dict = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: c * v for e, v in p.items()} if c else {}


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, scale(q, -1))


def mul(p: Poly, q: Poly) -> Poly:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(p: Poly, k: int, n: int) -> Poly:
    out = const(n, 1)
    for _ in range(k):
        out = mul(out, p)
    return out


def compose(p: Poly, gs: Sequence[Poly], n: int) -> Poly:
    """p(g_1, ..., g_m) where each g_j is a polynomial in n variables."""
    pows: dict = {}

    def gpow(j: int, k: int) -> Poly:
        if (j, k) not in pows:
            pows[(j, k)] = const(n, 1) if k == 0 else mul(gpow(j, k - 1), gs[j])
        return pows[(j, k)]

    out: dict = {}
    for e, c in p.items():
        term = const(n, c)
        for j, k in enumerate(e):
            if k:
                term = mul(term, gpow(j, k))
        for te, tc in term.items():
            out[te] = out.get(te, 0) + tc
    return {e: c for e, c in out.items() if c}


def diff(p: Poly, i: int) -> Poly:
    """d/dx_i, with i counted from 1."""
    out = {}
    for e, c in p.items():
        k = e[i - 1]
        if k:
            de = list(e)
            de[i - 1] = k - 1
            out[tuple(de)] = c * k
    return out


def evaluate(p: Poly, x: Sequence) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for xi, k in zip(x, e):
            if k:
                term *= Fraction(xi) ** k
        total += term
    return total


def eval_map(F: Sequence[Poly], x: Sequence) -> Point:
    return tuple(evaluate(p, x) for p in F)


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square Fraction matrix by exact elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * out


def jacobian_det_at(F: Sequence[Poly], x: Sequence) -> Fraction:
    n = len(F)
    return det([[evaluate(diff(F[i], j + 1), x) for j in range(n)] for i in range(n)])


def jacobian_det_poly(F: Sequence[Poly]) -> Poly:
    """Exact determinant polynomial of JF for n <= 3 by cofactor expansion."""
    n = len(F)
    J = [[diff(F[i], j + 1) for j in range(n)] for i in range(n)]
    if n == 1:
        return J[0][0]
    if n == 2:
        return sub(mul(J[0][0], J[1][1]), mul(J[0][1], J[1][0]))
    if n == 3:
        return add(
            mul(J[0][0], sub(mul(J[1][1], J[2][2]), mul(J[1][2], J[2][1]))),
            scale(mul(J[0][1], sub(mul(J[1][0], J[2][2]), mul(J[1][2], J[2][0]))), -1),
            mul(J[0][2], sub(mul(J[1][0], J[2][1]), mul(J[1][1], J[2][0]))))
    raise ValueError("jacobian_det_poly supports n <= 3")


def to_text(p: Poly) -> str:
    """Expression text in x1..xn, terms in a fixed (sorted) order."""
    if not p:
        return "0"
    chunks = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = p[e]
        mono = "*".join(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                        for i, k in enumerate(e) if k)
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)
