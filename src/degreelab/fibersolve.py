"""Certified enumeration of real solutions of F(x) = z inside a box.

The solver is a breadth-first branch-and-prune.  Each level of the search
is a pair of (N, n) float arrays holding the lower and upper side bounds
of its boxes, one box per row, and every stage works on whole arrays:
boxes whose interval image of some residual component excludes zero are
discarded; surviving boxes are tested with one Krawczyk operator
(midpoint-preconditioned interval Newton, _krawczyk_batch), whose
contraction into the strict interior certifies existence and uniqueness
of a root; certified boxes are refined by further Krawczyk steps and
undecided boxes are split and re-queued (split_widest, which injectlab's
breadth-first searches share); exclusion and Krawczyk take a level in
blocks of _ROW_BLOCK rows, which bounds their working memory.  IntervalBox
objects appear only for the input box and the isolators of certified
roots.  With workers > 1 a thread pool refines a level's certified boxes
in contiguous chunks; every kernel works row by row, so the output is the
same for any number of workers.

The same sum-of-squares positivity kernel that backs boundary clearance,
a best-first heap on the batched kernel eval_interval_batch, is exported
for reuse by the degree module's boundary and path certifications.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polycore import (Interval, IntervalBox, Poly, _mul_arrays, _next_down, _next_up,
                       _pow_arrays)
from .mapforms import PolyMap, jacobian_det, jacobian_matrix

# Split point sits at 127/256 of the width rather than 1/2: an exact
# bisection of the symmetric boxes used throughout the corpus would land
# subdivision faces exactly on common roots (the origin first of all),
# which interval Newton can then never separate from either side.
_SPLIT_RATIO = 127.0 / 256.0

# Interval Newton on a wide box can't contract and wastes n^2 interval
# evaluations, so attempts are deferred until boxes are modest; depth 0
# is exempt so that near-linear problems on oversized boxes certify
# immediately instead of subdividing their way down to the gate.
_KRAWCZYK_GATE = 2.0

# Rows per block of the exclusion stage and the Krawczyk operator.
_ROW_BLOCK = 4096

# Heap boxes whose children certified_min_sum_squares encloses in one batch.
_LOOKAHEAD = 32

_STATUS_PRIORITY = ("boundary_contact", "singular_suspect", "depth_exceeded")


@dataclass(frozen=True)
class SolverConfig:
    max_depth: int = 60
    target_width: float = 1e-10
    newton_max_iters: int = 50
    boundary_margin: float = 1e-8

    def __post_init__(self):
        if self.max_depth <= 0 or self.newton_max_iters <= 0:
            raise ValueError("depth and iteration limits must be positive")
        if self.target_width <= 0 or self.boundary_margin <= 0:
            raise ValueError("width and margin parameters must be positive")


@dataclass(frozen=True)
class CertifiedRoot:
    isolator: IntervalBox
    jac_sign: int
    refinement_width: float


@dataclass(frozen=True)
class SolveStats:
    boxes_processed: int
    max_depth: int


@dataclass(frozen=True)
class FiberResult:
    roots: tuple[CertifiedRoot, ...]
    status: str
    stats: SolveStats


def bezout_bound(F: PolyMap) -> int:
    """Product of the component total degrees."""
    bound = 1
    for i, p in enumerate(F.components):
        if p.is_zero:
            raise ValueError(f"component {i + 1} is the zero polynomial")
        bound *= p.total_degree()
    return bound


def _row_blocks(count: int) -> list[slice]:
    """Slices of at most _ROW_BLOCK rows covering count rows (at least one)."""
    return [slice(b, b + _ROW_BLOCK) for b in range(0, max(count, 1), _ROW_BLOCK)]


def _krawczyk_batch(gs, jac, los: np.ndarray, his: np.ndarray):
    """Krawczyk images for a stack of boxes, one box per row.

    Row k of (K_lo, K_hi) encloses m - Y g(m) + (I - Y J(X)) (X - m) for
    box X = row k, its midpoint m and Y the inverse of the Jacobian at m.
    usable is False where that Jacobian is singular (slogdet sign 0, the
    zero-pivot case in which inv raises) or where Y or the image is not
    finite.  Every step works row by row, so a row's image does not depend
    on the other rows of the stack; the stack is taken in blocks of
    _ROW_BLOCK rows, which bounds the working memory.
    """
    parts = [_krawczyk_rows(gs, jac, los[b], his[b]) for b in _row_blocks(len(los))]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _krawczyk_rows(gs, jac, los: np.ndarray, his: np.ndarray):
    count, n = los.shape
    mids = los + 0.5 * (his - los)
    with np.errstate(all="ignore"):
        jm = np.empty((count, n, n))
        for i in range(n):
            for j in range(n):
                jm[:, i, j] = jac[i][j].eval_array(mids)
        usable = np.linalg.slogdet(jm)[0] != 0
        jm[~usable] = np.eye(n)
        Y = np.linalg.inv(jm)
        usable &= np.isfinite(Y).all(axis=(1, 2))
        gml = np.empty((count, n))
        gmh = np.empty((count, n))
        cache_point: dict = {}
        for j, g in enumerate(gs):
            gml[:, j], gmh[:, j] = g.eval_interval_batch(mids, mids, cache_point)
        jxl = np.empty((count, n, n))
        jxh = np.empty((count, n, n))
        cache_box: dict = {}
        for i in range(n):
            for j in range(n):
                jxl[:, i, j], jxh[:, i, j] = jac[i][j].eval_interval_batch(
                    los, his, cache_box)
        off_lo = _next_down(los - mids)
        off_hi = _next_up(his - mids)
        # Y g(m) and Y J(X), each sum rounded outward term by term in index
        # order; entries are [row, i] and [row, i, j]
        newton_lo = newton_hi = np.zeros((count, n))
        dot_lo = dot_hi = np.zeros((count, n, n))
        for k in range(n):
            y = Y[:, :, k]
            p_lo, p_hi = _mul_arrays(y, y, gml[:, k, None], gmh[:, k, None])
            newton_lo = _next_down(newton_lo + p_lo)
            newton_hi = _next_up(newton_hi + p_hi)
            y = y[:, :, None]
            p_lo, p_hi = _mul_arrays(y, y, jxl[:, None, k, :], jxh[:, None, k, :])
            dot_lo = _next_down(dot_lo + p_lo)
            dot_hi = _next_up(dot_hi + p_hi)
        eye = np.eye(n)
        t_lo, t_hi = _mul_arrays(_next_down(eye - dot_hi), _next_up(eye - dot_lo),
                                 off_lo[:, None, :], off_hi[:, None, :])
        k_lo = _next_down(mids - newton_hi)
        k_hi = _next_up(mids - newton_lo)
        for j in range(n):
            k_lo = _next_down(k_lo + t_lo[:, :, j])
            k_hi = _next_up(k_hi + t_hi[:, :, j])
    usable &= ~(np.isnan(k_lo).any(axis=1) | np.isnan(k_hi).any(axis=1))
    return k_lo, k_hi, usable


def _refine_rows(gs, jac, los: np.ndarray, his: np.ndarray, cfg: SolverConfig):
    """Contract each row by repeated Krawczyk steps.

    A row stops once it is no wider than the target width, or when a step
    is unusable, leaves nothing of the row, or changes nothing; all stop
    after newton_max_iters steps.
    """
    los, his = los.copy(), his.copy()
    active = np.arange(len(los))
    for _ in range(cfg.newton_max_iters):
        active = active[(his[active] - los[active]).max(axis=1) > cfg.target_width]
        if not active.size:
            break
        xl, xh = los[active], his[active]
        k_lo, k_hi, usable = _krawczyk_batch(gs, jac, xl, xh)
        new_lo, new_hi = np.maximum(xl, k_lo), np.minimum(xh, k_hi)
        moved = (usable & (new_lo <= new_hi).all(axis=1)
                 & ((new_lo != xl) | (new_hi != xh)).any(axis=1))
        active = active[moved]
        los[active], his[active] = new_lo[moved], new_hi[moved]
    return los, his


def _reaches_zero(gs, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Mask of the rows on which every residual component's enclosure
    reaches zero, one row block at a time."""
    alive = np.ones(len(los), dtype=bool)
    for b in _row_blocks(len(los)):
        pows: dict = {}
        for g in gs:
            glo, ghi = g.eval_interval_batch(los[b], his[b], pows)
            alive[b] &= (glo <= 0.0) & (ghi >= 0.0)
    return alive


def _stuck_kinds(los, his, outer_lo, outer_hi, det: Poly, cfg: SolverConfig) -> set[str]:
    """Why undecided boxes were given up: near the outer boundary, a
    determinant enclosure reaching zero, or neither."""
    gap = np.minimum(los - outer_lo, outer_hi - his).min(axis=1)
    boundary = gap <= cfg.boundary_margin
    kinds = {"boundary_contact"} if boundary.any() else set()
    if not boundary.all():
        det_lo, det_hi = det.eval_interval_batch(los[~boundary], his[~boundary])
        singular = (det_lo <= 0.0) & (0.0 <= det_hi)
        if singular.any():
            kinds.add("singular_suspect")
        if not singular.all():
            kinds.add("depth_exceeded")
    return kinds


def split_widest(los: np.ndarray, his: np.ndarray, ratio: float):
    """Split every box across its widest axis at lo + ratio * (hi - lo).

    Returns the children as (2N, n) lower and upper bound arrays, each
    parent's left child first, and a mask of the parents whose split point
    fell strictly inside the side (elsewhere one child is degenerate).  At
    ratio 0.5 the split point equals Interval.mid bit for bit.
    """
    axis = (his - los).argmax(axis=1)
    rows = np.arange(len(los))
    side_lo, side_hi = los[rows, axis], his[rows, axis]
    at = side_lo + ratio * (side_hi - side_lo)
    left = 2 * rows
    kids_lo = np.repeat(los, 2, axis=0)
    kids_hi = np.repeat(his, 2, axis=0)
    kids_hi[left, axis] = at
    kids_lo[left + 1, axis] = at
    return kids_lo, kids_hi, (side_lo < at) & (at < side_hi)


def solve_fiber(F: PolyMap, z: Sequence[Fraction | int], box: IntervalBox,
                cfg: SolverConfig | None = None, workers: int = 1) -> FiberResult:
    """Certified solution set of F(x) = z in the closed box.

    status is "complete" only when every sub-box was either discarded by
    a sound exclusion test or certified to hold exactly one root, and no
    isolator approaches the outer boundary closer than the configured
    margin.  Worker count never changes the result, only the wall time.
    """
    cfg = cfg or SolverConfig()
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    if len(z) != F.n:
        raise ValueError(f"target has length {len(z)}, expected {F.n}")
    target = [Fraction(v) for v in z]
    gs = [p - Poly.const(F.n, t) for p, t in zip(F.components, target)]
    jac = jacobian_matrix(F)
    det = jacobian_det(F)

    def refine(los, his):
        # rows are independent, so contiguous chunks give the serial result
        if pool is None:
            return _refine_rows(gs, jac, los, his, cfg)
        chunks = [c for c in np.array_split(np.arange(len(los)), workers) if c.size]
        parts = list(pool.map(
            lambda c: _refine_rows(gs, jac, los[c], his[c], cfg), chunks))
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    outer_lo = np.array([s.lo for s in box.sides])
    outer_hi = np.array([s.hi for s in box.sides])
    roots: list[CertifiedRoot] = []
    stuck_lo: list[np.ndarray] = []
    stuck_hi: list[np.ndarray] = []
    boxes_processed = deepest = depth = 0
    los, his = outer_lo[None, :], outer_hi[None, :]
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while len(los):
            boxes_processed += len(los)
            deepest = depth
            # exclusion: a box survives only if every residual component's
            # enclosure can reach zero
            alive = _reaches_zero(gs, los, his)
            los, his = los[alive], his[alive]
            certify = np.zeros(len(los), dtype=bool)
            newton = ((his - los).max(axis=1) <= _KRAWCZYK_GATE) | (depth == 0)
            if newton.any():
                rows = np.nonzero(newton)[0]
                k_lo, k_hi, usable = _krawczyk_batch(gs, jac, los[rows], his[rows])
                rows, k_lo, k_hi = rows[usable], k_lo[usable], k_hi[usable]
                xl, xh = los[rows], his[rows]
                # an operator image that misses the box proves it holds no root
                keep = np.ones(len(los), dtype=bool)
                keep[rows] = ~((k_hi < xl).any(axis=1) | (k_lo > xh).any(axis=1))
                certify[rows] = (xl < k_lo).all(axis=1) & (k_hi < xh).all(axis=1)
                los[rows] = np.maximum(xl, k_lo)
                his[rows] = np.minimum(xh, k_hi)
                los, his, certify = los[keep], his[keep], certify[keep]
            if certify.any():
                iso_lo, iso_hi = refine(los[certify], his[certify])
                det_lo, det_hi = det.eval_interval_batch(iso_lo, iso_hi)
                signs = np.where(det_lo > 0.0, 1, np.where(det_hi < 0.0, -1, 0))
                for lo, hi, sign in zip(iso_lo.tolist(), iso_hi.tolist(), signs.tolist()):
                    if sign:
                        isolator = IntervalBox(Interval(a, b) for a, b in zip(lo, hi))
                        roots.append(CertifiedRoot(isolator, sign, isolator.max_width()))
                stuck_lo.append(iso_lo[signs == 0])
                stuck_hi.append(iso_hi[signs == 0])
                los, his = los[~certify], his[~certify]
            if len(los):
                # boxes that cannot be split are given up: at the depth
                # limit, no wider than the target width, or too narrow for
                # the split point to fall strictly inside
                kids_lo, kids_hi, inside = split_widest(los, his, _SPLIT_RATIO)
                split = (inside & ((his - los).max(axis=1) > cfg.target_width)
                         & (depth < cfg.max_depth))
                stuck_lo.append(los[~split])
                stuck_hi.append(his[~split])
                pair = np.repeat(split, 2)
                los, his = kids_lo[pair], kids_hi[pair]
            depth += 1
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    stuck_kinds: set[str] = set()
    if sum(len(s) for s in stuck_lo):
        stuck_kinds = _stuck_kinds(np.concatenate(stuck_lo), np.concatenate(stuck_hi),
                                   outer_lo, outer_hi, det, cfg)
    roots.sort(key=lambda r: r.isolator.midpoint())
    boundary_roots = any(
        r.isolator.boundary_gap(box) <= cfg.boundary_margin for r in roots)
    if boundary_roots:
        status = "boundary_contact"
    elif stuck_kinds:
        status = next(s for s in _STATUS_PRIORITY if s in stuck_kinds)
    else:
        status = "complete"
    if status == "complete" and not any(p.is_zero for p in F.components):
        if len(roots) > bezout_bound(F):
            raise RuntimeError(
                "certified more roots than the degree product allows; "
                "this is a soundness bug, not a property of the input")
    return FiberResult(tuple(roots), status, SolveStats(boxes_processed, deepest))


# ---------------------------------------------------------------------
# Certified positivity of a sum of squares over a region, and the
# boundary clearance built on it.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ClearanceResult:
    m: float
    boxes_examined: int
    deepest: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.m > 0.0


def box_faces(box: IntervalBox) -> list[IntervalBox]:
    """The 2n boundary faces, each a box with one degenerate side."""
    faces = []
    for i, side in enumerate(box.sides):
        for endpoint in (side.lo, side.hi):
            pinned = (box.sides[:i]
                      + (Interval(endpoint, endpoint),)
                      + box.sides[i + 1:])
            faces.append(IntervalBox(pinned))
    return faces


def _sum_squares_lower(polys, los: np.ndarray, his: np.ndarray) -> list[float]:
    """Lower bound of the sum of the squared polynomials over each row."""
    acc = np.zeros(len(los))
    pows: dict = {}
    with np.errstate(all="ignore"):
        for p in polys:
            lo, hi = p.eval_interval_batch(los, his, pows)
            acc = _next_down(acc + _pow_arrays(lo, hi, 2)[0])
    return acc.tolist()


def certified_min_sum_squares(polys: Sequence[Poly], regions: Sequence[IntervalBox],
                              max_depth: int = 40, split_budget: int = 20000,
                              improve_splits: int = 300):
    """Certified lower bound for min over the regions of sum of squares.

    Returns (bound, boxes_examined, deepest, failure_message).  bound is
    0.0 when some sub-box could not be pushed off zero within budget —
    a sound but useless bound, reported as failure.

    Best-first on the key (lower bound, seq), seq numbering boxes as they
    are made; a node is a row of shared (rows, n) bound arrays.  When the
    popped box's children are not known yet, one batch encloses them, the
    children of those two and those of the next _LOOKAHEAD - 1 weakest
    boxes, kept by seq until popped.  Children depend only on their box and
    the pop order only on the keys, so this equals splitting one at a time.
    """
    if not regions:
        return 0.0, 0, 0, "no regions supplied"
    los = np.array([[s.lo for s in r.sides] for r in regions])
    his = np.array([[s.hi for s in r.sides] for r in regions])
    # a node is (lower bound, seq, depth, lo array, hi array, its row)
    heap = [(low, seq, 0, los, his, seq)
            for seq, low in enumerate(_sum_squares_lower(polys, los, his))]
    heapq.heapify(heap)
    # seq -> (children lo, hi, lower bounds, left child's row, split inside)
    known: dict[int, tuple] = {}

    def look_ahead(seq: int) -> None:
        ahead = [heapq.heappop(heap) for _ in range(min(_LOOKAHEAD, len(heap)))]
        for node in ahead:
            heapq.heappush(heap, node)
        parents = [node for node in ahead if node[1] not in known]
        plo = np.array([node[3][node[5]] for node in parents])
        phi = np.array([node[4][node[5]] for node in parents])
        with np.errstate(all="ignore"):
            kids_lo, kids_hi, inside = split_widest(plo, phi, _SPLIT_RATIO)
            # the popped box's children are split too: they take seq, seq + 1
            grand_lo, grand_hi, grand_inside = split_widest(
                kids_lo[:2], kids_hi[:2], _SPLIT_RATIO)
        kids_lo = np.concatenate([kids_lo, grand_lo])
        kids_hi = np.concatenate([kids_hi, grand_hi])
        lows = _sum_squares_lower(polys, kids_lo, kids_hi)
        for j, node in enumerate(parents):
            known[node[1]] = (kids_lo, kids_hi, lows, 2 * j, bool(inside[j]))
        first = 2 * len(parents)
        for j in range(2):
            known[seq + j] = (kids_lo, kids_hi, lows, first + 2 * j, bool(grand_inside[j]))

    seq = examined = len(heap)
    deepest = splits = sharpened = 0
    while True:
        # the weakest box is split until every box is strictly positive;
        # then a fixed budget of splits sharpens the weakest enclosure,
        # which is usually loose overestimation
        low, node_seq, depth = heap[0][:3]
        positive = low > 0.0
        if positive and sharpened >= improve_splits:
            break
        if depth >= max_depth:
            failure = f"sum-of-squares enclosure still reaches {low} at depth {depth}"
        elif not positive and splits >= split_budget:
            failure = "split budget exhausted"
        else:
            if node_seq not in known:
                look_ahead(seq)
            kids_lo, kids_hi, lows, row, inside = known.pop(node_seq)
            failure = None if inside else (
                "degenerate box still encloses zero; the minimum may be zero")
        if failure is not None:
            if positive:
                break
            return 0.0, examined, deepest, failure
        if positive:
            sharpened += 1
        else:
            splits += 1
        heapq.heappop(heap)
        for k in (row, row + 1):
            heapq.heappush(heap, (lows[k], seq, depth + 1, kids_lo, kids_hi, k))
            seq += 1
        examined += 2
        deepest = max(deepest, depth + 1)
    return heap[0][0], examined, deepest, None


def boundary_clearance(F: PolyMap, z: Sequence[Fraction | int], box: IntervalBox,
                       max_depth: int = 40, improve_splits: int = 300) -> ClearanceResult:
    """Certified lower bound m with min over the box boundary of |F - z| >= m.

    m = 0 means the certification failed (the target may touch the image
    of the boundary), never that the true clearance is known to be zero.
    """
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    if len(z) != F.n:
        raise ValueError(f"target has length {len(z)}, expected {F.n}")
    target = [Fraction(v) for v in z]
    gs = [p - Poly.const(F.n, t) for p, t in zip(F.components, target)]
    bound_sq, examined, deepest, failure = certified_min_sum_squares(
        gs, box_faces(box), max_depth=max_depth, improve_splits=improve_splits)
    if failure is not None:
        return ClearanceResult(0.0, examined, deepest, failure)
    m = math.sqrt(bound_sq)
    # one ulp down guards the rounding of sqrt itself
    m = max(0.0, math.nextafter(m, -math.inf))
    return ClearanceResult(m, examined, deepest, None)
