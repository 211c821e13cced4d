"""Certified enumeration of real solutions of F(x) = z inside a box.

The solver is a branch-and-prune over a tree of boxes, walked depth first
in chunks.  A chunk is a pair of (N, n) float arrays holding the lower
and upper side bounds of at most _ROW_BLOCK boxes of one depth, one box
per row, and every stage works on a whole chunk.  Each chunk makes one
interval enclosure, of one IntervalStack per solve over 2n variables (x
for a box, y for its midpoint m) that holds the residuals F(x) - z, the
Jacobian entries over x and the residuals F(y) - z, taken over the rows
[lo | m], [hi | m]: boxes whose enclosure of some residual component
excludes zero are discarded; surviving boxes are tested with one Krawczyk
operator (midpoint-preconditioned interval Newton, _krawczyk_batch) that
reads the Jacobian and midpoint rows of that enclosure, and whose
contraction into the strict interior certifies existence and uniqueness
of a root; undecided boxes wider than _TARGET_WIDTH are split
(split_widest, under subdivide's breadth-first walk too), their children
pushed on a stack in chunks of at most _ROW_BLOCK rows.  Taking the
deepest chunk first bounds the working set, where whole breadth-first
levels grow to tens of thousands of rows on large boxes.  The input box's
lo/hi bound vectors are the first chunk's one row.  The certified boxes of
the whole walk are refined in one batch, by at most _NEWTON_MAX_ITERS
further Krawczyk steps down to _TARGET_WIDTH, each step one enclosure of
the same stack, and their Jacobian signs read in one enclosure of det JF;
each certified root's isolator is an IntervalBox of a refined row.  With
workers > 1 a thread pool refines that batch in contiguous pieces.  Every
kernel works row by row, and each row of the stack equals the enclosure
of its polynomial alone in n variables bit for bit, so the output equals
that of a breadth-first walk over whole levels with separate enclosures,
for any number of workers.  Roots and given-up boxes within
_BOUNDARY_MARGIN of the box boundary mean boundary_contact.  SolverConfig
holds the depth limit, which callers vary.  A caller's max_boxes bounds
the walk: it stops before a chunk that would pass it, and the solve ends
budget_exhausted.  A complete solve also certifies that z is off the
image of the box boundary: a root there would lie in a box that exclusion
keeps, and once certified, in an isolator within _BOUNDARY_MARGIN of the
boundary.

The same sum-of-squares positivity kernel that backs boundary clearance,
a best-first heap on the compiled kernel IntervalStack, is exported
with its conversion to a clearance (certified_clearance) for reuse by the
degree module's family clearance and its path segments for n != 2; plane
path segments are decided there exactly, without it.  Its look-ahead encloses
whole subtrees below the boxes the heap is likely to pop next in one
batch, since each batch costs far more than its rows.  Where the natural
enclosures leave a box's bound at zero or below, each polynomial is
enclosed again in mean-value form, p(c) + grad p(X) . (X - c) about the
box's midpoint c, whose overestimation shrinks with the square of the box
width; the natural enclosure's overestimation shrinks only linearly, and
on the faces of a large box, whose terms cancel, it keeps a clearance from
certifying at any depth the budget allows.
"""

from __future__ import annotations

import heapq
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polycore import (IntervalBox, IntervalStack, Poly, _mul_arrays, _next_down, _next_up,
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

# Most boxes in one chunk of solve_fiber's search, and samples per block
# of injectlab's pair search and of the degree integral.
_ROW_BLOCK = 4096

# The clearance heap's look-ahead splits at most _LOOKAHEAD boxes whose
# children are unknown in one batch; while the weakest bound reaches zero
# it takes every such box that reaches zero, up to _BATCH_ROWS // 2.  The
# boxes are split as many levels deep as keeps the batch within
# _BATCH_ROWS rows: a batch costs as much as some hundreds of rows.
_LOOKAHEAD = 32
_BATCH_ROWS = 512

# refinement, splitting and boundary contact, as the module docstring says
_TARGET_WIDTH = 1e-10
_NEWTON_MAX_ITERS = 50
_BOUNDARY_MARGIN = 1e-8

_STATUS_PRIORITY = ("boundary_contact", "singular_suspect", "depth_exceeded")


@dataclass(frozen=True)
class SolverConfig:
    max_depth: int = 60

    def __post_init__(self):
        if self.max_depth <= 0:
            raise ValueError(f"solver max_depth must be positive, got {self.max_depth}")


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

    @property
    def signed_count(self) -> int:
        """The sum of the roots' Jacobian signs: the degree, when the fiber
        is complete, as its roots are then simple and strictly inside the
        box."""
        return sum(r.jac_sign for r in self.roots)

    @property
    def status_text(self) -> str:
        """The status as a refusal names it, with the boxes walked where
        the budget ran out."""
        if self.status == "budget_exhausted":
            return f"solver status budget_exhausted after {self.stats.boxes_processed} boxes"
        return f"solver status {self.status}"


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


def _fiber_stack(residuals: Sequence[Poly], jac: Sequence[Poly]) -> IntervalStack:
    """The one stack a solve encloses, over 2n variables: x, the first n,
    stands for a box and y, the last n, for its midpoint.  Rows 0 to n - 1
    are the residuals F_i(x) - z_i, row n + i * n + j is the Jacobian entry
    dF_i/dx_j(x), entry (i, j) of jac, and the last n rows are the
    residuals F_i(y) - z_i."""
    n = len(residuals)
    return IntervalStack([p.pad(n) for p in (*residuals, *jac)] + [p.shift(n) for p in residuals])


def _enclose_fiber(stack: IntervalStack, los: np.ndarray, his: np.ndarray):
    """(mids, g, jx, gm) for a stack of boxes, one box per row.

    mids are the boxes' float midpoints m, and g, jx and gm the (lo, hi)
    enclosures of _fiber_stack over the boxes [lo | m], [hi | m], one
    column per box: of the residuals over the box (n rows), of the
    Jacobian entries over it (n * n rows) and of the residuals at its
    midpoint (n rows).  Each row equals the enclosure of its polynomial
    alone, in n variables, over the box or the degenerate box [m, m], bit
    for bit, as padding or shifting the variables keeps a polynomial's
    term order and the power runs of its variables.
    """
    n = los.shape[1]
    with np.errstate(all="ignore"):
        mids = los + 0.5 * (his - los)
    lo, hi = stack.enclose(np.hstack((los, mids)), np.hstack((his, mids)))
    cuts = (n, n + n * n)
    return (mids, *zip(np.split(lo, cuts), np.split(hi, cuts)))


def _krawczyk_batch(jac: Sequence[Poly], los: np.ndarray, his: np.ndarray, mids: np.ndarray,
                    jx, gm):
    """Krawczyk images for a stack of boxes, one box per row.

    jac holds the Jacobian entries, entry (i, j) at index i * n + j, and
    mids the boxes' float midpoints; jx and gm are the (lo, hi) enclosures,
    one column per box, of those entries over each box and of the residual
    components at its midpoint, as _enclose_fiber makes them.  Row k of
    (K_lo, K_hi) encloses m - Y g(m) + (I - Y J(X)) (X - m) for box X =
    row k, its midpoint m and Y the inverse of the float Jacobian at m.
    usable is False where that Jacobian is singular (slogdet sign 0, the
    zero-pivot case in which inv raises) or where Y or the image is not
    finite.  Every step works row by row, so a row's image does not depend
    on the other rows of the stack.
    """
    count, n = los.shape
    with np.errstate(all="ignore"):
        jm = np.empty((count, n * n))
        cache_mid: dict = {}
        for k, entry in enumerate(jac):
            jm[:, k] = entry.eval_array(mids, cache_mid)
        jm = jm.reshape(count, n, n)
        usable = np.linalg.slogdet(jm)[0] != 0
        jm[~usable] = np.eye(n)
        Y = np.linalg.inv(jm)
        usable &= np.isfinite(Y).all(axis=(1, 2))
        # enclosures as [row, i] and [row, i, j]
        gml, gmh = (e.T for e in gm)
        jxl, jxh = (e.reshape(n, n, count).transpose(2, 0, 1) for e in jx)
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


def _refine_rows(stack: IntervalStack, jac: Sequence[Poly], los: np.ndarray, his: np.ndarray):
    """Contract each row by repeated Krawczyk steps, each step one
    enclosure of the solve's _fiber_stack over the rows still active.

    A row stops once it is no wider than _TARGET_WIDTH, or when a step is
    unusable, leaves nothing of the row, or changes nothing; all stop
    after _NEWTON_MAX_ITERS steps.
    """
    los, his = los.copy(), his.copy()
    active = np.arange(len(los))
    for _ in range(_NEWTON_MAX_ITERS):
        active = active[(his[active] - los[active]).max(axis=1) > _TARGET_WIDTH]
        if not active.size:
            break
        xl, xh = los[active], his[active]
        mids, _, jx, gm = _enclose_fiber(stack, xl, xh)
        k_lo, k_hi, usable = _krawczyk_batch(jac, xl, xh, mids, jx, gm)
        new_lo, new_hi = np.maximum(xl, k_lo), np.minimum(xh, k_hi)
        moved = (usable & (new_lo <= new_hi).all(axis=1)
                 & ((new_lo != xl) | (new_hi != xh)).any(axis=1))
        active = active[moved]
        los[active], his[active] = new_lo[moved], new_hi[moved]
    return los, his


def _all_reach_zero(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the columns in which every row of the enclosure (lo, hi)
    reaches zero."""
    return ((lo <= 0.0) & (hi >= 0.0)).all(axis=0)


def _reaches_zero(gs: IntervalStack, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Mask of the rows on which every residual component's enclosure
    reaches zero."""
    return _all_reach_zero(*gs.enclose(los, his))


def _stuck_kinds(los, his, outer_lo, outer_hi, det: Poly) -> set[str]:
    """Why undecided boxes were given up: near the outer boundary, a
    determinant enclosure reaching zero, or neither."""
    gap = np.minimum(los - outer_lo, outer_hi - his).min(axis=1)
    boundary = gap <= _BOUNDARY_MARGIN
    kinds = {"boundary_contact"} if boundary.any() else set()
    if not boundary.all():
        singular = _reaches_zero(det.interval_stack(), los[~boundary], his[~boundary])
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
    ratio 0.5 the split point equals IntervalBox.midpoint on that side bit
    for bit.  Where the width overflows, the point is formed as
    (1 - ratio) * lo + ratio * hi instead, which lies in the side.
    """
    with np.errstate(over="ignore"):
        widths = his - los
    axis = widths.argmax(axis=1)
    rows = np.arange(len(los))
    side_lo, side_hi, width = los[rows, axis], his[rows, axis], widths[rows, axis]
    at = side_lo + ratio * width
    wide = ~np.isfinite(width)
    if wide.any():
        at[wide] = (1 - ratio) * side_lo[wide] + ratio * side_hi[wide]
    left = 2 * rows
    kids_lo = np.repeat(los, 2, axis=0)
    kids_hi = np.repeat(his, 2, axis=0)
    kids_hi[left, axis] = at
    kids_lo[left + 1, axis] = at
    return kids_lo, kids_hi, (side_lo < at) & (at < side_hi)


def subdivide(los: np.ndarray, his: np.ndarray, decide, budget: int, ratio: float) -> bool:
    """Breadth-first walk from the boxes in the rows of los and his.

    Each level is cut to its first budget - used rows, decide(los, his)
    returns the mask of those to split, or None to stop, and split_widest
    splits them at ratio into the next level.  True when boxes were left
    undecided: cut off by the budget, stopped, or children not yet seen.
    """
    used = 0
    while len(los):
        if used >= budget:
            return True
        cut = used + len(los) > budget
        los, his = los[:budget - used], his[:budget - used]
        used += len(los)
        split = decide(los, his)
        if split is None or cut:
            return True
        los, his, _ = split_widest(los[split], his[split], ratio)
    return False


def _excluded_or_singular(gs, outer_lo: np.ndarray, outer_hi: np.ndarray,
                          cfg: SolverConfig, max_boxes: int | None) -> FiberResult:
    """The fiber of a map whose det JF vanishes identically, none of whose
    roots can be certified: complete with no roots when breadth-first
    subdivision excludes every box, singular_suspect as soon as a
    surviving box cannot be split or the next level would pass
    _ROW_BLOCK boxes in all, and budget_exhausted before a level that
    would pass max_boxes."""
    los, his = outer_lo[None, :], outer_hi[None, :]
    boxes_processed = depth = 0
    while True:
        if max_boxes is not None and boxes_processed + len(los) > max_boxes:
            return FiberResult((), "budget_exhausted", SolveStats(boxes_processed, depth))
        boxes_processed += len(los)
        alive = _reaches_zero(gs, los, his)
        los, his = los[alive], his[alive]
        if not len(los):
            return FiberResult((), "complete", SolveStats(boxes_processed, depth))
        kids_lo, kids_hi, inside = split_widest(los, his, _SPLIT_RATIO)
        if (boxes_processed + len(kids_lo) > _ROW_BLOCK or not inside.all()
                or (his - los).max(axis=1).min() <= _TARGET_WIDTH
                or depth == cfg.max_depth):
            return FiberResult((), "singular_suspect", SolveStats(boxes_processed, depth))
        los, his = kids_lo, kids_hi
        depth += 1


def _residuals(F: PolyMap, z: Sequence[Fraction | int], box: IntervalBox) -> list[Poly]:
    """The components of F - z, once box and z are checked to have F's dimension."""
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    if len(z) != F.n:
        raise ValueError(f"target has length {len(z)}, expected {F.n}")
    return [p - Fraction(t) for p, t in zip(F.components, z)]


def solve_fiber(F: PolyMap, z: Sequence[Fraction | int], box: IntervalBox,
                cfg: SolverConfig | None = None, workers: int = 1, *,
                max_boxes: int | None = None) -> FiberResult:
    """Certified solution set of F(x) = z in the closed box.

    status is "complete" only when every sub-box was either discarded by
    a sound exclusion test or certified to hold exactly one root, and no
    isolator approaches the outer boundary closer than _BOUNDARY_MARGIN;
    so z is then off F(boundary), and the signed count is the degree.
    With max_boxes the walk stops before a chunk that would take
    boxes_processed past it, and the status is budget_exhausted, whatever
    the boxes walked so far hold; None walks without a bound.  When det JF
    is the zero polynomial no root can be certified, and an exclusion-only
    subdivision of at most _ROW_BLOCK boxes decides between complete with
    no roots and singular_suspect.  Worker count never changes the result,
    only the wall time.
    """
    if max_boxes is not None and max_boxes < 1:
        raise ValueError(f"max_boxes must be positive, got {max_boxes}")
    cfg = cfg or SolverConfig()
    residuals = _residuals(F, z, box)
    det = jacobian_det(F)
    outer_lo, outer_hi = np.array(box.lo), np.array(box.hi)
    if det.is_zero:
        return _excluded_or_singular(IntervalStack(residuals), outer_lo, outer_hi, cfg,
                                     max_boxes)
    jac = [p for row in jacobian_matrix(F) for p in row]
    fiber = _fiber_stack(residuals, jac)
    roots: list[CertifiedRoot] = []
    cert_lo: list[np.ndarray] = []
    cert_hi: list[np.ndarray] = []
    stuck_lo: list[np.ndarray] = []
    stuck_hi: list[np.ndarray] = []
    boxes_processed = deepest = 0
    exhausted = False
    # chunks (depth, lo, hi) of at most _ROW_BLOCK boxes, walked depth first
    stack = [(0, outer_lo[None, :], outer_hi[None, :])]
    # a width that overflows is not below any bound the walk tests it with
    with np.errstate(over="ignore"):
        while stack:
            depth, los, his = stack.pop()
            if max_boxes is not None and boxes_processed + len(los) > max_boxes:
                exhausted = True
                break
            boxes_processed += len(los)
            deepest = max(deepest, depth)
            # one enclosure per chunk.  Exclusion: a box survives only if
            # every residual component's enclosure can reach zero
            mids, g, jx, gm = _enclose_fiber(fiber, los, his)
            alive = np.nonzero(_all_reach_zero(*g))[0]
            los, his = los[alive], his[alive]
            certify = np.zeros(len(los), dtype=bool)
            newton = ((his - los).max(axis=1) <= _KRAWCZYK_GATE) | (depth == 0)
            if newton.any():
                rows = np.nonzero(newton)[0]
                at = alive[rows]
                k_lo, k_hi, usable = _krawczyk_batch(
                    jac, los[rows], his[rows], mids[at],
                    (jx[0][:, at], jx[1][:, at]), (gm[0][:, at], gm[1][:, at]))
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
                cert_lo.append(los[certify])
                cert_hi.append(his[certify])
                los, his = los[~certify], his[~certify]
            if len(los):
                # boxes that cannot be split are given up: at the depth
                # limit, no wider than the target width, or too narrow for
                # the split point to fall strictly inside
                kids_lo, kids_hi, inside = split_widest(los, his, _SPLIT_RATIO)
                split = (inside & ((his - los).max(axis=1) > _TARGET_WIDTH)
                         & (depth < cfg.max_depth))
                stuck_lo.append(los[~split])
                stuck_hi.append(his[~split])
                pair = np.repeat(split, 2)
                los, his = kids_lo[pair], kids_hi[pair]
                stack.extend((depth + 1, los[b:b + _ROW_BLOCK], his[b:b + _ROW_BLOCK])
                             for b in range(0, len(los), _ROW_BLOCK))
        if cert_lo:
            # every certified box of the walk is refined in one batch, and
            # its determinant sign read in one enclosure
            iso_lo, iso_hi = np.concatenate(cert_lo), np.concatenate(cert_hi)
            if workers > 1:
                # rows are independent, so contiguous pieces give the serial result
                pieces = [c for c in np.array_split(np.arange(len(iso_lo)), workers) if c.size]
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    parts = list(pool.map(
                        lambda c: _refine_rows(fiber, jac, iso_lo[c], iso_hi[c]), pieces))
                iso_lo = np.concatenate([p[0] for p in parts])
                iso_hi = np.concatenate([p[1] for p in parts])
            else:
                iso_lo, iso_hi = _refine_rows(fiber, jac, iso_lo, iso_hi)
            det_lo, det_hi = det.eval_interval_batch(iso_lo, iso_hi)
            signs = np.where(det_lo > 0.0, 1, np.where(det_hi < 0.0, -1, 0))
            for lo, hi, sign in zip(iso_lo.tolist(), iso_hi.tolist(), signs.tolist()):
                if sign:
                    isolator = IntervalBox(lo, hi)
                    roots.append(CertifiedRoot(isolator, sign, isolator.max_width()))
            stuck_lo.append(iso_lo[signs == 0])
            stuck_hi.append(iso_hi[signs == 0])

    roots.sort(key=lambda r: r.isolator.midpoint())
    if exhausted:
        status = "budget_exhausted"
    elif any(r.isolator.boundary_gap(box) <= _BOUNDARY_MARGIN for r in roots):
        status = "boundary_contact"
    elif sum(len(s) for s in stuck_lo):
        stuck_kinds = _stuck_kinds(np.concatenate(stuck_lo), np.concatenate(stuck_hi),
                                   outer_lo, outer_hi, det)
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
    lo, hi = box.lo, box.hi
    return [IntervalBox(lo[:i] + (end,) + lo[i + 1:], hi[:i] + (end,) + hi[i + 1:])
            for i in range(box.dims) for end in (lo[i], hi[i])]


def _squares_lower(encs, count: int) -> np.ndarray:
    """Lower bound of the sum of the squares of the enclosures over each row."""
    acc = np.zeros(count)
    for lo, hi in encs:
        acc = _next_down(acc + _pow_arrays(lo, hi, 2)[0])
    return acc


def _sum_squares_lower(polys: IntervalStack, grads: IntervalStack,
                       los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Lower bound of the sum of the squared polynomials over each row.

    Each polynomial's natural enclosure comes first.  On the rows whose
    bound is not positive, each polynomial p is enclosed again in mean-value
    form, p(c) + sum over i of dp/dx_i(X) * (X_i - c_i) with c the row's
    float midpoint, the sum over the derivatives that are not identically
    zero and every product and sum rounded outward.  The bound of those
    rows is recomputed from the intersection of the two enclosures, in
    which a NaN bound of the form leaves the natural one.  Row k * n + i
    of grads is the derivative of polynomial k by x_(i+1), n the number of
    variables.
    """
    n = los.shape[1]
    with np.errstate(all="ignore"):
        enc_lo, enc_hi = polys.enclose(los, his)
        bound = _squares_lower(zip(enc_lo, enc_hi), len(los))
        redo = np.nonzero(~(bound > 0.0))[0]
        if redo.size:
            xl, xh = los[redo], his[redo]
            mid = xl + 0.5 * (xh - xl)
            # beyond the float range the midpoint may fall outside its side
            mid = np.where((xl <= mid) & (mid <= xh), mid, xl)
            off_lo, off_hi = _next_down(xl - mid), _next_up(xh - mid)
            at_mid = polys.enclose(mid, mid)
            g_lo, g_hi = grads.enclose(xl, xh)
            tight = []
            for k, (lo, hi, mv_lo, mv_hi) in enumerate(zip(enc_lo, enc_hi, *at_mid)):
                for i in range(n):
                    if grads.polys[k * n + i].is_zero:
                        continue
                    t_lo, t_hi = _mul_arrays(g_lo[k * n + i], g_hi[k * n + i],
                                             off_lo[:, i], off_hi[:, i])
                    mv_lo = _next_down(mv_lo + t_lo)
                    mv_hi = _next_up(mv_hi + t_hi)
                tight.append((np.fmax(lo[redo], mv_lo), np.fmin(hi[redo], mv_hi)))
            bound[redo] = _squares_lower(tight, len(redo))
    return bound


class _BoxTree:
    """Every box a clearance heap has enclosed, addressed by an integer id.

    Rows id of lo and hi hold the box's bounds, bound[id] its lower bound
    of the sum of squares, first[id] the id of its first child (the second
    child is first[id] + 1), or -1 while its children are unknown, and
    inside[id] is 1 when its split point fell strictly inside the side.
    first and inside are compact arrays, since the 20,000-split calls of
    the path clearance keep tens of thousands of boxes.  polys and grads
    are the stacks of the polynomials and of their derivatives that
    _sum_squares_lower reads, compiled once per tree.
    """

    def __init__(self, polys, los: np.ndarray, his: np.ndarray):
        self.polys = IntervalStack(polys)
        self.grads = IntervalStack([p.diff(i) for p in polys for i in range(1, p.nvars + 1)])
        self.lo, self.hi = los, his
        self.bound = _sum_squares_lower(self.polys, self.grads, los, his).tolist()
        self.first = array("q", [-1] * len(self.bound))
        self.inside = bytearray(len(self.bound))

    def split(self, parents: list[int], depth: int) -> None:
        """Split the parents depth levels deep and enclose every descendant
        in one batch; the children of the deepest level stay unknown.

        A child's bound is raised to its parent's where lower, which holds
        on the child as it lies inside the parent: the mean-value enclosure
        is not inclusion-isotone, and the sharpening splits of
        certified_min_sum_squares must never lower the bound.
        """
        lo, hi = self.lo[parents], self.hi[parents]
        levels = []
        with np.errstate(all="ignore"):
            for _ in range(depth):
                lo, hi, inside = split_widest(lo, hi, _SPLIT_RATIO)
                levels.append((lo, hi, inside.tolist()))
        base = len(self.first)
        for j, node in enumerate(parents):
            self.first[node] = base + 2 * j
            self.inside[node] = levels[0][2][j]
        # row i of a level is node start + i, and its children are rows
        # 2i and 2i + 1 of the next level, which starts at start + len(lo)
        for k, (lo, _, _) in enumerate(levels):
            start = len(self.first)
            if k + 1 < depth:
                self.first.extend(range(start + len(lo), start + 3 * len(lo), 2))
                self.inside.extend(levels[k + 1][2])
            else:
                self.first.extend([-1] * len(lo))
                self.inside.extend(bytes(len(lo)))
        kids_lo = np.concatenate([level[0] for level in levels])
        kids_hi = np.concatenate([level[1] for level in levels])
        bound = _sum_squares_lower(self.polys, self.grads, kids_lo, kids_hi)
        above = np.array([self.bound[node] for node in parents])
        start = 0
        for lo, _, _ in levels:
            above = np.maximum(bound[start:start + len(lo)], np.repeat(above, 2))
            self.bound.extend(above.tolist())
            start += len(lo)
        end = len(self.first)
        if end > len(self.lo):
            rows = max(end, len(self.lo) * 3 // 2)
            self.lo = np.concatenate([self.lo, np.empty((rows - len(self.lo), kids_lo.shape[1]))])
            self.hi = np.concatenate([self.hi, np.empty((rows - len(self.hi), kids_hi.shape[1]))])
        self.lo[base:end] = kids_lo
        self.hi[base:end] = kids_hi


def _lookahead(heap: list, tree: _BoxTree) -> list[int]:
    """Boxes with unknown children to split in the next batch.

    A best-first walk over the heap's entries and the known descendants of
    each, on the key (lower bound, id): up to the first box whose children
    are unknown, and to ties in the bound, this is the order in which the
    heap will pop them, so the popped box comes first and the boxes after
    it are the next ones likely to be popped.  While the weakest bound reaches zero every box that
    reaches zero is popped unless a budget ends the call, so the walk takes
    all of them it reaches, up to _BATCH_ROWS // 2.
    """
    zero = heap[0][0] <= 0.0
    limit = _BATCH_ROWS // 2 if zero else _LOOKAHEAD
    parents: list[int] = []
    # entries are (lower bound, id, index in heap or -1 for a box not in it)
    walk = [(heap[0][0], heap[0][3], 0)]
    while walk and len(parents) < limit:
        low, node, at = heapq.heappop(walk)
        if zero and low > 0.0:
            break
        kid = tree.first[node]
        if kid < 0:
            parents.append(node)
        else:
            heapq.heappush(walk, (tree.bound[kid], kid, -1))
            heapq.heappush(walk, (tree.bound[kid + 1], kid + 1, -1))
        if at >= 0:
            for child in (2 * at + 1, 2 * at + 2):
                if child < len(heap):
                    heapq.heappush(walk, (heap[child][0], heap[child][3], child))
    return parents


def certified_min_sum_squares(polys: Sequence[Poly], regions: Sequence[IntervalBox],
                              max_depth: int = 40, split_budget: int = 20000,
                              improve_splits: int = 300):
    """Certified lower bound for min over the regions of sum of squares.

    Returns (bound, boxes_examined, deepest, failure_message).  bound is
    0.0 when some sub-box could not be pushed off zero within budget —
    a sound but useless bound, reported as failure.

    Once every box is pushed off zero, improve_splits more splits of the
    weakest box sharpen the bound.  That phase exists for callers that
    report the bound itself (the degree command's clearance, and the
    integral's weight scale derived from it).  It never changes whether
    the call fails or its failure text, as it starts only once every box
    is positive and a budget or depth that runs out in it ends the phase,
    not the call; and it never lowers the bound, as a child's bound is
    raised to its parent's where lower (_BoxTree.split).  Callers that read
    only success or failure pass improve_splits=0.

    Best-first on the key (lower bound, seq), seq numbering boxes as they
    are pushed; a heap entry names its box by its id in a _BoxTree.  When
    the popped box's children are not known yet, it and the boxes that
    _lookahead picks are split several levels deep, and every descendant
    is enclosed in one batch; the loop itself only reads children from the
    tree.  Children depend only on their box and the pop order only on the
    keys, so this equals splitting one box at a time.
    """
    if not regions:
        return 0.0, 0, 0, "no regions supplied"
    tree = _BoxTree(polys, np.array([r.lo for r in regions]),
                    np.array([r.hi for r in regions]))
    heap = [(low, node, 0, node) for node, low in enumerate(tree.bound)]
    heapq.heapify(heap)
    seq = examined = len(heap)
    deepest = splits = sharpened = 0
    while True:
        # the weakest box is split until every box is strictly positive;
        # then a fixed budget of splits sharpens the weakest enclosure,
        # which is usually loose overestimation
        low, _, depth, node = heap[0]
        positive = low > 0.0
        if positive and sharpened >= improve_splits:
            break
        if depth >= max_depth:
            failure = f"sum-of-squares enclosure still reaches {low} at depth {depth}"
        elif not positive and splits >= split_budget:
            failure = "split budget exhausted"
        else:
            if tree.first[node] < 0:
                parents = _lookahead(heap, tree)
                # the most levels with len(parents) * (2^(levels+1) - 2) <= _BATCH_ROWS
                tree.split(parents, (_BATCH_ROWS // len(parents) + 2).bit_length() - 2)
            failure = None if tree.inside[node] else (
                "degenerate box still encloses zero; the minimum may be zero")
        if failure is not None:
            if positive:
                break
            return 0.0, examined, deepest, failure
        if positive:
            sharpened += 1
        else:
            splits += 1
        kid = tree.first[node]
        heapq.heapreplace(heap, (tree.bound[kid], seq, depth + 1, kid))
        heapq.heappush(heap, (tree.bound[kid + 1], seq + 1, depth + 1, kid + 1))
        seq += 2
        examined += 2
        deepest = max(deepest, depth + 1)
    return heap[0][0], examined, deepest, None


def certified_clearance(polys: Sequence[Poly], regions: Sequence[IntervalBox],
                        improve_splits: int = 300) -> ClearanceResult:
    """Certified lower bound m with |(polys)| >= m over the regions.

    m is the square root of certified_min_sum_squares' bound, one ulp down
    to guard the rounding of sqrt itself; m = 0 with its failure text when
    that bound could not be certified.  improve_splits is the number of
    sharpening splits spent on m once it is positive; ok and failure do not
    depend on it, so a caller that reads only those passes 0.
    """
    bound_sq, examined, deepest, failure = certified_min_sum_squares(
        polys, regions, improve_splits=improve_splits)
    if failure is not None:
        return ClearanceResult(0.0, examined, deepest, failure)
    m = max(0.0, math.nextafter(math.sqrt(bound_sq), -math.inf))
    return ClearanceResult(m, examined, deepest, None)


def boundary_clearance(F: PolyMap, z: Sequence[Fraction | int], box: IntervalBox,
                       improve_splits: int = 300) -> ClearanceResult:
    """Certified lower bound m with min over the box boundary of |F - z| >= m.

    m = 0 means the certification failed (the target may touch the image
    of the boundary), never that the true clearance is known to be zero.
    improve_splits is certified_clearance's: 0 when only ok and failure
    are read.
    """
    return certified_clearance(_residuals(F, z, box), box_faces(box), improve_splits)
