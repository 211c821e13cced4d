"""Injectivity analysis built on certified fibers and degree counts.

Everything here reduces injectivity questions to facts the solver can
certify: how many points a fiber holds, what the Jacobian sign does,
whether two target points sit on one side of the boundary image.  None
of it proves injectivity over the whole plane — reports carry the box
they were computed on, and absence of a collision witness is never
treated as proof that no collision exists.

The sign survey's subdivision and the collision branch-and-prune are
fibersolve.subdivide walks at the midpoint, which decide a level with one
enclosure call: the determinant's own IntervalStack, or the stack of the
differences.  The survey's call also encloses a float box about each
cell's midpoint, and it evaluates det JF exactly at a midpoint, or at a
sample of its sampling pass, only when that value could add evidence: its
enclosure reaches zero, or proves a sign the survey has not yet seen.
The prune is skipped where a walk over the cells that meet the diagonal,
which encloses nothing, proves that its budget runs out before it reaches
a leaf.  The sampled pair search finds neighbouring image cells by
searchsorted on integer cell keys.  Collision seeds are polished by one
stacked float Newton.

A collision witness is two points _WITNESS_SEPARATION apart or more whose
images differ by _WITNESS_RESIDUAL or less, both checked exactly.  The
pipeline doubles its box radius from _INITIAL_RADIUS up to _MAX_RADIUS.
The base and every query read their degree by one rule: for a plane map
the winding number of F - z along the box boundary, which where decided
also certifies that z is off F(boundary).  Where it is None, and for
n != 2, the sum-of-squares boundary clearance certifies that instead, and
the degree is the signed count of the solved fiber.  A decided winding
number of 0 or +-1 needs no solve; any other is checked against the
signed count of the solved fiber, whose roots a collision witness needs.
Step 1 reads the base's fiber size from its degree the same way, and
where the base is F(0), a known root, checks that size is at least 1.
For each query the pipeline first finds the smallest radius whose box
holds a root of the query (a nonzero degree); from there it checks the
bounded certificates first at each radius: the query off F(boundary) and
the base-to-query path segment, by degree.segment_failure (exact for a
plane map, the sum-of-squares clearance under a budget otherwise), then
the query's degree and the base's, whose fiber solves cost more as the
box grows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polycore import IntervalBox, IntervalStack
from .mapforms import PolyMap, jacobian_det, jacobian_matrix, keller_check, recognize_form
from .fibersolve import (
    FiberResult,
    SolverConfig,
    _reaches_zero,
    _row_blocks,
    boundary_clearance,
    solve_fiber,
    split_widest,
    subdivide,
)
from .degree import segment_failure, winding_degree

Point = tuple[Fraction, ...]
Evidence = tuple[Point, Fraction]


def _rational_point(values: Sequence[float | Fraction | int]) -> Point:
    return tuple(Fraction(v) for v in values)


def _midpoint_exact(lo: Sequence[float], hi: Sequence[float]) -> Point:
    return tuple(Fraction(a) + (Fraction(b) - Fraction(a)) / 2 for a, b in zip(lo, hi))


def _midpoint_boxes(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float boxes, one per row, each holding the exact midpoint
    (lo + hi) / 2 of that row's box.

    0.5*lo + 0.5*hi is widened by two ulps on each side, which covers the
    rounding of both halvings (subnormal sides included) and of the sum.
    A row with a side that is not finite has no exact midpoint; it gets
    NaN sides, which any enclosure that reads them widens to (-inf, inf).
    """
    with np.errstate(all="ignore"):
        mid = 0.5 * los + 0.5 * his
        mid = np.where(np.isfinite(mid).all(axis=1, keepdims=True), mid, np.nan)
        return (np.nextafter(np.nextafter(mid, -np.inf), -np.inf),
                np.nextafter(np.nextafter(mid, np.inf), np.inf))


# ---------------------------------------------------------------------
# Jacobian sign survey
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyBudget:
    samples: int = 2048
    max_boxes: int = 2048
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1 or self.max_boxes < 1:
            raise ValueError("survey budget fields must be positive")
        if self.seed < 0:
            raise ValueError("survey seed must be non-negative")


@dataclass(frozen=True)
class SignSurvey:
    classification: str  # positive | negative | mixed | vanishing_found
    evidence: tuple[Evidence, ...]
    certified: bool
    partial: bool
    samples_used: int
    boxes_used: int
    detail: str | None = None


# survey classification by the sign of a determinant known to keep it
_SIGN_CLASSES = {1: "positive", -1: "negative", 0: "vanishing_found"}


def jacobian_sign_survey(F: PolyMap, box: IntervalBox,
                         budget: SurveyBudget | None = None) -> SignSurvey:
    """Classify the sign behavior of det JF over the box.

    Constant determinants are answered exactly.  Otherwise a sampling
    pass looks for exact opposite-sign witnesses or an exact zero, and a
    subdivision pass tries to certify a uniform sign by interval
    enclosure.  When the box budget runs out first, the classification
    reflects the evidence gathered so far and is flagged partial.

    Exact values of det JF are taken at up to 4 samples of each float
    sign, then at the midpoints of subdivision cells that straddle zero
    or carry a sign that still lacks evidence, except where an enclosure
    of det JF over the sample's degenerate box, or over a float box about
    the midpoint, proves a sign the survey already holds: such a value
    could change no evidence.
    """
    budget = budget or SurveyBudget()
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    det = jacobian_det(F)
    status = keller_check(F)
    if status.kind != "nonconstant":
        c = status.constant_value
        return SignSurvey(
            classification=_SIGN_CLASSES[(c > 0) - (c < 0)],
            evidence=((_midpoint_exact(box.lo, box.hi), c),),
            certified=True, partial=False, samples_used=0, boxes_used=0,
            detail=f"constant Jacobian determinant {c}" if c
            else "Jacobian determinant is identically zero")

    # exact values found so far, the first one of each sign: an exact zero
    # certifies vanishing, two strict opposite signs certify mixed
    found: dict[int, Evidence] = {}

    def record(point: Point) -> None:
        exact = det.eval(point)
        found.setdefault((exact > 0) - (exact < 0), (point, exact))

    def settled() -> bool:
        return 0 in found or len(found) == 2

    # sampling pass: exact re-evaluation turns float hints into proof-grade
    # evidence; all of them are read before either verdict is drawn
    rng = np.random.default_rng(budget.seed)
    lo, hi = np.array(box.lo), np.array(box.hi)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = lo[None, :] + rng.random((budget.samples, F.n)) * (hi - lo)[None, :]
        vals = det.eval_array(pts)
    # a side whose width overflows puts samples off the float range: unread
    vals[~np.isfinite(pts).all(axis=1)] = np.nan
    chosen = np.concatenate((np.nonzero(vals > 0)[0][:4], np.nonzero(vals < 0)[0][:4],
                             np.nonzero(vals == 0)[0][:4]))
    # a sample is a float point, so the enclosure over its degenerate box
    # holds its exact value: where that proves a sign already held, the
    # value could not change found
    enc_lo, enc_hi = det.eval_interval_batch(pts[chosen], pts[chosen])
    proved = ((enc_lo > 0.0).astype(int) - (enc_hi < 0.0)).tolist()
    for idx, sign in zip(chosen.tolist(), proved):
        if not (sign and sign in found):
            record(_rational_point(pts[idx]))

    # subdivision pass, unless sampling settled: certify one uniform sign,
    # or catch a zero at the midpoint of a straddling cell.  Each level's
    # cells and a float box about each cell's midpoint are enclosed in one
    # batched call, then the cells are decided in FIFO order.
    boxes_used = 0

    def decide(los, his):
        nonlocal boxes_used
        if settled():
            return None
        count = len(los)
        mid_lo, mid_hi = _midpoint_boxes(los, his)
        lo, hi = det.eval_interval_batch(np.concatenate((los, mid_lo)),
                                         np.concatenate((his, mid_hi)))
        enc_lo, enc_hi = lo[:count], hi[:count]
        straddle = (enc_lo <= 0.0) & (enc_hi >= 0.0)
        # the sign of det JF at each cell's midpoint where its enclosure
        # proves one, 0 where the enclosure reaches 0
        proved = ((lo[count:] > 0.0).astype(int) - (hi[count:] < 0.0)).tolist()
        for k in range(count):
            boxes_used += 1
            # exact midpoint values: on a straddling cell always, on a
            # signed cell only while that sign still lacks evidence; but
            # never where the midpoint's sign is proved and already held,
            # as that value could not change found
            if proved[k] and proved[k] in found:
                continue
            if (straddle[k] or (1 not in found and enc_lo[k] > 0.0)
                    or (-1 not in found and enc_hi[k] < 0.0)):
                record(_midpoint_exact(los[k].tolist(), his[k].tolist()))
                if settled():
                    return None
        return straddle

    left = subdivide(lo[None, :], hi[None, :], decide, budget.max_boxes, 0.5)
    # unless settled, found holds one sign at most, or none when the
    # determinant hugs zero as far as this budget can see.  That sign is
    # certified only if the walk left no cell undecided.
    sign = next(iter(found), 0)
    certified = settled() or (not left and sign != 0)
    if 0 in found:
        classification, evidence = "vanishing_found", (found[0],)
    elif settled():
        classification, evidence = "mixed", (found[1], found[-1])
    else:
        classification, evidence = _SIGN_CLASSES[sign], tuple(found.values())
    return SignSurvey(
        classification=classification, evidence=evidence, certified=certified,
        partial=not certified, samples_used=budget.samples, boxes_used=boxes_used,
        detail=None if certified else "box budget exhausted before certification")


# ---------------------------------------------------------------------
# Origin fiber of a cubic-form map
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class OriginCheck:
    verdict: str  # verified_in_box | violated | inconclusive
    fiber: FiberResult | None
    detail: str | None = None


def origin_injectivity_cubic(F: PolyMap, box: IntervalBox,
                             cfg: SolverConfig | None = None) -> OriginCheck:
    """Check that the origin is the only zero of a cubic-form Keller map in the box.

    A second certified zero contradicts what the structure theory
    promises for such maps, so it is reported loudly as `violated`
    rather than silently folded into a count.
    """
    witness = recognize_form(F)
    if witness.form == "neither":
        raise ValueError("map is not in cubic or cube-linear form")
    if not keller_check(F).is_keller:
        raise ValueError("map does not have a nonzero constant Jacobian determinant")
    origin = (Fraction(0),) * F.n
    if not box.contains_point(origin):
        raise ValueError("box must contain the origin")
    fiber = solve_fiber(F, origin, box, cfg)
    if fiber.status != "complete":
        return OriginCheck("inconclusive", fiber, f"solver status {fiber.status}")
    holders = [r for r in fiber.roots if r.isolator.contains_point(origin)]
    if len(fiber.roots) == 1 and holders:
        return OriginCheck("verified_in_box", fiber, None)
    if len(fiber.roots) > 1:
        return OriginCheck(
            "violated", fiber,
            f"{len(fiber.roots)} certified zeros found; the origin should be alone. "
            "This contradicts the structural expectation for cubic-form Keller maps "
            "— treat as a major finding or a solver defect, do not suppress.")
    raise RuntimeError(
        "complete origin fiber without an isolator containing the origin; "
        "this is a soundness bug")


# ---------------------------------------------------------------------
# Fiber-count probe
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    kind: str  # singleton | multiple | inconclusive
    count: int | None
    fiber: FiberResult


def global_injectivity_probe(F: PolyMap, b: Sequence[Fraction | int],
                             box: IntervalBox,
                             cfg: SolverConfig | None = None) -> ProbeResult:
    """Certified fiber count of b within the box.

    `multiple` covers every complete count other than one, including
    zero (b outside the image of the box).  The answer is restricted to
    the box; it says nothing about points outside it.
    """
    fiber = solve_fiber(F, b, box, cfg)
    if fiber.status != "complete":
        return ProbeResult("inconclusive", None, fiber)
    count = len(fiber.roots)
    return ProbeResult("singleton" if count == 1 else "multiple", count, fiber)


# ---------------------------------------------------------------------
# Collision witnesses
# ---------------------------------------------------------------------

# least distance between the two points of a witness, most between images
_WITNESS_SEPARATION = 0.1
_WITNESS_RESIDUAL = 1e-8


@dataclass(frozen=True)
class CollisionWitness:
    p1: Point
    p2: Point
    separation: float
    residual: float


def _exact_pair_check(F: PolyMap, p1: Point, p2: Point) -> CollisionWitness | None:
    sep_sq = sum((a - b) ** 2 for a, b in zip(p1, p2))
    if sep_sq < Fraction(_WITNESS_SEPARATION) ** 2:
        return None
    res_sq = Fraction(0)
    for comp in F.components:
        diff = comp.eval(p1) - comp.eval(p2)
        res_sq += diff * diff
    if res_sq > Fraction(_WITNESS_RESIDUAL) ** 2:
        return None
    return CollisionWitness(
        p1=p1, p2=p2,
        separation=math.sqrt(float(sep_sq)),
        residual=math.sqrt(float(res_sq)))


def witness_from_fiber(F: PolyMap, fiber: FiberResult) -> CollisionWitness | None:
    """Turn a multi-root certified fiber into a collision witness pair."""
    points = [_midpoint_exact(r.isolator.lo, r.isolator.hi) for r in fiber.roots]
    for p1, p2 in itertools.combinations(points, 2):
        witness = _exact_pair_check(F, p1, p2)
        if witness is not None:
            return witness
    return None


def _solve_exact(A: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    n = len(A)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [v - factor * w for v, w in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def _newton_float(F: PolyMap, jac, targets: np.ndarray, x0: np.ndarray,
                  iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked float Newton for F(x) = targets[k] from x0[k]; returns (x, ok).

    Row k succeeds at a residual below 1e-13, or below 1e-9 after iters
    steps.  It fails on a non-finite residual or iterate, or a singular
    Jacobian (slogdet sign 0, the zero-pivot case in which solve raises).
    """
    x = x0.astype(np.float64)
    count, n = x.shape
    ok = np.zeros(count, dtype=bool)
    last = np.full(count, math.inf)
    active = np.arange(count)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            pts = x[active]
            pows: dict = {}
            res = np.stack([comp.eval_array(pts, pows) for comp in F.components],
                           axis=1) - targets[active]
            finite = np.isfinite(res).all(axis=1)
            active, pts, res = active[finite], pts[finite], res[finite]
            last[active] = np.abs(res).max(axis=1)
            done = last[active] < 1e-13
            ok[active[done]] = True
            active, pts, res = active[~done], pts[~done], res[~done]
            if not active.size:
                break
            J = np.empty((len(active), n, n))
            pows = {}
            for i in range(n):
                for j in range(n):
                    J[:, i, j] = jac[i][j].eval_array(pts, pows)
            regular = np.linalg.slogdet(J)[0] != 0
            active, pts, J, res = active[regular], pts[regular], J[regular], res[regular]
            x[active] = pts - np.linalg.solve(J, res[:, :, None])[:, :, 0]
            active = active[np.isfinite(x[active]).all(axis=1)]
        else:
            ok[active] = last[active] < 1e-9
    return x, ok


def _newton_exact(F: PolyMap, jac, target: Sequence[Fraction], x0: Point,
                  steps: int, cap: int = 1 << 64) -> Point:
    x = list(x0)
    n = F.n
    for _ in range(steps):
        res = [F.components[i].eval(tuple(x)) - target[i] for i in range(n)]
        J = [[jac[i][j].eval(tuple(x)) for j in range(n)] for i in range(n)]
        step = _solve_exact(J, res)
        if step is None:
            break
        x = [(xi - si).limit_denominator(cap) for xi, si in zip(x, step)]
    return tuple(x)


# Float Newton steps per collision seed; image-grid cells per axis of the
# sampled pair search, and how many samples of one cell it pairs.
_NEWTON_ITERS = 50
_BUCKET_CELLS = 128
_CELL_CAP = 16


@dataclass(frozen=True)
class CollisionConfig:
    samples: int = 4096
    seed: int = 0
    prune_boxes: int = 2048
    max_candidates: int = 48
    max_pairs: int = 64

    def __post_init__(self):
        # 0 samples is valid: the search then polishes prune seeds only
        if self.samples < 0 or self.max_pairs < 0:
            raise ValueError("collision samples and max_pairs must be non-negative")
        if self.seed < 0:
            raise ValueError("collision seed must be non-negative")


def _off_diagonal(los: np.ndarray, his: np.ndarray, n: int) -> np.ndarray:
    """Mask of the cells of the doubled box (x in the first n columns, y in
    the last n) not within the _WITNESS_SEPARATION band of the diagonal:
    some outward-rounded gap x_i - y_i reaches past the separation.  A gap
    that overflows is unbounded on that side."""
    sep = _WITNESS_SEPARATION
    with np.errstate(over="ignore"):
        gap_lo = np.nextafter(los[:, :n] - his[:, n:], -np.inf)
        gap_hi = np.nextafter(his[:, :n] - los[:, n:], np.inf)
    return ((gap_lo <= -sep) | (gap_hi >= sep)).any(axis=1)


# most refinements of one side that _leaf_depth follows (2^8 pieces)
_SIDE_REFINEMENTS = 8


def _leaf_depth(los: Sequence[float], his: Sequence[float], leaf_width: float) -> int | None:
    """The fewest splits by split_widest at 0.5 after which a cell of the
    box with sides [los[s], his[s]] can have every side no wider than
    leaf_width; None when a side is degenerate, wider than the float
    range, or takes more than _SIDE_REFINEMENTS refinements.

    Each split refines one side with a formula of that side's bounds
    alone, so a side's pieces after k refinements are those of refining
    it alone k times.  The least k that gives a piece no wider than
    leaf_width is found for each side, and a cell is that narrow only
    once every side has had its k: the sum is the depth.
    """
    if not math.isfinite(leaf_width):
        return None
    depth = 0
    for lo, hi in zip(los, his):
        if not 0.0 < hi - lo < math.inf:
            return None
        side_lo, side_hi = np.array([[lo]]), np.array([[hi]])
        for k in range(_SIDE_REFINEMENTS + 1):
            if (side_hi - side_lo <= leaf_width).any():
                depth += k
                break
            side_lo, side_hi, _ = split_widest(side_lo, side_hi, 0.5)
        else:
            return None
    return depth


def _no_leaf_within(box: IntervalBox, n: int, leaf_width: float, budget: int) -> bool:
    """True when the prune walk over the doubled box provably spends its
    budget before it decides a cell no wider than leaf_width, and so
    returns no candidate.

    No cell shallower than _leaf_depth is that narrow, so down to that
    depth the walk splits every cell it keeps.  It keeps every cell that
    passes _off_diagonal and meets the diagonal (x_i and y_i meet for
    every i): such a cell holds a point (x, x), where every
    F_i(x) - F_i(y) is exactly 0, so a sound enclosure reaches 0.  The
    children of those cells are therefore all in the walk's next level.
    This walk follows only them, under the same budget; when it is cut off
    above the leaf depth, the prune walk, each of whose levels holds the
    matching level here, is cut off no deeper.
    """
    leaf_depth = _leaf_depth(box.lo * 2, box.hi * 2, leaf_width)
    if leaf_depth is None:
        return False
    levels = 0  # levels decided, the one at the leaf depth included

    def decide(los, his):
        nonlocal levels
        levels += 1
        if levels > leaf_depth:
            return None
        diagonal = ((los[:, :n] <= his[:, n:]) & (los[:, n:] <= his[:, :n])).all(axis=1)
        return diagonal & _off_diagonal(los, his, n)

    return (subdivide(np.array([box.lo * 2]), np.array([box.hi * 2]), decide, budget, 0.5)
            and levels <= leaf_depth)


def _prune_candidates(F: PolyMap, box: IntervalBox, cfg: CollisionConfig) -> list[Point]:
    """Branch-and-prune on the doubled system F(x) - F(y) = 0.

    The solution set is never isolated (the diagonal always solves it),
    so this pass cannot certify; it only narrows down off-diagonal
    regions worth polishing.  Cells entirely within the _WITNESS_SEPARATION
    band of the diagonal are discarded, and only leaf cells, no wider than
    1/16 of the box's widest side, become candidates.

    The walk is skipped, and no candidate returned, where _no_leaf_within
    proves that its cfg.prune_boxes budget runs out before it decides a
    leaf: the walk would then return none either.  On boxes of two or
    more dimensions the diagonal cells alone usually fill that budget
    first.
    """
    n = F.n
    leaf_width = box.max_width() / 16.0
    if _no_leaf_within(box, n, leaf_width, cfg.prune_boxes):
        return []
    diffs = IntervalStack([comp.pad(n) - comp.shift(n) for comp in F.components])
    candidates: list[Point] = []

    def decide(los, his):
        room = cfg.max_candidates - len(candidates)
        if room <= 0:
            return None
        keep = _off_diagonal(los, his, n) & _reaches_zero(diffs, los, his)
        with np.errstate(over="ignore"):
            leaf = (his - los).max(axis=1) <= leaf_width
        candidates.extend(_midpoint_exact(los[k].tolist(), his[k].tolist())
                          for k in np.nonzero(keep & leaf)[0][:room].tolist())
        return keep & ~leaf

    subdivide(np.array([box.lo * 2]), np.array([box.hi * 2]), decide, cfg.prune_boxes, 0.5)
    return candidates


def _sampled_pairs(F: PolyMap, box: IntervalBox,
                   cfg: CollisionConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """The cfg.max_pairs sampled point pairs whose images lie closest.

    The images of cfg.samples uniform points are binned on a grid of
    _BUCKET_CELLS cells per axis.  A pair (j, i) is scored when j < i, j is
    among the first _CELL_CAP samples of its own cell, that cell is one of
    the 3^n neighbours of the cell of i, and the points are at least
    0.8 * _WITNESS_SEPARATION apart in the max norm.  Its score is the max-norm
    image gap in cell widths; pairs come back in (gap, j, i) order.

    Each cell is one integer key, so the neighbour lookups are searchsorted
    calls on the sorted keys of the cell members, one per neighbour offset
    and block of _ROW_BLOCK samples i; each keeps only its best
    cfg.max_pairs pairs.
    """
    n = F.n
    rng = np.random.default_rng(cfg.seed)
    lo = np.array(box.lo)
    # a side whose width overflows puts samples off the float range
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.array(box.hi) - lo
        pts = lo[None, :] + rng.random((cfg.samples, n)) * span[None, :]
    pows: dict = {}
    images = np.stack([comp.eval_array(pts, pows) for comp in F.components], axis=1)
    finite = np.all(np.isfinite(images), axis=1)
    pts, images = pts[finite], images[finite]
    count = pts.shape[0]
    if count < 2:
        return []
    # percentile-clipped spans: high-degree maps blow up near the box
    # corners and would otherwise flatten the whole bucket grid
    img_lo = np.percentile(images, 0.5, axis=0)
    img_hi = np.percentile(images, 99.5, axis=0)
    img_span = np.maximum(img_hi - img_lo, 1e-30)
    cells = np.clip(
        np.floor((images - img_lo[None, :]) / img_span[None, :] * _BUCKET_CELLS),
        -1, _BUCKET_CELLS + 1).astype(np.int64)
    scale = img_span / _BUCKET_CELLS
    # Cell digits run 1.._BUCKET_CELLS + 3, so a neighbour's run
    # 0.._BUCKET_CELLS + 4.  In base _BUCKET_CELLS + 4 a neighbour outside
    # the grid keeps a 0 digit, or overflows the top one, after carrying:
    # its key is never that of a cell.  Past int64, keys are Python ints.
    base = _BUCKET_CELLS + 4
    weights = np.array([base ** k for k in range(n)],
                       dtype=np.int64 if 2 * base ** n < 2 ** 63 else object)
    keys = (cells + 2) @ weights
    shifts = (np.indices((3,) * n).reshape(n, -1).T - 1) @ weights
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # occupancy cap: the first _CELL_CAP samples of a cell are its members,
    # which keeps the pairing near-linear when the image piles most samples
    # into a few cells
    member = np.arange(count) - np.searchsorted(sorted_keys, sorted_keys) < _CELL_CAP
    members, member_keys = order[member], sorted_keys[member]
    min_sep = 0.8 * _WITNESS_SEPARATION
    kept = []
    for block in _row_blocks(count):
        rows = np.arange(count)[block]
        for shift in shifts:
            wanted = keys[block] + shift
            first = np.searchsorted(member_keys, wanted, side="left")
            found = np.searchsorted(member_keys, wanted, side="right") - first
            i = np.repeat(rows, found)
            j = members[np.arange(found.sum()) + np.repeat(first - np.cumsum(found) + found,
                                                           found)]
            i, j = i[j < i], j[j < i]
            far = np.abs(pts[i] - pts[j]).max(axis=1) >= min_sep
            i, j = i[far], j[far]
            gap = np.abs((images[i] - images[j]) / scale).max(axis=1)
            best = np.lexsort((i, j, gap))[:cfg.max_pairs]
            kept.append((gap[best], j[best], i[best]))
    gap, j, i = (np.concatenate(part) for part in zip(*kept))
    # polish the most promising near-collisions first
    best = np.lexsort((i, j, gap))[:cfg.max_pairs]
    return [(pts[a].copy(), pts[b].copy()) for a, b in zip(j[best], i[best])]


def collision_search(F: PolyMap, box: IntervalBox,
                     cfg: CollisionConfig | None = None) -> CollisionWitness | None:
    """Search the box for two separated points with (exactly checked) equal images.

    Returns the first witness that survives exact rational verification
    of both witness thresholds, or None when the budget is spent.  None means
    "not found", never "none exists".
    """
    cfg = cfg or CollisionConfig()
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    n = F.n
    jac = jacobian_matrix(F)
    seeds = [np.array([float(v) for v in mid]) for mid in _prune_candidates(F, box, cfg)]
    seeds.extend(np.concatenate(pair) for pair in _sampled_pairs(F, box, cfg))
    if not seeds:
        return None
    # pull both endpoints of every seed onto their shared target in one
    # stacked Newton (rows 0..S-1 the first endpoints, S..2S-1 the second)
    starts = np.stack(seeds)
    count = len(starts)
    ends = np.concatenate([starts[:, :n], starts[:, n:]])
    pows: dict = {}
    images = np.stack([comp.eval_array(ends, pows) for comp in F.components], axis=1)
    with np.errstate(all="ignore"):
        targets = 0.5 * (images[:count] + images[count:])
    polished, ok = _newton_float(F, jac, np.concatenate([targets, targets]), ends,
                                 _NEWTON_ITERS)
    # sharpen exactly in seed order: prune candidates, then sampled pairs
    for k, target in enumerate(targets):
        p1f, p2f = polished[k], polished[count + k]
        if not (ok[k] and ok[count + k]):
            continue
        if np.max(np.abs(p1f - p2f)) < 0.9 * _WITNESS_SEPARATION:
            continue
        target_rat = [Fraction(float(t)) for t in target]
        p1 = _newton_exact(F, jac, target_rat, _rational_point(p1f), steps=2)
        p2 = _newton_exact(F, jac, target_rat, _rational_point(p2f), steps=2)
        witness = _exact_pair_check(F, p1, p2)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------
# The injectivity pipeline
# ---------------------------------------------------------------------

# Radius of the first and the largest box the pipeline tries.
_INITIAL_RADIUS = 1
_MAX_RADIUS = 1 << 20


@dataclass(frozen=True)
class QueryRecord:
    query: Point
    radius: Fraction | None
    fiber_size: int | None
    degree_at_query: int | None
    degree_at_base: int | None
    path_certified: bool
    note: str | None = None


@dataclass(frozen=True)
class InjectivityReport:
    verdict: str  # consistent_with_injectivity | non_injective_witness | inconclusive
    base_point: Point
    # deg * sign(det JF) at Step 1's radius; None where no radius certified it
    base_fiber_size: int | None
    records: tuple[QueryRecord, ...]
    witness: CollisionWitness | None = None
    detail: str | None = None


class _GrowNeeded(Exception):
    pass


def _certificates(F: PolyMap, z: Point, solver: SolverConfig | None):
    """The one degree rule of a point, as two functions of the radius,
    each over the cube of that radius about the origin.

    off_boundary certifies that z is off F(boundary) and returns the
    winding degree of z, None where winding_degree gives None (z on
    F(boundary), where the clearance fails too) and always for n != 2: a
    decided winding degree is itself that certificate, and elsewhere the
    boundary clearance is.  degree(radius) returns the degree of z and
    its fiber, or None for the fiber where none was solved.  A decided
    winding degree of 0 or +-1 is the answer; otherwise the fiber is
    solved, after off_boundary since the solver has no box budget, and
    must be complete.  Its signed count is the degree, which a decided
    winding degree must equal.  A clearance or fiber that fails raises
    _GrowNeeded, and is not kept."""
    @functools.cache
    def off_boundary(radius: Fraction) -> int | None:
        box = IntervalBox.cube(F.n, radius)
        deg = winding_degree(F, z, box) if F.n == 2 else None
        if deg is None:
            # only ok and failure are read, so the bound is not sharpened
            clearance = boundary_clearance(F, z, box, improve_splits=0)
            if not clearance.ok:
                raise _GrowNeeded(f"clearance failed: {clearance.failure}")
        return deg

    @functools.cache
    def solved(radius: Fraction) -> FiberResult:
        fiber = solve_fiber(F, z, IntervalBox.cube(F.n, radius), solver)
        if fiber.status != "complete":
            raise _GrowNeeded(f"solver status {fiber.status}")
        return fiber

    def degree(radius: Fraction) -> tuple[int, FiberResult | None]:
        deg = off_boundary(radius)
        if deg in (-1, 0, 1):
            return deg, None
        fiber = solved(radius)
        if deg not in (None, fiber.signed_count):
            raise RuntimeError(
                "a winding degree and the signed count of its certified fiber "
                "disagree; this is a soundness bug")
        return fiber.signed_count, fiber

    return off_boundary, degree


def _first_radius(radius: Fraction, attempt):
    """The first radius, doubling from radius up to _MAX_RADIUS, at which
    attempt(radius) returns instead of raising _GrowNeeded, as
    (radius, value, "").  When the cap is passed first, (None, None, last),
    where last names the largest radius tried and why it was turned down,
    or the first radius and the cap when that radius is above the cap."""
    last = f"; first radius {radius} is above the cap {_MAX_RADIUS}"
    while radius <= _MAX_RADIUS:
        try:
            return radius, attempt(radius), ""
        except _GrowNeeded as why:
            last = f"; last at radius {radius}: {why}"
            radius *= 2
    return None, None, last


def injectivity_pipeline(F: PolyMap, queries: Sequence[Sequence[Fraction | int]],
                         solver: SolverConfig | None = None,
                         base: Sequence[Fraction | int] | None = None) -> InjectivityReport:
    """Three-step injectivity evidence for a constant-Jacobian map.

    Every root of a Keller map has the sign of det JF, so a point's fiber
    holds deg * sign(det JF) points.  The base and each query read their
    degree by one rule (_certificates): for n = 2 the winding degree,
    which where decided also certifies the point off F(boundary); where
    it is None, and for n != 2, the boundary clearance certifies
    that, and the degree is the signed count of the solved fiber.  A
    decided degree of 0 or +-1 needs no solve; any other is checked
    against the signed count of the solved fiber, whose roots a collision
    witness needs.

    Step 1 fixes a base point with a certified singleton fiber: the
    origin for cubic/cube-linear forms, else a caller-supplied point
    defaulting to F(0).  Its fiber size is deg * sign(det JF) at the
    first radius that certifies its degree, and its fiber is solved only
    where that rule solves one.  Where the base is F(0), checked exactly,
    the origin is a root strictly inside every box tried, so a size below
    1 is a soundness bug; a size below 0 always is.

    Step 2 grows a centered box (radius doubling) per query until four
    certificates hold: the query is off
    F(boundary), the base-to-query path segment misses F(boundary)
    (segment_failure: exact for n = 2, the sum-of-squares clearance
    otherwise), the query's degree (nonzero), and the base's degree.  Up
    to the first radius whose box holds a root of the query, a zero
    degree turns a radius down, as it is cheap on a box holding no root
    (the segment must fail there too, the degrees differing).  From then
    on the order is the boundary
    certificate, the segment, then the query's degree and the base's:
    the first two are bounded, so a radius they turn down costs no
    solve.  The first radius at which all four hold does not depend on
    the order.  When the radius cap is passed first, the note names the
    last radius tried and the certificate that failed there, or the
    first radius when it is already above the cap.  Step 3 compares the
    degree at the query and at the base over the same box, which the
    certified segment forces to agree; a failed path certificate
    downgrades the query to inconclusive rather than being assumed away.

    Any multi-point fiber met along the way is converted into an exact
    collision witness and reported as non-injectivity.  solver configures
    every fiber solve.  The base and every query must have length F.n.
    """
    status = keller_check(F)
    if not status.is_keller:
        raise ValueError("pipeline requires a nonzero constant Jacobian determinant")
    det_sign = 1 if status.constant_value > 0 else -1
    n = F.n
    image_of_zero = tuple(c.constant_value() for c in F.components)
    if base is None:
        base_point: Point = ((Fraction(0),) * n if recognize_form(F).form != "neither"
                             else image_of_zero)
    else:
        base_point = _rational_point(base)
    points = [_rational_point(q) for q in queries]
    for name, point in [("base", base_point),
                        *((f"query {k}", q) for k, q in enumerate(points))]:
        if len(point) != n:
            raise ValueError(f"{name} = {[str(x) for x in point]} has length "
                             f"{len(point)}, expected {n}")

    _, base_degree = _certificates(F, base_point, solver)

    # Step 1: the base's certified fiber size must be 1
    base_radius, base_read, base_last = _first_radius(Fraction(_INITIAL_RADIUS), base_degree)
    if base_read is None:
        return InjectivityReport(
            verdict="inconclusive", base_point=base_point, base_fiber_size=None,
            records=(), detail="no certified base fiber within the radius cap" + base_last)
    base_deg, base_fiber = base_read
    base_size = base_deg * det_sign
    if base_size < 0:
        raise RuntimeError(f"base degree {base_deg} has the opposite sign of det JF; "
                           "this is a soundness bug")
    if base_size == 0 and base_point == image_of_zero:
        raise RuntimeError("base degree 0, but the origin, inside every box tried, maps "
                           "to the base; this is a soundness bug")
    if base_size > 1:
        # a degree of 2 or more is never read without its solved fiber
        witness = witness_from_fiber(F, base_fiber)
        if witness is not None:
            return InjectivityReport(
                verdict="non_injective_witness", base_point=base_point,
                base_fiber_size=base_size, records=(), witness=witness,
                detail="base fiber already holds two separated points")
    if base_size != 1:
        return InjectivityReport(
            verdict="inconclusive", base_point=base_point, base_fiber_size=base_size,
            records=(),
            detail="base point has an empty certified fiber" if not base_size
            else "base fiber has several roots but none pass the witness thresholds")

    # Steps 2 and 3, per query
    records: list[QueryRecord] = []
    witness: CollisionWitness | None = None
    for q in points:
        off_boundary, degree = _certificates(F, q, solver)

        def holds_root(radius: Fraction):
            # where the box holds no root of the query the path segment
            # fails too, the degree being 0 at the query and nonzero at
            # the base, but only after spending its whole split budget.
            # Every root has the sign of det JF, so the box holds one
            # exactly when the degree is not 0.
            if not degree(radius)[0]:
                raise _GrowNeeded("query fiber empty so far")

        def query_at(radius: Fraction):
            # the two bounded certificates come first, so a radius they
            # turn down costs no solve
            off_boundary(radius)
            failure = segment_failure(F, IntervalBox.cube(n, radius), base_point, q)
            if failure is not None:
                raise _GrowNeeded(f"path segment: {failure}")
            return degree(radius), base_degree(radius)

        rooted, _, last = _first_radius(
            max(base_radius, *(abs(v) * 2 for v in q), Fraction(1)), holds_root)
        radius = pairs = None
        if rooted is not None:
            radius, pairs, last = _first_radius(rooted, query_at)
        if pairs is None:
            records.append(QueryRecord(
                query=q, radius=None, fiber_size=None, degree_at_query=None,
                degree_at_base=None, path_certified=False,
                note="radius cap reached without full certification" + last))
            continue
        (deg_q, fib_q), (deg_b, fib_b) = pairs
        for fib in (fib_q, fib_b):
            if fib is not None and len(fib.roots) > 1 and witness is None:
                witness = witness_from_fiber(F, fib)
        # the certified segment keeps both points in one component of the
        # complement of F(boundary), where the degree is constant
        if deg_q != deg_b:
            raise RuntimeError(
                "certified degrees at the query and the base disagree on a "
                "certified path; this is a soundness bug")
        fiber_size = deg_q * det_sign
        if fiber_size < 0:
            raise RuntimeError(
                f"degree {deg_q} has the opposite sign of det JF; this is a soundness bug")
        records.append(QueryRecord(
            query=q, radius=radius,
            fiber_size=fiber_size,
            degree_at_query=deg_q,
            degree_at_base=deg_b,
            path_certified=True))

    if witness is not None:
        return InjectivityReport(
            verdict="non_injective_witness", base_point=base_point,
            base_fiber_size=base_size, records=tuple(records), witness=witness)
    # only certified records have a fiber size, and their degrees agree
    clean = all(r.fiber_size == 1 for r in records)
    if clean:
        return InjectivityReport(
            verdict="consistent_with_injectivity", base_point=base_point,
            base_fiber_size=base_size, records=tuple(records))
    multi = any(r.fiber_size is not None and r.fiber_size > 1 for r in records)
    return InjectivityReport(
        verdict="inconclusive", base_point=base_point, base_fiber_size=base_size,
        records=tuple(records),
        detail=("a multi-point fiber was found but no pair passed the witness "
                "thresholds" if multi else
                "some queries could not be fully certified"))
