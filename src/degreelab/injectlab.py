"""Injectivity analysis built on certified fibers and degree counts.

Everything here reduces injectivity questions to facts the solver can
certify: how many points a fiber holds, what the Jacobian sign does,
whether two target points sit on one side of the boundary image.  None
of it proves injectivity over the whole plane — reports carry the box
they were computed on, and absence of a collision witness is never
treated as proof that no collision exists.

The sign survey's subdivision and the collision branch-and-prune run
breadth first on (N, n) bound arrays: one eval_interval_batch call per
polynomial and level, cells decided in FIFO order, fibersolve.split_widest
at the midpoint.  Collision seeds are polished by one stacked float Newton.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polycore import IntervalBox, Poly
from .mapforms import PolyMap, jacobian_det, jacobian_matrix, keller_check, recognize_form
from .fibersolve import (
    ClearanceResult,
    FiberResult,
    SolverConfig,
    boundary_clearance,
    solve_fiber,
    split_widest,
)
from .degree import path_segment_clearance, signed_count_from_fiber

Point = tuple[Fraction, ...]
Evidence = tuple[Point, Fraction]


def _rational_point(values: Sequence[float | Fraction | int]) -> Point:
    return tuple(Fraction(v) for v in values)


def _midpoint_exact(lo: Sequence[float], hi: Sequence[float]) -> Point:
    return tuple(Fraction(a) + (Fraction(b) - Fraction(a)) / 2 for a, b in zip(lo, hi))


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


@dataclass(frozen=True)
class SignSurvey:
    classification: str  # positive | negative | mixed | vanishing_found
    evidence: tuple[Evidence, ...]
    certified: bool
    partial: bool
    samples_used: int
    boxes_used: int
    detail: str | None = None


def jacobian_sign_survey(F: PolyMap, box: IntervalBox,
                         budget: SurveyBudget | None = None) -> SignSurvey:
    """Classify the sign behavior of det JF over the box.

    Constant determinants are answered exactly.  Otherwise a sampling
    pass looks for exact opposite-sign witnesses or an exact zero, and a
    subdivision pass tries to certify a uniform sign by interval
    enclosure.  When the box budget runs out first, the classification
    reflects the evidence gathered so far and is flagged partial.
    """
    budget = budget or SurveyBudget()
    if box.dims != F.n:
        raise ValueError(f"box has {box.dims} dims, expected {F.n}")
    det = jacobian_det(F)
    status = keller_check(F)
    if status.kind == "nonzero_constant":
        c = status.constant_value
        mid = _midpoint_exact(box.lo, box.hi)
        return SignSurvey(
            classification="positive" if c > 0 else "negative",
            evidence=((mid, c),),
            certified=True, partial=False, samples_used=0, boxes_used=0,
            detail=f"constant Jacobian determinant {c}")
    if status.kind == "zero_constant":
        mid = _midpoint_exact(box.lo, box.hi)
        return SignSurvey(
            classification="vanishing_found",
            evidence=((mid, Fraction(0)),),
            certified=True, partial=False, samples_used=0, boxes_used=0,
            detail="Jacobian determinant is identically zero")

    # sampling pass: exact re-evaluation turns float hints into proof-grade
    # evidence (two strict opposite signs certify mixed; an exact zero
    # certifies vanishing)
    rng = np.random.default_rng(budget.seed)
    lo, hi = np.array(box.lo), np.array(box.hi)
    pts = lo[None, :] + rng.random((budget.samples, F.n)) * (hi - lo)[None, :]
    vals = det.eval_array(pts)
    pos_evidence: Evidence | None = None
    neg_evidence: Evidence | None = None
    for idx in itertools.chain(np.nonzero(vals > 0)[0][:4], np.nonzero(vals < 0)[0][:4],
                               np.nonzero(vals == 0)[0][:4]):
        point = _rational_point(pts[int(idx)])
        exact = det.eval(point)
        if exact == 0:
            return SignSurvey(
                classification="vanishing_found", evidence=((point, exact),),
                certified=True, partial=False,
                samples_used=budget.samples, boxes_used=0)
        if exact > 0 and pos_evidence is None:
            pos_evidence = (point, exact)
        elif exact < 0 and neg_evidence is None:
            neg_evidence = (point, exact)
    if pos_evidence and neg_evidence:
        return SignSurvey(
            classification="mixed", evidence=(pos_evidence, neg_evidence),
            certified=True, partial=False,
            samples_used=budget.samples, boxes_used=0)

    # subdivision pass, breadth first: certify one uniform sign, or catch a
    # zero at the midpoint of a straddling cell.  Each level is enclosed in
    # one batched call, then its cells are decided one by one in FIFO order.
    los, his = lo[None, :], hi[None, :]
    boxes_used = 0
    level_done = True
    while len(los) and boxes_used < budget.max_boxes:
        take = min(len(los), budget.max_boxes - boxes_used)
        level_done = take == len(los)
        los, his = los[:take], his[:take]
        enc_lo, enc_hi = det.eval_interval_batch(los, his)
        straddle = (enc_lo <= 0.0) & (enc_hi >= 0.0)
        for k in range(take):
            boxes_used += 1
            # exact midpoint values: on a straddling cell always, on a
            # signed cell only while that sign still lacks evidence
            if (straddle[k] or (pos_evidence is None and enc_lo[k] > 0.0)
                    or (neg_evidence is None and enc_hi[k] < 0.0)):
                mid = _midpoint_exact(los[k].tolist(), his[k].tolist())
                exact = det.eval(mid)
                if exact == 0:
                    return SignSurvey(
                        classification="vanishing_found", evidence=((mid, exact),),
                        certified=True, partial=False,
                        samples_used=budget.samples, boxes_used=boxes_used)
                if exact > 0 and pos_evidence is None:
                    pos_evidence = (mid, exact)
                elif exact < 0 and neg_evidence is None:
                    neg_evidence = (mid, exact)
            if pos_evidence and neg_evidence:
                return SignSurvey(
                    classification="mixed", evidence=(pos_evidence, neg_evidence),
                    certified=True, partial=False,
                    samples_used=budget.samples, boxes_used=boxes_used)
        los, his, _ = split_widest(los[straddle], his[straddle], 0.5)
    # certified only if the last level was finished and left no children
    certified_uniform = level_done and not len(los)

    evidence = tuple(e for e in (pos_evidence, neg_evidence) if e is not None)
    if pos_evidence and not neg_evidence:
        classification = "positive"
    elif neg_evidence and not pos_evidence:
        classification = "negative"
    else:
        # not a single exactly signed point found: the determinant hugs
        # zero as far as this budget can see
        classification = "vanishing_found"
        certified_uniform = False
    return SignSurvey(
        classification=classification,
        evidence=evidence,
        certified=certified_uniform,
        partial=not certified_uniform,
        samples_used=budget.samples,
        boxes_used=boxes_used,
        detail=None if certified_uniform else "box budget exhausted before certification")


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
    fiber = solve_fiber(F, origin, box, cfg or SolverConfig())
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
    fiber = solve_fiber(F, b, box, cfg or SolverConfig())
    if fiber.status != "complete":
        return ProbeResult("inconclusive", None, fiber)
    count = len(fiber.roots)
    return ProbeResult("singleton" if count == 1 else "multiple", count, fiber)


# ---------------------------------------------------------------------
# Collision witnesses
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionWitness:
    p1: Point
    p2: Point
    separation: float
    residual: float


def _exact_pair_check(F: PolyMap, p1: Point, p2: Point,
                      separation: float, residual: float) -> CollisionWitness | None:
    sep_sq = sum((a - b) ** 2 for a, b in zip(p1, p2))
    if sep_sq < Fraction(separation) ** 2:
        return None
    res_sq = Fraction(0)
    for comp in F.components:
        diff = comp.eval(p1) - comp.eval(p2)
        res_sq += diff * diff
    if res_sq > Fraction(residual) ** 2:
        return None
    return CollisionWitness(
        p1=p1, p2=p2,
        separation=math.sqrt(float(sep_sq)),
        residual=math.sqrt(float(res_sq)))


def witness_from_fiber(F: PolyMap, fiber: FiberResult,
                       separation: float = 0.1,
                       residual: float = 1e-8) -> CollisionWitness | None:
    """Turn a multi-root certified fiber into a collision witness pair."""
    points = [_midpoint_exact(r.isolator.lo, r.isolator.hi) for r in fiber.roots]
    for p1, p2 in itertools.combinations(points, 2):
        witness = _exact_pair_check(F, p1, p2, separation, residual)
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
            res = np.stack([comp.eval_array(pts) for comp in F.components],
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
            for i in range(n):
                for j in range(n):
                    J[:, i, j] = jac[i][j].eval_array(pts)
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


# Float Newton steps per collision seed, and image-grid cells per axis of
# the sampled pair search.
_NEWTON_ITERS = 50
_BUCKET_CELLS = 128


@dataclass(frozen=True)
class CollisionConfig:
    samples: int = 4096
    seed: int = 0
    separation: float = 0.1
    residual: float = 1e-8
    prune_boxes: int = 2048
    max_candidates: int = 48
    max_pairs: int = 64


def _shift_to_second_copy(p: Poly) -> Poly:
    # re-index an n-variable polynomial to act on variables n+1..2n
    n = p.nvars
    terms = {}
    for exps, coeff in p.terms.items():
        terms[(0,) * n + exps] = coeff
    return Poly(2 * n, terms)


def _prune_candidates(F: PolyMap, box: IntervalBox, cfg: CollisionConfig) -> list[Point]:
    """Branch-and-prune on the doubled system F(x) - F(y) = 0.

    The solution set is never isolated (the diagonal always solves it),
    so this pass cannot certify; it only narrows down off-diagonal
    regions worth polishing.  Cells entirely within the separation band
    of the diagonal are discarded.
    """
    n = F.n
    diffs = [comp.pad(n) - _shift_to_second_copy(comp) for comp in F.components]
    sep = cfg.separation
    leaf_width = box.max_width() / 16.0
    los = np.array([box.lo * 2])
    his = np.array([box.hi * 2])
    candidates: list[Point] = []
    processed = 0
    while len(los) and processed < cfg.prune_boxes and len(candidates) < cfg.max_candidates:
        los, his = los[:cfg.prune_boxes - processed], his[:cfg.prune_boxes - processed]
        processed += len(los)
        # outward-rounded x_i - y_i: a cell whose every gap stays within
        # the separation band lies near the diagonal
        gap_lo = np.nextafter(los[:, :n] - his[:, n:], -np.inf)
        gap_hi = np.nextafter(his[:, :n] - los[:, n:], np.inf)
        keep = ((gap_lo <= -sep) | (gap_hi >= sep)).any(axis=1)
        shared_pows: dict = {}
        for d in diffs:
            d_lo, d_hi = d.eval_interval_batch(los, his, shared_pows)
            keep &= (d_lo <= 0.0) & (d_hi >= 0.0)
        leaf = (his - los).max(axis=1) <= leaf_width
        room = cfg.max_candidates - len(candidates)
        candidates.extend(_midpoint_exact(los[k].tolist(), his[k].tolist())
                          for k in np.nonzero(keep & leaf)[0][:room].tolist())
        split = keep & ~leaf
        los, his, _ = split_widest(los[split], his[split], 0.5)
    return candidates


def _sampled_pairs(F: PolyMap, box: IntervalBox,
                   cfg: CollisionConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    n = F.n
    rng = np.random.default_rng(cfg.seed)
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    pts = lo[None, :] + rng.random((cfg.samples, n)) * span[None, :]
    images = np.stack([comp.eval_array(pts) for comp in F.components], axis=1)
    finite = np.all(np.isfinite(images), axis=1)
    pts, images = pts[finite], images[finite]
    if pts.shape[0] < 2:
        return []
    # percentile-clipped spans: high-degree maps blow up near the box
    # corners and would otherwise flatten the whole bucket grid
    img_lo = np.percentile(images, 0.5, axis=0)
    img_hi = np.percentile(images, 99.5, axis=0)
    img_span = np.maximum(img_hi - img_lo, 1e-30)
    cells = np.clip(
        np.floor((images - img_lo[None, :]) / img_span[None, :] * _BUCKET_CELLS),
        -1, _BUCKET_CELLS + 1).astype(np.int64)
    buckets: dict[tuple, list[int]] = {}
    scored: list[tuple[float, int, int]] = []
    offsets = list(itertools.product((-1, 0, 1), repeat=n))
    scale = img_span / _BUCKET_CELLS
    # occupancy cap keeps the pairing pass near-linear even when the
    # image piles most samples into a few cells
    cap = 16
    for i in range(pts.shape[0]):
        key = tuple(cells[i])
        for off in offsets:
            neighbor = tuple(k + o for k, o in zip(key, off))
            for j in buckets.get(neighbor, ()):
                if np.max(np.abs(pts[i] - pts[j])) >= 0.8 * cfg.separation:
                    gap = float(np.max(np.abs((images[i] - images[j]) / scale)))
                    scored.append((gap, j, i))
        bucket = buckets.setdefault(key, [])
        if len(bucket) < cap:
            bucket.append(i)
    # polish the most promising near-collisions first
    scored.sort()
    return [(pts[j].copy(), pts[i].copy()) for _, j, i in scored[:cfg.max_pairs]]


def collision_search(F: PolyMap, box: IntervalBox,
                     cfg: CollisionConfig | None = None) -> CollisionWitness | None:
    """Search the box for two separated points with (exactly checked) equal images.

    Returns the first witness that survives exact rational verification
    of both thresholds, or None when the budget is spent.  None means
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
    images = np.stack([comp.eval_array(ends) for comp in F.components], axis=1)
    with np.errstate(all="ignore"):
        targets = 0.5 * (images[:count] + images[count:])
    polished, ok = _newton_float(F, jac, np.concatenate([targets, targets]), ends,
                                 _NEWTON_ITERS)
    # sharpen exactly in seed order: prune candidates, then sampled pairs
    for k, target in enumerate(targets):
        p1f, p2f = polished[k], polished[count + k]
        if not (ok[k] and ok[count + k]):
            continue
        if np.max(np.abs(p1f - p2f)) < 0.9 * cfg.separation:
            continue
        target_rat = [Fraction(float(t)) for t in target]
        p1 = _newton_exact(F, jac, target_rat, _rational_point(p1f), steps=2)
        p2 = _newton_exact(F, jac, target_rat, _rational_point(p2f), steps=2)
        witness = _exact_pair_check(F, p1, p2, cfg.separation, cfg.residual)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------
# The injectivity pipeline
# ---------------------------------------------------------------------

# Radius of the first box the pipeline tries; it doubles from there.
_INITIAL_RADIUS = 1


@dataclass(frozen=True)
class PipelineConfig:
    max_radius: int = 1 << 20
    solver: SolverConfig = field(default_factory=SolverConfig)
    separation: float = 0.1
    residual: float = 1e-8


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
    base_fiber: FiberResult | None
    records: tuple[QueryRecord, ...]
    witness: CollisionWitness | None = None
    detail: str | None = None


class _GrowNeeded(Exception):
    pass


def _certified_pair(F: PolyMap, z: Point, box: IntervalBox,
                    solver: SolverConfig) -> tuple[ClearanceResult, FiberResult]:
    clearance = boundary_clearance(F, z, box)
    if not clearance.ok:
        raise _GrowNeeded(f"clearance failed: {clearance.failure}")
    fiber = solve_fiber(F, z, box, solver)
    if fiber.status != "complete":
        raise _GrowNeeded(f"solver status {fiber.status}")
    return clearance, fiber


def injectivity_pipeline(F: PolyMap, queries: Sequence[Sequence[Fraction | int]],
                         cfg: PipelineConfig | None = None,
                         base: Sequence[Fraction | int] | None = None) -> InjectivityReport:
    """Three-step injectivity evidence for a constant-Jacobian map.

    Step 1 fixes a base point with a certified singleton fiber: the
    origin for cubic/cube-linear forms, else a caller-supplied point
    defaulting to F(0).  Step 2 grows a centered box (radius doubling)
    per query until fibers, clearances, and the base-to-query segment
    all certify.  Step 3 compares the degree at the query and at the
    base over the same box; a failed path certificate downgrades the
    query to inconclusive rather than being assumed away.

    Any multi-point fiber met along the way is converted into an exact
    collision witness and reported as non-injectivity.
    """
    cfg = cfg or PipelineConfig()
    if not keller_check(F).is_keller:
        raise ValueError("pipeline requires a nonzero constant Jacobian determinant")
    n = F.n
    if base is None:
        if recognize_form(F).form != "neither":
            base_point: Point = (Fraction(0),) * n
        else:
            zero = (Fraction(0),) * n
            base_point = tuple(c.eval(zero) for c in F.components)
    else:
        base_point = _rational_point(base)

    base_cache: dict[Fraction, tuple[ClearanceResult, FiberResult]] = {}

    def base_at(radius: Fraction, box: IntervalBox):
        if radius not in base_cache:
            base_cache[radius] = _certified_pair(F, base_point, box, cfg.solver)
        return base_cache[radius]

    # Step 1: base fiber must be a certified singleton
    radius = Fraction(_INITIAL_RADIUS)
    base_fiber: FiberResult | None = None
    while radius <= cfg.max_radius:
        box = IntervalBox.cube(n, radius)
        try:
            _, base_fiber = base_at(radius, box)
            break
        except _GrowNeeded:
            radius *= 2
            base_fiber = None
    if base_fiber is None:
        return InjectivityReport(
            verdict="inconclusive", base_point=base_point, base_fiber=None,
            records=(), detail="no certified base fiber within the radius cap")
    if len(base_fiber.roots) > 1:
        witness = witness_from_fiber(F, base_fiber, cfg.separation, cfg.residual)
        if witness is not None:
            return InjectivityReport(
                verdict="non_injective_witness", base_point=base_point,
                base_fiber=base_fiber, records=(), witness=witness,
                detail="base fiber already holds two separated points")
        return InjectivityReport(
            verdict="inconclusive", base_point=base_point, base_fiber=base_fiber,
            records=(),
            detail="base fiber has several roots but none pass the witness thresholds")
    if not base_fiber.roots:
        return InjectivityReport(
            verdict="inconclusive", base_point=base_point, base_fiber=base_fiber,
            records=(), detail="base point has an empty certified fiber")
    base_radius = radius

    # Steps 2 and 3, per query
    records: list[QueryRecord] = []
    witness: CollisionWitness | None = None
    for raw_query in queries:
        q = _rational_point(raw_query)
        if len(q) != n:
            raise ValueError(f"query {q} has wrong dimension")
        radius = max(base_radius, *(abs(v) * 2 for v in q), Fraction(1))
        record = None
        while radius <= cfg.max_radius:
            box = IntervalBox.cube(n, radius)
            try:
                clr_q, fib_q = _certified_pair(F, q, box, cfg.solver)
                if not fib_q.roots:
                    raise _GrowNeeded("query fiber empty so far")
                clr_b, fib_b = base_at(radius, box)
                seg = path_segment_clearance(F, box, base_point, q)
                if not seg.ok:
                    raise _GrowNeeded(f"path segment: {seg.failure}")
            except _GrowNeeded:
                radius *= 2
                continue
            deg_q = signed_count_from_fiber(fib_q, clr_q)
            deg_b = signed_count_from_fiber(fib_b, clr_b)
            for fib in (fib_q, fib_b):
                if len(fib.roots) > 1 and witness is None:
                    witness = witness_from_fiber(F, fib, cfg.separation, cfg.residual)
            record = QueryRecord(
                query=q, radius=radius,
                fiber_size=len(fib_q.roots),
                degree_at_query=deg_q.value,
                degree_at_base=deg_b.value,
                path_certified=True)
            if (len(fib_q.roots) == 1 and len(fib_b.roots) == 1
                    and deg_q.value != deg_b.value):
                raise RuntimeError(
                    "certified singleton fibers on a certified path disagree in "
                    "degree; this is a soundness bug")
            break
        if record is None:
            record = QueryRecord(
                query=q, radius=None, fiber_size=None, degree_at_query=None,
                degree_at_base=None, path_certified=False,
                note="radius cap reached without full certification")
        records.append(record)

    if witness is not None:
        return InjectivityReport(
            verdict="non_injective_witness", base_point=base_point,
            base_fiber=base_fiber, records=tuple(records), witness=witness)
    clean = all(
        r.fiber_size == 1 and r.path_certified and r.degree_at_query == r.degree_at_base
        for r in records)
    if clean:
        return InjectivityReport(
            verdict="consistent_with_injectivity", base_point=base_point,
            base_fiber=base_fiber, records=tuple(records))
    multi = any(r.fiber_size is not None and r.fiber_size > 1 for r in records)
    return InjectivityReport(
        verdict="inconclusive", base_point=base_point, base_fiber=base_fiber,
        records=tuple(records),
        detail=("a multi-point fiber was found but no pair passed the witness "
                "thresholds" if multi else
                "some queries could not be fully certified"))
