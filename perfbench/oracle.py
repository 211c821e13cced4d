"""Checks every CLI report against the exactly known truth of its input.

``check`` returns why an operation failed (None when it succeeded) and
raises ``Contradiction`` when a certified answer disagrees with the
truth: a soundness failure that stops the run.  Collision witnesses are
re-verified in rational arithmetic with the benchmark's own polynomial
code, never with degreelab's.
"""

from __future__ import annotations

from fractions import Fraction

from exactpoly import eval_map, evaluate

EXIT_CLEAN, EXIT_USAGE, EXIT_WITNESS = 0, 1, 3

# the thresholds degreelab's collide command verifies its witnesses against
SEPARATION = Fraction(0.1)
RESIDUAL = Fraction(1e-8)


class Contradiction(Exception):
    """A certified answer that contradicts the known truth."""


def _frac_point(texts) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in texts)


def _inside(point, box) -> bool:
    return all(Fraction(lo) <= x <= Fraction(hi) for x, (lo, hi) in zip(point, box))


def _check_fibers(truth, code, res):
    claimed = set()
    for root in res["roots"]:
        holders = [k for k, x in enumerate(truth.preimages) if _inside(x, root["isolator"])]
        if len(holders) != 1:
            raise Contradiction(
                f"certified isolator {root['isolator']} holds {len(holders)} true preimages")
        k = holders[0]
        if k in claimed:
            raise Contradiction(f"preimage {truth.preimages[k]} certified twice")
        claimed.add(k)
        if root["jacobian_sign"] != truth.signs[k]:
            raise Contradiction(
                f"Jacobian sign {root['jacobian_sign']} at preimage {truth.preimages[k]}, "
                f"true sign {truth.signs[k]}")
    if res["status"] == "complete" and res["count"] != len(truth.preimages):
        raise Contradiction(
            f"complete fiber of {res['count']} roots, true fiber has {len(truth.preimages)}")
    return None if code == EXIT_CLEAN else f"fiber status {res['status']}"


def _check_degree(truth, code, res):
    count = res.get("count", {})
    if "value" in count and count["value"] != truth.degree:
        raise Contradiction(f"certified count degree {count['value']}, true degree {truth.degree}")
    if code == EXIT_WITNESS:
        return (f"integral {res['integral'].get('value')} disagrees with count "
                f"{count.get('value')} (estimates {res['integral']['diagnostics']['estimates']})")
    if code != EXIT_CLEAN:
        errors = [part["error"] for part in (count, res.get("integral", {})) if "error" in part]
        return "; ".join(errors) or f"exit {code}"
    return None


def _check_collide(truth, code, res):
    if res["found"]:
        p1, p2 = _frac_point(res["p1"]), _frac_point(res["p2"])
        sep_sq = sum((a - b) ** 2 for a, b in zip(p1, p2))
        f1, f2 = eval_map(truth.components, p1), eval_map(truth.components, p2)
        res_sq = sum((a - b) ** 2 for a, b in zip(f1, f2))
        if sep_sq < SEPARATION ** 2 or res_sq > RESIDUAL ** 2:
            raise Contradiction("collision witness fails exact re-verification")
        if truth.injective:
            raise Contradiction("collision witness reported on an injective map")
        return None
    return "no witness on a non-injective map" if not truth.injective else None


def _check_analyze(truth, code, res):
    det = truth.det
    keller = res["keller"]
    constant = det.keys() <= {(0,) * truth.n}
    if constant and keller["kind"] != "nonzero_constant":
        raise Contradiction(f"Keller kind {keller['kind']} for a constant determinant")
    if constant and Fraction(keller["constant_value"]) != det.get((0,) * truth.n, 0):
        raise Contradiction(f"constant determinant {keller['constant_value']}")
    if not constant and keller["kind"] != "nonconstant":
        raise Contradiction(f"Keller kind {keller['kind']} for a non-constant determinant")
    survey = res["sign_survey"]
    for item in survey["evidence"]:
        point = _frac_point(item["point"])
        if evaluate(det, point) != Fraction(item["value"]):
            raise Contradiction(f"determinant evidence at {item['point']} is not exact")
    if survey["certified"]:
        cls = survey["classification"]
        if truth.det_sign == "positive" and cls != "positive":
            raise Contradiction(f"certified {cls} survey of an everywhere positive determinant")
        if truth.det_sign == "mixed" and cls in ("positive", "negative"):
            raise Contradiction(f"certified {cls} survey of a sign-changing determinant")
    return None if code == EXIT_CLEAN else f"exit {code}"


def _check_inject(truth, code, res):
    if res["verdict"] == "non_injective_witness":
        raise Contradiction("non-injectivity witness on a triangular automorphism")
    for rec in res["records"]:
        if rec["fiber_size"] is None:
            continue
        q = _frac_point(rec["query"])
        radius = Fraction(rec["radius"])
        inside = all(abs(c) < radius for c in truth.preimage_of(q))
        if rec["fiber_size"] != (1 if inside else 0) or rec["degree_at_query"] != int(inside):
            raise Contradiction(
                f"query {rec['query']}: fiber size {rec['fiber_size']}, degree "
                f"{rec['degree_at_query']} in radius {radius}; true preimage inside={inside}")
        if rec["degree_at_base"] != 1:
            raise Contradiction(f"degree at base {rec['degree_at_base']}, true degree 1")
    return None if code == EXIT_CLEAN else res["detail"] or res["verdict"]


def _check_homotopy(truth, code, res):
    for t, got, want in zip(res["t_grid"], res["degrees"], truth.degrees):
        if got is not None and got != want:
            raise Contradiction(f"certified degree {got} at t={t}, true degree {want}")
    if code == EXIT_WITNESS and len(set(truth.degrees)) == 1:
        raise Contradiction("certified non-constant degree along a constant-degree family")
    return None if code == EXIT_CLEAN else "; ".join(res["failures"]) or f"exit {code}"


_CHECKS = {
    "fibers": _check_fibers,
    "degree": _check_degree,
    "collide": _check_collide,
    "analyze": _check_analyze,
    "inject": _check_inject,
    "homotopy": _check_homotopy,
}


def check(op, code: int, report: dict | None) -> str | None:
    """Why the operation failed, or None; raises Contradiction on unsoundness."""
    if code == EXIT_USAGE or report is None:
        return f"exit {code} without a report"
    return _CHECKS[op.command](op.truth, code, report["results"])


def counters(op, code: int, report: dict | None) -> tuple:
    """The deterministic work counters of one report, compared between passes."""
    if report is None:
        return (code,)
    res = report["results"]
    if op.command == "fibers":
        return (code, res["status"], res["count"], res["boxes_processed"],
                res["max_depth_reached"])
    if op.command == "degree":
        count, integral = res.get("count", {}), res.get("integral", {})
        return (code, count.get("value"), count.get("diagnostics", {}).get("boxes_processed"),
                integral.get("raw"), integral.get("diagnostics", {}).get("samples"),
                count.get("error"), integral.get("error"))
    if op.command == "collide":
        return (code, res["found"], res.get("p1"), res.get("p2"))
    if op.command == "analyze":
        s = res["sign_survey"]
        return (code, s["classification"], s["certified"], s["samples_used"], s["boxes_used"])
    if op.command == "inject":
        return (code, res["verdict"],
                tuple((r["radius"], r["fiber_size"], r["degree_at_query"]) for r in res["records"]))
    return (code, res["boundary_certified"], tuple(res["degrees"]), len(res["failures"]))
