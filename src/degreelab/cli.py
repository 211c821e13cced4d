"""Command-line interface: map files in, reproducible reports out.

Map files are JSON documents validated against the shipped schema
(``schemas/mapfile.schema.json``).  Every run emits a report that embeds
the exact configuration used, a digest of the inputs, and the tool
version, so that any result can be reproduced from its own output.
Result payloads are deterministic; only the timings section varies
between identical runs.

Exit codes: 0 clean verdict, 1 usage or parse error, 2 inconclusive,
3 witness of failure (a collision, a certified degree disagreement, a
non-constant family).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources
from typing import Sequence

import jsonschema

from . import __version__
from .polycore import IntervalBox, Poly, PolyParseError, parse_poly, poly_to_string
from .mapforms import PolyMap, jacobian_det, keller_check, recognize_form
from .fibersolve import SolverConfig, bezout_bound, solve_fiber
from .degree import (
    DegreeComputationError,
    degree_integral,
    degree_signed_count,
    homotopy_constancy_check,
)
from .injectlab import (
    CollisionConfig,
    PipelineConfig,
    SurveyBudget,
    collision_search,
    injectivity_pipeline,
    jacobian_sign_survey,
)

EXIT_CLEAN = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_WITNESS = 3


class CliError(Exception):
    """Anything wrong with the invocation or its input files."""


# ---------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------

def _parse_scalar(text: str) -> Fraction:
    text = text.strip()
    if not text:
        raise CliError("empty numeric literal")
    try:
        if "." in text or "e" in text or "E" in text:
            value = Fraction(float(text))
            print(f"warning: float literal {text!r} converted exactly to {value}",
                  file=sys.stderr)
            return value
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(f"bad numeric literal {text!r}: {exc}") from None


def _parse_point(text: str, n: int) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise CliError(f"point {text!r} has {len(parts)} coordinates, expected {n}")
    return tuple(_parse_scalar(p) for p in parts)


def _parse_box(text: str, n: int) -> IntervalBox:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise CliError(f"box {text!r} has {len(parts)} sides, expected {n}")
    bounds = []
    for part in parts:
        if ":" not in part:
            raise CliError(f"box side {part!r} must look like lo:hi")
        lo_text, hi_text = part.split(":", 1)
        lo, hi = _parse_scalar(lo_text), _parse_scalar(hi_text)
        try:
            lo_f, hi_f = float(lo), float(hi)
        except OverflowError:
            raise CliError(f"box side {part!r} is too large for a float") from None
        if Fraction(lo_f) != lo or Fraction(hi_f) != hi:
            print(f"warning: box side {part!r} rounded to float endpoints",
                  file=sys.stderr)
        if lo >= hi:
            raise CliError(f"box side {part!r} is empty")
        bounds.append((lo_f, hi_f))
    return IntervalBox.from_bounds(bounds)


@dataclass(frozen=True)
class MapFile:
    name: str
    n: int
    components: tuple[str, ...]
    metadata: dict
    parameters: int
    sha256: str
    path: str


def _schema():
    text = resources.files("degreelab").joinpath(
        "schemas/mapfile.schema.json").read_text()
    return json.loads(text)


def load_mapfile(path: str) -> MapFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from None
    try:
        jsonschema.validate(doc, _schema())
    except jsonschema.ValidationError as exc:
        raise CliError(f"{path}: schema violation: {exc.message}") from None
    n = doc["n"]
    components = tuple(doc["components"])
    if len(components) != n:
        raise CliError(
            f"{path}: {len(components)} components for n={n}")
    return MapFile(
        name=doc["name"], n=n, components=components,
        metadata=doc.get("metadata", {}),
        parameters=doc.get("parameters", 0),
        sha256=hashlib.sha256(raw).hexdigest(),
        path=path)


def _compile_map(mf: MapFile) -> PolyMap:
    if mf.parameters != 0:
        raise CliError(
            f"{mf.path}: this command needs a plain map, not a family "
            "(parameters must be 0)")
    return PolyMap([_compile_component(mf, i, mf.n) for i in range(mf.n)])


def _compile_family(mf: MapFile) -> list[Poly]:
    if mf.parameters != 1:
        raise CliError(
            f"{mf.path}: this command needs a one-parameter family "
            "(set parameters to 1)")
    return [_compile_component(mf, i, mf.n + 1) for i in range(mf.n)]


def _compile_component(mf: MapFile, i: int, nvars: int) -> Poly:
    try:
        return parse_poly(mf.components[i], nvars)
    except PolyParseError as exc:
        raise CliError(
            f"{mf.path}: component {i + 1} ({mf.components[i]!r}): {exc}") from None


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def _frac(x: Fraction) -> str:
    return str(x)

def _point(p: Sequence[Fraction]) -> list[str]:
    return [str(c) for c in p]

def _box(box: IntervalBox) -> list[list[float]]:
    return [[lo, hi] for lo, hi in zip(box.lo, box.hi)]


def _degree_result(res) -> dict:
    return {
        "value": res.value,
        "raw": res.raw,
        "method": res.method,
        "certified": res.certified,
        "diagnostics": res.diagnostics,
    }


def _fiber_payload(fiber) -> dict:
    return {
        "status": fiber.status,
        "count": len(fiber.roots),
        "roots": [
            {
                "isolator": _box(r.isolator),
                "jacobian_sign": r.jac_sign,
                "refinement_width": r.refinement_width,
            }
            for r in fiber.roots
        ],
        "boxes_processed": fiber.stats.boxes_processed,
        "max_depth_reached": fiber.stats.max_depth,
    }


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------

def _cmd_analyze(args) -> tuple[dict, dict, int]:
    mf = load_mapfile(args.map)
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    det = jacobian_det(F)
    status = keller_check(F)
    witness = recognize_form(F)
    budget = SurveyBudget(samples=args.samples, max_boxes=args.max_boxes,
                          seed=args.seed)
    survey = jacobian_sign_survey(F, box, budget)
    results = {
        "jacobian_determinant": poly_to_string(det),
        "keller": {
            "kind": status.kind,
            "constant_value": None if status.constant_value is None
            else _frac(status.constant_value),
        },
        "form": {
            "form": witness.form,
            "linear_part_identity": witness.linear_part_identity,
            "cube_rows": None if witness.druzkowski_matrix is None else [
                [_frac(v) for v in row] for row in witness.druzkowski_matrix
            ],
        },
        "bezout_bound": bezout_bound(F),
        "sign_survey": {
            "classification": survey.classification,
            "certified": survey.certified,
            "partial": survey.partial,
            "samples_used": survey.samples_used,
            "boxes_used": survey.boxes_used,
            "evidence": [
                {"point": _point(p), "value": _frac(v)} for p, v in survey.evidence
            ],
            "detail": survey.detail,
        },
    }
    inputs = {"map": mf.name, "path": mf.path, "sha256": mf.sha256,
              "box": _box(box)}
    return inputs, results, EXIT_CLEAN


def _cmd_degree(args) -> tuple[dict, dict, int]:
    mf = load_mapfile(args.map)
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    z = _parse_point(args.z, F.n)
    cfg = SolverConfig(max_depth=args.max_depth)
    results: dict = {"method": args.method}
    code = EXIT_CLEAN
    count_res = integral_res = None
    if args.method in ("count", "both"):
        try:
            count_res = degree_signed_count(F, box, z, cfg)
            results["count"] = _degree_result(count_res)
        except DegreeComputationError as exc:
            results["count"] = {"error": str(exc)}
            code = EXIT_INCONCLUSIVE
    if args.method in ("integral", "both"):
        try:
            integral_res = degree_integral(F, box, z)
            results["integral"] = _degree_result(integral_res)
        except DegreeComputationError as exc:
            results["integral"] = {"error": str(exc)}
            code = EXIT_INCONCLUSIVE
    if args.method == "both" and count_res is not None and integral_res is not None:
        agree = count_res.value == integral_res.value
        results["agree"] = agree
        if not agree:
            code = EXIT_WITNESS
    inputs = {"map": mf.name, "path": mf.path, "sha256": mf.sha256,
              "z": _point(z), "box": _box(box)}
    return inputs, results, code


def _cmd_fibers(args) -> tuple[dict, dict, int]:
    mf = load_mapfile(args.map)
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    z = _parse_point(args.z, F.n)
    cfg = SolverConfig(max_depth=args.max_depth)
    fiber = solve_fiber(F, z, box, cfg)
    results = _fiber_payload(fiber)
    code = EXIT_CLEAN if fiber.status == "complete" else EXIT_INCONCLUSIVE
    inputs = {"map": mf.name, "path": mf.path, "sha256": mf.sha256,
              "z": _point(z), "box": _box(box)}
    return inputs, results, code


def _cmd_inject(args) -> tuple[dict, dict, int]:
    mf = load_mapfile(args.map)
    F = _compile_map(mf)
    if not args.z:
        raise CliError("inject needs at least one query point (--z, repeatable)")
    queries = [_parse_point(text, F.n) for text in args.z]
    base = _parse_point(args.base, F.n) if args.base else None
    cfg = PipelineConfig(solver=SolverConfig(max_depth=args.max_depth))
    try:
        report = injectivity_pipeline(F, queries, cfg, base=base)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    results = {
        "verdict": report.verdict,
        "base_point": _point(report.base_point),
        "base_fiber_size": None if report.base_fiber is None
        else len(report.base_fiber.roots),
        "records": [
            {
                "query": _point(r.query),
                "radius": None if r.radius is None else _frac(r.radius),
                "fiber_size": r.fiber_size,
                "degree_at_query": r.degree_at_query,
                "degree_at_base": r.degree_at_base,
                "path_certified": r.path_certified,
                "note": r.note,
            }
            for r in report.records
        ],
        "witness": None if report.witness is None else {
            "p1": _point(report.witness.p1),
            "p2": _point(report.witness.p2),
            "separation": report.witness.separation,
            "residual": report.witness.residual,
        },
        "detail": report.detail,
    }
    code = {"consistent_with_injectivity": EXIT_CLEAN,
            "non_injective_witness": EXIT_WITNESS}.get(report.verdict,
                                                       EXIT_INCONCLUSIVE)
    inputs = {"map": mf.name, "path": mf.path, "sha256": mf.sha256,
              "queries": [_point(q) for q in queries],
              "base": None if base is None else _point(base)}
    return inputs, results, code


def _cmd_homotopy(args) -> tuple[dict, dict, int]:
    mf = load_mapfile(args.map)
    family = _compile_family(mf)
    n = mf.n
    box = _parse_box(args.box, n)
    z = _parse_point(args.z, n)
    t_grid = [
        _parse_scalar(part) for part in args.t_grid.split(",") if part.strip()
    ]
    cfg = SolverConfig(max_depth=args.max_depth)
    try:
        report = homotopy_constancy_check(family, box, z, t_grid, cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    results = {
        "boundary_certified": report.boundary_certified,
        "t_grid": [_frac(t) for t in report.t_grid],
        "degrees": list(report.degrees),
        "constant": report.constant,
        "failures": list(report.failures),
    }
    if report.constant:
        code = EXIT_CLEAN
    elif report.boundary_certified and not report.failures:
        code = EXIT_WITNESS  # certified degrees genuinely disagree
    else:
        code = EXIT_INCONCLUSIVE
    inputs = {"map": mf.name, "path": mf.path, "sha256": mf.sha256,
              "z": _point(z), "box": _box(box), "t_grid": [_frac(t) for t in t_grid]}
    return inputs, results, code


def _cmd_collide(args) -> tuple[dict, dict, int]:
    mf = load_mapfile(args.map)
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    cfg = CollisionConfig(samples=args.samples, seed=args.seed)
    witness = collision_search(F, box, cfg)
    if witness is None:
        results = {"found": False,
                   "note": "no witness within budget; this is not a proof "
                           "of injectivity"}
        code = EXIT_CLEAN
    else:
        results = {
            "found": True,
            "p1": _point(witness.p1),
            "p2": _point(witness.p2),
            "separation": witness.separation,
            "residual": witness.residual,
        }
        code = EXIT_WITNESS
    inputs = {"map": mf.name, "path": mf.path, "sha256": mf.sha256,
              "box": _box(box)}
    return inputs, results, code


_COMMANDS = {
    "analyze": _cmd_analyze,
    "degree": _cmd_degree,
    "fibers": _cmd_fibers,
    "inject": _cmd_inject,
    "homotopy": _cmd_homotopy,
    "collide": _cmd_collide,
}


# ---------------------------------------------------------------------
# Report assembly and entry point
# ---------------------------------------------------------------------

def _config_echo(args) -> dict:
    echo = {"max_depth": args.max_depth, "seed": args.seed,
            "out": args.out, "solver": asdict(SolverConfig(max_depth=args.max_depth))}
    for key in ("method", "samples", "max_boxes", "t_grid"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    return echo


def _render_md(report: dict) -> str:
    lines = [f"# {report['command']} report",
             "",
             f"tool version: {report['tool_version']}"]
    for section in ("inputs", "config", "results", "timings"):
        lines.append("")
        lines.append(f"## {section}")
        lines.append("```json")
        lines.append(json.dumps(report[section], indent=2, sort_keys=True))
        lines.append("```")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="degreelab",
                     description="Certified degree and injectivity analysis "
                                 "of polynomial maps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, box=True, z=False):
        p.add_argument("--map", required=True, help="map file (JSON)")
        if box:
            p.add_argument("--box", required=True,
                           help="box as lo:hi per dimension, comma separated "
                                "(use --box=-2:2,-2:2 for negative bounds)")
        if z:
            p.add_argument("--z", required=True, help="target point p/q,p/q,...")
        p.add_argument("--max-depth", type=int, default=60, dest="max_depth")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", choices=("json", "md"), default="json")

    p = sub.add_parser("analyze", help="determinant, Keller status, form, "
                                       "Bezout bound, sign survey")
    common(p)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--max-boxes", type=int, default=2048, dest="max_boxes")

    p = sub.add_parser("degree", help="topological degree at a target")
    common(p, z=True)
    p.add_argument("--method", choices=("count", "integral", "both"),
                   default="count")

    p = sub.add_parser("fibers", help="certified fiber enumeration")
    common(p, z=True)

    p = sub.add_parser("inject", help="injectivity pipeline over query points")
    common(p, box=False)
    p.add_argument("--z", action="append", default=[],
                   help="query point (repeatable)")
    p.add_argument("--base", default=None, help="base point override")

    p = sub.add_parser("homotopy", help="degree constancy along a family")
    common(p, z=True)
    p.add_argument("--t-grid", default="0,1/4,1/2,3/4,1", dest="t_grid")

    p = sub.add_parser("collide", help="search for two points with equal images")
    common(p)
    p.add_argument("--samples", type=int, default=4096)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inputs, results, code = _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": args.command,
        "tool_version": __version__,
        "inputs": inputs,
        "config": _config_echo(args),
        "results": results,
        "timings": {"seconds": time.monotonic() - started},
    }
    if args.out == "md":
        print(_render_md(report), end="")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
