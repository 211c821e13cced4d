"""Command-line interface: map files in, reproducible reports out.

Map files are JSON documents validated against the shipped schema
(``schemas/mapfile.schema.json``).  Every run emits a report that embeds
the exact configuration used, a digest of the inputs, and the tool
version, so that any result can be reproduced from its own output.
Result payloads are deterministic; only the timings section varies
between identical runs.

Reports are written by one encoder.  Besides JSON's own types they hold
two: a Fraction, written as its exact text p/q, and an IntervalBox,
written as its list of [lo, hi] sides; any other type is an error.
Result records whose field names are the report keys go in whole, by
dataclasses.asdict.  A field with no value is null: analyze reports a
null bezout_bound when a component is identically zero.

Exit codes: 0 clean verdict, 1 usage or parse error, 2 inconclusive,
3 witness of failure (a collision, a certified degree disagreement, a
non-constant family), 4 internal error (an unexpected exception, such as
a "soundness bug" RuntimeError; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources
from typing import Sequence

import jsonschema

from . import __version__
from .polycore import IntervalBox, Poly, PolyParseError, parse_poly, poly_to_string
from .mapforms import PolyMap, jacobian_det, keller_check, recognize_form
from .fibersolve import SolverConfig, bezout_bound, boundary_clearance, solve_fiber
from .degree import (
    DegreeComputationError,
    degree_integral,
    degree_signed_count,
    homotopy_constancy_check,
)
from .injectlab import (
    CollisionConfig,
    SurveyBudget,
    collision_search,
    injectivity_pipeline,
    jacobian_sign_survey,
)

EXIT_CLEAN = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_WITNESS = 3
EXIT_INTERNAL = 4


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


@functools.cache
def _validator():
    """The map-file schema's validator, read and checked once per process."""
    schema = json.loads(resources.files("degreelab").joinpath(
        "schemas/mapfile.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


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
    # the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise CliError(f"{path}: schema violation: {error.message}")
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

# str() converts an int of fewer than 640 digits under any limit the
# interpreter sets on integer string conversion
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(k: int) -> str:
    """k in decimal, exactly, however many digits it has: converted in
    chunks of _CHUNK_DIGITS digits, lowest first."""
    if k < 0:
        return "-" + _decimal(-k)
    chunks = []
    while k >= _CHUNK:
        k, low = divmod(k, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(k) + "".join(reversed(chunks))


def _encode(obj):
    """json's fallback for the two non-JSON types reports hold."""
    if isinstance(obj, Fraction):
        # str(obj), without its limit on the number of digits
        if obj.denominator == 1:
            return _decimal(obj.numerator)
        return f"{_decimal(obj.numerator)}/{_decimal(obj.denominator)}"
    if isinstance(obj, IntervalBox):
        return [[lo, hi] for lo, hi in zip(obj.lo, obj.hi)]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_dumps = functools.partial(json.dumps, indent=2, sort_keys=True, default=_encode)


# ---------------------------------------------------------------------
# Commands: each takes the parsed flags and the loaded map file, and
# returns its own inputs, its results and its exit code
# ---------------------------------------------------------------------

def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError turned into a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _solver_config(args) -> SolverConfig:
    """The solver configuration of a command that takes --max-depth."""
    return _checked(SolverConfig, max_depth=args.max_depth)


def _cmd_analyze(args, mf: MapFile) -> tuple[dict, dict, int]:
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    budget = _checked(SurveyBudget, samples=args.samples, max_boxes=args.max_boxes,
                      seed=args.seed)
    det = jacobian_det(F)
    status = keller_check(F)
    witness = recognize_form(F)
    survey = jacobian_sign_survey(F, box, budget)
    results = {
        "jacobian_determinant": poly_to_string(det),
        "keller": asdict(status),
        "form": {
            "form": witness.form,
            "linear_part_identity": witness.linear_part_identity,
            "cube_rows": witness.druzkowski_matrix,
        },
        # a zero component has no total degree, so no Bezout bound
        "bezout_bound": None if any(p.is_zero for p in F.components)
        else bezout_bound(F),
        "sign_survey": {
            **asdict(survey),
            "evidence": [{"point": p, "value": v} for p, v in survey.evidence],
        },
    }
    return {"box": box}, results, EXIT_CLEAN


def _cmd_degree(args, mf: MapFile) -> tuple[dict, dict, int]:
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    z = _parse_point(args.z, F.n)
    cfg = _solver_config(args)
    # with --method both, the two methods read one boundary certificate
    clearance = boundary_clearance(F, z, box)
    methods = {"count": lambda: degree_signed_count(F, box, z, cfg, clearance),
               "integral": lambda: degree_integral(F, box, z, clearance=clearance)}
    results: dict = {"method": args.method}
    code = EXIT_CLEAN
    values = []
    for method, run in methods.items():
        if args.method not in (method, "both"):
            continue
        try:
            res = run()
        except DegreeComputationError as exc:
            results[method] = {"error": str(exc)}
            code = EXIT_INCONCLUSIVE
        else:
            results[method] = asdict(res)
            values.append(res.value)
    if len(values) == 2:
        results["agree"] = values[0] == values[1]
        if not results["agree"]:
            code = EXIT_WITNESS
    return {"z": z, "box": box}, results, code


def _cmd_fibers(args, mf: MapFile) -> tuple[dict, dict, int]:
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    z = _parse_point(args.z, F.n)
    fiber = solve_fiber(F, z, box, _solver_config(args))
    results = {
        "status": fiber.status,
        "count": len(fiber.roots),
        "roots": [
            {
                "isolator": r.isolator,
                "jacobian_sign": r.jac_sign,
                "refinement_width": r.refinement_width,
            }
            for r in fiber.roots
        ],
        "boxes_processed": fiber.stats.boxes_processed,
        "max_depth_reached": fiber.stats.max_depth,
    }
    code = EXIT_CLEAN if fiber.status == "complete" else EXIT_INCONCLUSIVE
    return {"z": z, "box": box}, results, code


def _cmd_inject(args, mf: MapFile) -> tuple[dict, dict, int]:
    F = _compile_map(mf)
    if not args.z:
        raise CliError("inject needs at least one query point (--z, repeatable)")
    queries = [_parse_point(text, F.n) for text in args.z]
    base = _parse_point(args.base, F.n) if args.base else None
    report = _checked(injectivity_pipeline, F, queries, _solver_config(args), base=base)
    results = {
        "verdict": report.verdict,
        "base_point": report.base_point,
        "base_fiber_size": report.base_fiber_size,
        "records": [asdict(r) for r in report.records],
        "witness": None if report.witness is None else asdict(report.witness),
        "detail": report.detail,
    }
    code = {"consistent_with_injectivity": EXIT_CLEAN,
            "non_injective_witness": EXIT_WITNESS}.get(report.verdict,
                                                       EXIT_INCONCLUSIVE)
    return {"queries": queries, "base": base}, results, code


def _cmd_homotopy(args, mf: MapFile) -> tuple[dict, dict, int]:
    family = _compile_family(mf)
    box = _parse_box(args.box, mf.n)
    z = _parse_point(args.z, mf.n)
    t_grid = [
        _parse_scalar(part) for part in args.t_grid.split(",") if part.strip()
    ]
    report = _checked(homotopy_constancy_check, family, box, z, t_grid,
                      _solver_config(args))
    if report.constant:
        code = EXIT_CLEAN
    elif report.boundary_certified and not report.failures:
        code = EXIT_WITNESS  # certified degrees genuinely disagree
    else:
        code = EXIT_INCONCLUSIVE
    return {"z": z, "box": box, "t_grid": t_grid}, asdict(report), code


def _cmd_collide(args, mf: MapFile) -> tuple[dict, dict, int]:
    F = _compile_map(mf)
    box = _parse_box(args.box, F.n)
    cfg = _checked(CollisionConfig, samples=args.samples, seed=args.seed)
    witness = collision_search(F, box, cfg)
    if witness is None:
        results = {"found": False,
                   "note": "no witness within budget; this is not a proof "
                           "of injectivity"}
        return {"box": box}, results, EXIT_CLEAN
    return {"box": box}, {"found": True, **asdict(witness)}, EXIT_WITNESS


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
    """Every flag the command parsed but those inputs carries, and the
    solver configuration of a command that runs the fiber solver."""
    skip = {"command", "map", "box", "z", "base", "t_grid"}
    if getattr(args, "method", None) == "integral":
        skip.add("max_depth")  # the integral runs no fiber solve
    echo = {key: value for key, value in vars(args).items() if key not in skip}
    if "max_depth" in echo:
        echo["solver"] = asdict(_solver_config(args))
    return echo


def _render_md(report: dict) -> str:
    lines = [f"# {report['command']} report",
             "",
             f"tool version: {report['tool_version']}"]
    for section in ("inputs", "config", "results", "timings"):
        lines.append("")
        lines.append(f"## {section}")
        lines.append("```json")
        lines.append(_dumps(report[section]))
        lines.append("```")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as
    it was, and each call's namespace is new."""
    parser = _Parser(prog="degreelab",
                     description="Certified degree and injectivity analysis "
                                 "of polynomial maps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, box=True, z=False, depth=False, seed=False):
        p.add_argument("--map", required=True, help="map file (JSON)")
        if box:
            p.add_argument("--box", required=True,
                           help="box as lo:hi per dimension, comma separated "
                                "(use --box=-2:2,-2:2 for negative bounds)")
        if z:
            p.add_argument("--z", required=True, help="target point p/q,p/q,...")
        if depth:
            p.add_argument("--max-depth", type=int, default=60, dest="max_depth",
                           help="depth limit of the fiber solver's box tree")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed of the random samples")
        p.add_argument("--out", choices=("json", "md"), default="json")

    p = sub.add_parser("analyze", help="determinant, Keller status, form, "
                                       "Bezout bound, sign survey")
    common(p, seed=True)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--max-boxes", type=int, default=2048, dest="max_boxes")

    p = sub.add_parser("degree", help="topological degree at a target")
    common(p, z=True, depth=True)
    p.add_argument("--method", choices=("count", "integral", "both"),
                   default="count")

    p = sub.add_parser("fibers", help="certified fiber enumeration")
    common(p, z=True, depth=True)

    p = sub.add_parser("inject", help="injectivity pipeline over query points")
    common(p, box=False, depth=True)
    p.add_argument("--z", action="append", default=[],
                   help="query point (repeatable)")
    p.add_argument("--base", default=None, help="base point override")

    p = sub.add_parser("homotopy", help="degree constancy along a family")
    common(p, z=True, depth=True)
    p.add_argument("--t-grid", default="0,1/4,1/2,3/4,1", dest="t_grid")

    p = sub.add_parser("collide", help="search for two points with equal images")
    common(p, seed=True)
    p.add_argument("--samples", type=int, default=4096)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        mf = load_mapfile(args.map)
        inputs, results, code = _COMMANDS[args.command](args, mf)
        report = {
            "command": args.command,
            "tool_version": __version__,
            "inputs": {"map": mf.name, "path": mf.path, "sha256": mf.sha256, **inputs},
            "config": _config_echo(args),
            "results": results,
            "timings": {"seconds": time.monotonic() - started},
        }
        # encoded in full before anything is printed, so that a failure
        # here is an internal error with no partial report
        text = _render_md(report) if args.out == "md" else _dumps(report) + "\n"
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal error in {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
