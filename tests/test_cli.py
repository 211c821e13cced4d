import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from degreelab import cli
from degreelab.cli import (
    EXIT_INTERNAL,
    CliError,
    _parse_box,
    _parse_point,
    _parse_scalar,
    load_mapfile,
    main,
)
from degreelab.mapforms import jacobian_det


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else None
    return code, payload, captured


# ---------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------

def test_parse_scalar_rational():
    assert _parse_scalar("3/4") == Fraction(3, 4)
    assert _parse_scalar("-2") == Fraction(-2)
    assert _parse_scalar(" 5 ") == Fraction(5)


def test_parse_scalar_float_warns(capsys):
    value = _parse_scalar("0.5")
    assert value == Fraction(1, 2)
    assert "warning" in capsys.readouterr().err


def test_parse_scalar_rejects_garbage():
    with pytest.raises(CliError):
        _parse_scalar("abc")
    with pytest.raises(CliError):
        _parse_scalar("1/0")
    with pytest.raises(CliError):
        _parse_scalar("")


def test_parse_point_arity():
    assert _parse_point("1,2/3", 2) == (Fraction(1), Fraction(2, 3))
    with pytest.raises(CliError):
        _parse_point("1,2,3", 2)


def test_parse_box():
    box = _parse_box("-2:2,0:1", 2)
    assert box.lo == (-2.0, 0.0)
    assert box.hi == (2.0, 1.0)
    with pytest.raises(CliError):
        _parse_box("1:0", 1)  # empty side
    with pytest.raises(CliError):
        _parse_box("1,2", 2)  # missing colon
    with pytest.raises(CliError):
        _parse_box("-1:1", 2)  # wrong arity


def test_encode_fraction_and_box_only():
    assert cli._encode(Fraction(-3, 4)) == "-3/4"
    assert cli._encode(_parse_box("-2:2,0:1/2", 2)) == [[-2.0, 2.0], [0.0, 0.5]]
    with pytest.raises(TypeError):
        cli._encode(1 + 2j)


def test_encode_fraction_of_any_length_is_its_str():
    # chunk boundaries, runs of zeros inside a chunk, and both signs
    values = [Fraction(10 ** 600), Fraction(-(10 ** 1200) + 1, 7), Fraction(3, 10 ** 5000),
              Fraction(-(7 ** 9000) - 10 ** 3000, 2 ** 20000 + 1), Fraction(0)]
    limit = sys.get_int_max_str_digits()
    texts = [cli._encode(v) for v in values]
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------
# Map files
# ---------------------------------------------------------------------

def test_load_mapfile(fixtures_dir):
    mf = load_mapfile(str(fixtures_dir / "triangular.map"))
    assert mf.name == "triangular-shear"
    assert mf.n == 2
    assert mf.components == ("x1 + x2^3", "x2")
    assert mf.parameters == 0
    assert len(mf.sha256) == 64


def test_load_mapfile_missing():
    with pytest.raises(CliError):
        load_mapfile("/nonexistent/path.map")


def test_load_mapfile_bad_json(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("{not json")
    with pytest.raises(CliError, match="not valid JSON"):
        load_mapfile(str(bad))


def test_load_mapfile_schema_violation(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text(json.dumps({"name": "x", "n": 0, "components": ["x1"]}))
    with pytest.raises(CliError, match="schema"):
        load_mapfile(str(bad))


@pytest.mark.parametrize("doc", [
    {"name": "x", "n": 0, "components": ["x1"]},
    {"name": "", "n": 1, "components": ["x1"]},
    {"n": 1, "components": ["x1"]},
    {"name": "x", "n": 1, "components": []},
    {"name": "x", "n": 1, "components": ["x1"], "extra": 1},
    {"name": "x", "n": "1", "components": [3], "parameters": 2},
    [1, 2],
])
def test_schema_violation_message_is_jsonschemas(tmp_path, doc):
    # the validator built once gives the message jsonschema.validate gives
    schema = json.loads((resources.files("degreelab")
                         / "schemas/mapfile.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, schema)
    bad = tmp_path / "bad.map"
    bad.write_text(json.dumps(doc))
    for _ in range(2):
        with pytest.raises(CliError) as got:
            load_mapfile(str(bad))
        assert str(got.value) == f"{bad}: schema violation: {expected.value.message}"


def test_load_mapfile_component_count(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text(json.dumps({"name": "x", "n": 2, "components": ["x1"]}))
    with pytest.raises(CliError, match="components"):
        load_mapfile(str(bad))


def test_bad_expression_names_component(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text(json.dumps(
        {"name": "x", "n": 2, "components": ["x1", "x1 +* x2"]}))
    code = main(["analyze", "--map", str(bad), "--box=-1:1,-1:1"])
    assert code == 1
    assert "component 2" in capsys.readouterr().err


# ---------------------------------------------------------------------
# Commands end to end
# ---------------------------------------------------------------------

def test_analyze_triangular(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--map", str(fixtures_dir / "triangular.map"),
        "--box=-2:2,-2:2")
    assert code == 0
    results = payload["results"]
    assert results["jacobian_determinant"] == "1"
    assert results["keller"]["kind"] == "nonzero_constant"
    assert results["keller"]["constant_value"] == "1"
    assert results["form"]["form"] == "druzkowski"
    assert results["bezout_bound"] == 3
    assert results["sign_survey"]["classification"] == "positive"
    assert results["sign_survey"]["certified"] is True
    assert payload["tool_version"]
    assert payload["inputs"]["sha256"]


def test_analyze_squares_mixed(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--map", str(fixtures_dir / "squares.map"),
        "--box=-2:2,-2:2")
    assert code == 0
    survey = payload["results"]["sign_survey"]
    assert survey["classification"] == "mixed"
    assert len(survey["evidence"]) == 2


def test_analyze_survives_overflowing_samples(tmp_path, capsys):
    # x1^200 overflows a float at most sample points of this box; float
    # evaluation then gives inf without a RuntimeWarning
    mapfile = tmp_path / "big.map"
    mapfile.write_text(json.dumps(
        {"name": "big", "n": 2, "components": ["x1^200 + x2", "x2"]}))
    code, payload, captured = run_cli(
        capsys, "analyze", "--map", str(mapfile), "--box=-1000:1000,-1:1")
    assert code == 0
    assert payload["results"]["sign_survey"]["classification"] == "mixed"
    assert "Warning" not in captured.err


def test_analyze_reports_on_a_box_wider_than_the_float_range(fixtures_dir, capsys):
    # the width of the first side overflows to inf; the survey's cells and
    # samples must still have finite sides and exact midpoints
    code, payload, captured = run_cli(
        capsys, "analyze", "--map", str(fixtures_dir / "pinchuk.map"),
        "--box=-1.7e308:1.7e308,-1:1", "--max-boxes", "64")
    assert code in (0, 2)
    assert payload["results"]["sign_survey"]["classification"] == "positive"
    assert "Error" not in captured.err


@pytest.mark.parametrize("name, command, expected", [
    ("pinchuk.map", ["collide"], 0),
    ("triangular.map", ["fibers", "--z", "0,0"], 2),
    ("triangular.map", ["degree", "--method", "count", "--z", "0,0"], 2),
], ids=["collide", "fibers", "degree"])
def test_box_wider_than_the_float_range_warns_nowhere(fixtures_dir, capsys, name, command,
                                                      expected):
    # widths and midpoints of the first side overflow, which means nothing
    # is known there; a RuntimeWarning would be an error under pytest
    code, payload, captured = run_cli(
        capsys, *command, "--map", str(fixtures_dir / name), "--box=-1.7e308:1.7e308,-1:1")
    assert code == expected, captured.err
    assert payload is not None and "results" in payload


def test_analyze_prints_exact_values_past_the_digit_limit(fixtures_dir, capsys):
    # det JF at samples near 1e250 has about 4,500 digits, more than str()
    # converts under the interpreter's default limit of 4,300
    path = str(fixtures_dir / "pinchuk.map")
    code, payload, captured = run_cli(
        capsys, "analyze", "--map", path, "--box=-1e250:1e250,-1:1", "--max-boxes", "64")
    assert code == 0, captured.err
    det = jacobian_det(cli._compile_map(load_mapfile(path)))
    evidence = payload["results"]["sign_survey"]["evidence"]
    assert max(len(item["value"]) for item in evidence) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for item in evidence:
            assert item["value"] == str(det.eval(tuple(Fraction(c) for c in item["point"])))
    finally:
        sys.set_int_max_str_digits(limit)


def test_analyze_zero_component_has_no_bezout_bound(tmp_path, capsys):
    # a zero component has no total degree: the bound is null, not a crash
    mapfile = tmp_path / "zero.map"
    mapfile.write_text(json.dumps({"name": "zero", "n": 2, "components": ["0", "x2"]}))
    code, payload, captured = run_cli(
        capsys, "analyze", "--map", str(mapfile), "--box=-1:1,-1:1")
    assert code == 0, captured.err
    results = payload["results"]
    assert results["bezout_bound"] is None
    assert results["keller"] == {"kind": "zero_constant", "constant_value": "0"}
    assert results["sign_survey"]["classification"] == "vanishing_found"


def test_degree_both_methods(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "degree", "--map", str(fixtures_dir / "triangular.map"),
        "--z", "0,0", "--box=-2:2,-2:2", "--method", "both")
    assert code == 0
    results = payload["results"]
    assert results["count"]["value"] == 1
    assert results["count"]["certified"] is True
    assert results["integral"]["value"] == 1
    assert results["integral"]["certified"] is False
    assert results["agree"] is True


@pytest.mark.parametrize("z, code", [("0,0", 0), ("2,0", 2)])
def test_degree_both_certifies_the_boundary_once(fixtures_dir, capsys, monkeypatch, z, code):
    # both methods read one clearance; where it fails, each reports the
    # error it reports alone
    calls = []
    real = cli.boundary_clearance
    monkeypatch.setattr(cli, "boundary_clearance",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    argv = ["degree", "--map", str(fixtures_dir / "triangular.map"), "--z", z,
            "--box=-2:2,-2:2"]
    got, payload, _ = run_cli(capsys, *argv, "--method", "both")
    assert got == code and len(calls) == 1
    results = payload["results"]
    for method in ("count", "integral"):
        _, alone, _ = run_cli(capsys, *argv, "--method", method)
        assert results[method] == alone["results"][method]
    if code:
        assert results["count"]["error"].startswith("boundary: no certified clearance")


def test_degree_zero(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "degree", "--map", str(fixtures_dir / "even.map"),
        "--z", "1,0", "--box=-2:2,-2:2")
    assert code == 0
    assert payload["results"]["count"]["value"] == 0


def test_degree_singular_inconclusive(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "degree", "--map", str(fixtures_dir / "even.map"),
        "--z", "0,0", "--box=-2:2,-2:2")
    assert code == 2
    assert "error" in payload["results"]["count"]


def test_fibers_complete(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "fibers", "--map", str(fixtures_dir / "cubic_line.map"),
        "--z", "0", "--box=-2:2")
    assert code == 0
    results = payload["results"]
    assert results["status"] == "complete"
    assert results["count"] == 1
    assert results["roots"][0]["jacobian_sign"] == 1


def test_fibers_singular_exit_2(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "fibers", "--map", str(fixtures_dir / "even.map"),
        "--z", "0,0", "--box=-2:2,-2:2")
    assert code == 2
    assert payload["results"]["status"] == "singular_suspect"


@pytest.mark.parametrize("z, code, status", [("0,0", 2, "singular_suspect"),
                                            ("1,0", 0, "complete")])
def test_fibers_zero_component_ends_at_once(tmp_path, capsys, z, code, status):
    # det JF vanishes identically, so no root can be certified: the outer
    # box alone decides, where splitting used to run toward depth 60
    mapfile = tmp_path / "zero.map"
    mapfile.write_text(json.dumps({"name": "zero", "n": 2, "components": ["0", "x2"]}))
    started = time.perf_counter()
    got, payload, _ = run_cli(capsys, "fibers", "--map", str(mapfile),
                              "--box=-1:1,-1:1", "--z", z)
    assert time.perf_counter() - started < 1.0
    assert got == code
    assert payload["results"]["status"] == status
    assert payload["results"]["count"] == 0


def test_fibers_zero_determinant_empty_fiber(tmp_path, capsys):
    # det JF vanishes identically and both residuals' enclosures reach
    # zero on the outer box, but x1 + x2 = 0 and x1 + x2 = 1 have no common
    # point: exclusion on the subdivided box proves the fiber empty
    mapfile = tmp_path / "diagonal.map"
    mapfile.write_text(json.dumps(
        {"name": "diagonal", "n": 2, "components": ["x1 + x2", "x1 + x2"]}))
    got, payload, _ = run_cli(capsys, "fibers", "--map", str(mapfile),
                              "--box=-1:1,-1:1", "--z", "0,1")
    assert got == 0
    results = payload["results"]
    assert results["status"] == "complete"
    assert results["count"] == 0
    assert results["boxes_processed"] == 9


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; the CLI must not pay for its import
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, degreelab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_degree_count_survives_overflowing_enclosure(tmp_path, capsys):
    # x1^401 overflows on this box; the clearance enclosure then meets
    # 0 * inf, which must widen to [-inf, inf] rather than crash
    mapfile = tmp_path / "overflow.map"
    mapfile.write_text(json.dumps(
        {"name": "overflow", "n": 2, "components": ["x1^401*x2 + x1", "x2"]}))
    code, payload, captured = run_cli(
        capsys, "degree", "--method", "count", "--map", str(mapfile),
        "--box=-10:10,0:1", "--z", "1/3,1/2")
    assert code == 0
    assert payload["results"]["count"]["value"] == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    ["degree", "--z", "0,0"], ["fibers", "--z", "0,0"], ["collide"]])
def test_coefficient_too_large_for_float_gives_report(tmp_path, capsys, command):
    # 10^400 overflows a float; the float paths take it as an infinity
    mapfile = tmp_path / "bigcoeff.map"
    mapfile.write_text(json.dumps(
        {"name": "bigcoeff", "n": 2, "components": ["10^400*x1 - 1", "x2"]}))
    code, payload, captured = run_cli(
        capsys, *command, "--map", str(mapfile), "--box=-1:1,-1:1")
    assert code in (0, 2, 3)
    assert payload is not None and "results" in payload
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("method", ["integral", "both"])
def test_degree_integral_target_beyond_float_range(fixtures_dir, capsys, method):
    # the float integrand takes a target coordinate of 10^400 as an
    # infinity: every sample weighs 0, and the degree is 0, as counted
    code, payload, captured = run_cli(
        capsys, "degree", "--map", str(fixtures_dir / "triangular.map"),
        "--box=-2:2,-2:2", "--z", f"{10 ** 400},0", "--method", method)
    assert code == 0
    assert payload["results"]["integral"]["value"] == 0
    if method == "both":
        assert payload["results"]["agree"] is True
    assert "Traceback" not in captured.err and "Warning" not in captured.err


def test_box_bound_too_large_for_float_is_usage_error(fixtures_dir, capsys):
    huge = "1" + "0" * 400
    code, payload, captured = run_cli(
        capsys, "fibers", "--map", str(fixtures_dir / "squares.map"),
        f"--box=-{huge}:{huge},-1:1", "--z", "0,0")
    assert code == 1
    assert payload is None
    assert "too large for a float" in captured.err
    assert "Traceback" not in captured.err


def test_inject_triangular(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "inject", "--map", str(fixtures_dir / "triangular.map"),
        "--z", "1,1")
    assert code == 0
    results = payload["results"]
    assert results["verdict"] == "consistent_with_injectivity"
    assert results["records"][0]["fiber_size"] == 1
    assert results["records"][0]["degree_at_query"] == 1


def test_inject_certifies_the_segment_on_a_quartic_keller_map(tmp_path, capsys):
    # the path segment meets the image of the boundary of the radius-50 box;
    # radius 100 is the first whose boundary image it misses
    mapfile = tmp_path / "r16split.map"
    mapfile.write_text(json.dumps({"name": "r16split", "n": 2, "components": [
        "18*x1^4 - 12*x1^2*x2 + 6*x1^2 + 2*x2^2 + x1 - 2*x2", "-3*x1^2 + x2"]}))
    code, payload, _ = run_cli(capsys, "inject", "--map", str(mapfile), "--z=25,-3")
    assert code == 0
    results = payload["results"]
    assert results["verdict"] == "consistent_with_injectivity"
    (record,) = results["records"]
    assert record["radius"] == "100" and record["path_certified"] is True


def test_inject_requires_keller(fixtures_dir, capsys):
    code = main(["inject", "--map", str(fixtures_dir / "squares.map"),
                 "--z", "1,1"])
    assert code == 1
    assert "Jacobian" in capsys.readouterr().err


def test_inject_requires_query(fixtures_dir, capsys):
    code = main(["inject", "--map", str(fixtures_dir / "triangular.map")])
    assert code == 1


def test_homotopy_family(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "homotopy", "--map", str(fixtures_dir / "family_cubic.map"),
        "--z", "0", "--box=-2:2")
    assert code == 0
    results = payload["results"]
    assert results["boundary_certified"] is True
    assert results["degrees"] == [1, 1, 1, 1, 1]
    assert results["constant"] is True


def test_homotopy_rejects_plain_map(fixtures_dir, capsys):
    code = main(["homotopy", "--map", str(fixtures_dir / "cubic_line.map"),
                 "--z", "0", "--box=-2:2"])
    assert code == 1
    assert "family" in capsys.readouterr().err


def test_degree_rejects_family(fixtures_dir, capsys):
    code = main(["degree", "--map", str(fixtures_dir / "family_cubic.map"),
                 "--z", "0", "--box=-2:2"])
    assert code == 1


def test_collide_even_map(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "collide", "--map", str(fixtures_dir / "even.map"),
        "--box=-2:2,-2:2")
    assert code == 3
    results = payload["results"]
    assert results["found"] is True
    assert results["separation"] >= 0.1
    assert results["residual"] <= 1e-8


@pytest.mark.parametrize("flag", [("--samples", "-5"), ("--seed", "-1")])
def test_collide_bad_budget_is_usage_error(fixtures_dir, capsys, flag):
    code, payload, captured = run_cli(
        capsys, "collide", "--map", str(fixtures_dir / "even.map"),
        "--box=-2:2,-2:2", *flag)
    assert code == 1 and payload is None
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", [("--seed", "-1"), ("--samples", "0"), ("--max-boxes", "0")])
def test_analyze_bad_budget_is_usage_error(fixtures_dir, capsys, flag):
    code, payload, captured = run_cli(
        capsys, "analyze", "--map", str(fixtures_dir / "squares.map"),
        "--box=-2:2,-2:2", *flag)
    assert code == 1 and payload is None
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_collide_zero_samples_searches_prune_seeds_only(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "collide", "--map", str(fixtures_dir / "even.map"),
        "--box=-2:2,-2:2", "--samples", "0")
    assert code == 0 and payload["config"]["samples"] == 0


def test_collide_injective_none(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "collide", "--map", str(fixtures_dir / "cubic_line.map"),
        "--box=-2:2", "--samples", "512")
    assert code == 0
    assert payload["results"]["found"] is False
    assert "not a proof" in payload["results"]["note"]


def test_unexpected_exception_is_internal_error(fixtures_dir, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("soundness bug: test")

    monkeypatch.setattr(cli, "collision_search", broken)
    code, payload, captured = run_cli(capsys, "collide", "--map",
                                      str(fixtures_dir / "even.map"), "--box=-2:2,-2:2")
    assert code == EXIT_INTERNAL == 4
    assert payload is None and captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.rstrip().splitlines()[-1] == (
        "error: internal error in collide: RuntimeError: soundness bug: test")


@pytest.mark.parametrize("out", ["json", "md"])
def test_report_encoding_failure_is_internal_error(fixtures_dir, capsys, monkeypatch, out):
    def broken(*args, **kwargs):
        raise ValueError("cannot encode")

    monkeypatch.setattr(cli, "_dumps", broken)
    code = main(["analyze", "--map", str(fixtures_dir / "triangular.map"),
                 "--box=-2:2,-2:2", "--out", out])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.rstrip().splitlines()[-1] == (
        "error: internal error in analyze: ValueError: cannot encode")


def test_usage_error_exit_code(fixtures_dir):
    with pytest.raises(SystemExit) as info:
        main(["degree", "--z", "0"])  # --map missing
    assert info.value.code == 1


def test_parser_is_built_once(fixtures_dir, capsys):
    assert cli.build_parser() is cli.build_parser()
    mapfile = str(fixtures_dir / "triangular.map")
    code, first, _ = run_cli(capsys, "inject", "--map", mapfile, "--z", "1,1", "--z", "0,2")
    assert code == 0
    assert first["inputs"]["queries"] == [["1", "1"], ["0", "2"]]
    # the --z list of one call is not the default of the next
    code, second, _ = run_cli(capsys, "inject", "--map", mapfile, "--z", "0,2")
    assert code == 0
    assert second["inputs"]["queries"] == [["0", "2"]]
    assert [r["query"] for r in second["results"]["records"]] == [["0", "2"]]


def test_usage_error_leaves_the_parser_working(fixtures_dir, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fibers", "--map", str(fixtures_dir / "cubic_line.map"), "--box=-2:2"])
    assert info.value.code == 1  # --z missing
    code, payload, _ = run_cli(capsys, "fibers", "--map", str(fixtures_dir / "cubic_line.map"),
                               "--z", "0", "--box=-2:2")
    assert code == 0
    assert payload["inputs"]["z"] == ["0"] and payload["results"]["status"] == "complete"


def test_report_determinism(fixtures_dir, capsys):
    args = ("degree", "--map", str(fixtures_dir / "triangular.map"),
            "--z", "0,0", "--box=-2:2,-2:2", "--method", "both")
    _, payload_a, _ = run_cli(capsys, *args)
    _, payload_b, _ = run_cli(capsys, *args)
    del payload_a["timings"], payload_b["timings"]
    assert json.dumps(payload_a, sort_keys=True) == json.dumps(payload_b, sort_keys=True)


def test_config_echo_present(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "fibers", "--map", str(fixtures_dir / "cubic_line.map"),
        "--z", "0", "--box=-2:2", "--max-depth", "40")
    assert code == 0
    assert payload["config"]["max_depth"] == 40
    assert payload["config"]["solver"]["max_depth"] == 40
    code, payload, _ = run_cli(
        capsys, "collide", "--map", str(fixtures_dir / "cubic_line.map"),
        "--box=-2:2", "--samples", "64")
    assert code == 0
    assert payload["config"]["seed"] == 0


# each command's invocation, and the config keys its report echoes: the
# flags it takes that inputs does not carry, and the solver block with
# --max-depth
_COMMAND_CONFIG = {
    "analyze": (["--map", "squares.map", "--box=-2:2,-2:2", "--samples", "64",
                 "--max-boxes", "64"], {"out", "seed", "samples", "max_boxes"}),
    "degree": (["--map", "triangular.map", "--box=-2:2,-2:2", "--z", "0,0"],
               {"out", "max_depth", "solver", "method"}),
    "fibers": (["--map", "cubic_line.map", "--box=-2:2", "--z", "0"],
               {"out", "max_depth", "solver"}),
    "inject": (["--map", "triangular.map", "--z", "1,1"], {"out", "max_depth", "solver"}),
    "homotopy": (["--map", "family_cubic.map", "--box=-2:2", "--z", "0", "--t-grid", "0,1"],
                 {"out", "max_depth", "solver"}),
    "collide": (["--map", "even.map", "--box=-2:2,-2:2", "--samples", "64"],
                {"out", "seed", "samples"}),
}


def _command_argv(fixtures_dir, command):
    argv, keys = _COMMAND_CONFIG[command]
    return [command] + [str(fixtures_dir / a) if a.endswith(".map") else a
                        for a in argv], keys


@pytest.mark.parametrize("command", sorted(_COMMAND_CONFIG))
def test_config_echo_is_the_flags_the_command_takes(fixtures_dir, capsys, command):
    argv, keys = _command_argv(fixtures_dir, command)
    code, payload, _ = run_cli(capsys, *argv)
    assert code in (0, 3) and payload is not None
    assert set(payload["config"]) == keys
    if "solver" in keys:
        assert payload["config"]["solver"] == {"max_depth": 60}


def test_degree_integral_echoes_no_solver(fixtures_dir, capsys):
    # the integral runs no fiber solve, so nothing reads --max-depth
    argv, _ = _command_argv(fixtures_dir, "degree")
    code, payload, _ = run_cli(capsys, *argv, "--method", "integral", "--max-depth", "7")
    assert code == 0
    assert payload["config"] == {"method": "integral", "out": "json"}
    code, payload, captured = run_cli(capsys, *argv, "--method", "integral",
                                      "--max-depth", "0")
    assert code == 1 and payload is None
    assert captured.err == "error: solver max_depth must be positive, got 0\n"


@pytest.mark.parametrize("command, flag", [
    ("fibers", ("--seed", "1")), ("degree", ("--seed", "1")), ("inject", ("--seed", "1")),
    ("homotopy", ("--seed", "1")), ("collide", ("--max-depth", "5")),
    ("analyze", ("--max-depth", "5"))])
def test_removed_flag_is_usage_error(fixtures_dir, capsys, command, flag):
    argv, _ = _command_argv(fixtures_dir, command)
    with pytest.raises(SystemExit) as info:
        main(argv + list(flag))
    assert info.value.code == 1
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["degree", "fibers", "inject", "homotopy"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_bad_max_depth_is_usage_error(fixtures_dir, capsys, command, depth):
    argv, _ = _command_argv(fixtures_dir, command)
    code, payload, captured = run_cli(capsys, *argv, "--max-depth", depth)
    assert code == 1 and payload is None
    assert captured.err == f"error: solver max_depth must be positive, got {depth}\n"


def test_homotopy_empty_grid_is_usage_error(fixtures_dir, capsys):
    code, payload, captured = run_cli(
        capsys, "homotopy", "--map", str(fixtures_dir / "family_cubic.map"),
        "--box=-2:2", "--z", "0", "--t-grid=,")
    assert code == 1 and payload is None
    assert captured.err == "error: parameter grid needs at least one value\n"


def test_md_output(fixtures_dir, capsys):
    code = main(["fibers", "--map", str(fixtures_dir / "cubic_line.map"),
                 "--z", "0", "--box=-2:2", "--out", "md"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# fibers report")
    assert "## results" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
