import json
from fractions import Fraction

import pytest

from degreelab.cli import (
    CliError,
    _parse_box,
    _parse_point,
    _parse_scalar,
    load_mapfile,
    main,
)


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


def test_collide_injective_none(fixtures_dir, capsys):
    code, payload, _ = run_cli(
        capsys, "collide", "--map", str(fixtures_dir / "cubic_line.map"),
        "--box=-2:2", "--samples", "512")
    assert code == 0
    assert payload["results"]["found"] is False
    assert "not a proof" in payload["results"]["note"]


def test_usage_error_exit_code(fixtures_dir):
    with pytest.raises(SystemExit) as info:
        main(["degree", "--z", "0"])  # --map missing
    assert info.value.code == 1


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
    assert payload["config"]["seed"] == 0


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
