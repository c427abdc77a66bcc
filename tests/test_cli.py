import json
import re
import time

import pytest

from cubemass import cli
from cubemass.errors import DomainError
from cubemass.quad import QuadratureSpec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_flat_gromov(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--metric", "flat",
                           "--method", "gromov", "--L", "10")
    assert code == 0
    report = json_out(out)
    assert report["method"] == "gromov_cube"
    assert report["value"] == 0.0
    assert list(report) == ["method", "model", "L", "value", "breakdown",
                            "quadrature", "measure", "runtime_seconds", "version"]


def test_estimate_schwarzschild_adm(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                           "--mass", "1", "--method", "adm", "--L", "100")
    assert code == 0
    report = json_out(out)
    # pinned finite-size bias of the coordinate flux at L=100
    assert report["value"] == pytest.approx(1.0125, abs=5e-4)
    assert report["model"]["exact_mass"] == 1.0


def test_estimate_bkks_with_axis(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                           "--mass", "1", "--method", "bkks", "--axis", "2",
                           "--L", "100")
    assert code == 0
    report = json_out(out)
    assert report["value"] == pytest.approx(1.0, abs=0.05)
    assert abs(report["breakdown"]["correction_term"]) > 1.0


def test_estimate_defect(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                           "--mass", "-1", "--method", "defect", "--L", "50")
    assert code == 0
    assert json_out(out)["value"] < 0.0


def test_bartnik_with_and_without_axis(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--metric", "flat",
                           "--method", "bartnik", "--L", "10")
    assert code == 0 and json_out(out)["method"] == "bartnik_sum"
    code, out, _ = run_cli(capsys, "estimate", "--metric", "flat",
                           "--method", "bartnik", "--axis", "1", "--L", "10")
    assert code == 0 and json_out(out)["method"] == "bartnik_integral"


def test_numbers_serialized_at_17_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                        "--method", "gromov", "--L", "25")
    value_line = next(l for l in out.splitlines() if '"value"' in l)
    digits = re.sub(r"\D", "", value_line.split(":")[1])
    assert len(digits) >= 16  # 17 significant digits modulo leading zeros
    report = json_out(out)
    assert report["value"] == float(value_line.split(":")[1].strip().rstrip(","))


def test_byte_identical_reports_modulo_runtime(capsys):
    argv = ("estimate", "--metric", "pullback", "--tau", "0.75",
            "--method", "gauss-bonnet", "--L", "10", "--seed", "7")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    strip = lambda s: re.sub(r'"runtime_seconds": [^,\n]+', '"runtime_seconds": X', s)
    assert strip(out1) == strip(out2)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "estimate", "--metric", "flat",
                           "--method", "adm", "--L", "5", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["value"] == 0.0


# ---------------------------------------------------------------------------
# validation and numeric failures
# ---------------------------------------------------------------------------

def test_missing_L_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "estimate", "--metric", "flat",
                           "--method", "adm")
    assert code == 2
    assert "required" in err


def test_unknown_metric_is_validation_error(capsys):
    code, _, _ = run_cli(capsys, "estimate", "--metric", "kerr",
                         "--method", "adm", "--L", "10")
    assert code == 2


def test_unknown_method_flag_exits_2(capsys):
    code = cli.main(["estimate", "--metric", "flat", "--method", "nope",
                     "--L", "10"])
    capsys.readouterr()
    assert code == 2


def test_cube_inside_inner_radius_is_numeric_failure(capsys):
    code, _, err = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                           "--method", "gromov", "--L", "1.0")
    assert code == 3
    assert "inner_radius" in err


@pytest.mark.parametrize("L, message", [("inf", "cube half-side must be finite, got inf"),
                                        ("-5", "cube half-side must be positive, got -5.0")],
                         ids=["inf", "negative"])
def test_cube_half_side_faults_are_named(capsys, L, message):
    code, out, err = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                             "--method", "gauss-bonnet", "--L", L)
    assert code == 3
    assert out == "" and err == f"numeric failure: {message}\n"


def test_bad_model_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "flat", "tau": 1.0,
                                "inner_radius": 0.0, "params": {}, "oops": 1}))
    code, _, _ = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                         "--method", "adm", "--L", "10")
    assert code == 2


@pytest.mark.parametrize("command", [("estimate", "--L", "100"),
                                     ("converge", "--Ls", "25,50,100,200")],
                         ids=["estimate", "converge"])
@pytest.mark.parametrize("override", [{"tau": 0.3}, {"inner_radius": -1.0}],
                         ids=["tau", "inner_radius"])
def test_invalid_file_tau_or_inner_radius_exits_2(tmp_path, capsys, command, override):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "conformal", "tau": 1.0, "inner_radius": 1.0,
                                "params": {"schwarzschild_mass": 1.0}, **override}))
    code, out, err = run_cli(capsys, command[0], "--metric", f"file:{path}",
                             "--method", "adm", *command[1:])
    assert code == 2
    assert out == "" and err.startswith("error:")


_FLAT_COMPONENTS = {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}


def test_estimate_of_a_model_whose_hessian_overflows_exits_0(tmp_path, capsys):
    # g and dg are finite on the cube (x <= 3); the estimators never evaluate
    # the Hessian, which overflows there, so it no longer makes the run exit 3
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "expression", "tau": 1.0, "inner_radius": 0.0,
                                "params": {**_FLAT_COMPONENTS,
                                           "g11": "1 + 1e-50*exp(1e200*(x - 4))"}}))
    code, out, _ = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                           "--method", "gromov", "--L", "3")
    assert code == 0
    assert abs(json_out(out)["value"]) < 1e-12


@pytest.mark.parametrize("cfg, key", [
    ({"kind": "conformal", "tau": 1.0, "params": {"factor": 5}}, "factor"),
    ({"kind": "diffeo_pullback_flat", "tau": 0.75,
      "params": {"xi1": 1, "xi2": "0", "xi3": "0"}}, "xi1"),
    ({"kind": "expression", "tau": 1.0, "params": {**_FLAT_COMPONENTS, "g11": 1}}, "g11"),
], ids=["conformal_factor", "displacement", "expression_component"])
def test_number_where_an_expression_is_required_exits_2(tmp_path, capsys, cfg, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"inner_radius": 2.0, **cfg}))
    code, out, err = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                             "--method", "adm", "--L", "100")
    assert code == 2
    assert out == "" and err.startswith(f"error: 'params.{key}' must be an expression string")


@pytest.mark.parametrize("cfg, message", [
    ({"kind": "composed", "tau": 0.95, "params": {"tau_diffeo": 0.6}},
     "exceeds the chart falloff"),
    ({"kind": "diffeo_pullback_flat", "tau": 0.75, "params": {"tau": 0.95}},
     "differs from the model tau"),
    ({"kind": "diffeo_pullback_flat", "tau": 0.75, "params": {"xi1": "0.5*x/r"}},
     "missing ['xi2', 'xi3']"),
], ids=["composed_tau_above_falloff", "pullback_params_tau", "pullback_partial_xi"])
def test_inconsistent_file_model_exits_2(tmp_path, capsys, cfg, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"inner_radius": 2.0, **cfg}))
    code, out, err = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                             "--method", "adm", "--L", "100")
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


_MALFORMED_FILES = {
    "invalid_json": ('{"kind": "flat", ', "cannot read model file"),
    "tau_text": (json.dumps({"kind": "flat", "tau": "abc", "inner_radius": 0.0}),
                 "'tau' must be a number"),
    "tau_null": (json.dumps({"kind": "flat", "tau": None, "inner_radius": 0.0}),
                 "'tau' must be a number"),
    "amplitude_text": (json.dumps({"kind": "diffeo_pullback_flat", "tau": 0.75,
                                   "inner_radius": 2.0, "params": {"amplitude": "big"}}),
                       "'params.amplitude' must be a number"),
}


@pytest.mark.parametrize("case", ["Ls_text", "missing_file", *_MALFORMED_FILES])
def test_malformed_input_exits_2_without_a_traceback(tmp_path, capsys, case):
    path = tmp_path / "model.json"
    if case == "Ls_text":
        argv, message = ["converge", "--metric", "pullback", "--Ls", "10,abc,20,40"], "--Ls"
    else:
        argv = ["estimate", "--metric", f"file:{path}", "--L", "100"]
        message = f"cannot read model file '{path}'"
        if case in _MALFORMED_FILES:
            text, message = _MALFORMED_FILES[case]
            path.write_text(text)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (("--metric", "schwarzschild", "--mass", "nan"), "mass must be finite"),
    (("--metric", "pullback", "--tau", "inf"), "tau must be finite"),
    (("--metric", "pullback", "--mass", "inf"), "amplitude must be finite"),
], ids=["schwarzschild_mass", "pullback_tau", "pullback_amplitude"])
def test_non_finite_model_parameter_exits_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "estimate", *flags, "--method", "adm", "--L", "100")
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("override", [{"inner_radius": "nan"}, {"exact_mass": "inf"}],
                         ids=["inner_radius", "exact_mass"])
def test_non_finite_file_value_exits_2(tmp_path, capsys, override):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "flat", "tau": 1.0, "inner_radius": 0.0,
                                **override}))
    code, out, err = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                             "--method", "adm", "--L", "100")
    assert code == 2
    assert out == "" and f"{next(iter(override))} must be finite" in err


def test_non_positive_definite_file_model_is_numeric_failure(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "kind": "expression", "tau": 1.0, "inner_radius": 0.0,
        "exact_mass": None,
        "params": {"g11": "-1", "g12": "0", "g13": "0",
                   "g22": "1", "g23": "0", "g33": "1"}}))
    code, _, _ = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                         "--method", "adm", "--L", "10")
    assert code == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_file_model_is_numeric_failure(tmp_path, capsys):
    # exp(r - 700) overflows on the L = 2000 cube: the jets are not finite,
    # and the user sees one error line, not numpy's overflow warnings
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "conformal", "tau": 1, "inner_radius": 1,
                                "params": {"factor": "1 + exp(r - 700)"}}))
    code, out, err = run_cli(capsys, "estimate", "--metric", f"file:{path}",
                             "--method", "adm", "--L", "2000")
    assert code == 3
    assert err.startswith("numeric failure") and len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("radius", ["0.5", "nan"])
def test_sphere_outside_chart_is_numeric_failure(capsys, radius):
    # schwarzschild has inner_radius 1, like the cube case --method adm --L 1.5
    code, out, err = run_cli(capsys, "estimate", "--metric", "schwarzschild",
                             "--method", "adm-sphere", "--L", radius)
    assert code == 3
    assert err.startswith("numeric failure: sphere radius")
    assert out == ""


def test_non_finite_report_value_is_numeric_failure():
    with pytest.raises(DomainError):
        cli.dumps({"value": float("nan")})


def test_threads_flag_is_rejected(capsys):
    code, _, err = run_cli(capsys, "estimate", "--metric", "flat", "--method", "adm",
                           "--L", "10", "--threads", "2")
    assert code == 2
    assert "--threads" in err


@pytest.mark.parametrize("command", ["estimate", "converge"])
def test_order_flags_default_to_the_quadrature_spec(command):
    args = cli.build_parser().parse_args([command])
    assert cli._build_spec(args).describe() == QuadratureSpec().describe()


@pytest.mark.parametrize("flag", ["--slice-order", "--curve-order"])
def test_slice_orders_are_not_flags(capsys, flag):
    # slice levels and curve nodes use the one order
    code, out, err = run_cli(capsys, "estimate", "--metric", "flat", "--method",
                             "gauss-bonnet", "--L", "10", flag,
                             "36" if flag == "--slice-order" else "24")
    assert code == 2
    assert out == "" and flag in err


def test_report_quadrature_block_has_the_order(capsys):
    for extra, order in (((), 24), (("--order", "12"), 12)):
        code, out, _ = run_cli(capsys, "estimate", "--metric", "flat",
                               "--method", "gauss-bonnet", "--L", "10", *extra)
        assert code == 0
        assert json_out(out)["quadrature"] == {"order": order}


@pytest.mark.parametrize("flag", ["--face-order", "--edge-order"])
def test_face_and_edge_orders_are_not_flags(capsys, flag):
    # one rule sets the faces, the edges and the slices
    code, out, err = run_cli(capsys, "estimate", "--metric", "flat", "--method",
                             "gauss-bonnet", "--L", "10", flag, "24")
    assert code == 2
    assert out == "" and flag in err


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_emits_json_and_csv(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    code, _, _ = run_cli(capsys, "converge", "--metric", "schwarzschild",
                         "--method", "gromov", "--Ls", "25,50,100,200",
                         "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert 0.8 <= report["fitted_rate"] <= 1.2
    csv_lines = (tmp_path / "ladder.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "L,estimate,abs_error"
    assert len(csv_lines) == 5


def test_converge_to_stdout_appends_csv(capsys):
    code, out, _ = run_cli(capsys, "converge", "--metric", "flat",
                           "--method", "adm", "--Ls", "5,10,20,40")
    assert code == 0
    assert '"quadrature_floor": true' in out
    assert "L,estimate,abs_error" in out


# ---------------------------------------------------------------------------
# stern
# ---------------------------------------------------------------------------

def test_stern_survey_cli(capsys):
    code, out, _ = run_cli(capsys, "stern", "--metric", "flat",
                           "--harmonic", "monopole", "--samples", "200",
                           "--seed", "3", "--fd-step", "1e-5")
    assert code == 0
    report = json_out(out)
    assert report["max_residual"] <= 1e-8
    assert len(report["worst"]) == 10


def test_stern_pairing_enforced(capsys):
    code, _, _ = run_cli(capsys, "stern", "--metric", "flat",
                         "--harmonic", "schwarzschild")
    assert code == 2
    code, _, _ = run_cli(capsys, "stern", "--metric", "schwarzschild",
                         "--harmonic", "monopole")
    assert code == 2


def test_stern_rejects_estimator_flags(capsys):
    code, _, err = run_cli(capsys, "stern", "--metric", "flat", "--L", "10")
    assert code == 2
    assert "--L" in err


def test_stern_deterministic_output(capsys):
    argv = ("stern", "--metric", "schwarzschild", "--harmonic", "schwarzschild",
            "--samples", "100", "--seed", "9")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    strip = lambda s: re.sub(r'"runtime_seconds": [^,\n]+', "X", s)
    assert strip(out1) == strip(out2)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_default_passes(capsys):
    code, out, _ = run_cli(capsys, "check")
    assert code == 0
    assert "FAIL" not in out
    assert re.search(r"(\d+)/\1 checks passed", out)


def test_check_flat_only_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", "--flat-only")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    assert "kappa-circle-sign" in out


def test_check_detects_injected_kappa_sign_fault(capsys):
    code, out, _ = run_cli(capsys, "check", "--flat-only",
                           "--inject-fault", "kappa-sign")
    assert code == 1
    assert "FAIL kappa-circle-sign" in out
