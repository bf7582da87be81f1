import json
import subprocess
import sys

import numpy as np
import pytest

from orthoglide import CSV_HEADER, DEFAULT_CONFIG
from orthoglide.cli import main


def test_ik_text_pinned(capsys):
    assert main(["ik", "--point", "0,0,0.6"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("L: 0.0 ")
    assert len(lines) == 4
    assert lines[1].startswith("chain1:")


def test_ik_json(capsys):
    assert main(["ik", "--point", "0,0,0.6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["L"][0] == 0.0
    q1 = payload["chain_q"][0]
    assert q1 == pytest.approx([0.0, -np.pi / 2, 0.0], abs=1e-12)


def test_ik_out_of_reach_reports_domain_error(capsys):
    assert main(["ik", "--point", "0,0,1.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:OutOfWorkspace:")
    assert "arcsine" in err


def test_usage_errors_exit_2(capsys):
    assert main(["ik"]) == 2
    for command in (["ik"], ["idm"], ["ddm"]):  # they print text or JSON only
        assert main(command + ["--point", "0,0,0.6", "--format", "csv"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_idm_ddm_round_trip_via_json(capsys):
    point = "0.02,-0.03,0.58"
    vel = "0.1,0.05,-0.02"
    acc = "0.4,-0.3,0.2"
    assert main(["idm", "--point", point, "--vel", vel, "--acc", acc, "--format", "json"]) == 0
    gamma = json.loads(capsys.readouterr().out)["Gamma"]
    torque = ",".join(repr(g) for g in gamma)
    assert main(["ddm", "--point", point, "--vel", vel, "--torque", torque, "--format", "json"]) == 0
    vdot = json.loads(capsys.readouterr().out)["Vdot"]
    assert vdot == pytest.approx([0.4, -0.3, 0.2], abs=1e-9)


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main([
        "simulate", "--point", "0,0,0.6", "--dt", "1e-3", "--t-end", "0.01",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12  # header + initial sample + 10 steps
    capsys.readouterr()


def test_simulate_stdout_matches_file(tmp_path, capsys):
    argv = ["simulate", "--point", "0,0,0.6", "--dt", "1e-3", "--t-end", "0.005"]
    out = tmp_path / "run.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_simulate_rejects_both_torque_flags(tmp_path, capsys):
    tq = tmp_path / "tq.csv"
    tq.write_text("t,G1,G2,G3\n0.0,0.1,0.0,0.0\n")
    rc = main([
        "simulate", "--point", "0,0,0.6", "--t-end", "0.001",
        "--torque", "0,0,0", "--torque-file", str(tq),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


def test_simulate_t_end_off_the_step_grid_exits_1(capsys):
    rc = main(["simulate", "--point", "0,0,0.6", "--dt", "0.003", "--t-end", "0.01"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


@pytest.mark.parametrize("flag, value", (("--t-end", "inf"), ("--t-end", "nan"), ("--dt", "inf")))
def test_simulate_non_finite_time_settings_exit_1(capsys, flag, value):
    assert main(["simulate", "--point", "0,0,0.6", flag, value]) == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


@pytest.mark.parametrize(
    "argv",
    (
        ["verify", "--seed", "-1"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "-3"],
        # a step count that overflows (5e-324) or that numpy cannot size (1e-300)
        ["simulate", "--point", "0,0,0.6", "--dt", "5e-324"],
        ["simulate", "--point", "0,0,0.6", "--dt", "1e-300"],
    ),
    ids=("seed=-1", "samples=0", "samples=-3", "dt=5e-324", "dt=1e-300"),
)
def test_out_of_range_settings_exit_1(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


def test_simulate_with_torque_file(tmp_path, capsys):
    tq = tmp_path / "tq.csv"
    tq.write_text("t,G1,G2,G3\n0.0,0.0,0.0,9.81\n0.005,0.0,0.0,0.0\n")
    out = tmp_path / "run.json"
    rc = main([
        "simulate", "--point", "0,0,0.6", "--dt", "1e-3", "--t-end", "0.01",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    free = json.loads(out.read_text())["samples"]
    rc = main([
        "simulate", "--point", "0,0,0.6", "--dt", "1e-3", "--t-end", "0.01",
        "--format", "json", "--out", str(out), "--torque-file", str(tq),
    ])
    assert rc == 0
    driven = json.loads(out.read_text())["samples"]
    # the held force lifts the platform relative to the free fall
    assert driven[-1]["P"][2] > free[-1]["P"][2]
    capsys.readouterr()


def test_verify_subset(capsys):
    rc = main([
        "verify", "--samples", "5", "--seed", "3",
        "--checks", "igm_forward_round_trip,jacobian_inverse_identity",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "igm_forward_round_trip" in out
    assert "pass" in out


def test_verify_misspelt_check_is_a_validation_error(capsys):
    assert main(["verify", "--samples", "1", "--checks", "isotropic_invers"]) == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


@pytest.mark.parametrize("checks", (",", " , ", ""))
def test_verify_empty_check_selection_is_a_validation_error(capsys, checks):
    assert main(["verify", "--samples", "1", "--checks", checks]) == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


@pytest.mark.parametrize("tol", ("nan", "-1"))
def test_verify_nan_or_negative_tolerance_in_the_model_exits_1(tmp_path, capsys, tol):
    cfg = tmp_path / "m.ini"
    cfg.write_text(DEFAULT_CONFIG + "\n[verify]\nisotropic_inverse = %s\n" % tol)
    assert main(["verify", "--model", str(cfg), "--samples", "1", "--checks", "isotropic_inverse"]) == 1
    assert capsys.readouterr().err.startswith("ERROR:ValidationError:")


def test_verify_json_report(tmp_path, capsys):
    rep = tmp_path / "report.json"
    rc = main([
        "verify", "--samples", "5", "--checks", "closure_gap", "--out", str(rep),
    ])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert len(data) == 1
    assert data[0]["check_name"] == "closure_gap"
    assert data[0]["pass"] is True
    capsys.readouterr()


def test_verify_failure_exits_1(tmp_path, capsys):
    cfg = tmp_path / "strict.ini"
    cfg.write_text(DEFAULT_CONFIG + "\n[verify]\njacobian_fd = 1e-18\n")
    rc = main([
        "verify", "--model", str(cfg), "--samples", "5", "--checks", "jacobian_fd",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ERROR:VerificationFailure: 1 of 1 checks failed" in err


def test_bad_model_path(capsys):
    assert main(["ik", "--model", "/no/such/file.ini", "--point", "0,0,0.6"]) == 1
    assert capsys.readouterr().err.startswith("ERROR:ParseError:")


def test_model_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "model.ini"
    cfg.write_text(DEFAULT_CONFIG)
    assert main(["ik", "--model", str(cfg), "--point", "0,0,0.6"]) == 0
    from_file = capsys.readouterr().out
    assert main(["ik", "--point", "0,0,0.6"]) == 0
    assert from_file == capsys.readouterr().out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "orthoglide.cli", "ik", "--point", "0,0,0.6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("L: 0.0 ")


def test_simulate_torque_file_non_numeric_cell(tmp_path, capsys):
    tq = tmp_path / "tq.csv"
    tq.write_text("t,G1,G2,G3\n0.0,0.1,oops,0.0\n")
    rc = main(["simulate", "--point", "0,0,0.6", "--t-end", "0.001", "--torque-file", str(tq)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR:ParseError:")


def test_simulate_missing_torque_file(tmp_path, capsys):
    rc = main([
        "simulate", "--point", "0,0,0.6", "--t-end", "0.001",
        "--torque-file", str(tmp_path / "no_such.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR:FileNotFoundError:")


def test_simulate_out_into_missing_directory(tmp_path, capsys):
    rc = main([
        "simulate", "--point", "0,0,0.6", "--dt", "1e-3", "--t-end", "0.001",
        "--out", str(tmp_path / "no_such_dir" / "run.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR:FileNotFoundError:")


def test_verify_json_report_carries_wall_time(tmp_path, capsys):
    rep = tmp_path / "report.json"
    rc = main(["verify", "--samples", "5", "--checks", "closure_gap,isotropic_inverse", "--out", str(rep)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert [d["check_name"] for d in data] == ["closure_gap", "isotropic_inverse"]
    for d in data:
        assert isinstance(d["wall_s"], float) and d["wall_s"] >= 0.0
    # the table keeps its layout
    assert "wall" not in capsys.readouterr().out
