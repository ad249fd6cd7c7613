"""CLI behaviour: output contracts, exit codes, file emission."""

import argparse
import importlib.util
import inspect
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from spoonarm import JointState
from spoonarm.cli import build_parser, main
from spoonarm.config import default_config_path, save_config, save_scenario
from spoonarm.dynamics import (
    CONTACT_HORIZON,
    DEFAULT_TIMESTEP,
    NoiseTremor,
    Scenario,
    run_scenario,
    spoon_contact_response,
)
from spoonarm.kinematics import forward_kinematics
from spoonarm.serialize import (
    BALANCE_HEADER,
    COMPARE_HEADER,
    SIM_HEADER,
    WORKSPACE_HEADER,
    block_rows,
    fmt,
    write_sim_csv,
    write_workspace_csv,
)

from shipped import NOMINAL, RIGID, SHIPPED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def values(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        name, _, rest = line.partition(" ")
        out[name] = rest
    return out


def small_scenario(tmp_path, name="scenario.json"):
    scn = Scenario(duration=0.2, timestep=1e-3,
                   initial=JointState(q=(0.0, 0.7, -1.4)),
                   input=NoiseTremor(rms=0.25, f_lo=2.0, f_hi=9.0, seed=7))
    path = tmp_path / name
    save_scenario(scn, path)
    return path, scn


# ---------------------------------------------------------------------------
# kinematics commands


def test_fk_matches_library(capsys):
    code, out, err = run(capsys, "fk", "--q", "0.3,0.6,-0.9")
    assert code == 0 and err == ""
    got = values(out)
    spoon, handle = forward_kinematics(NOMINAL, JointState(q=(0.3, 0.6, -0.9)))
    for name, pose in (("spoon", spoon), ("handle", handle)):
        for field in ("x", "y", "z", "yaw"):
            assert float(got[f"{name}_{field}"]) == getattr(pose, field)


def test_ik_fk_round_trip(capsys):
    code, out, _ = run(capsys, "ik", "--target", "0.35,0.0,0.02")
    assert code == 0
    angles = values(out)
    q = ",".join(angles[k] for k in ("phi1", "theta2", "theta3"))
    code, out, _ = run(capsys, "fk", "--q", q)
    assert code == 0
    got = values(out)
    assert abs(float(got["spoon_x"]) - 0.35) < 1e-9
    assert abs(float(got["spoon_y"])) < 1e-9
    assert abs(float(got["spoon_z"]) - 0.02) < 1e-9


# stdout of `spoonarm ik`, pinned: its angles come from math, not numpy
IK_STDOUT = {
    "0.35,0.0,0.02": ("0.0", "0.7347863005736404", "-1.4323283077414541"),
    "0.35,0.0,0.35": ("0.0", "1.6910599334760779", "0.007223018384193036"),
    "0.3,-0.1,0.25": ("-0.32175055439664224", "1.750199842120792",
                      "-0.3940707260909351"),
    "-0.2,0.25,0.1": ("2.2455372690184494", "1.1806622465449577",
                      "-1.180662246544958"),
    "0.0,-0.4,-0.05": ("-1.5707963267948966", "0.39783508129246625",
                       "-1.4120320900771404"),
}


@pytest.mark.parametrize("target", IK_STDOUT)
def test_ik_stdout_is_unchanged(capsys, target):
    code, out, err = run(capsys, "ik", f"--target={target}")
    assert code == 0 and err == ""
    assert out == "".join(f"{name} {value}\n" for name, value in
                          zip(("phi1", "theta2", "theta3"),
                              IK_STDOUT[target]))


def test_ik_unreachable_is_domain_error(capsys):
    code, out, err = run(capsys, "ik", "--target", "2.0,0.0,0.0")
    assert code == 1
    assert out == ""
    assert err.startswith("spoonarm:")


def test_fk_malformed_angles_is_usage_error(capsys):
    code, _, err = run(capsys, "fk", "--q", "0.3,0.6")
    assert code == 2
    assert "three comma-separated numbers" in err


# ---------------------------------------------------------------------------
# balance


def test_balance_ideal_is_exact(capsys, tmp_path):
    out_csv = tmp_path / "residual.csv"
    code, out, _ = run(capsys, "balance", "--kind", "ideal",
                       "--out", str(out_csv))
    assert code == 0
    got = values(out)
    assert float(got["max_residual"]) < 1e-9
    lines = out_csv.read_text().splitlines()
    assert lines[0] == BALANCE_HEADER
    worst = max(abs(float(line.split(",")[3])) for line in lines[1:])
    assert worst < 1e-9


def test_balance_other_kinds_run(capsys):
    for kind in ("real", "torsion"):
        code, out, _ = run(capsys, "balance", "--kind", kind)
        assert code == 0
        got = values(out)
        assert float(got["j2_stiffness"]) > 0.0
        assert float(got["j3_stiffness"]) > 0.0
        assert float(got["max_residual"]) > 0.0


def test_balance_unknown_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "balance", "--kind", "pneumatic")
    assert code == 2
    assert "invalid choice" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_grid(capsys, tmp_path):
    scn_path, scn = small_scenario(tmp_path)
    out_csv = tmp_path / "run.csv"
    code, out, _ = run(capsys, "simulate", "--scenario", str(scn_path),
                       "--out", str(out_csv))
    assert code == 0
    got = values(out)
    assert int(got["rows"]) == scn.steps
    lines = out_csv.read_text().splitlines()
    assert lines[0] == SIM_HEADER
    assert len(lines) == scn.steps + 1
    assert float(lines[1].split(",")[0]) == 0.0


def test_simulate_repeats_byte_identical(capsys, tmp_path):
    scn_path, _ = small_scenario(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "simulate", "--scenario", str(scn_path),
               "--out", str(a))[0] == 0
    assert run(capsys, "simulate", "--scenario", str(scn_path),
               "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_tables_match_per_cell_formatting(tmp_path):
    # the block writers against the plain one-row-at-a-time formatting,
    # on tables longer than one block: 2 * block_rows(3) + 1 rows, so the
    # 3-column cloud ends one row into its third block
    scn = Scenario(duration=2 * block_rows(3) * 1e-3, timestep=1e-3,
                   initial=JointState(q=(0.0, 0.7, -1.4)),
                   input=NoiseTremor(rms=0.25, f_lo=2.0, f_hi=9.0, seed=7))
    res = run_scenario(SHIPPED.mechanism, SHIPPED.springs, SHIPPED.dampers,
                       SHIPPED.compliance, scn)
    assert len(res) == 2 * block_rows(3) + 1 > 2 * block_rows(18)
    want = [SIM_HEADER]
    for k in range(len(res)):
        row = (res.t[k], *res.q[k], *res.qdot[k], *res.spoon_pos[k],
               *res.handle_pos[k], *res.deflection[k],
               res.e_kin[k], res.e_pot[k], res.e_diss[k])
        want.append(",".join(fmt(v) for v in row))
    write_sim_csv(res, tmp_path / "sim.csv")
    assert (tmp_path / "sim.csv").read_text() == "\n".join(want) + "\n"

    points = res.spoon_pos[::-1]
    want = [WORKSPACE_HEADER] + [",".join(fmt(v) for v in p) for p in points]
    write_workspace_csv(points, tmp_path / "cloud.csv")
    assert (tmp_path / "cloud.csv").read_text() == "\n".join(want) + "\n"


def test_simulate_missing_scenario_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "simulate",
                         "--scenario", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "run.csv"))
    assert code == 2
    assert "absent.json" in err


def test_simulate_invalid_scenario_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "duration_s": 1.0}),
                    encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "run.csv"))
    assert code == 1
    assert "timestep_s" in err


def test_simulate_scenario_that_is_not_utf8_is_domain_error(capsys, tmp_path):
    path = tmp_path / "latin-1.json"
    path.write_bytes(b'{"schema_version": 1, "duration_s": "\xff"}')
    code, out, err = run(capsys, "simulate", "--scenario", str(path),
                         "--out", str(tmp_path / "run.csv"))
    assert (code, out) == (1, "")
    assert err == ("spoonarm: <file>: invalid JSON: 'utf-8' codec can't "
                   "decode byte 0xff in position 37: invalid start byte\n")
    assert not (tmp_path / "run.csv").exists()


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "fk", "--q", "0,0,0",
                       "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "nope.json" in err


@pytest.mark.parametrize("command", [
    ["fk", "--q", "0,0,0"],
    ["ik", "--target", "0.35,0,0.05"],
    ["balance"],
    ["simulate", "--scenario", "SCENARIO", "--out", "OUT"],
    ["workspace"],
    ["compare-handles"],
    ["contact", "--impulse", "0.02"],
], ids=lambda command: command[0])
def test_every_command_reports_a_missing_config(capsys, tmp_path, command):
    scenario, _ = small_scenario(tmp_path)
    argv = [{"SCENARIO": str(scenario), "OUT": str(tmp_path / "run.csv")}
            .get(arg, arg) for arg in command]
    missing = tmp_path / "nope.json"
    code, out, err = run(capsys, *argv, "--config", str(missing))
    assert code == 2
    assert out == ""
    assert err == f"spoonarm: cannot read {missing}: No such file or " \
                  "directory\n"
    assert not (tmp_path / "run.csv").exists()


def test_invalid_config_content_is_domain_error(capsys, tmp_path):
    path = tmp_path / "weird.json"
    data = json.loads(default_config_path().read_text())
    data["mechanism"]["frobnicator"] = 1.0
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "fk", "--q", "0,0,0", "--config", str(path))
    assert code == 1
    assert "frobnicator" in err


def test_simulate_names_the_field_of_a_bad_number(capsys, tmp_path):
    scenario, _ = small_scenario(tmp_path)
    path = tmp_path / "build.json"
    data = json.loads(default_config_path().read_text())
    data["dampers"][0]["coefficient_n_m_s_per_rad"] = -0.4
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--scenario", str(scenario),
                         "--out", str(tmp_path / "run.csv"),
                         "--config", str(path))
    assert (code, out) == (1, "")
    assert err == ("spoonarm: dampers[0].coefficient: coefficient must be "
                   ">= 0 and finite, not -0.4\n")
    assert not (tmp_path / "run.csv").exists()


def test_custom_config_is_used(capsys, tmp_path):
    taller = replace(NOMINAL, base_height=0.5)
    path = tmp_path / "tall.json"
    save_config(replace(SHIPPED, mechanism=taller), path)
    _, out_default, _ = run(capsys, "fk", "--q", "0,0.4,-0.2")
    _, out_tall, _ = run(capsys, "fk", "--q", "0,0.4,-0.2",
                         "--config", str(path))
    dz = (float(values(out_tall)["spoon_z"])
          - float(values(out_default)["spoon_z"]))
    assert dz == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# workspace / compare-handles / contact


def test_workspace_summary(capsys, tmp_path):
    out_csv = tmp_path / "cloud.csv"
    code, out, _ = run(capsys, "workspace", "--resolution", "9",
                       "--out", str(out_csv))
    assert code == 0
    got = values(out)
    assert got["covers_target_rise"] == "true"
    assert float(got["max_reach_m"]) <= 0.63 + 1e-12
    lines = out_csv.read_text().splitlines()
    assert lines[0] == WORKSPACE_HEADER
    assert len(lines) == int(got["points"]) + 1


def test_workspace_bad_resolution_is_domain_error(capsys):
    code, _, err = run(capsys, "workspace", "--resolution", "1")
    assert code == 1
    assert "resolution" in err


def test_compare_handles_table(capsys):
    code, out, _ = run(capsys, "compare-handles")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == COMPARE_HEADER
    old = lines[1].split(",")
    new = lines[2].split(",")
    assert old[0] == "old_tip" and new[0] == "new_inboard"
    assert float(old[4]) == 1.0
    assert abs(float(new[3]) - 0.24) < 1e-9
    assert float(new[4]) < 1.0


def test_contact_compliant_reports_rigid_comparison(capsys):
    code, out, _ = run(capsys, "contact", "--impulse", "0.02")
    assert code == 0
    got = values(out)
    assert got["mode"] == "compliant"
    assert got["model_dependent"] == "false"
    assert got["rigid_comparison_model_dependent"] == "true"
    assert float(got["peak_torque_n_m"]) < float(
        got["rigid_comparison_peak_n_m"])
    assert got["recentered"] == "true"


def test_contact_rigid_config_has_no_comparison(capsys, tmp_path):
    path = tmp_path / "rigid.json"
    save_config(replace(SHIPPED, compliance=RIGID), path)
    code, out, _ = run(capsys, "contact", "--impulse", "0.02",
                       "--config", str(path))
    assert code == 0
    got = values(out)
    assert got["mode"] == "rigid"
    assert got["model_dependent"] == "true"
    assert "rigid_comparison_peak_n_m" not in got


@pytest.mark.parametrize("flags", [
    ("--dt", "0"), ("--dt", "-0.001"), ("--duration", "-1"),
    ("--duration", "0.0005"), ("--duration", "inf"),
])
def test_contact_bad_grid_is_domain_error(capsys, flags):
    code, out, err = run(capsys, "contact", "--impulse", "0.02", *flags)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "timestep" in err


# ---------------------------------------------------------------------------
# plumbing


def test_out_dir_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPOONARM_OUT_DIR", str(tmp_path))
    scn_path, _ = small_scenario(tmp_path)
    code, out, _ = run(capsys, "simulate", "--scenario", str(scn_path),
                       "--out", "run.csv")
    assert code == 0
    assert (tmp_path / "run.csv").exists()
    assert values(out)["out"] == str(tmp_path / "run.csv")


def test_out_dir_ignores_absolute_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPOONARM_OUT_DIR", str(tmp_path / "elsewhere"))
    out_csv = tmp_path / "direct.csv"
    code, _, _ = run(capsys, "balance", "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "disassemble")[0] == 2


def test_no_command_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_help_documents_out_dir(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "SPOONARM_OUT_DIR" in out


def test_compare_handles_out_writes_what_it_prints(capsys, tmp_path):
    path = tmp_path / "compare.csv"
    code, out, _ = run(capsys, "compare-handles", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")
    assert out.count("\n") == 3


def test_python_m_spoonarm_prints_what_main_prints(capsys):
    argv = ["fk", "--q", "0.1,0.8,-0.3"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    child = subprocess.run([sys.executable, "-m", "spoonarm", *argv],
                           capture_output=True, text=True)
    assert child.returncode == 0
    assert (child.stdout, child.stderr) == (out, err)


def test_contact_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["contact", "--impulse", "0.02"])
    defaults = inspect.signature(spoon_contact_response).parameters
    assert args.dt == defaults["dt"].default == DEFAULT_TIMESTEP
    assert args.duration == defaults["duration"].default == CONTACT_HORIZON


def test_the_digest_runs_every_subcommand():
    # CI compares the installed package's outputs with the checkout's
    # only through tools/digest.py, so every subcommand needs a COMMANDS
    # entry there
    tool = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", tool)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for argv in digest.COMMANDS.values()} == set(subcommands)
