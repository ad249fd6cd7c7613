"""One-line diagnostics: non-finite IK targets, overflowing mount states,
output files that cannot be written and runs too large for memory."""

import json
import math
import warnings

import pytest

from spoonarm.kinematics import inverse_kinematics

from shipped import EXAMPLE_PATH, NOMINAL, run

SCENARIO = str(EXAMPLE_PATH)


@pytest.mark.parametrize("target", [(math.nan, 0.0, 0.0),
                                    (0.0, math.nan, 0.1),
                                    (math.inf, 0.0, 0.0),
                                    (0.3, 0.0, -math.inf)])
def test_ik_rejects_a_non_finite_target(target):
    with pytest.raises(ValueError, match=r"^target must be finite, not \("):
        inverse_kinematics(NOMINAL, target)


@pytest.mark.parametrize("target, shown", [("nan,0,0", "(nan, 0.0, 0.0)"),
                                           ("0,nan,0.1", "(0.0, nan, 0.1)"),
                                           ("inf,0,0", "(inf, 0.0, 0.0)")])
def test_ik_cli_names_a_non_finite_target(capsys, target, shown):
    code, out, err = run(capsys, "ik", f"--target={target}")
    assert (code, out) == (1, "")
    assert err == f"spoonarm: target must be finite, not {shown}\n"


def test_contact_overflow_is_one_line_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "contact", "--impulse", "1e300")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("spoonarm: mount state is not finite at t = ")


def _cannot_write(capsys, path, *argv):
    # the --out file is written before the report, so a failed write
    # prints no report that looks complete
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"spoonarm: cannot write {path}: ")
    assert err.count("\n") == 1


def test_simulate_cannot_write_into_a_missing_directory(capsys, tmp_path):
    _cannot_write(capsys, tmp_path / "missing" / "run.csv",
                  "simulate", "--scenario", SCENARIO)


def test_workspace_cannot_write_onto_a_directory(capsys, tmp_path):
    _cannot_write(capsys, tmp_path, "workspace", "--resolution", "3")


def test_balance_cannot_write_into_a_missing_directory(capsys, tmp_path):
    _cannot_write(capsys, tmp_path / "missing" / "balance.csv",
                  "balance", "--kind", "real")


def test_compare_handles_cannot_write_onto_a_directory(capsys, tmp_path):
    _cannot_write(capsys, tmp_path, "compare-handles")


def test_a_missing_input_is_still_cannot_read(capsys, tmp_path):
    scenario = tmp_path / "absent.json"
    code, _, err = run(capsys, "simulate", "--scenario", str(scenario),
                       "--out", str(tmp_path / "run.csv"))
    assert code == 2
    assert err.startswith(f"spoonarm: cannot read {scenario}: ")


# Both sizes ask for petabytes (171 PiB of workspace grid, 7.1 PiB of
# rollout times), beyond any address space, so the first allocation fails.
# A size that could fit in memory would be allocated, not reported.
@pytest.mark.parametrize("argv", [
    ("workspace", "--resolution", "200000"),
    ("simulate", "--scenario", None),
])
def test_a_run_too_large_for_memory_is_one_line(capsys, tmp_path, argv):
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps({
        "schema_version": 1, "duration_s": 1e12, "timestep_s": 0.001,
        "initial": {"q_rad": [0.0, 0.7, -0.2]},
        "input": {"type": "free_release"}}))
    out_path = tmp_path / "out.csv"
    argv = [str(scenario) if a is None else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("spoonarm: out of memory: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out_path.exists()
