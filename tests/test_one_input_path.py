"""Every caller reads a handle input through one function: generate_signal
takes every input a rollout takes and gives the same bits, a playback has
no handle force and only step_dynamics rejects it, an input that is no
kind of handle force raises the same TypeError from every caller,
and a spring kind's value string synthesizes that kind. tools/digest.py
prints the committed record of every output, tools/digest.txt, whatever
the hash seed."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spoonarm.defaults import nominal_params
from spoonarm.dynamics import (
    ComplianceMode,
    ComplianceSpec,
    PrescribedTrajectory,
    Scenario,
    _signal_forces,
    generate_signal,
    run_scenario,
    step_dynamics,
)
from spoonarm.errors import LimitViolationError
from spoonarm.kinematics import JointState
from spoonarm.statics import SpringKind, synthesize_balancing

RIGID = ComplianceSpec(mode=ComplianceMode.RIGID)
START = JointState(q=(0.0, 0.7, -1.4))
TIMES = np.arange(0, 300) * 1.7e-3
ROOT = Path(__file__).resolve().parent.parent


def wobble(t):
    return (0.1 * math.sin(5.0 * t), -0.2, 0.3 * math.cos(11.0 * t))


@pytest.mark.parametrize("inputs", [(0.3, -0.2, 0.9), wobble],
                         ids=["constant", "callable"])
def test_generate_signal_equals_the_rollout_forces(inputs):
    block = _signal_forces(inputs, TIMES)
    for t, force in zip(TIMES.tolist(), block):
        assert np.array_equal(generate_signal(inputs, t), force)


def test_a_playback_has_no_handle_force_and_steps_nothing():
    playback = PrescribedTrajectory(((0.0, 0.35, 0.0, 0.02),
                                     (1.0, 0.34, 0.01, 0.05)))
    assert _signal_forces(playback, TIMES) is None
    for t in (0.0, 0.5, 2.0):
        assert generate_signal(playback, t).tobytes() == bytes(24)
    message = ("^a PrescribedTrajectory is kinematic playback, not a force; "
               "run it through run_scenario$")
    with pytest.raises(ValueError, match=message):
        step_dynamics(nominal_params(), [], [], RIGID, START, playback, 1e-3)
    # the start is checked first, as before
    with pytest.raises(LimitViolationError):
        step_dynamics(nominal_params(), [], [], RIGID,
                      JointState(q=(0.0, 9.0, 0.0)), playback, 1e-3)


NOT_INPUTS = {"object": object(), "str": "001", "float": 3.0}


@pytest.mark.parametrize("caller", ["run_scenario", "step_dynamics",
                                    "generate_signal"])
@pytest.mark.parametrize("name", sorted(NOT_INPUTS))
def test_an_input_of_no_kind_is_a_type_error(caller, name):
    inputs = NOT_INPUTS[name]
    with pytest.raises(TypeError, match=f"^unknown input signal {name}$"):
        if caller == "run_scenario":
            run_scenario(nominal_params(), [], [], RIGID,
                         Scenario(duration=0.01, initial=START,
                                  input=inputs))
        elif caller == "step_dynamics":
            step_dynamics(nominal_params(), [], [], RIGID, START, inputs,
                          1e-3)
        else:
            generate_signal(inputs, 0.1)


def test_balancing_takes_a_spring_kind_value_string():
    params = nominal_params()
    assert (synthesize_balancing(params, "torsion").springs
            == synthesize_balancing(params, SpringKind.TORSION).springs)
    with pytest.raises(ValueError, match="^kind must be a SpringKind"):
        synthesize_balancing(params, "bogus")


# A CPU without FMA or another glibc may differ: 56 lines use libm's FMA bits
@pytest.mark.parametrize("seed", ["1", "2"])
def test_digest_tool_prints_the_committed_digest(seed, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    committed = (ROOT / "tools" / "digest.txt").read_text().splitlines()
    assert run.stdout.splitlines() == committed
