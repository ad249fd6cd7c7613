"""IK on and near the joint limits: a pose on a limit comes back on it."""

import numpy as np
import pytest

from spoonarm.analysis import workspace_sample
from spoonarm.defaults import nominal_params
from spoonarm.dynamics import (ComplianceMode, ComplianceSpec, Scenario,
                               run_scenario)
from spoonarm.errors import LimitViolationError
from spoonarm.kinematics import (
    IK_LIMIT_TOL,
    JointState,
    MechanismParams,
    inverse_kinematics,
    inverse_kinematics_path,
    spoon_pose,
)

RIGID = ComplianceSpec(mode=ComplianceMode.RIGID)
TIGHT = MechanismParams(joint_limits=((-1.0, 1.0), (0.5, 0.6), (-0.5, -0.4)))


def test_every_workspace_point_solves_within_the_limits():
    params = nominal_params()
    points = workspace_sample(params, 20).points
    assert len(points) == 8000
    for target in points.tolist():
        state = inverse_kinematics(params, target)
        assert params.within_limits(state.q), (target, state.q)
    # and in one pass over the whole cloud
    q = inverse_kinematics_path(params, np.arange(len(points)), *points.T)
    lo, hi = np.array(params.joint_limits).T
    assert np.all((lo <= q) & (q <= hi))


@pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-13])
def test_an_angle_just_past_a_limit_comes_back_on_it(offset):
    target = spoon_pose(TIGHT, JointState(q=(0.0, 0.6 + offset, -0.45)))
    state = inverse_kinematics(TIGHT, target.position)
    assert state.q[1] == 0.6
    assert state.q[2] == pytest.approx(-0.45, abs=1e-12)
    # the returned state is a valid start for a rollout
    run_scenario(TIGHT, [], [], RIGID,
                 Scenario(duration=2e-3, timestep=1e-3, initial=state))


def test_an_angle_beyond_the_tolerance_is_still_rejected():
    target = spoon_pose(TIGHT, JointState(q=(0.0, 0.6 + 1e3 * IK_LIMIT_TOL,
                                             -0.45)))
    with pytest.raises(LimitViolationError):
        inverse_kinematics(TIGHT, target.position)
