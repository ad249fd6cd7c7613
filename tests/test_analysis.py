"""Analysis tests: excursion comparison, calibration, workspace sampling,
and stabilization scoring."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spoonarm import JointState, MechanismParams
from spoonarm.analysis import (
    TrajectorySpec,
    calibrate_handle_distance,
    compare_handle_variants,
    handle_excursion,
    stabilization_report,
    trajectory_states,
    workspace_sample,
)
from spoonarm.defaults import CALIBRATED_HANDLE_DISTANCE_M, nominal_params
from spoonarm.dynamics import (
    ComplianceMode,
    ComplianceSpec,
    DamperModel,
    DamperSpec,
    PrescribedTrajectory,
    Scenario,
    SineTremor,
    run_scenario,
)
from spoonarm.errors import (
    GridMismatchError,
    NotBracketedError,
    SpoonArmError,
    UnreachableError,
)
from spoonarm.kinematics import HandleVariant, Joint, spoon_pose

RIGID = ComplianceSpec(mode=ComplianceMode.RIGID)


# ---------------------------------------------------------------------------
# trajectory


def test_trajectory_defaults_and_points():
    traj = TrajectorySpec()
    assert traj.rise == pytest.approx(0.33, abs=1e-12)
    pts = traj.points()
    assert len(pts) == 50
    assert pts[0] == (0.35, 0.0, 0.02)
    assert pts[-1] == (0.35, 0.0, 0.35)
    assert all(p[1] == 0.0 for p in pts)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(plate=(0.35, 0.4), mouth=(0.35, 0.3))
    with pytest.raises(ValueError):
        TrajectorySpec(plate=(0.35, 0.3), mouth=(0.35, 0.3))
    with pytest.raises(ValueError):
        TrajectorySpec(waypoints=1)


def test_trajectory_states_track_waypoints():
    params = nominal_params()
    traj = TrajectorySpec()
    states = trajectory_states(params, traj)
    assert len(states) == traj.waypoints
    for state, target in zip(states, traj.points()):
        pos = spoon_pose(params, state).position
        assert np.allclose(pos, target, atol=1e-9)
        assert params.within_limits(state.q)


def test_trajectory_states_unreachable_propagates():
    params = nominal_params()
    with pytest.raises(UnreachableError, match=" at waypoint 0$"):
        trajectory_states(params, TrajectorySpec(plate=(0.9, 0.02),
                                                 mouth=(0.9, 0.35)))


@pytest.mark.parametrize("study", [
    trajectory_states, handle_excursion, compare_handle_variants,
    lambda params, trajectory: calibrate_handle_distance(params, trajectory,
                                                         0.1)])
def test_trajectory_ik_error_names_the_first_rejected_waypoint(study):
    # the path leaves the arm's reach between waypoints 29 and 30
    with pytest.raises(UnreachableError, match=" at waypoint 30$"):
        study(nominal_params(), TrajectorySpec(mouth=(0.35, 0.9)))


# ---------------------------------------------------------------------------
# handle excursion


def test_old_tip_ratio_is_exactly_one():
    params = replace(nominal_params(), handle_variant=HandleVariant.OLD_TIP,
                     bracket_drop=0.0, bracket_lateral=0.0)
    exc = handle_excursion(params, TrajectorySpec())
    assert exc.spoon_rise == pytest.approx(0.33, abs=1e-12)
    assert exc.ratio == 1.0


def test_constant_bracket_drop_does_not_change_rise():
    # the drop shifts every handle height identically, the travel is the same
    base = replace(nominal_params(), handle_variant=HandleVariant.OLD_TIP,
                   bracket_drop=0.0)
    dropped = replace(base, bracket_drop=-0.07)
    traj = TrajectorySpec()
    assert handle_excursion(base, traj).handle_rise == pytest.approx(
        handle_excursion(dropped, traj).handle_rise, abs=1e-12)


def test_calibrated_handle_rise():
    exc = handle_excursion(nominal_params(), TrajectorySpec())
    assert exc.spoon_rise == pytest.approx(0.33, abs=1e-12)
    assert exc.handle_rise == pytest.approx(0.24, abs=1e-9)
    assert exc.ratio == pytest.approx(0.24 / 0.33, abs=1e-8)


def test_ratio_tends_to_one_as_bracket_approaches_tip():
    params = replace(nominal_params(), bracket_drop=0.0,
                     handle_distance=0.25 * (1.0 - 1e-9))
    exc = handle_excursion(params, TrajectorySpec())
    assert exc.ratio == pytest.approx(1.0, abs=1e-6)


def test_handle_rise_monotonic_in_bracket_radius():
    params = nominal_params()
    traj = TrajectorySpec()
    rises = []
    for d in np.linspace(0.01, 0.25, 13):
        rises.append(handle_excursion(
            replace(params, handle_distance=d), traj).handle_rise)
    assert all(b > a for a, b in zip(rises, rises[1:]))


def test_inboard_travels_less_than_tip_mount():
    params = nominal_params()
    traj = TrajectorySpec()
    new = handle_excursion(params, traj).handle_rise
    old = handle_excursion(
        replace(params, handle_variant=HandleVariant.OLD_TIP), traj).handle_rise
    assert new < old


def test_compare_handle_variants_rows():
    rows = compare_handle_variants(nominal_params(), TrajectorySpec())
    assert [r[0] for r in rows] == ["old_tip", "new_inboard"]
    old, new = rows
    assert old[1] == 0.25 and old[4] == 1.0
    assert new[1] == CALIBRATED_HANDLE_DISTANCE_M
    assert new[3] == pytest.approx(0.24, abs=1e-9)
    assert new[3] < old[3]


# ---------------------------------------------------------------------------
# calibration


def test_calibration_reproduces_shipped_constant():
    d = calibrate_handle_distance(MechanismParams(), TrajectorySpec(), 0.24,
                                  tolerance=1e-12)
    assert d == pytest.approx(CALIBRATED_HANDLE_DISTANCE_M, abs=1e-12)


def test_calibration_meets_default_tolerance():
    params = MechanismParams()
    traj = TrajectorySpec()
    d = calibrate_handle_distance(params, traj, 0.24)
    rise = handle_excursion(replace(params, handle_distance=d),
                            traj).handle_rise
    assert abs(rise - 0.24) <= 1e-4


def test_calibration_full_rise_returns_tip_radius():
    params = MechanismParams()
    d = calibrate_handle_distance(params, TrajectorySpec(), 0.33)
    assert abs(d - params.link2_length) < 1e-3


def test_calibration_rejects_unreachable_targets():
    params = MechanismParams()
    traj = TrajectorySpec()
    with pytest.raises(NotBracketedError):
        calibrate_handle_distance(params, traj, 0.4)   # above the spoon rise
    with pytest.raises(NotBracketedError):
        calibrate_handle_distance(params, traj, 0.05)  # below the d_h -> 0 rise


def test_calibration_detects_non_monotonic_rise():
    # this path bends the rise-vs-radius curve: the theta2 and theta3
    # contributions to handle height fight each other at small d_h
    params = MechanismParams(
        joint_limits=((-math.pi, math.pi), (-1.2, 2.2), (-2.2, 1.6)))
    traj = TrajectorySpec(plate=(0.2, 0.1), mouth=(0.25, 0.2), waypoints=25)
    with pytest.raises(SpoonArmError, match="not monotonic"):
        calibrate_handle_distance(params, traj, 0.05)


def test_calibration_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        calibrate_handle_distance(MechanismParams(), TrajectorySpec(), 0.24,
                                  tolerance=0.0)


# ---------------------------------------------------------------------------
# workspace


def test_workspace_single_point_when_all_joints_pinned():
    params = MechanismParams(joint_limits=((0.3, 0.3), (0.5, 0.5), (0.1, 0.1)))
    sample = workspace_sample(params, resolution=4)
    assert sample.points.shape == (1, 3)
    assert sample.summary.max_reach == sample.summary.min_reach
    assert sample.summary.vertical_span == 0.0


def test_workspace_resolution_validated():
    with pytest.raises(ValueError):
        workspace_sample(MechanismParams(), resolution=1)


def test_workspace_reach_bounded_by_link_sum():
    params = MechanismParams()
    sample = workspace_sample(params, resolution=15)
    assert sample.summary.max_reach <= params.max_radial_reach + 1e-12
    assert sample.summary.min_reach >= 0.0


def test_workspace_covers_feeding_rise():
    sample = workspace_sample(MechanismParams(), resolution=21)
    assert sample.summary.covers_target_rise
    assert sample.summary.plate_vertical_span >= 0.33
    assert sample.summary.vertical_span >= sample.summary.plate_vertical_span


def test_workspace_rotationally_symmetric():
    # every (r, z) ring must appear at every sampled yaw
    params = MechanismParams(
        joint_limits=((0.0, 2.0 * math.pi / 3.0), (0.1, 0.9), (-0.8, 0.2)))
    res = 5
    sample = workspace_sample(params, resolution=res)
    cloud = {tuple(np.round(p, 9)) for p in sample.points}
    grids = [np.linspace(lo, hi, res) for lo, hi in params.joint_limits]
    for th2 in grids[1]:
        for th3 in grids[2]:
            r = (params.base_offset + params.link1_length * math.cos(th2)
                 + params.link2_length * math.cos(th3) + params.spoon_offset)
            z = params.base_height + (params.link1_length * math.sin(th2)
                                      + params.link2_length * math.sin(th3))
            for phi in grids[0]:
                want = (round(r * math.cos(phi), 9),
                        round(r * math.sin(phi), 9), round(z, 9))
                assert want in cloud


def test_workspace_empty_band_reports_zero_span():
    # pinned near-vertical links keep the radius far from the plate radius
    params = MechanismParams(
        joint_limits=((0.0, 1.0), (1.5, 1.5), (1.5, 1.5)))
    sample = workspace_sample(params, resolution=3)
    assert sample.summary.plate_vertical_span == 0.0
    assert not sample.summary.covers_target_rise


# ---------------------------------------------------------------------------
# stabilization report


def hang_params():
    return MechanismParams(
        joint_limits=((0.0, 0.0), (-1e6, 1e6), (-1e6, 1e6)))


def test_report_zero_against_itself():
    res = run_scenario(hang_params(), [], [], RIGID,
                       Scenario(duration=0.5, timestep=1e-3,
                                initial=JointState(q=(0.0, -1.2, -1.8))))
    report = stabilization_report(res, res)
    assert report.rms_deviation == 0.0
    assert report.peak_deviation == 0.0
    assert report.attenuation == 0.0
    assert report.settling_time == 0.0


def test_report_self_baseline_attenuation_is_one():
    p = hang_params()
    hang = -math.pi / 2.0
    ref = run_scenario(p, [], [], RIGID,
                       Scenario(duration=2.0, timestep=1e-3,
                                initial=JointState(q=(0.0, hang, hang))))
    wobble = run_scenario(p, [], [], RIGID,
                          Scenario(duration=2.0, timestep=1e-3,
                                   initial=JointState(q=(0.0, hang + 0.1,
                                                         hang - 0.05))))
    report = stabilization_report(ref, wobble, baseline=wobble)
    assert report.attenuation == 1.0
    assert report.rms_deviation > 0.0
    assert report.peak_deviation >= report.rms_deviation


def test_report_grid_mismatch():
    p = hang_params()
    a = run_scenario(p, [], [], RIGID, Scenario(duration=1.0, timestep=1e-3))
    b = run_scenario(p, [], [], RIGID, Scenario(duration=1.0, timestep=2e-3))
    c = run_scenario(p, [], [], RIGID, Scenario(duration=0.5, timestep=1e-3))
    with pytest.raises(GridMismatchError):
        stabilization_report(a, b)
    with pytest.raises(GridMismatchError):
        stabilization_report(a, c)


def test_report_against_trajectory_segment():
    params = nominal_params()
    traj = TrajectorySpec()
    wps = tuple((t, *pt) for t, pt in zip(
        np.linspace(0.0, 1.0, traj.waypoints), traj.points()))
    res = run_scenario(params, [], [], RIGID,
                       Scenario(duration=1.0, timestep=1e-2,
                                input=PrescribedTrajectory(wps)))
    report = stabilization_report(traj, res)
    assert report.rms_deviation < 1e-9
    assert report.settling_time == 0.0


def test_viscous_damping_attenuates_tremor():
    p = hang_params()
    hang = -math.pi / 2.0
    tremor = SineTremor(amplitude=0.15, frequency=2.0,
                        direction=(1.0, 0.0, 0.0))
    quiet = Scenario(duration=4.0, timestep=1e-3,
                     initial=JointState(q=(0.0, hang, hang)))
    shaken = Scenario(duration=4.0, timestep=1e-3,
                      initial=JointState(q=(0.0, hang, hang)), input=tremor)
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.4)]
    ref = run_scenario(p, [], [], RIGID, quiet)
    undamped = run_scenario(p, [], [], RIGID, shaken)
    damped = run_scenario(p, [], dampers, RIGID, shaken)
    report = stabilization_report(ref, damped, baseline=undamped)
    assert 0.0 < report.attenuation < 1.0


def test_settling_time_of_damped_release():
    p = hang_params()
    hang = -math.pi / 2.0
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.4)]
    ref = run_scenario(p, [], [], RIGID,
                       Scenario(duration=8.0, timestep=1e-3,
                                initial=JointState(q=(0.0, hang, hang))))
    released = run_scenario(p, [], dampers, RIGID,
                            Scenario(duration=8.0, timestep=1e-3,
                                     initial=JointState(q=(0.0, hang + 0.15,
                                                           hang - 0.1))))
    report = stabilization_report(ref, released)
    assert 0.0 < report.settling_time < 8.0
    assert report.peak_deviation > 0.005


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "50"])
def test_trajectory_waypoints_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="waypoints"):
        TrajectorySpec(waypoints=bad)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "25"])
def test_workspace_resolution_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="resolution"):
        workspace_sample(nominal_params(), bad)


def test_counts_take_numpy_integers():
    assert TrajectorySpec(waypoints=np.int64(7)) == TrajectorySpec(
        waypoints=7)
    sample = workspace_sample(nominal_params(), np.int32(4))
    assert np.array_equal(sample.points,
                          workspace_sample(nominal_params(), 4).points)
