import math
from decimal import Decimal

import numpy as np
import pytest

from spoonarm.analysis import workspace_sample
from spoonarm.defaults import nominal_params
from spoonarm.errors import LimitViolationError, UnreachableError
from spoonarm.kinematics import (
    HANDLE_ANGLE_OFFSETS_RAD,
    Handedness,
    HandleVariant,
    JointState,
    MechanismParams,
    forward_kinematics,
    handle_jacobian,
    handle_pose,
    inverse_kinematics,
    inverse_kinematics_path,
    handle_point,
    jacobian,
    point_position,
    point_torque_law,
    spoon_point,
    spoon_pose,
)

# Planar closure solutions for the plate (r=0.35, z=0.02) and mouth
# (r=0.35, z=0.35) targets with the nominal geometry, frozen from an
# independent bisection solve of the two-link closure equations.
PLATE_Q = (0.0, 0.734786300573640, -1.432328307741455)
MOUTH_Q = (0.0, 1.691059933476078, 0.007223018384193)

WIDE_LIMITS = ((-math.pi, math.pi), (-math.pi, math.pi), (-math.pi, math.pi))


def random_states(params, n, seed, margin=0.0):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        q = tuple(
            lo + margin + (hi - lo - 2 * margin) * rng.uniform()
            for lo, hi in params.joint_limits
        )
        states.append(JointState(q=q, qdot=tuple(rng.uniform(-1, 1, 3))))
    return states


def fd_jacobian(fk, params, state, h=1e-6):
    cols = []
    for i in range(3):
        qp = list(state.q)
        qm = list(state.q)
        qp[i] += h
        qm[i] -= h
        pp = fk(params, JointState(q=tuple(qp))).position
        pm = fk(params, JointState(q=tuple(qm))).position
        cols.append((pp - pm) / (2 * h))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_all_links_horizontal():
    p = MechanismParams()
    spoon, handle = forward_kinematics(p, JointState())
    full = p.base_offset + p.link1_length + p.link2_length + p.spoon_offset
    assert spoon.x == pytest.approx(full, abs=1e-15)
    assert spoon.y == 0.0
    assert spoon.z == pytest.approx(p.base_height, abs=1e-15)
    assert spoon.pitch == 0.0 and spoon.roll == 0.0
    assert handle.z == pytest.approx(p.base_height + p.bracket_drop, abs=1e-15)


def test_fk_pure_base_yaw():
    p = MechanismParams()
    spoon, _ = forward_kinematics(p, JointState(q=(math.pi / 2, 0.0, 0.0)))
    full = p.base_offset + p.link1_length + p.link2_length + p.spoon_offset
    assert spoon.x == pytest.approx(0.0, abs=1e-15)
    assert spoon.y == pytest.approx(full, abs=1e-15)
    assert spoon.z == pytest.approx(p.base_height, abs=1e-15)


def test_fk_plate_to_mouth_rise():
    p = MechanismParams()
    z_plate = spoon_pose(p, JointState(q=PLATE_Q)).z
    z_mouth = spoon_pose(p, JointState(q=MOUTH_Q)).z
    assert z_mouth - z_plate == pytest.approx(0.33, abs=1e-12)


def test_orientation_preserved_everywhere():
    p = MechanismParams(joint_limits=WIDE_LIMITS)
    for s in random_states(p, 10_000, seed=7):
        spoon, handle = forward_kinematics(p, s)
        assert spoon.pitch == 0.0 and spoon.roll == 0.0
        assert handle.pitch == 0.0 and handle.roll == 0.0
        assert spoon.yaw == s.q[0]


def test_yaw_equivariance():
    p = MechanismParams(joint_limits=WIDE_LIMITS)
    delta = 0.83
    rot = np.array([
        [math.cos(delta), -math.sin(delta), 0.0],
        [math.sin(delta), math.cos(delta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    for s in random_states(p, 200, seed=11):
        phi1, th2, th3 = s.q
        rotated = JointState(q=(phi1 + delta, th2, th3))
        for fk in (spoon_pose, handle_pose):
            np.testing.assert_allclose(
                fk(p, rotated).position, rot @ fk(p, s).position, atol=1e-12)


# ---------------------------------------------------------------------------
# handle mapping


def test_old_tip_handle_rides_spoon_height():
    p = MechanismParams(handle_variant=HandleVariant.OLD_TIP,
                        bracket_drop=0.0, bracket_lateral=0.0,
                        joint_limits=WIDE_LIMITS)
    # without bracket offsets the handle height tracks the spoon height
    # exactly, the spoon offset shows up in radius only
    for s in random_states(p, 100, seed=3):
        spoon, handle = forward_kinematics(p, s)
        c1, s1 = math.cos(s.q[0]), math.sin(s.q[0])
        r_spoon = spoon.x * c1 + spoon.y * s1    # signed radial projection
        r_handle = handle.x * c1 + handle.y * s1
        assert handle.z == pytest.approx(spoon.z, abs=1e-12)
        assert r_spoon - r_handle == pytest.approx(p.spoon_offset, abs=1e-12)


def test_inboard_height_scales_with_attachment_radius():
    p = MechanismParams(handle_distance=0.12)
    th3_a, th3_b = -0.4, 0.9
    state = lambda th3: JointState(q=(0.0, 0.5, th3))
    d_sin = math.sin(th3_b) - math.sin(th3_a)
    dz_handle = handle_pose(p, state(th3_b)).z - handle_pose(p, state(th3_a)).z
    dz_spoon = spoon_pose(p, state(th3_b)).z - spoon_pose(p, state(th3_a)).z
    assert dz_handle == pytest.approx(0.12 * d_sin, abs=1e-12)
    assert dz_spoon == pytest.approx(p.link2_length * d_sin, abs=1e-12)


def test_handedness_mirrors_lateral_offset_only():
    right = MechanismParams(handedness=Handedness.RIGHT)
    left = MechanismParams(handedness=Handedness.LEFT)
    s = JointState(q=(0.0, 0.4, -0.2))
    hr = handle_pose(right, s)
    hl = handle_pose(left, s)
    assert hr.y == pytest.approx(-hl.y, abs=1e-15)
    assert hr.x == hl.x and hr.z == hl.z


def test_handle_angle_index_spins_yaw_only():
    s = JointState(q=(0.3, 0.5, -0.1))
    base = handle_pose(MechanismParams(handle_angle_index=2), s)
    for idx, offset in enumerate(HANDLE_ANGLE_OFFSETS_RAD):
        h = handle_pose(MechanismParams(handle_angle_index=idx), s)
        assert h.yaw == pytest.approx(0.3 + offset, abs=1e-15)
        assert (h.x, h.y, h.z) == (base.x, base.y, base.z)


# ---------------------------------------------------------------------------
# parameter validation


def test_old_tip_forces_handle_distance():
    p = MechanismParams(handle_variant=HandleVariant.OLD_TIP,
                        handle_distance=0.07)
    assert p.handle_distance == p.link2_length


@pytest.mark.parametrize("kwargs", [
    {"handle_distance": 0.3},         # > L2
    {"handle_distance": 0.0},
    {"link1_length": -0.1},
    {"spoon_offset": 0.0},
    {"com_fraction1": 0.0},
    {"com_fraction2": 1.2},
    {"mass_link2": -0.01},
    {"handle_angle_index": 5},
    {"joint_limits": ((0.0, 1.0), (2.0, 1.0), (0.0, 1.0))},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        MechanismParams(**kwargs)


def test_joint_state_validation():
    with pytest.raises(ValueError):
        JointState(q=(0.0, float("nan"), 0.0))
    with pytest.raises(ValueError):
        JointState(q=(0.0, 0.0))


# ---------------------------------------------------------------------------
# inverse kinematics


def test_ik_plate_point_matches_frozen_solution():
    s = inverse_kinematics(MechanismParams(), (0.35, 0.0, 0.02))
    np.testing.assert_allclose(s.q, PLATE_Q, atol=1e-12)


def test_ik_mouth_point_matches_frozen_solution():
    s = inverse_kinematics(MechanismParams(), (0.35, 0.0, 0.35))
    np.testing.assert_allclose(s.q, MOUTH_Q, atol=1e-12)


def test_ik_round_trip_sweep():
    p = MechanismParams()
    worst = 0.0
    for s in random_states(p, 500, seed=19, margin=1e-6):
        target = spoon_pose(p, s).position
        again = spoon_pose(p, inverse_kinematics(p, target)).position
        worst = max(worst, float(np.linalg.norm(again - target)))
    assert worst < 1e-9


def test_ik_prefers_elbow_up():
    s = inverse_kinematics(MechanismParams(), (0.35, 0.0, 0.02))
    assert s.q[1] >= s.q[2]


def test_ik_beyond_reach():
    p = MechanismParams()
    with pytest.raises(UnreachableError):
        inverse_kinematics(p, (p.max_radial_reach + 0.01, 0.0, p.base_height))


def test_ik_inside_inner_annulus():
    p = MechanismParams(link2_length=0.15, handle_distance=0.1)
    # planar distance 0 from the shoulder, but |L1 - L2| = 0.10
    with pytest.raises(UnreachableError):
        inverse_kinematics(p, (p.base_offset + p.spoon_offset, 0.0,
                               p.base_height))


def test_ik_falls_back_to_other_branch():
    # limits that exclude the elbow-up solution for the plate point but
    # admit the elbow-down one
    p = MechanismParams(joint_limits=((-math.pi, math.pi),
                                      (-math.pi, 0.5),
                                      (-math.pi, math.pi)))
    s = inverse_kinematics(p, (0.35, 0.0, 0.02))
    assert s.q[1] < s.q[2]
    pos = spoon_pose(p, s).position
    np.testing.assert_allclose(pos, [0.35, 0.0, 0.02], atol=1e-9)


def test_ik_limit_violation_when_both_branches_excluded():
    p = MechanismParams(joint_limits=((-math.pi, math.pi),
                                      (-0.1, 0.1),
                                      (-math.pi, math.pi)))
    with pytest.raises(LimitViolationError):
        inverse_kinematics(p, (0.35, 0.0, 0.02))


def test_ik_respects_base_yaw_limits():
    p = MechanismParams(joint_limits=((-0.5, 0.5), (-0.35, 2.0), (-1.75, 1.4)))
    with pytest.raises(LimitViolationError):
        inverse_kinematics(p, (-0.35, 0.0, 0.02))


# ---------------------------------------------------------------------------
# Jacobians


def test_jacobian_matches_finite_differences():
    p = MechanismParams(joint_limits=WIDE_LIMITS)
    worst = 0.0
    for s in random_states(p, 300, seed=23):
        J = jacobian(p, s)
        J_fd = fd_jacobian(spoon_pose, p, s)
        err = np.abs(J - J_fd) / np.maximum(1.0, np.abs(J))
        worst = max(worst, float(err.max()))
    assert worst < 1e-6


def test_handle_jacobian_matches_finite_differences():
    p = MechanismParams(joint_limits=WIDE_LIMITS, bracket_lateral=0.09)
    worst = 0.0
    for s in random_states(p, 300, seed=29):
        J = handle_jacobian(p, s)
        J_fd = fd_jacobian(handle_pose, p, s)
        err = np.abs(J - J_fd) / np.maximum(1.0, np.abs(J))
        worst = max(worst, float(err.max()))
    assert worst < 1e-6


def test_jacobian_vertical_links_height_stationary():
    J = jacobian(MechanismParams(joint_limits=WIDE_LIMITS),
                 JointState(q=(0.0, math.pi / 2, math.pi / 2)))
    assert abs(J[2, 1]) < 1e-12
    assert abs(J[2, 2]) < 1e-12


def test_jacobian_yaw_column_is_radial_at_zero_yaw():
    p = MechanismParams()
    s = JointState(q=(0.0, 0.6, -0.3))
    assert jacobian(p, s)[1, 0] == pytest.approx(
        spoon_pose(p, s).radial, abs=1e-12)


def test_spoon_jacobian_is_a_handle_jacobian_at_the_tip():
    # the tip is a tip-mounted handle with the spoon offset moved into the
    # base offset and no lateral bracket offset
    p = MechanismParams()
    tip = MechanismParams(base_offset=p.base_offset + p.spoon_offset,
                          handle_variant=HandleVariant.OLD_TIP,
                          bracket_lateral=0.0)
    for s in random_states(MechanismParams(joint_limits=WIDE_LIMITS), 200, 31):
        np.testing.assert_array_equal(jacobian(p, s), handle_jacobian(tip, s))


def test_spoon_position_is_a_handle_position_at_the_tip():
    # the position twin of the Jacobian test above: a zero bracket, so
    # no lateral offset and no drop
    p = MechanismParams()
    tip = MechanismParams(base_offset=p.base_offset + p.spoon_offset,
                          handle_variant=HandleVariant.OLD_TIP,
                          bracket_lateral=0.0, bracket_drop=0.0)
    for s in random_states(MechanismParams(joint_limits=WIDE_LIMITS), 200, 33):
        np.testing.assert_array_equal(spoon_pose(p, s).position,
                                      handle_pose(tip, s).position)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("point", [spoon_point, handle_point])
def test_point_torque_law_yaw_row_is_the_moment_at_point_position(point):
    # the torque law repeats point_position's radius instead of calling
    # it; both must give the same x and y, bit for bit
    p = MechanismParams(handedness=Handedness.LEFT, bracket_drop=0.03)
    coefficients = point(p)
    torques = point_torque_law(coefficients)
    _, L1, reach, _, _, _ = coefficients
    rng = np.random.default_rng(41)
    states = random_states(MechanismParams(joint_limits=WIDE_LIMITS), 300, 43)
    forces = rng.uniform(-2.0, 2.0, (len(states), 3))
    for s, (fx, fy, fz) in zip(states, forces.tolist()):
        phi1, th2, th3 = s.q
        trig = (math.cos(phi1), math.sin(phi1), math.cos(th2), math.sin(th2),
                math.cos(th3), math.sin(th3))
        cp, sp, c2t, s2t, c3t, s3t = trig
        x, y, _ = point_position(coefficients, *trig)
        assert bits(torques(*trig, fx, fy, fz)) == bits((
            x * fy - y * fx,
            -L1 * s2t * cp * fx - L1 * s2t * sp * fy + L1 * c2t * fz,
            -reach * s3t * cp * fx - reach * s3t * sp * fy + reach * c3t * fz))
    # and on arrays, one whole column per argument
    q = np.array([s.q for s in states])
    trig = (np.cos(q[:, 0]), np.sin(q[:, 0]), np.cos(q[:, 1]),
            np.sin(q[:, 1]), np.cos(q[:, 2]), np.sin(q[:, 2]))
    fx, fy, fz = forces.T
    x, y, _ = point_position(coefficients, *trig)
    assert bits(torques(*trig, fx, fy, fz)[0]) == bits(x * fy - y * fx)


def test_spoon_jacobian_matches_the_closed_form():
    p = MechanismParams()
    L1, L2 = p.link1_length, p.link2_length
    for s in random_states(p, 500, 32):
        phi1, th2, th3 = s.q
        r = (p.base_offset + L1 * math.cos(th2) + L2 * math.cos(th3)
             + p.spoon_offset)
        c1, s1 = math.cos(phi1), math.sin(phi1)
        expect = np.array([
            [-r * s1, -L1 * math.sin(th2) * c1, -L2 * math.sin(th3) * c1],
            [r * c1, -L1 * math.sin(th2) * s1, -L2 * math.sin(th3) * s1],
            [0.0, L1 * math.cos(th2), L2 * math.cos(th3)],
        ])
        np.testing.assert_allclose(jacobian(p, s), expect, rtol=0,
                                   atol=2.3e-16)


@pytest.mark.parametrize("field", [
    "base_height", "base_offset", "link1_length", "link2_length",
    "spoon_offset", "bracket_drop", "bracket_lateral", "mass_link1",
    "mass_link2", "mass_payload", "gravity"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", None,
                                 Decimal("0.4"), 10 ** 400])
def test_mechanism_params_reject_non_finite_numbers(field, bad):
    with pytest.raises(ValueError, match=field):
        MechanismParams(**{field: bad})


@pytest.mark.parametrize("bad", [2.0, True, "2", None])
def test_handle_angle_index_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="handle_angle_index"):
        MechanismParams(handle_angle_index=bad)


def test_handle_angle_index_takes_numpy_integers():
    p = MechanismParams(handle_angle_index=np.int64(3))
    assert type(p.handle_angle_index) is int
    assert p == MechanismParams(handle_angle_index=3)


# ---------------------------------------------------------------------------
# inverse kinematics over whole arrays against the scalar solver


def _ik_both(params, targets):
    """(array IK, scalar IK) of a list of (x, y, z) targets."""
    x, y, z = np.array(targets).T
    t = np.arange(len(targets)) * 1e-3
    got = inverse_kinematics_path(params, t, x, y, z)
    want = np.array([inverse_kinematics(params, target).q
                     for target in targets])
    return got, want


@pytest.mark.parametrize("limits", [
    MechanismParams().joint_limits,
    # theta2 <= 0.5 excludes the elbow-up branch of many targets
    ((-math.pi, math.pi), (-0.35, 0.5), (-1.75, 1.4)),
])
@pytest.mark.parametrize("seed", [3, 29])
def test_ik_path_equals_scalar_ik_over_the_workspace(seed, limits):
    p = MechanismParams(joint_limits=limits)
    targets = [tuple(spoon_pose(p, s).position)
               for s in random_states(p, 400, seed=seed, margin=1e-6)]
    got, want = _ik_both(p, targets)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    elbow_up = want[:, 1] >= want[:, 2]
    if limits[1][1] == 0.5:
        assert 0 < np.count_nonzero(~elbow_up) < len(targets)


def test_ik_path_on_the_j1_axis_and_at_the_fold():
    p = MechanismParams(joint_limits=WIDE_LIMITS)
    folded = (p.base_offset + p.spoon_offset, 0.0, p.base_height)
    # x = y = 0, of either zero sign: phi1 is +0.0, not atan2's +-pi
    axis = [(x, y, 0.3) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    got, want = _ik_both(p, axis + [folded])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got[:, 0].view(np.int64), np.zeros(5, np.int64))
    assert tuple(got[4]) == tuple(want[4]) == (0.0, 0.0, math.pi)


def _wrap(a):
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    return a + 2.0 * math.pi * (a <= 0.0) - math.pi


def _ik_reference(p, x, y, z):
    """The closed form of inverse_kinematics in plain floats with math,
    for a reachable target with a branch inside the joint limits."""
    a, L1, L2 = p.base_offset + p.spoon_offset, p.link1_length, p.link2_length
    radial = math.hypot(x, y)
    phi1 = math.atan2(y, x) if radial > 0.0 else 0.0
    u, w = radial - a, z - p.base_height
    d = math.hypot(u, w)
    cos_gamma = (d * d + L1 * L1 - L2 * L2) / (2.0 * L1 * max(d, 1e-12))
    gamma = math.acos(min(1.0, max(-1.0, cos_gamma)))
    psi = math.atan2(w, u)
    for th2 in (psi + gamma, psi - gamma):  # elbow-up first
        q = (phi1, _wrap(th2), _wrap(math.atan2(w - L1 * math.sin(th2),
                                                u - L1 * math.cos(th2))))
        if all(lo - 1e-12 <= qi <= hi + 1e-12
               for qi, (lo, hi) in zip(q, p.joint_limits)):
            return [min(max(qi, lo), hi)
                    for qi, (lo, hi) in zip(q, p.joint_limits)]
    raise AssertionError(f"no branch inside the limits for {(x, y, z)}")


def test_ik_path_has_libm_bits_over_the_workspace_grid():
    # numpy's own hypot, atan2 and acos may round differently from libm,
    # and differently again under another SIMD dispatch
    p = nominal_params()
    points = workspace_sample(p, 20).points
    assert len(points) == 8000
    got = inverse_kinematics_path(p, np.arange(len(points)), *points.T)
    want = np.array([_ik_reference(p, *target) for target in points.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
