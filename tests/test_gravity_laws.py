"""Gravity's torque and potential laws, the potential sum and the torque
columns: each is written once in statics and serves floats and arrays,
the stepper's stages, its recording and the balance table alike. The
stages add gravity and the springs in the float order the synthesis
fits, so a balanced build released at rest stays at rest bit for bit."""

import math

import numpy as np
import pytest

from spoonarm.dynamics import (
    ComplianceSpec,
    Scenario,
    SpoonContact,
    kinetic_energy,
    run_scenario,
)
from spoonarm.kinematics import Joint, JointState, MechanismParams
from spoonarm.serialize import write_balance_csv
from spoonarm.statics import (
    SpringKind,
    SpringSpec,
    gravity_coefficients,
    gravity_laws,
    gravity_potential,
    gravity_torque,
    potential_energy,
    potential_sum,
    residual_torque_profile,
    synthesize_balancing,
    torque_columns,
)

from shipped import NOMINAL, SHIPPED

ANGLES = np.linspace(-1.75, 2.0, 97)
SPRINGS = (
    SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 280.0, 0.1, 0.05, 0.005),
    SpringSpec(SpringKind.TORSION, Joint.J3, 0.3, torsion_neutral=2.0),
    SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J3, 120.0, 0.1,
               0.05),
)


def lumped_heights_potential(p: MechanismParams, th2: float, th3: float):
    """g * sum(m_i * z_i) of the three lumped masses, from their heights."""
    h0, L1, L2 = p.base_height, p.link1_length, p.link2_length
    z1 = h0 + p.com_fraction1 * L1 * math.sin(th2)
    z2 = h0 + L1 * math.sin(th2) + p.com_fraction2 * L2 * math.sin(th3)
    z3 = h0 + L1 * math.sin(th2) + L2 * math.sin(th3)
    return p.gravity * (p.mass_link1 * z1 + p.mass_link2 * z2
                        + p.mass_payload * z3)


@pytest.mark.parametrize("joint", [Joint.J2, Joint.J3])
def test_gravity_laws_are_minus_g_a_cos_and_g_a_sin_bit_for_bit(joint):
    p = NOMINAL
    a = gravity_coefficients(p)[joint - 1]
    torque, potential = gravity_laws(p, joint)
    cos, sin = np.cos(ANGLES), np.sin(ANGLES)
    np.testing.assert_array_equal(torque(cos), -p.gravity * a * cos)
    np.testing.assert_array_equal(potential(sin), p.gravity * a * sin)
    assert [torque(c) for c in cos.tolist()] == torque(cos).tolist()


def test_gravity_torque_reads_the_gravity_law():
    p = NOMINAL
    state = JointState(q=(0.3, 0.7, -1.1))
    assert gravity_torque(p, state) == (
        gravity_laws(p, Joint.J2)[0](math.cos(0.7)),
        gravity_laws(p, Joint.J3)[0](math.cos(-1.1)))


@pytest.mark.parametrize("q", [(0.0, 0.0, 0.0), (0.2, 0.7, -1.4),
                               (-1.0, 2.0, 1.4), (3.0, -0.35, -1.75)])
def test_gravity_potential_is_the_lumped_height_sum(q):
    p = NOMINAL
    expected = lumped_heights_potential(p, q[1], q[2])
    got = gravity_potential(p, JointState(q=q))
    assert got == pytest.approx(expected, rel=0.0, abs=4e-15)


def test_potential_sum_on_arrays_equals_potential_energy_per_row():
    p = NOMINAL
    th2, th3 = ANGLES, ANGLES[::-1].copy()
    # the same sines for both paths: math's, as potential_energy takes
    s2t = np.array([math.sin(a) for a in th2.tolist()])
    s3t = np.array([math.sin(a) for a in th3.tolist()])
    column = potential_sum(p, SPRINGS, th2, s2t, th3, s3t, np.sqrt,
                           np.maximum)
    rows = [potential_energy(p, SPRINGS, JointState(q=(0.0, a, b)))
            for a, b in zip(th2.tolist(), th3.tolist())]
    assert column.tolist() == rows


@pytest.mark.parametrize("joint", [Joint.J2, Joint.J3])
def test_torque_columns_add_up_to_the_residual_profile(joint):
    p = NOMINAL
    profile = residual_torque_profile(p, SPRINGS)[joint - 1]
    tau_g, tau_s = torque_columns(p, SPRINGS, joint, profile.angles)
    np.testing.assert_array_equal(tau_g + tau_s, profile.torques)
    a = gravity_coefficients(p)[joint - 1]
    np.testing.assert_array_equal(tau_g,
                                  -p.gravity * a * np.cos(profile.angles))


@pytest.mark.parametrize("kind", list(SpringKind))
def test_balance_csv_writes_the_torque_columns(tmp_path, kind):
    p = NOMINAL
    result = synthesize_balancing(p, kind)
    profiles = (result.residual_j2, result.residual_j3)
    path = tmp_path / "balance.csv"
    write_balance_csv(profiles, path)
    expected = np.concatenate([np.column_stack([
        profile.angles,
        *torque_columns(p, result.springs, profile.joint, profile.angles),
        profile.torques]) for profile in profiles])
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert lines == [",".join(map(repr, row)) for row in expected.tolist()]


def test_contact_rollout_books_the_mount_energy():
    p = NOMINAL
    mount = ComplianceSpec()
    start = JointState(q=(0.0, 0.7347863005736404, -1.4323283077414541))
    scenario = Scenario(duration=0.2, initial=start,
                        spoon_contact=SpoonContact(0.05, 0.02, 0.01))
    springs = SHIPPED.springs
    result = run_scenario(p, springs, [], mount, scenario)
    (dp, dy), (vp, vy) = result.deflection.T, result.deflection_rate.T
    assert np.abs(dp).max() > 0.0 and np.abs(dy).max() > 0.0
    arm_pot = [potential_energy(p, springs, result.state(i))
               for i in range(len(result))]
    arm_kin = [kinetic_energy(p, result.state(i)) for i in range(len(result))]
    np.testing.assert_allclose(
        result.e_pot - arm_pot, 0.5 * mount.stiffness * (dp ** 2 + dy ** 2),
        rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(
        result.e_kin - arm_kin, 0.5 * mount.inertia * (vp ** 2 + vy ** 2),
        rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("th2", np.linspace(-0.35, 2.0, 41).tolist())
def test_balanced_build_released_at_rest_holds_every_pose(th2):
    start = JointState(q=(0.0, th2, 0.3))
    result = run_scenario(SHIPPED.mechanism, SHIPPED.springs, SHIPPED.dampers,
                          SHIPPED.compliance,
                          Scenario(duration=0.1, initial=start))
    assert not result.qdot.any()
    assert (result.q == start.q).all()
