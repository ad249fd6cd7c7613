"""A closed-form oracle for the damping study.

The shipped build is balanced exactly, so near the example pose a small
handle force F moves the arm as the mass-damper M*dq'' + C*dq' = J_h^T*F,
with M the lumped-mass matrix at the pose and C the viscous dampers'
coefficients. M^-1*C is similar to the symmetric S = M^-1/2*C*M^-1/2,
whose eigenvectors decouple the system into modes z'' + lam*z' = b(t);
for a sine force each mode has an exact solution. The rollout's spoon
deviation from the tremor-free rollout must approach J_s*dq with an error
of first order in the amplitude: Coriolis, and M and J varying with the
pose, are what the linearisation leaves out.

The shipped build is the benchmark damper sweep's viscous build of c =
0.4 on J2 and J3; its builds of c = 0.1 and 1.0 are checked too, and a
horizontal force whose lateral part drives J1's yaw, an undamped mode of
pure mass. A noise tremor is a sum of sines of known frequencies and
phases, so its closed form is the sum of one tone's.
"""

import math

import numpy as np
import pytest

from spoonarm.dynamics import (DamperModel, DamperSpec, NoiseTremor, Scenario,
                               SineTremor, mass_matrix, run_scenario)
from spoonarm.kinematics import Joint, handle_jacobian, jacobian

from shipped import EXAMPLE, RIGID, SHIPPED

START = EXAMPLE.initial
FREQUENCY = 2.0     # Hz
DURATION = 4.0      # s
AMPLITUDES = (0.15, 0.015, 0.0015)      # N
RMS = (0.1, 0.01, 0.001)                # N, of the noise tremor
VERTICAL = (0.0, 0.0, 1.0)
# horizontal: its y part turns the arm about J1, its x part lifts it
HORIZONTAL = (0.8, 0.6, 0.0)


def lumped_mass_matrix(params, th2, th3):
    """M(q) of the three point masses, written out on its own: each mass
    sits at radius a1 + alpha*L1*cos(th2) + beta*L2*cos(th3) from the yaw
    axis and height h + alpha*L1*sin(th2) + beta*L2*sin(th3)."""
    p = params
    l1, l2 = p.link1_length, p.link2_length
    masses = ((p.mass_link1, p.com_fraction1, 0.0),
              (p.mass_link2, 1.0, p.com_fraction2),
              (p.mass_payload, 1.0, 1.0))
    m = np.zeros((3, 3))
    for mass, alpha, beta in masses:
        radius = (p.base_offset + alpha * l1 * math.cos(th2)
                  + beta * l2 * math.cos(th3))
        m[0, 0] += mass * radius * radius
        m[1, 1] += mass * (alpha * l1) ** 2
        m[2, 2] += mass * (beta * l2) ** 2
        m[1, 2] += mass * alpha * beta * l1 * l2 * math.cos(th2 - th3)
    m[2, 1] = m[1, 2]
    return m


def damping_matrix(dampers):
    c = np.zeros(3)
    for spec in dampers:
        assert spec.model is DamperModel.VISCOUS
        c[spec.joint] += spec.coefficient
    return np.diag(c)


def tones(tremor):
    """(force, omega, phases): the tremor as the sum of
    force*sin(omega*t + phase) over its tones."""
    direction = np.array(tremor.direction)
    if isinstance(tremor, NoiseTremor):
        omega, phases = tremor.tones
        return (tremor.rms * math.sqrt(2.0 / len(omega)) * direction,
                omega, phases)
    return (tremor.amplitude * direction,
            np.array([2.0 * math.pi * tremor.frequency]), np.zeros(1))


def linear_spoon_deviation(params, dampers, state, tremor, t):
    """J_s*dq(t) of M*dq'' + C*dq' = J_h^T*f(t), starting at rest, with
    f(t) the tremor's force: (len(t), 3) rows."""
    m = lumped_mass_matrix(params, *state.q[1:])
    mass_values, mass_vectors = np.linalg.eigh(m)
    m_inv_sqrt = mass_vectors @ np.diag(mass_values ** -0.5) @ mass_vectors.T
    lam, modes = np.linalg.eigh(m_inv_sqrt @ damping_matrix(dampers)
                                @ m_inv_sqrt)
    lam = np.maximum(lam, 0.0)      # J1 has no damper: lam is 0 up to ulps
    force, omega, phases = tones(tremor)
    b = modes.T @ m_inv_sqrt @ handle_jacobian(params, state).T @ force
    tt, lam = t[:, None], lam[None, :]
    # (1 - exp(-lam*t))/lam, and its limit t for an undamped mode
    damped = lam > 0.0
    settle = np.where(damped, -np.expm1(-lam * tt)
                      / np.where(damped, lam, 1.0), tt)
    # z of z'' + lam*z' = b*sin(w*t + p), z(0) = z'(0) = 0, summed over
    # the tones
    z = 0.0
    for w, p in zip(omega.tolist(), phases.tolist()):
        z = z + b * (math.sin(p) - np.sin(w * tt + p)
                     + lam * (math.cos(p) - np.cos(w * tt + p)) / w
                     + (w * math.cos(p) - lam * math.sin(p)) * settle
                     ) / (lam * lam + w * w)
    dq = z @ (m_inv_sqrt @ modes).T
    return dq @ jacobian(params, state).T


def rollout_spoon(tremor, dampers=SHIPPED.dampers):
    scenario = Scenario(duration=DURATION, timestep=EXAMPLE.timestep,
                        initial=START, input=tremor)
    result = run_scenario(SHIPPED.mechanism, SHIPPED.springs, dampers, RIGID,
                          scenario)
    return result.t, result.spoon_pos


def relative_rms_error(tremor, still, dampers=SHIPPED.dampers):
    t, spoon = rollout_spoon(tremor, dampers)
    expected = linear_spoon_deviation(SHIPPED.mechanism, dampers, START,
                                      tremor, t)
    error = (spoon - still) - expected
    return math.sqrt(np.mean(error * error) / np.mean(expected * expected))


def test_lumped_mass_matrix_is_the_mass_matrix():
    np.testing.assert_allclose(
        mass_matrix(SHIPPED.mechanism, START),
        lumped_mass_matrix(SHIPPED.mechanism, *START.q[1:]),
        rtol=1e-14, atol=1e-17)


def test_sine_tremor_rollout_converges_to_the_linear_closed_form():
    _, still = rollout_spoon(None)
    # balanced exactly: without tremor the spoon does not move
    assert np.max(np.abs(still - still[0])) < 1e-12
    errors = [relative_rms_error(SineTremor(amplitude, FREQUENCY), still)
              for amplitude in AMPLITUDES]
    # first order in the amplitude: 2.05e-2, 2.05e-3 and 2.05e-4 here
    assert errors[0] < 0.03
    for larger, smaller in zip(errors, errors[1:]):
        assert larger / smaller == pytest.approx(10.0, rel=0.2)


@pytest.mark.parametrize("coefficient, direction, largest", [
    (0.1, VERTICAL, 0.06),      # errors 4.09e-2, 4.01e-3, 4.00e-4
    (1.0, VERTICAL, 0.008),     # 5.40e-3, 5.40e-4, 5.40e-5
    (0.4, HORIZONTAL, 0.1),     # 6.54e-2, 6.58e-3, 6.58e-4
], ids=["viscous-0.1-vertical", "viscous-1.0-vertical",
        "viscous-0.4-horizontal"])
def test_damper_sweep_builds_and_a_lateral_force_converge_too(
        coefficient, direction, largest):
    dampers = tuple(DamperSpec(joint, DamperModel.VISCOUS, coefficient)
                    for joint in (Joint.J2, Joint.J3))
    _, still = rollout_spoon(None, dampers)
    errors = [relative_rms_error(SineTremor(amplitude, FREQUENCY, direction),
                                 still, dampers) for amplitude in AMPLITUDES]
    assert errors[0] < largest
    for larger, smaller in zip(errors, errors[1:]):
        assert larger / smaller == pytest.approx(10.0, rel=0.2)


def test_noise_tremor_rollout_converges_to_the_sum_over_its_tones():
    _, still = rollout_spoon(None)
    errors = [relative_rms_error(NoiseTremor(rms, 2.0, 9.0, seed=11), still)
              for rms in RMS]
    # 3.17e-2, 3.17e-3 and 3.17e-4 here
    assert errors[0] < 0.05
    for larger, smaller in zip(errors, errors[1:]):
        assert larger / smaller == pytest.approx(10.0, rel=0.2)
