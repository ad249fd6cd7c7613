"""Dynamics tests: mass matrix structure, energy bookkeeping, dampers,
input signals, integration accuracy, and the compliant mount."""

import dataclasses
import math
import re
from decimal import Decimal

import numpy as np
import pytest

from spoonarm import JointState, MechanismParams, dynamics
from spoonarm.dynamics import (
    FORCE_BLOCK,
    ComplianceMode,
    ComplianceSpec,
    ContactResponse,
    DamperModel,
    DamperSpec,
    FreeRelease,
    NoiseTremor,
    PrescribedTrajectory,
    Scenario,
    SimResult,
    SineTremor,
    SpasmImpulse,
    SpoonContact,
    coriolis_matrix,
    damper_torque,
    generate_signal,
    kinetic_energy,
    mass_matrix,
    run_scenario,
    settling_time,
    spoon_contact_response,
    step_dynamics,
)
from spoonarm.dynamics import (
    _arm_law,
    _arm_stepper,
    _mount_rows,
    _signal_forces,
    _stage_times,
)
from spoonarm.errors import (DeflectionExceededError, LimitViolationError,
                             NonFiniteStateError, TimestepTooCoarseError)
from spoonarm.errors import UnreachableError
from spoonarm.kinematics import Joint, handle_jacobian
from spoonarm.kinematics import inverse_kinematics
from spoonarm.statics import (
    SpringKind,
    SpringSpec,
    gravity_torque,
    potential_energy,
    spring_joint_torques,
    synthesize_balancing,
)

from shipped import ASYMMETRIC, EXAMPLE, FREE_LIMITS, RIGID, SHIPPED

# closed forms for the nominal build: M22 = (m1*c1^2 + m2 + mp)*L1^2,
# M33 = (m2*c2^2 + mp)*L2^2, and the coupling amplitude L1*L2*(m2*c2 + mp)
M22_NOMINAL = 0.030468750
M33_NOMINAL = 0.0109375
COUPLING_NOMINAL = 0.015625


def free_params(**kw):
    return MechanismParams(joint_limits=FREE_LIMITS, **kw)


def random_states(n, seed, angle=2.5, rate=1.5):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield JointState(q=tuple(rng.uniform(-angle, angle, 3)),
                         qdot=tuple(rng.uniform(-rate, rate, 3)))


def mass_points(params, q):
    """Cartesian positions of the three lumped masses; the independent
    geometry the mass matrix must agree with."""
    phi1, th2, th3 = q
    a1 = params.base_offset
    L1, L2 = params.link1_length, params.link2_length
    c1, c2 = params.com_fraction1, params.com_fraction2
    h0 = params.base_height
    radials = (
        a1 + c1 * L1 * math.cos(th2),
        a1 + L1 * math.cos(th2) + c2 * L2 * math.cos(th3),
        a1 + L1 * math.cos(th2) + L2 * math.cos(th3),
    )
    heights = (
        h0 + c1 * L1 * math.sin(th2),
        h0 + L1 * math.sin(th2) + c2 * L2 * math.sin(th3),
        h0 + L1 * math.sin(th2) + L2 * math.sin(th3),
    )
    cp, sp = math.cos(phi1), math.sin(phi1)
    return [np.array([r * cp, r * sp, z]) for r, z in zip(radials, heights)]


# ---------------------------------------------------------------------------
# mass matrix and energies


def test_mass_matrix_symmetric_positive_definite():
    p = free_params()
    for state in random_states(1000, seed=11):
        m = mass_matrix(p, state)
        assert np.array_equal(m, m.T)
        assert np.all(np.linalg.eigvalsh(m) > 0.0)


def test_mass_matrix_planar_block_closed_form():
    p = free_params()
    for th2, th3 in [(0.0, 0.0), (0.9, -0.4), (1.2, 1.2), (-0.3, 0.8)]:
        m = mass_matrix(p, JointState(q=(0.5, th2, th3)))
        assert m[1, 1] == pytest.approx(M22_NOMINAL, abs=1e-15)
        assert m[2, 2] == pytest.approx(M33_NOMINAL, abs=1e-15)
        assert m[1, 2] == pytest.approx(
            COUPLING_NOMINAL * math.cos(th2 - th3), abs=1e-15)
        assert m[0, 1] == 0.0 and m[0, 2] == 0.0


@pytest.mark.parametrize("p", [free_params(), ASYMMETRIC],
                         ids=["nominal", "asymmetric"])
def test_kinetic_energy_matches_point_mass_oracle(p):
    # velocities of the lumped masses by central differencing the geometry
    # along the flow; no mass-matrix algebra involved
    masses = (p.mass_link1, p.mass_link2, p.mass_payload)
    h = 1e-6
    for state in random_states(200, seed=23):
        qf = tuple(qi + h * wi for qi, wi in zip(state.q, state.qdot))
        qb = tuple(qi - h * wi for qi, wi in zip(state.q, state.qdot))
        ke = 0.0
        for m, pf, pb in zip(masses, mass_points(p, qf), mass_points(p, qb)):
            v = (pf - pb) / (2.0 * h)
            ke += 0.5 * m * float(v @ v)
        assert kinetic_energy(p, state) == pytest.approx(ke, abs=1e-9)


def test_kinetic_energy_quadratic_form():
    p = free_params()
    for state in random_states(100, seed=5):
        w = np.array(state.qdot)
        assert kinetic_energy(p, state) == pytest.approx(
            0.5 * w @ mass_matrix(p, state) @ w, rel=1e-12)


def test_coriolis_skew_symmetry():
    # Mdot - 2C must be skew-symmetric for the Christoffel convention
    p = free_params()
    h = 1e-6
    for state in random_states(100, seed=37):
        qf = tuple(qi + h * wi for qi, wi in zip(state.q, state.qdot))
        qb = tuple(qi - h * wi for qi, wi in zip(state.q, state.qdot))
        mdot = (mass_matrix(p, JointState(q=qf))
                - mass_matrix(p, JointState(q=qb))) / (2.0 * h)
        s = mdot - 2.0 * coriolis_matrix(p, state)
        assert np.max(np.abs(s + s.T)) < 1e-7


def test_equations_satisfy_the_manipulator_equation():
    # M(q) qdd + C(q, qd) qd = tau_gravity + tau_spring + tau_damper ties
    # the inline C(q, qd) qd of the equations to coriolis_matrix
    p = free_params()
    springs = (
        SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, stiffness=150.0,
                   anchor_radius=0.1, bar_radius=0.05, free_length=0.02),
        SpringSpec(SpringKind.TORSION, Joint.J3, stiffness=0.8,
                   torsion_neutral=0.3),
    )
    dampers = (DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.2),
               DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS, 0.4, 0.3),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.1))
    accel = _arm_law(p, springs, dampers, 1e-3)
    for state in random_states(100, seed=41):
        *qdd, power = accel(*state.q, *state.qdot, None)
        qdot = np.array(state.qdot)
        tau_d = np.array([damper_torque(spec, qdot[spec.joint])
                          for spec in dampers])
        tau = (np.array(spring_joint_torques(springs, state))
               + [0.0, *gravity_torque(p, state)] + tau_d)
        lhs = (mass_matrix(p, state) @ qdd
               + coriolis_matrix(p, state) @ qdot)
        assert np.allclose(lhs, tau, rtol=1e-10, atol=1e-10)
        assert power == pytest.approx(-tau_d @ qdot, rel=1e-12, abs=1e-15)


def test_potential_energy_includes_springs():
    p = free_params()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    state = JointState(q=(0.3, 0.8, -0.2))
    v_grav_only = potential_energy(p, [], state)
    v_full = potential_energy(p, springs, state)
    assert v_full != v_grav_only
    # balanced total potential is pose-independent up to a constant
    other = JointState(q=(0.3, 1.4, 0.6))
    assert potential_energy(p, springs, other) == pytest.approx(v_full, abs=1e-9)


# ---------------------------------------------------------------------------
# dampers and signals


def test_damper_torque_examples():
    viscous = DamperSpec(Joint.J2, DamperModel.VISCOUS, coefficient=0.4)
    assert damper_torque(viscous, 1.0) == pytest.approx(-0.4, abs=1e-15)
    assert damper_torque(viscous, -2.0) == pytest.approx(0.8, abs=1e-15)

    dz = DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS,
                    coefficient=0.4, deadzone=0.3)
    assert damper_torque(dz, 0.0) == 0.0
    assert damper_torque(dz, 0.29) == 0.0
    assert damper_torque(dz, -0.3) == 0.0
    assert damper_torque(dz, 0.5) == pytest.approx(-0.4 * 0.2, abs=1e-15)
    assert damper_torque(dz, -0.5) == pytest.approx(0.4 * 0.2, abs=1e-15)
    # continuous at the threshold
    assert damper_torque(dz, 0.3 + 1e-12) == pytest.approx(0.0, abs=1e-11)

    off = DamperSpec(Joint.J2, DamperModel.NONE)
    assert damper_torque(off, 5.0) == 0.0


def textbook_dead_zone(coefficient, deadzone, omega):
    """The dead-zone law as first written, with abs and copysign."""
    if abs(omega) <= deadzone:
        return 0.0
    return -coefficient * (omega - math.copysign(deadzone, omega))


@pytest.mark.parametrize("deadzone", [0.3, 0.0, -0.0])
def test_dead_zone_law_equals_the_abs_copysign_form_bit_for_bit(deadzone):
    spec = DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.4, deadzone)
    rates = [math.nan]
    for sign in (1.0, -1.0):
        edge = math.copysign(deadzone, sign)
        rates += [sign * 0.0, edge, math.nextafter(edge, 0.0),
                  math.nextafter(edge, sign * math.inf), sign * 1e300,
                  sign * math.inf]
    for omega in rates:
        got = damper_torque(spec, omega)
        # repr tells the signs of zero and of inf apart; NaN stays NaN
        assert repr(got) == repr(textbook_dead_zone(0.4, deadzone, omega)), \
            omega


def test_damper_spec_validation():
    with pytest.raises(ValueError):
        DamperSpec(Joint.J2, DamperModel.VISCOUS, coefficient=-0.1)
    with pytest.raises(ValueError):
        DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS,
                   coefficient=0.4, deadzone=-0.3)


def test_sine_tremor_signal():
    sig = SineTremor(amplitude=2.0, frequency=1.0, direction=(0.0, 0.0, 2.0))
    assert np.allclose(generate_signal(sig, 0.0), [0.0, 0.0, 0.0])
    assert np.allclose(generate_signal(sig, 0.25), [0.0, 0.0, 2.0])
    assert np.allclose(generate_signal(sig, 0.75), [0.0, 0.0, -2.0])


def test_spasm_impulse_window():
    sig = SpasmImpulse(force=3.0, duration=0.1, onset=0.5,
                       direction=(1.0, 0.0, 0.0))
    assert generate_signal(sig, 0.49)[0] == 0.0
    assert generate_signal(sig, 0.5)[0] == 3.0
    assert generate_signal(sig, 0.6)[0] == 3.0
    assert generate_signal(sig, 0.61)[0] == 0.0


def test_noise_tremor_rms_and_determinism():
    sig = NoiseTremor(rms=0.5, f_lo=2.0, f_hi=6.0, seed=7)
    ts = np.arange(0.0, 60.0, 1e-3)
    vals = np.array([generate_signal(sig, t)[2] for t in ts])
    rms = math.sqrt(float(np.mean(vals ** 2)))
    assert rms == pytest.approx(0.5, rel=0.02)

    again = np.array([generate_signal(
        NoiseTremor(rms=0.5, f_lo=2.0, f_hi=6.0, seed=7), t)[2]
        for t in ts[:100]])
    assert np.array_equal(again, vals[:100])

    other = np.array([generate_signal(
        NoiseTremor(rms=0.5, f_lo=2.0, f_hi=6.0, seed=8), t)[2]
        for t in ts[:100]])
    assert not np.array_equal(other, vals[:100])


def test_signal_validation():
    with pytest.raises(ValueError):
        SineTremor(amplitude=1.0, frequency=0.0)
    with pytest.raises(ValueError):
        SineTremor(amplitude=-1.0, frequency=1.0)
    with pytest.raises(ValueError):
        SineTremor(amplitude=1.0, frequency=1.0, direction=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        NoiseTremor(rms=0.5, f_lo=3.0, f_hi=3.0, seed=1)


def test_a_direction_too_large_to_square_is_made_unit():
    direction = SineTremor(1.0, 1.0, direction=(1e200, 0.0, 1e200)).direction
    assert abs(math.hypot(*direction) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        NoiseTremor(rms=-0.5, f_lo=1.0, f_hi=3.0, seed=1)
    with pytest.raises(ValueError):
        SpasmImpulse(force=1.0, duration=-0.1)
    with pytest.raises(ValueError):
        PrescribedTrajectory(((0.0, 0.3, 0.0, 0.1),))
    with pytest.raises(ValueError):
        PrescribedTrajectory(((0.0, 0.3, 0.0, 0.1), (0.0, 0.3, 0.0, 0.2)))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(duration=1.0, timestep=0.0)
    with pytest.raises(ValueError):
        Scenario(duration=0.0005, timestep=1e-3)
    assert Scenario(duration=1.0, timestep=1e-3).steps == 1001


@pytest.mark.parametrize("duration, timestep, steps", [
    (0.7, 0.1, 8),          # 0.7 / 0.1 == 6.999999999999999
    (0.3, 0.1, 4),          # 0.3 / 0.1 == 2.9999999999999996
    (0.6, 0.2, 4),
    (1.1, 0.1, 12),
    (4.0, 1e-3, 4001),
    (0.35, 0.1, 4),         # not a whole number of steps: floor
    (1.0005, 1e-3, 1001),
])
def test_scenario_steps_on_decimal_grids(duration, timestep, steps):
    sc = Scenario(duration=duration, timestep=timestep)
    assert sc.steps == steps
    res = run_scenario(free_params(), [], [], RIGID, sc)
    assert len(res) == steps
    assert res.t[-1] <= duration + 1e-9 * duration
    assert res.t[-1] > duration - timestep


def test_compliance_spec_validation():
    # rigid mode does not need oscillator constants
    ComplianceSpec(mode=ComplianceMode.RIGID, stiffness=0.0, damping=0.0,
                   inertia=0.0)
    with pytest.raises(ValueError):
        ComplianceSpec(stiffness=0.0)
    with pytest.raises(ValueError):
        ComplianceSpec(deflection_limit=0.0)
    spec = ComplianceSpec()
    assert spec.damping_ratio == pytest.approx(
        0.012 / (2.0 * math.sqrt(2.0 * 5e-4)), rel=1e-12)


# ---------------------------------------------------------------------------
# integration properties


def test_pendulum_small_oscillation_period():
    # distal masses removed: link 1 swings as a plain pendulum about the
    # hanging pose, theta3 and phi1 have no inertia and must hold still
    p = free_params(mass_link2=0.0, mass_payload=0.0)
    amp = 1e-4
    sc = Scenario(duration=2.0, timestep=1e-4,
                  initial=JointState(q=(0.0, -math.pi / 2.0 + amp, 0.0)))
    res = run_scenario(p, [], [], RIGID, sc)

    assert np.all(res.q[:, 0] == 0.0)
    assert np.all(res.q[:, 2] == 0.0)

    swing = res.q[:, 1] + math.pi / 2.0
    crossings = []
    for i in range(1, len(swing)):
        if swing[i - 1] < 0.0 <= swing[i]:
            frac = -swing[i - 1] / (swing[i] - swing[i - 1])
            crossings.append(res.t[i - 1] + frac * (res.t[i] - res.t[i - 1]))
    assert len(crossings) >= 2
    period = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    expected = 2.0 * math.pi * math.sqrt(
        p.com_fraction1 * p.link1_length / p.gravity)
    assert period == pytest.approx(expected, rel=1e-3)


def test_balanced_equilibrium_is_fixed_point():
    p = free_params()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    state = JointState(q=(0.1, 0.7, -0.2))
    for _ in range(1000):
        state, _ = step_dynamics(p, springs, [], RIGID, state, None, 1e-3)
    assert max(abs(a - b) for a, b in zip(state.q, (0.1, 0.7, -0.2))) < 1e-12
    assert max(abs(w) for w in state.qdot) < 1e-12


def test_energy_conservation_undamped():
    # moderate swing near the hanging pose; violent tumbles pass the masses
    # through the yaw axis and trade accuracy for nothing
    p = free_params()
    hang = -math.pi / 2.0
    sc = Scenario(duration=3.0, timestep=1e-3,
                  initial=JointState(q=(0.0, hang + 0.4, hang - 0.25),
                                     qdot=(0.4, 0.2, -0.1)))
    res = run_scenario(p, [], [], RIGID, sc)
    e = res.total_energy
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6
    assert np.all(res.e_diss == 0.0)


def test_damped_energy_accounting():
    p = free_params()
    dampers = [DamperSpec(j, DamperModel.VISCOUS, 0.4) for j in Joint]
    sc = Scenario(duration=3.0, timestep=1e-3,
                  initial=JointState(q=(0.2, 0.8, -0.3),
                                     qdot=(0.5, -0.4, 0.6)))
    res = run_scenario(p, [], dampers, RIGID, sc)
    e = res.total_energy
    # mechanical energy never increases, dissipation never decreases,
    # and the sum is conserved by the integrator
    assert np.all(np.diff(e) <= 1e-12)
    assert np.all(np.diff(res.e_diss) >= 0.0)
    assert res.e_diss[-1] > 0.1
    total = e + res.e_diss
    assert np.max(np.abs(total - total[0])) / abs(total[0]) < 1e-8


def test_dead_zone_dissipates_nothing_below_threshold():
    # yaw pinned so the lateral bracket moment cannot spin the (undamped)
    # base joint; the tremor rocks the hanging planar chain gently
    p = MechanismParams(joint_limits=((0.0, 0.0), (-1e6, 1e6), (-1e6, 1e6)))
    hang = -math.pi / 2.0
    dampers = [DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS, 0.4, 0.3),
               DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.4, 0.3)]
    sc = Scenario(duration=4.0, timestep=1e-3,
                  initial=JointState(q=(0.0, hang, hang)),
                  input=SineTremor(amplitude=0.15, frequency=2.0,
                                   direction=(1.0, 0.0, 0.0)))
    res = run_scenario(p, [], dampers, RIGID, sc)
    assert np.max(np.abs(res.qdot)) < 0.3  # the premise: speeds in the dead zone
    assert res.e_diss[-1] == 0.0


def test_rk4_convergence_ratio():
    p = free_params()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.4)]

    def final_q(dt):
        sc = Scenario(duration=1.0, timestep=dt,
                      initial=JointState(q=(0.1, 0.9, -0.5),
                                         qdot=(0.3, 0.2, -0.1)))
        return run_scenario(p, springs, dampers, RIGID, sc).q[-1]

    ref = final_q(6.25e-5)
    coarse = np.linalg.norm(final_q(2e-3) - ref)
    fine = np.linalg.norm(final_q(1e-3) - ref)
    assert 12.8 < coarse / fine < 19.2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_state_raises():
    p = free_params()
    sc = Scenario(duration=1.0, timestep=1e-3,
                  input=SpasmImpulse(force=1e300, duration=1.0))
    with pytest.raises(NonFiniteStateError):
        run_scenario(p, [], [], RIGID, sc)


def test_joint_limits_clamp_and_zero_velocity():
    p = MechanismParams(joint_limits=((-0.5, 0.5), (0.2, 0.9), (-0.6, 0.3)))
    sc = Scenario(duration=2.0, timestep=1e-3,
                  initial=JointState(q=(0.0, 0.7, 0.1)))
    res = run_scenario(p, [], [], RIGID, sc)
    for j, (lo, hi) in enumerate(p.joint_limits):
        assert np.all(res.q[:, j] >= lo - 1e-15)
        assert np.all(res.q[:, j] <= hi + 1e-15)
        at_lo = res.q[:, j] == lo
        at_hi = res.q[:, j] == hi
        assert np.all(res.qdot[at_lo, j] >= 0.0)
        assert np.all(res.qdot[at_hi, j] <= 0.0)
    # the arm did fall onto a limit, otherwise this test checks nothing
    assert np.any(res.q[:, 1] == 0.2)


def test_plain_int_joints_act_on_their_joint():
    # SpringSpec and DamperSpec accept the int value of a Joint; a spring
    # given joint=1 acts on theta2, as one given Joint.J2 does
    p = MechanismParams()
    sc = Scenario(duration=0.05, initial=JointState(q=(0.0, 0.7, -0.2)))
    runs = [run_scenario(p, (SpringSpec(SpringKind.TORSION, j2, 0.8,
                                        torsion_neutral=0.3),),
                         (DamperSpec(j2, DamperModel.VISCOUS, 0.4),), RIGID,
                         sc)
            for j2 in (Joint.J2, 1)]
    assert np.array_equal(runs[0].q, runs[1].q)
    assert np.array_equal(runs[0].e_pot, runs[1].e_pot)


def test_step_dynamics_equals_run_scenario_step():
    p = free_params()
    init = JointState(q=(0.2, 0.8, -0.3), qdot=(0.5, -0.4, 0.6))
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4)]
    sc = Scenario(duration=2e-3, timestep=1e-3, initial=init,
                  input=SineTremor(amplitude=0.5, frequency=2.0))
    res = run_scenario(p, [], dampers, RIGID, sc)
    stepped, _ = step_dynamics(p, [], dampers, RIGID, init,
                               sc.input, 1e-3, t=0.0)
    assert tuple(res.q[1]) == stepped.q
    assert tuple(res.qdot[1]) == stepped.qdot


def wobble_force(t):
    return (0.2 * math.sin(3.0 * t), -0.1, 0.3 * math.cos(5.0 * t))


def textbook_rk4(accel, limits, y, dt, forces):
    """Classical RK4 over the packed state's derivative, the rates then
    accel's accelerations and power, then the joint-limit clamp."""
    def deriv(y, force):
        return (*y[3:6], *accel(*y[:6], force))

    f0, f_half, f1 = forces
    k1 = deriv(y, f0)
    k2 = deriv([a + dt / 2 * k for a, k in zip(y, k1)], f_half)
    k3 = deriv([a + dt / 2 * k for a, k in zip(y, k2)], f_half)
    k4 = deriv([a + dt * k for a, k in zip(y, k3)], f1)
    y = [a + dt / 6 * (p + 2 * q + 2 * r + s)
         for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
    for j, (lo, hi) in enumerate(limits):
        if y[j] < lo:
            y[j] = lo
            if y[j + 3] < 0.0:
                y[j + 3] = 0.0
        elif y[j] > hi:
            y[j] = hi
            if y[j + 3] > 0.0:
                y[j + 3] = 0.0
    return y


STEP_STATE = (0.2, 0.8, -0.3, 0.5, -1.0, 2.0, 0.1)
STAGE_FORCES = ((0.3, -0.2, 1.1), (0.35, -0.1, 1.0), (0.4, 0.0, 0.9))
ZERO_FREE_LENGTH = SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2,
                              280.0, 0.1, 0.05)
REAL_SPRING = SpringSpec(SpringKind.LINEAR_REAL, Joint.J3, 150.0, 0.1, 0.05,
                         free_length=0.02)
TORSION_SPRING = SpringSpec(SpringKind.TORSION, Joint.J3, 0.8,
                            torsion_neutral=0.3)
ALL_SPRINGS = (ZERO_FREE_LENGTH, REAL_SPRING, TORSION_SPRING)


@pytest.mark.parametrize("params, springs, dampers, y", [
    pytest.param(free_params(), (ZERO_FREE_LENGTH,), (), STEP_STATE,
                 id="zero-free-length"),
    pytest.param(free_params(), (REAL_SPRING,), (), STEP_STATE, id="real"),
    pytest.param(free_params(), (TORSION_SPRING,), (), STEP_STATE,
                 id="torsion"),
    pytest.param(free_params(), ALL_SPRINGS,
                 (DamperSpec(Joint.J3, DamperModel.NONE),), STEP_STATE,
                 id="damper-none"),
    pytest.param(free_params(), ALL_SPRINGS,
                 (DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),),
                 STEP_STATE, id="viscous"),
    # |w2| = 1.0 lies inside a band of 1.5 and outside one of 0.3
    pytest.param(free_params(), ALL_SPRINGS,
                 (DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS, 0.4,
                             1.5),), STEP_STATE, id="dead-zone-inside"),
    pytest.param(free_params(), ALL_SPRINGS,
                 (DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS, 0.4,
                             0.3),), STEP_STATE, id="dead-zone-outside"),
    pytest.param(free_params(), ALL_SPRINGS,
                 (DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.2),),
                 STEP_STATE, id="j1-damper"),
    pytest.param(free_params(), ALL_SPRINGS,
                 (DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.2),
                  DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.3,
                             0.05),
                  DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.1)),
                 STEP_STATE, id="two-dampers-on-j3"),
    # theta2 runs over its upper limit, theta3 under its lower one
    pytest.param(MechanismParams(), ALL_SPRINGS,
                 (DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),),
                 (0.0, 1.999, -1.749, 0.3, 2.0, -2.0, 0.0),
                 id="joint-limit-clamp"),
    # no link-2 or payload mass: M33 = 0 and the planar block is singular
    pytest.param(free_params(mass_link2=0.0, mass_payload=0.0), ALL_SPRINGS,
                 (DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),),
                 STEP_STATE, id="degenerate-mass-block"),
])
@pytest.mark.parametrize("forces", [(None, None, None), STAGE_FORCES],
                         ids=["no-force", "handle-force"])
def test_stepper_equals_textbook_rk4(params, springs, dampers, y, forces):
    dt = 1e-3
    step = _arm_stepper(params, springs, dampers, dt)
    got = step(y, 0.0, *forces)
    expected = textbook_rk4(_arm_law(params, springs, dampers, dt),
                            params.joint_limits, list(y), dt, forces)
    assert isinstance(got, tuple)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    if params.joint_limits != FREE_LIMITS:
        # the step did clamp, otherwise this case checks nothing
        assert got[1:3] == (2.0, -1.75) and got[4:6] == (0.0, 0.0)


def test_stepper_takes_dampers_on_every_joint_from_an_iterator():
    dampers = (DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.2),
               DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.1))
    steps = (_arm_stepper(free_params(), ALL_SPRINGS, d, 1e-3)
             for d in (dampers, iter(dampers), dampers[:1]))
    got, from_iterator, j1_only = (step(STEP_STATE, 0.0, *STAGE_FORCES)
                                   for step in steps)
    assert from_iterator == got != j1_only


ROLLOUT_INPUTS = {
    "sine": SineTremor(amplitude=0.5, frequency=2.0,
                       direction=(0.3, -0.2, 0.9)),
    "noise": NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=3),
    "spasm": SpasmImpulse(force=0.8, duration=0.05, onset=0.1,
                          direction=(1.0, 0.0, 1.0)),
    "constant": (0.1, -0.2, 0.3),
    "callable": wobble_force,
}
# rollout lengths at the force-block edges: one step, one full block, a
# one-row last block, two full blocks, and a short last block
BLOCK_EDGE_ROWS = (2, FORCE_BLOCK, FORCE_BLOCK + 1, 2 * FORCE_BLOCK)


@pytest.mark.parametrize("inputs, n", [
    pytest.param(inputs, n, id=name if n is None else f"{name}-{n}")
    for name, inputs in ROLLOUT_INPUTS.items()
    for n in (None, *BLOCK_EDGE_ROWS)])
def test_run_scenario_rows_equal_repeated_steps(inputs, n):
    # longer than one force block, on the compliant mount with springs
    # and dampers, so every term of the equations takes part
    p = free_params()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.4, 0.05)]
    comp = ComplianceSpec()
    dt = 1e-3
    n = 2 * FORCE_BLOCK + 30 if n is None else n
    sc = Scenario(duration=(n - 1) * dt, timestep=dt,
                  initial=JointState(q=(0.1, 0.8, -0.3),
                                     qdot=(0.2, -0.1, 0.3)),
                  input=inputs)
    assert sc.steps == n
    res = run_scenario(p, springs, dampers, comp, sc)
    state, defl = sc.initial, (0.0, 0.0, 0.0, 0.0)
    for k in range(1, n):
        state, defl = step_dynamics(p, springs, dampers, comp, state, inputs,
                                    dt, t=(k - 1) * dt, deflections=defl)
        assert tuple(res.q[k]) == state.q
        assert tuple(res.qdot[k]) == state.qdot
        assert tuple(res.deflection[k]) + tuple(res.deflection_rate[k]) == defl


def test_springs_from_an_iterator_act_on_every_joint():
    # the stage sums the springs per joint and the recording reads them
    # again: an iterator must give the bits of the tuple it yields
    p, springs, dampers = SHIPPED.mechanism, SHIPPED.springs, SHIPPED.dampers
    start = JointState(q=(0.0, 0.7, -0.5), qdot=(0.1, -0.2, 0.3))
    sc = Scenario(duration=0.2, timestep=1e-3, initial=start,
                  input=NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=5))
    results = [run_scenario(p, given, dampers, SHIPPED.compliance, sc)
               for given in (springs, iter(springs))]
    for f in dataclasses.fields(SimResult):
        got, from_iterator = (getattr(res, f.name) for res in results)
        assert got.tobytes() == from_iterator.tobytes(), f.name
    (state, defl), (state_it, defl_it) = (
        step_dynamics(p, given, dampers, SHIPPED.compliance, start,
                      (0.1, -0.2, 0.3), 1e-3, t=0.05,
                      deflections=(0.01, -0.02, 0.3, 0.1))
        for given in (springs, iter(springs)))
    assert (repr((state.q, state.qdot, defl))
            == repr((state_it.q, state_it.qdot, defl_it)))


def test_callable_input_called_once_per_stage_time():
    calls = []

    def force(t):
        calls.append(t)
        return wobble_force(t)

    dt = 1e-3
    n = FORCE_BLOCK + 10
    sc = Scenario(duration=(n - 1) * dt, timestep=dt,
                  initial=JointState(q=(0.1, 0.8, -0.3)), input=force)
    run_scenario(free_params(), [], [], RIGID, sc)
    want = []
    for k in range(n - 1):
        tk = k * dt
        want += [tk, tk + 0.5 * dt, tk + dt]
    want.append((n - 1) * dt)   # the last row's applied torque
    assert calls == want


@pytest.mark.parametrize("spec", [
    SineTremor(amplitude=0.5, frequency=7.0, direction=(0.3, -0.2, 0.9)),
    NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=11),
    # the pulse edges fall on stage times next to the first block boundary
    SpasmImpulse(force=0.8, duration=2e-3, onset=(FORCE_BLOCK - 1) * 1e-3,
                 direction=(1.0, 0.0, 1.0)),
])
def test_block_forces_equal_generate_signal(spec):
    dt = 1e-3
    n = 2 * FORCE_BLOCK + 7
    for k0 in range(0, n, FORCE_BLOCK):
        k1 = min(k0 + FORCE_BLOCK, n)
        times = _stage_times(k0, k1, n, dt)
        want = []
        for k in range(k0, k1):
            tk = k * dt
            want += [tk] if k == n - 1 else [tk, tk + 0.5 * dt, tk + dt]
        assert times.tolist() == want
        block = _signal_forces(spec, times)
        for t, force in zip(want, block):
            assert np.array_equal(force, generate_signal(spec, t))
    if isinstance(spec, SpasmImpulse):
        # both sides of the pulse were sampled
        assert generate_signal(spec, spec.onset)[0] > 0.0
        assert generate_signal(spec, spec.onset - 0.5 * dt)[0] == 0.0


def test_deflection_limit_enforced_in_rollout():
    # 1.0 N*m*s on the default 0.6 rad mount swings the spoon to about
    # 2 rad in the first step after the contact
    p = free_params()
    sc = Scenario(duration=0.5, timestep=1e-3,
                  initial=JointState(q=(0.0, 0.7, -0.2)),
                  spoon_contact=SpoonContact(time=0.2, impulse_pitch=1.0))
    with pytest.raises(DeflectionExceededError, match=r"t = 0\.201000 s"):
        run_scenario(p, [], [], ComplianceSpec(), sc)
    # the same contact is within a wider validity bound
    wide = ComplianceSpec(deflection_limit=50.0)
    res = run_scenario(p, [], [], wide, sc)
    assert np.max(np.abs(res.deflection)) > 0.6


def test_deflection_limit_enforced_in_step_dynamics():
    # default build: a 5 rad pitch deflection stays near 5 rad for one
    # step, far past the 0.6 rad validity limit
    p = MechanismParams()
    state = JointState(q=(0.0, 0.7, -0.2))
    with pytest.raises(DeflectionExceededError, match=r"t = 0\.001000 s"):
        step_dynamics(p, [], [], ComplianceSpec(), state, None, 1e-3,
                      deflections=(5.0, 0.0, 0.0, 0.0))
    _, defl = step_dynamics(p, [], [], ComplianceSpec(), state, None, 1e-3,
                            deflections=(0.5, 0.0, 0.0, 0.0))
    assert 0.0 < defl[0] < 0.6


def test_rigid_step_keeps_deflections_and_rejects_nan():
    # a rigid mount has no deflection dynamics: the step hands the
    # deflections back unchanged, and a NaN one is still an error
    p = MechanismParams()
    state = JointState(q=(0.0, 0.7, -0.2))
    defl = (0.1, -0.2, 0.3, -0.4)
    assert step_dynamics(p, [], [], RIGID, state, None, 1e-3,
                         deflections=defl)[1] == defl
    with pytest.raises(DeflectionExceededError, match="nan"):
        step_dynamics(p, [], [], RIGID, state, None, 1e-3,
                      deflections=(math.nan, 0.0, 0.0, 0.0))


def test_applied_torque_is_jacobian_transpose_force():
    p = free_params()
    sig = SineTremor(amplitude=1.5, frequency=1.0, direction=(0.3, -0.2, 0.9))
    sc = Scenario(duration=0.5, timestep=1e-3,
                  initial=JointState(q=(0.1, 0.8, -0.1)), input=sig)
    res = run_scenario(p, [], [], RIGID, sc)
    k = 137
    state = res.state(k)
    expect = handle_jacobian(p, state).T @ generate_signal(sig, res.t[k])
    assert np.allclose(res.applied_torque[k], expect, atol=1e-12)


def test_result_grid_shape():
    p = free_params()
    sc = Scenario(duration=1.0, timestep=1e-3)
    res = run_scenario(p, [], [], RIGID, sc)
    assert len(res) == 1001
    assert res.t[0] == 0.0
    assert res.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert res.q.shape == (1001, 3)
    assert res.deflection.shape == (1001, 2)


# ---------------------------------------------------------------------------
# compliant mount


def test_contact_jump_and_decay():
    p = free_params()
    comp = ComplianceSpec()
    springs = synthesize_balancing(p, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    impulse = 0.01
    sc = Scenario(duration=2.0, timestep=1e-3,
                  initial=JointState(q=(0.0, 0.7, -0.2)),
                  spoon_contact=SpoonContact(time=0.5, impulse_pitch=impulse))
    res = run_scenario(p, springs, [], comp, sc)

    k = 500
    assert np.all(res.deflection[:k] == 0.0)
    assert np.all(res.deflection_rate[:k] == 0.0)
    assert res.deflection_rate[k, 0] == pytest.approx(
        impulse / comp.inertia, rel=1e-12)
    assert res.deflection_rate[k, 1] == 0.0
    # energy injected by the impulse then decays into e_diss
    total = res.total_energy + res.e_diss
    assert np.max(np.abs(total[k:] - total[k])) / abs(total[k]) < 1e-8
    assert res.e_diss[-1] > 0.0
    assert abs(res.deflection[-1, 0]) < comp.recenter_tolerance


def test_contact_ignored_by_rigid_mount():
    p = free_params()
    sc = Scenario(duration=0.2, timestep=1e-3,
                  initial=JointState(q=(0.0, 0.7, -0.2)),
                  spoon_contact=SpoonContact(time=0.1, impulse_pitch=0.05))
    res = run_scenario(p, [], [], RIGID, sc)
    assert np.all(res.deflection == 0.0)
    assert np.all(res.deflection_rate == 0.0)


@pytest.mark.parametrize("time", [10.0, -5.0, math.nan])
def test_contact_outside_scenario_rejected(time):
    with pytest.raises(ValueError):
        Scenario(duration=1.0,
                 spoon_contact=SpoonContact(time=time, impulse_pitch=0.01))


@pytest.mark.parametrize("impulses", [(math.nan, 0.0), (0.01, -math.inf)])
def test_contact_impulse_must_be_finite(impulses):
    with pytest.raises(ValueError):
        SpoonContact(0.5, *impulses)


@pytest.mark.parametrize("duration", [1.0, 1.0008])
def test_contact_at_duration_lands_on_last_row(duration):
    # 1.0008 s is not a whole number of 1 ms steps: the nearest row past
    # the grid's end would be row 1001, and the last row is 1000
    comp = ComplianceSpec()
    sc = Scenario(duration=duration, spoon_contact=SpoonContact(
        time=duration, impulse_pitch=0.01))
    res = run_scenario(free_params(), [], [], comp, sc)
    assert len(res) == 1001
    assert np.all(res.deflection_rate[:-1] == 0.0)
    assert res.deflection_rate[-1, 0] == 0.01 * (1.0 / comp.inertia)


def test_pitch_only_contact_leaves_yaw_at_rest(monkeypatch):
    # a zero yaw impulse is not stepped: its rows are +0.0 and e_diss is
    # the arm's plus the pitch axis's, as if the resting axis were stepped
    p, comp, k = free_params(), ComplianceSpec(), 300
    init = JointState(q=(0.0, 0.7, -0.2))
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4)]
    sc = Scenario(duration=1.0, initial=init,
                  input=SineTremor(amplitude=2.0, frequency=3.0),
                  spoon_contact=SpoonContact(time=0.3, impulse_pitch=0.01))
    stepped = []
    monkeypatch.setattr(dynamics, "_mount_rows",
                        lambda *args: stepped.append(args[2]) or
                        _mount_rows(*args))
    res = run_scenario(p, [], dampers, comp, sc)
    monkeypatch.undo()
    assert stepped == [0.01 * (1.0 / comp.inertia)]    # the pitch axis only
    yaw = np.column_stack([res.deflection[:, 1], res.deflection_rate[:, 1]])
    assert yaw.tobytes() == np.zeros_like(yaw).tobytes()

    arm = run_scenario(p, [], dampers, comp, Scenario(
        duration=1.0, initial=init, input=sc.input))
    n = len(res)
    pitch = _mount_rows(comp, 0.0, 0.01 * (1.0 / comp.inertia), n - k,
                        1e-3, k * 1e-3)
    at_rest = _mount_rows(comp, 0.0, 0.0, n - k, 1e-3, k * 1e-3)
    assert at_rest.tobytes() == np.zeros_like(at_rest).tobytes()
    e_diss = arm.e_diss.copy()
    e_diss[k:] += pitch[:, 2]
    e_diss[k:] += at_rest[:, 2]
    assert res.e_diss.tobytes() == e_diss.tobytes()
    assert np.array_equal(res.deflection[:, 0],
                          np.concatenate([np.zeros(k), pitch[:, 0]]))


def test_mount_is_decoupled_from_the_arm():
    # the same contact gives the same deflection rows on a sine-driven arm
    # and on a pinned one: the mount never reads the arm's state
    q0 = (0.0, 0.7, -0.2)
    contact = SpoonContact(time=0.3, impulse_pitch=0.01, impulse_yaw=-0.004)
    moving = run_scenario(free_params(), [], [], ComplianceSpec(), Scenario(
        duration=1.0, initial=JointState(q=q0), spoon_contact=contact,
        input=SineTremor(amplitude=2.0, frequency=3.0)))
    pinned = run_scenario(
        MechanismParams(joint_limits=tuple((q, q) for q in q0)), [], [],
        ComplianceSpec(),
        Scenario(duration=1.0, initial=JointState(q=q0),
                 spoon_contact=contact))
    assert np.ptp(moving.q[:, 1]) > 0.01
    assert np.all(pinned.q == q0)
    assert np.any(moving.deflection != 0.0)
    assert np.array_equal(moving.deflection, pinned.deflection)
    assert np.array_equal(moving.deflection_rate, pinned.deflection_rate)


@pytest.mark.parametrize("outside, settled", [
    ((False, False, False, False), 0.0),
    ((True, False, True, False), 0.75),
    ((False, False, False, True), math.inf),
])
def test_settling_time_rule(outside, settled):
    # shared by spoon_contact_response and stabilization_report
    assert settling_time(np.array(outside), np.arange(4) * 0.25) == settled


def test_contact_response_compliant_vs_rigid():
    comp = ComplianceSpec()
    soft = spoon_contact_response(comp, 0.02)
    hard = spoon_contact_response(RIGID, 0.02)
    assert isinstance(soft, ContactResponse)
    assert not soft.model_dependent
    assert hard.model_dependent
    assert hard.peak_torque == pytest.approx(0.02 / 1e-3, rel=1e-12)
    assert soft.peak_torque < hard.peak_torque
    assert soft.recentered
    assert 0.0 < soft.settling_time < 5.0


def test_contact_response_zero_impulse():
    res = spoon_contact_response(ComplianceSpec(), 0.0)
    assert res.peak_torque == 0.0
    assert res.settling_time == 0.0
    assert res.recentered


def test_contact_deflection_limit_enforced():
    with pytest.raises(DeflectionExceededError):
        spoon_contact_response(ComplianceSpec(), 1.0)


def test_contact_never_settling_reports_inf():
    # undamped-ish mount: damping so small the horizon ends mid-ring
    comp = ComplianceSpec(damping=1e-6, deflection_limit=50.0)
    res = spoon_contact_response(comp, 0.02, duration=1.0)
    assert not res.recentered
    assert math.isinf(res.settling_time)


@pytest.mark.parametrize("dt, duration", [
    (0.0, 5.0), (-1e-3, 5.0), (math.nan, 5.0), (1e-3, -1.0),
    (1e-3, 5e-4), (1e-3, math.nan), (1e-3, math.inf), (1e-3, 1e308),
])
@pytest.mark.parametrize("mount", [ComplianceSpec(), RIGID])
def test_contact_response_rejects_bad_grid(dt, duration, mount):
    with pytest.raises(ValueError):
        spoon_contact_response(mount, 0.02, dt=dt, duration=duration)
    # the same rule as a scenario's
    with pytest.raises(ValueError):
        Scenario(duration=duration, timestep=dt)


def test_contact_divergence_is_named():
    # omega_n*dt = 6.3 is above the mount's bound of pi (fewer than two
    # rows per undamped period), so the study refuses the grid and says so
    with pytest.raises(NonFiniteStateError, match="reduce the timestep"):
        spoon_contact_response(ComplianceSpec(deflection_limit=1e300),
                               0.001, dt=0.1, duration=100.0)


# ---------------------------------------------------------------------------
# prescribed playback


def test_prescribed_trajectory_tracks_waypoints():
    p = free_params()
    wps = ((0.0, 0.35, 0.0, 0.05), (1.0, 0.35, 0.0, 0.30))
    sc = Scenario(duration=1.0, timestep=1e-2, input=PrescribedTrajectory(wps))
    res = run_scenario(p, [], [], RIGID, sc)
    for k in (0, 50, 100):
        u = res.t[k] / 1.0
        z_want = 0.05 + u * 0.25
        assert res.spoon_pos[k, 0] == pytest.approx(0.35, abs=1e-9)
        assert res.spoon_pos[k, 1] == pytest.approx(0.0, abs=1e-9)
        assert res.spoon_pos[k, 2] == pytest.approx(z_want, abs=1e-9)
    assert np.all(res.applied_torque == 0.0)
    assert np.all(res.e_diss == 0.0)


def test_prescribed_trajectory_holds_endpoints():
    # rollout longer than the waypoint span: clamp to the last point
    p = free_params()
    wps = ((0.2, 0.35, 0.0, 0.05), (0.6, 0.35, 0.0, 0.30))
    sc = Scenario(duration=1.0, timestep=1e-2, input=PrescribedTrajectory(wps))
    res = run_scenario(p, [], [], RIGID, sc)
    assert res.spoon_pos[0, 2] == pytest.approx(0.05, abs=1e-9)
    assert res.spoon_pos[-1, 2] == pytest.approx(0.30, abs=1e-9)


PLAYBACK = PrescribedTrajectory(((0.0, 0.35, 0.0, 0.05),
                                 (1.0, 0.35, 0.0, 0.30)))


def contact_run(signal, contact, compliance, dt=1e-3):
    """A 1 s rollout of `signal` from rest at q = (0, 0.7, -0.2)."""
    return run_scenario(MechanismParams(), [], [], compliance,
                        Scenario(duration=1.0, timestep=dt,
                                 initial=JointState(q=(0.0, 0.7, -0.2)),
                                 input=signal, spoon_contact=contact))


@pytest.mark.parametrize("contact", [SpoonContact(0.5, 0.02),
                                     SpoonContact(0.2, -0.01, 0.015)])
def test_playback_applies_a_spoon_contact(contact):
    # the mount does not couple back into the arm, so a playback's mount
    # rows are those of any other rollout with the same contact
    mount = ComplianceSpec()
    play = contact_run(PLAYBACK, contact, mount)
    release = contact_run(FreeRelease(), contact, mount)
    assert np.abs(play.deflection).max() > 0.1
    assert np.array_equal(play.deflection, release.deflection)
    assert np.array_equal(play.deflection_rate, release.deflection_rate)
    # the arm dissipates nothing in playback: e_diss is the mount's alone
    n, dt = len(play), 1e-3
    k = round(contact.time / dt)
    e_diss = np.zeros(n)
    for impulse in (contact.impulse_pitch, contact.impulse_yaw):
        if impulse:
            e_diss[k:] += _mount_rows(mount, 0.0, impulse / mount.inertia,
                                      n - k, dt, k * dt)[:, 2]
    assert np.array_equal(play.e_diss, e_diss)


def test_playback_contact_moves_only_the_mount():
    contact = SpoonContact(0.5, 0.02)
    with_contact = contact_run(PLAYBACK, contact, ComplianceSpec())
    without = contact_run(PLAYBACK, None, ComplianceSpec())
    for name in ("t", "q", "qdot", "spoon_pos", "handle_pos",
                 "applied_torque"):
        assert np.array_equal(getattr(with_contact, name),
                              getattr(without, name))
    # a rigid mount has no deflection state: the contact changes nothing
    rigid = contact_run(PLAYBACK, contact, RIGID)
    assert not rigid.deflection.any() and not rigid.e_diss.any()


def test_playback_contact_follows_the_grid_rule():
    # omega_n*dt = 6.3 on the default mount: not below pi
    with pytest.raises(TimestepTooCoarseError, match="reduce the timestep"):
        contact_run(PLAYBACK, SpoonContact(0.5, 0.02), ComplianceSpec(),
                    dt=0.1)
    # without a contact the mount is never stepped, as in any rollout
    contact_run(PLAYBACK, None, ComplianceSpec(), dt=0.1)


def test_step_dynamics_rejects_a_playback():
    with pytest.raises(ValueError, match="run_scenario"):
        step_dynamics(MechanismParams(), [], [], RIGID,
                      JointState(q=(0.0, 0.7, -0.2)), PLAYBACK, 1e-3)
    # as a signal, a playback has no handle force
    assert np.array_equal(generate_signal(PLAYBACK, 0.3), np.zeros(3))


def test_playback_rejects_a_start_outside_the_joint_limits():
    # theta2 = -5 lies below -0.35: rejected as for any rollout, although
    # the played-back rows never read the initial state
    scenario = Scenario(duration=1.0, initial=JointState(q=(3.0, -5.0, 9.0)),
                        input=PLAYBACK)
    with pytest.raises(LimitViolationError, match="initial joint angles"):
        run_scenario(MechanismParams(), [], [], RIGID, scenario)
    # a start off the first waypoint is not an error
    assert len(contact_run(PLAYBACK, None, RIGID)) == 1001


@pytest.mark.parametrize("end, error", [
    ((0.9, 0.0, 0.05), UnreachableError),
    # the fold at planar distance 0 needs theta3 = pi, beyond its limit
    ((0.13, 0.0, 0.1), LimitViolationError),
])
def test_playback_ik_error_names_the_first_rejected_row(end, error):
    start = (0.35, 0.0, 0.05)
    playback = PrescribedTrajectory(((0.0, *start), (1.0, *end)))
    first = None
    for k in range(1001):
        u = k * 1e-3
        target = [a + u * (b - a) for a, b in zip(start, end)]
        try:
            inverse_kinematics(MechanismParams(), target)
        except error:
            first = k * 1e-3
            break
    assert 0.0 < first < 1.0
    with pytest.raises(error, match=f" at t = {first:.6f} s$"):
        contact_run(playback, None, RIGID)


# ---------------------------------------------------------------------------
# named errors for a diverging stage, an out-of-limits start and
# non-finite spec numbers


@pytest.mark.parametrize("coefficient", [30.0, 40.0])
def test_stiff_damper_divergence_is_named_even_inside_a_stage(coefficient):
    # dt*lambda is 3.57 and 4.76 at the start, so the stiff-damper guard
    # stops both runs at t = 0; without it, at c = 30 a stage angle
    # overflowed before the state did, and math.cos of it raised a bare
    # ValueError
    config, scenario = SHIPPED, EXAMPLE
    damper = DamperSpec(Joint.J3, DamperModel.VISCOUS, coefficient)
    with pytest.raises(NonFiniteStateError, match="reduce the timestep"):
        run_scenario(config.mechanism, config.springs, [damper],
                     config.compliance, scenario)


def stiffest_rate(params, dampers, state):
    """The largest eigenvalue of M^-1*C at `state`, from numpy: C is the
    diagonal of each joint's summed damper coefficients."""
    c = np.zeros(3)
    for spec in dampers:
        c[spec.joint] += spec.coefficient
    m = mass_matrix(params, state)
    return np.linalg.eigvals(np.linalg.solve(m, np.diag(c))).real.max()


def named_stable_dt(error):
    """The largest stable dt a stiff-damper error's message names."""
    return float(re.search(r"the largest stable dt is (\S+) s;",
                           str(error.value)).group(1))


@pytest.mark.parametrize("dampers, joints", [
    ((DamperSpec(Joint.J1, DamperModel.VISCOUS, 30.0),), "J1"),
    ((DamperSpec(Joint.J2, DamperModel.VISCOUS, 40.0),), "J2"),
    # a dead zone counts at its full coefficient
    ((DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 30.0, 0.05),),
     "J3"),
    ((DamperSpec(Joint.J3, DamperModel.VISCOUS, 10.0),
      DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 30.0, 0.05)), "J3"),
    # both planar joints damped: the trace test fails at 0.999 of the
    # bound, so the 2x2 root decides
    ((DamperSpec(Joint.J2, DamperModel.VISCOUS, 40.0),
      DamperSpec(Joint.J3, DamperModel.VISCOUS, 10.0)), "J2 and J3"),
], ids=["j1", "j2", "j3-dead-zone", "two-on-j3", "j2-and-j3"])
@pytest.mark.parametrize("margin", [0.999, 1.001])
def test_stiff_damper_guard_trips_where_dt_lambda_passes_the_bound(
        dampers, joints, margin):
    # dampers this stiff need a dt near 1e-3 s, so that, from rest, the
    # stage poses stay close to the state's
    params = free_params()
    state = JointState(q=STEP_STATE[:3])
    stable_dt = dynamics.STIFF_BOUND / stiffest_rate(params, dampers, state)
    step = _arm_stepper(params, ALL_SPRINGS, dampers, margin * stable_dt)
    y = state.q + state.qdot + (0.0,)
    if margin < 1.0:
        assert math.isfinite(step(y, 0.25, None, None, None)[0])
        return
    with pytest.raises(TimestepTooCoarseError,
                       match=rf"^{joints} damping dt\*lambda = 2\.6\d* "
                             r"exceeds 2\.6 at t = 0\.250000 s; the largest "
                             r"stable dt is \S+ s; reduce the timestep$"
                       ) as error:
        step(y, 0.25, None, None, None)
    assert named_stable_dt(error) == pytest.approx(stable_dt, rel=1e-5)


# least yaw inertia within the default joint limits: a J1 damper of c =
# 0.2 starts at dt*lambda = 2.78 there, and drifts 9.27e-3 J in 1 s
# without the guard
LEAST_YAW_INERTIA = JointState(q=(0.0, 1.91, -1.38), qdot=(0.5, 0.0, 0.0))


@pytest.mark.parametrize("coefficient, trips", [
    (0.1, False), (0.15, False), (0.2, True), (0.25, True), (0.4, True)])
def test_stiff_j1_damper_at_least_yaw_inertia_is_named(coefficient, trips):
    params = MechanismParams()
    springs = synthesize_balancing(
        params, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    dampers = (DamperSpec(Joint.J1, DamperModel.VISCOUS, coefficient),)
    scenario = Scenario(duration=1.0, initial=LEAST_YAW_INERTIA)
    if not trips:
        assert len(run_scenario(params, springs, dampers, RIGID,
                                scenario)) == 1001
        return
    with pytest.raises(TimestepTooCoarseError,
                       match=r"^J1 damping .* at t = 0\.000000 s; .*"
                             r"reduce the timestep$") as error:
        run_scenario(params, springs, dampers, RIGID, scenario)
    # just below the largest stable dt it names, to six digits, the run
    # returns: the start is its stiffest pose
    scenario = dataclasses.replace(scenario,
                                   timestep=0.99999 * named_stable_dt(error))
    assert len(run_scenario(params, springs, dampers, RIGID,
                            scenario)) == scenario.steps


@pytest.mark.parametrize("coefficient, trips", [
    (10.0, False), (15.0, False), (17.5, True), (20.0, True), (25.0, True),
    (30.0, True), (40.0, True)])
def test_stiff_j3_damper_on_the_example_is_named(coefficient, trips):
    # c = 15 peaks at dt*lambda = 2.511 and keeps its energy; c = 17.5 and
    # 20 start at 2.08 and 2.38 and, without the guard, gain energy once
    # they pass about 2.85
    config, scenario = SHIPPED, EXAMPLE
    damper = DamperSpec(Joint.J3, DamperModel.VISCOUS, coefficient)
    run = lambda: run_scenario(config.mechanism, config.springs, [damper],
                               config.compliance, scenario)
    if not trips:
        assert len(run()) == scenario.steps
        return
    with pytest.raises(TimestepTooCoarseError, match=r"^J3 damping "):
        run()


@pytest.mark.parametrize("band", [(2.0, 6.0), (6.0, 12.0)])
def test_damper_sweep_builds_stay_inside_the_guard(band):
    # the benchmark's stiffest damper build, c = 1.0 on J2 and J3, over
    # its twelve noise seeds: dt*lambda peaks at 0.133; a dead zone counts
    # at its full coefficient, so its builds have the same floors
    config, scenario = SHIPPED, EXAMPLE
    dampers = (DamperSpec(Joint.J2, DamperModel.VISCOUS, 1.0),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 1.0))
    for seed in range(12):
        tremor = NoiseTremor(rms=0.3, f_lo=band[0], f_hi=band[1], seed=seed)
        run = dataclasses.replace(scenario, duration=1.0, input=tremor)
        assert len(run_scenario(config.mechanism, config.springs, dampers,
                                RIGID, run)) == 1001


def test_stage_angle_overflow_is_named_by_the_step():
    # w^2 overflows in the first stage, so the third stage's angle is
    # infinite and its cosine is a math domain error
    step = _arm_stepper(MechanismParams(), [], [], 1e-3)
    y = (0.0, 0.5, 0.0, 0.0, 1e200, 1e200, 0.0)
    with pytest.raises(NonFiniteStateError,
                       match=r"t = 0\.251000 s; reduce the timestep"):
        step(y, 0.25, None, None, None)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", range(7))
def test_step_names_a_non_finite_entry_of_the_state(entry, bad):
    dampers = (DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, 0.3, 0.05))
    step = _arm_stepper(free_params(), ALL_SPRINGS, dampers, 1e-3)
    y = list(STEP_STATE)
    y[entry] = bad
    with pytest.raises(NonFiniteStateError,
                       match=r"^state diverged at t = 0\.251000 s; "
                             r"reduce the timestep$"):
        step(tuple(y), 0.25, *STAGE_FORCES)


def test_step_takes_a_finite_state_near_the_largest_float():
    # e = 1.7e308 is finite: the finiteness check must not overflow on it
    step = _arm_stepper(free_params(), ALL_SPRINGS, (), 1e-3)
    y = STEP_STATE[:6] + (1.7e308,)
    got = step(y, 0.25, *STAGE_FORCES)
    assert got[:6] == step(STEP_STATE, 0.25, *STAGE_FORCES)[:6]
    assert got[6] == 1.7e308


START_OUTSIDE = JointState(q=(0.0, 2.3, -1.0))    # theta2 above its 2.0 cap


def test_rollout_refuses_a_start_outside_the_joint_limits():
    sc = Scenario(duration=0.002, timestep=1e-3, initial=START_OUTSIDE)
    with pytest.raises(LimitViolationError, match="outside the joint limits"):
        run_scenario(MechanismParams(), [], [], RIGID, sc)
    with pytest.raises(LimitViolationError):
        step_dynamics(MechanismParams(), [], [], RIGID, START_OUTSIDE, None,
                      1e-3)


def test_start_on_a_joint_limit_is_accepted():
    on_limit = JointState(q=(math.pi, 2.0, -1.75))
    sc = Scenario(duration=0.002, timestep=1e-3, initial=on_limit)
    assert len(run_scenario(MechanismParams(), [], [], RIGID, sc)) == 3
    step_dynamics(MechanismParams(), [], [], RIGID, on_limit, None, 1e-3)


NON_FINITE_SPECS = [
    (DamperSpec, dict(joint=Joint.J2), "coefficient"),
    (lambda **kw: DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS, 0.4,
                             **kw), {}, "deadzone"),
    (SineTremor, dict(frequency=2.0), "amplitude"),
    (SineTremor, dict(amplitude=0.1), "frequency"),
    (NoiseTremor, dict(f_lo=1.0, f_hi=8.0, seed=1), "rms"),
    (NoiseTremor, dict(rms=0.1, f_hi=8.0, seed=1), "f_lo"),
    (NoiseTremor, dict(rms=0.1, f_lo=1.0, seed=1), "f_hi"),
    (ComplianceSpec, {}, "deflection_limit"),
    (ComplianceSpec, {}, "recenter_tolerance"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, "1", None,
                                 Decimal("0.4")])
@pytest.mark.parametrize("make, kw, field", NON_FINITE_SPECS,
                         ids=[field for *_, field in NON_FINITE_SPECS])
def test_specs_reject_non_finite_numbers(make, kw, field, bad):
    with pytest.raises(ValueError, match=field):
        make(**kw, **{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_signal_direction_and_waypoints_reject_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="direction"):
        SineTremor(0.1, 2.0, direction=(0.0, bad, 1.0))
    with pytest.raises(ValueError, match="waypoints"):
        PrescribedTrajectory(((0.0, 0.35, 0.0, 0.05),
                              (1.0, 0.35, bad, 0.30)))


def test_nan_tremor_is_a_spec_error_not_a_timestep_error():
    with pytest.raises(ValueError, match="amplitude"):
        SineTremor(math.nan, 2.0)


@pytest.mark.parametrize("bad", [-1, 3, 1.0, True, "j2", None])
def test_damper_spec_joint_must_name_a_joint(bad):
    with pytest.raises(ValueError, match="joint"):
        DamperSpec(bad, DamperModel.VISCOUS, 5.0)


def test_plain_int_damper_joint_acts_on_that_joint():
    # one 1 ms step: a damper given joint=2 slows theta3 as one given
    # Joint.J3 does
    state = JointState(q=(0.0, 0.7, -0.2), qdot=(1.0, 0.5, -0.5))

    def step(dampers):
        return step_dynamics(MechanismParams(), [], dampers, RIGID, state,
                             None, 1e-3)[0]

    free = step(())
    damped = [step((DamperSpec(j3, DamperModel.VISCOUS, 5.0),))
              for j3 in (Joint.J3, 2, np.int64(2))]
    assert damped[0] == damped[1] == damped[2]
    assert free.qdot[2] == pytest.approx(-0.530, abs=1e-3)
    assert damped[0].qdot[2] == pytest.approx(-0.287, abs=1e-3)
