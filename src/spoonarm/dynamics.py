"""Damped rigid-body dynamics of the arm plus the compliant utensil mount.

Model
-----
Generalized coordinates q = (phi1, theta2, theta3). The three lumped
masses sit at c1*L1 along link 1, c2*L2 along link 2, and at the outer
end of link 2 (payload: spoon plus mount); the parallelogram coupler bars
are folded into m1/m2 half-and-half, which preserves total mass and COM
while keeping a three-coordinate Lagrangian. Because theta2 and theta3
are absolute angles, the planar block of the mass matrix has constant
diagonal entries and a single cos(theta2 - theta3) coupling term; the yaw
entry is the instantaneous moment of inertia about the vertical axis.
Coriolis/centrifugal terms come from the Christoffel symbols of the
analytic M(q), which guarantees the skew-symmetry that makes the energy
bookkeeping testable.

The compliant mount is modeled as two independent torsional oscillators
(pitch and yaw deflection of the spoon relative to its carrier):
I_s * dd'' = -k_r * dd - c_r * dd'. Contact is an impulse: it arrives as
a velocity jump of Lambda / I_s. The oscillators do not couple back into
the arm (the payload mass already rides the arm; the deflection inertia
is small), which keeps the safety analysis clean.

Integration is classical fixed-step RK4 on the arm's state (q, q',
dissipated energy); joint limits clamp the position and zero the outgoing
velocity after each step. Everything is deterministic: identical inputs
(including noise seeds) give bit-identical results.

Each build gets one RK4 step function, made by _arm_stepper; rollouts and
single steps (step_dynamics) both step the arm with it. Building it
computes every per-build constant once: the mass coefficients, gravity,
the handle-torque geometry and each spring's and damper's law, bound by
statics.spring_laws and damper_law. The step then runs its four stages
on local floats. Each law keeps one body: _mass_terms and
kinematics.handle_torques take a per-build coefficient tuple and serve
the stepper's floats and the recording's arrays alike, and spring_torque
and damper_torque call the same bound laws. _equations wraps the same
stage evaluation as the derivative deriv(y, force) of the packed state.

The mount is linear and unforced after a contact, so _mount_rows steps
each axis with its exact propagator, and the arm's is the only integrator.
The grid must sample the mount's undamped period twice (omega_n*dt < pi).

A rollout keeps its step loop to integration alone. The handle force at
every RK4 stage time comes from one vectorised evaluation per block of
FORCE_BLOCK steps, and each signal law is written once, in that
evaluator. The loop stores the packed state of each row; after it, one
numpy pass computes the positions, applied torques and energies, each
spring's potential on its whole angle column at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (DeflectionExceededError, NonFiniteStateError,
                     TimestepTooCoarseError)
from .kinematics import (
    Joint,
    JointState,
    MechanismParams,
    handle_coefficients,
    handle_position,
    handle_torques,
    inverse_kinematics,
    spoon_position,
)
from .statics import (
    gravity_coefficients,
    gravity_potential,
    gravity_potential_at,
    spring_laws,
    spring_potential,
)

# Not called here any more, but kept as attributes of this module: callers
# such as perfbench/tracer.py reach these functions through it.
from .kinematics import handle_jacobian, handle_pose, spoon_pose  # noqa: F401
from .statics import spring_torque  # noqa: F401

DEFAULT_TIMESTEP = 1e-3
NOISE_COMPONENTS = 64
FORCE_BLOCK = 128           # steps whose stage forces are evaluated at once
GRID_REL_TOL = 1e-9         # duration/timestep this close to whole is whole


class DamperModel(Enum):
    NONE = "none"
    VISCOUS = "viscous"
    DEAD_ZONE_VISCOUS = "dead_zone_viscous"


@dataclass(frozen=True)
class DamperSpec:
    """One rotary damper on one joint.

    The dead-zone model produces no torque below the velocity threshold
    and a shifted viscous torque above it (continuous at the threshold),
    mimicking dampers that leave small movements completely undamped.
    """

    joint: Joint
    model: DamperModel = DamperModel.VISCOUS
    coefficient: float = 0.0     # N*m*s/rad
    deadzone: float = 0.0        # rad/s, dead-zone model only

    def __post_init__(self):
        if self.coefficient < 0.0:
            raise ValueError("damper coefficient must be >= 0")
        if self.deadzone < 0.0:
            raise ValueError("damper deadzone must be >= 0")
        # fields that the model cannot use must stay zero, so every spec
        # round-trips losslessly through the per-model config schema
        if self.model is not DamperModel.DEAD_ZONE_VISCOUS and self.deadzone:
            raise ValueError("deadzone applies to the dead-zone model only")
        if self.model is DamperModel.NONE and self.coefficient:
            raise ValueError("a disabled damper cannot carry a coefficient")


class ComplianceMode(Enum):
    RIGID = "rigid"
    COMPLIANT = "compliant"


@dataclass(frozen=True)
class ComplianceSpec:
    """Rubber-mounted utensil attachment, or a rigid one for comparison."""

    mode: ComplianceMode = ComplianceMode.COMPLIANT
    stiffness: float = 2.0          # N*m/rad per axis
    damping: float = 0.012          # N*m*s/rad per axis
    deflection_limit: float = 0.6   # rad, model validity bound
    recenter_tolerance: float = 0.01  # rad
    inertia: float = 5e-4           # kg*m^2, spoon about the mount

    def __post_init__(self):
        if not self.deflection_limit > 0.0:
            raise ValueError("deflection_limit must be > 0")
        if not self.recenter_tolerance > 0.0:
            raise ValueError("recenter_tolerance must be > 0")
        if self.mode is ComplianceMode.COMPLIANT and not all(
                0.0 < v < math.inf
                for v in (self.stiffness, self.damping, self.inertia)):
            raise ValueError("compliant mode needs finite stiffness, "
                             "damping, inertia > 0")

    @property
    def damping_ratio(self) -> float:
        if self.mode is ComplianceMode.RIGID:
            return math.inf
        return self.damping / (2.0 * math.sqrt(self.stiffness * self.inertia))


def _unit(direction):
    d = tuple(float(v) for v in direction)
    if len(d) != 3:
        raise ValueError("direction needs three components")
    n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    if not n > 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) < 1e-12:
        # already unit; dividing again would wobble the last bit and
        # break exact save/load round trips
        return d
    return (d[0] / n, d[1] / n, d[2] / n)


@dataclass(frozen=True)
class FreeRelease:
    """No handle input; the arm moves under its own forces."""


@dataclass(frozen=True)
class SineTremor:
    """Single-tone handle force A*sin(2*pi*f*t) along a fixed direction."""

    amplitude: float            # N
    frequency: float            # Hz
    direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.amplitude < 0.0 or not self.frequency > 0.0:
            raise ValueError("need amplitude >= 0 and frequency > 0")
        object.__setattr__(self, "direction", _unit(self.direction))


@dataclass(frozen=True)
class NoiseTremor:
    """Band-limited pseudo-random handle force.

    Sum of 64 equal-amplitude sinusoids at uniformly spaced frequencies in
    [f_lo, f_hi] with seeded uniform phases, scaled so the long-run RMS of
    the force magnitude equals `rms`. Deterministic in (seed, t).
    """

    rms: float                  # N
    f_lo: float                 # Hz
    f_hi: float                 # Hz
    seed: int
    direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.rms < 0.0:
            raise ValueError("rms must be >= 0")
        if not 0.0 < self.f_lo < self.f_hi:
            raise ValueError("need 0 < f_lo < f_hi")
        object.__setattr__(self, "direction", _unit(self.direction))


@dataclass(frozen=True)
class SpasmImpulse:
    """Rectangular force pulse: `force` N on [onset, onset + duration]."""

    force: float
    duration: float
    onset: float = 0.0
    direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.force, self.duration,
                                       self.onset))):
            raise ValueError("spasm force, duration and onset must be finite")
        if self.onset < 0.0:
            raise ValueError("onset must be >= 0")
        if self.duration < 0.0:
            raise ValueError("duration must be >= 0")
        object.__setattr__(self, "direction", _unit(self.direction))


@dataclass(frozen=True)
class PrescribedTrajectory:
    """Kinematic playback: the utensil tip tracks (t, x, y, z) waypoints.

    The user is position-controlling the handle here, so the rollout is
    kinematic (IK per step with linear interpolation between waypoints)
    rather than force-driven.
    """

    waypoints: tuple    # ((t, x, y, z), ...)

    def __post_init__(self):
        wps = tuple(tuple(float(v) for v in wp) for wp in self.waypoints)
        if len(wps) < 2 or any(len(wp) != 4 for wp in wps):
            raise ValueError("need at least two (t, x, y, z) waypoints")
        times = [wp[0] for wp in wps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        object.__setattr__(self, "waypoints", wps)


@dataclass(frozen=True)
class SpoonContact:
    """Impulse torque (N*m*s) delivered to the compliant axes at `time`."""

    time: float
    impulse_pitch: float
    impulse_yaw: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.time, self.impulse_pitch,
                                       self.impulse_yaw))):
            raise ValueError("contact time and impulses must be finite")


@dataclass(frozen=True)
class Scenario:
    duration: float
    timestep: float = DEFAULT_TIMESTEP
    initial: JointState = JointState()
    input: object = field(default_factory=FreeRelease)
    spoon_contact: SpoonContact | None = None

    def __post_init__(self):
        _grid_steps(self.duration, self.timestep)    # checks the grid
        contact = self.spoon_contact
        if contact is not None and not 0.0 <= contact.time <= self.duration:
            raise ValueError("spoon_contact time must lie in [0, duration]")

    @property
    def steps(self) -> int:
        return _grid_steps(self.duration, self.timestep)


def _grid_steps(duration: float, dt: float) -> int:
    """Rows of a uniform grid from 0 to `duration` inclusive.

    The grid needs dt > 0, duration >= dt and a finite ratio
    duration/dt; otherwise this raises ValueError. A ratio within
    GRID_REL_TOL of a whole number counts as whole, so decimal pairs such
    as 0.7 s / 0.1 s (6.999999999999999 in floats) keep their last row.
    """
    if not dt > 0.0:
        raise ValueError("timestep must be > 0")
    ratio = duration / dt
    if not (dt <= duration and ratio < math.inf):
        raise ValueError("duration must be >= timestep, with a finite "
                         "number of steps")
    whole = round(ratio)
    if abs(ratio - whole) <= GRID_REL_TOL * ratio:
        return whole + 1
    return math.floor(ratio) + 1


@dataclass(eq=False)
class SimResult:
    """Uniform-grid rollout record; one array row per step."""

    t: np.ndarray                # (n,)
    q: np.ndarray                # (n, 3)
    qdot: np.ndarray             # (n, 3)
    spoon_pos: np.ndarray        # (n, 3)
    handle_pos: np.ndarray       # (n, 3)
    deflection: np.ndarray       # (n, 2) pitch, yaw
    deflection_rate: np.ndarray  # (n, 2)
    applied_torque: np.ndarray   # (n, 3) handle input mapped to joints
    e_kin: np.ndarray            # (n,)
    e_pot: np.ndarray            # (n,)
    e_diss: np.ndarray           # (n,)

    def __len__(self):
        return len(self.t)

    def state(self, i: int) -> JointState:
        return JointState(q=tuple(self.q[i]), qdot=tuple(self.qdot[i]))

    @property
    def total_energy(self) -> np.ndarray:
        """Mechanical (kinetic + potential) energy per step."""
        return self.e_kin + self.e_pot


@dataclass(frozen=True)
class ContactResponse:
    """Summary of spoon_contact_response.

    `model_dependent` marks the rigid comparison value, which is an
    impulse divided by one timestep rather than a physical force level.
    """

    peak_torque: float
    settling_time: float
    recentered: bool
    model_dependent: bool = False


# ---------------------------------------------------------------------------
# mass matrix and friends


def _mass_constants(params: MechanismParams):
    """(M22, M33, coefficients): the constant entries M22 and M33 of M(q),
    and the per-build coefficient tuple _mass_terms takes."""
    L1, L2 = params.link1_length, params.link2_length
    m1, m2, mp = params.mass_link1, params.mass_link2, params.mass_payload
    c1, c2 = params.com_fraction1, params.com_fraction2
    m22 = (m1 * c1 * c1 + m2 + mp) * L1 * L1
    m33 = (m2 * c2 * c2 + mp) * L2 * L2
    return m22, m33, (params.base_offset, L1, L2, m1, m2, mp, c1 * L1,
                      c2 * L2, m1 * c1, m2 * c2, -2.0 * L1, -2.0 * L2,
                      L1 * L2 * (m2 * c2 + mp))


def _mass_terms(coefficients, c2t, s2t, c3t, s3t):
    """Angle-dependent mass-matrix entries and their angle partials.

    Takes the coefficients from _mass_constants and the cosines and sines
    of theta2 and theta3, as floats or numpy arrays. Returns (M11, M23,
    D2, D3, Bs) with D2 = dM11/dtheta2, D3 = dM11/dtheta3, and, for the
    coupling amplitude B of M23 = B*cos(theta2 - theta3),
    Bs = B*sin(theta2 - theta3) = -dM23/dtheta2.
    """
    a1, L1, L2, m1, m2, mp, c1L1, c2L2, m1c1, m2c2, n2L1, n2L2, b = \
        coefficients
    inner = a1 + L1 * c2t
    r1 = a1 + c1L1 * c2t
    r2 = inner + c2L2 * c3t
    r3 = inner + L2 * c3t

    m11 = m1 * r1 * r1 + m2 * r2 * r2 + mp * r3 * r3
    cos_d = c2t * c3t + s2t * s3t     # cos(th2 - th3)
    sin_d = s2t * c3t - c2t * s3t
    d2 = n2L1 * s2t * (m1c1 * r1 + m2 * r2 + mp * r3)
    d3 = n2L2 * s3t * (m2c2 * r2 + mp * r3)
    return m11, b * cos_d, d2, d3, b * sin_d


def _kinetic(m11, m22, m23, m33, w1, w2, w3):
    """qdot^T M qdot / 2 from the mass-matrix entries; floats or arrays."""
    return 0.5 * (m11 * w1 * w1 + m22 * w2 * w2 + m33 * w3 * w3) + m23 * w2 * w3


def _state_mass(params: MechanismParams, state: JointState):
    """(M11, M22, M23, M33, D2, D3, Bs) at one joint state."""
    m22, m33, coefficients = _mass_constants(params)
    _, th2, th3 = state.q
    m11, m23, d2, d3, bs = _mass_terms(coefficients, math.cos(th2),
                                       math.sin(th2), math.cos(th3),
                                       math.sin(th3))
    return m11, m22, m23, m33, d2, d3, bs


def mass_matrix(params: MechanismParams, state: JointState) -> np.ndarray:
    """Symmetric 3x3 generalized mass matrix M(q)."""
    m11, m22, m23, m33, *_ = _state_mass(params, state)
    return np.array([
        [m11, 0.0, 0.0],
        [0.0, m22, m23],
        [0.0, m23, m33],
    ])


def coriolis_matrix(params: MechanismParams, state: JointState) -> np.ndarray:
    """Christoffel-form C(q, qdot); M' - 2C is skew-symmetric."""
    *_, d2, d3, bs = _state_mass(params, state)
    w1, w2, w3 = state.qdot
    return np.array([
        [0.5 * (d2 * w2 + d3 * w3), 0.5 * d2 * w1, 0.5 * d3 * w1],
        [-0.5 * d2 * w1, 0.0, bs * w3],
        [-0.5 * d3 * w1, -bs * w2, 0.0],
    ])


def kinetic_energy(params: MechanismParams, state: JointState) -> float:
    m11, m22, m23, m33, *_ = _state_mass(params, state)
    return _kinetic(m11, m22, m23, m33, *state.qdot)


def potential_energy(params: MechanismParams, springs,
                     state: JointState) -> float:
    """Gravitational plus spring elastic energy."""
    v = gravity_potential(params, state)
    for spec in springs:
        v += spring_potential(spec, state.q[spec.joint])
    return v


# ---------------------------------------------------------------------------
# dampers and input signals


def damper_law(spec: DamperSpec):
    """The torque law torque(omega) of one damper at joint rate omega,
    its constants bound."""
    if spec.model is DamperModel.NONE:
        return lambda omega: 0.0
    neg_c = -spec.coefficient
    if spec.model is DamperModel.VISCOUS:
        return lambda omega: neg_c * omega
    deadzone, copysign = spec.deadzone, math.copysign

    def dead_zone_viscous(omega):
        if abs(omega) <= deadzone:
            return 0.0
        return neg_c * (omega - copysign(deadzone, omega))
    return dead_zone_viscous


def damper_torque(spec: DamperSpec, omega: float) -> float:
    """Torque the damper exerts at joint rate omega."""
    return damper_law(spec)(omega)


@lru_cache(maxsize=64)
def _noise_table(rms: float, f_lo: float, f_hi: float, seed: int):
    freqs = np.linspace(f_lo, f_hi, NOISE_COMPONENTS)
    phases = np.random.default_rng(seed).uniform(
        0.0, 2.0 * math.pi, NOISE_COMPONENTS)
    amplitude = rms * math.sqrt(2.0 / NOISE_COMPONENTS)
    return 2.0 * math.pi * freqs, phases, amplitude


def _signal_forces(spec, t) -> np.ndarray:
    """Handle force of a signal spec at time t, a float or a 1-D array of
    times; the result has shape (3,) or (len(t), 3)."""
    if isinstance(spec, SineTremor):
        mag = spec.amplitude * np.sin(2.0 * math.pi * spec.frequency * t)
    elif isinstance(spec, NoiseTremor):
        omega, phases, amplitude = _noise_table(
            spec.rms, spec.f_lo, spec.f_hi, spec.seed)
        mag = amplitude * np.sin(np.multiply.outer(t, omega)
                                 + phases).sum(axis=-1)
    elif isinstance(spec, SpasmImpulse):
        inside = (spec.onset <= t) & (t <= spec.onset + spec.duration)
        mag = np.where(inside, spec.force, 0.0)
    else:
        raise TypeError(f"unknown input signal {type(spec).__name__}")
    return np.multiply.outer(mag, spec.direction)


def generate_signal(spec, t: float) -> np.ndarray:
    """Handle force vector of an input signal at time t."""
    if isinstance(spec, FreeRelease) or isinstance(spec, PrescribedTrajectory):
        return np.zeros(3)
    return _signal_forces(spec, float(t))


def _force_source(inputs):
    """Normalize the `inputs` argument to None or a function mapping a 1-D
    array of times to the (len(times), 3) array of handle forces."""
    if inputs is None or isinstance(inputs, (FreeRelease, PrescribedTrajectory)):
        return None
    if isinstance(inputs, (SineTremor, NoiseTremor, SpasmImpulse)):
        return lambda times: _signal_forces(inputs, times)
    if callable(inputs):
        def called(times):
            forces = np.array([tuple(inputs(t)) for t in times.tolist()],
                              dtype=float)
            if forces.shape != (len(times), 3):
                raise ValueError("input force needs three components")
            return forces
        return called
    const = tuple(float(v) for v in inputs)
    if len(const) != 3:
        raise ValueError("constant input force needs three components")
    return lambda times: np.tile(const, (len(times), 1))


def _stage_times(k0: int, k1: int, n: int, dt: float) -> np.ndarray:
    """RK4 stage times t_k, t_k + dt/2, t_k + dt of rows k0..k1-1, row by
    row, built with the same float operations as the step loop. The last
    row of an n-row run is not integrated and needs only t_k."""
    tk = np.arange(k0, k1) * dt
    times = np.stack([tk, tk + 0.5 * dt, tk + dt], axis=1).ravel()
    return times[:-2] if k1 == n else times


# ---------------------------------------------------------------------------
# equations of motion


def _arm_law(params: MechanismParams, springs, dampers):
    """accel(phi1, th2, th3, w1, w2, w3, force) of one build: the joint
    accelerations and the dissipated power (acc1, acc2, acc3, power) at
    one state under the handle force (fx, fy, fz), or None for no input.

    Every term that does not depend on the state is computed here, once
    per build: the mass and handle coefficients, gravity, and each
    spring's and each acting damper's law, bound per joint.
    """
    m22, m33, mass = _mass_constants(params)
    m22_m33 = m22 * m33
    a2, a3 = gravity_coefficients(params)
    neg_g = -params.gravity
    handle = handle_coefficients(params)
    # the torque laws of the springs and of the dampers that act, per
    # joint, in the order given
    spring_torques, damper_torques = ([], [], []), ([], [], [])
    for spec in springs:
        spring_torques[spec.joint].append(spring_laws(spec)[0])
    for spec in dampers:
        if spec.model is not DamperModel.NONE and spec.coefficient > 0.0:
            damper_torques[spec.joint].append(damper_law(spec))
    _, springs2, springs3 = map(tuple, spring_torques)
    dampers1, dampers2, dampers3 = map(tuple, damper_torques)
    cos, sin = math.cos, math.sin
    tiny = 1e-18

    def accel(phi1, th2, th3, w1, w2, w3, force):
        c2t, s2t, c3t, s3t = cos(th2), sin(th2), cos(th3), sin(th3)
        m11, m23, d2, d3, bs = _mass_terms(mass, c2t, s2t, c3t, s3t)

        tau2 = neg_g * c2t * a2
        tau3 = neg_g * c3t * a3
        for torque in springs2:
            tau2 += torque(th2, c2t, s2t)
        for torque in springs3:
            tau3 += torque(th3, c3t, s3t)

        # damper torques summed per joint, their power in joint order
        power = tau1 = damp2 = damp3 = 0.0
        for torque in dampers1:
            td = torque(w1)
            tau1 += td
            power -= td * w1
        for torque in dampers2:
            td = torque(w2)
            damp2 += td
            power -= td * w2
        for torque in dampers3:
            td = torque(w3)
            damp3 += td
            power -= td * w3
        tau2 += damp2
        tau3 += damp3

        if force is not None:
            h1, h2, h3 = handle_torques(handle, cos(phi1), sin(phi1),
                                        c2t, s2t, c3t, s3t, *force)
            tau1 += h1
            tau2 += h2
            tau3 += h3

        # subtract C(q, qdot) * qdot
        rhs1 = tau1 - w1 * (d2 * w2 + d3 * w3)
        rhs2 = tau2 - (-0.5 * d2 * w1 * w1 + bs * w3 * w3)
        rhs3 = tau3 - (-0.5 * d3 * w1 * w1 - bs * w2 * w2)

        # block solve; joints with no inertia (massless limit) hold their
        # rate, and a singular planar block degrades to independent
        # per-joint solves
        acc1 = rhs1 / m11 if m11 > tiny else 0.0
        det = m22_m33 - m23 * m23
        if det > tiny:
            acc2 = (rhs2 * m33 - rhs3 * m23) / det
            acc3 = (rhs3 * m22 - rhs2 * m23) / det
        else:
            acc2 = rhs2 / m22 if m22 > tiny else 0.0
            acc3 = rhs3 / m33 if m33 > tiny else 0.0
        return acc1, acc2, acc3, power

    return accel


def _equations(params: MechanismParams, springs, dampers):
    """The time derivative deriv(y, force) of one build's packed arm state

    y = (phi1, th2, th3, w1, w2, w3, e_diss)

    under the handle force (fx, fy, fz), or None for no input.
    """
    accel = _arm_law(params, springs, dampers)

    def deriv(y, force):
        phi1, th2, th3, w1, w2, w3, _ = y
        return (w1, w2, w3, *accel(phi1, th2, th3, w1, w2, w3, force))

    return deriv


def _arm_stepper(params: MechanismParams, springs, dampers, dt: float):
    """The RK4 step of dt of one build's arm: step(y, t, f0, f_half, f1)
    takes the packed state y of _equations at time t as a 7-tuple, with
    the handle force at t, t + dt/2 and t + dt, and returns the next one.

    The joint limits clamp the position and zero the outgoing velocity;
    a state that is not finite raises NonFiniteStateError.
    """
    accel = _arm_law(params, springs, dampers)
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = params.joint_limits
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite

    def step(y, t, f0, f_half, f1):
        q1, q2, q3, w1, w2, w3, e = y
        # stage k_i = (rates u_i, accelerations a_i, power p_i)
        a1, a2, a3, p1 = accel(q1, q2, q3, w1, w2, w3, f0)
        u1, u2, u3 = w1 + half * a1, w2 + half * a2, w3 + half * a3
        b1, b2, b3, p2 = accel(q1 + half * w1, q2 + half * w2,
                               q3 + half * w3, u1, u2, u3, f_half)
        v1, v2, v3 = w1 + half * b1, w2 + half * b2, w3 + half * b3
        c1, c2, c3, p3 = accel(q1 + half * u1, q2 + half * u2,
                               q3 + half * u3, v1, v2, v3, f_half)
        x1, x2, x3 = w1 + dt * c1, w2 + dt * c2, w3 + dt * c3
        d1, d2, d3, p4 = accel(q1 + dt * v1, q2 + dt * v2, q3 + dt * v3,
                               x1, x2, x3, f1)
        q1 += sixth * (w1 + 2.0 * u1 + 2.0 * v1 + x1)
        q2 += sixth * (w2 + 2.0 * u2 + 2.0 * v2 + x2)
        q3 += sixth * (w3 + 2.0 * u3 + 2.0 * v3 + x3)
        w1 += sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        w2 += sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        w3 += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        e += sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)

        # joint-limit clamp with zeroing of the outgoing velocity
        if q1 < lo1:
            q1, w1 = lo1, max(w1, 0.0)
        elif q1 > hi1:
            q1, w1 = hi1, min(w1, 0.0)
        if q2 < lo2:
            q2, w2 = lo2, max(w2, 0.0)
        elif q2 > hi2:
            q2, w2 = hi2, min(w2, 0.0)
        if q3 < lo3:
            q3, w3 = lo3, max(w3, 0.0)
        elif q3 > hi3:
            q3, w3 = hi3, min(w3, 0.0)

        y = (q1, q2, q3, w1, w2, w3, e)
        if not all(map(isfinite, y)):
            raise NonFiniteStateError(
                f"state diverged at t = {t + dt:.6f} s; reduce the timestep")
        return y

    return step


def _mount_rows(compliance: ComplianceSpec, d: float, v: float, n: int,
                dt: float, t0: float = 0.0) -> np.ndarray:
    """n rows of (deflection, rate, dissipated energy) of one axis of the
    compliant mount, from deflection d and rate v at time t0, dt apart:
    each is the last times exp(A*dt), A = [[0, 1], [-k/I, -c/I]], and its
    energy k*d^2/2 + I*d'^2/2 less the first row's is the dissipation."""
    k_r, c_r, inertia = (compliance.stiffness, compliance.damping,
                         compliance.inertia)
    wn_dt = dt * math.sqrt(k_r / inertia)
    if not wn_dt < math.pi:
        raise TimestepTooCoarseError(
            f"mount omega_n*dt = {wn_dt:.4g} is not below pi; the largest "
            f"allowed dt is {dt * math.pi / wn_dt:.6g} s; reduce the timestep")
    # exp(A*dt) = ch + sh*(A*dt - s) with ch = e^s*cosh r, sh = e^s*sinh(r)/r,
    # s = trace(A*dt)/2, r^2 = s^2 - det(A*dt); exponents combined, no overflow
    s = -0.5 * c_r * dt / inertia
    if -s < wn_dt:
        w = math.sqrt((wn_dt + s) * (wn_dt - s))
        ch, sh = math.exp(s) * math.cos(w), math.exp(s) * math.sin(w) / w
    elif -s > wn_dt:
        r = math.sqrt(-s - wn_dt) * math.sqrt(wn_dt - s)
        slow = math.exp(wn_dt * wn_dt / (s - r))    # e^(s + r)
        ch = 0.5 * (slow + math.exp(s - r))
        sh = -0.5 * slow * math.expm1(-2.0 * r) / r
    else:
        ch = sh = math.exp(s)
    p11, p12 = ch - s * sh, dt * sh
    p21, p22 = -k_r * dt / inertia * sh, ch + s * sh

    rows = [(d, v)]
    for _ in range(n - 1):
        d, v = p11 * d + p12 * v, p21 * d + p22 * v
        rows.append((d, v))
    d, v = np.array(rows).T
    energy = 0.5 * k_r * d * d + 0.5 * inertia * v * v
    rows = np.column_stack([d, v, energy[0] - energy])
    bad = np.flatnonzero(~np.isfinite(rows[:, 2]))    # d, v or energy
    if bad.size:
        raise NonFiniteStateError(
            f"mount state is not finite at t = {t0 + bad[0] * dt:.6f} s")
    return rows


def step_dynamics(params: MechanismParams, springs, dampers,
                  compliance: ComplianceSpec, state: JointState, inputs,
                  dt: float, t: float = 0.0,
                  deflections=(0.0, 0.0, 0.0, 0.0)):
    """One RK4 step; returns (next JointState, next deflections).

    `inputs` is a handle force: None / FreeRelease, a constant (fx, fy, fz),
    one of the signal specs, or a callable t -> force evaluated at the RK4
    stage times. `deflections` packs (delta_p, delta_y, rate_p, rate_y) of
    the compliant mount; a rigid one returns them unchanged. Raises
    DeflectionExceededError when they lie beyond its validity limit, and
    TimestepTooCoarseError when a compliant mount has omega_n*dt >= pi.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    source = _force_source(inputs)
    stage_forces = (None, None, None)
    if source is not None:
        stage_forces = source(np.array([t, t + 0.5 * dt, t + dt])).tolist()
    step = _arm_stepper(params, springs, dampers, dt)
    y = step(state.q + state.qdot + (0.0,), t, *stage_forces)
    dp, dy, vp, vy = (float(v) for v in deflections)
    if compliance.mode is ComplianceMode.COMPLIANT:
        dp, vp, _ = _mount_rows(compliance, dp, vp, 2, dt, t)[1].tolist()
        dy, vy, _ = _mount_rows(compliance, dy, vy, 2, dt, t)[1].tolist()
    _check_deflection(compliance, [t + dt], np.array([[dp, dy]]))
    return JointState(q=y[:3], qdot=y[3:6]), (dp, dy, vp, vy)


def _check_deflection(compliance: ComplianceSpec, t, deflections):
    """Raise DeflectionExceededError, naming the time, at the first row of
    the (n, 2) pitch and yaw `deflections` at times `t` that lies beyond
    the mount's validity limit, or is not a number."""
    peak = np.abs(deflections).max(axis=1)
    breach = np.flatnonzero(~(peak <= compliance.deflection_limit))
    if breach.size:
        k = breach[0]
        raise DeflectionExceededError(
            f"mount deflection {peak[k]:.4f} rad exceeds the "
            f"{compliance.deflection_limit:.4f} rad validity limit "
            f"at t = {t[k]:.6f} s")


def settling_time(outside: np.ndarray, t: np.ndarray) -> float:
    """Settling time of a series at times `t` whose rows `outside` its band
    are True: the time of the first row after the last one outside; 0.0
    if no row is outside, inf if the last row still is."""
    rows = np.flatnonzero(outside)
    if rows.size == 0:
        return 0.0
    if rows[-1] == len(t) - 1:
        return math.inf
    return float(t[rows[-1] + 1])


def run_scenario(params: MechanismParams, springs, dampers,
                 compliance: ComplianceSpec, scenario: Scenario) -> SimResult:
    """Deterministic fixed-step rollout of one scenario.

    A spoon contact lands on the nearest step boundary as a velocity jump
    of the compliant mount; the recorded row at that step is post-impulse.
    With a rigid mount there is no deflection state, so the contact event
    has no effect here (use spoon_contact_response for the rigid-side
    comparison numbers). A PrescribedTrajectory input switches to
    kinematic playback: joints follow IK of the interpolated waypoints and
    no forces are integrated.

    Raises DeflectionExceededError, naming the time of the first breach,
    when the mount deflects beyond its validity limit.
    """
    if isinstance(scenario.input, PrescribedTrajectory):
        return _run_prescribed(params, springs, scenario)

    n = scenario.steps
    dt = scenario.timestep
    step = _arm_stepper(params, springs, dampers, dt)
    source = _force_source(scenario.input)

    states = np.empty((n, 7))
    # handle force at each row's own time, for the applied torque
    row_forces = None if source is None else np.empty((n, 3))
    y = scenario.initial.q + scenario.initial.qdot + (0.0,)
    for k0 in range(0, n, FORCE_BLOCK):
        k1 = min(k0 + FORCE_BLOCK, n)
        # three stage forces per row
        if source is None:
            forces = [None] * (3 * (k1 - k0))
        else:
            block = source(_stage_times(k0, k1, n, dt))
            row_forces[k0:k1] = block[::3]
            forces = block.tolist()
        for k in range(k0, k1):
            states[k] = y
            if k < n - 1:
                i = 3 * (k - k0)
                y = step(y, k * dt, forces[i], forces[i + 1], forces[i + 2])

    t = np.arange(n) * dt
    mount = np.zeros((n, 4))    # pitch, yaw deflection; pitch, yaw rate
    contact = scenario.spoon_contact
    compliant = compliance.mode is ComplianceMode.COMPLIANT
    if contact is not None and compliant:
        k = min(round(contact.time / dt), n - 1)    # the nearest row
        inv_i = 1.0 / compliance.inertia
        impulses = (contact.impulse_pitch, contact.impulse_yaw)
        for axis, impulse in enumerate(impulses):
            if impulse == 0.0:
                continue    # an axis at rest stays at rest: rows of +0.0
            rows = _mount_rows(compliance, 0.0, impulse * inv_i, n - k, dt,
                               k * dt)
            mount[k:, axis::2] = rows[:, :2]
            states[k:, 6] += rows[:, 2]
        _check_deflection(compliance, t, mount[:, :2])
    return _record(params, springs, compliance if compliant else None, t,
                   states, mount, row_forces)


def _record(params: MechanismParams, springs, compliance, t: np.ndarray,
            states: np.ndarray, mount: np.ndarray, row_forces) -> SimResult:
    """SimResult of a run from its packed arm states and the (n, 4)
    deflections and rates of its `mount`, one row per step.

    One numpy pass computes the positions, the applied torque of
    `row_forces` (the handle force at each row's time, or None) and the
    energies, including the mount's when `compliance` is not None.
    """
    phi1, th2, th3, w1, w2, w3 = states[:, :6].T
    trig = (np.cos(phi1), np.sin(phi1), np.cos(th2), np.sin(th2),
            np.cos(th3), np.sin(th3))
    _, _, c2t, s2t, c3t, s3t = trig
    spoon = np.column_stack(spoon_position(params, *trig))
    handle = np.column_stack(handle_position(params, *trig))
    if row_forces is None:
        applied = np.zeros((len(t), 3))
    else:
        applied = np.column_stack(handle_torques(handle_coefficients(params),
                                                 *trig, *row_forces.T))

    m22, m33, mass = _mass_constants(params)
    m11, m23, *_ = _mass_terms(mass, c2t, s2t, c3t, s3t)
    e_kin = _kinetic(m11, m22, m23, m33, w1, w2, w3)
    e_pot = gravity_potential_at(params, s2t, s3t)
    for spec in springs:
        _, potential = spring_laws(spec)
        angle, sine = (th2, s2t) if spec.joint == Joint.J2 else (th3, s3t)
        e_pot += potential(angle, sine, np.sqrt, np.maximum)
    if compliance is not None:
        dp, dy, vp, vy = mount.T
        e_pot += 0.5 * compliance.stiffness * (dp ** 2 + dy ** 2)
        e_kin += 0.5 * compliance.inertia * (vp ** 2 + vy ** 2)
    return SimResult(t, states[:, 0:3], states[:, 3:6], spoon, handle,
                     mount[:, 0:2], mount[:, 2:4], applied, e_kin, e_pot,
                     states[:, 6])


def _run_prescribed(params: MechanismParams, springs,
                    scenario: Scenario) -> SimResult:
    """Kinematic playback of a prescribed utensil trajectory."""
    wps = np.array(scenario.input.waypoints)
    n = scenario.steps
    dt = scenario.timestep

    t = np.arange(n) * dt
    # np.interp holds the end waypoints outside their time span
    path = np.column_stack([np.interp(t, wps[:, 0], wps[:, i])
                            for i in (1, 2, 3)])
    states = np.zeros((n, 7))
    for k, pos in enumerate(path.tolist()):
        states[k, :3] = inverse_kinematics(params, pos).q
    states[:, 3:6] = np.gradient(states[:, :3], dt, axis=0)
    return _record(params, springs, None, t, states, np.zeros((n, 4)), None)


# ---------------------------------------------------------------------------
# compliant-mount contact study


def spoon_contact_response(params: MechanismParams,
                           compliance: ComplianceSpec, impulse: float,
                           dt: float = DEFAULT_TIMESTEP,
                           duration: float = 5.0) -> ContactResponse:
    """Response of the utensil mount to an impulse torque (N*m*s).

    Compliant mode solves one deflection axis exactly on the grid of dt
    and reports the peak reaction torque |k_r*d + c_r*d'|, the settling
    time into the recenter tolerance, and whether recentering happened
    within the horizon. Rigid mode has no deflection dynamics at all; as
    the comparison value it reports the impulse spread over a single
    timestep, flagged model-dependent because it scales with 1/dt.

    dt and duration follow a scenario's grid rule, or this raises
    ValueError, and a compliant mount needs omega_n*dt < pi, or this
    raises TimestepTooCoarseError. A deflection beyond the validity limit
    raises DeflectionExceededError naming the time of the first breach.
    """
    if not math.isfinite(impulse):
        raise ValueError("impulse must be finite")
    n = _grid_steps(duration, dt)
    if compliance.mode is ComplianceMode.RIGID:
        return ContactResponse(peak_torque=abs(impulse) / dt,
                               settling_time=0.0, recentered=True,
                               model_dependent=True)

    rows = _mount_rows(compliance, 0.0, impulse * (1.0 / compliance.inertia),
                       n, dt)
    t = np.arange(n) * dt
    _check_deflection(compliance, t, rows[:, :1])

    d, v, _ = rows.T
    peak = float(np.abs(compliance.stiffness * d
                        + compliance.damping * v).max())
    settling = settling_time(np.abs(d) >= compliance.recenter_tolerance, t)
    return ContactResponse(peak_torque=peak, settling_time=settling,
                           recentered=settling < math.inf)
