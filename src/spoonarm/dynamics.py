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
velocity after each step, so a step must start within them. Everything
is deterministic: identical inputs (including noise seeds) give
bit-identical results.

Each build gets one RK4 step function, made by _arm_stepper; rollouts and
single steps (step_dynamics) both step the arm with it. Building it
reads the springs and the dampers once each with kinematics.spec_tuple,
which takes any iterable and names a bad entry (springs[i], dampers[i]),
as every public entry point that takes a build's sets does; the sums
that read a set again per joint (spring_sum, damper_sum,
statics.torque_columns, potential_sum) take a tuple or a list. Each law
the stage evaluates is stated once, as a source template (see _law):
the mass law (_MASS_TERMS), gravity's torque, each spring kind's torque,
each damper model's torque and the handle's point_torque_law; each
joint's spring and damper sums are _law.law_sum templates over them.
Each law has one function, which returns its Law: the statics, the
Jacobians and the recording call that Law, on floats or arrays, and
_arm_stepper splices the same Laws into one function: _STEP, with the
stage _STAGE (_arm_stage) spliced in four times. The step is taken as
its closure, so a rollout's loop calls the compiled function itself.
Its code is compiled once per build shape (spring kinds and damper
models per joint, in order), and each build's numbers are bound by
name, so the stages make no call but the guard's rare ones and run on
local floats. Gravity plus an ideal spring cancels in the stage as in
the synthesis, and a balanced build at rest stays at rest.

The handle term is a bound Law of the stage too. A rollout whose input
is a signal spec with a vertical direction (x == 0.0 == y, either sign
of zero) tells _arm_stepper so. On a build whose J1 has no acting
damper and whose two lifted joints both bear a gravity torque that
cannot underflow (|g*A| >= _LIFT_GRAVITY_FLOOR), the term is then
_HANDLE_LIFT, the z column of J^T F alone: tau2 += u2*fz and
tau3 += u3*fz, with no J1 term and no cos or sin of phi1. It is another
build shape of the one stage, not a second stage, and it keeps every
bit of the whole _HANDLE_FORCE: each term it drops is a signed zero,
added to a torque that is never -0 (_arm_stage gives the argument).
Any other input or build keeps _HANDLE_FORCE, and step_dynamics always
does, so its rows cross-check a rollout's.

RK4 is stable on a damped mode only while dt*lambda <= 2.785 (Hairer &
Wanner, Solving ODEs II, IV.2), lambda an eigenvalue of M^-1*C, C the
diagonal of each joint's summed damper coefficients (a dead zone's at
full c). Each stage guards it with the m11 and planar determinant it
solves with, against floors computed once per build (_arm_stage), so
the common path makes two compares; the guard's functions yaw and
solvable are called only below a floor. Past STIFF_BOUND the step
raises TimestepTooCoarseError naming the joints, the time and the
largest stable dt.

The mount is linear and unforced after a contact, so _mount_rows steps
each axis with its exact propagator, exp(A*dt) in closed form, for
rollouts, single steps and the contact study alike; the arm's is the
only integrator. An axis's energy is ComplianceSpec.energy, which the
recording shares, and its dissipation the exact drop in that energy.
The grid must sample the mount's undamped period twice (omega_n*dt < pi).

One function, _signal_forces, reads every handle input: it decides the
input's kind and evaluates its force at a 1-D array of times, or answers
None for no handle force (no input or a playback). step_dynamics calls
it on its three stage times, after rejecting a playback, generate_signal
at one time, and a rollout once per block of FORCE_BLOCK steps, so its
step loop only integrates. A noise tremor draws its tones once per
instance (NoiseTremor.tones). A signal spec's blocks are shared across
rollouts: the last SIGNAL_BLOCKS of them, about 1.2 MB whatever the
rollout length, stay in _signal_block, the signal layer's only module
state, read-only and keyed by the spec's repr and the grid, so a study
that runs many builds on one tremor evaluates it once, and specs equal
but for the sign of a zero never share one. A constant or callable
force is evaluated in every run. The loop keeps the packed states of a
block in a list and writes them to the state array once per block;
after it, one numpy pass computes the positions, applied torques and
energies (a rigid mount's are zero), each spring's potential on its
whole angle column at once.

run_scenario has one tail. The arm states of a rollout, integrated or
played back from a PrescribedTrajectory by IK, go through the same spoon
contact, mount, deflection check and recording, which books the mount's
energy in every rollout. A playback is only a rollout. Its IK runs once
over the whole interpolated path (kinematics.inverse_kinematics_path,
each row with inverse_kinematics' bits); the first row IK rejects
raises, naming its time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from ._law import Law, law_sum
from .errors import (DeflectionExceededError, LimitViolationError,
                     NonFiniteStateError, TimestepTooCoarseError)
from .kinematics import (
    Joint,
    JointState,
    MechanismParams,
    as_member,
    handle_point,
    instance,
    integer,
    inverse_kinematics_path,
    number,
    number_fields,
    numbers,
    point_position,
    point_torque_law,
    real,
    sequence,
    spec_tuple,
    spoon_point,
)
from .statics import SpringSpec, gravity_laws, potential_sum, spring_sum

# Not called here any more, but kept as attributes of this module:
# perfbench/tracer.py patches these seven names on it.
from .kinematics import (handle_jacobian, handle_pose,  # noqa: F401
                         inverse_kinematics, spoon_pose)
from .statics import (gravity_potential, spring_potential,  # noqa: F401
                      spring_torque)

DEFAULT_TIMESTEP = 1e-3
CONTACT_HORIZON = 5.0       # s, the contact study's default duration
NOISE_COMPONENTS = 64
FORCE_BLOCK = 128           # steps whose stage forces are evaluated at once
# stage-force blocks kept for reuse by later rollouts: at most
# SIGNAL_BLOCKS * 3*FORCE_BLOCK rows * 3 * 8 B, about 1.2 MB
SIGNAL_BLOCKS = 128
GRID_REL_TOL = 1e-9         # duration/timestep this close to whole is whole
# the largest dt*lambda of M^-1*C a rollout may reach: below RK4's 2.785 on
# the negative real axis, above the 2.511 a J3 damper of c = 15 peaks at on
# the packaged example, which keeps its energy
STIFF_BOUND = 2.6


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
    Like every spec here, it stores each numeric field as a float.
    """

    joint: Joint
    model: DamperModel = DamperModel.VISCOUS
    coefficient: float = 0.0     # N*m*s/rad
    deadzone: float = 0.0        # rad/s, dead-zone model only

    def __post_init__(self):
        object.__setattr__(self, "joint", as_member(Joint, self.joint,
                                                    "joint"))
        object.__setattr__(self, "model", as_member(DamperModel, self.model,
                                                    "model"))
        number_fields(self, ">= 0", "coefficient", "deadzone")
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
        object.__setattr__(self, "mode", as_member(ComplianceMode, self.mode,
                                                   "mode"))
        number_fields(self, "> 0", "deflection_limit", "recenter_tolerance")
        # a rigid mount's energy is k*0*0/2 and I*0*0/2: finite, not NaN
        rule = "> 0" if self.mode is ComplianceMode.COMPLIANT else ">= 0"
        try:
            number_fields(self, rule, "stiffness", "damping", "inertia")
        except ValueError as exc:
            raise ValueError(f"{exc}; {self.mode.value} mode needs finite "
                             "stiffness, damping and inertia") from None

    @property
    def damping_ratio(self) -> float:
        if self.mode is ComplianceMode.RIGID:
            return math.inf
        return self.damping / (2.0 * math.sqrt(self.stiffness * self.inertia))

    def energy(self, d, v):
        """Elastic and kinetic energy (k*d^2/2, I*v^2/2) of mount axes at
        deflection d and rate v, floats or numpy arrays."""
        return 0.5 * self.stiffness * d * d, 0.5 * self.inertia * v * v


def _unit(direction):
    d = numbers(direction, "direction")
    if len(d) != 3:
        raise ValueError("direction needs three components")
    n = number(math.hypot(*d), "direction length", "> 0")
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
        number_fields(self, ">= 0", "amplitude")
        number_fields(self, "> 0", "frequency")
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
        number_fields(self, ">= 0", "rms")
        number_fields(self, "> 0", "f_lo", "f_hi")
        if not self.f_lo < self.f_hi:
            raise ValueError("f_hi must be above f_lo")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        object.__setattr__(self, "direction", _unit(self.direction))

    @cached_property
    def tones(self):
        """(omega, phases) of the tones, read-only, drawn once per
        instance; not a field, so ==, hash and repr ignore it."""
        omega = 2.0 * math.pi * np.linspace(self.f_lo, self.f_hi,
                                            NOISE_COMPONENTS)
        phases = np.random.default_rng(self.seed).uniform(
            0.0, 2.0 * math.pi, NOISE_COMPONENTS)
        omega.flags.writeable = phases.flags.writeable = False
        return omega, phases


@dataclass(frozen=True)
class SpasmImpulse:
    """Rectangular force pulse: `force` N on [onset, onset + duration]."""

    force: float
    duration: float
    onset: float = 0.0
    direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        number_fields(self, "finite", "force")
        number_fields(self, ">= 0", "duration", "onset")
        object.__setattr__(self, "direction", _unit(self.direction))


# the input specs whose force is a law of time alone, see _signal_forces
_SIGNALS = (SineTremor, NoiseTremor, SpasmImpulse)


@dataclass(frozen=True)
class PrescribedTrajectory:
    """Kinematic playback: the utensil tip tracks (t, x, y, z) waypoints.

    The user is position-controlling the handle here, so the rollout is
    kinematic (IK of every step's linearly interpolated waypoint, in one
    pass over whole arrays) rather than force-driven. Waypoints are
    stored as tuples of floats.
    """

    waypoints: tuple    # ((t, x, y, z), ...)

    def __post_init__(self):
        wps = sequence(self.waypoints, "waypoints", numbers)
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
        number_fields(self, "finite", "time", "impulse_pitch", "impulse_yaw")


@dataclass(frozen=True)
class Scenario:
    """One rollout. `input=None`, no input, is stored as FreeRelease()."""

    duration: float
    timestep: float = DEFAULT_TIMESTEP
    initial: JointState = JointState()
    input: object = field(default_factory=FreeRelease)
    spoon_contact: SpoonContact | None = None

    def __post_init__(self):
        number_fields(self, "> 0", "duration", "timestep")
        if self.input is None:
            object.__setattr__(self, "input", FreeRelease())
        _grid_steps(self.duration, self.timestep)    # checks the grid
        instance(self.initial, JointState, "initial")
        contact = self.spoon_contact
        if contact is not None:
            instance(contact, SpoonContact, "spoon_contact")
            if not 0.0 <= contact.time <= self.duration:
                raise ValueError("spoon_contact time must lie in [0, duration]")

    @property
    def steps(self) -> int:
        return _grid_steps(self.duration, self.timestep)


def _grid_steps(duration: float, dt: float) -> int:
    """Rows of a uniform grid from 0 to `duration` inclusive.

    Given floats duration, dt > 0, the grid needs duration >= dt and a finite
    ratio duration/dt; otherwise this raises ValueError. A ratio within
    GRID_REL_TOL of a whole number counts as whole, so decimal pairs such
    as 0.7 s / 0.1 s (6.999999999999999 in floats) keep their last row.
    """
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

    `model_dependent` marks a peak the ideal impulse makes, not a force
    level: the rigid comparison, an impulse over one timestep, and a
    compliant peak on the impulse row, c_r times the velocity jump.
    """

    peak_torque: float
    settling_time: float
    recentered: bool
    model_dependent: bool = False


# ---------------------------------------------------------------------------
# mass matrix and friends


_MASS_TERMS = """
def terms(c2t, s2t, c3t, s3t):
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
"""


def _mass_law(params: MechanismParams):
    """(M22, M33, terms): the constant entries M22 and M33 of M(q), and
    the Law terms(c2t, s2t, c3t, s3t) (_MASS_TERMS) of the cosines and
    sines of theta2 and theta3, floats or numpy arrays, with the build's
    constants bound. It returns the angle-dependent entries and their
    angle partials (M11, M23, D2, D3, Bs): D2 = dM11/dtheta2, D3 =
    dM11/dtheta3, and, for the coupling amplitude B of M23 =
    B*cos(theta2 - theta3), Bs = B*sin(theta2 - theta3) = -dM23/dtheta2."""
    a1, L1, L2 = params.base_offset, params.link1_length, params.link2_length
    m1, m2, mp = params.mass_link1, params.mass_link2, params.mass_payload
    c1, c2 = params.com_fraction1, params.com_fraction2
    m1c1, m2c2 = m1 * c1, m2 * c2
    terms = Law(_MASS_TERMS, a1=a1, L1=L1, L2=L2, m1=m1, m2=m2, mp=mp,
                c1L1=c1 * L1, c2L2=c2 * L2, m1c1=m1c1, m2c2=m2c2,
                n2L1=-2.0 * L1, n2L2=-2.0 * L2, b=L1 * L2 * (m2c2 + mp))
    return ((m1 * c1 * c1 + m2 + mp) * L1 * L1,
            (m2 * c2 * c2 + mp) * L2 * L2, terms)


def _kinetic(m11, m22, m23, m33, w1, w2, w3):
    """qdot^T M qdot / 2 from the mass-matrix entries; floats or arrays."""
    return 0.5 * (m11 * w1 * w1 + m22 * w2 * w2 + m33 * w3 * w3) + m23 * w2 * w3


def _state_mass(params: MechanismParams, state: JointState):
    """(M11, M22, M23, M33, D2, D3, Bs) at one joint state."""
    m22, m33, terms = _mass_law(params)
    _, th2, th3 = state.q
    m11, m23, d2, d3, bs = terms(math.cos(th2), math.sin(th2),
                                 math.cos(th3), math.sin(th3))
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


# ---------------------------------------------------------------------------
# dampers and input signals


_NO_DAMPER = Law("""
def no_damper(omega):
    return 0.0
""")

_VISCOUS = """
def viscous(omega):
    return neg_c * omega
"""

_DEAD_ZONE_VISCOUS = """
def dead_zone_viscous(omega):
    if neg_deadzone <= omega <= deadzone:
        torque = 0.0
    else:
        torque = neg_c * (omega - (deadzone if omega > 0.0 else neg_deadzone))
    return torque
"""


def damper_law(spec: DamperSpec) -> Law:
    """The torque Law torque(omega) of one damper at joint rate omega,
    its constants bound: each model's law is stated once, as the
    templates above."""
    if spec.model is DamperModel.NONE:
        return _NO_DAMPER
    if spec.model is DamperModel.VISCOUS:
        return Law(_VISCOUS, neg_c=-spec.coefficient)
    return Law(_DEAD_ZONE_VISCOUS, neg_deadzone=-spec.deadzone,
               deadzone=spec.deadzone, neg_c=-spec.coefficient)


def damper_sum(dampers, joint: Joint) -> Law:
    """The summed torque Law torque(omega) of the dampers that act on
    `joint`, those with a coefficient > 0, added in the order given, the
    laws bound once (_law.law_sum): the constant law +0.0 for no acting
    damper. `dampers` is a tuple or a list, as each joint's sum reads it
    again."""
    return law_sum((damper_law(spec) for spec in dampers
                    if spec.joint == joint and spec.coefficient > 0.0),
                   _NO_DAMPER)


def damper_torque(spec: DamperSpec, omega: float) -> float:
    """Torque the damper exerts at joint rate omega."""
    return damper_law(spec)(omega)


def _force(values, name: str) -> tuple:
    """A handle force `values` read with numbers: three finite floats;
    else ValueError starting with `name`."""
    force = numbers(values, name)
    if len(force) != 3:
        raise ValueError(f"{name} needs three components")
    return force


def _signal_forces(inputs, times: np.ndarray):
    """The (len(times), 3) handle forces of `inputs` at a 1-D array of
    times, or None for no handle force: no input (None or FreeRelease) or
    a playback. `inputs` is one of the signal specs, a callable t -> force
    called once per time in order, or a constant (fx, fy, fz): a tuple,
    list or array. A force that is not three finite real numbers raises
    ValueError, a callable's naming the first time it returned one; any
    other input raises TypeError."""
    if inputs is None or isinstance(inputs,
                                    (FreeRelease, PrescribedTrajectory)):
        return None
    if isinstance(inputs, SineTremor):
        mag = inputs.amplitude * np.sin(2.0 * math.pi * inputs.frequency
                                        * times)
    elif isinstance(inputs, NoiseTremor):
        omega, phases = inputs.tones
        amplitude = inputs.rms * math.sqrt(2.0 / NOISE_COMPONENTS)
        mag = amplitude * np.sin(np.multiply.outer(times, omega)
                                 + phases).sum(axis=-1)
    elif isinstance(inputs, SpasmImpulse):
        inside = ((inputs.onset <= times)
                  & (times <= inputs.onset + inputs.duration))
        mag = np.where(inside, inputs.force, 0.0)
    elif callable(inputs):
        # each force is read as it is returned, so a callable may hand back
        # one array that it updates in place
        forces = np.empty((len(times), 3))
        for k, t in enumerate(times.tolist()):
            force = inputs(t)
            try:
                forces[k] = _force(force, "input force")
            except ValueError as error:
                raise ValueError(f"{error} at t = {t:.6f} s") from None
        return forces
    elif isinstance(inputs, (tuple, list, np.ndarray)):
        return np.tile(_force(inputs, "constant input force"),
                       (len(times), 1))
    else:
        raise TypeError(f"unknown input signal {type(inputs).__name__}")
    return np.multiply.outer(mag, inputs.direction)


def generate_signal(spec, t: float) -> np.ndarray:
    """Handle force vector of any rollout input at time t: zeros for no
    input and for a playback, which has no handle force. A t that is not
    finite raises ValueError."""
    forces = _signal_forces(spec, np.array([number(t, "t")]))
    return np.zeros(3) if forces is None else forces[0]


@lru_cache(maxsize=SIGNAL_BLOCKS)
def _signal_block(key: str, spec, k0: int, k1: int, n: int,
                  dt: float) -> np.ndarray:
    """Read-only _signal_forces of a signal spec at the _stage_times of
    rows k0..k1-1 of an n-row grid of dt, shared by every rollout that
    needs it. `key` is repr(spec): specs that compare equal, as a 0.0 and
    a -0.0 field do, can still give forces of different signs."""
    block = _signal_forces(spec, _stage_times(k0, k1, n, dt))
    block.flags.writeable = False
    return block


def _stage_times(k0: int, k1: int, n: int, dt: float) -> np.ndarray:
    """RK4 stage times t_k, t_k + dt/2, t_k + dt of rows k0..k1-1, row by
    row, built with the same float operations as the step loop. The last
    row of an n-row run is not integrated and needs only t_k."""
    tk = np.arange(k0, k1) * dt
    times = np.stack([tk, tk + 0.5 * dt, tk + dt], axis=1).ravel()
    return times[:-2] if k1 == n else times


# ---------------------------------------------------------------------------
# equations of motion


# One stage of the equations of motion: the joint accelerations and the
# dissipated power at one state under the handle force, or None for no
# input. Each law it calls is a Law, spliced in.
_STAGE = """
def accel(phi1, th2, th3, w1, w2, w3, force):
    c2t = cos(th2)
    s2t = sin(th2)
    c3t = cos(th3)
    s3t = sin(th3)
    m11, m23, d2, d3, bs = mass(c2t, s2t, c3t, s3t)

    tau1 = damper1(w1)
    damp2 = damper2(w2)
    damp3 = damper3(w3)
    power = 0.0 - tau1 * w1 - damp2 * w2 - damp3 * w3
    weight2 = gravity2(c2t)
    lift2 = spring2(th2, c2t, s2t)
    tau2 = weight2 + lift2 + damp2
    weight3 = gravity3(c3t)
    lift3 = spring3(th3, c3t, s3t)
    tau3 = weight3 + lift3 + damp3

    if force is not None:
        fx, fy, fz = force
        tau1, tau2, tau3 = handle(phi1, c2t, s2t, c3t, s3t, fx, fy, fz,
                                  tau1, tau2, tau3)

    # subtract C(q, qdot) * qdot
    rhs1 = tau1 - w1 * (d2 * w2 + d3 * w3)
    rhs2 = tau2 - (-0.5 * d2 * w1 * w1 + bs * w3 * w3)
    rhs3 = tau3 - (-0.5 * d3 * w1 * w1 - bs * w2 * w2)

    # block solve, behind the guard; joints with no inertia (massless
    # limit) hold their rate, and a singular planar block degrades to
    # independent per-joint solves
    acc1 = rhs1 / m11 if m11 > floor1 else yaw(m11, rhs1)
    det = m22_m33 - m23 * m23
    if det > floor23 or solvable(det):
        acc2 = (rhs2 * m33 - rhs3 * m23) / det
        acc3 = (rhs3 * m22 - rhs2 * m23) / det
    else:
        acc2 = rhs2 / m22 if m22 > tiny else 0.0
        acc3 = rhs3 / m33 if m33 > tiny else 0.0
    return acc1, acc2, acc3, power
"""


# The stage's handle term: the joint torques tau plus J^T F of the handle
# force, of the handle's point_torque_law "torques"
_HANDLE_FORCE = """
def handle_force(phi1, c2t, s2t, c3t, s3t, fx, fy, fz, tau1, tau2, tau3):
    cp = cos(phi1)
    sp = sin(phi1)
    h1, h2, h3 = torques(cp, sp, c2t, s2t, c3t, s3t, fx, fy, fz)
    return tau1 + h1, tau2 + h2, tau3 + h3
"""

# The same term of a vertical force, fx and fy signed zeros: the z column
# of J^T F alone, of the handle's "levers", with the bits of _HANDLE_FORCE
# on the builds _arm_stage gives it (see there). An infinite phi1 raises
# as cos(phi1) does there; a NaN one passes, as there.
_HANDLE_LIFT = """
def handle_lift(phi1, c2t, s2t, c3t, s3t, fx, fy, fz, tau1, tau2, tau3):
    if phi1 - phi1 != 0.0 and phi1 == phi1:
        raise ValueError("math domain error")
    u2, u3 = levers(c2t, c3t)
    return tau1, tau2 + u2 * fz, tau3 + u3 * fz
"""

# |cos| of a float angle is above 2**-62: no float lies nearer an odd
# multiple of pi/2 than 6381956970095103 * 2**797, where |cos| = 4.69e-19
# (the worst case of range reduction by pi/2 in double precision; Muller,
# Elementary Functions, on range reduction). So a gravity torque
# -g*A*cos of |g*A| >= 2**-960 is at least 2**-1022 in size: normal,
# never a zero.
_LIFT_GRAVITY_FLOOR = 2.0 ** -960


class _StiffStage(Exception):
    """A stage's dampers are too stiff for dt: args (joints, dt*lambda)."""


def _arm_stage(params: MechanismParams, springs, dampers, dt: float,
               vertical: bool = False) -> Law:
    """The Law of _STAGE of one build, for a step of dt.

    Every term that does not depend on the state is computed here, once
    per build: the mass law, each lifted joint's gravity torque, the
    handle term, and each joint's spring and damper sums, each a
    _law.law_sum, all bound as Laws for the stage to splice.

    The handle term is _HANDLE_FORCE, the handle's whole J^T F, unless
    `vertical` says that every force the stage is given has fx and fy
    signed zeros (a signal spec whose direction has x == 0.0 == y),
    J1 has no acting damper, and the gravity scale g*A of both lifted
    joints is at least _LIFT_GRAVITY_FLOOR in size. Then it is
    _HANDLE_LIFT: tau2 += u2*fz and tau3 += u3*fz, with no J1 term and
    no cos or sin of phi1, and the same bits (IEEE 754, round to
    nearest). Where fx = fy = +-0 and the state is finite, every term it
    drops is a signed zero, and a sum is -0 only when both its addends
    are. So tau1, J1's zero damper law +0.0 plus +-0, stays +0.0; and
    tau2 (tau3 alike), gravity's nonzero torque plus the spring's and
    the damper's, is nonzero or +0, never -0, so adding the dropped
    zeros to it changes no bit. A stage that leaves the floats gives the
    step the same error: an infinite phi1 raises as cos(phi1) does.

    For a step of dt, the stage raises _StiffStage(joints, dt*lambda)
    where dt*lambda of M^-1*C, C the diagonal of each joint's summed
    damper coefficients (a dead zone's at full c), exceeds STIFF_BOUND.
    The build's floors replace the solve's own tests against tiny, so the
    common path makes no extra compare: m11 is tested against
    dt*c1/STIFF_BOUND, and det = M22*M33 - M23^2 against
    dt*(c2*M33 + c3*M22)/STIFF_BOUND, a trace bound on the larger root
    that is exact when one of c2, c3 is 0. Only a det below its floor
    solves the 2x2 root.
    """
    m22, m33, mass = _mass_law(params)
    springs = spec_tuple(springs, SpringSpec, "springs")
    dampers = spec_tuple(dampers, DamperSpec, "dampers")
    tiny = 1e-18

    # dt*c of each joint's dampers, and the floors of the guard
    c = [0, 0, 0]
    for spec in dampers:
        c[spec.joint] += spec.coefficient
    dc1, dc2, dc3 = dt * c[0], dt * c[1], dt * c[2]
    floor1 = max(tiny, dc1 / STIFF_BOUND)
    floor23 = max(tiny, (dc2 * m33 + dc3 * m22) / STIFF_BOUND)

    def yaw(m11, rhs1):
        """acc1 at m11 <= floor1, unless dt*c1/m11 exceeds STIFF_BOUND: a
        joint with no inertia holds its rate."""
        if dc1 > STIFF_BOUND * m11:
            raise _StiffStage(Joint.J1.name, dc1 / m11 if m11 else math.inf)
        return rhs1 / m11 if m11 > tiny else 0.0

    def solvable(det):
        """Whether a planar block at det <= floor23 takes the block solve,
        det > tiny: dt*lambda is the larger root of
        x^2 - dt*trace*x + dt^2*c2*c3/det."""
        if det > tiny:
            half = 0.5 * (dc2 * m33 + dc3 * m22) / det
            rate = half + math.sqrt(max(half * half - dc2 * dc3 / det, 0.0))
        else:
            # a singular block's per-joint solves: dt*c/M of each damped
            # joint
            rate = max((dc / m if m > tiny else math.inf) if dc else 0.0
                       for dc, m in ((dc2, m22), (dc3, m33)))
        if rate > STIFF_BOUND:
            raise _StiffStage(" and ".join(
                joint.name for joint, dc in ((Joint.J2, dc2), (Joint.J3, dc3))
                if dc), rate)
        return det > tiny

    damper1 = damper_sum(dampers, Joint.J1)
    gravity2, gravity3 = (gravity_laws(params, joint)[0]
                          for joint in (Joint.J2, Joint.J3))
    torques = point_torque_law(handle_point(params))
    if (vertical and damper1 is _NO_DAMPER
            and min(abs(gravity2.values["g_a"]), abs(gravity3.values["g_a"]))
            >= _LIFT_GRAVITY_FLOOR):
        handle = Law(_HANDLE_LIFT, {"levers": torques.laws["levers"]})
    else:
        handle = Law(_HANDLE_FORCE, {"torques": torques})
    return Law(_STAGE, {
        "mass": mass,
        "damper1": damper1,
        "damper2": damper_sum(dampers, Joint.J2),
        "damper3": damper_sum(dampers, Joint.J3),
        "gravity2": gravity2,
        "spring2": spring_sum(springs, Joint.J2),
        "gravity3": gravity3,
        "spring3": spring_sum(springs, Joint.J3),
        "handle": handle,
    }, floor1=floor1, yaw=yaw, m22_m33=m22 * m33, floor23=floor23,
               solvable=solvable, m22=m22, m33=m33, tiny=tiny)


# One RK4 step of the arm. The stages are _STAGE, spliced in four times.
_STEP = """
def step(y, t, f0, f_half, f1):
    q1, q2, q3, w1, w2, w3, e = y
    try:
        # stage k_i = (rates u_i, accelerations a_i, power p_i)
        a1, a2, a3, p1 = stage(q1, q2, q3, w1, w2, w3, f0)
        u1, u2, u3 = w1 + half * a1, w2 + half * a2, w3 + half * a3
        b1, b2, b3, p2 = stage(q1 + half * w1, q2 + half * w2,
                               q3 + half * w3, u1, u2, u3, f_half)
        v1, v2, v3 = w1 + half * b1, w2 + half * b2, w3 + half * b3
        c1, c2, c3, p3 = stage(q1 + half * u1, q2 + half * u2,
                               q3 + half * u3, v1, v2, v3, f_half)
        x1, x2, x3 = w1 + dt * c1, w2 + dt * c2, w3 + dt * c3
        d1, d2, d3, p4 = stage(q1 + dt * v1, q2 + dt * v2,
                               q3 + dt * v3, x1, x2, x3, f1)
    except (ValueError, OverflowError):
        # a stage left the floats, as math.cos of an infinite angle
        raise NonFiniteStateError(diverged(t + dt)) from None
    except StiffStage as stiff:
        joints, rate = stiff.args
        raise TimestepTooCoarseError(
            f"{joints} damping dt*lambda = {rate:.6g} exceeds "
            f"{STIFF_BOUND} at t = {t:.6f} s; the largest stable dt is "
            f"{dt * STIFF_BOUND / rate:.6g} s; reduce the timestep"
        ) from None
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

    # x - x is +0.0 for a finite x and NaN for an inf or a NaN
    if ((q1 - q1) + (q2 - q2) + (q3 - q3) + (w1 - w1) + (w2 - w2)
            + (w3 - w3) + (e - e) != 0.0):
        raise NonFiniteStateError(diverged(t + dt))
    return q1, q2, q3, w1, w2, w3, e
"""


def _arm_stepper(params: MechanismParams, springs, dampers, dt: float,
                 vertical: bool = False):
    """The RK4 step of dt of one build's arm: step(y, t, f0, f_half, f1)
    takes the packed state y = (phi1, th2, th3, w1, w2, w3, e_diss) at
    time t, with the handle force at t, t + dt/2 and t + dt, and returns
    the next one. `vertical` says that every force it is given has fx
    and fy signed zeros, which lets _arm_stage drop the handle's yaw
    terms on most builds, with the same bits.

    The joint limits clamp the position and zero the outgoing velocity;
    a state or stage that leaves the floats raises NonFiniteStateError,
    and a stage whose dampers are too stiff for dt its subclass
    TimestepTooCoarseError. The step is _STEP with _arm_stage spliced in
    as its four stages, compiled once per build shape, so a stage makes
    no call but the guard's rare ones; it tests the new state's
    finiteness with one float expression, exact for any finite state,
    with no call per entry.
    """
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = params.joint_limits
    return Law(_STEP, {"stage": _arm_stage(params, springs, dampers, dt,
                                           vertical)},
               half=0.5 * dt, dt=dt, sixth=dt / 6.0,
               NonFiniteStateError=NonFiniteStateError,
               diverged="state diverged at t = {:.6f} s; reduce the "
                        "timestep".format,
               StiffStage=_StiffStage,
               TimestepTooCoarseError=TimestepTooCoarseError,
               STIFF_BOUND=STIFF_BOUND, lo1=lo1, hi1=hi1, lo2=lo2, hi2=hi2,
               lo3=lo3, hi3=hi3).closure()


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
    # a state that overflows raises NonFiniteStateError below
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.add(*compliance.energy(d, v))
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
    stage times; a PrescribedTrajectory raises ValueError, as playback
    runs through run_scenario. `deflections` packs the four (delta_p,
    delta_y, rate_p, rate_y) of the compliant mount; a rigid one returns
    them unchanged. Raises ValueError for a t or dt that is not finite
    or an argument of the wrong type, LimitViolationError for a `state`
    outside the joint limits, DeflectionExceededError for deflections
    beyond the mount's validity limit, and TimestepTooCoarseError when
    omega_n*dt >= pi or the dampers are too stiff for dt (dt*lambda of
    M^-1*C above STIFF_BOUND).
    """
    instance(compliance, ComplianceSpec, "compliance")
    dt, t = number(dt, "dt", "> 0"), number(t, "t")
    mount = sequence(deflections, "deflections", real)
    if len(mount) != 4:
        raise ValueError("deflections needs four entries (delta_p, delta_y, "
                         f"rate_p, rate_y), not {len(mount)}")
    _check_start(params, state)
    if isinstance(inputs, PrescribedTrajectory):
        raise ValueError("a PrescribedTrajectory is kinematic playback, not "
                         "a force; run it through run_scenario")
    forces = _signal_forces(inputs, np.array([t, t + 0.5 * dt, t + dt]))
    step = _arm_stepper(params, springs, dampers, dt)
    y = step(state.q + state.qdot + (0.0,), t,
             *([None] * 3 if forces is None else forces.tolist()))
    dp, dy, vp, vy = mount
    if compliance.mode is ComplianceMode.COMPLIANT:
        dp, vp, _ = _mount_rows(compliance, dp, vp, 2, dt, t)[1].tolist()
        dy, vy, _ = _mount_rows(compliance, dy, vy, 2, dt, t)[1].tolist()
    _check_deflection(compliance, [t + dt], np.array([[dp, dy]]))
    return JointState(q=y[:3], qdot=y[3:6]), (dp, dy, vp, vy)


def _check_start(params: MechanismParams, state: JointState):
    """Read `params` and the start `state`, which must lie within the
    limits: the limit clamp would snap it inside, adding energy."""
    instance(params, MechanismParams, "params")
    instance(state, JointState, "state")
    if not params.within_limits(state.q):
        raise LimitViolationError(
            f"initial joint angles {state.q} lie outside the joint limits")


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

    A PrescribedTrajectory input switches to kinematic playback: joints
    follow IK of the interpolated waypoints and no forces are integrated.
    Its first row is IK of the first waypoint: a playback uses `initial`
    only for the joint-limit check every rollout makes, and a start off
    the first waypoint is not an error. Either way, a spoon contact then
    lands on the nearest step boundary as a velocity jump of the
    compliant mount; the recorded row at that step is post-impulse. With
    a rigid mount there is no deflection state, so the contact event has
    no effect here (use spoon_contact_response for the rigid-side
    comparison numbers).

    Raises LimitViolationError for a start outside the joint limits;
    UnreachableError or LimitViolationError, naming the time, for the
    first playback row that IK rejects; TimestepTooCoarseError for a
    contact when omega_n*dt >= pi, or, naming the time, for dampers too
    stiff for the timestep; and DeflectionExceededError, naming
    the time of the first breach, when the mount deflects beyond its
    validity limit. An argument of the wrong type raises ValueError.
    """
    instance(compliance, ComplianceSpec, "compliance")
    n = instance(scenario, Scenario, "scenario").steps
    dt = scenario.timestep
    t = np.arange(n) * dt
    row_forces = []    # handle force at each row's own time, per block
    springs = spec_tuple(springs, SpringSpec, "springs")
    dampers = spec_tuple(dampers, DamperSpec, "dampers")
    _check_start(params, scenario.initial)
    if isinstance(scenario.input, PrescribedTrajectory):
        states = _playback_states(params, scenario.input, t, dt)
    else:
        inputs = scenario.input
        # a signal spec's blocks are shared with other rollouts; any other
        # input is evaluated afresh, a callable at every stage time
        key = repr(inputs) if isinstance(inputs, _SIGNALS) else None
        # a signal's force is its magnitude times its direction, so one
        # whose direction has x == 0.0 == y has fx and fy signed zeros
        step = _arm_stepper(params, springs, dampers, dt,
                            key is not None and inputs.direction[0] == 0.0
                            == inputs.direction[1])
        states = np.empty((n, 7))
        y = scenario.initial.q + scenario.initial.qdot + (0.0,)
        for k0 in range(0, n, FORCE_BLOCK):
            k1 = min(k0 + FORCE_BLOCK, n)
            # three stage forces per row
            if key is None:
                block = _signal_forces(inputs, _stage_times(k0, k1, n, dt))
            else:
                block = _signal_block(key, inputs, k0, k1, n, dt)
            if block is None:
                triples = repeat((None, None, None))
            else:
                row_forces.append(block[::3])
                forces = iter(block.tolist())
                triples = zip(forces, forces, forces)
            # the rows of one block, written to `states` at once; the last
            # row of the run is not stepped from
            rows = []
            for k, (f0, f_half, f1) in zip(range(k0, min(k1, n - 1)),
                                           triples):
                rows.append(y)
                y = step(y, k * dt, f0, f_half, f1)
            if k1 == n:
                rows.append(y)
            states[k0:k1] = rows

    mount = np.zeros((n, 4))    # pitch, yaw deflection; pitch, yaw rate
    contact = scenario.spoon_contact
    if contact is not None and compliance.mode is ComplianceMode.COMPLIANT:
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
    return _record(params, springs, compliance, t, states, mount,
                   np.concatenate(row_forces) if row_forces else None)


def _record(params: MechanismParams, springs, compliance, t: np.ndarray,
            states: np.ndarray, mount: np.ndarray, row_forces) -> SimResult:
    """SimResult of a run from its packed arm states and the (n, 4)
    deflections and rates of its `mount`, one row per step.

    One numpy pass computes the positions, the applied torque of
    `row_forces` (the handle force at each row's time, or None) and the
    energies, the `compliance` mount's included.
    """
    phi1, th2, th3, w1, w2, w3 = states[:, :6].T
    trig = (np.cos(phi1), np.sin(phi1), np.cos(th2), np.sin(th2),
            np.cos(th3), np.sin(th3))
    _, _, c2t, s2t, c3t, s3t = trig
    spoon = np.column_stack(point_position(spoon_point(params), *trig))
    grip = handle_point(params)
    handle = np.column_stack(point_position(grip, *trig))
    if row_forces is None:
        applied = np.zeros((len(t), 3))
    else:
        applied = np.column_stack(point_torque_law(grip)(*trig,
                                                         *row_forces.T))

    m22, m33, mass = _mass_law(params)
    m11, m23, *_ = mass(c2t, s2t, c3t, s3t)
    e_kin = _kinetic(m11, m22, m23, m33, w1, w2, w3)
    e_pot = potential_sum(params, springs, th2, s2t, th3, s3t, np.sqrt,
                          np.maximum)
    pot, kin = compliance.energy(mount[:, :2], mount[:, 2:])
    # a column add, not sum(axis=1), which reduces a strided view row by row
    e_pot += pot[:, 0] + pot[:, 1]
    e_kin += kin[:, 0] + kin[:, 1]
    return SimResult(t, states[:, 0:3], states[:, 3:6], spoon, handle,
                     mount[:, 0:2], mount[:, 2:4], applied, e_kin, e_pot,
                     states[:, 6])


def _playback_states(params: MechanismParams,
                     trajectory: PrescribedTrajectory, t: np.ndarray,
                     dt: float) -> np.ndarray:
    """Packed arm states of a playback at times `t`, dt apart: IK of the
    interpolated waypoints, rates by finite differences, no dissipation."""
    wps = np.array(trajectory.waypoints)
    # np.interp holds the end waypoints outside their time span
    path = (np.interp(t, wps[:, 0], wps[:, i]) for i in (1, 2, 3))
    states = np.zeros((len(t), 7))
    states[:, :3] = inverse_kinematics_path(params, t, *path)
    states[:, 3:6] = np.gradient(states[:, :3], dt, axis=0)
    return states


# ---------------------------------------------------------------------------
# compliant-mount contact study


def spoon_contact_response(compliance: ComplianceSpec, impulse: float,
                           dt: float = DEFAULT_TIMESTEP,
                           duration: float = CONTACT_HORIZON
                           ) -> ContactResponse:
    """Response of the utensil mount to an impulse torque (N*m*s).

    Compliant mode solves one deflection axis exactly on the grid of dt
    and reports the peak reaction torque |k_r*d + c_r*d'|, the settling
    time into the recenter tolerance, and whether recentering happened
    within the horizon; a peak on the impulse row is model-dependent. Rigid
    mode has no deflection dynamics; as the comparison value it reports
    the impulse spread over one timestep, model-dependent as it scales
    with 1/dt.

    dt and duration follow a scenario's grid rule, and `compliance` is a
    ComplianceSpec, or this raises ValueError, and a compliant mount needs
    omega_n*dt < pi, or this raises TimestepTooCoarseError. A deflection
    beyond the validity limit raises DeflectionExceededError naming the
    time of the first breach.
    """
    instance(compliance, ComplianceSpec, "compliance")
    impulse, dt = number(impulse, "impulse"), number(dt, "timestep", "> 0")
    n = _grid_steps(real(duration, "duration"), dt)
    if compliance.mode is ComplianceMode.RIGID:
        return ContactResponse(peak_torque=abs(impulse) / dt,
                               settling_time=0.0, recentered=True,
                               model_dependent=True)

    rows = _mount_rows(compliance, 0.0, impulse * (1.0 / compliance.inertia),
                       n, dt)
    t = np.arange(n) * dt
    _check_deflection(compliance, t, rows[:, :1])

    d, v, _ = rows.T
    torque = np.abs(compliance.stiffness * d + compliance.damping * v)
    peak = float(torque.max())
    settling = settling_time(np.abs(d) >= compliance.recenter_tolerance, t)
    return ContactResponse(peak_torque=peak, settling_time=settling,
                           recentered=settling < math.inf,
                           model_dependent=bool(0.0 < peak == torque[0]))
