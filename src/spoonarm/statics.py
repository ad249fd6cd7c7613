"""Gravity torques, balancing-spring models, and spring synthesis.

The parallelogram transmission decouples the two lifted joints: each
gravity torque depends only on its own absolute angle,

    tau_g2 = -g * cos(theta2) * L1 * (c1*m1 + m2 + m_p)
    tau_g3 = -g * cos(theta3) * L2 * (c2*m2 + m_p)

so each joint can be balanced independently by one spring anchored at the
base. Three spring models are supported:

- linear zero-free-length: the classical idealization. With the base
  anchor a directly above the joint and the attachment at radius b on the
  bar, the stored energy is 0.5*k*l^2 with l^2 = a^2 + b^2 - 2ab sin(theta),
  giving torque +k*a*b*cos(theta), which cancels the gravity cosine exactly
  when k*a*b matches the gravity coefficient.
- linear real: the same geometry with a nonzero free length l0; the
  cancellation is then only approximate and the stiffness is fitted
  numerically.
- torsion: plain rotational spring about the joint, the scheme this
  design moved away from; a line can't follow a cosine, which is exactly
  what the synthesis comparison quantifies.

Sign convention: all torques returned here are the torques the element
exerts on the joint (negative potential gradient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._law import Law, law_sum
from .errors import InfeasibleBoundsError
from .kinematics import (JointState, Joint, MechanismParams, as_member,
                         handle_jacobian, number_fields, spec_tuple)

GRID_SAMPLES = 181          # minimax grid over a joint range
GOLDEN_REL_TOL = 1e-10      # relative bracket convergence for stiffness fits
ANCHOR_RADIUS_M = 0.1       # a synthesized linear spring's base anchor
BAR_RADIUS_M = 0.05         # and its attachment radius on the bar
FREE_LENGTH_M = 0.005       # a synthesized real spring's free length


class SpringKind(Enum):
    LINEAR_ZERO_FREE_LENGTH = "linear_zero_free_length"
    LINEAR_REAL = "linear_real"
    TORSION = "torsion"


@dataclass(frozen=True)
class SpringSpec:
    """One balancing spring acting on J2 or J3.

    stiffness is N/m for the linear kinds and N*m/rad for torsion.
    anchor_radius is the base anchor's distance above the joint axis,
    bar_radius the attachment radius on the rotating bar; both apply to
    the linear kinds only. free_length applies to the real linear kind,
    torsion_neutral to the torsion kind. Each number is stored as a float.
    """

    kind: SpringKind
    joint: Joint
    stiffness: float
    anchor_radius: float = 0.0
    bar_radius: float = 0.0
    free_length: float = 0.0
    torsion_neutral: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", as_member(SpringKind, self.kind,
                                                   "kind"))
        object.__setattr__(self, "joint", as_member(Joint, self.joint,
                                                    "joint"))
        if self.joint not in (Joint.J2, Joint.J3):
            raise ValueError("springs act on J2 or J3 only")
        torsion = self.kind is SpringKind.TORSION
        number_fields(self, ">= 0", "stiffness", "free_length")
        number_fields(self, "finite" if torsion else "> 0", "anchor_radius",
                      "bar_radius")
        number_fields(self, "finite", "torsion_neutral")
        if torsion:
            # torsion springs have no geometry fields; keeping them zeroed
            # lets the config format store each kind losslessly
            if (self.anchor_radius != 0.0 or self.bar_radius != 0.0
                    or self.free_length != 0.0):
                raise ValueError(
                    "torsion springs take no anchor/bar/free-length geometry")
        else:
            if self.torsion_neutral != 0.0:
                raise ValueError(
                    "torsion_neutral applies to torsion springs only")
            if (self.kind is SpringKind.LINEAR_ZERO_FREE_LENGTH
                    and self.free_length != 0.0):
                raise ValueError(
                    "zero-free-length springs must have free_length == 0")


@dataclass(eq=False)
class TorqueProfile:
    """Torques on one joint over its angle range: gravity's, the springs'
    summed, and their sum `torques`, the residual, computed once here."""

    joint: Joint
    angles: np.ndarray
    gravity: np.ndarray
    spring: np.ndarray
    torques: np.ndarray = field(init=False)

    def __post_init__(self):
        self.angles, self.gravity, self.spring = (
            np.asarray(column, dtype=float)
            for column in (self.angles, self.gravity, self.spring))
        if not self.angles.shape == self.gravity.shape == self.spring.shape:
            raise ValueError("angles, gravity and spring must have the same "
                             "length")
        if np.any(np.diff(self.angles) <= 0.0):
            raise ValueError("angles must be strictly increasing")
        self.torques = self.gravity + self.spring

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.torques)))


@dataclass(frozen=True)
class BalanceResult:
    """Synthesis output: one spring per lifted joint plus residual reports."""

    spring_j2: SpringSpec
    spring_j3: SpringSpec
    residual_j2: TorqueProfile
    residual_j3: TorqueProfile

    @property
    def springs(self) -> tuple:
        return (self.spring_j2, self.spring_j3)

    @property
    def max_residual(self) -> float:
        return max(self.residual_j2.max_abs, self.residual_j3.max_abs)


# ---------------------------------------------------------------------------
# gravity


def gravity_coefficients(params: MechanismParams) -> tuple[float, float]:
    """(A2, A3) such that tau_gi = -g * Ai * cos(theta_i)."""
    a2 = params.link1_length * (params.com_fraction1 * params.mass_link1
                                + params.mass_link2 + params.mass_payload)
    a3 = params.link2_length * (params.com_fraction2 * params.mass_link2
                                + params.mass_payload)
    return a2, a3


def _gravity_scale(params: MechanismParams, joint: Joint) -> float:
    """g*A of a lifted joint: the amplitude of gravity's torque on it."""
    return params.gravity * gravity_coefficients(params)[joint - 1]


_GRAVITY_TORQUE = """
def torque(c):
    return -g_a * c
"""


def gravity_laws(params: MechanismParams, joint: Joint):
    """Gravity's laws on one lifted joint, floats or arrays: the torque
    Law -g*A*c at the cosine c of its angle (_GRAVITY_TORQUE), and the
    potential g*A*s at its sine s above the masses' rest at the base
    height (see potential_sum)."""
    g_a = _gravity_scale(params, joint)
    return Law(_GRAVITY_TORQUE, g_a=g_a), (lambda s: g_a * s)


def gravity_torque(params: MechanismParams,
                   state: JointState) -> tuple[float, float]:
    """Gravity torques (tau_g2, tau_g3) at the two lifted joints."""
    return tuple(gravity_laws(params, joint)[0](math.cos(state.q[joint]))
                 for joint in (Joint.J2, Joint.J3))


def gravity_potential(params: MechanismParams, state: JointState) -> float:
    """Total gravitational potential of the three lumped masses."""
    return potential_energy(params, (), state)


# ---------------------------------------------------------------------------
# spring models


# the spring laws' templates: each takes floats, or numpy arrays with
# sqrt=np.sqrt and maximum=np.maximum

_SPRING_LENGTH = Law("""
def length(a2b2, two_ab, s, sqrt=sqrt, maximum=max):
    return sqrt(maximum(a2b2 - two_ab * s, 0.0))
""")    # with a2b2 = a^2 + b^2 and two_ab = 2ab, at bar-angle sine s

_NO_SPRING = Law("""
def no_spring(angle, c, s, sqrt=sqrt, maximum=max):
    return 0.0 * abs(angle)     # +0.0, a float or a column like angle
""")

_TORSION_TORQUE = """
def torque(angle, c, s, sqrt=sqrt, maximum=max):
    return neg_k * (angle - neutral)
"""

_TORSION_POTENTIAL = """
def potential(angle, s, sqrt=sqrt, maximum=max):
    d = angle - neutral
    return half_k * d * d
"""

_ZERO_FREE_LENGTH_TORQUE = """
def torque(angle, c, s, sqrt=sqrt, maximum=max):
    return kab * c
"""

# real linear spring: tau = -k (l - l0) dl/dtheta, dl/dtheta = -ab cos/l;
# below 1e-12 the anchor and attachment coincide (a == b, bar vertical):
# the force direction is undefined, the torque limit 0
_REAL_TORQUE = """
def torque(angle, c, s, sqrt=sqrt, maximum=max):
    l = length(a2b2, two_ab, s, sqrt, maximum)
    return (l >= 1e-12) * (k * (l - l0) * ab * c / maximum(l, 1e-12))
"""

# both linear kinds; l0 = 0 for the zero-free-length kind
_LINEAR_POTENTIAL = """
def potential(angle, s, sqrt=sqrt, maximum=max):
    l = length(a2b2, two_ab, s, sqrt, maximum)
    stretch = l - l0
    return half_k * stretch * stretch
"""


def spring_laws(spec: SpringSpec) -> tuple[Law, Law]:
    """The torque and potential Laws of one spring, its constants bound.

    torque(angle, c, s, sqrt=math.sqrt, maximum=max) is the torque the
    spring exerts on its joint at the bar angle, given with its cosine c
    and sine s; potential(angle, s, sqrt=math.sqrt, maximum=max) is the
    elastic energy stored there. Both take floats, or numpy arrays with
    numpy's sqrt and maximum, for a whole column in one pass. Each kind's
    laws are stated once, as the templates above.
    """
    k = spec.stiffness
    half_k = 0.5 * k
    if spec.kind is SpringKind.TORSION:
        neutral = spec.torsion_neutral
        return (Law(_TORSION_TORQUE, neg_k=-k, neutral=neutral),
                Law(_TORSION_POTENTIAL, half_k=half_k, neutral=neutral))
    a, b, l0 = spec.anchor_radius, spec.bar_radius, spec.free_length
    ab, a2b2, two_ab = a * b, a * a + b * b, 2.0 * a * b
    if spec.kind is SpringKind.LINEAR_ZERO_FREE_LENGTH:
        torque = Law(_ZERO_FREE_LENGTH_TORQUE, kab=k * ab)
    else:
        torque = Law(_REAL_TORQUE, {"length": _SPRING_LENGTH}, a2b2=a2b2,
                     two_ab=two_ab, k=k, l0=l0, ab=ab)
    return torque, Law(_LINEAR_POTENTIAL, {"length": _SPRING_LENGTH},
                       a2b2=a2b2, two_ab=two_ab, l0=l0, half_k=half_k)


def spring_torque(spec: SpringSpec, angle: float) -> float:
    """Torque the spring exerts on its joint at the given bar angle."""
    torque, _ = spring_laws(spec)
    return torque(angle, math.cos(angle), math.sin(angle))


def spring_potential(spec: SpringSpec, angle: float) -> float:
    """Elastic energy stored in the spring at the given bar angle."""
    _, potential = spring_laws(spec)
    return potential(angle, math.sin(angle))


def spring_sum(springs, joint: Joint) -> Law:
    """The summed torque Law of the springs on `joint`, called as a
    spring_laws torque, the laws bound once (_law.law_sum): +0.0 at every
    angle for no spring. `springs` is a tuple or a list, as each joint's
    sum reads it again."""
    return law_sum((spring_laws(spec)[0] for spec in springs
                    if spec.joint == joint), _NO_SPRING)


def spring_joint_torques(springs, state: JointState) -> tuple[float, float, float]:
    """Summed spring torque per joint as a (0, tau2, tau3) triple."""
    springs = spec_tuple(springs, SpringSpec, "springs")
    return tuple(spring_sum(springs, joint)(q, math.cos(q), math.sin(q))
                 for joint, q in zip(Joint, state.q))


def potential_sum(params: MechanismParams, springs, th2, s2t, th3, s3t,
                  sqrt=math.sqrt, maximum=max):
    """Gravity's plus each spring's potential at the lifted joints' angles
    th2, th3 and sines: floats, or arrays with numpy's sqrt and maximum.
    `springs` is a tuple or a list, as a rollout's stage read it before."""
    at = {Joint.J2: (th2, s2t), Joint.J3: (th3, s3t)}
    v = params.gravity * params.base_height * (
        params.mass_link1 + params.mass_link2 + params.mass_payload)
    for joint, (_, s) in at.items():
        v = v + gravity_laws(params, joint)[1](s)
    for spec in springs:
        v = v + spring_laws(spec)[1](*at[spec.joint], sqrt, maximum)
    return v


def potential_energy(params: MechanismParams, springs,
                     state: JointState) -> float:
    """Gravitational plus spring elastic energy."""
    _, th2, th3 = state.q
    springs = spec_tuple(springs, SpringSpec, "springs")
    return potential_sum(params, springs, th2, math.sin(th2), th3,
                         math.sin(th3))


def torque_columns(params: MechanismParams, springs, joint: Joint, angles):
    """(tau_gravity, tau_spring): gravity's torque and the springs' summed
    torque on `joint` over the numpy array `angles` of its angle.
    `springs` is a tuple or a list, as each joint's columns read it again."""
    cos = np.cos(angles)
    return (gravity_laws(params, joint)[0](cos),
            spring_sum(springs, joint)(angles, cos, np.sin(angles), np.sqrt,
                                       np.maximum))


# ---------------------------------------------------------------------------
# synthesis


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section argmin of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while (hi - lo) > GOLDEN_REL_TOL * max(1.0, abs(hi)):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _synthesize_joint(params: MechanismParams, joint: Joint,
                      kind: SpringKind) -> SpringSpec:
    lo, hi = params.joint_limits[joint]
    if not hi > lo:
        raise InfeasibleBoundsError(f"joint range for {joint.key} is degenerate")
    g_a = _gravity_scale(params, joint)
    a, b = ANCHOR_RADIUS_M, BAR_RADIUS_M
    if kind is SpringKind.LINEAR_ZERO_FREE_LENGTH:
        return SpringSpec(kind, joint, g_a / (a * b), a, b)
    if kind is SpringKind.TORSION:
        unit, k_hi = SpringSpec(kind, joint, 1.0), 4.0 * g_a + 1.0
    else:
        unit = SpringSpec(kind, joint, 1.0, a, b, FREE_LENGTH_M)
        k_hi = 4.0 * g_a / (a * b) + 1.0
    # the residual torque at stiffness k is tau_g + k * shape
    tau_g, shape = torque_columns(params, (unit,), joint,
                                  np.linspace(lo, hi, GRID_SAMPLES))
    if kind is SpringKind.LINEAR_REAL:
        k = _golden_min(lambda kk: float(np.max(np.abs(tau_g + kk * shape))),
                        0.0, k_hi)
        return SpringSpec(kind, joint, k, a, b, FREE_LENGTH_M)

    # for fixed k the best neutral angle centers the residual band,
    # leaving half the band width as the minimax residual
    def band(kk):
        h = tau_g + kk * shape
        return 0.5 * float(h.max() - h.min())

    k = _golden_min(band, 0.0, k_hi)
    h = tau_g + k * shape
    center = -0.5 * float(h.max() + h.min())     # the band's, sign flipped
    neutral = center / k if k > 0.0 else 0.5 * (lo + hi)
    return SpringSpec(kind, joint, k, torsion_neutral=neutral)


def synthesize_balancing(params: MechanismParams,
                         kind: SpringKind) -> BalanceResult:
    """Fit one spring of the given kind per lifted joint.

    A linear spring is anchored ANCHOR_RADIUS_M above the joint and
    attached BAR_RADIUS_M out on the bar, and a real one has free length
    FREE_LENGTH_M; only the stiffness is searched (the torque law depends
    on the anchors through the product k*a*b, so freeing them adds
    nothing). Zero-free-length springs have the closed-form exact solution
    k*a*b = g*A_joint; the real and torsion kinds minimize the worst
    absolute residual over a 181-point grid of the joint range by
    golden-section search (the objective is unimodal in k).

    `kind` is a SpringKind or its value string; anything else raises
    ValueError naming `kind`. A degenerate joint range raises
    InfeasibleBoundsError.
    """
    kind = as_member(SpringKind, kind, "kind")
    springs = tuple(_synthesize_joint(params, joint, kind)
                    for joint in (Joint.J2, Joint.J3))
    return BalanceResult(*springs, *residual_torque_profile(params, springs))


def residual_torque_profile(params: MechanismParams, springs,
                            ) -> tuple[TorqueProfile, TorqueProfile]:
    """Gravity's and the summed springs' torque columns over each lifted
    joint's range, with their sum, the residual."""
    springs = spec_tuple(springs, SpringSpec, "springs")
    profiles = []
    for joint in (Joint.J2, Joint.J3):
        lo, hi = params.joint_limits[joint]
        grid = np.linspace(lo, hi, GRID_SAMPLES if hi > lo else 1)
        profiles.append(TorqueProfile(
            joint, grid, *torque_columns(params, springs, joint, grid)))
    return tuple(profiles)


def holding_force(params: MechanismParams, springs,
                  state: JointState) -> np.ndarray:
    """Handle force that holds the mechanism still at the given pose.

    Solves J_handle^T F = -(tau_gravity + tau_spring). Uses a least-squares
    solve so a singular pose returns the minimum-norm force instead of
    blowing up.
    """
    residual = np.add((0.0, *gravity_torque(params, state)),
                      spring_joint_torques(springs, state))
    jt = handle_jacobian(params, state).T
    force, *_ = np.linalg.lstsq(jt, -residual, rcond=None)
    return force
