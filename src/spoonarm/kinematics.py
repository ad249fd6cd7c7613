"""Geometry of the 3-DoF arm: a vertical-axis base joint carrying a planar
two-link chain whose links are doubled as parallelograms.

Conventions used throughout the package:

- The table frame has z up and its origin on the J1 axis at table level.
- J1 rotates the whole arm about the vertical axis by phi1 (yaw).
- theta2 and theta3 are measured from the horizontal, positive upward.
  Because the links are parallelogram pairs, both angles are absolute
  (each is driven relative to the base, not relative to the previous
  link), and heights read as plain sums of sines.
- The parallelograms keep every carried frame at constant pitch and roll,
  so the spoon and the handle translate without tilting; their yaw tracks
  phi1. That constraint is encoded by construction: poses are built with
  pitch = roll = 0 rather than integrated.

Two handle arrangements are modeled. The original one fixes the handle at
the outer end of the second link, so the handle travels exactly as far as
the utensil. The revised one attaches the handle bracket inside the second
parallelogram at radius d_h < L2 from the mid joint, which scales the
handle's vertical travel by roughly d_h/L2 while the utensil still moves
the full distance. The bracket itself is an L-shaped piece described by a
signed vertical drop and a signed lateral offset toward the user; the
lateral offset mirrors with handedness.

Tip and grip are two points of one radial chain (spoon_point and
handle_point): point_position gives a point's position (point_plane
its radius and height in the arm's plane, point_turn that radius turned
about J1), and point_torque_law binds a point's coefficients once into
the law of the joint torques J^T F of a force there, whose yaw row is
the force's moment at that same position.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum, IntEnum
from numbers import Real

import numpy as np

from ._law import Law
from .errors import LimitViolationError, UnreachableError

TWO_PI = 2.0 * math.pi
# IK accepts an angle this close outside a joint limit and returns it on
# the limit: FK and IK of a pose on a limit round-trip to within ~1e-14 rad
IK_LIMIT_TOL = 1e-12


class Joint(IntEnum):
    """Joint identifiers; the int value indexes q and joint_limits."""

    J1 = 0
    J2 = 1
    J3 = 2

    @property
    def key(self) -> str:
        return self.name.lower()


def integer(value, name: str, least: int = 0) -> int:
    """`value` as a plain int of at least `least`: any integer, numpy
    integers included, but not a bool; else ValueError naming `name`."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value >= least:
                return value
    raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


def as_member(enum, value, name: str):
    """A member of `enum`, or its value (an integer for an IntEnum such as
    Joint, a string otherwise), as the member; anything else raises
    ValueError naming the field `name`."""
    try:
        return enum(integer(value, name) if issubclass(enum, int) else value)
    except (ValueError, TypeError):
        values = ", ".join(repr(member.value) for member in enum)
        raise ValueError(f"{name} must be a {enum.__name__} or one of "
                         f"{values}, not {value!r}") from None


def instance(value, kind, name: str):
    """`value` if it is a `kind`, else ValueError naming the field `name`."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, not {value!r}")
    return value


def sequence(values, name: str, read) -> tuple:
    """Any iterable `values` read once into a tuple, entry i read as
    read(value, "name[i]"); else ValueError naming `name`."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be iterable, not {values!r}") from None
    return tuple([read(value, f"{name}[{i}]")
                  for i, value in enumerate(values)])


def spec_tuple(values, spec, name: str) -> tuple:
    """The sequence of `spec`s `values`: a build's springs or dampers."""
    return sequence(values, name, lambda value, at: instance(value, spec, at))


def real(value, name: str) -> float:
    """`value`, any real number, as a float: a bool as 0 or 1, a numpy
    float32 at its own value; else ValueError naming `name`."""
    if value.__class__ is float:
        return value
    if not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:    # an integer beyond the floats
        return math.inf if value > 0 else -math.inf


def number(value, name: str, rule: str = "finite") -> float:
    """`value`, any real number, as a float that is finite and meets `rule`,
    "finite", ">= 0" or "> 0"; else ValueError starting with `name`."""
    value = real(value, name)
    if math.isfinite(value) and (value > 0.0 or rule == "finite"
                                 or rule == ">= 0" and value == 0.0):
        return value
    text = rule if rule == "finite" else f"{rule} and finite"
    raise ValueError(f"{name} must be {text}, not {value!r}")


def numbers(values, name: str) -> tuple:
    """Any iterable `values` read once into a tuple of finite floats; an
    entry that is not a real number raises ValueError naming `name[i]`,
    one that is not finite names `name` and shows the tuple."""
    values = sequence(values, name, real)
    if all(map(math.isfinite, values)):
        return values
    raise ValueError(f"{name} must be finite, not {values!r}")


def number_fields(spec, rule: str, *names: str):
    """Read the fields `names` of the frozen dataclass `spec` with number
    under `rule`, each stored as the float read."""
    fields = vars(spec)
    fields.update({name: number(fields[name], name, rule) for name in names})


# The handle can be clamped at five discrete spin angles about its own axis.
# Spinning the handle has no effect on any position, only on the handle
# frame's yaw, so these are plain yaw offsets.
HANDLE_ANGLE_OFFSETS_RAD = tuple(
    math.radians(d) for d in (-30.0, -15.0, 0.0, 15.0, 30.0)
)


class HandleVariant(Enum):
    OLD_TIP = "old_tip"
    NEW_INBOARD = "new_inboard"


class Handedness(Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class MechanismParams:
    """Full geometric and inertial description of one arm build.

    Lengths in m, masses in kg, angles in rad, each number stored as the
    float number reads. Joint limits are (min, max) pairs for (phi1,
    theta2, theta3); a degenerate pair (min == max) pins the joint, which
    is occasionally useful for workspace slices.
    """

    base_height: float = 0.10       # height of J2 above the table
    base_offset: float = 0.05       # horizontal offset of J2 from the J1 axis
    link1_length: float = 0.25
    link2_length: float = 0.25
    spoon_offset: float = 0.08      # utensil tip beyond the L2 end, radial
    handle_variant: HandleVariant = HandleVariant.NEW_INBOARD
    handle_distance: float = 0.16   # bracket radius from J3, 0 < d_h <= L2
    bracket_drop: float = -0.04     # signed vertical handle offset
    bracket_lateral: float = 0.06   # signed lateral offset, mirrored by handedness
    handedness: Handedness = Handedness.RIGHT
    handle_angle_index: int = 2     # one of the five discrete handle spins
    joint_limits: tuple = (
        (-math.pi, math.pi),
        (-0.35, 2.0),
        (-1.75, 1.4),
    )
    mass_link1: float = 0.35        # link 1 plus its parallelogram share
    mass_link2: float = 0.30        # link 2 plus carried bars, lumped
    mass_payload: float = 0.10      # spoon + compliant attachment
    com_fraction1: float = 0.5      # COM position along link 1, in (0, 1]
    com_fraction2: float = 0.5
    gravity: float = 9.81

    def __post_init__(self):
        for name, enum in (("handle_variant", HandleVariant),
                           ("handedness", Handedness)):
            object.__setattr__(self, name,
                               as_member(enum, getattr(self, name), name))
        if self.handle_variant is HandleVariant.OLD_TIP:
            # the old design rides the outer end of link 2, always
            object.__setattr__(self, "handle_distance", self.link2_length)
        number_fields(self, "finite", "bracket_drop", "bracket_lateral",
                      "gravity")
        number_fields(self, "> 0", "base_height", "base_offset",
                      "link1_length", "link2_length", "spoon_offset",
                      "handle_distance", "com_fraction1", "com_fraction2")
        number_fields(self, ">= 0", "mass_link1", "mass_link2",
                      "mass_payload")
        if not self.handle_distance <= self.link2_length:
            raise ValueError("handle_distance must satisfy 0 < d_h <= L2")
        for name in ("com_fraction1", "com_fraction2"):
            if not getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        index = integer(self.handle_angle_index, "handle_angle_index")
        if index not in range(5):
            raise ValueError("handle_angle_index must be one of 0..4")
        object.__setattr__(self, "handle_angle_index", index)
        limits = sequence(self.joint_limits, "joint_limits", numbers)
        if len(limits) != 3 or any(len(pair) != 2 or not pair[0] <= pair[1]
                                   for pair in limits):
            raise ValueError("joint_limits needs one (min, max) pair per "
                             f"joint, min <= max, not {limits}")
        object.__setattr__(self, "joint_limits", limits)

    @property
    def max_radial_reach(self) -> float:
        return (self.base_offset + self.link1_length + self.link2_length
                + self.spoon_offset)

    def within_limits(self, q) -> bool:
        return all(lo <= qi <= hi
                   for qi, (lo, hi) in zip(q, self.joint_limits))


@dataclass(frozen=True)
class JointState:
    """Coordinates (phi1, theta2, theta3) and their rates, as floats."""

    q: tuple = (0.0, 0.0, 0.0)
    qdot: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        q, qdot = numbers(self.q, "q"), numbers(self.qdot, "qdot")
        if len(q) != 3 or len(qdot) != 3:
            raise ValueError("JointState needs exactly three coordinates")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qdot)


@dataclass(frozen=True)
class Pose:
    """Cartesian position plus the carried frame's orientation.

    pitch and roll are identically 0 for every pose this mechanism can
    produce; they are kept as explicit fields so downstream reports do not
    need to know that.
    """

    x: float
    y: float
    z: float
    pitch: float = 0.0
    roll: float = 0.0
    yaw: float = 0.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def radial(self) -> float:
        return math.hypot(self.x, self.y)


def _bracket_lateral(params: MechanismParams) -> float:
    """Signed lateral offset of the handle bracket."""
    # right-handed builds offset the handle to +y at phi1 = 0, left-handed
    # builds are the mirror image
    sign = 1.0 if params.handedness is Handedness.RIGHT else -1.0
    return sign * params.bracket_lateral


def spoon_point(params: MechanismParams) -> tuple:
    """The utensil tip's point_position coefficients: reach L2, the spoon
    offset in the radial offset, no bracket."""
    return (params.base_offset + params.spoon_offset, params.link1_length,
            params.link2_length, 0.0, params.base_height, 0.0)


def handle_point(params: MechanismParams) -> tuple:
    """The handle grip's point_position coefficients: reach d_h, then the
    bracket's lateral offset and drop."""
    return (params.base_offset, params.link1_length, params.handle_distance,
            _bracket_lateral(params), params.base_height, params.bracket_drop)


def point_position(point, cp, sp, c2t, s2t, c3t, s3t):
    """(x, y, z) of a point of the radial chain from the cosines and sines
    of (phi1, theta2, theta3). `point` holds its radial offset, L1, reach
    along link 2, lateral offset, J2 height and drop. Plain arithmetic,
    so the trigonometry may be floats or numpy arrays: point_plane, then
    point_turn."""
    r, z = point_plane(point, c2t, s2t, c3t, s3t)
    return (*point_turn(point, r, cp, sp), z)


def point_plane(point, c2t, s2t, c3t, s3t):
    """(r, z) of a point in the arm's vertical plane, from the cosines and
    sines of (theta2, theta3): its radius along the arm, before the
    lateral offset, and its height, which no yaw changes."""
    a, L1, reach, _, height, drop = point
    return a + L1 * c2t + reach * c3t, height + L1 * s2t + reach * s3t + drop


def point_turn(point, r, cp, sp):
    """(x, y) of a point at plane radius r, turned about J1 by the yaw of
    cosine cp and sine sp, its lateral offset across the arm."""
    b = point[3]
    return r * cp - b * sp, r * sp + b * cp


# the lifted joints' levers of a vertical force at a point: the z column
# of its Jacobian, the joint torques per newton of fz
_POINT_LEVERS = """
def levers(c2t, c3t):
    u2 = L1 * c2t
    u3 = reach * c3t
    return u2, u3
"""

# the yaw torque is the force's moment about the vertical J1 axis, at
# point_position's x and y, computed with its operations; each link
# product is shared, as (-L)*s == -(L*s) exactly
_POINT_TORQUES = """
def torques(cp, sp, c2t, s2t, c3t, s3t, fx, fy, fz):
    u2, u3 = levers(c2t, c3t)
    v2 = L1 * s2t
    v3 = reach * s3t
    r = a + u2 + u3
    x = r * cp - b * sp
    y = r * sp + b * cp
    return (x * fy - y * fx,
            -v2 * cp * fx - v2 * sp * fy + u2 * fz,
            -v3 * cp * fx - v3 * sp * fy + u3 * fz)
"""


def point_torque_law(point) -> Law:
    """The joint-torque Law torques(cp, sp, c2t, s2t, c3t, s3t, fx, fy, fz)
    of `point`, its coefficients bound: J^T F of the force (fx, fy, fz)
    there, the trigonometry as for point_position, floats or numpy arrays.
    This is the one definition of a point's Jacobian, _POINT_TORQUES:
    jacobian and handle_jacobian read their rows off it, and the RK4 step
    splices it. Its z column is its bound Law "levers",
    levers(c2t, c3t) -> (u2, u3) (_POINT_LEVERS), which the RK4 step
    also splices alone for a vertical force."""
    a, L1, reach, b, _, _ = point
    return Law(_POINT_TORQUES,
               {"levers": Law(_POINT_LEVERS, L1=L1, reach=reach)},
               a=a, L1=L1, reach=reach, b=b)


def _trig(q):
    """(cos phi1, sin phi1, cos theta2, sin theta2, cos theta3, sin theta3)."""
    phi1, th2, th3 = q
    return (math.cos(phi1), math.sin(phi1), math.cos(th2), math.sin(th2),
            math.cos(th3), math.sin(th3))


def spoon_pose(params: MechanismParams, state: JointState) -> Pose:
    """Pose of the utensil tip."""
    x, y, z = point_position(spoon_point(params), *_trig(state.q))
    return Pose(x=x, y=y, z=z, yaw=state.q[0])


def handle_pose(params: MechanismParams, state: JointState) -> Pose:
    """Pose of the handle grip point for the configured variant.

    The bracket radius d_h replaces L2 in the radial chain (for the old
    variant d_h == L2, so the handle rides the utensil point), then the
    constant-orientation bracket offsets are added: bracket_drop on height
    and bracket_lateral perpendicular to the arm plane, mirrored for
    left-handed builds. The discrete handle spin shows up in yaw only.
    """
    x, y, z = point_position(handle_point(params), *_trig(state.q))
    yaw = state.q[0] + HANDLE_ANGLE_OFFSETS_RAD[params.handle_angle_index]
    return Pose(x=x, y=y, z=z, yaw=yaw)


def forward_kinematics(params: MechanismParams,
                       state: JointState) -> tuple[Pose, Pose]:
    """Spoon and handle poses for one joint state."""
    return spoon_pose(params, state), handle_pose(params, state)


def _point_jacobian(point, q) -> np.ndarray:
    """3x3 Jacobian at q of the point with these coefficients."""
    trig, torques = _trig(q), point_torque_law(point)
    # row i of J is J^T e_i
    return np.array([torques(*trig, *unit)
                     for unit in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                  (0.0, 0.0, 1.0))])


def jacobian(params: MechanismParams, state: JointState) -> np.ndarray:
    """3x3 analytic Jacobian of the spoon position wrt q."""
    return _point_jacobian(spoon_point(params), state.q)


def handle_jacobian(params: MechanismParams, state: JointState) -> np.ndarray:
    """3x3 analytic Jacobian of the handle position; maps handle forces to
    joint torques through its transpose."""
    return _point_jacobian(handle_point(params), state.q)


def _libm(f, *arrays):
    """The math function f over 1-D arrays, entry by entry: libm's bits
    on any CPU, where numpy's own functions round by their SIMD dispatch."""
    return np.fromiter(map(f, *(a.tolist() for a in arrays)), float)


def _wrap_angle(a):
    """Wrap an array of angles to (-pi, pi]."""
    a = np.fmod(a + math.pi, TWO_PI)
    return a + TWO_PI * (a <= 0.0) - math.pi


def _solve_ik(params: MechanismParams, x, y, z, at) -> np.ndarray:
    """(n, 3) joint angles of inverse_kinematics for the 1-D arrays of
    target coordinates (x, y, z): the branch the joint limits admit,
    elbow-up first. An angle within IK_LIMIT_TOL outside its limits
    counts as inside and is returned on the limit.

    hypot, atan2, acos, sin and cos are math's, so every row has the
    bits of a one-target solve on any CPU. The first row k outside the
    annulus or inside no joint limits raises UnreachableError or
    LimitViolationError, the message ended by at(k).
    """
    a, L1, L2, _, height, _ = spoon_point(params)
    radial = _libm(math.hypot, x, y)
    phi1 = np.where(radial > 0.0, _libm(math.atan2, y, x), 0.0)
    u = radial - a
    w = z - height
    d = _libm(math.hypot, u, w)
    unreachable = (d > L1 + L2 + 1e-12) | (d < abs(L1 - L2) - 1e-12)
    cos_gamma = (d * d + L1 * L1 - L2 * L2) / (2.0 * L1 * np.maximum(d, 1e-12))
    gamma = _libm(math.acos, np.minimum(1.0, np.maximum(-1.0, cos_gamma)))
    psi = _libm(math.atan2, w, u)
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = params.joint_limits

    def within(angle, lo, hi):
        return (lo - IK_LIMIT_TOL <= angle) & (angle <= hi + IK_LIMIT_TOL)

    def branch(rows, th2):
        th3 = _wrap_angle(_libm(math.atan2,
                                w[rows] - L1 * _libm(math.sin, th2),
                                u[rows] - L1 * _libm(math.cos, th2)))
        th2 = _wrap_angle(th2)
        return th2, th3, within(th2, lo2, hi2) & within(th3, lo3, hi3)

    # elbow-up first; elbow-down only on the rows it leaves outside
    th2, th3, inside = branch(slice(None), psi + gamma)
    down = np.flatnonzero(~inside)
    if down.size:
        th2[down], th3[down], inside[down] = branch(
            down, psi[down] - gamma[down])
    th2 = np.minimum(np.maximum(th2, lo2), hi2)
    th3 = np.minimum(np.maximum(th3, lo3), hi3)
    # below 1e-12 the fold-back singularity (only possible when L1 == L2):
    # every theta2 works; take the straight-down fold
    fold = d < 1e-12
    th2 = np.where(fold, 0.0, th2)
    th3 = np.where(fold, math.pi, th3)
    inside = np.where(fold, (lo2 <= 0.0 <= hi2) & (lo3 <= math.pi <= hi3),
                      inside)
    bad = np.flatnonzero(unreachable | ~(within(phi1, lo1, hi1) & inside))
    if bad.size:
        k = bad[0]
        if unreachable[k]:
            raise UnreachableError(
                f"target at planar distance {d[k]:.6f} m is outside the "
                f"reachable annulus [{abs(L1 - L2):.6f}, {L1 + L2:.6f}]"
                f"{at(k)}")
        raise LimitViolationError(
            f"target reachable only outside the joint limits{at(k)}")
    return np.column_stack((np.minimum(np.maximum(phi1, lo1), hi1), th2, th3))


def inverse_kinematics(params: MechanismParams, target) -> JointState:
    """Joint angles that place the utensil tip at `target` (x, y, z).

    The base yaw comes straight from atan2 on the target's horizontal
    direction; the remaining planar two-link closure has the usual two
    branches. The elbow-up branch (mid joint above the chord from J2 to
    the target, equivalently theta2 >= theta3) is preferred; the other
    branch is used only when joint limits exclude the preferred one.

    Raises UnreachableError outside the annulus, LimitViolationError when
    the target is reachable but both branches violate joint limits, and
    ValueError for a target that is not three finite numbers.
    """
    target = numbers(target, "target")
    if len(target) != 3:
        raise ValueError(f"target needs three components, not {target}")
    q = _solve_ik(params, *np.array(target)[:, None], lambda k: "")
    return JointState(q=q[0].tolist())


def inverse_kinematics_path(params: MechanismParams, t, x, y,
                            z) -> np.ndarray:
    """(n, 3) joint angles of inverse_kinematics for the targets (x, y, z),
    1-D numpy arrays reached at times `t`, in one solve: each row has the
    bits inverse_kinematics gives for its target. The first row that is
    unreachable or inside no joint limits raises inverse_kinematics's
    error for it, naming the row's time.
    """
    return _solve_ik(params, x, y, z, lambda k: f" at t = {t[k]:.6f} s")
