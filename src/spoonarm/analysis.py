"""Design studies built on the kinematic and dynamic models.

This module answers the comparative questions: how far does the handle
travel versus the utensil for each attachment variant, what bracket
radius reproduces a target handle excursion, what volume can the utensil
reach, and how well a damper configuration suppresses an imposed
disturbance.

The plate-to-mouth feeding motion is modeled as a straight segment in the
vertical plane of the arm, discretized into IK waypoints. Straightness is
a modeling choice (a natural feeding arc is not straight); the excursion
numbers depend only on the path's endpoints anyway, since heights along
the chain are monotone in the interpolation parameter here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import SimResult, settling_time
from .errors import GridMismatchError, NotBracketedError, SpoonArmError
from .kinematics import (
    HandleVariant,
    JointState,
    MechanismParams,
    _solve_ik,
    _trig,
    handle_point,
    instance,
    integer,
    number,
    numbers,
    point_plane,
    point_turn,
    spoon_point,
)

# Not called here any more, but kept as attributes of this module:
# perfbench/tracer.py patches them here.
from .kinematics import forward_kinematics, inverse_kinematics  # noqa: F401

SETTLING_BAND_M = 0.005
PLATE_RADIUS_M = 0.35
PLATE_BAND_M = 0.01     # half-width of the plate's radial band


@dataclass(frozen=True)
class TrajectorySpec:
    """Plate-to-mouth path: straight in (r, z) at yaw 0, as float pairs."""

    plate: tuple = (PLATE_RADIUS_M, 0.02)   # (r, z), utensil over the plate
    mouth: tuple = (PLATE_RADIUS_M, PLATE_RADIUS_M)  # (r, z) at mouth height
    waypoints: int = 50

    def __post_init__(self):
        for name in ("plate", "mouth"):
            point = numbers(getattr(self, name), name)
            if len(point) != 2:
                raise ValueError(f"{name} must be two numbers (r, z), "
                                 f"not {point}")
            object.__setattr__(self, name, point)
        if not self.rise > 0.0:
            raise ValueError("mouth must sit above the plate")
        object.__setattr__(self, "waypoints",
                           integer(self.waypoints, "waypoints", 2))

    @property
    def rise(self) -> float:
        return self.mouth[1] - self.plate[1]

    def points(self) -> tuple:
        """Cartesian waypoints (x, y, z) of the utensil tip."""
        out = []
        for i in range(self.waypoints):
            u = i / (self.waypoints - 1)
            r = self.plate[0] + u * (self.mouth[0] - self.plate[0])
            z = self.plate[1] + u * (self.mouth[1] - self.plate[1])
            out.append((r, 0.0, z))
        return tuple(out)


class Excursion(NamedTuple):
    spoon_rise: float
    handle_rise: float
    ratio: float


@dataclass(frozen=True)
class StabilizationReport:
    """How far the utensil strayed from a reference motion."""

    rms_deviation: float
    attenuation: float
    settling_time: float
    peak_deviation: float


@dataclass(frozen=True)
class WorkspaceSummary:
    max_reach: float            # horizontal radial extremes of the cloud
    min_reach: float
    vertical_span: float
    plate_vertical_span: float  # z span within the plate-radius band
    covers_target_rise: bool


@dataclass(eq=False)
class WorkspaceSample:
    points: np.ndarray          # (n, 3) unique utensil positions
    summary: WorkspaceSummary


def _trajectory_q(params: MechanismParams,
                  trajectory: TrajectorySpec) -> list:
    """The rows (phi1, theta2, theta3) of IK along the trajectory, in one
    solve; the first waypoint k that IK rejects raises its error, ending
    " at waypoint k"."""
    x, y, z = np.array(trajectory.points()).T
    return _solve_ik(params, x, y, z, lambda k: f" at waypoint {k}").tolist()


def trajectory_states(params: MechanismParams,
                      trajectory: TrajectorySpec) -> tuple:
    """IK solutions along the trajectory; unreachable points propagate,
    naming the first one's waypoint."""
    return tuple(JointState(q=q) for q in _trajectory_q(params, trajectory))


def _trajectory_trig(params: MechanismParams,
                     trajectory: TrajectorySpec) -> np.ndarray:
    """The six _trig rows of the IK solutions along the trajectory, taken
    with math as forward_kinematics does, so heights from them match its
    poses bit for bit. IK never reads the handle: builds that differ
    only in their handle share these rows."""
    return np.array([_trig(q) for q in _trajectory_q(params, trajectory)]).T


def _rise(point, trig: np.ndarray) -> float:
    """Max minus min height of `point` over the _trajectory_trig rows."""
    z = point_plane(point, *trig[2:])[1]
    return float(z.max() - z.min())


def _excursion(params: MechanismParams, trig: np.ndarray) -> Excursion:
    spoon_rise = _rise(spoon_point(params), trig)
    handle_rise = _rise(handle_point(params), trig)
    return Excursion(spoon_rise, handle_rise, handle_rise / spoon_rise)


def handle_excursion(params: MechanismParams,
                     trajectory: TrajectorySpec) -> Excursion:
    """Vertical travel of utensil and handle over one feeding motion.

    Rises are max minus min height along the path, so constant bracket
    offsets cancel; the ratio is what the attachment variant changes.
    """
    return _excursion(params, _trajectory_trig(params, trajectory))


def calibrate_handle_distance(params: MechanismParams,
                              trajectory: TrajectorySpec,
                              target_handle_rise: float,
                              tolerance: float = 1e-4) -> float:
    """Bracket radius d_h whose handle rise matches the target.

    Bisection over d_h in (0, L2]; the handle rise must be monotonically
    increasing in d_h over that interval (checked on a coarse sweep first,
    since bisection silently returns garbage otherwise). Each trial is the
    handle point with its reach set to d_h, as a NEW_INBOARD build of that
    radius would place it, so no build is made per trial.
    """
    target_handle_rise = number(target_handle_rise, "target_handle_rise")
    tolerance = number(tolerance, "tolerance", "> 0")
    L2 = params.link2_length
    trig = _trajectory_trig(params, trajectory)
    a, L1, _, b, height, drop = handle_point(params)

    def rise_at(d: float) -> float:
        return _rise((a, L1, d, b, height, drop), trig)

    lo, hi = L2 * 1e-6, L2
    sweep = [rise_at(lo + (hi - lo) * i / 8.0) for i in range(9)]
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise SpoonArmError(
            "handle rise is not monotonic in d_h on this trajectory; "
            "cannot calibrate by bisection")

    rise_lo, rise_hi = sweep[0], sweep[-1]
    if not rise_lo - tolerance <= target_handle_rise <= rise_hi + tolerance:
        raise NotBracketedError(
            f"target handle rise {target_handle_rise:.6f} m lies outside "
            f"the achievable range [{rise_lo:.6f}, {rise_hi:.6f}] m")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rise_at(mid)
        if abs(r - target_handle_rise) <= tolerance:
            return mid
        if r < target_handle_rise:
            lo = mid
        else:
            hi = mid
    # interval exhausted at float resolution; the endpoint is as good as
    # bisection can do (happens when the target sits on the range edge)
    return hi


def compare_handle_variants(params: MechanismParams,
                            trajectory: TrajectorySpec) -> tuple:
    """Excursion table rows (variant name, d_h, spoon rise, handle rise,
    ratio) for the original tip-mounted handle and the configured one.

    The original design held the handle at the utensil point with no
    bracket, so its row uses zero bracket offsets.
    """
    old = replace(params, handle_variant=HandleVariant.OLD_TIP,
                  bracket_drop=0.0, bracket_lateral=0.0)
    trig = _trajectory_trig(params, trajectory)
    rows = []
    for name, build in (("old_tip", old), ("new_inboard", params)):
        exc = _excursion(build, trig)
        rows.append((name, build.handle_distance, exc.spoon_rise,
                     exc.handle_rise, exc.ratio))
    return tuple(rows)


def workspace_sample(params: MechanismParams,
                     resolution: int) -> WorkspaceSample:
    """Utensil positions on a joint-space grid, deduplicated, plus summary.

    The summary's plate_vertical_span is the z extent of cloud points
    whose horizontal radius falls within PLATE_BAND_M of PLATE_RADIUS_M;
    covers_target_rise answers whether it spans the rise of the feeding
    motion, TrajectorySpec().rise.

    Each yaw slice of the grid is the same (theta2, theta3) plane turned
    about J1: point_plane gives each plane node's radius r and height z
    once, and point_turn each slice's x and y from r and the slice's
    cosine and sine, the operations of point_position, so every
    coordinate has its bits. Within a slice x = r cos(phi1) - b sin(phi1)
    is monotone in r, so one stable argsort of the x of the slice of
    largest |cos(phi1)| orders every slice by x (but for rows whose x ties
    in that slice): as it is where cos(phi1) has that slice's sign,
    reversed where it has the other. The sort key x + iy and z are
    written in that order; _unique_rows sorts them in place, merging one
    presorted run per slice (the order sets only its speed, never its
    result), and the rows it keeps fill points once. No grid-sized copy
    of x, y or z is made besides the key and z, and at resolution 40 the
    tracemalloc peak is 2.4 times the points' bytes.
    """
    resolution = integer(resolution, "resolution", 2)
    point = spoon_point(params)
    phi1, theta2, theta3 = (np.linspace(lo, hi, resolution)
                            for lo, hi in params.joint_limits)
    cp, sp = np.cos(phi1), np.sin(phi1)
    # node theta2 * resolution + theta3 of the plane
    r, z = (a.ravel() for a in point_plane(
        point, np.cos(theta2)[:, None], np.sin(theta2)[:, None],
        np.cos(theta3), np.sin(theta3)))
    ref = np.argmax(np.abs(cp))
    order = np.argsort(point_turn(point, r, cp[ref], sp[ref])[0],
                       kind="stable")
    # row k of slice i is node[i, k] of the plane
    node = np.where(((cp < 0.0) != (cp[ref] < 0.0))[:, None],
                    order[::-1], order)
    x, y = point_turn(point, r.take(node), cp[:, None], sp[:, None])
    key = np.empty(node.size, dtype=complex)
    key.real, key.imag = x.ravel(), y.ravel()
    del x, y
    z = z.take(node).ravel()
    node += np.arange(0, node.size, r.size)[:, None]  # now a grid index
    keep = _unique_rows(key, z, node.ravel())
    del node

    points = np.empty((np.count_nonzero(keep), 3))
    for column, values in enumerate((key.real, key.imag, z)):
        points[:, column] = values[keep]
    del key, z, keep
    radial = np.hypot(points[:, 0], points[:, 1])
    z = points[:, 2]
    band_z = z[np.abs(radial - PLATE_RADIUS_M) <= PLATE_BAND_M]
    plate_span = float(band_z.max() - band_z.min()) if band_z.size else 0.0
    summary = WorkspaceSummary(
        max_reach=float(radial.max()),
        min_reach=float(radial.min()),
        vertical_span=float(z.max() - z.min()),
        plate_vertical_span=plate_span,
        covers_target_rise=plate_span >= TrajectorySpec().rise,
    )
    return WorkspaceSample(points=points, summary=summary)


def _unique_rows(key, z, index) -> np.ndarray:
    """Sorts rows of finite floats (the readers reject non-finite builds),
    given as a complex key x + iy and z, in place by (x, y, z, index),
    and returns the mask of the rows of np.unique(np.column_stack((x, y,
    z)), axis=0) in that order. Row i is the row at grid position
    index[i], the indices distinct; of each group of equal rows, such as
    rows that differ only in the sign of a zero, the one first in grid
    order is kept.

    One stable argsort of the key orders the rows by (x, y); only the
    runs of rows tied in (x, y) are then ordered by (z, index), with a
    lexsort. That is faster than one three-key lexsort, and far faster
    than np.unique's generic row compare. The argsort is a TimSort, so
    rows presented as a few sorted runs are merged, not sorted afresh;
    the result is the same in any order.
    """
    s = np.argsort(key, kind="stable")
    key[:] = key.take(s)
    z[:] = z.take(s)
    # tie[i]: row i + 1 equals row i in (x, y)
    tie = key[1:] == key[:-1]
    if tie.any():
        rows = np.flatnonzero(np.concatenate((tie, [False]))
                              | np.concatenate(([False], tie)))
        run = np.cumsum(np.concatenate(([True], ~tie)))[rows]
        by = rows[np.lexsort((index.take(s[rows]), z[rows], run))]
        key[rows], z[rows] = key[by], z[by]
    return np.concatenate(([True], ~tie | (z[1:] != z[:-1])))


def _segment_deviation(trajectory: TrajectorySpec,
                       positions: np.ndarray) -> np.ndarray:
    a = np.array([trajectory.plate[0], 0.0, trajectory.plate[1]])
    b = np.array([trajectory.mouth[0], 0.0, trajectory.mouth[1]])
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((positions - a) @ ab / denom, 0.0, 1.0)
    nearest = a + t[:, None] * ab
    return np.linalg.norm(positions - nearest, axis=1)


def _same_grid(series: SimResult, result: SimResult, name: str):
    if not np.array_equal(series.t, result.t):
        raise GridMismatchError(
            f"{name} and result use different time grids; "
            "rerun with matching duration and timestep")


def _deviation_series(reference, result: SimResult) -> np.ndarray:
    if isinstance(reference, TrajectorySpec):
        return _segment_deviation(reference, result.spoon_pos)
    return np.linalg.norm(result.spoon_pos - reference.spoon_pos, axis=1)


def stabilization_report(reference, result,
                         baseline=None) -> StabilizationReport:
    """Deviation metrics of a rollout against a reference motion.

    `reference` is either a SimResult on the same time grid or a
    TrajectorySpec (deviation is then the distance to the path segment).
    `baseline` is the paired undamped rollout, on the result's time grid,
    for the attenuation ratio; without one, the result serves as its own
    baseline (attenuation 1.0, or 0.0 for a perfect track). The settling
    time is that of the deviation into SETTLING_BAND_M.

    `result` and `baseline` must be SimResults and `reference` a SimResult
    or a TrajectorySpec, else ValueError naming the argument; a SimResult
    on another time grid than `result` raises GridMismatchError.
    """
    if not isinstance(reference, (SimResult, TrajectorySpec)):
        raise ValueError(f"reference must be a SimResult or a "
                         f"TrajectorySpec, not {reference!r}")
    instance(result, SimResult, "result")
    if isinstance(reference, SimResult):
        _same_grid(reference, result, "reference")
    if baseline is not None:
        _same_grid(instance(baseline, SimResult, "baseline"), result,
                   "baseline")
    dev = _deviation_series(reference, result)
    rms = float(math.sqrt(np.mean(dev ** 2)))
    peak = float(dev.max())

    if baseline is None:
        base_rms = rms
    else:
        base_rms = float(math.sqrt(np.mean(
            _deviation_series(reference, baseline) ** 2)))

    if rms == 0.0:
        attenuation = 0.0
    elif base_rms == 0.0:
        attenuation = math.inf
    else:
        attenuation = rms / base_rms

    settling = settling_time(dev >= SETTLING_BAND_M, result.t)
    return StabilizationReport(rms_deviation=rms, attenuation=attenuation,
                               settling_time=settling, peak_deviation=peak)
