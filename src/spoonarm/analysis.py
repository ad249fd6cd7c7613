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

from .dynamics import settling_time
from .errors import GridMismatchError, NotBracketedError, SpoonArmError
from .kinematics import (
    HandleVariant,
    MechanismParams,
    _trig,
    handle_position,
    inverse_kinematics,
    spoon_position,
)

# Not called here any more, but kept as an attribute of this module:
# perfbench/tracer.py patches it here.
from .kinematics import forward_kinematics  # noqa: F401

SETTLING_BAND_M = 0.005
PLATE_RADIUS_M = 0.35
TARGET_RISE_M = 0.33


@dataclass(frozen=True)
class TrajectorySpec:
    """Plate-to-mouth path: straight in (radial, height) at yaw 0."""

    plate: tuple = (PLATE_RADIUS_M, 0.02)   # (r, z), utensil over the plate
    mouth: tuple = (PLATE_RADIUS_M, PLATE_RADIUS_M)  # (r, z) at mouth height
    waypoints: int = 50

    def __post_init__(self):
        plate = (float(self.plate[0]), float(self.plate[1]))
        mouth = (float(self.mouth[0]), float(self.mouth[1]))
        for name, point in (("plate", plate), ("mouth", mouth)):
            if not all(map(math.isfinite, point)):
                raise ValueError(f"{name} must be finite, not {point}")
        object.__setattr__(self, "plate", plate)
        object.__setattr__(self, "mouth", mouth)
        if not mouth[1] - plate[1] > 0.0:
            raise ValueError("mouth must sit above the plate")
        if self.waypoints < 2:
            raise ValueError("need at least two waypoints")

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


def trajectory_states(params: MechanismParams,
                      trajectory: TrajectorySpec) -> tuple:
    """IK solutions along the trajectory; unreachable points propagate."""
    return tuple(inverse_kinematics(params, pt)
                 for pt in trajectory.points())


def _trajectory_trig(params: MechanismParams,
                     trajectory: TrajectorySpec) -> np.ndarray:
    """The six _trig rows of the IK solutions along the trajectory, taken
    with math as forward_kinematics does, so heights from them match its
    poses bit for bit. IK never reads the handle: builds that differ
    only in their handle share these rows."""
    return np.array([_trig(state.q)
                     for state in trajectory_states(params, trajectory)]).T


def _excursion(params: MechanismParams, trig: np.ndarray) -> Excursion:
    spoon_z = spoon_position(params, *trig)[2]
    handle_z = handle_position(params, *trig)[2]
    spoon_rise = float(spoon_z.max() - spoon_z.min())
    handle_rise = float(handle_z.max() - handle_z.min())
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
    since bisection silently returns garbage otherwise).
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be > 0")
    L2 = params.link2_length
    trig = _trajectory_trig(params, trajectory)

    def rise_at(d: float) -> float:
        trial = replace(params, handle_variant=HandleVariant.NEW_INBOARD,
                        handle_distance=d)
        return _excursion(trial, trig).handle_rise

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


def workspace_sample(params: MechanismParams, resolution: int,
                     plate_radius: float = PLATE_RADIUS_M,
                     radial_band: float = 0.01,
                     target_rise: float = TARGET_RISE_M) -> WorkspaceSample:
    """Utensil positions on a joint-space grid, deduplicated, plus summary.

    The summary's plate_vertical_span is the z extent of cloud points
    whose horizontal radius falls within radial_band of plate_radius; it
    answers whether the feeding rise fits the workspace at that radius.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per joint")
    if not 0.0 <= radial_band < math.inf:
        raise ValueError(f"radial_band must be finite and >= 0, "
                         f"not {radial_band}")
    if not (math.isfinite(plate_radius) and math.isfinite(target_rise)):
        raise ValueError("plate_radius and target_rise must be finite")
    grids = [np.linspace(lo, hi, resolution)
             for lo, hi in params.joint_limits]
    phi, th2, th3 = np.meshgrid(*grids, indexing="ij")
    pts = np.stack(spoon_position(params, np.cos(phi), np.sin(phi),
                                  np.cos(th2), np.sin(th2),
                                  np.cos(th3), np.sin(th3)), axis=-1)
    pts = _unique_rows(pts.reshape(-1, 3))

    radial = np.hypot(pts[:, 0], pts[:, 1])
    in_band = np.abs(radial - plate_radius) <= radial_band
    if np.any(in_band):
        band_z = pts[in_band, 2]
        plate_span = float(band_z.max() - band_z.min())
    else:
        plate_span = 0.0
    summary = WorkspaceSummary(
        max_reach=float(radial.max()),
        min_reach=float(radial.min()),
        vertical_span=float(pts[:, 2].max() - pts[:, 2].min()),
        plate_vertical_span=plate_span,
        covers_target_rise=plate_span >= target_rise,
    )
    return WorkspaceSample(points=pts, summary=summary)


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """np.unique(points, axis=0) of an (n, 3) table, by one lexsort
    rather than np.unique's slower generic row compare."""
    s = points[np.lexsort(points.T[::-1])]
    return s[np.concatenate(([True], np.any(s[1:] != s[:-1], axis=1)))]


def _segment_deviation(trajectory: TrajectorySpec,
                       positions: np.ndarray) -> np.ndarray:
    a = np.array([trajectory.plate[0], 0.0, trajectory.plate[1]])
    b = np.array([trajectory.mouth[0], 0.0, trajectory.mouth[1]])
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((positions - a) @ ab / denom, 0.0, 1.0)
    nearest = a + t[:, None] * ab
    return np.linalg.norm(positions - nearest, axis=1)


def _deviation_series(reference, result) -> np.ndarray:
    if isinstance(reference, TrajectorySpec):
        return _segment_deviation(reference, result.spoon_pos)
    if len(reference) != len(result) or not np.array_equal(
            reference.t, result.t):
        raise GridMismatchError(
            "reference and result use different time grids; "
            "rerun with matching duration and timestep")
    return np.linalg.norm(result.spoon_pos - reference.spoon_pos, axis=1)


def stabilization_report(reference, result, baseline=None,
                         band: float = SETTLING_BAND_M) -> StabilizationReport:
    """Deviation metrics of a rollout against a reference motion.

    `reference` is either a SimResult on the same time grid or a
    TrajectorySpec (deviation is then the distance to the path segment).
    `baseline` is the paired undamped rollout for the attenuation ratio;
    without one, the result serves as its own baseline (attenuation 1.0,
    or 0.0 for a perfect track).
    """
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

    settling = settling_time(dev >= band, result.t)
    return StabilizationReport(rms_deviation=rms, attenuation=attenuation,
                               settling_time=settling, peak_deviation=peak)
