"""The design studies against plain references: workspace dedupe against
np.unique, the CSV writer against a per-row formatter, and the handle
excursion and calibration against a forward_kinematics loop. Each must
match bit for bit; plus the input checks of the trajectory and the
workspace summary."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spoonarm import MechanismParams
from spoonarm.analysis import (
    Excursion,
    TrajectorySpec,
    _unique_rows,
    calibrate_handle_distance,
    compare_handle_variants,
    handle_excursion,
    trajectory_states,
    workspace_sample,
)
from spoonarm.errors import NotBracketedError, SpoonArmError
from spoonarm.kinematics import (
    Handedness,
    HandleVariant,
    forward_kinematics,
    point_position,
    spoon_point,
)
from spoonarm._shortest import _WIDTH
from spoonarm.serialize import CSV_BLOCK_CELLS, _write_table, block_rows
from spoonarm.serialize import fmt, write_workspace_csv

from shipped import NOMINAL


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _same_rows(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# workspace dedupe


def _grid_points(params, resolution):
    grids = [np.linspace(lo, hi, resolution)
             for lo, hi in params.joint_limits]
    phi, th2, th3 = np.meshgrid(*grids, indexing="ij")
    return np.stack(point_position(spoon_point(params), np.cos(phi),
                                   np.sin(phi), np.cos(th2), np.sin(th2),
                                   np.cos(th3), np.sin(th3)),
                    axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("resolution", [2, 3, 5, 10, 25, 40, 41])
def test_workspace_points_equal_np_unique(resolution):
    params = NOMINAL
    sample = workspace_sample(params, resolution)
    _same_rows(sample.points,
               np.unique(_grid_points(params, resolution), axis=0))


@pytest.mark.parametrize("limits", [
    ((-math.pi, math.pi), (0.4, 0.4), (-1.75, 1.4)),   # theta2 pinned
    ((0.7, 0.7), (-0.35, 2.0), (-1.75, 1.4)),          # yaw: one slice
    ((-math.pi, math.pi), (-0.35, 2.0), (0.3, 0.3)),   # theta3 pinned
    ((0.3, 0.3), (0.5, 0.5), (0.1, 0.1)),              # all three pinned
])
def test_workspace_points_equal_np_unique_with_pinned_joints(limits):
    params = MechanismParams(joint_limits=limits)
    sample = workspace_sample(params, 7)
    _same_rows(sample.points, np.unique(_grid_points(params, 7), axis=0))


@pytest.mark.parametrize("params", [
    replace(NOMINAL, handedness=Handedness.LEFT),
    replace(NOMINAL, joint_limits=(
        (-2.3, 0.9), (-0.2, 1.7), (-1.1, 0.35))),
], ids=["left-handed", "asymmetric-limits"])
def test_workspace_points_equal_np_unique_off_the_default_build(params):
    sample = workspace_sample(params, 40)
    _same_rows(sample.points, np.unique(_grid_points(params, 40), axis=0))


@pytest.mark.parametrize("resolution", [2, 7, 40])
@pytest.mark.parametrize("yaw", [(2.0, 3.0), (1.2, 1.9)],
                         ids=["cos-negative", "across-half-pi"])
def test_workspace_points_equal_np_unique_on_part_of_the_yaw_range(
        yaw, resolution):
    # every yaw slice with cos(phi1) < 0, or slices of both signs
    params = replace(NOMINAL, joint_limits=(yaw, *NOMINAL.joint_limits[1:]))
    sample = workspace_sample(params, resolution)
    _same_rows(sample.points,
               np.unique(_grid_points(params, resolution), axis=0))


def _unique(table, order=None):
    """The rows _unique_rows keeps of the rows of `table`, given in
    `order` (a permutation, by default the table's own order), as one
    table in their sorted order."""
    table = np.array(table)
    if order is None:
        order = np.arange(len(table))
    rows = table[order]
    key = np.empty(len(rows), dtype=complex)
    key.real, key.imag = rows[:, 0], rows[:, 1]
    z = rows[:, 2]
    keep = _unique_rows(key, z, order)
    return np.column_stack((key.real[keep], key.imag[keep], z[keep]))


def test_unique_rows_with_duplicates_and_ties():
    rng = np.random.default_rng(7)
    # few distinct values per column: many rows tie in x, many in (x, y),
    # and many are exact duplicates
    table = rng.choice([-2.5, -1e-5, 0.1 + 0.2, 0.3, 1e16, 5e-324],
                       size=(600, 3))
    table = np.concatenate([table, table[::-3], table[:5]])
    want = np.unique(table, axis=0)
    assert len(want) < len(table)
    _same_rows(_unique(table), want)
    _same_rows(_unique(table[::-1]), want)


def _first_of_equal_rows(table):
    """The rows of `table` sorted by (x, y, z, row number), of each group
    of equal rows (-0.0 == 0.0) the first: plain Python comparisons."""
    kept = []
    for i in sorted(range(len(table)), key=lambda i: (*table[i], i)):
        if not kept or tuple(table[kept[-1]]) != tuple(table[i]):
            kept.append(i)
    return table[kept]


@pytest.mark.parametrize("seed", range(4))
def test_unique_rows_gives_the_same_bits_in_any_presentation_order(seed):
    rng = np.random.default_rng(seed)
    # signed zeros and subnormals of both signs: rows that are equal but
    # for their bits, and ties in (x, y) that only z and the grid order
    # break
    table = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 0.25, -3.0],
                       size=(400, 3))
    want = _first_of_equal_rows(table)
    assert len(want) < len(table)
    for order in (None, np.arange(len(table))[::-1],
                  rng.permutation(len(table))):
        _same_rows(_unique(table, order), want)


def _unique_both_ways(table, want):
    """_unique_rows of `table` equals np.unique's rows and `want`, bit for
    bit."""
    table, want = np.array(table), np.array(want)
    _same_rows(np.unique(table, axis=0), want)
    _same_rows(_unique(table), want)


def test_unique_rows_sorts_ties_at_the_first_and_last_rows():
    # the rows that sort first and last tie in (x, y) and are given with
    # z descending, so only the sort by z puts them in order
    _unique_both_ways([[-1.0, 4.0, 2.0],
                       [0.5, 0.5, 0.0],
                       [-1.0, 4.0, -2.0],
                       [3.0, -1.0, 7.0],
                       [3.0, -1.0, 7.0],
                       [-1.0, 4.0, 2.0],
                       [3.0, -1.0, 6.0]],
                      [[-1.0, 4.0, -2.0],
                       [-1.0, 4.0, 2.0],
                       [0.5, 0.5, 0.0],
                       [3.0, -1.0, 6.0],
                       [3.0, -1.0, 7.0]])


def test_unique_rows_keeps_the_first_of_signed_zeros():
    # every row ties in (x, y); of rows equal but for the sign of a zero,
    # the first given is kept
    _unique_both_ways([[0.0, -0.0, 1.0],
                       [-0.0, 0.0, 0.0],
                       [0.0, 0.0, -0.0],
                       [-0.0, -0.0, -1.0],
                       [0.0, 0.0, 1.0],
                       [-0.0, 0.0, -0.0]],
                      [[-0.0, -0.0, -1.0],
                       [-0.0, 0.0, 0.0],
                       [0.0, -0.0, 1.0]])


def test_unique_rows_orders_subnormals():
    tiny = 5e-324
    _unique_both_ways([[tiny, -tiny, 3 * tiny],
                       [tiny, -tiny, -tiny],
                       [-tiny, tiny, 2.2e-308],
                       [tiny, -tiny, 1e-310],
                       [tiny, -tiny, -tiny],
                       [-tiny, tiny, 1e-320]],
                      [[-tiny, tiny, 1e-320],
                       [-tiny, tiny, 2.2e-308],
                       [tiny, -tiny, -tiny],
                       [tiny, -tiny, 3 * tiny],
                       [tiny, -tiny, 1e-310]])


# ---------------------------------------------------------------------------
# CSV writer

SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5,
           0.1 + 0.2, -1.25, 12345.678]


def _reference_csv(header, columns):
    table = np.column_stack(columns)
    lines = [header] + [",".join(map(repr, row)) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


# partial blocks of 255-257 and 511-513 rows, and counts around the block
# boundaries of the test's 7-column table
@pytest.mark.parametrize("n", sorted({
    0, 1, 255, 256, 257, 511, 512, 513, 1025, block_rows(7) - 1,
    block_rows(7), block_rows(7) + 1, 2 * block_rows(7) + 1}))
def test_write_table_equals_per_row_repr(tmp_path, n):
    rng = np.random.default_rng(n)
    values = np.array(SPECIAL)
    # 1-D and 2-D columns, as write_sim_csv passes a SimResult's arrays
    columns = (np.resize(values, n),
               values[rng.integers(len(SPECIAL), size=(n, 3))],
               rng.standard_normal((n, 2)),
               values[rng.integers(len(SPECIAL), size=n)])
    header = "t,a,b,c,d,e,f"
    path = tmp_path / "table.csv"
    _write_table(path, header, columns)
    assert path.read_bytes() == _reference_csv(header, columns)


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(float)[0]


N_EDGE = 2 * block_rows(4) + 8     # a multiple of 4, and not of a block


@pytest.mark.parametrize("points", [
    np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((1, 2, 3)),
], ids=["2-wide", "4-wide", "1-D", "3-D"])
def test_workspace_csv_needs_an_n_by_3_table(tmp_path, points):
    path = tmp_path / "cloud.csv"
    with pytest.raises(ValueError, match=r"points must be an \(n, 3\) "):
        write_workspace_csv(points, path)
    assert not path.exists()


def test_workspace_csv_of_no_points_is_the_header(tmp_path):
    path = tmp_path / "cloud.csv"
    write_workspace_csv(np.empty((0, 3)), path)
    assert path.read_bytes() == b"x,y,z\n"


@pytest.mark.parametrize("values", [
    [2.5],
    [-0.0, 0.0],
    # two NaN payloads, one of them negative, and both infinities
    [_nan(0x7FF8000000000001), _nan(0xFFF8000000000000), math.inf,
     -math.inf],
    # exactly n/4 distinct values, and one more
    np.arange(N_EDGE // 4) * 0.1,
    np.arange(N_EDGE // 4 + 1) * 0.1,
], ids=["constant", "signed-zeros", "nans-and-infs", "n/4", "n/4+1"])
def test_write_table_columns_of_few_values_equal_fmt(tmp_path, values):
    rng = np.random.default_rng(len(values))
    values = np.array(values)
    # every value occurs, in shuffled order, beside a column of distinct
    # values and a 2-D column of the same few values
    column = rng.permutation(np.resize(values, N_EDGE))
    columns = (column, rng.standard_normal(N_EDGE),
               values[rng.integers(len(values), size=(N_EDGE, 2))])
    path = tmp_path / "table.csv"
    _write_table(path, "a,b,c,d", columns)
    rows = np.column_stack(columns)
    want = ["a,b,c,d"] + [",".join(map(fmt, row)) for row in rows]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


# ---------------------------------------------------------------------------
# working sets of the resolution-40 cloud


def _traced_peak(call):
    """The tracemalloc peak of `call()`, called once before, untraced, so
    that the CSV tables are built by then."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_cloud_sample_peaks_under_three_times_its_points():
    points = workspace_sample(NOMINAL, 40).points
    peak = _traced_peak(lambda: workspace_sample(NOMINAL, 40))
    assert peak <= 3 * points.nbytes


def test_the_cloud_write_peaks_under_six_blocks_of_text(tmp_path):
    # a block of text is CSV_BLOCK_CELLS runs of _WIDTH bytes
    points = workspace_sample(NOMINAL, 40).points
    peak = _traced_peak(
        lambda: write_workspace_csv(points, tmp_path / "cloud.csv"))
    assert peak <= 6 * CSV_BLOCK_CELLS * _WIDTH


# ---------------------------------------------------------------------------
# handle excursion and calibration against the scalar loop


def _scalar_excursion(params, trajectory):
    spoon_z, handle_z = [], []
    for state in trajectory_states(params, trajectory):
        spoon, handle = forward_kinematics(params, state)
        spoon_z.append(spoon.z)
        handle_z.append(handle.z)
    spoon_rise = max(spoon_z) - min(spoon_z)
    handle_rise = max(handle_z) - min(handle_z)
    return Excursion(spoon_rise, handle_rise, handle_rise / spoon_rise)


def _scalar_calibration(params, trajectory, target, tolerance=1e-4):
    L2 = params.link2_length

    def rise_at(d):
        trial = replace(params, handle_variant=HandleVariant.NEW_INBOARD,
                        handle_distance=d)
        return _scalar_excursion(trial, trajectory).handle_rise

    lo, hi = L2 * 1e-6, L2
    sweep = [rise_at(lo + (hi - lo) * i / 8.0) for i in range(9)]
    assert all(b > a for a, b in zip(sweep, sweep[1:]))
    assert sweep[0] - tolerance <= target <= sweep[-1] + tolerance
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rise_at(mid)
        if abs(r - target) <= tolerance:
            return mid
        if r < target:
            lo = mid
        else:
            hi = mid
    return hi


NON_MONOTONIC = (
    MechanismParams(
        joint_limits=((-math.pi, math.pi), (-1.2, 2.2), (-2.2, 1.6))),
    TrajectorySpec(plate=(0.2, 0.1), mouth=(0.25, 0.2), waypoints=25))

BUILDS = {
    "default": (NOMINAL, TrajectorySpec()),
    "left_dropped": (replace(NOMINAL, handedness=Handedness.LEFT,
                             bracket_drop=-0.07, bracket_lateral=0.03),
                     TrajectorySpec()),
    "old_tip": (replace(NOMINAL,
                        handle_variant=HandleVariant.OLD_TIP),
                TrajectorySpec()),
    "non_monotonic": NON_MONOTONIC,
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_handle_excursion_equals_scalar_loop(name):
    params, trajectory = BUILDS[name]
    assert handle_excursion(params, trajectory) == _scalar_excursion(
        params, trajectory)
    for d in np.linspace(params.link2_length / 50, params.link2_length, 50):
        build = replace(params, handle_distance=float(d))
        assert handle_excursion(build, trajectory) == _scalar_excursion(
            build, trajectory)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_compare_handle_variants_equals_scalar_loop(name):
    params, trajectory = BUILDS[name]
    old = replace(params, handle_variant=HandleVariant.OLD_TIP,
                  bracket_drop=0.0, bracket_lateral=0.0)
    want = tuple((label, build.handle_distance)
                 + tuple(_scalar_excursion(build, trajectory))
                 for label, build in (("old_tip", old),
                                      ("new_inboard", params)))
    assert compare_handle_variants(params, trajectory) == want


@pytest.mark.parametrize("name, target, tolerance", [
    ("default", 0.24, 1e-4),
    ("default", 0.24, 1e-12),
    ("default", 0.33, 1e-4),
    ("left_dropped", 0.2, 1e-6),
    ("old_tip", 0.24, 1e-4),
])
def test_calibration_equals_scalar_bisection(name, target, tolerance):
    params, trajectory = BUILDS[name]
    assert calibrate_handle_distance(params, trajectory, target,
                                     tolerance) == _scalar_calibration(
        params, trajectory, target, tolerance)


def test_calibration_errors_unchanged():
    params, trajectory = NON_MONOTONIC
    with pytest.raises(SpoonArmError, match="not monotonic"):
        calibrate_handle_distance(params, trajectory, 0.05)
    with pytest.raises(NotBracketedError, match="outside the achievable"):
        calibrate_handle_distance(NOMINAL, TrajectorySpec(), 0.4)


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize("kwargs, name", [
    ({"plate": (math.nan, 0.02)}, "plate"),
    ({"plate": (0.35, -math.inf)}, "plate"),
    ({"mouth": (0.35, math.inf)}, "mouth"),
    ({"mouth": (math.nan, 0.35)}, "mouth"),
])
def test_trajectory_endpoints_must_be_finite(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrajectorySpec(**kwargs)
