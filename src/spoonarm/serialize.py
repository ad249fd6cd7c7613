"""CSV emitters for time series and comparison tables.

The writers only format: each writes the values it is given and computes
none of them. Every float is written as repr() produces it: the shortest
decimal string that round-trips to the same double, so identical inputs
yield byte-identical files. Float tables are written in blocks of about
CSV_BLOCK_CELLS cells (block_rows gives 5,461 rows of the 3-column
workspace cloud and 910 of the 18-column sim table); _shortest.csv_rows
computes repr's text for a whole block with numpy integer arithmetic
(Ryu's shortest digits), and takes repr itself only for zeros, non-finite
and subnormal cells and the values Ryu may send down its trailing-zero
path, such as 0.5 or any magnitude from 2**49 to 2**131. Each run of
equal cells down a column of a block is formatted once: the runs' text
is gathered into one array, a bounded chunk of runs a take, and each
cell copies its run's text in row order. A write's tracemalloc peak is
about 2.1 MB for the resolution-40 workspace cloud and 1.9 MB for the
example's sim table. fmt is the scalar path, for stdout and the compare
table.
"""

from __future__ import annotations

import numpy as np

from ._shortest import csv_rows

SIM_HEADER = ("t,phi1,theta2,theta3,dphi1,dtheta2,dtheta3,"
              "spoon_x,spoon_y,spoon_z,handle_x,handle_y,handle_z,"
              "delta_p,delta_y,E_kin,E_pot,E_diss")
BALANCE_HEADER = "angle_rad,tau_gravity,tau_spring,tau_residual"
COMPARE_HEADER = "variant,d_h,spoon_rise_m,handle_rise_m,ratio"
WORKSPACE_HEADER = "x,y,z"
# cells formatted per block of a float table. csv_rows makes ~150 numpy
# calls a block whatever its size, so a block must be large for their
# overhead to fade; at this size the tracemalloc peak of a write is about
# 2.1 MB for the workspace cloud and 1.9 MB for the sim table. The byte
# index of the gather is 200 bytes a run of equal cells, so it is built
# for 2,048 runs at a time (0.4 MB), not for a block's up to 16,384 runs
# (3.3 MB); half this size wrote both tables a few per cent slower
CSV_BLOCK_CELLS = 16384


def block_rows(width: int) -> int:
    """Rows per CSV block of a table `width` floats wide; at least one."""
    return max(1, CSV_BLOCK_CELLS // width)


def fmt(value) -> str:
    """Shortest round-trip decimal for a float; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(path, header, columns):
    """Float columns (1-D or 2-D arrays of equal length) as CSV rows.

    Each cell is the repr of its float, which is what fmt writes, so the
    bytes are the same; _shortest.csv_rows formats block_rows(width) rows
    at a time, and each block is one write, so the memory a write takes
    stays flat however long the table is.
    """
    arrays = [np.asarray(array, dtype=float) for array in columns]
    arrays = [a[:, None] if a.ndim == 1 else a for a in arrays]
    rows = block_rows(sum(a.shape[1] for a in arrays))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(arrays[0]), rows):
            block = [a[start:start + rows] for a in arrays]
            fh.write(csv_rows(np.hstack(block)))


def write_sim_csv(result, path):
    """One row per step, SIM_HEADER columns, SI units throughout."""
    _write_table(path, SIM_HEADER, (
        result.t, result.q, result.qdot, result.spoon_pos,
        result.handle_pos, result.deflection,
        result.e_kin, result.e_pot, result.e_diss))


def write_balance_csv(profiles, path):
    """The residual TorqueProfiles of the lifted joints as one table, each
    profile's angles, gravity, spring and torques stacked below the last's;
    every row's residual is its gravity plus its spring, as the profile
    added them."""
    _write_table(path, BALANCE_HEADER, (np.concatenate([np.column_stack((
        profile.angles, profile.gravity, profile.spring, profile.torques))
        for profile in profiles]),))


def compare_table(rows) -> str:
    """Handle-excursion comparison table as CSV text, one row per variant;
    `spoonarm compare-handles` prints it and write_compare_csv writes it."""
    lines = [COMPARE_HEADER] + [",".join(map(fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_compare_csv(rows, path):
    """The compare_table of `rows` as a CSV file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(compare_table(rows))


def write_workspace_csv(points, path):
    """Utensil point cloud, one x,y,z row per unique sample; `points` must
    be an (n, 3) table, else ValueError naming it."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) table, not an array of "
                         f"shape {points.shape}")
    _write_table(path, WORKSPACE_HEADER, (points,))
