"""CSV emitters for time series and comparison tables.

Every float is written as repr() produces it: the shortest decimal string
that round-trips to the same double. Identical inputs therefore yield
byte-identical files, which is what the golden tests pin. Float tables
are formatted a block of rows at a time and column by column. repr is
most of a table's write time, so a column with few distinct values (at
most one per four rows, as the workspace's z or a rollout's constant
columns) formats each distinct value once; the other columns take one
repr per cell.
"""

from __future__ import annotations

import numpy as np

from .statics import torque_columns

SIM_HEADER = ("t,phi1,theta2,theta3,dphi1,dtheta2,dtheta3,"
              "spoon_x,spoon_y,spoon_z,handle_x,handle_y,handle_z,"
              "delta_p,delta_y,E_kin,E_pot,E_diss")
BALANCE_HEADER = "angle_rad,tau_gravity,tau_spring,tau_residual"
COMPARE_HEADER = "variant,d_h,spoon_rise_m,handle_rise_m,ratio"
WORKSPACE_HEADER = "x,y,z"
CSV_BLOCK_ROWS = 256        # rows formatted per block of a float table


def fmt(value) -> str:
    """Shortest round-trip decimal for a float; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _column_text(column):
    """The text of one float column, read a block of rows at a time as
    text(start, stop): repr of each cell, or, where the column holds at
    most a quarter as many distinct values as rows, the one repr of each
    distinct value gathered by row."""
    # bits, not values: -0.0 and 0.0, and NaN payloads, stay apart
    values, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if 4 * len(values) > len(column):
        return lambda start, stop: map(repr, column[start:stop].tolist())
    strings = np.array(list(map(repr, values.view(float).tolist())),
                       dtype=object)
    inverse = inverse.astype(np.int32)
    return lambda start, stop: strings[inverse[start:stop]].tolist()


def _write_table(path, header, columns):
    """Float columns (1-D or 2-D arrays of equal length) as CSV rows.

    Each cell is the repr of its float, which is what fmt writes, so the
    bytes are the same; _column_text formats each column. Rows are
    written CSV_BLOCK_ROWS at a time, one write per block, so the text in
    memory stays flat however long the table is.
    """
    n = len(columns[0])
    # the rows of each array's transpose, as 2-D, are its columns: views
    texts = [_column_text(column)
             for array in columns
             for column in np.atleast_2d(np.asarray(array, dtype=float).T)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            rows = zip(*[text(start, stop) for text in texts])
            fh.write("\n".join(map(",".join, rows)) + "\n")


def write_sim_csv(result, path):
    """One row per step, SIM_HEADER columns, SI units throughout."""
    _write_table(path, SIM_HEADER, (
        result.t, result.q, result.qdot, result.spoon_pos,
        result.handle_pos, result.deflection,
        result.e_kin, result.e_pot, result.e_diss))


def write_balance_csv(params, springs, profiles, path):
    """Residual torque table for both lifted joints, stacked.

    `profiles` are the per-joint residual TorqueProfiles; beside each
    residual go the gravity and spring columns statics.torque_columns
    gives over the profile's angles, so the file is self-checking
    (residual = gravity + spring).
    """
    blocks = [np.column_stack([
        profile.angles,
        *torque_columns(params, springs, profile.joint, profile.angles),
        profile.torques]) for profile in profiles]
    _write_table(path, BALANCE_HEADER, (np.concatenate(blocks),))


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
    """Utensil point cloud, one x,y,z row per unique sample."""
    _write_table(path, WORKSPACE_HEADER, (np.asarray(points, dtype=float),))
