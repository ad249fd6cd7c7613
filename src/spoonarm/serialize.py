"""CSV emitters for time series and comparison tables.

Every float is written as repr() produces it: the shortest decimal string
that round-trips to the same double. Identical inputs therefore yield
byte-identical files, which is what the golden tests pin. Float tables
are formatted a block of rows at a time and column by column, with one
repr per cell; that repr is the floor of a table's write time.
"""

from __future__ import annotations

import numpy as np

from .statics import gravity_coefficients, spring_sum

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


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _write_table(path, header, columns):
    """Float columns (1-D or 2-D arrays of equal length) as CSV rows.

    Rows are formatted from Python floats, CSV_BLOCK_ROWS at a time, so
    memory stays flat however long the table is; repr of a float is what
    fmt writes, so the bytes are the same. Each block's columns are
    formatted whole and zipped into rows, one write per block.
    """
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = np.column_stack(
                [c[start:start + CSV_BLOCK_ROWS] for c in columns])
            text = [map(repr, column) for column in block.T.tolist()]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def write_sim_csv(result, path):
    """One row per step, SIM_HEADER columns, SI units throughout."""
    _write_table(path, SIM_HEADER, (
        result.t, result.q, result.qdot, result.spoon_pos,
        result.handle_pos, result.deflection,
        result.e_kin, result.e_pot, result.e_diss))


def write_balance_csv(params, springs, profiles, path):
    """Residual torque table for both lifted joints, stacked.

    `profiles` are the per-joint residual TorqueProfiles; the gravity and
    spring columns are computed afresh over each profile's angles, so the
    file is self-checking (residual = gravity + spring).
    """
    blocks = []
    for profile in profiles:
        angles, joint = profile.angles, profile.joint
        cos = np.cos(angles)
        coeff = gravity_coefficients(params)[joint - 1]
        blocks.append(np.column_stack([
            angles, -params.gravity * coeff * cos,
            spring_sum(springs, joint)(angles, cos, np.sin(angles), np.sqrt,
                                       np.maximum),
            profile.torques]))
    _write_table(path, BALANCE_HEADER, (np.concatenate(blocks),))


def write_compare_csv(rows, path):
    """Handle-excursion comparison table (one row per variant)."""
    _write_rows(path, COMPARE_HEADER, rows)


def write_workspace_csv(points, path):
    """Utensil point cloud, one x,y,z row per unique sample."""
    _write_table(path, WORKSPACE_HEADER, (np.asarray(points, dtype=float),))
