"""Command-line interface.

Every subcommand takes --config (a config file path, or the literal
string "default" for the shipped nominal build) and prints SI numbers at
full precision: floats are repr()-formatted, so nothing is rounded away.
Each subparser carries its command function; main loads --config once
and calls that function with the loaded ConfigFile and the arguments.

Exit codes: 0 success; 1 domain error (unreachable target, infeasible
synthesis, invalid config content, ...) or a run too large for memory;
2 usage error (bad arguments, missing input files, output files that
cannot be written). Diagnostics go to stderr as single lines. A command
writes its --out file before it prints its report, so a failed write
prints no report.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import analysis, serialize
from .config import default_config_path, load_config, load_scenario
from .dynamics import (
    CONTACT_HORIZON,
    DEFAULT_TIMESTEP,
    ComplianceMode,
    ComplianceSpec,
    run_scenario,
    spoon_contact_response,
)
from .errors import SpoonArmError
from .kinematics import JointState, forward_kinematics, inverse_kinematics
from .statics import SpringKind, synthesize_balancing

OUT_DIR_ENV = "SPOONARM_OUT_DIR"

_KIND_NAMES = {
    "ideal": SpringKind.LINEAR_ZERO_FREE_LENGTH,
    "real": SpringKind.LINEAR_REAL,
    "torsion": SpringKind.TORSION,
}


def _triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}") from None


class _CannotWrite(Exception):
    """An --out file could not be written; main reports it, exit code 2."""


@contextlib.contextmanager
def _writing(out: str):
    """The path to write --out `out` to, a relative one under $OUT_DIR_ENV
    when that is set; an OSError in the block becomes _CannotWrite, so it
    is not reported as an input that cannot be read."""
    base = os.environ.get(OUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    try:
        yield path
    except OSError as exc:
        raise _CannotWrite(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(name, value):
    if isinstance(value, bool):
        value = "true" if value else "false"
    print(name, serialize.fmt(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoonarm",
        description="Kinematics, balancing, and simulation studies of a "
                    "passive assistive-feeding arm.",
        epilog=f"Relative --out paths are written under ${OUT_DIR_ENV} "
               "when that environment variable is set.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run):
        """A subcommand whose `run(config, args)` main calls."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default="default",
                       help="config file path, or 'default' for the "
                            "shipped nominal build")
        p.set_defaults(run=run)
        return p

    p = add("fk", "forward kinematics: joint angles to spoon/handle poses",
            _cmd_fk)
    p.add_argument("--q", type=_triple, required=True,
                   metavar="PHI1,THETA2,THETA3",
                   help="joint angles in rad")

    p = add("ik", "inverse kinematics: spoon target to joint angles", _cmd_ik)
    p.add_argument("--target", type=_triple, required=True, metavar="X,Y,Z",
                   help="utensil tip position in m")

    p = add("balance", "synthesize gravity-balancing springs", _cmd_balance)
    p.add_argument("--kind", choices=sorted(_KIND_NAMES), default="ideal")
    p.add_argument("--out", help="write the residual torque table (CSV)")

    p = add("simulate", "integrate one scenario file and write the CSV",
            _cmd_simulate)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("workspace", "sample the reachable utensil positions",
            _cmd_workspace)
    p.add_argument("--resolution", type=int, default=25,
                   help="grid nodes per joint (>= 2)")
    p.add_argument("--out", help="write the point cloud (CSV)")

    p = add("compare-handles", "handle travel of both attachment variants",
            _cmd_compare_handles)
    p.add_argument("--out", help="also write the table (CSV)")

    p = add("contact", "compliant-mount response to an impulse torque",
            _cmd_contact)
    p.add_argument("--impulse", type=float, required=True,
                   help="impulse torque in N*m*s")
    p.add_argument("--dt", type=float, default=DEFAULT_TIMESTEP)
    p.add_argument("--duration", type=float, default=CONTACT_HORIZON)

    return parser


def _cmd_fk(config, args) -> int:
    state = JointState(q=args.q)
    spoon, handle = forward_kinematics(config.mechanism, state)
    for name, pose in (("spoon", spoon), ("handle", handle)):
        for field in ("x", "y", "z", "yaw"):
            _emit(f"{name}_{field}", getattr(pose, field))
    return 0


def _cmd_ik(config, args) -> int:
    state = inverse_kinematics(config.mechanism, args.target)
    for name, value in zip(("phi1", "theta2", "theta3"), state.q):
        _emit(name, value)
    return 0


def _cmd_balance(config, args) -> int:
    kind = _KIND_NAMES[args.kind]
    result = synthesize_balancing(config.mechanism, kind)
    if args.out:
        with _writing(args.out) as path:
            serialize.write_balance_csv(
                (result.residual_j2, result.residual_j3), path)
    for spring, profile in ((result.spring_j2, result.residual_j2),
                            (result.spring_j3, result.residual_j3)):
        key = spring.joint.key
        _emit(f"{key}_stiffness", spring.stiffness)
        if kind is SpringKind.TORSION:
            _emit(f"{key}_neutral_rad", spring.torsion_neutral)
        else:
            _emit(f"{key}_anchor_radius_m", spring.anchor_radius)
            _emit(f"{key}_bar_radius_m", spring.bar_radius)
            _emit(f"{key}_free_length_m", spring.free_length)
        _emit(f"{key}_max_residual", profile.max_abs)
    _emit("max_residual", result.max_residual)
    if args.out:
        _emit("residual_csv", path)
    return 0


def _cmd_simulate(config, args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(config.mechanism, config.springs, config.dampers,
                          config.compliance, scenario)
    with _writing(args.out) as path:
        serialize.write_sim_csv(result, path)
    _emit("rows", len(result))
    _emit("out", path)
    return 0


def _cmd_workspace(config, args) -> int:
    sample = analysis.workspace_sample(config.mechanism, args.resolution)
    if args.out:
        with _writing(args.out) as path:
            serialize.write_workspace_csv(sample.points, path)
    s = sample.summary
    _emit("points", len(sample.points))
    _emit("max_reach_m", s.max_reach)
    _emit("min_reach_m", s.min_reach)
    _emit("vertical_span_m", s.vertical_span)
    _emit("plate_vertical_span_m", s.plate_vertical_span)
    _emit("covers_target_rise", s.covers_target_rise)
    if args.out:
        _emit("points_csv", path)
    return 0


def _cmd_compare_handles(config, args) -> int:
    rows = analysis.compare_handle_variants(config.mechanism,
                                            analysis.TrajectorySpec())
    if args.out:
        with _writing(args.out) as path:
            serialize.write_compare_csv(rows, path)
    print(serialize.compare_table(rows), end="")
    return 0


def _cmd_contact(config, args) -> int:
    response = spoon_contact_response(config.compliance, args.impulse,
                                      dt=args.dt, duration=args.duration)
    _emit("mode", config.compliance.mode.value)
    _emit("peak_torque_n_m", response.peak_torque)
    _emit("settling_time_s", response.settling_time)
    _emit("recentered", response.recentered)
    _emit("model_dependent", response.model_dependent)
    if config.compliance.mode is not ComplianceMode.RIGID:
        rigid = spoon_contact_response(
            ComplianceSpec(mode=ComplianceMode.RIGID), args.impulse,
            dt=args.dt, duration=args.duration)
        _emit("rigid_comparison_peak_n_m", rigid.peak_torque)
        _emit("rigid_comparison_model_dependent", rigid.model_dependent)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = load_config(default_config_path() if args.config == "default"
                             else args.config)
        return args.run(config, args)
    except _CannotWrite as exc:
        print(f"spoonarm: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"spoonarm: cannot read {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except (SpoonArmError, ValueError) as exc:
        print(f"spoonarm: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array size it could not allocate
        print(f"spoonarm: out of memory: {exc}".removesuffix(": "),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
