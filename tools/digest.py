"""Print one `name sha256` line per output of spoonarm.

tools/digest.txt, committed next to this script, is what it prints: the
one record of every output that the tests and CI compare against. Run it
from any directory, with spoonarm importable (installed, or PYTHONPATH=src
from a checkout). A change that keeps every output prints the file's
lines; one that changes an output on purpose regenerates the file,

    PYTHONPATH=src python tools/digest.py > tools/digest.txt

so that the changed lines show in its diff. A tier-1 test checks that the
checkout prints the file under two hash seeds, and each CI leg `diff`s the
installed package's lines against it. It covers

- the CLI on the shipped config, every command of COMMANDS: simulate on
  the packaged example and on a three-waypoint playback file that the
  script writes with save_scenario, workspace at resolution 25 and at 40
  (64,000 rows, twelve CSV blocks), balance of each spring kind,
  compare-handles, fk, ik and contact; each command's exit code, stdout,
  stderr and --out file, run with relative --out names in one temporary
  directory;
- run_scenario on the shipped build for each input kind, rigid or
  compliant mount, with or without a spoon contact, each SimResult field
  on its own (and the times a callable input was called at);
- step_dynamics for each force input on both mounts;
- for each damper and spring build that the shipped config lacks, a
  rigid-mount noise rollout and one step_dynamics call;
- rigid-mount noise rollouts on the shipped build whose row counts end
  on a force-block edge (one full block, and one row more);
- rollouts whose dampers are too stiff for their timestep, each of which
  raises the stiff-damper guard: the packaged example with one viscous
  J3 damper of c = 20 (at t = 1.256 s), 30 and 40 (at t = 0), and, on a
  rigid mount, one viscous J1 damper of c = 0.2 from the pose of least
  yaw inertia;
- generate_signal of each signal spec, no input and a playback;
- the balance table write_balance_csv writes of the residual profiles
  residual_torque_profile gives for the shipped springs as a tuple, a
  list and an iterator, and the error of a rollout given a spring that
  is not a SpringSpec;
- the errors of numbers of the wrong type or out of range, given to a
  spec, a rollout or the config reader, and the simulate CSV of the
  packaged example on a build whose gravity, and with a timestep, given
  as numpy float32;
- the sorted list of the package's public names, the errors of the
  arguments read at the package boundary (a value of the wrong type,
  a rollout's params, state, compliance or scenario among them, a
  damping score's reference, result or baseline, a baseline on another
  time grid than its result, an entry count or an integer below its
  bound), a direction too large to square, which is made unit, and the
  error of a scenario file that is not valid UTF-8;
- the paper's studies on the shipped build: stabilization_report of a
  damped and an undamped rigid-mount noise rollout, against the
  tremor-free rollout and against TrajectorySpec(), the bracket
  calibrate_handle_distance to a 0.24 m handle rise, the
  handle_excursion and trajectory_states of TrajectorySpec(), and the
  workspace_sample points and summary at resolution 25 with the yaw
  range cut to (2.0, 3.0), where every yaw slice has cos(phi1) < 0, and
  to (1.2, 1.9), whose slices have both signs, with the yaw pinned at
  0.7, one slice, and with theta3 pinned at 0.3, each slice one line of
  theta2 nodes;
- holding_force, mass_matrix, coriolis_matrix, kinetic_energy,
  potential_energy, jacobian, handle_jacobian and gravity_torque at
  START, and spring_torque and damper_torque of each spring and damper
  of the shipped config and of VARIANTS;
- the bytes of the package's data files, default_config.json and
  example_scenario.json, and of the file save_config writes for the
  shipped build.

An output that raises is digested as its exception's type and message.

The lines depend on glibc's libm. With Python 3.11.7, numpy 2.4.6 and
glibc 2.36 on an x86-64 CPU with FMA, 55 of the 535 lines differ when
glibc takes its non-FMA variants,

    GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA PYTHONPATH=src \
        python tools/digest.py | diff tools/digest.txt -

namely the CLI's two simulate CSVs (the packaged example and the
playback file); of run_scenario, spoon_pos of each free rollout,
applied_torque of each sine, spasm and callable rollout, qdot and
applied_torque of each noise rollout, and spoon_pos and handle_pos of
each playback; 18 lines of the damper and spring variants' noise
rollouts (qdot or spoon_pos, applied_torque, and for some handle_pos,
e_kin or e_diss); generate_signal of the sine and the noise; and
simulate/example-float32. The constant-force rollouts, step_dynamics,
the balance tables and the studies keep their lines. No comparison
allows for a libm: a CI leg whose libm differs stays red.
The script takes no options. Besides the package's public names it
imports spoonarm.cli.main, spoonarm.config's config_data and
parse_config, and spoonarm.serialize's write_balance_csv and
write_sim_csv.
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import math
import os
import tempfile
from decimal import Decimal
from importlib.resources import files

import numpy as np

import spoonarm
from spoonarm import (ComplianceMode, DamperModel, DamperSpec, FreeRelease,
                      Joint, JointState, NoiseTremor, PrescribedTrajectory,
                      Scenario, SimResult, SineTremor, SpasmImpulse,
                      SpoonContact, SpringKind, SpringSpec, TrajectorySpec,
                      calibrate_handle_distance, coriolis_matrix,
                      damper_torque, default_config_path, generate_signal,
                      gravity_torque, handle_excursion, handle_jacobian,
                      holding_force, inverse_kinematics, jacobian,
                      kinetic_energy, load_config, load_scenario,
                      mass_matrix, potential_energy, residual_torque_profile,
                      run_scenario, save_config, save_scenario,
                      spoon_contact_response, spring_torque,
                      stabilization_report, step_dynamics,
                      trajectory_states, workspace_sample)
from spoonarm.cli import main
from spoonarm.config import config_data, parse_config
from spoonarm.serialize import write_balance_csv, write_sim_csv

EXAMPLE = files("spoonarm") / "data" / "example_scenario.json"
START = JointState(q=(0.0, 0.7347863005736404, -1.4323283077414541),
                   qdot=(0.1, -0.2, 0.3))
DT = 1e-3
DURATION = 0.3      # 301 rows: three force blocks, the last one short
EDGE_ROWS = (128, 129)    # one whole force block; a one-row last block
# J3 dampers that the guard stops on the packaged example: c = 20 once its
# dt*lambda reaches the bound, c = 30 and 40 at the start, where without
# the guard they diverged at 0.023 s and 0.034 s
STIFF_J3_DAMPING = (20.0, 30.0, 40.0)
# least yaw inertia in the joint limits, where a J1 damper of c = 0.2
# has dt*lambda = 2.78
STIFF_J1_START = JointState(q=(0.0, 1.91, -1.38), qdot=(0.5, 0.0, 0.0))
CONTACT = SpoonContact(time=0.1, impulse_pitch=0.01, impulse_yaw=-0.005)
# joint ranges of a workspace cloud, by digest name, as (joint, range):
# yaw ranges of every slice with cos(phi1) < 0 and of slices of both
# signs; a pinned yaw, one slice; and a pinned theta3, whose plane is
# one line of theta2 nodes, each node repeated
WORKSPACE_RANGES = {
    "yaw-2.0-3.0": (0, (2.0, 3.0)),
    "yaw-1.2-1.9": (0, (1.2, 1.9)),
    "yaw-pinned-0.7": (0, (0.7, 0.7)),
    "theta3-pinned-0.3": (2, (0.3, 0.3)),
}

# every kind of handle input a rollout takes; fresh() makes the callable
# anew for each run, so that its call times can be digested
INPUTS = {
    "free": FreeRelease(),
    "sine": SineTremor(amplitude=0.5, frequency=7.0,
                       direction=(0.3, -0.2, 0.9)),
    "noise": NoiseTremor(rms=0.4, f_lo=2.0, f_hi=9.0, seed=11),
    "spasm": SpasmImpulse(force=0.8, duration=0.05, onset=0.1,
                          direction=(1.0, 0.0, 1.0)),
    "constant": (0.1, -0.2, 0.3),
    "callable": None,
    "playback": PrescribedTrajectory(((0.0, 0.35, 0.0, 0.02),
                                      (0.15, 0.33, 0.04, 0.15),
                                      (0.3, 0.3, 0.02, 0.3))),
}

# (springs, dampers) the shipped config lacks; None keeps its own
DEAD_ZONE = DamperModel.DEAD_ZONE_VISCOUS
VARIANTS = {
    "no-damper": (None, ()),
    "damper-none": (None, (DamperSpec(Joint.J3, DamperModel.NONE),)),
    # far inside RK4's stability bound on the yaw joint
    "viscous-j1": (None, (DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.05),)),
    # J2 starts inside its dead zone, J3 outside
    "dead-zone-j2-j3": (None, (DamperSpec(Joint.J2, DEAD_ZONE, 0.4, 0.25),
                               DamperSpec(Joint.J3, DEAD_ZONE, 0.4, 0.25))),
    "two-dampers-on-j3": (None, (
        DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.1),
        DamperSpec(Joint.J3, DEAD_ZONE, 0.3, 0.05))),
    "real-j2-torsion-j3": ((SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 282.0,
                                       0.1, 0.05, free_length=0.02),
                            SpringSpec(SpringKind.TORSION, Joint.J3, 0.8,
                                       torsion_neutral=0.3)), None),
}

# the CLI commands cli_lines runs on the shipped config, by digest name;
# every subcommand of cli.build_parser() has an entry (tests/test_cli.py
# checks it), and every --out name is relative
COMMANDS = {
    "simulate": ["simulate", "--scenario", str(EXAMPLE),
                 "--out", "simulate.csv"],
    "workspace": ["workspace", "--resolution", "25", "--out", "workspace.csv"],
    **{f"balance-{kind}": ["balance", "--kind", kind,
                           "--out", f"balance-{kind}.csv"]
       for kind in ("ideal", "real", "torsion")},
    "compare-handles": ["compare-handles", "--out", "compare.csv"],
    "fk": ["fk", "--q", "0.1,0.8,-0.3"],
    "ik": ["ik", "--target", "0.35,0.02,0.1"],
    "contact": ["contact", "--impulse", "0.02"],
    # 64,000 rows: twelve CSV blocks
    "workspace-40": ["workspace", "--resolution", "40",
                     "--out", "workspace-40.csv"],
    # IK over whole arrays, and CSV columns of few values; cli_lines
    # writes PLAYBACK to playback.json first
    "simulate-playback": ["simulate", "--scenario", "playback.json",
                          "--out", "playback.csv"],
}
PLAYBACK = Scenario(duration=0.5, timestep=DT,
                    initial=JointState(q=(0.0, 0.7, -0.2)),
                    input=PrescribedTrajectory(((0.0, 0.35, 0.0, 0.02),
                                                (0.25, 0.33, 0.04, 0.15),
                                                (0.5, 0.3, 0.02, 0.3))))

# the shipped build, on its compliant mount and on a rigid one
CONFIG = load_config(default_config_path())
P = CONFIG.mechanism
MOUNTS = {"compliant": CONFIG.compliance,
          "rigid": dataclasses.replace(CONFIG.compliance,
                                       mode=ComplianceMode.RIGID)}
RIGID = (P, CONFIG.springs, CONFIG.dampers, MOUNTS["rigid"])


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def array_sha(a) -> str:
    a = np.asarray(a)
    return sha(f"{a.dtype.str}{a.shape}".encode()
               + np.ascontiguousarray(a).tobytes())


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return sha(fh.read())


def outcome(name, call, lines):
    """`lines(result)` for the result of `call()`, or else the one
    `name/error` line of the exception that it raised."""
    try:
        result = call()
    except Exception as exc:
        return [(f"{name}/error", sha(f"{type(exc).__name__}: {exc}"))]
    return lines(result)


def value_line(name, call, digest):
    """The line `name` with `digest(call())`, or else its error line."""
    return outcome(name, call, lambda result: [(name, digest(result))])


def error_line(name, call):
    """The error line of `call()`, which is "none" if it returns."""
    return outcome(name, call, lambda _: [(f"{name}/error", sha("none"))])


def rollout(name, *args):
    """One line per SimResult field of run_scenario(*args)."""
    return outcome(name, lambda: run_scenario(*args), lambda result: [
        (f"{name}/{f.name}", array_sha(getattr(result, f.name)))
        for f in dataclasses.fields(SimResult)])


def fresh(kind):
    """The input of `kind` (None for "none") and, for the callable, a new
    one with the list of the times it is called at, else None."""
    if kind != "callable":
        return INPUTS.get(kind), None
    calls = []

    def force(t):
        calls.append(t)
        return (0.1 * math.sin(7.0 * t), 0.05, 0.2 * math.cos(3.0 * t))
    return force, calls


def cli_lines():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            save_scenario(PLAYBACK, "playback.json")
            for name, argv in COMMANDS.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv + ["--config", "default"])
                yield f"cli/{name}/exit", sha(str(code))
                yield f"cli/{name}/stdout", sha(out.getvalue())
                yield f"cli/{name}/stderr", sha(err.getvalue())
                if "--out" in argv:
                    path = argv[argv.index("--out") + 1]
                    yield f"cli/{name}/{path}", file_sha(path)
        finally:
            os.chdir(cwd)


def rollout_lines():
    for kind in INPUTS:
        for mount, compliance in MOUNTS.items():
            for contact in (None, CONTACT):
                name = (f"run_scenario/{kind}/{mount}/"
                        f"{'contact' if contact else 'no-contact'}")
                inputs, calls = fresh(kind)
                scenario = Scenario(duration=DURATION, timestep=DT,
                                    initial=START, input=inputs,
                                    spoon_contact=contact)
                yield from rollout(name, P, CONFIG.springs, CONFIG.dampers,
                                   compliance, scenario)
                if calls is not None:
                    yield f"{name}/calls", sha(repr(calls))


def step_lines():
    deflections = (0.01, -0.02, 0.3, 0.1)
    for kind in ("none", *INPUTS):
        for mount, compliance in MOUNTS.items():
            name = f"step_dynamics/{kind}/{mount}"
            inputs, calls = fresh(kind)
            yield from value_line(
                name, lambda: step_dynamics(
                    P, CONFIG.springs, CONFIG.dampers, compliance, START,
                    inputs, DT, t=0.123, deflections=deflections),
                lambda step: sha(repr((step[0].q, step[0].qdot, step[1]))))
            if calls is not None:
                yield f"{name}/calls", sha(repr(calls))


def variant_lines():
    inputs = INPUTS["noise"]
    scenario = Scenario(duration=DURATION, timestep=DT, initial=START,
                        input=inputs)
    for variant, (springs, dampers) in VARIANTS.items():
        build = (P, CONFIG.springs if springs is None else springs,
                 CONFIG.dampers if dampers is None else dampers,
                 MOUNTS["rigid"])
        yield from rollout(f"run_scenario/{variant}/noise/rigid/no-contact",
                           *build, scenario)
        yield from value_line(
            f"step_dynamics/{variant}/noise/rigid",
            lambda: step_dynamics(*build, START, inputs, DT, t=0.123),
            lambda step: sha(repr((step[0].q, step[0].qdot))))


def edge_lines():
    for rows in EDGE_ROWS:
        scenario = Scenario(duration=(rows - 1) * DT, timestep=DT,
                            initial=START, input=INPUTS["noise"])
        yield from rollout(f"run_scenario/rows-{rows}/noise/rigid/no-contact",
                           *RIGID, scenario)


def divergence_lines():
    scenario = load_scenario(EXAMPLE)
    for coefficient in STIFF_J3_DAMPING:
        damper = DamperSpec(Joint.J3, DamperModel.VISCOUS, coefficient)
        yield from error_line(
            f"run_scenario/example-viscous-j3-c{coefficient:g}",
            lambda: run_scenario(P, CONFIG.springs, (damper,),
                                 CONFIG.compliance, scenario))
    damper = DamperSpec(Joint.J1, DamperModel.VISCOUS, 0.2)
    yield from error_line(
        "run_scenario/least-yaw-inertia-viscous-j1-c0.2",
        lambda: run_scenario(P, CONFIG.springs, (damper,), MOUNTS["rigid"],
                             Scenario(duration=1.0, initial=STIFF_J1_START)))


def signal_lines():
    times = np.arange(0, 301) * DT
    for kind in ("free", "sine", "noise", "spasm", "playback"):
        forces = [generate_signal(INPUTS[kind], t) for t in times.tolist()]
        yield f"generate_signal/{kind}", array_sha(np.array(forces))


def spring_set_lines():
    springs = CONFIG.springs
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "balance.csv")
        for form, given in (("tuple", springs), ("list", list(springs)),
                            ("iterator", iter(springs))):
            write_balance_csv(residual_torque_profile(P, given), path)
            yield f"write_balance_csv/{form}", file_sha(path)
    scenario = Scenario(duration=DURATION, timestep=DT, initial=START)
    yield from error_line("run_scenario/springs-int", lambda: run_scenario(
        P, [1], CONFIG.dampers, MOUNTS["rigid"], scenario))


def edited(data, section, key, value):
    """A copy of the config `data` with `key` of its `section` (the first
    entry of a list) set to `value`."""
    data = copy.deepcopy(data)
    node = data[section]
    (node[0] if isinstance(node, list) else node)[key] = value
    return data


def number_lines():
    data = config_data(CONFIG)
    scenario = Scenario(duration=DURATION, timestep=DT, initial=START)
    calls = {
        "TrajectorySpec/plate-none": lambda: TrajectorySpec(plate=None),
        "TrajectorySpec/plate-str": lambda: TrajectorySpec(plate=("a", 0.1)),
        "SpoonContact/time-str": lambda: SpoonContact(time="0.1",
                                                      impulse_pitch=0.01),
        "Scenario/duration-str": lambda: Scenario(duration="1"),
        "JointState/q-none": lambda: JointState(q=None),
        "run_scenario/damper-decimal": lambda: run_scenario(
            P, CONFIG.springs,
            (DamperSpec(Joint.J2, coefficient=Decimal("0.4")),),
            CONFIG.compliance, scenario),
        "parse_config/damper-coefficient": lambda: parse_config(edited(
            data, "dampers", "coefficient_n_m_s_per_rad", -0.4)),
        "parse_config/compliant-stiffness": lambda: parse_config(edited(
            data, "compliance", "stiffness_n_m_per_rad", 0.0)),
    }
    for name, call in calls.items():
        yield from error_line(name, call)
    build = dataclasses.replace(P, gravity=np.float32(9.81))
    example = dataclasses.replace(load_scenario(EXAMPLE),
                                  timestep=np.float32(1e-3))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "float32.csv")
        yield from value_line(
            "simulate/example-float32",
            lambda: write_sim_csv(run_scenario(
                build, CONFIG.springs, CONFIG.dampers, CONFIG.compliance,
                example), path),
            lambda _: file_sha(path))


def boundary_lines():
    yield "spoonarm.__all__", sha(repr(sorted(spoonarm.__all__)))
    rigid = MOUNTS["rigid"]
    short = Scenario(duration=DT, timestep=DT, initial=START)
    still = run_scenario(P, (), (), rigid, Scenario(duration=DURATION,
                                                    timestep=DT, initial=START))

    def step(deflections):
        return step_dynamics(*RIGID, START, None, DT, deflections=deflections)

    calls = {
        "stabilization_report/reference-none": lambda: stabilization_report(
            None, still),
        "stabilization_report/result-none": lambda: stabilization_report(
            TrajectorySpec(), None),
        "stabilization_report/baseline-spec": lambda: stabilization_report(
            TrajectorySpec(), still, TrajectorySpec()),
        "stabilization_report/baseline-grid": lambda: stabilization_report(
            TrajectorySpec(), still, run_scenario(P, (), (), rigid, short)),
        "spoon_contact_response/duration-str": lambda: spoon_contact_response(
            CONFIG.compliance, 0.02, duration="1"),
        "step_dynamics/deflections-none": lambda: step(None),
        "step_dynamics/deflections-str": lambda: step(("a", 0, 0, 0)),
        "calibrate_handle_distance/rise-str": lambda: (
            calibrate_handle_distance(P, TrajectorySpec(), "0.2")),
        "inverse_kinematics/target-short": lambda: inverse_kinematics(
            P, (0.3, 0.1)),
        "NoiseTremor/seed-negative": lambda: NoiseTremor(0.4, 2.0, 9.0,
                                                         seed=-1),
        "TrajectorySpec/waypoints-one": lambda: TrajectorySpec(waypoints=1),
        "workspace_sample/resolution-one": lambda: workspace_sample(P, 1),
        "run_scenario/params-none": lambda: run_scenario(
            None, (), (), rigid, short),
        "run_scenario/compliance-none": lambda: run_scenario(
            P, (), (), None, short),
        "run_scenario/scenario-dict": lambda: run_scenario(
            P, (), (), rigid, {"duration": DT}),
        "step_dynamics/params-none": lambda: step_dynamics(
            None, (), (), rigid, START, None, DT),
        "step_dynamics/compliance-none": lambda: step_dynamics(
            P, (), (), None, START, None, DT),
        "step_dynamics/state-tuple": lambda: step_dynamics(
            P, (), (), rigid, START.q, None, DT),
        "spoon_contact_response/compliance-none": lambda: (
            spoon_contact_response(None, 0.02)),
    }
    for name, call in calls.items():
        yield from error_line(name, call)
    yield from value_line(
        "SineTremor/direction-1e200",
        lambda: SineTremor(1.0, 1.0, direction=(1e200, 0.0, 1e200)),
        lambda sine: sha(repr(sine.direction)))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "not-utf-8.json")
        with open(path, "wb") as fh:
            fh.write(b'{"schema_version": 1, "duration_s": "\xff"}')
        yield from error_line("load_scenario/not-utf-8",
                              lambda: load_scenario(path))


def study_lines():
    """The paper's studies on the shipped build: the damping score of a
    damped and an undamped rigid-mount noise rollout, against the
    tremor-free rollout and against the feeding motion, the bracket
    calibration and the handle travel of that motion; and the workspace
    cloud at resolution 25 with each of WORKSPACE_RANGES."""
    def rigid(dampers, inputs):
        return run_scenario(P, CONFIG.springs, dampers, MOUNTS["rigid"],
                            Scenario(duration=DURATION, timestep=DT,
                                     initial=START, input=inputs))

    trajectory = TrajectorySpec()
    still = rigid(CONFIG.dampers, None)
    damped = rigid(CONFIG.dampers, INPUTS["noise"])
    undamped = rigid((), INPUTS["noise"])
    for name, reference in (("tremor-free", still),
                            ("trajectory", trajectory)):
        yield from value_line(
            f"stabilization_report/noise-damped-vs-undamped/{name}",
            lambda: stabilization_report(reference, damped, undamped),
            lambda report: array_sha(dataclasses.astuple(report)))
    yield from value_line(
        "calibrate_handle_distance/rise-0.24",
        lambda: calibrate_handle_distance(P, trajectory, 0.24), array_sha)
    yield from value_line("handle_excursion",
                          lambda: handle_excursion(P, trajectory), array_sha)
    yield from value_line(
        "trajectory_states", lambda: trajectory_states(P, trajectory),
        lambda states: array_sha([dataclasses.astuple(s) for s in states]))
    for name, (joint, limits) in WORKSPACE_RANGES.items():
        name = f"workspace_sample/{name}"
        build = dataclasses.replace(P, joint_limits=tuple(
            limits if j == joint else pair
            for j, pair in enumerate(P.joint_limits)))
        yield from outcome(name, lambda: workspace_sample(build, 25),
                           lambda sample: [
                               (f"{name}/points", array_sha(sample.points)),
                               (f"{name}/summary", array_sha(
                                   dataclasses.astuple(sample.summary)))])


def law_lines():
    """The mechanics of the shipped build at START, and the torque of
    each spring and damper of the shipped config and of VARIANTS at
    START's angles and rates."""
    springs = (*CONFIG.springs, *VARIANTS["real-j2-torsion-j3"][0])
    dampers = (*CONFIG.dampers, *(damper for _, variant in VARIANTS.values()
                                  for damper in variant or ()))
    calls = {
        "holding_force": lambda: holding_force(P, CONFIG.springs, START),
        "mass_matrix": lambda: mass_matrix(P, START),
        "coriolis_matrix": lambda: coriolis_matrix(P, START),
        "kinetic_energy": lambda: kinetic_energy(P, START),
        "potential_energy": lambda: potential_energy(P, CONFIG.springs,
                                                     START),
        "jacobian": lambda: jacobian(P, START),
        "handle_jacobian": lambda: handle_jacobian(P, START),
        "gravity_torque": lambda: gravity_torque(P, START),
        "spring_torque": lambda: [spring_torque(spring, START.q[spring.joint])
                                  for spring in springs],
        "damper_torque": lambda: [
            damper_torque(damper, START.qdot[damper.joint])
            for damper in dampers],
    }
    for name, call in calls.items():
        yield from value_line(f"{name}/start", call, array_sha)


def data_lines():
    """The package's data files, and the config file save_config writes
    for the shipped build."""
    for name in ("default_config.json", "example_scenario.json"):
        yield f"data/{name}", sha((files("spoonarm") / "data" / name)
                                  .read_bytes())
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "config.json")
        yield from value_line("save_config/default",
                              lambda: save_config(CONFIG, path),
                              lambda _: file_sha(path))


def digest_lines():
    yield from cli_lines()
    yield from rollout_lines()
    yield from step_lines()
    yield from variant_lines()
    yield from edge_lines()
    yield from divergence_lines()
    yield from signal_lines()
    yield from spring_set_lines()
    yield from number_lines()
    yield from boundary_lines()
    yield from study_lines()
    yield from law_lines()
    yield from data_lines()


if __name__ == "__main__":
    os.environ.pop("SPOONARM_OUT_DIR", None)    # --out names stay relative
    for name, digest in digest_lines():
        print(name, digest)
