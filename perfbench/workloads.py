"""The benchmark's three workloads: seeded inputs, ops and output checks.

Each workload is a list of ops that the closed loop in run.py repeats in
order. An op calls into spoonarm and returns its output together with the
number of simulated steps it produced; the op's check then compares that
output against invariants and against the stored references in
references.json (regenerate them with make_references.py).

Every call into spoonarm goes through a module attribute
(`dynamics.run_scenario`, not a name imported into this file), so that the
traced run can put spans around these calls by patching the attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from spoonarm import analysis, cli, config, dynamics, serialize, statics
from spoonarm.dynamics import (
    ComplianceMode,
    ComplianceSpec,
    DamperModel,
    DamperSpec,
    NoiseTremor,
    PrescribedTrajectory,
    Scenario,
)
from spoonarm.kinematics import Joint
from spoonarm.statics import SpringKind

REFERENCES = Path(__file__).resolve().parent / "references.json"

# A stored reference matches when |value - ref| <= ABS_TOL + REL_TOL*|ref|.
# Reordered float arithmetic moves these outputs by around 1e-13 relative;
# a 1% change of any physical parameter moves them by far more than 1e-7.
REL_TOL = 1e-7
ABS_TOL = 1e-12

# damper_sweep: rigid-mount rollouts under band-limited noise tremor.
SWEEP_DURATION_S = 1.0
TREMOR_RMS_N = 0.3
TREMOR_BANDS_HZ = ((2.0, 6.0), (6.0, 12.0))
NOISE_SEED_POOL = tuple(range(12))   # references cover every pool seed
NOISE_SEEDS_PER_RUN = 4
DEADZONE_RAD_S = 0.02
DAMPER_GRID = (
    (DamperModel.NONE, 0.0),
    (DamperModel.VISCOUS, 0.1),
    (DamperModel.VISCOUS, 0.4),
    (DamperModel.VISCOUS, 1.0),
    (DamperModel.DEAD_ZONE_VISCOUS, 0.1),
    (DamperModel.DEAD_ZONE_VISCOUS, 0.4),
    (DamperModel.DEAD_ZONE_VISCOUS, 1.0),
)

# design_studies: 40 nodes per joint is 64,000 grid points, 16 times the
# CLI default of 25 per joint, and keeps one round of studies under 1 s.
WORKSPACE_RESOLUTION = 40
PLAYBACK_DURATION_S = 2.0
PLAYBACK_WAYPOINTS = 6


class CheckFailed(Exception):
    """An op's output does not match its invariants or references."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(values, refs, what: str) -> None:
    values = [float(v) for v in values]
    refs = [float(r) for r in refs]
    expect(len(values) == len(refs),
           f"{what}: {len(values)} values, {len(refs)} references")
    for i, (v, r) in enumerate(zip(values, refs)):
        expect(abs(v - r) <= ABS_TOL + REL_TOL * abs(r),
               f"{what}[{i}] = {v!r}, reference {r!r}")


@dataclass
class Op:
    """One closed-loop operation: `run` returns (output, steps).

    `name` is the op's kind: ops of one kind do the same amount of work,
    which is what run.py's throughput statistic relies on.
    """

    name: str
    run: Callable[[], tuple]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list
    # build used by the layer probes: springs, dampers, mount and a
    # scenario whose input is a force signal
    probe_build: tuple


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def default_build():
    return config.load_config(config.default_config_path())


def example_scenario_path() -> Path:
    return Path(str(resources.files("spoonarm").joinpath(
        "data/example_scenario.json")))


def example_scenario() -> Scenario:
    return config.load_scenario(example_scenario_path())


# ---------------------------------------------------------------------------
# example_rollout


def example_rollout(seed: int, workdir: Path, refs: dict) -> Workload:
    """The documented `spoonarm simulate` command on the shipped example.

    The input is the shipped scenario, so the seed only names the output.
    """
    out = workdir / f"example-seed{seed}.csv"
    argv = ["simulate", "--config", "default",
            "--scenario", str(example_scenario_path()), "--out", str(out)]
    scenario = example_scenario()
    steps = scenario.steps
    ref = refs["example_rollout"]
    first_digest = []

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return (code, stdout.getvalue()), steps

    def check(output):
        code, stdout = output
        expect(code == 0, f"exit code {code}")
        expect(f"rows {steps}\n" in stdout, f"stdout {stdout!r}")
        data = out.read_bytes()
        lines = data.decode("utf-8").splitlines()
        expect(lines[0] == serialize.SIM_HEADER, "CSV header")
        expect(len(lines) - 1 == steps,
               f"{len(lines) - 1} CSV rows, expected {steps}")
        expect_close(lines[-1].split(","), ref["final_row"], "final row")
        digest = hashlib.sha256(data).hexdigest()
        if not first_digest:
            first_digest.append(digest)
        expect(digest == first_digest[0], "CSV bytes differ between ops")

    build = default_build()
    return Workload([Op("simulate", run, check)],
                    (build.springs, build.dampers, build.compliance,
                     scenario))


# ---------------------------------------------------------------------------
# damper_sweep


def sweep_key(model: DamperModel, coefficient: float, band, noise_seed: int):
    return f"{model.value}:{coefficient!r}:{band[0]!r}-{band[1]!r}:{noise_seed}"


def sweep_dampers(model: DamperModel, coefficient: float) -> tuple:
    if model is DamperModel.NONE:
        return ()
    deadzone = DEADZONE_RAD_S if model is DamperModel.DEAD_ZONE_VISCOUS else 0.0
    return tuple(DamperSpec(joint, model, coefficient, deadzone)
                 for joint in (Joint.J2, Joint.J3))


class SweepSetup:
    """The shared inputs of the sweep: build, reference and baselines."""

    def __init__(self, noise_seeds):
        build = default_build()
        self.params = build.mechanism
        self.springs = build.springs
        self.rigid = ComplianceSpec(mode=ComplianceMode.RIGID)
        self.initial = example_scenario().initial
        # balanced springs hold the example pose: the tremor-free,
        # undamped rollout is the reference every op is scored against
        self.reference = dynamics.run_scenario(
            self.params, self.springs, (), self.rigid,
            Scenario(duration=SWEEP_DURATION_S, initial=self.initial))
        self.baselines = {}
        for band in TREMOR_BANDS_HZ:
            for noise_seed in noise_seeds:
                self.baselines[band, noise_seed] = self.rollout(
                    (), self.scenario(band, noise_seed))

    def scenario(self, band, noise_seed: int) -> Scenario:
        return Scenario(duration=SWEEP_DURATION_S, initial=self.initial,
                        input=NoiseTremor(rms=TREMOR_RMS_N, f_lo=band[0],
                                          f_hi=band[1], seed=noise_seed))

    def rollout(self, dampers, scenario):
        return dynamics.run_scenario(self.params, self.springs, dampers,
                                     self.rigid, scenario)

    def score(self, result, band, noise_seed):
        return analysis.stabilization_report(
            self.reference, result,
            baseline=self.baselines[band, noise_seed])


def sweep_grid(seed: int) -> list:
    """(model, coefficient, band, noise seed) in the seed's order."""
    rng = np.random.default_rng(seed)
    noise_seeds = sorted(int(s) for s in rng.choice(
        NOISE_SEED_POOL, size=NOISE_SEEDS_PER_RUN, replace=False))
    grid = [(model, coefficient, band, noise_seed)
            for model, coefficient in DAMPER_GRID
            for band in TREMOR_BANDS_HZ
            for noise_seed in noise_seeds]
    return [grid[i] for i in rng.permutation(len(grid))]


def damper_sweep(seed: int, workdir: Path, refs: dict) -> Workload:
    """Stabilization scoring: dampers against noise tremor, rigid mount."""
    grid = sweep_grid(seed)
    setup = SweepSetup(sorted({point[3] for point in grid}))
    undamped_rms = {key: setup.score(result, *key).rms_deviation
                    for key, result in setup.baselines.items()}
    ref = refs["damper_sweep"]

    def make_op(model, coefficient, band, noise_seed):
        dampers = sweep_dampers(model, coefficient)
        scenario = setup.scenario(band, noise_seed)
        key = sweep_key(model, coefficient, band, noise_seed)
        base_rms = undamped_rms[band, noise_seed]

        def run():
            result = setup.rollout(dampers, scenario)
            return setup.score(result, band, noise_seed), len(result)

        def check(report):
            if model is DamperModel.NONE:
                expect(report.rms_deviation == base_rms
                       and report.attenuation == 1.0,
                       f"{key}: undamped rerun differs from its baseline")
            else:
                expect(report.rms_deviation < base_rms,
                       f"{key}: damped RMS {report.rms_deviation!r} not "
                       f"below undamped {base_rms!r}")
            expect_close((report.rms_deviation, report.attenuation,
                          report.peak_deviation), ref[key], key)

        return Op(f"{model.value}:{coefficient!r}", run, check)

    model, coefficient, band, noise_seed = grid[0]
    return Workload([make_op(*point) for point in grid],
                    (setup.springs, sweep_dampers(model, coefficient),
                     setup.rigid, setup.scenario(band, noise_seed)))


# ---------------------------------------------------------------------------
# design_studies


def playback_scenario(seed: int, initial) -> Scenario:
    """Seeded plate-to-mouth waypoints, all inside the workspace."""
    rng = np.random.default_rng(seed)
    plate_r, plate_z = analysis.TrajectorySpec().plate
    mouth_r, mouth_z = analysis.TrajectorySpec().mouth
    waypoints = []
    for i, t in enumerate(np.linspace(0.0, PLAYBACK_DURATION_S,
                                      PLAYBACK_WAYPOINTS)):
        u = i / (PLAYBACK_WAYPOINTS - 1)
        r = plate_r + u * (mouth_r - plate_r) + rng.uniform(-0.03, 0.03)
        z = plate_z + u * (mouth_z - plate_z) + rng.uniform(-0.01, 0.01)
        waypoints.append((float(t), float(r), float(rng.uniform(-0.03, 0.03)),
                          float(z)))
    return Scenario(duration=PLAYBACK_DURATION_S, initial=initial,
                    input=PrescribedTrajectory(tuple(waypoints)))


def design_studies(seed: int, workdir: Path, refs: dict) -> Workload:
    """One round of the design studies; only the playback is seeded."""
    build = default_build()
    params = build.mechanism
    trajectory = analysis.TrajectorySpec()
    target_rise = analysis.handle_excursion(params, trajectory).handle_rise
    playback = playback_scenario(seed, example_scenario().initial)
    waypoints = np.array(playback.input.waypoints)
    csv_path = workdir / f"workspace-seed{seed}.csv"
    ref = refs["design_studies"]

    def workspace():
        sample = analysis.workspace_sample(params, WORKSPACE_RESOLUTION)
        serialize.write_workspace_csv(sample.points, csv_path)
        return sample, 0

    def check_workspace(sample):
        s = sample.summary
        expect(s.covers_target_rise, "workspace misses the feeding rise")
        expect(len(sample.points) == ref["workspace_points"],
               f"{len(sample.points)} workspace points")
        expect_close((s.max_reach, s.min_reach, s.vertical_span,
                      s.plate_vertical_span), ref["workspace_summary"],
                     "workspace summary")
        with open(csv_path, "rb") as fh:
            header = fh.readline()
            rows = sum(chunk.count(b"\n")
                       for chunk in iter(lambda: fh.read(1 << 20), b""))
        expect(header == (serialize.WORKSPACE_HEADER + "\n").encode(),
               "workspace CSV header")
        expect(rows == len(sample.points), f"{rows} workspace CSV rows")

    def synthesize():
        return {kind: statics.synthesize_balancing(params, kind)
                for kind in SpringKind}, 0

    def check_synthesize(results):
        ideal = results[SpringKind.LINEAR_ZERO_FREE_LENGTH]
        expect(ideal.max_residual <= 1e-9,
               f"ideal-spring residual {ideal.max_residual!r}")
        for kind, result in results.items():
            expect_close((result.max_residual, result.spring_j2.stiffness,
                          result.spring_j3.stiffness),
                         ref["synthesize"][kind.value], kind.value)

    def calibrate():
        return analysis.calibrate_handle_distance(params, trajectory,
                                                  target_rise), 0

    def check_calibrate(d_h):
        expect(abs(d_h - params.handle_distance) <= 1e-4,
               f"calibrated d_h {d_h!r} far from the default build's "
               f"{params.handle_distance!r}")
        expect_close((d_h,), (ref["calibrated_d_h"],), "calibrated d_h")

    def compare():
        return analysis.compare_handle_variants(params, trajectory), 0

    def check_compare(rows):
        expect([row[0] for row in rows] == ["old_tip", "new_inboard"],
               "compare-handles variants")
        expect(rows[0][4] == 1.0, f"old_tip ratio {rows[0][4]!r}")
        expect(rows[1][1] == params.handle_distance, "new_inboard d_h")
        expect_close((rows[1][4],), (ref["compare_ratio"],),
                     "new_inboard ratio")

    def play():
        result = dynamics.run_scenario(params, build.springs, build.dampers,
                                       build.compliance, playback)
        return result, len(result)

    def check_play(result):
        expect(len(result) == playback.steps, f"{len(result)} playback rows")
        track = np.stack([np.interp(result.t, waypoints[:, 0],
                                    waypoints[:, c]) for c in (1, 2, 3)],
                         axis=1)
        error = float(np.abs(result.spoon_pos - track).max())
        expect(error <= 1e-9, f"playback misses its waypoints by {error!r} m")

    ops = [Op("workspace", workspace, check_workspace),
           Op("synthesize", synthesize, check_synthesize),
           Op("calibrate", calibrate, check_calibrate),
           Op("compare", compare, check_compare),
           Op("playback", play, check_play)]
    return Workload(ops, (build.springs, build.dampers, build.compliance,
                          example_scenario()))


WORKLOADS = {
    "example_rollout": example_rollout,
    "damper_sweep": damper_sweep,
    "design_studies": design_studies,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir, load_references())


def compute_references(workdir: Path) -> dict:
    """Reference outputs for every input any seed can draw."""
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / "reference-example.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["simulate", "--config", "default", "--scenario",
                         str(example_scenario_path()), "--out",
                         str(csv_path)])
    if code != 0:
        raise RuntimeError(f"simulate exited with {code}")
    last = csv_path.read_text(encoding="utf-8").splitlines()[-1]
    refs = {"example_rollout": {"final_row": [float(v)
                                              for v in last.split(",")]}}

    setup = SweepSetup(NOISE_SEED_POOL)
    sweep = {}
    for model, coefficient in DAMPER_GRID:
        for band in TREMOR_BANDS_HZ:
            for noise_seed in NOISE_SEED_POOL:
                result = setup.rollout(sweep_dampers(model, coefficient),
                                       setup.scenario(band, noise_seed))
                report = setup.score(result, band, noise_seed)
                sweep[sweep_key(model, coefficient, band, noise_seed)] = [
                    report.rms_deviation, report.attenuation,
                    report.peak_deviation]
    refs["damper_sweep"] = sweep

    build = default_build()
    params = build.mechanism
    trajectory = analysis.TrajectorySpec()
    sample = analysis.workspace_sample(params, WORKSPACE_RESOLUTION)
    s = sample.summary
    synth = {}
    for kind in SpringKind:
        result = statics.synthesize_balancing(params, kind)
        synth[kind.value] = [result.max_residual, result.spring_j2.stiffness,
                             result.spring_j3.stiffness]
    target = analysis.handle_excursion(params, trajectory).handle_rise
    rows = analysis.compare_handle_variants(params, trajectory)
    refs["design_studies"] = {
        "workspace_points": len(sample.points),
        "workspace_summary": [s.max_reach, s.min_reach, s.vertical_span,
                              s.plate_vertical_span],
        "synthesize": synth,
        "calibrated_d_h": analysis.calibrate_handle_distance(
            params, trajectory, target),
        "compare_ratio": rows[1][4],
    }
    return refs
