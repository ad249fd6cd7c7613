"""Per-call timings of spoonarm's public functions, one layer at a time.

Each probe warms up first (numpy imported, the noise table cached, the
files in the page cache), then times a batch of calls several times and
keeps the median per call. The dynamics probes use the workload's own
springs, dampers, mount and input signal.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from spoonarm import analysis, config, dynamics, kinematics, serialize, statics
from spoonarm.dynamics import NoiseTremor, SineTremor
from spoonarm.statics import SpringKind

import workloads

REPEATS = 5
ROLLOUT_PROBE_S = 0.5


def per_call(fn, calls: int) -> float:
    """Median seconds per call of `fn()` over REPEATS batches."""
    fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def run(workload, seed: int, workdir) -> dict:
    """{metric name: (value, unit)} for every layer probe."""
    build = workloads.default_build()
    params = build.mechanism
    springs, dampers, compliance, scenario = workload.probe_build
    state = scenario.initial
    out = {}

    def fk():
        kinematics.spoon_pose(params, state)
        kinematics.handle_pose(params, state)
    out["kinematics.fk_us"] = (per_call(fk, 2000) * 1e6, "us")

    targets = analysis.TrajectorySpec().points()

    def ik():
        for target in targets:
            kinematics.inverse_kinematics(params, target)
    out["kinematics.ik_us"] = (per_call(ik, 20) / len(targets) * 1e6, "us")

    def step():
        dynamics.step_dynamics(params, springs, dampers, compliance, state,
                               scenario.input, scenario.timestep)
    step_s = per_call(step, 200)
    out["dynamics.step_us"] = (step_s * 1e6, "us")

    short = replace(scenario, duration=ROLLOUT_PROBE_S)
    rows = short.steps
    results = []

    def rollout():
        results.append(dynamics.run_scenario(params, springs, dampers,
                                             compliance, short))
    rollout_s = per_call(rollout, 1) / rows
    out["dynamics.rollout_us_per_step"] = (rollout_s * 1e6, "us")
    out["dynamics.record_us_per_step"] = ((rollout_s - step_s) * 1e6, "us")

    sine = SineTremor(amplitude=0.15, frequency=2.0)
    noise = NoiseTremor(rms=workloads.TREMOR_RMS_N, f_lo=2.0, f_hi=6.0,
                        seed=0)
    for name, spec in (("sine", sine), ("noise", noise)):
        out[f"dynamics.signal_{name}_us"] = (per_call(
            lambda: dynamics.generate_signal(spec, 0.123), 2000) * 1e6, "us")

    playback = workloads.playback_scenario(seed, state)
    playback = replace(playback, duration=ROLLOUT_PROBE_S)
    out["dynamics.playback_us_per_step"] = (per_call(
        lambda: dynamics.run_scenario(params, springs, dampers, compliance,
                                      playback), 1)
        / playback.steps * 1e6, "us")

    result = results[-1]
    sim_csv = workdir / f"probe-sim-seed{seed}.csv"
    out["serialize.sim_csv_us_per_row"] = (per_call(
        lambda: serialize.write_sim_csv(result, sim_csv), 1)
        / len(result) * 1e6, "us")
    points = analysis.workspace_sample(params, 20).points
    ws_csv = workdir / f"probe-workspace-seed{seed}.csv"
    out["serialize.workspace_csv_us_per_row"] = (per_call(
        lambda: serialize.write_workspace_csv(points, ws_csv), 1)
        / len(points) * 1e6, "us")

    config_path = config.default_config_path()
    scenario_path = workloads.example_scenario_path()
    out["config.load_config_ms"] = (per_call(
        lambda: config.load_config(config_path), 20) * 1e3, "ms")
    out["config.load_scenario_ms"] = (per_call(
        lambda: config.load_scenario(scenario_path), 20) * 1e3, "ms")

    res = workloads.WORKSPACE_RESOLUTION
    samples = []
    out["analysis.workspace_ms"] = (per_call(
        lambda: samples.append(analysis.workspace_sample(params, res)), 1)
        * 1e3, "ms")
    out["analysis.workspace_unique_ratio"] = (
        len(samples[-1].points) / res ** 3, "ratio")
    trajectory = analysis.TrajectorySpec()
    rise = analysis.handle_excursion(params, trajectory).handle_rise
    out["analysis.calibrate_ms"] = (per_call(
        lambda: analysis.calibrate_handle_distance(params, trajectory, rise),
        1) * 1e3, "ms")
    reference = results[0]
    out["analysis.stabilization_ms"] = (per_call(
        lambda: analysis.stabilization_report(reference, result,
                                              baseline=result), 20)
        * 1e3, "ms")

    for name, kind in (("ideal", SpringKind.LINEAR_ZERO_FREE_LENGTH),
                       ("real", SpringKind.LINEAR_REAL),
                       ("torsion", SpringKind.TORSION)):
        out[f"statics.synthesize_{name}_ms"] = (per_call(
            lambda: statics.synthesize_balancing(params, kind), 5)
            * 1e3, "ms")
    return out
