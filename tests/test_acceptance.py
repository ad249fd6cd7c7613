"""Acceptance gate: the nine release criteria, one test and one
printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines on a
passing build; pytest shows them on failures regardless.
"""

import math
import time
from dataclasses import replace

import numpy as np

from spoonarm import JointState, MechanismParams
from spoonarm.analysis import TrajectorySpec, stabilization_report, trajectory_states
from spoonarm.cli import main
from spoonarm.config import (
    ConfigFile,
    load_config,
    save_config,
    save_scenario,
)
from spoonarm.dynamics import (
    DamperModel,
    DamperSpec,
    NoiseTremor,
    Scenario,
    SineTremor,
    SpoonContact,
    kinetic_energy,
    run_scenario,
    spoon_contact_response,
)
from spoonarm.kinematics import (
    Handedness,
    Joint,
    handle_jacobian,
    handle_pose,
    inverse_kinematics,
    jacobian,
    spoon_pose,
)
from spoonarm.serialize import write_sim_csv
from spoonarm.statics import SpringKind, SpringSpec, holding_force, synthesize_balancing

from shipped import FREE_LIMITS, NOMINAL, RIGID, SHIPPED

HANG = -math.pi / 2.0


def check(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_handle_excursion(capsys):
    t0 = time.perf_counter()
    code = main(["compare-handles"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.splitlines()
    old = out[1].split(",")
    new = out[2].split(",")
    ratio = float(old[4])
    old_rise = float(old[3])
    new_rise = float(new[3])
    ok = (code == 0
          and old[0] == "old_tip" and new[0] == "new_inboard"
          and abs(ratio - 1.0) <= 1e-6
          and abs(old_rise - 0.33) <= 1e-6
          and abs(new_rise - 0.24) <= 0.010
          and elapsed < 1.0)
    check(1, ok, f"old ratio {ratio}, new handle rise {new_rise:.6f} m, "
                 f"{elapsed:.3f} s")


def test_criterion_2_bracket_sign():
    params = NOMINAL
    traj = TrajectorySpec()
    states = trajectory_states(params, traj)
    plate_gap = (handle_pose(params, states[0]).z
                 - spoon_pose(params, states[0]).z)
    mouth_gap = (handle_pose(params, states[-1]).z
                 - spoon_pose(params, states[-1]).z)
    ok = plate_gap > 0.0 and mouth_gap < 0.0
    check(2, ok, f"handle-spoon height gap {plate_gap:+.4f} m at plate, "
                 f"{mouth_gap:+.4f} m at mouth")


def test_criterion_3_ideal_balance():
    t0 = time.perf_counter()
    params = NOMINAL
    result = synthesize_balancing(params, SpringKind.LINEAR_ZERO_FREE_LENGTH)
    rng = np.random.default_rng(3)
    worst_force = 0.0
    for _ in range(100):
        q = tuple(rng.uniform(lo, hi) for lo, hi in params.joint_limits)
        force = holding_force(params, result.springs, JointState(q=q))
        worst_force = max(worst_force, float(np.linalg.norm(force)))
    elapsed = time.perf_counter() - t0
    ok = (result.max_residual < 1e-9 and worst_force < 1e-6
          and elapsed < 1.0)
    check(3, ok, f"max residual {result.max_residual:.3e} N*m, "
                 f"worst holding force {worst_force:.3e} N, {elapsed:.3f} s")


def test_criterion_4_balancing_quality_ordering():
    deg = math.pi / 180.0
    lifted = (-20.0 * deg, 80.0 * deg)
    params = replace(NOMINAL,
                     joint_limits=((-math.pi, math.pi), lifted, lifted))
    residuals = {
        kind: synthesize_balancing(params, kind).max_residual
        for kind in (SpringKind.LINEAR_ZERO_FREE_LENGTH,
                     SpringKind.LINEAR_REAL, SpringKind.TORSION)
    }
    ideal = residuals[SpringKind.LINEAR_ZERO_FREE_LENGTH]
    real = residuals[SpringKind.LINEAR_REAL]
    torsion = residuals[SpringKind.TORSION]
    ok = ideal <= real <= torsion
    check(4, ok, f"max residual {ideal:.3e} (ideal) <= {real:.3e} (real) "
                 f"<= {torsion:.3e} (torsion) N*m")


def test_criterion_5_energy_properties():
    params = MechanismParams(joint_limits=FREE_LIMITS)
    swing = Scenario(duration=10.0, timestep=1e-3,
                     initial=JointState(q=(0.0, HANG + 0.4, HANG - 0.25),
                                        qdot=(0.4, 0.2, -0.1)))
    free = run_scenario(params, [], [], RIGID, swing)
    energy = free.total_energy
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))

    worst_rise = -math.inf
    for dampers in (
        [DamperSpec(j, DamperModel.VISCOUS, 0.4) for j in Joint],
        [DamperSpec(j, DamperModel.DEAD_ZONE_VISCOUS, 0.4, 0.05)
         for j in Joint],
    ):
        damped = run_scenario(params, [], dampers, RIGID, swing)
        worst_rise = max(worst_rise,
                         float(np.max(np.diff(damped.total_energy))))
    ok = drift < 1e-6 and worst_rise <= 1e-12
    check(5, ok, f"undamped relative drift {drift:.3e} over 10 s, "
                 f"worst damped energy step {worst_rise:.3e} J")


def test_criterion_6_dead_zone_signature():
    t0 = time.perf_counter()
    params = MechanismParams(
        joint_limits=((0.0, 0.0), (-1e6, 1e6), (-1e6, 1e6)))
    tremor = SineTremor(amplitude=0.15, frequency=2.0,
                        direction=(1.0, 0.0, 0.0))
    hang = JointState(q=(0.0, HANG, HANG))
    quiet = Scenario(duration=6.0, timestep=1e-3, initial=hang)
    shaken = replace(quiet, input=tremor)

    def dampers(model, *extra):
        return [DamperSpec(j, model, 0.4, *extra)
                for j in (Joint.J2, Joint.J3)]

    reference = run_scenario(params, [], [], RIGID, quiet)
    dead = run_scenario(params, [],
                        dampers(DamperModel.DEAD_ZONE_VISCOUS, 0.3),
                        RIGID, shaken)
    viscous = run_scenario(params, [], dampers(DamperModel.VISCOUS),
                           RIGID, shaken)
    elapsed = time.perf_counter() - t0

    peak_speed = float(np.max(np.abs(dead.qdot)))
    rms_dead = stabilization_report(reference, dead).rms_deviation
    rms_viscous = stabilization_report(reference, viscous).rms_deviation
    ok = (peak_speed < 0.3                  # premise: below the threshold
          and dead.e_diss[-1] == 0.0
          and viscous.e_diss[-1] > 0.0
          and rms_viscous < rms_dead
          and elapsed < 10.0)
    check(6, ok, f"dead-zone E_diss {dead.e_diss[-1]}, viscous E_diss "
                 f"{viscous.e_diss[-1]:.3e} J, spoon RMS {rms_viscous:.4f} "
                 f"(viscous) < {rms_dead:.4f} (dead-zone) m, {elapsed:.1f} s")


def test_criterion_7_compliance_recentering():
    params = NOMINAL
    compliance = SHIPPED.compliance
    impulse = 0.02

    compliant = spoon_contact_response(compliance, impulse)
    rigid = spoon_contact_response(RIGID, impulse)

    pinned = replace(params, joint_limits=((0.0, 0.0), (HANG, HANG),
                                           (HANG, HANG)))
    scenario = Scenario(duration=2.0, timestep=1e-4,
                        initial=JointState(q=(0.0, HANG, HANG)),
                        spoon_contact=SpoonContact(time=0.0,
                                                   impulse_pitch=impulse))
    res = run_scenario(params=pinned, springs=[], dampers=[],
                       compliance=compliance, scenario=scenario)
    d = res.deflection[:, 0]

    # successive extrema of the pitch deflection, parabola-refined
    amplitudes = []
    for i in range(1, len(d) - 1):
        if (d[i] - d[i - 1]) * (d[i + 1] - d[i]) < 0.0:
            denom = d[i - 1] - 2.0 * d[i] + d[i + 1]
            shift = 0.5 * (d[i - 1] - d[i + 1]) / denom
            refined = d[i] - 0.25 * (d[i - 1] - d[i + 1]) * shift
            amplitudes.append(abs(float(refined)))
            if len(amplitudes) == 5:
                break
    zeta = compliance.damping_ratio
    analytic = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    ratios = [b / a for a, b in zip(amplitudes, amplitudes[1:])]
    envelope_ok = all(abs(r - analytic) / analytic <= 0.01 for r in ratios)

    recentered = (abs(res.deflection[-1, 0]) < compliance.recenter_tolerance
                  and abs(res.deflection[-1, 1])
                  < compliance.recenter_tolerance)
    ok = (compliant.peak_torque < rigid.peak_torque
          and compliant.recentered and recentered
          and rigid.model_dependent and not compliant.model_dependent
          and len(ratios) == 4 and envelope_ok)
    check(7, ok, f"peak {compliant.peak_torque:.3f} < {rigid.peak_torque:.3f} "
                 f"N*m (model-dependent), final |deflection| "
                 f"{abs(res.deflection[-1, 0]):.1e} rad, envelope ratios "
                 f"{[round(r, 4) for r in ratios]} vs {analytic:.4f}")


def test_criterion_8_numerical_bedrock():
    params = NOMINAL
    rng = np.random.default_rng(8)

    # Jacobians against central differences
    h = 1e-6
    worst_jac = 0.0
    for _ in range(1000):
        q = rng.uniform(-2.5, 2.5, 3)
        state = JointState(q=tuple(q))
        for analytic_fn, pose_fn in ((jacobian, spoon_pose),
                                     (handle_jacobian, handle_pose)):
            analytic = analytic_fn(params, state)
            fd = np.empty((3, 3))
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = h
                fwd = pose_fn(params, JointState(q=tuple(q + dq))).position
                back = pose_fn(params, JointState(q=tuple(q - dq))).position
                fd[:, j] = (np.asarray(fwd) - np.asarray(back)) / (2.0 * h)
            rel = (np.linalg.norm(fd - analytic)
                   / np.linalg.norm(analytic))
            worst_jac = max(worst_jac, float(rel))

    # FK -> IK -> FK position round trip
    worst_rt = 0.0
    for _ in range(1000):
        q = tuple(rng.uniform(lo, hi) for lo, hi in params.joint_limits)
        target = spoon_pose(params, JointState(q=q)).position
        again = inverse_kinematics(params, target)
        back = spoon_pose(params, again).position
        err = math.dist(target, back)
        worst_rt = max(worst_rt, err)

    # RK4 order: halving dt divides the endpoint error by about 16
    free = MechanismParams(joint_limits=FREE_LIMITS)
    springs = synthesize_balancing(
        free, SpringKind.LINEAR_ZERO_FREE_LENGTH).springs
    dampers = [DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.4),
               DamperSpec(Joint.J3, DamperModel.VISCOUS, 0.4)]

    def final_q(dt):
        sc = Scenario(duration=1.0, timestep=dt,
                      initial=JointState(q=(0.1, 0.9, -0.5),
                                         qdot=(0.3, 0.2, -0.1)))
        return run_scenario(free, springs, dampers, RIGID, sc).q[-1]

    ref = final_q(6.25e-5)
    ratio = (np.linalg.norm(final_q(2e-3) - ref)
             / np.linalg.norm(final_q(1e-3) - ref))

    # kinetic energy against differenced point-mass geometry
    masses = (free.mass_link1, free.mass_link2, free.mass_payload)
    worst_ke = 0.0
    for _ in range(200):
        q = rng.uniform(-2.5, 2.5, 3)
        qdot = rng.uniform(-1.5, 1.5, 3)
        state = JointState(q=tuple(q), qdot=tuple(qdot))

        def mass_z(qv):
            s, h0 = free, free.base_height
            r1 = s.base_offset + s.com_fraction1 * s.link1_length * math.cos(qv[1])
            r2 = (s.base_offset + s.link1_length * math.cos(qv[1])
                  + s.com_fraction2 * s.link2_length * math.cos(qv[2]))
            r3 = (s.base_offset + s.link1_length * math.cos(qv[1])
                  + s.link2_length * math.cos(qv[2]))
            z1 = h0 + s.com_fraction1 * s.link1_length * math.sin(qv[1])
            z2 = (h0 + s.link1_length * math.sin(qv[1])
                  + s.com_fraction2 * s.link2_length * math.sin(qv[2]))
            z3 = (h0 + s.link1_length * math.sin(qv[1])
                  + s.link2_length * math.sin(qv[2]))
            cp, sp = math.cos(qv[0]), math.sin(qv[0])
            return [np.array([r * cp, r * sp, z])
                    for r, z in zip((r1, r2, r3), (z1, z2, z3))]

        fd_h = 1e-6
        fwd = mass_z(q + fd_h * qdot)
        back = mass_z(q - fd_h * qdot)
        ke = sum(0.5 * m * float(((pf - pb) / (2.0 * fd_h)) @
                                 ((pf - pb) / (2.0 * fd_h)))
                 for m, pf, pb in zip(masses, fwd, back))
        worst_ke = max(worst_ke, abs(kinetic_energy(free, state) - ke))

    ok = (worst_jac < 1e-6 and worst_rt < 1e-9
          and 12.8 < ratio < 19.2 and worst_ke < 1e-9)
    check(8, ok, f"jacobian FD {worst_jac:.2e}, round trip {worst_rt:.2e} m, "
                 f"RK4 ratio {ratio:.2f}, KE oracle {worst_ke:.2e} J")


def test_criterion_9_determinism(tmp_path):
    params = NOMINAL
    scenario = Scenario(duration=0.5, timestep=1e-3,
                        initial=JointState(q=(0.0, 0.7, -1.4)),
                        input=NoiseTremor(rms=0.3, f_lo=2.0, f_hi=9.0,
                                          seed=42))
    paths = []
    for name in ("a.csv", "b.csv"):
        result = run_scenario(params, [], [], SHIPPED.compliance, scenario)
        path = tmp_path / name
        write_sim_csv(result, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    config = ConfigFile(
        mechanism=replace(params, handedness=Handedness.LEFT),
        springs=(SpringSpec(SpringKind.LINEAR_REAL, Joint.J2, 298.112,
                            anchor_radius=0.1, bar_radius=0.05,
                            free_length=0.005),
                 SpringSpec(SpringKind.TORSION, Joint.J3, 1.5,
                            torsion_neutral=0.8)),
        dampers=(DamperSpec(Joint.J2, DamperModel.DEAD_ZONE_VISCOUS,
                            0.55, 0.3),),
        compliance=SHIPPED.compliance)
    cfg_path = tmp_path / "roundtrip.json"
    save_config(config, cfg_path)
    round_trip = load_config(cfg_path) == config

    scn_path = tmp_path / "scenario.json"
    save_scenario(scenario, scn_path)

    ok = identical and round_trip
    check(9, ok, f"repeated CSV byte-identical: {identical}, "
                 f"config round-trip exact: {round_trip}")
