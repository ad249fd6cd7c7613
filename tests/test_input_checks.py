"""One test per input check that the other tests never reach: each asserts
the named error the check raises (or, for the exhausted calibration, the
value it returns)."""

import math
from types import SimpleNamespace

import pytest

from spoonarm import analysis
from spoonarm.analysis import (
    TrajectorySpec,
    calibrate_handle_distance,
    stabilization_report,
)
from spoonarm.cli import main
from spoonarm.config import ConfigFile, scenario_data
from spoonarm.dynamics import (
    ComplianceMode,
    ComplianceSpec,
    DamperModel,
    DamperSpec,
    NoiseTremor,
    PrescribedTrajectory,
    Scenario,
    SineTremor,
    SpasmImpulse,
    SpoonContact,
    generate_signal,
    run_scenario,
    spoon_contact_response,
    step_dynamics,
)
from spoonarm.errors import InfeasibleBoundsError
from spoonarm.kinematics import (
    Handedness,
    HandleVariant,
    Joint,
    JointState,
    MechanismParams,
    forward_kinematics,
    inverse_kinematics,
)
from spoonarm.statics import (
    SpringKind,
    SpringSpec,
    TorqueProfile,
    gravity_torque,
    holding_force,
    potential_energy,
    residual_torque_profile,
    spring_joint_torques,
    spring_torque,
    synthesize_balancing,
)

from shipped import NOMINAL, RIGID, SHIPPED

START = JointState(q=(0.0, 0.7, -1.4))


# ---------------------------------------------------------------------------
# dynamics


def test_deadzone_on_a_model_without_one_is_rejected():
    with pytest.raises(ValueError, match="deadzone applies to the dead-zone"):
        DamperSpec(Joint.J2, DamperModel.VISCOUS, 0.1, deadzone=0.05)


def test_disabled_damper_with_a_coefficient_is_rejected():
    with pytest.raises(ValueError, match="disabled damper cannot carry"):
        DamperSpec(Joint.J2, DamperModel.NONE, coefficient=0.1)


def test_direction_without_three_components_is_rejected():
    with pytest.raises(ValueError, match="direction needs three components"):
        SineTremor(amplitude=0.1, frequency=2.0, direction=(0.0, 1.0))


def test_spasm_with_negative_onset_is_rejected():
    with pytest.raises(ValueError, match="onset must be >= 0"):
        SpasmImpulse(force=1.0, duration=0.1, onset=-0.1)


def test_unknown_signal_spec_is_a_type_error():
    with pytest.raises(TypeError, match="unknown input signal object"):
        generate_signal(object(), 0.0)


def test_constant_force_without_three_components_is_rejected():
    with pytest.raises(ValueError,
                       match="constant input force needs three components"):
        step_dynamics(NOMINAL, [], [], RIGID, START, (0.0, 1.0),
                      1e-3)


def test_callable_force_without_three_components_is_rejected():
    with pytest.raises(ValueError, match="^input force needs three"):
        step_dynamics(NOMINAL, [], [], RIGID, START,
                      lambda t: (0.0, 1.0), 1e-3)


# each returned from the stage time t = 0.0025 s on, after good forces;
# a callable's force is read by the constant force's rule, so text that
# parses as a number is rejected too
MALFORMED_FORCES = {
    "ragged": ("input force[1] must be a real number, not (1.0, 2.0)",
               (0.0, (1.0, 2.0), 0.0)),
    "str": ("input force[0] must be a real number, not 'a'", ("a", 0, 0)),
    "text": ("input force[0] must be a real number, not '1.0'",
             ("1.0", 0, 0)),
    "none": ("input force must be iterable, not None", None),
    "float": ("input force must be iterable, not 5.0", 5.0),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FORCES))
def test_malformed_callable_force_names_its_first_time(name):
    message, bad = MALFORMED_FORCES[name]

    def force(t):
        return bad if t >= 0.0025 else (0.0, 0.0, 0.1)

    scenario = Scenario(duration=0.01, initial=START, input=force)
    with pytest.raises(ValueError) as error:
        run_scenario(NOMINAL, [], [], RIGID, scenario)
    assert str(error.value) == f"{message} at t = 0.002500 s"


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_step_dynamics_needs_a_positive_timestep(dt):
    with pytest.raises(ValueError, match="dt must be > 0"):
        step_dynamics(NOMINAL, [], [], RIGID, START, None, dt)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_step_dynamics_needs_a_finite_timestep(dt):
    with pytest.raises(ValueError, match="dt must be > 0 and finite"):
        step_dynamics(NOMINAL, [], [], RIGID, START, None, dt)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_step_dynamics_needs_a_finite_time(t):
    # not a NonFiniteStateError blaming the timestep
    with pytest.raises(ValueError, match="^t must be finite"):
        step_dynamics(NOMINAL, [], [], RIGID, START,
                      SineTremor(1.0, 1.0), 1e-3, t=t)


@pytest.mark.parametrize("spec", [
    SineTremor(1.0, 1.0), NoiseTremor(1.0, 2.0, 6.0, seed=1), None])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_generate_signal_needs_a_finite_time(spec, t):
    with pytest.raises(ValueError, match="^t must be finite"):
        generate_signal(spec, t)


@pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
def test_noise_seed_must_be_an_integer_of_at_least_zero(seed):
    with pytest.raises(ValueError, match="^seed must be"):
        NoiseTremor(1.0, 2.0, 6.0, seed=seed)


@pytest.mark.parametrize("impulse", [math.nan, math.inf])
def test_contact_response_needs_a_finite_impulse(impulse):
    with pytest.raises(ValueError, match="impulse must be finite"):
        spoon_contact_response(ComplianceSpec(), impulse)


# ---------------------------------------------------------------------------
# statics


@pytest.mark.parametrize("kind, fields, message", [
    (SpringKind.TORSION, dict(anchor_radius=0.1),
     "torsion springs take no anchor/bar/free-length geometry"),
    (SpringKind.LINEAR_REAL, dict(anchor_radius=0.1, bar_radius=0.05,
                                  torsion_neutral=0.5),
     "torsion_neutral applies to torsion springs only"),
    (SpringKind.LINEAR_ZERO_FREE_LENGTH,
     dict(anchor_radius=0.1, bar_radius=0.05, free_length=0.01),
     "zero-free-length springs must have free_length == 0"),
])
def test_spring_kind_and_geometry_must_match(kind, fields, message):
    with pytest.raises(ValueError, match=message):
        SpringSpec(kind, Joint.J2, 100.0, **fields)


def test_torque_profile_shapes_must_match():
    with pytest.raises(ValueError, match="same length"):
        TorqueProfile(Joint.J2, [0.0, 0.1, 0.2], [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="same length"):
        TorqueProfile(Joint.J2, [0.0, 0.1, 0.2], [1.0, 2.0, 3.0], [1.0, 2.0])


def test_synthesis_rejects_a_negative_free_length():
    with pytest.raises(InfeasibleBoundsError, match="free_length must be"):
        synthesize_balancing(NOMINAL, SpringKind.LINEAR_REAL,
                             free_length=-0.001)


def test_residual_profile_of_a_pinned_joint_is_one_angle():
    params = MechanismParams(joint_limits=((-math.pi, math.pi), (0.4, 0.4),
                                           (-1.75, 1.4)))
    spring = SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2, 200.0,
                        0.1, 0.05)
    pinned, free = residual_torque_profile(params, [spring])
    assert pinned.angles.tolist() == [0.4]
    tau_g2, _ = gravity_torque(params, JointState(q=(0.0, 0.4, 0.0)))
    assert pinned.torques.tolist() == [tau_g2 + spring_torque(spring, 0.4)]
    assert len(free.angles) > 1


# ---------------------------------------------------------------------------
# kinematics, config, analysis, cli


def test_joint_limits_need_three_pairs():
    with pytest.raises(ValueError, match="one \\(min, max\\) pair per joint"):
        MechanismParams(joint_limits=((-1.0, 1.0), (-1.0, 1.0)))


def test_writing_an_input_without_a_config_type_is_a_type_error():
    # a constant force runs, but the scenario format has no type for it
    scenario = Scenario(duration=0.01, input=(0.0, 0.0, 1.0))
    with pytest.raises(TypeError, match="cannot write <class 'tuple'>"):
        scenario_data(scenario)


def test_calibration_that_exhausts_bisection_returns_the_upper_end(
        monkeypatch):
    # a handle rise that jumps over the target at d_h = 0.1: no d_h meets
    # it, so all 200 halvings run and the bracket's upper end is returned
    calls = []

    def rise(params, trig):
        d = params.handle_distance
        calls.append(d)
        return SimpleNamespace(handle_rise=d if d < 0.1 else d + 0.01)

    monkeypatch.setattr(analysis, "_excursion", rise)
    d_h = calibrate_handle_distance(NOMINAL, TrajectorySpec(), 0.105)
    assert len(calls) == 9 + 200    # the monotonicity sweep, then bisection
    assert d_h == 0.1


@pytest.mark.parametrize("tolerance", [math.inf, math.nan])
def test_calibration_needs_a_finite_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance must be > 0 and finite"):
        calibrate_handle_distance(NOMINAL, TrajectorySpec(), 0.24,
                                  tolerance=tolerance)


def test_attenuation_is_infinite_against_a_baseline_that_never_deviates():
    params = NOMINAL
    still = Scenario(duration=0.05, initial=START)
    pushed = Scenario(duration=0.05, initial=START,
                      input=SineTremor(amplitude=1.0, frequency=5.0))
    reference = run_scenario(params, [], [], RIGID, still)
    result = run_scenario(params, [], [], RIGID, pushed)
    report = stabilization_report(reference, result, baseline=reference)
    assert report.rms_deviation > 0.0
    assert report.attenuation == math.inf


def test_fk_with_non_numeric_angles_is_a_usage_error(capsys):
    code = main(["fk", "--q", "a,b,c"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected three comma-separated numbers, got 'a,b,c'" in (
        captured.err)


# ---------------------------------------------------------------------------
# enum fields take a member or its value, and nothing else


def test_handedness_takes_its_value_string():
    params = MechanismParams(handedness="right")
    assert params.handedness is Handedness.RIGHT
    assert params == MechanismParams()
    _, handle = forward_kinematics(params, JointState(q=(0.0, 0.7, -0.2)))
    assert handle.y == pytest.approx(0.06)
    with pytest.raises(ValueError, match="handedness must be a Handedness"):
        MechanismParams(handedness="up")


def test_handle_variant_takes_its_value_string():
    params = MechanismParams(handle_variant="old_tip")
    assert params.handle_variant is HandleVariant.OLD_TIP
    assert params.handle_distance == params.link2_length == 0.25
    with pytest.raises(ValueError, match="handle_variant must be a"):
        MechanismParams(handle_variant=1)


def test_damper_model_takes_its_value_string():
    assert DamperSpec(Joint.J2, "viscous", 0.4).model is DamperModel.VISCOUS
    with pytest.raises(ValueError, match="disabled damper cannot carry"):
        DamperSpec(Joint.J2, "none", 0.4)
    with pytest.raises(ValueError, match="model must be a DamperModel"):
        DamperSpec(Joint.J2, "sticky", 0.4)


def test_compliance_mode_takes_its_value_string():
    spec = ComplianceSpec(mode="rigid")
    assert spec == RIGID
    assert spec.damping_ratio == math.inf
    with pytest.raises(ValueError, match="mode must be a ComplianceMode"):
        ComplianceSpec(mode=None)


def test_spring_kind_takes_its_value_string():
    spec = SpringSpec("torsion", Joint.J2, 1.0)
    assert spec == SpringSpec(SpringKind.TORSION, Joint.J2, 1.0)
    with pytest.raises(ValueError, match="kind must be a SpringKind"):
        SpringSpec(["torsion"], Joint.J2, 1.0)


# ---------------------------------------------------------------------------
# numbers a rigid mount keeps, and arguments checked at the call


@pytest.mark.parametrize("field", ["stiffness", "damping", "inertia"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_rigid_mount_needs_finite_values_of_at_least_zero(field, value):
    with pytest.raises(ValueError, match="rigid mode needs finite"):
        ComplianceSpec(mode=ComplianceMode.RIGID, **{field: value})


@pytest.mark.parametrize("band", [math.nan, math.inf, -1.0, 0.0])
def test_stabilization_band_must_be_finite_and_positive(band):
    params = NOMINAL
    still = run_scenario(params, [], [], RIGID,
                         Scenario(duration=0.01, initial=START))
    with pytest.raises(ValueError, match="^band must be > 0 and finite, not "):
        stabilization_report(still, still, band=band)


@pytest.mark.parametrize("deflections", [(0.0, 0.0), (0.0,) * 5])
def test_step_dynamics_needs_four_deflections(deflections):
    message = r"deflections needs four entries \(delta_p, delta_y, rate_p"
    with pytest.raises(ValueError, match=message):
        step_dynamics(NOMINAL, [], [], RIGID, START, None, 1e-3,
                      deflections=deflections)


# ---------------------------------------------------------------------------
# a build's spring and damper sets, read at every public entry point

RUN = Scenario(0.01, initial=START)
PLAYBACK = Scenario(0.01, initial=START, input=PrescribedTrajectory(
    ((0.0, 0.35, 0.0, 0.02), (0.01, 0.34, 0.01, 0.05))))
BOTH = ("springs", "dampers")
# name -> (the sets it takes, a call with springs and dampers);
# a playback steps nothing, but its dampers are checked all the same
ELEMENT_ENTRY_POINTS = {
    "run_scenario": (BOTH, lambda s, d: run_scenario(
        NOMINAL, s, d, RIGID, RUN)),
    "run_scenario-playback": (BOTH, lambda s, d: run_scenario(
        NOMINAL, s, d, RIGID, PLAYBACK)),
    "step_dynamics": (BOTH, lambda s, d: step_dynamics(
        NOMINAL, s, d, RIGID, START, None, 1e-3)),
    "ConfigFile": (BOTH, lambda s, d: ConfigFile(NOMINAL, s, d)),
    "potential_energy": (("springs",), lambda s, _: potential_energy(
        NOMINAL, s, START)),
    "spring_joint_torques": (("springs",), lambda s, _:
                             spring_joint_torques(s, START)),
    "residual_torque_profile": (("springs",), lambda s, _:
                                residual_torque_profile(NOMINAL, s)),
    "holding_force": (("springs",), lambda s, _: holding_force(
        NOMINAL, s, START)),
}
SPEC_OF = {"springs": "SpringSpec", "dampers": "DamperSpec"}
# the other field's set stands in for this one's
SWAPPED = {"springs": SHIPPED.dampers, "dampers": SHIPPED.springs}


@pytest.mark.parametrize("entry, field, bad", [
    pytest.param(entry, field, bad, id=f"{entry}-{field}-{bad_id}")
    for entry, (fields, _) in ELEMENT_ENTRY_POINTS.items()
    for field in fields
    for bad_id, bad in (("int", [1]), ("str", "ab"), ("none", None),
                        ("swapped", SWAPPED[field]))])
def test_spring_and_damper_sets_are_checked_at_every_entry_point(
        entry, field, bad):
    _, call = ELEMENT_ENTRY_POINTS[entry]
    given = {"springs": SHIPPED.springs, "dampers": SHIPPED.dampers,
             field: bad}
    if bad is None:
        message = rf"^{field} must be iterable, not None"
    else:
        message = rf"^{field}\[0\] must be a {SPEC_OF[field]}, not "
    with pytest.raises(ValueError, match=message):
        call(given["springs"], given["dampers"])


@pytest.mark.parametrize("fields, message", [
    (dict(initial=(0.0, 0.7, -0.5)), r"^initial must be a JointState"),
    (dict(spoon_contact=(0.0, 0.1)), r"^spoon_contact must be a SpoonContact"),
])
def test_scenario_checks_the_types_of_its_state_and_contact(fields, message):
    with pytest.raises(ValueError, match=message):
        Scenario(0.01, **fields)


@pytest.mark.parametrize("fields, message", [
    (dict(mechanism=(0.1, 0.05)), r"^mechanism must be a MechanismParams"),
    (dict(compliance="rigid"), r"^compliance must be a ComplianceSpec"),
])
def test_config_file_checks_the_types_of_its_mechanism_and_mount(fields,
                                                                 message):
    with pytest.raises(ValueError, match=message):
        ConfigFile(**{"mechanism": SHIPPED.mechanism, **fields})


@pytest.mark.parametrize("field", ["plate", "mouth"])
@pytest.mark.parametrize("point", [(0.35,), (0.35, 0.02, 9.0)])
def test_trajectory_endpoints_need_two_entries(field, point):
    with pytest.raises(ValueError, match=rf"^{field} must be two numbers"):
        TrajectorySpec(**{field: point})


# values of the wrong type, each a ValueError that names its field
WRONG_TYPES = {
    "plate-none": (lambda: TrajectorySpec(plate=None),
                   r"^plate must be iterable, not None$"),
    "plate-str": (lambda: TrajectorySpec(plate=("a", 0.1)),
                  r"^plate\[0\] must be a real number, not 'a'$"),
    "contact-time-str": (lambda: SpoonContact(time="0.1",
                                              impulse_pitch=0.01),
                         r"^time must be a real number, not '0.1'$"),
    "duration-str": (lambda: Scenario(duration="1"),
                     r"^duration must be a real number, not '1'$"),
    "q-none": (lambda: JointState(q=None), r"^q must be iterable, not None$"),
    "band-str": (lambda: stabilization_report(
        TrajectorySpec(), run_scenario(NOMINAL, (), (), RIGID, RUN), band="1"),
        r"^band must be a real number, not '1'$"),
    "contact-duration-str": (lambda: spoon_contact_response(
        ComplianceSpec(), 0.02, duration="1"),
        r"^duration must be a real number, not '1'$"),
    "deflections-none": (lambda: step_dynamics(
        NOMINAL, (), (), RIGID, START, None, 1e-3, deflections=None),
        r"^deflections must be iterable, not None$"),
    "deflections-str": (lambda: step_dynamics(
        NOMINAL, (), (), RIGID, START, None, 1e-3, deflections=("a", 0, 0, 0)),
        r"^deflections\[0\] must be a real number, not 'a'$"),
    "free-length-str": (lambda: synthesize_balancing(
        NOMINAL, "linear_real", free_length="x"),
        r"^free_length must be a real number, not 'x'$"),
    "anchor-bounds-none": (lambda: synthesize_balancing(
        NOMINAL, "linear_real", anchor_bounds=None),
        r"^anchor_bounds must be iterable, not None$"),
    "anchor-bounds-short": (lambda: synthesize_balancing(
        NOMINAL, "linear_real", anchor_bounds=((0.1,), (0.2, 0.3))),
        r"^anchor_bounds needs two \(min, max\) pairs"),
    "rise-str": (lambda: calibrate_handle_distance(
        NOMINAL, TrajectorySpec(), "0.2"),
        r"^target_handle_rise must be a real number, not '0.2'$"),
    "ik-target-short": (lambda: inverse_kinematics(NOMINAL, (0.3, 0.1)),
                        r"^target needs three components"),
    # the typed arguments of a rollout, read before any work
    "run-params-none": (lambda: run_scenario(None, (), (), RIGID, RUN),
                        r"^params must be a MechanismParams, not None$"),
    "run-compliance-none": (lambda: run_scenario(
        NOMINAL, (), (), None, RUN),
        r"^compliance must be a ComplianceSpec, not None$"),
    "run-scenario-dict": (lambda: run_scenario(
        NOMINAL, (), (), RIGID, {"duration": 0.01}),
        r"^scenario must be a Scenario, not \{'duration': 0.01\}$"),
    "step-params-none": (lambda: step_dynamics(
        None, (), (), RIGID, START, None, 1e-3),
        r"^params must be a MechanismParams, not None$"),
    "step-compliance-none": (lambda: step_dynamics(
        NOMINAL, (), (), None, START, None, 1e-3),
        r"^compliance must be a ComplianceSpec, not None$"),
    "step-state-tuple": (lambda: step_dynamics(
        NOMINAL, (), (), RIGID, (0.0, 0.7, -1.4), None, 1e-3),
        r"^state must be a JointState, not \(0.0, 0.7, -1.4\)$"),
    "contact-compliance-none": (lambda: spoon_contact_response(None, 0.02),
        r"^compliance must be a ComplianceSpec, not None$"),
}


@pytest.mark.parametrize("make, message", WRONG_TYPES.values(),
                         ids=WRONG_TYPES.keys())
def test_a_value_of_the_wrong_type_is_a_named_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()
