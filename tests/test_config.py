"""Config and scenario files: strict parsing, exact round trips."""

import copy
import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest

from spoonarm import JointState, MechanismParams, SimResult, run_scenario
from spoonarm.config import (
    SCHEMA_VERSION,
    ConfigFile,
    config_data,
    default_config_path,
    load_config,
    load_scenario,
    parse_config,
    parse_scenario,
    save_config,
    save_scenario,
    scenario_data,
)
from spoonarm.defaults import default_config, example_scenario
from spoonarm.dynamics import (
    ComplianceMode,
    ComplianceSpec,
    DamperModel,
    DamperSpec,
    FreeRelease,
    NoiseTremor,
    PrescribedTrajectory,
    Scenario,
    SineTremor,
    SpasmImpulse,
    SpoonContact,
)
from spoonarm.errors import ParseError, ValidationError, VersionMismatchError
from spoonarm.kinematics import Handedness, HandleVariant, Joint
from spoonarm.statics import SpringKind, SpringSpec


def full_config() -> ConfigFile:
    """A config exercising every spring kind and damper model at once,
    with deliberately awkward float values."""
    mech = MechanismParams(
        base_height=0.1234567890123456,
        link1_length=0.26,
        link2_length=0.24,
        handle_distance=0.1575,
        bracket_drop=-0.033,
        bracket_lateral=0.061,
        handedness=Handedness.LEFT,
        handle_angle_index=4,
        joint_limits=((-3.1, 3.1), (-0.25, 1.9), (-1.6, 1.3)),
        mass_payload=0.105,
        gravity=9.80665,
    )
    springs = (
        SpringSpec(SpringKind.LINEAR_ZERO_FREE_LENGTH, Joint.J2,
                   stiffness=282.04, anchor_radius=0.1, bar_radius=0.05),
        SpringSpec(SpringKind.LINEAR_REAL, Joint.J3, stiffness=130.5,
                   anchor_radius=0.1, bar_radius=0.05, free_length=0.005),
        SpringSpec(SpringKind.TORSION, Joint.J2, stiffness=1.75,
                   torsion_neutral=0.9),
    )
    dampers = (
        DamperSpec(Joint.J1, DamperModel.NONE),
        DamperSpec(Joint.J2, DamperModel.VISCOUS, coefficient=0.4),
        DamperSpec(Joint.J3, DamperModel.DEAD_ZONE_VISCOUS, coefficient=0.55,
                   deadzone=0.3),
    )
    compliance = ComplianceSpec(mode=ComplianceMode.RIGID)
    return ConfigFile(mechanism=mech, springs=springs, dampers=dampers,
                      compliance=compliance)


def scenario_with_everything() -> Scenario:
    return Scenario(
        duration=2.5,
        timestep=0.0005,
        initial=JointState(q=(0.1, 0.7, -1.4), qdot=(0.0, -0.02, 0.03)),
        input=NoiseTremor(rms=0.2, f_lo=3.0, f_hi=9.0, seed=17,
                          direction=(1.0, 0.0, 1.0)),
        spoon_contact=SpoonContact(time=1.25, impulse_pitch=0.02,
                                   impulse_yaw=-0.01),
    )


# ---------------------------------------------------------------------------
# round trips


def test_shipped_default_matches_builder():
    assert load_config(default_config_path()) == default_config()


def test_shipped_example_scenario_matches_builder():
    path = resources.files("spoonarm").joinpath("data/example_scenario.json")
    assert load_scenario(path) == example_scenario()


def test_config_round_trip_is_exact(tmp_path):
    cfg = full_config()
    path = tmp_path / "build.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_save_is_deterministic(tmp_path):
    cfg = full_config()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_config(cfg, first)
    save_config(load_config(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("signal", [
    FreeRelease(),
    SineTremor(amplitude=0.15, frequency=2.0, direction=(0.0, 1.0, 0.5)),
    NoiseTremor(rms=0.3, f_lo=2.0, f_hi=12.0, seed=99),
    SpasmImpulse(force=4.0, duration=0.08, onset=0.6,
                 direction=(1.0, 1.0, 0.0)),
    PrescribedTrajectory(((0.0, 0.35, 0.0, 0.02), (1.0, 0.35, 0.0, 0.35))),
])
def test_scenario_round_trip_is_exact(tmp_path, signal):
    scn = Scenario(duration=1.5, timestep=1e-3,
                   initial=JointState(q=(0.0, 0.5, -0.5)), input=signal)
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    assert load_scenario(path) == scn


def test_scenario_contact_round_trip(tmp_path):
    scn = scenario_with_everything()
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    assert load_scenario(path) == scn


def test_scenario_save_is_deterministic(tmp_path):
    scn = scenario_with_everything()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(scn, first)
    save_scenario(load_scenario(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_scenario_optional_fields_default():
    data = scenario_data(scenario_with_everything())
    del data["initial"]["qdot_rad_per_s"]
    del data["spoon_contact"]["impulse_yaw_n_m_s"]
    scn = parse_scenario(data)
    assert scn.initial.qdot == (0.0, 0.0, 0.0)
    assert scn.spoon_contact.impulse_yaw == 0.0


def test_scenario_contact_omitted():
    data = scenario_data(scenario_with_everything())
    del data["spoon_contact"]
    assert parse_scenario(data).spoon_contact is None


@pytest.mark.parametrize("time, error, path", [
    (10.0, ValidationError, "spoon_contact"),
    (-5.0, ValidationError, "spoon_contact"),
    (math.nan, ParseError, "spoon_contact.time_s"),
])
def test_contact_outside_scenario_in_file_rejected(tmp_path, time, error,
                                                   path):
    data = scenario_data(Scenario(duration=1.0, spoon_contact=SpoonContact(
        time=0.5, impulse_pitch=0.01)))
    data["spoon_contact"]["time_s"] = time
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(error) as err:
        load_scenario(file)
    assert err.value.path == path


# ---------------------------------------------------------------------------
# parse errors carry the offending path


def good_data():
    return config_data(default_config())


def test_unknown_key_rejected():
    data = good_data()
    data["mechanism"]["elbow_length_m"] = 0.2
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.elbow_length_m"


def test_unknown_top_level_key_rejected():
    data = good_data()
    data["notes"] = "lab build 3"
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "notes"


def test_missing_key_rejected():
    data = good_data()
    del data["mechanism"]["link1_length_m"]
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.link1_length_m"


def test_wrong_type_rejected():
    data = good_data()
    data["mechanism"]["gravity_m_per_s2"] = "strong"
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.gravity_m_per_s2"


def test_bool_is_not_a_number():
    data = good_data()
    data["mechanism"]["gravity_m_per_s2"] = True
    with pytest.raises(ParseError):
        parse_config(data)


def test_non_finite_number_rejected():
    data = good_data()
    data["mechanism"]["gravity_m_per_s2"] = float("inf")
    with pytest.raises(ParseError):
        parse_config(data)


def test_unknown_enum_value_lists_options():
    data = good_data()
    data["mechanism"]["handle_variant"] = "chrome"
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.handle_variant"
    assert "new_inboard" in str(err.value) and "old_tip" in str(err.value)


def test_joint_limits_shape_checked():
    data = good_data()
    data["mechanism"]["joint_limits_rad"] = [[-1.0, 1.0], [-1.0, 1.0]]
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.joint_limits_rad"
    data = good_data()
    data["mechanism"]["joint_limits_rad"][1] = [-1.0, 1.0, 2.0]
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.joint_limits_rad[1]"


def test_spring_keys_are_kind_specific():
    data = good_data()
    # an ideal spring has no free length; the key must be rejected, not ignored
    data["springs"][0]["free_length_m"] = 0.01
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path == "springs[0].free_length_m"


def test_damper_keys_are_model_specific():
    data = good_data()
    data["dampers"][0]["deadzone_rad_per_s"] = 0.3
    with pytest.raises(ParseError) as err:
        parse_config(data)
    assert err.value.path.startswith("dampers[0].")


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"schema_version\": 1,", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.path == "<file>"


@pytest.mark.parametrize("load", [load_config, load_scenario])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, load):
    path = tmp_path / "latin-1.json"
    path.write_bytes(b'{"schema_version": 1, "duration_s": "\xff"}')
    with pytest.raises(ParseError, match="can't decode byte 0xff") as err:
        load(path)
    assert err.value.path == "<file>"


def test_scenario_unknown_input_type():
    data = scenario_data(scenario_with_everything())
    data["input"] = {"type": "earthquake"}
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.path == "input.type"


def test_scenario_direction_shape_checked():
    data = scenario_data(Scenario(duration=1.0, input=SineTremor(
        amplitude=0.1, frequency=2.0)))
    data["input"]["direction"] = [0.0, 1.0]
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.path == "input.direction"


def test_scenario_waypoint_shape_checked():
    data = scenario_data(Scenario(duration=1.0, input=PrescribedTrajectory(
        ((0.0, 0.3, 0.0, 0.1), (1.0, 0.3, 0.0, 0.2)))))
    data["input"]["waypoints"][1] = [1.0, 0.3, 0.0]
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.path == "input.waypoints[1]"


# ---------------------------------------------------------------------------
# domain validation errors carry the field path


def test_handle_distance_beyond_link_is_validation_error():
    data = good_data()
    data["mechanism"]["handle_distance_m"] = 0.5
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert err.value.path == "mechanism.handle_distance"


def test_negative_spring_stiffness_is_validation_error():
    data = good_data()
    data["springs"][0]["stiffness_n_per_m"] = -5.0
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert err.value.path == "springs[0].stiffness"


def test_spring_on_yaw_joint_rejected():
    data = good_data()
    data["springs"][0]["joint"] = "j1"
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert err.value.path == "springs[0]"


def test_scenario_bad_timestep_is_validation_error():
    data = scenario_data(scenario_with_everything())
    data["timestep_s"] = 0.0
    with pytest.raises(ValidationError) as err:
        parse_scenario(data)
    assert err.value.path == "timestep"


def test_scenario_bad_tremor_band_is_validation_error():
    data = scenario_data(Scenario(duration=1.0, input=NoiseTremor(
        rms=0.2, f_lo=2.0, f_hi=9.0, seed=0)))
    data["input"]["f_hi_hz"] = 1.0
    with pytest.raises(ValidationError):
        parse_scenario(data)


def test_noise_seed_of_a_numpy_integer_round_trips(tmp_path):
    noise = NoiseTremor(rms=0.2, f_lo=2.0, f_hi=9.0, seed=np.int64(3))
    scn = Scenario(duration=1.0, input=noise)
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    assert load_scenario(path) == scn
    assert type(load_scenario(path).input.seed) is int


def test_bool_numbers_save_as_floats_and_round_trip(tmp_path):
    cfg = ConfigFile(MechanismParams(),
                     dampers=(DamperSpec(Joint.J2, "viscous", True),))
    scn = Scenario(duration=1.0, input=SineTremor(amplitude=True,
                                                  frequency=2.0))
    cfg_path, scn_path = tmp_path / "build.json", tmp_path / "scenario.json"
    save_config(cfg, cfg_path)
    save_scenario(scn, scn_path)
    damper = json.loads(cfg_path.read_text())["dampers"][0]
    assert damper["coefficient_n_m_s_per_rad"] == 1.0
    assert type(damper["coefficient_n_m_s_per_rad"]) is float
    assert load_config(cfg_path) == cfg
    assert load_scenario(scn_path) == scn
    assert type(load_scenario(scn_path).input.amplitude) is float


def test_numpy_float32_numbers_save_and_round_trip(tmp_path):
    cfg = ConfigFile(MechanismParams(gravity=np.float32(9.81)))
    path = tmp_path / "build.json"
    save_config(cfg, path)
    gravity = load_config(path).mechanism.gravity
    assert gravity == float(np.float32(9.81)) and type(gravity) is float


@pytest.mark.parametrize("field", ["gravity", "timestep"])
def test_float32_numbers_roll_out_as_their_saved_files_do(field):
    # a float32 field is read as the float the file stores, so the build
    # and its round trip step with the same doubles
    config, scenario = default_config(), example_scenario()
    if field == "gravity":
        config = ConfigFile(MechanismParams(gravity=np.float32(9.81)),
                            config.springs, config.dampers, config.compliance)
    else:
        scenario = dataclasses.replace(scenario, timestep=np.float32(1e-3))
    saved = (parse_config(config_data(config)),
             parse_scenario(scenario_data(scenario)))
    runs = [run_scenario(c.mechanism, c.springs, c.dampers, c.compliance, s)
            for c, s in ((config, scenario), saved)]
    for f in dataclasses.fields(SimResult):
        given, read = (getattr(run, f.name) for run in runs)
        assert given.dtype == read.dtype == np.float64, f.name
        assert given.tobytes() == read.tobytes(), f.name


@pytest.mark.parametrize("section, key, value, path", [
    ("dampers", "coefficient_n_m_s_per_rad", -0.4, "dampers[0].coefficient"),
    ("compliance", "stiffness_n_m_per_rad", 0.0, "compliance.stiffness"),
    ("mechanism", "joint_limits_rad", [[0, 1], [1, 0], [0, 1]],
     "mechanism.joint_limits"),
])
def test_a_bad_number_names_its_field(section, key, value, path):
    data = good_data()
    node = data[section]
    (node[0] if section == "dampers" else node)[key] = value
    with pytest.raises(ValidationError) as err:
        parse_config(data)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: {path.split('.')[-1]}")


def test_negative_noise_seed_is_validation_error():
    data = scenario_data(Scenario(duration=1.0, input=NoiseTremor(
        rms=0.2, f_lo=2.0, f_hi=9.0, seed=0)))
    data["input"]["seed"] = -1
    with pytest.raises(ValidationError, match="seed"):
        parse_scenario(data)


# ---------------------------------------------------------------------------
# versioning


def test_version_mismatch():
    data = good_data()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(VersionMismatchError):
        parse_config(data)
    scn = scenario_data(scenario_with_everything())
    scn["schema_version"] = 0
    with pytest.raises(VersionMismatchError):
        parse_scenario(scn)


def test_version_must_be_integer():
    data = good_data()
    data["schema_version"] = "1"
    with pytest.raises(ParseError):
        parse_config(data)


def test_shipped_config_is_canonical():
    # the JSON in the package must be exactly what save_config writes
    shipped = default_config_path().read_bytes()
    regenerated = json.dumps(config_data(default_config()), indent=2) + "\n"
    assert shipped == regenerated.encode("utf-8")


def test_round_trip_preserves_old_tip_coercion(tmp_path):
    cfg = ConfigFile(mechanism=MechanismParams(
        handle_variant=HandleVariant.OLD_TIP))
    assert cfg.mechanism.handle_distance == cfg.mechanism.link2_length
    path = tmp_path / "old.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_data_is_pure():
    cfg = full_config()
    data = config_data(cfg)
    mutated = copy.deepcopy(data)
    mutated["mechanism"]["gravity_m_per_s2"] = 1.0
    assert config_data(cfg) == data


# ---------------------------------------------------------------------------
# every key of both file formats: missing and mistyped values


OPTIONAL_KEYS = {"initial.qdot_rad_per_s", "spoon_contact",
                 "spoon_contact.impulse_yaw_n_m_s"}
JSON_SAMPLES = (None, True, 1, 0.5, "x", [], {})


def key_paths(node, path=""):
    """Path of every object key, nested ones included, such as
    springs[1].joint."""
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            out.append(child)
            out += key_paths(value, child)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out += key_paths(value, f"{path}[{i}]")
    return out


def chain(path):
    """Dict keys and list indices of a path like springs[1].joint or
    input.waypoints[1][2]."""
    steps = []
    for part in path.split("."):
        name, *indices = part.replace("]", "").split("[")
        steps.append(name)
        steps += [int(i) for i in indices]
    return steps


def wrong_values(good):
    """JSON values of a type the key does not take."""
    if isinstance(good, bool) or good is None:
        raise AssertionError("no key holds a boolean or null")
    if isinstance(good, int):
        accepted = lambda v: isinstance(v, int) and not isinstance(v, bool)
    elif isinstance(good, float):
        accepted = (lambda v: isinstance(v, (int, float))
                    and not isinstance(v, bool))
    else:
        accepted = lambda v: isinstance(v, type(good))
    return [v for v in JSON_SAMPLES if not accepted(v)]


FIELD_SCENARIO_INPUTS = [
    FreeRelease(),
    SineTremor(amplitude=0.15, frequency=2.0, direction=(0.0, 1.0, 0.5)),
    NoiseTremor(rms=0.3, f_lo=2.0, f_hi=12.0, seed=99),
    SpasmImpulse(force=4.0, duration=0.08, onset=0.6,
                 direction=(1.0, 1.0, 0.0)),
    PrescribedTrajectory(((0.0, 0.35, 0.0, 0.02), (1.0, 0.35, 0.0, 0.35))),
]


def field_scenario_data(signal):
    return scenario_data(Scenario(
        duration=1.5, timestep=1e-3,
        initial=JointState(q=(0.0, 0.5, -0.5), qdot=(0.0, 0.1, -0.1)),
        input=signal,
        spoon_contact=SpoonContact(time=0.5, impulse_pitch=0.02,
                                   impulse_yaw=-0.01)))


FIELD_CASES = (
    [pytest.param(parse_config, lambda: config_data(full_config()), path,
                  id=f"config:{path}")
     for path in key_paths(config_data(full_config()))]
    + [pytest.param(parse_scenario,
                    lambda signal=signal: field_scenario_data(signal), path,
                    id=f"{type(signal).__name__}:{path}")
       for signal in FIELD_SCENARIO_INPUTS
       for path in key_paths(field_scenario_data(signal))])


def parent_of(data, path):
    *steps, key = chain(path)
    node = data
    for step in steps:
        node = node[step]
    return node, key


@pytest.mark.parametrize("parse, make, path", FIELD_CASES)
def test_every_key_missing(parse, make, path):
    data = make()
    node, key = parent_of(data, path)
    del node[key]
    if path in OPTIONAL_KEYS:
        parse(data)
        return
    with pytest.raises(ParseError, match="missing required key") as err:
        parse(data)
    assert err.value.path == path


@pytest.mark.parametrize("parse, make, path", FIELD_CASES)
def test_every_key_wrong_type(parse, make, path):
    node, key = parent_of(make(), path)
    for wrong in wrong_values(node[key]):
        if wrong is None and path == "spoon_contact":
            continue    # null is an absent contact
        data = make()
        node, key = parent_of(data, path)
        node[key] = wrong
        with pytest.raises(ParseError) as err:
            parse(data)
        assert err.value.path == path, wrong


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("make, parse, path", [
    (lambda: field_scenario_data(FIELD_SCENARIO_INPUTS[1]), parse_scenario,
     "input.direction[0]"),
    (lambda: field_scenario_data(FIELD_SCENARIO_INPUTS[4]), parse_scenario,
     "input.waypoints[1][2]"),
    (lambda: field_scenario_data(FreeRelease()), parse_scenario,
     "initial.q_rad[1]"),
    (lambda: config_data(full_config()), parse_config,
     "mechanism.joint_limits_rad[1][0]"),
])
def test_non_finite_array_entry_rejected(make, parse, path, value):
    data = make()
    node, key = parent_of(data, path)
    node[key] = value
    with pytest.raises(ParseError, match="finite") as err:
        parse(data)
    assert err.value.path == path


def test_non_finite_direction_in_file_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    data = field_scenario_data(FIELD_SCENARIO_INPUTS[1])
    data["input"]["direction"][0] = "entry"
    path.write_text(json.dumps(data).replace('"entry"', "Infinity"),
                    encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_scenario(path)
    assert err.value.path == "input.direction[0]"


def test_integer_too_large_for_a_float_rejected():
    data = good_data()
    data["mechanism"]["gravity_m_per_s2"] = 10 ** 400
    with pytest.raises(ParseError, match="finite") as err:
        parse_config(data)
    assert err.value.path == "mechanism.gravity_m_per_s2"


def test_config_data_writes_the_tool_schema_version():
    assert config_data(full_config())["schema_version"] == SCHEMA_VERSION
    # the version belongs to the file format, not to a build
    with pytest.raises(TypeError):
        ConfigFile(mechanism=MechanismParams(), schema_version=SCHEMA_VERSION)


# ---------------------------------------------------------------------------
# a key repeated in one JSON object


def repeated_key_file(tmp_path, data, node, key, first, second):
    """`data` as a JSON file whose object `node` names `key` twice."""
    node[key] = "@"
    pair = f'"{key}": {json.dumps(first)}, "{key}": {json.dumps(second)}'
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data).replace(f'"{key}": "@"', pair),
                    encoding="utf-8")
    return path


def test_scenario_repeated_key_rejected(tmp_path):
    data = scenario_data(scenario_with_everything())
    path = repeated_key_file(tmp_path, data, data, "duration_s", 0.5, 0.01)
    with pytest.raises(ParseError, match="repeated key") as err:
        load_scenario(path)
    assert err.value.path == "duration_s"


@pytest.mark.parametrize("section, key, path", [
    ("mechanism", "link1_length_m", "mechanism.link1_length_m"),
    ("compliance", "mode", "compliance.mode"),
    ("dampers", "joint", "dampers[0].joint"),
])
def test_config_repeated_key_rejected(tmp_path, section, key, path):
    data = good_data()
    node = data[section][0] if section == "dampers" else data[section]
    value = node[key]
    file = repeated_key_file(tmp_path, data, node, key, value, value)
    with pytest.raises(ParseError, match="repeated key") as err:
        load_config(file)
    assert err.value.path == path


def test_scenario_without_input_round_trips(tmp_path):
    scn = Scenario(duration=0.5, input=None)
    assert scn == Scenario(duration=0.5, input=FreeRelease())
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    assert load_scenario(path) == scn
