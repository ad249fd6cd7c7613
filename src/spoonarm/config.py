"""JSON configuration and scenario files.

One config file describes one build: mechanism geometry/inertia, the
spring set, the damper set, and the utensil mount. One scenario file
describes one rollout: duration, timestep, initial state, input signal,
optional contact event. Field names carry SI units as suffixes so a file
is readable without this docstring.

Each JSON object is described by one table of fields, and one reader and
one writer walk every table. Loading is strict: unknown, missing or
repeated keys, wrong JSON types and non-finite numbers (array entries
included) are ParseError with the offending field path; values that
parse but violate a domain constraint are ValidationError; a
schema_version other than SCHEMA_VERSION is VersionMismatchError.
Saving writes the shortest round-tripping decimal for every float, so
save-then-load reproduces the exact domain objects and repeated saves
are byte-identical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, NamedTuple

from .dynamics import (
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
from .errors import ParseError, ValidationError, VersionMismatchError
from .kinematics import (Handedness, HandleVariant, Joint, JointState,
                         MechanismParams, instance, spec_tuple)
from .statics import SpringKind, SpringSpec

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ConfigFile:
    """Validated domain objects for one build."""

    mechanism: MechanismParams
    springs: tuple = ()
    dampers: tuple = ()
    compliance: ComplianceSpec = ComplianceSpec()

    def __post_init__(self):
        instance(self.mechanism, MechanismParams, "mechanism")
        instance(self.compliance, ComplianceSpec, "compliance")
        # frozen: write the normalised tuples past __setattr__
        vars(self).update(
            springs=spec_tuple(self.springs, SpringSpec, "springs"),
            dampers=spec_tuple(self.dampers, DamperSpec, "dampers"))


def default_config_path():
    """Path of the shipped default config inside the package."""
    return resources.files("spoonarm").joinpath("data/default_config.json")


# ---------------------------------------------------------------------------
# element types: how one JSON value is read and written


class _Type(NamedTuple):
    read: Callable      # (JSON value, path) -> domain value
    write: Callable = lambda value: value   # domain value -> JSON value


def _child(path, key):
    return f"{path}.{key}" if path else key


class _Repeated(dict):
    """A decoded JSON object that names `key` more than once."""

    key = ""


def _pairs(pairs):
    """The object_pairs_hook of the reader: a dict, or a _Repeated one
    that _mapping rejects at the path of its repeated key."""
    node = dict(pairs)
    if len(node) == len(pairs):
        return node
    keys = [key for key, _ in pairs]
    node = _Repeated(node)
    node.key = next(k for i, k in enumerate(keys) if k in keys[:i])
    return node


def _mapping(node, path):
    if not isinstance(node, dict):
        raise ParseError(path, f"expected an object, got {type(node).__name__}")
    if type(node) is _Repeated:
        raise ParseError(_child(path, node.key), "repeated key")
    return node


def _number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(path, "expected a number")
    # also false for NaN, and for integers too large for a float
    if not abs(node) <= sys.float_info.max:
        raise ParseError(path, "expected a finite number")
    return float(node)


def _integer(node, path):
    if isinstance(node, bool) or not isinstance(node, int):
        raise ParseError(path, "expected an integer")
    return node


_NUMBER = _Type(_number)
_INTEGER = _Type(_integer)


def _choice(members: dict) -> _Type:
    """A string naming one of `members` (name -> domain value)."""
    names = {member: name for name, member in members.items()}

    def read(node, path):
        if not isinstance(node, str):
            raise ParseError(path, "expected a string")
        if node not in members:
            raise ParseError(path,
                             "expected one of: " + ", ".join(sorted(members)))
        return members[node]

    def write(member):
        if member not in names:
            raise TypeError(f"cannot write {member!r}")
        return names[member]

    return _Type(read, write)


def _array(length, element=_NUMBER) -> _Type:
    """An array of `length` entries (None: any length), read as a tuple."""
    def read(node, path):
        if not isinstance(node, list):
            raise ParseError(path,
                             f"expected an array, got {type(node).__name__}")
        if length is not None and len(node) != length:
            raise ParseError(path,
                             f"expected {length} entries, got {len(node)}")
        return tuple(element.read(v, f"{path}[{i}]")
                     for i, v in enumerate(node))

    return _Type(read, lambda value: [element.write(v) for v in value])


def _named(enum):
    return _choice({member.value: member for member in enum})


# ---------------------------------------------------------------------------
# field tables

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """One key of a JSON object.

    `key` is the JSON key with its unit suffix, `name` the domain
    attribute when it differs from the key, and `type` the element type.
    A non-empty `tags` lists the values of the object's tag field (spring
    kind, damper model, input type) whose objects carry this key. A
    `default` makes the key optional; a default of None also lets the key
    be null, and the writer leaves a None value out.
    """

    key: str
    name: str = ""
    type: _Type = _NUMBER
    tags: tuple = ()
    default: object = _REQUIRED

    @property
    def attr(self) -> str:
        return self.name or self.key

    def take(self, node: dict, path: str):
        """Pop this key off `node`, the object at `path`, and read it."""
        child = _child(path, self.key)
        value = node.pop(self.key, self.default)
        if value is _REQUIRED:
            raise ParseError(child, "missing required key")
        return value if value is self.default else self.type.read(value, child)


def _object(build, *fields, tag=None) -> _Type:
    """A JSON object holding `fields`, built into a domain value by
    `build(**attributes)`. The value of the `tag` field, which precedes
    the tagged fields, selects which of them the object carries.

    A ValueError from `build` becomes a ValidationError. A message that
    starts with an attribute's name, or an entry of it such as q[1],
    sharpens the error path to that field.
    """
    known = {f.attr for f in fields}

    def read(node, path):
        node = dict(_mapping(node, path))
        values = {}
        for f in fields:
            if not f.tags or values[tag.attr] in f.tags:
                values[f.attr] = f.take(node, path)
        if node:
            key = sorted(node)[0]
            raise ParseError(_child(path, key), "unknown key")
        try:
            return build(**values)
        except ValueError as exc:
            message = str(exc)
            first = message.split()[0] if message else ""
            if first.partition("[")[0] in known:
                path = _child(path, first)
            raise ValidationError(path, message) from None

    def write(value):
        tag_value = tag and getattr(value, tag.attr)
        items = ((f, getattr(value, f.attr)) for f in fields
                 if not f.tags or tag_value in f.tags)
        return {f.key: f.type.write(item) for f, item in items
                if item is not None}

    return _Type(read, write)


# fields that two objects share
_JOINT = _Field("joint", type=_choice({j.key: j for j in Joint}))
_ROTARY_STIFFNESS = _Field("stiffness_n_m_per_rad", "stiffness")
_DURATION = _Field("duration_s", "duration")

_MECHANISM = _object(
    MechanismParams,
    _Field("base_height_m", "base_height"),
    _Field("base_offset_m", "base_offset"),
    _Field("link1_length_m", "link1_length"),
    _Field("link2_length_m", "link2_length"),
    _Field("spoon_offset_m", "spoon_offset"),
    _Field("handle_variant", type=_named(HandleVariant)),
    _Field("handle_distance_m", "handle_distance"),
    _Field("bracket_drop_m", "bracket_drop"),
    _Field("bracket_lateral_m", "bracket_lateral"),
    _Field("handedness", type=_named(Handedness)),
    _Field("handle_angle_index", type=_INTEGER),
    _Field("joint_limits_rad", "joint_limits", _array(3, _array(2))),
    _Field("mass_link1_kg", "mass_link1"),
    _Field("mass_link2_kg", "mass_link2"),
    _Field("mass_payload_kg", "mass_payload"),
    _Field("com_fraction1"),
    _Field("com_fraction2"),
    _Field("gravity_m_per_s2", "gravity"),
)

_SPRING_KIND = _Field("kind", type=_named(SpringKind))
_TORSION = (SpringKind.TORSION,)
_LINEAR = (SpringKind.LINEAR_ZERO_FREE_LENGTH, SpringKind.LINEAR_REAL)
_SPRING = _object(
    SpringSpec,
    _SPRING_KIND,
    _JOINT,
    replace(_ROTARY_STIFFNESS, tags=_TORSION),
    _Field("neutral_rad", "torsion_neutral", tags=_TORSION),
    _Field("stiffness_n_per_m", "stiffness", tags=_LINEAR),
    _Field("anchor_radius_m", "anchor_radius", tags=_LINEAR),
    _Field("bar_radius_m", "bar_radius", tags=_LINEAR),
    _Field("free_length_m", "free_length", tags=(SpringKind.LINEAR_REAL,)),
    tag=_SPRING_KIND,
)

_DAMPER_MODEL = _Field("model", type=_named(DamperModel))
_DAMPER = _object(
    DamperSpec,
    _JOINT,
    _DAMPER_MODEL,
    _Field("coefficient_n_m_s_per_rad", "coefficient",
           tags=(DamperModel.VISCOUS, DamperModel.DEAD_ZONE_VISCOUS)),
    _Field("deadzone_rad_per_s", "deadzone",
           tags=(DamperModel.DEAD_ZONE_VISCOUS,)),
    tag=_DAMPER_MODEL,
)

_COMPLIANCE = _object(
    ComplianceSpec,
    _Field("mode", type=_named(ComplianceMode)),
    _ROTARY_STIFFNESS,
    _Field("damping_n_m_s_per_rad", "damping"),
    _Field("deflection_limit_rad", "deflection_limit"),
    _Field("recenter_tolerance_rad", "recenter_tolerance"),
    _Field("inertia_kg_m2", "inertia"),
)

_CONFIG = _object(
    ConfigFile,
    _Field("mechanism", type=_MECHANISM),
    _Field("springs", type=_array(None, _SPRING)),
    _Field("dampers", type=_array(None, _DAMPER)),
    _Field("compliance", type=_COMPLIANCE),
)

# the input's tag is its class
_INPUT_TYPE = _Field("type", "__class__", _choice({
    "free_release": FreeRelease,
    "sine_tremor": SineTremor,
    "noise_tremor": NoiseTremor,
    "spasm_impulse": SpasmImpulse,
    "prescribed_trajectory": PrescribedTrajectory,
}))
_SINE, _NOISE, _SPASM = (SineTremor,), (NoiseTremor,), (SpasmImpulse,)
_INPUT = _object(
    lambda __class__, **values: __class__(**values),
    _INPUT_TYPE,
    _Field("amplitude_n", "amplitude", tags=_SINE),
    _Field("frequency_hz", "frequency", tags=_SINE),
    _Field("rms_n", "rms", tags=_NOISE),
    _Field("f_lo_hz", "f_lo", tags=_NOISE),
    _Field("f_hi_hz", "f_hi", tags=_NOISE),
    _Field("seed", type=_INTEGER, tags=_NOISE),
    _Field("force_n", "force", tags=_SPASM),
    replace(_DURATION, tags=_SPASM),
    _Field("onset_s", "onset", tags=_SPASM),
    _Field("direction", type=_array(3), tags=_SINE + _NOISE + _SPASM),
    _Field("waypoints", type=_array(None, _array(4)),
           tags=(PrescribedTrajectory,)),
    tag=_INPUT_TYPE,
)

_SCENARIO = _object(
    Scenario,
    _DURATION,
    _Field("timestep_s", "timestep"),
    _Field("initial", type=_object(
        JointState,
        _Field("q_rad", "q", _array(3)),
        _Field("qdot_rad_per_s", "qdot", _array(3),
               default=(0.0, 0.0, 0.0)),
    )),
    _Field("input", type=_INPUT),
    _Field("spoon_contact", type=_object(
        SpoonContact,
        _Field("time_s", "time"),
        _Field("impulse_pitch_n_m_s", "impulse_pitch"),
        _Field("impulse_yaw_n_m_s", "impulse_yaw", default=0.0),
    ), default=None),
)

_VERSION = _Field("schema_version", type=_INTEGER)


# ---------------------------------------------------------------------------
# files


def _parse_file(data, table: _Type):
    """A whole file's domain value. The version is checked before any
    other key, so a file of another version fails on its version alone."""
    node = dict(_mapping(data, ""))
    version = _VERSION.take(node, "")
    if version != SCHEMA_VERSION:
        raise VersionMismatchError(version, SCHEMA_VERSION)
    return table.read(node, "")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_pairs)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError("<file>", f"invalid JSON: {exc}") from None


def _write_json(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def parse_config(data) -> ConfigFile:
    """Build a ConfigFile from already-decoded JSON data."""
    return _parse_file(data, _CONFIG)


def parse_scenario(data) -> Scenario:
    return _parse_file(data, _SCENARIO)


def load_config(path) -> ConfigFile:
    return parse_config(_read_json(path))


def load_scenario(path) -> Scenario:
    return parse_scenario(_read_json(path))


# canonical form: schema_version first, 2-space indent, shortest
# round-trip floats


def config_data(config: ConfigFile) -> dict:
    return {_VERSION.key: SCHEMA_VERSION, **_CONFIG.write(config)}


def scenario_data(scenario: Scenario) -> dict:
    return {_VERSION.key: SCHEMA_VERSION, **_SCENARIO.write(scenario)}


def save_config(config: ConfigFile, path):
    _write_json(config_data(config), path)


def save_scenario(scenario: Scenario, path):
    _write_json(scenario_data(scenario), path)
