"""Toolkit for a passive, spring-balanced 3-DoF feeding-assistance arm.

Covers the geometric model (forward/inverse kinematics, both handle
arrangements), static gravity balancing with linear or torsion springs,
damped rigid-body dynamics with a compliant utensil mount, and the design
studies built on top of them. See the README for the CLI.
"""

from types import ModuleType as _Module

from .analysis import (
    Excursion,
    StabilizationReport,
    TrajectorySpec,
    WorkspaceSample,
    WorkspaceSummary,
    calibrate_handle_distance,
    compare_handle_variants,
    handle_excursion,
    stabilization_report,
    trajectory_states,
    workspace_sample,
)
from .config import (
    ConfigFile,
    default_config_path,
    load_config,
    load_scenario,
    save_config,
    save_scenario,
)
from .dynamics import (
    ComplianceMode,
    ComplianceSpec,
    ContactResponse,
    DamperModel,
    DamperSpec,
    FreeRelease,
    NoiseTremor,
    PrescribedTrajectory,
    Scenario,
    SimResult,
    SineTremor,
    SpasmImpulse,
    SpoonContact,
    coriolis_matrix,
    damper_torque,
    generate_signal,
    kinetic_energy,
    mass_matrix,
    run_scenario,
    spoon_contact_response,
    step_dynamics,
)
from .errors import (
    ConfigError,
    DeflectionExceededError,
    GridMismatchError,
    InfeasibleBoundsError,
    LimitViolationError,
    NonFiniteStateError,
    NotBracketedError,
    ParseError,
    SpoonArmError,
    TimestepTooCoarseError,
    UnreachableError,
    ValidationError,
    VersionMismatchError,
)
from .kinematics import (
    Handedness,
    HandleVariant,
    Joint,
    JointState,
    MechanismParams,
    Pose,
    forward_kinematics,
    handle_jacobian,
    handle_pose,
    inverse_kinematics,
    jacobian,
    spoon_pose,
)
from .statics import (
    BalanceResult,
    SpringKind,
    SpringSpec,
    TorqueProfile,
    gravity_torque,
    holding_force,
    potential_energy,
    residual_torque_profile,
    spring_torque,
    synthesize_balancing,
)

__version__ = "0.1.0"

# every name imported above; the submodules are attributes, not exports
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
