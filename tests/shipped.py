"""The builds the tests share, each stated once, and the CLI runner.

The packaged data files are the one statement of the nominal build: the
shipped config (its mechanism has the calibrated bracket radius, its
springs balance gravity exactly) and the example scenario. They are
loaded once here; `test_config.py` checks what they derive from.
"""

from spoonarm.cli import main
from spoonarm.config import default_config_path, load_config, load_scenario
from spoonarm.dynamics import ComplianceMode, ComplianceSpec
from spoonarm.kinematics import MechanismParams

SHIPPED = load_config(default_config_path())
NOMINAL = SHIPPED.mechanism
EXAMPLE_PATH = default_config_path().with_name("example_scenario.json")
EXAMPLE = load_scenario(EXAMPLE_PATH)

RIGID = ComplianceSpec(mode=ComplianceMode.RIGID)
# limits so wide that free swings never clamp; clamping is tested on its own
FREE_LIMITS = ((-1e6, 1e6), (-1e6, 1e6), (-1e6, 1e6))
# every link length, centre-of-mass fraction and link mass distinct, so
# that a law which reads one link's value for the other's shows
ASYMMETRIC = MechanismParams(link1_length=0.27, link2_length=0.22,
                             com_fraction1=0.45, com_fraction2=0.60,
                             mass_link1=0.33, mass_link2=0.28,
                             joint_limits=FREE_LIMITS)


def run(capsys, *argv):
    """The exit code, stdout and stderr of the CLI run with `argv`."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err
