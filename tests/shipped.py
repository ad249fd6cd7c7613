"""The builds the tests share, each stated once.

The packaged data files are the one statement of the nominal build: the
shipped config (its mechanism has the calibrated bracket radius, its
springs balance gravity exactly) and the example scenario. They are
loaded once here; `test_config.py` checks what they derive from.
"""

from spoonarm.config import default_config_path, load_config, load_scenario
from spoonarm.dynamics import ComplianceMode, ComplianceSpec

SHIPPED = load_config(default_config_path())
NOMINAL = SHIPPED.mechanism
EXAMPLE_PATH = default_config_path().with_name("example_scenario.json")
EXAMPLE = load_scenario(EXAMPLE_PATH)

RIGID = ComplianceSpec(mode=ComplianceMode.RIGID)
# limits so wide that free swings never clamp; clamping is tested on its own
FREE_LIMITS = ((-1e6, 1e6), (-1e6, 1e6), (-1e6, 1e6))
