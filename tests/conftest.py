import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# pytest puts src/ on this process's path (pyproject's pythonpath); the CLI
# tests' child processes import the package from the same checkout
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from atomreadout import reference_cycle_config


@pytest.fixture(scope="session")
def ref_cfg():
    return reference_cycle_config()
