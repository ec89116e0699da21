"""Importing the library loads no array package.

Every algorithm has one pure-Python implementation, so such an import
would only add start-up time and resident memory.  The check runs in a
fresh interpreter, where nothing else has imported it first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro
import repro.globusonline.service
import repro.archive
import repro.scheduler
print("numpy" in sys.modules)
"""


def test_importing_repro_loads_no_array_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
