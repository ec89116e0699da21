"""``tools/mission_control.py`` demo smoke: it runs and its panels are honest."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "mission_control.py"


def test_demo_renders_the_session_panel_without_a_gsi_row():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "7"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.startswith("mission control @ t=")
    panel = out.split("session caches", 1)[1].split("\n\n", 1)[0]
    assert "layer | hits | misses" in panel
    assert "gsi" not in panel.lower()
    assert "slowest flight records" in out
