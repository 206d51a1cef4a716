"""The narrative demos run end to end against the package in this checkout.

04 (cost and smoothing, about half a minute) and 06 (remote model through
a local stub server) are left out to keep the suite fast; run them by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdws

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    ["01_roundtrip.py", "02_robustness.py", "03_tiling.py", "05_distortion_check.py"],
)
def test_demo_exits_zero(script):
    src = os.path.dirname(os.path.dirname(pdws.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
