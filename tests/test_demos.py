"""The narrative demos run to completion against the current package.

Demo 05 is left out: it runs full-size experiments (several seconds), and
every name it imports is exercised by the other demos and the test suite.
The CI workflow runs it as a step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_tag_basics.py", "02_intra_granule_overflow.py",
         "03_recovery_walkthrough.py", "04_temporal_bugs.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
