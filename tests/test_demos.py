"""The narrative demos run to completion against the current package, and
print exactly what they printed when their stdout was pinned.

Demo 05 is left out: it runs full-size experiments (several seconds), and
every name it imports is exercised by the other demos and the test suite.
The CI workflow runs it as a step of its own.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# sha256 of each demo's stdout; the same on Python 3.10 to 3.13
DEMOS = {
    "01_tag_basics.py": "2d13f8f26c3451556636b427f80bc77b1e73c5eed38fcdac98407763714568b0",
    "02_intra_granule_overflow.py":
        "5320f4a3bee229c723c26f37fd808073dc1251d473a7fe96a7a6c089f967de97",
    "03_recovery_walkthrough.py":
        "aa6a0649214b0f35ecbf5a0d6817766f0287a6b5821a17d9855e350deac9987b",
    "04_temporal_bugs.py": "db91a6254771096f8dd913eb911fc8417d64dd47ba346a9c18644be8d097a480",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[demo], proc.stdout.decode()
