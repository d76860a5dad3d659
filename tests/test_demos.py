"""The narrative scripts under demos/ run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
