"""Every demo runs to completion as a script and prints its golden bytes.

tests/data/demo_<stem>.txt holds each demo's stdout; the demos are
deterministic, so a changed byte is a changed result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data"


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_text()
