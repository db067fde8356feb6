"""Every demo script runs to completion and prints exactly its recorded output.

The demos are deterministic, so each one's stdout is compared byte for byte
with ``demo_output/<demo>.txt``.  A change to a demo's output is a change to
the library's results or to the demo, and the recorded file is updated with
it on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


def test_demos_found():
    assert DEMOS
    assert sorted(path.stem for path in RECORDED.glob("*.txt")) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")
