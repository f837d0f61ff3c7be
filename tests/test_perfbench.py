"""The benchmark's self-tests pass, so the names its tracer wraps exist."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
