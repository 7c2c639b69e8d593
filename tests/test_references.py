"""The byte-identical contract: perfbench/digest.py --check recomputes the
report stream of every identity's acceptance grid and every report of each
workload's default-seed sample, and compares them with the recorded
references, writing nothing."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("target", ["registry", "points"])
def test_reports_match_the_recorded_references(target):
    proc = subprocess.run([sys.executable, "perfbench/digest.py", target, "--check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DIFFERS" not in proc.stdout and "matches" in proc.stdout
