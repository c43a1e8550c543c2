"""scripts/peak_rss.py: one amflood command in a child, its exit code, wall
time and peak RSS on one line."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
LINE = re.compile(r"exit=(-?\d+) wall_s=(\d+\.\d{3}) peak_rss_mb=(\d+\.\d)\n")


@pytest.mark.parametrize("args, code", [
    (["analyze", "--named", "petersen", "--source", "0"], 0),
    (["run", "--named", "cycle:5", "--source", "9"], 2),
])
def test_peak_rss_reports_the_childs_exit_time_and_peak(args, code):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)
    assert proc.returncode == code
    match = LINE.fullmatch(proc.stdout)  # the child's stdout went to /dev/null
    assert match, proc.stdout
    assert int(match[1]) == code
    assert 0 < float(match[2]) and 1 < float(match[3]) < 1000
    assert (proc.stderr == "") == (code == 0)  # the child's stderr passes through
