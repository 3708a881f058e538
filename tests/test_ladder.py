"""`tools/ladder.py`, the in-process ladder that a change to the resolution
reports its times on, still runs: one small case, B2 p=5 through degree 4,
with its Ext dimensions and the hash of each stage."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the ladder reads VmHWM from /proc/self/status")
def test_ladder_runs_b2_p5_d4():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ladder.py"), "B2", "5", "4"],
        capture_output=True, text=True, check=True)
    (line,) = proc.stdout.splitlines()
    row = json.loads(line)
    assert (row["type"], row["p"], row["J"], row["degree"]) == \
        ("B2", 5, [], 4)
    assert row["dims"] == [1, 2, 6, 10, 19]
    assert row["stages"] == ["133aba366f3a", "e91fc8375479", "ba321b5e330f",
                             "e3fa789038b1", "44a12af0dd6a"]
    assert row["wall_s"] > 0 and row["peak_mb"] > 0
