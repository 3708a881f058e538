"""Tracing leaves stdout unchanged.

Runs `nilbench/trace_runner.py` (only read) and the plain CLI in
subprocesses, each with its own empty Weyl cache, and compares their stdout
byte for byte, apart from the wall-clock `elapsed_ms` that suite
certificates echo.  The runner patches nilcoh functions by name, so this
also fails when one of those names is removed.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The CLI runs most of its modules only on first use; these jobs between
# them read every module the runner patches.
JOBS = {
    "ring-A2-l7": ("ring-table", "--type", "A2", "--l", "7"),
    "suite-G2-p7": ("verify", "suite", "--type", "G2", "--p", "7"),
    "kostant-F4-J01": ("kostant", "--type", "F4", "--J", "0,1"),
    "ext-B2-p5-d3": ("ext", "--type", "B2", "--p", "5", "--max-degree", "3"),
    "sumdot-A3-p5": ("verify", "sum-dot", "--type", "A3", "--p", "5"),
    "oracle-B3-p7": ("oracle-koszul", "--type", "B3", "--p", "7"),
}
ELAPSED = re.compile(rb'"elapsed_ms": \d+')


def _run(argv, cache: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, NILCOH_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_trace_leaves_stdout_unchanged(job, tmp_path):
    spans = tmp_path / "spans.json"
    plain = _run(["-m", "nilcoh.cli", *JOBS[job]], tmp_path / "plain")
    traced = _run([str(ROOT / "nilbench" / "trace_runner.py"), str(spans),
                   "--", *JOBS[job]], tmp_path / "traced")
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert ELAPSED.sub(b"", traced.stdout) == ELAPSED.sub(b"", plain.stdout)
    assert json.loads(spans.read_text())["spans"]
