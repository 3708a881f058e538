"""Payload regression guard: cheap benchmark jobs against their references.

Runs a few of the benchmark's jobs in process through `nilcoh.cli.main`,
with an empty Weyl cache, and compares each canonical payload (no config,
elapsed_ms or tool_version) with the stored `nilbench/references/<id>.json`.
The job arguments and the canonical form come from `nilbench/workloads.py`,
which is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nilcoh import weyl
from nilcoh.cli import main

BENCH = Path(__file__).resolve().parent.parent / "nilbench"
CHEAP_JOBS = ("suite-G2-p7", "oracle-A3-Q", "ring-A3-l7", "sumdot-A3-p5",
              "ext-A2-p7-d6", "ext-B2-p5-d5", "sumdot-B3-p7",
              "levi-B3-p7-J0", "collisions-F4-p13", "kostant-F4-J01")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "nilbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
JOBS = {job.id: job for jobs in WORKLOADS.LADDERS.values() for job in jobs}


@pytest.mark.parametrize("job_id", CHEAP_JOBS)
def test_payload_matches_reference(job_id, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NILCOH_CACHE", str(tmp_path))
    monkeypatch.setattr(weyl, "_GROUPS", {})
    job = JOBS[job_id]
    code = main(list(job.argv))
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert job.check(payload)
    reference = (BENCH / "references" / f"{job_id}.json").read_text().strip()
    assert WORKLOADS.canonical(payload) == reference
