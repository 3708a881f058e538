"""Write the reference payload of every benchmark job.

    python3 nilbench/capture_refs.py [JOB_ID ...]

Runs each job once (all of them when no id is given) with a fresh Weyl
cache and stores its canonical payload under references/.  The stored
references were captured at the seed commit; re-capture only when a change
is meant to alter a mathematical result, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, SRC, WORK_PARENT, spawn
from workloads import LADDERS, canonical


def main(wanted: list[str]) -> int:
    jobs = [job for ladder in LADDERS.values() for job in ladder
            if not wanted or job.id in wanted]
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    env = dict(os.environ, PYTHONPATH=str(SRC), NILCOH_CACHE=str(work))
    status = 0
    try:
        for job in jobs:
            out_path = work / f"{job.id}.out"
            _, _, code = spawn([sys.executable, "-m", "nilcoh.cli", *job.argv],
                               env, out_path)
            payload = json.loads(out_path.read_bytes()) if code == 0 else None
            if payload is None or not job.check(payload):
                print(f"{job.id}: exit {code} or headline values differ;"
                      " reference not written", file=sys.stderr)
                status = 1
                continue
            (REFERENCES / f"{job.id}.json").write_text(canonical(payload) + "\n")
            print(f"{job.id}: written")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
