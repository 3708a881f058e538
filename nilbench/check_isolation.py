"""Check that benchmark runs leave the source tree as they found it.

    python3 nilbench/check_isolation.py

Run from the root of a git checkout.  Records `git status --porcelain` and
the name and bytes of every file in the default Weyl cache directory
./.nilcoh-cache/ (git ignores new files there, so status alone would not
show them), makes one untraced and one traced 1 s benchmark run of every
workload, and exits 1 if either record changed, if a run failed, or if the
work directory was left behind.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

from run import ROOT, WORK_PARENT
from workloads import WORKLOADS

DEFAULT_CACHE = ROOT / ".nilcoh-cache"


def snapshot() -> tuple:
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout
    cache = {}
    if DEFAULT_CACHE.is_dir():
        cache = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(DEFAULT_CACHE.iterdir())}
    return status, cache


def main() -> int:
    before = snapshot()
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "nilbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines \
                    or not json.loads(lines[-1])["correct"]:
                problems.append(f"{workload} run with --trace {trace}"
                                f" failed:\n{out.stderr}")
    after = snapshot()
    if after[0] != before[0]:
        problems.append(f"git status changed:\n{before[0]}---\n{after[0]}")
    if after[1] != before[1]:
        problems.append(f"{DEFAULT_CACHE} changed: {sorted(before[1])}"
                        f" -> {sorted(after[1])}")
    if WORK_PARENT.exists():
        problems.append(f"{WORK_PARENT} was left behind")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("isolation: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
