"""The fixed in-process ladder of the restricted-Ext core.

Runs each case in its own `python` subprocess against the `src/` of the
checkout this file lies in, and prints one JSON line per case: its wall
time in seconds (the algebra and, where a degree is given, `ext_dims`
with both resolution checks), its peak memory in MB, read as VmHWM
from /proc/self/status, and per stage a short sha256 of its
`gen_weights` and `differential`, so that the stages two trees build can
be compared from the output alone.  `ru_maxrss` would not do: a child's
counts the RSS of the process that forked it.  Only `DEFAULT_DIM_BUDGET`
is lifted, since every case but A3 p=5 is over it.

    python tools/ladder.py              # the fixed ladder
    python tools/ladder.py G2 7 4       # one case: type, p, degree

Uses the standard library only; Linux only (VmHWM).  The fixed ladder is
not part of the test suite; `tests/test_ladder.py` runs the one case
B2 5 4 and checks its dims and stage hashes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (type, p, J, degree); degree None builds the algebra alone
CASES = (("G2", 11, (), None), ("A3", 5, (), 5), ("A3", 7, (), 4),
         ("G2", 7, (), 3))

CHILD = """
import hashlib, json, sys, time
from nilcoh import restricted
from nilcoh.rootsystem import build
label, p, J, degree = json.loads(sys.argv[1])
restricted.DEFAULT_DIM_BUDGET = float("inf")
start = time.perf_counter()
alg = restricted.RestrictedAlgebra(J, p, build(label))
dims = stages = None
if degree is not None:
    gc, res = restricted.ext_dims(alg, degree)
    dims = gc.dims()
wall = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status
               if line.startswith("VmHWM:"))
if degree is not None:
    stages = [hashlib.sha256(repr((st.gen_weights, [sorted(d.items())
              for d in st.differential])).encode()).hexdigest()[:12]
              for st in res.stages]
print(json.dumps({"type": label, "p": p, "J": J, "degree": degree,
                  "wall_s": round(wall, 3), "peak_mb": round(hwm / 1024, 1),
                  "dims": dims, "stages": stages}))
"""


def main(argv):
    cases = CASES
    if argv:
        label, p, degree = argv
        cases = ((label, int(p), (), int(degree)),)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for case in cases:
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(case)],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"{case} failed:\n{proc.stderr}")
        print(proc.stdout.strip(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
