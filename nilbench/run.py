"""nilcoh benchmark: CLI job ladders end to end, and a traced per-layer run.

    python3 nilbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up brings an empty Weyl cache
owned by the benchmark to warm, enumerating each Cartan type of the
workload cold in its own interpreter, several times.  Then passes over the
workload's job ladder run until the time is spent; one client runs one job
at a time, each job a fresh nilcoh process.  Every payload is checked
against its stored reference and its pinned headline values.

Times are scaled to the speed of a reference machine: a fixed pure-Python
loop is timed before and after every job and set-up round, and each time
is multiplied by REFERENCE_CALIBRATION_S over that loop's mean time.  The
host's speed drifts by tens of percent over minutes; the scaling takes
that drift out of the end-to-end times.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with passes under trace_runner.py and reports the per-layer metrics.
The last stdout line is the JSON result; the line before it records
provenance (and, when traced, each layer's share of each ladder's traced
time).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import (LADDER_OF, WEYL_ORDERS, WORKLOADS, canonical,
                       cartan_types)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references"
WORK_PARENT = ROOT / ".nilbench-work"

JOB_TIMEOUT_S = 30
# Jobs that hang are cut off so that a run ends at most this long after its
# measuring time (set-up included), within the 180 s a run may take.
GRACE_S = 90
SETUP_ROUNDS = 7
# Time of calibration_s() on the reference machine (2 vCPUs, Intel Xeon
# 2.1 GHz, Python 3.11): scaled times read as seconds there.
REFERENCE_CALIBRATION_S = 0.02
SETUP_SNIPPET = ("import sys\n"
                 "from nilcoh.rootsystem import build\n"
                 "from nilcoh.weyl import enumerate_group\n"
                 "print(enumerate_group(build(sys.argv[1])).order)\n")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio", "setup_s": "s"}

PER_LAYER = {
    "weyl.inverse.calls": "count", "weyl.inverse.self_s": "s",
    "weyl.inversion_set.calls": "count", "weyl.inversion_set.self_s": "s",
    "weyl.min_coset_reps.self_s": "s",
    "weyl.enumerate_s": "s", "weyl.cache_hits": "count",
    "weyl.cache_misses": "count", "weyl.order": "count",
    "weyl.cache_bytes": "B",
    "rootsystem.fund_to_root.calls": "count",
    "verify.search.self_s": "s", "verify.search.hits": "count",
    "verify.suite.self_s": "s",
    "koszul.cecomplex.builds": "count", "koszul.cecomplex.s": "s",
    "koszul.cochain_cup.calls": "count", "koszul.cochain_cup.self_s": "s",
    "koszul.d_matrix.calls": "count", "koszul.oracle.self_s": "s",
    "linalg.fp.calls": "count", "linalg.fp.s": "s",
    "linalg.fp.cells": "count", "linalg.fp.max_cells": "count",
    "linalg.q.calls": "count", "linalg.q.s": "s", "linalg.q.cells": "count",
    "restricted.algebra_dim": "count", "restricted.resolution.self_s": "s",
    "restricted.yoneda.s": "s", "restricted.generators": "count",
    "ring.laws.self_s": "s", "ring.nil_product.calls": "count",
    "ring.nil_product.self_s": "s",
    "ring.quantum_nil_product.calls": "count",
    "ring.quantum_nil_product.self_s": "s",
    "ring.multiply_classes.calls": "count", "ring.product_reuse": "ratio",
    "characters.levi.calls": "count", "characters.levi.s": "s",
    "kostant.decomposition.s": "s",
    "cli.import_s": "s", "cli.emit_s": "s", "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    """One child process: resources used and whether it did its job."""
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    reason: str = ""
    out_bytes: int = 0
    trace: dict | None = None
    scale: float = 1.0  # REFERENCE_CALIBRATION_S / calibration around it

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * self.scale


def spawn(cmd: list, env: dict, out_path: Path,
          timeout: float = JOB_TIMEOUT_S):
    """Run cmd to completion; (wall s, rusage, exit code or None on timeout).

    The child is waited for without being reaped first, so the timeout
    can never signal a recycled pid; os.wait4 then reaps it and returns
    its own rusage."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, \
            open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            kill()  # interrupted: stop the child before going away
            raise
        finally:
            wall = time.perf_counter() - t0
            with lock:
                state["exited"] = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, None if state["killed"] else proc.returncode


def _err_tail(out_path: Path) -> str:
    text = out_path.with_suffix(".err").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def _timeout(limit_at: float) -> float:
    return max(0.0, min(JOB_TIMEOUT_S, limit_at - time.perf_counter()))


def run_job(job, env: dict, work: Path, reference: str, traced: bool,
            limit_at: float) -> Outcome:
    out_path = work / f"{job.id}.out"
    spans_path = work / f"{job.id}.spans.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_runner.py"),
               str(spans_path), "--", *job.argv]
    else:
        cmd = [sys.executable, "-m", "nilcoh.cli", *job.argv]
    timeout = _timeout(limit_at)
    wall, usage, code = spawn(cmd, env, out_path, timeout)
    res = Outcome(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, ok=False)
    if code is None:
        res.reason = f"timeout after {timeout:.1f} s"
        return res
    if code != 0:
        res.reason = f"exit {code}: {_err_tail(out_path)}"
        return res
    raw = out_path.read_bytes()
    res.out_bytes = len(raw)
    try:
        payload = json.loads(raw)
        pinned = job.check(payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        res.reason = f"unreadable payload: {type(exc).__name__}: {exc}"
        return res
    if canonical(payload) != reference:
        res.reason = "payload differs from its reference"
    elif not pinned:
        res.reason = "headline values differ from the pinned ones"
    else:
        res.ok = True
    if traced:
        res.trace = json.loads(spans_path.read_text())
    return res


def set_up(types: list, env: dict, work: Path, limit_at: float,
           calibration: list):
    """Warm an empty cache per round; (median scaled round s, median
    unscaled round s, warm dir, failures).  Appends to calibration."""
    rounds, scaled, failures = [], [], []
    calibration.append(calibration_s())
    for k in range(SETUP_ROUNDS):
        cache = work / f"cache{k}"
        cache.mkdir()
        round_env = dict(env, NILCOH_CACHE=str(cache))
        spent = 0.0
        for t in types:
            out_path = work / f"setup-{t}.out"
            wall, _, code = spawn([sys.executable, "-c", SETUP_SNIPPET, t],
                                  round_env, out_path, _timeout(limit_at))
            spent += wall
            if code != 0:
                failures.append(f"set-up {t}: exit {code}: "
                                f"{_err_tail(out_path)}")
            elif out_path.read_text().strip() != str(WEYL_ORDERS[t]):
                failures.append(f"set-up {t}: wrong order")
            elif not (cache / f"weyl-{t}.json").is_file():
                failures.append(f"set-up {t}: no cache file written")
        rounds.append(spent)
        calibration.append(calibration_s())
        scaled.append(spent * scale(calibration[-2:]))
        if k < SETUP_ROUNDS - 1:
            shutil.rmtree(cache)
    return (statistics.median(scaled), statistics.median(rounds), cache,
            failures)


def span_totals(spans: list):
    """Per span name: call count, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
    return calls, total, own


def layer_metrics(outcomes: dict, cache_bytes: int):
    """Per-layer metrics of one traced pass, and per ladder the self seconds
    of each layer ("total": the ladder's traced seconds)."""
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    counters, peaks = Counter(), Counter()
    split = defaultdict(lambda: defaultdict(float))
    for job_id, res in outcomes.items():
        if res.trace is None:
            continue
        c, t, s = span_totals(res.trace["spans"])
        calls.update(c)
        ladder = split[LADDER_OF[job_id]]
        for name in t:
            total[name] += t[name]
            own[name] += s[name]
            ladder[name.split(".")[0]] += s[name]
        ladder["total"] += t["cli.job"]
        for key, val in res.trace["counters"].items():
            if key.endswith("max_cells"):
                peaks[key] = max(peaks[key], val)
            else:
                counters[key] += val
    mc = counters["ring.multiply_classes.calls"]
    m = {
        "weyl.inverse.calls": calls["weyl.inverse"],
        "weyl.inverse.self_s": own["weyl.inverse"],
        "weyl.inversion_set.calls": calls["weyl.inversion_set"],
        "weyl.inversion_set.self_s": own["weyl.inversion_set"],
        "weyl.min_coset_reps.self_s": own["weyl.min_coset_reps"],
        "weyl.enumerate_s": total["weyl.enumerate"],
        "weyl.cache_hits": counters["weyl.cache_hits"],
        "weyl.cache_misses": counters["weyl.cache_misses"],
        "weyl.order": counters["weyl.order"],
        "weyl.cache_bytes": cache_bytes,
        "rootsystem.fund_to_root.calls":
            counters["rootsystem.fund_to_root.calls"],
        "verify.search.self_s": own["verify.search"],
        "verify.search.hits": counters["verify.search.hits"],
        "verify.suite.self_s": own["verify.suite"],
        "koszul.cecomplex.builds": calls["koszul.cecomplex"],
        "koszul.cecomplex.s": total["koszul.cecomplex"],
        "koszul.cochain_cup.calls": calls["koszul.cochain_cup"],
        "koszul.cochain_cup.self_s": own["koszul.cochain_cup"],
        "koszul.d_matrix.calls": calls["koszul.d_matrix"],
        "koszul.oracle.self_s": own["koszul.oracle"],
        "linalg.fp.calls": calls["linalg.fp"],
        "linalg.fp.s": total["linalg.fp"],
        "linalg.fp.cells": counters["linalg.fp.cells"],
        "linalg.fp.max_cells": peaks["linalg.fp.max_cells"],
        "linalg.q.calls": calls["linalg.q"],
        "linalg.q.s": total["linalg.q"],
        "linalg.q.cells": counters["linalg.q.cells"],
        "restricted.algebra_dim": counters["restricted.algebra_dim"],
        "restricted.resolution.self_s": own["restricted.resolution"],
        "restricted.yoneda.s": total["restricted.yoneda"],
        "restricted.generators": counters["restricted.generators"],
        "ring.laws.self_s": own["ring.laws"],
        "ring.nil_product.calls": calls["ring.nil_product"],
        "ring.nil_product.self_s": own["ring.nil_product"],
        "ring.quantum_nil_product.calls": calls["ring.quantum_nil_product"],
        "ring.quantum_nil_product.self_s": own["ring.quantum_nil_product"],
        "ring.multiply_classes.calls": mc,
        "ring.product_reuse":
            1 - counters["ring.products_computed"] / mc if mc else 0.0,
        "characters.levi.calls": calls["characters.levi"],
        "characters.levi.s": total["characters.levi"],
        "kostant.decomposition.s": total["kostant.decomposition"],
        "cli.import_s": counters["cli.import_s"],
        "cli.emit_s": total["cli.emit"],
        "cli.out_bytes": sum(res.out_bytes for res in outcomes.values()),
    }
    return m, split


def scale(around: list) -> float:
    """Factor that scales a time measured between the calibration times
    `around` to the reference machine's speed."""
    return REFERENCE_CALIBRATION_S / statistics.mean(around)


def per_job_median(passes: list, attr: str) -> dict:
    """{job id: median of attr over passes}."""
    values = defaultdict(list)
    for outcomes in passes:
        for job_id, res in outcomes.items():
            values[job_id].append(getattr(res, attr))
    return {job_id: statistics.median(v) for job_id, v in values.items()}


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def provenance(args) -> dict:
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=git_env, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "nilcoh").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "src_sha256": src.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure(args, jobs, refs, env, work, limit_at, calibration: list):
    """Passes until the time is spent; (untraced passes, traced passes).
    Appends to calibration the loop time taken after each job."""
    rng = random.Random(args.seed)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        modes = (False, True) if args.trace else (False,)
        for mode in modes:
            outcomes = {}
            for job in rng.sample(jobs, len(jobs)):
                res = run_job(job, env, work, refs[job.id], mode, limit_at)
                calibration.append(calibration_s())
                res.scale = scale(calibration[-2:])
                outcomes[job.id] = res
            (traced if mode else untraced).append(outcomes)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "nilcoh" / "cli.py").is_file():
        print(f"no nilcoh sources under {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    try:
        refs = {job.id: (REFERENCES / f"{job.id}.json").read_text().strip()
                for job in jobs}
    except OSError as exc:
        print(f"missing reference: {exc}", file=sys.stderr)
        return 2

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        return _run(args, jobs, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run still owns a directory in it


def _run(args, jobs, refs, work: Path) -> int:
    limit_at = time.perf_counter() + args.seconds + GRACE_S
    env = dict(os.environ, PYTHONPATH=str(SRC))
    types = cartan_types(jobs)
    prov = provenance(args)
    calibration = []
    setup_s, unscaled_setup_s, cache, failures = set_up(
        types, env, work, limit_at, calibration)
    env["NILCOH_CACHE"] = str(cache)
    untraced, traced = measure(args, jobs, refs, env, work, limit_at,
                               calibration)

    outcomes = [res for p in untraced + traced for res in p.values()]
    failures += [f"{job_id}: {res.reason}" for p in untraced + traced
                 for job_id, res in p.items() if not res.ok]
    attempted = len(outcomes) + SETUP_ROUNDS * len(types)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    prov["passes"] = len(untraced)
    prov["calibration_s"] = statistics.median(calibration)

    wall = per_job_median(untraced, "scaled_wall")
    if not args.trace:
        prov["unscaled"] = {
            "wall_s": sum(per_job_median(untraced, "wall").values()),
            "cpu_s": sum(per_job_median(untraced, "cpu").values()),
            "setup_s": unscaled_setup_s}
        metrics = {
            "wall_s": sum(wall.values()),
            "cpu_s": sum(per_job_median(untraced, "scaled_cpu").values()),
            "peak_rss_mb": max(per_job_median(untraced, "rss_mb").values()),
            "ok_frac": 1 - len(failures) / attempted,
            "setup_s": setup_s,
        }
        units = END_TO_END
        detail = {"provenance": prov}
    else:
        cache_bytes = sum(f.stat().st_size for f in cache.iterdir())
        per_pass = [layer_metrics(p, cache_bytes) for p in traced]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                continue
            values = [m[name] for m, _ in per_pass]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    print(f"WARNING {name} differs between traced passes:"
                          f" {values}", file=sys.stderr)
        traced_wall = per_job_median(traced, "scaled_wall")
        metrics["trace.overhead_frac"] = \
            sum(traced_wall.values()) / sum(wall.values()) - 1
        units = PER_LAYER
        detail = {"provenance": prov, "ladders": {}}
        for ladder, first in per_pass[0][1].items():
            self_s = {layer: statistics.median(split[ladder][layer]
                                               for _, split in per_pass)
                      for layer in first}
            total = self_s.pop("total")
            detail["ladders"][ladder] = {
                "traced_s": total,
                "layer_share": {k: v / total for k, v in self_s.items()}}

    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
