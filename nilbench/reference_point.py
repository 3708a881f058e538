"""Record a reference point: repeated runs of every workload, summarized.

    python3 nilbench/reference_point.py [--out FILE]

Makes ten untraced runs of every workload (seeds 1..10) and two traced
runs, one at a time, each as long as `run_seconds` in BENCHMARK.json.  For
each end-to-end metric it records the values, their median and quartiles,
and the spread (quartile distance over median); the same for the times
before calibration scaling.  For the per-layer metrics it records the
first traced run, each layer's share of the traced time, and every count
that differs between traced runs (a count must repeat exactly).  Writes
JSON to --out, or to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, PER_LAYER, ROOT
from workloads import WORKLOADS

RUNS = 10
TRACED = 2


def one_run(workload: str, seed: int, seconds: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = str(json.load(fh)["run_seconds"])

    report = {}
    for workload in WORKLOADS:
        untraced = [one_run(workload, seed, seconds, 0)
                    for seed in range(1, RUNS + 1)]
        traced = [one_run(workload, seed, seconds, 1)
                  for seed in range(1, TRACED + 1)]
        results = [res for _, res in untraced + traced]
        entry = {
            "provenance": untraced[0][0]["provenance"],
            "calibration_s": [d["provenance"]["calibration_s"]
                              for d, _ in untraced],
            "passes": [d["provenance"]["passes"] for d, _ in untraced],
            "correct": all(res["correct"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "end_to_end": {
                name: dict(summarize([res["metrics"][name]["value"]
                                      for _, res in untraced]),
                           unit=metric["unit"])
                for name, metric in untraced[0][1]["metrics"].items()},
            "unscaled": {
                name: summarize([d["provenance"]["unscaled"][name]
                                 for d, _ in untraced])
                for name in untraced[0][0]["provenance"]["unscaled"]},
        }
        first = traced[0][1]["metrics"]
        entry["per_layer"] = {name: first[name] for name in PER_LAYER}
        entry["ladders"] = traced[0][0]["ladders"]
        entry["counts_differing"] = sorted(
            name for name, unit in PER_LAYER.items()
            if unit in ("count", "B") and any(
                res["metrics"][name]["value"] != first[name]["value"]
                for _, res in traced[1:]))
        report[workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:10s} {name:12s} median {s['median']:10.4f}"
                  f" spread {s['spread']:.3f}", file=sys.stderr)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
