"""The benchmark's fixed job ladders and the workloads made from them.

A ladder is a list of CLI jobs that stresses one group of layers.  A job is
one fresh `nilcoh` process; its payload is compared with a stored reference
(see `canonical`) and with the headline values pinned in `check`.  The
workload seed only permutes the job order within a pass, so every job that
can run has a stored reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

# Keys that are not mathematical results: wall-clock echo, version string,
# and the echoed argparse configuration.
VOLATILE_KEYS = ("elapsed_ms", "tool_version")

# |W| for the Cartan types the ladders use; set-up checks each enumeration.
WEYL_ORDERS = {"A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "F4": 1152}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    check: Callable[[dict], bool]

    @property
    def cartan_type(self) -> str:
        return self.argv[self.argv.index("--type") + 1]


def _hits(n):
    return lambda d: len(d["violations"]) == n and d["exhaustive"] is True


def _suite_passes(d):
    return d["pass"] is True and all(c["pass"] for c in d["checks"])


def _laws_hold(d):
    return sorted(d["laws"]) == ["associative", "graded_commutative",
                                 "identity", "odd_squares_zero"] \
        and all(d["laws"].values())


LADDERS = {
    "crosscheck": [
        Job("suite-A3-p7", ("verify", "suite", "--type", "A3", "--p", "7"),
            _suite_passes),
        Job("suite-G2-p7", ("verify", "suite", "--type", "G2", "--p", "7"),
            _suite_passes),
        Job("oracle-B3-p7", ("oracle-koszul", "--type", "B3", "--p", "7"),
            lambda d: d["dims"] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]),
        Job("oracle-A3-Q", ("oracle-koszul", "--type", "A3", "--p", "7",
                            "--field", "Q"),
            lambda d: d["dims"] == [1, 3, 5, 6, 5, 3, 1]),
    ],
    "ext": [
        Job("ext-B2-p5-d5", ("ext", "--type", "B2", "--p", "5",
                             "--max-degree", "5", "--check-square"),
            lambda d: d["dims"] == [1, 2, 6, 10, 19, 28]
            and d["example_product"]["nonzero"] is True),
        Job("ext-A2-p7-d6", ("ext", "--type", "A2", "--p", "7",
                             "--max-degree", "6", "--check-square"),
            lambda d: d["dims"] == [1, 2, 5, 7, 12, 15, 22]),
    ],
    "weyl": [
        Job("ring-B3-p11", ("ring-table", "--type", "B3", "--p", "11"),
            lambda d: _laws_hold(d) and len(d["rows"]) == 48 * 48),
        Job("ring-A3-l7", ("ring-table", "--type", "A3", "--l", "7"),
            lambda d: _laws_hold(d) and len(d["rows"]) == 24 * 24),
        Job("kostant-F4-J01", ("kostant", "--type", "F4", "--J", "0,1",
                               "--lambda", "0,0,0,0"),
            # 1152 / |W(A2)| minimal coset representatives; Poincare duality
            lambda d: len(d["entries"]) == 192 and d["dims"][0] == 1
            and d["dims"] == d["dims"][::-1]),
    ],
    "search": [
        Job("collisions-F4-p13", ("verify", "dot-collisions", "--type", "F4",
                                  "--p", "13", "--lambda", "0,0,0,0"),
            _hits(0)),
        Job("sumdot-B3-p7", ("verify", "sum-dot", "--type", "B3", "--p", "7"),
            _hits(136)),
        Job("levi-B3-p7-J0", ("verify", "levi-weights", "--type", "B3",
                              "--p", "7", "--J", "0"),
            _hits(87)),
        Job("sumdot-A3-p5", ("verify", "sum-dot", "--type", "A3", "--p", "5"),
            _hits(28)),
    ],
}

# Two workloads of two ladders each, so that a run is long enough to be
# steady on a noisy shared machine.  Each workload leaves idle what the
# other stresses: ext-search never computes an inversion set, a CE complex
# or a ring product, and crosscheck-weyl does almost no F_p elimination, no
# Ext resolution and no dot-image search.
WORKLOADS = {
    "ext-search": LADDERS["ext"] + LADDERS["search"],
    "crosscheck-weyl": LADDERS["crosscheck"] + LADDERS["weyl"],
}
LADDER_OF = {job.id: name for name, jobs in LADDERS.items() for job in jobs}


def cartan_types(jobs) -> list[str]:
    """The Cartan types a ladder enumerates, in first-use order."""
    return list(dict.fromkeys(job.cartan_type for job in jobs))


def canonical(payload: dict) -> str:
    """Payload as compact sorted JSON, without the volatile keys."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in VOLATILE_KEYS}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    body = {k: v for k, v in payload.items() if k != "config"}
    return json.dumps(strip(body), sort_keys=True, separators=(",", ":"))
