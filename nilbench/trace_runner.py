"""Run one nilcoh CLI job in process, with spans around each layer.

    python3 nilbench/trace_runner.py SPANS_OUT -- <nilcoh arguments...>

The runner wraps the public functions of the nilcoh modules from outside
the package (no file under src/ changes), calls `nilcoh.cli.main(argv)`,
and writes the spans and counters as JSON to SPANS_OUT when the job ends.
stdout carries the job's own payload, exactly as the CLI prints it.

A span is [name, start, end, parent index]; the parent is the innermost
open span when it started, or -1.  Functions called about 10^5 times per
job get a counter and no span, so tracing does not swamp the timing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Trace:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, n):
        self.counters[key] = max(self.counters.get(key, 0), n)

    def span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out
        return wrapper

    def counter(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def install(trace: Trace) -> None:
    """Patch every nilcoh namespace that binds a traced function."""
    from nilcoh import koszul, ring, rootsystem, weyl

    modules = [m for name, m in sys.modules.items()
               if name == "nilcoh" or name.startswith("nilcoh.")]

    def patch(module_name, attr, make, home=True):
        """Rebind `attr` of nilcoh.<module_name> wherever it was imported.

        With home=False the defining module keeps the original, so calls
        inside that module (one linalg routine calling another) are not
        counted as calls into the layer."""
        home_mod = sys.modules[f"nilcoh.{module_name}"]
        orig = getattr(home_mod, attr)
        wrapped = make(orig)
        for mod in modules:
            if mod is home_mod and not home:
                continue
            for name, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, name, wrapped)

    def method(cls, attr, make):
        setattr(cls, attr, make(getattr(cls, attr)))

    def spanned(name, before=None, after=None):
        return lambda fn: trace.span(name, fn, before, after)

    def counted(key):
        return lambda fn: trace.counter(key, fn)

    # weyl: enumeration and its disk cache, inverses, inversion sets
    patch("weyl", "enumerate_group", spanned(
        "weyl.enumerate", after=lambda g: trace.add("weyl.order", g.order)))
    patch("weyl", "_load_cache", spanned(
        "weyl.load_cache", after=lambda g: trace.add(
            "weyl.cache_misses" if g is None else "weyl.cache_hits")))
    method(weyl.WeylGroup, "inverse", spanned("weyl.inverse"))
    method(weyl.WeylGroup, "inversion_set", spanned("weyl.inversion_set"))
    method(weyl.WeylGroup, "min_coset_reps", spanned("weyl.min_coset_reps"))
    method(rootsystem.RootSystem, "fund_to_root",
           counted("rootsystem.fund_to_root.calls"))

    # verify: the exhaustive searches and the consistency suite
    def hits(out):
        trace.add("verify.search.hits", len(out[0] or ()))
    for fn in ("search_sum_dot", "search_levi_weights",
               "search_dot_collisions"):
        patch("verify", fn, spanned("verify.search", after=hits))
    patch("verify", "consistency_suite", spanned("verify.suite"))

    # koszul: CE complex, cochain cup products, the oracle
    method(koszul.CEComplex, "__init__", spanned("koszul.cecomplex"))
    method(koszul.CEComplex, "d_matrix", spanned("koszul.d_matrix"))
    patch("koszul", "cochain_cup", spanned("koszul.cochain_cup"))
    patch("koszul", "oracle_cohomology", spanned("koszul.oracle"))

    # linalg: calls into the layer from other layers, with matrix sizes
    def fp_cells(rows, *args, **kwargs):
        n = _cells(rows)
        trace.add("linalg.fp.cells", n)
        trace.peak("linalg.fp.max_cells", n)

    def q_cells(rows, *args, **kwargs):
        trace.add("linalg.q.cells", _cells(rows))
    for fn in ("rank_mod_p", "rref_mod_p", "nullspace_mod_p", "solve_mod_p"):
        patch("linalg", fn, spanned("linalg.fp", before=fp_cells), home=False)
    for fn in ("rank_frac", "solve_frac"):
        patch("linalg", fn, spanned("linalg.q", before=q_cells), home=False)

    # restricted: algebra, minimal resolution, Yoneda products
    patch("restricted", "build_algebra", spanned(
        "restricted.algebra",
        after=lambda alg: trace.add("restricted.algebra_dim", alg.dimension)))
    patch("restricted", "ext_dims", spanned(
        "restricted.resolution",
        after=lambda out: trace.add("restricted.generators",
                                    sum(out[1].betti()))))
    patch("restricted", "yoneda_product", spanned("restricted.yoneda"))

    # ring: laws, both product paths, the product cache
    patch("ring", "check_ring_laws", spanned("ring.laws"))
    patch("ring", "nil_product", spanned("ring.nil_product"))
    patch("ring", "quantum_nil_product", spanned("ring.quantum_nil_product"))
    method(ring.CohomologyRing, "table_rows", spanned("ring.table"))
    method(ring.CohomologyRing, "multiply_classes",
           counted("ring.multiply_classes.calls"))
    method(ring.CohomologyRing, "_multiply_classes",
           counted("ring.products_computed"))

    # characters and kostant
    patch("characters", "levi_simple_character", spanned("characters.levi"))
    patch("kostant", "kostant_decomposition", spanned("kostant.decomposition"))

    # cli: payload output
    patch("cli", "_emit", spanned("cli.emit"))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, job_argv = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import nilcoh.cli
    trace = Trace()
    trace.add("cli.import_s", time.perf_counter() - t0)
    install(trace)
    job = trace.span("cli.job", nilcoh.cli.main)
    try:
        rc = job(job_argv)
    finally:
        sys.stdout.flush()
        out_path.write_text(json.dumps(
            {"spans": trace.spans, "counters": trace.counters}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
