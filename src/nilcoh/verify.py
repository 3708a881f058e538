"""Exhaustive searches over Weyl-group data with machine-checkable output.

Each search covers its entire declared domain with one collision rule
(`_hits`): the right-hand points are bucketed by their residue vector mod
the modulus, so only congruent points are compared; sigma is solved by
division, checked nonzero and in the lattice, and every hit is re-validated
by direct arithmetic.  Violations are listed in the order of the plain
nested loop over the domain.  Each result is wrapped in a certificate
carrying the conventions (Cartan data hash, positive-root order) that the
signs depend on.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from itertools import combinations

from . import __version__ as TOOL_VERSION
from .alcoves import (PreconditionError, RegimeError, admissibility,
                      require_prime, require_regime)
from .characters import levi_simple_character
from .kostant import frobenius_kernel_character, kostant_decomposition
from .koszul import cochain_cup, oracle_cohomology
from .restricted import BudgetError, build_algebra, ext_dims
from .ring import nil_product
from .rootsystem import RootSystem
from .weyl import WeylGroup


class Violation(namedtuple("Violation", "witnesses sigma modulus")):
    """witnesses: words or weights, JSON-ready."""
    __slots__ = ()

    def to_json(self):
        return {"witnesses": list(self.witnesses), "sigma": list(self.sigma),
                "modulus": self.modulus}


def _cartan_hash(rs: RootSystem) -> str:
    # imported here, its one use: hashlib loads OpenSSL's libcrypto (about
    # 3 MB of resident memory), which the commands that certify nothing by
    # hash, such as `ext`, need not pay for
    import hashlib
    payload = json.dumps({"cartan": rs.cartan,
                          "order": [list(g) for g in rs.positive_roots]},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _wrap(lemma: str, rs: RootSystem, modulus: int, domain: str,
          violations: list, t0: float) -> dict:
    return {
        "lemma": lemma,
        "type": rs.label,
        "modulus": modulus,
        "domain": domain,
        "violations": [v.to_json() for v in violations],
        "exhaustive": True,
        "elapsed_ms": int((time.time() - t0) * 1000),
        "tool_version": TOOL_VERSION,
        "cartan_hash": _cartan_hash(rs),
        "gamma_order": [list(g) for g in rs.positive_roots],
    }


def _word(w):
    return [i + 1 for i in w.word]


def _hits(left, right, modulus: int, in_lattice) -> list:
    """Every Violation(a + (b,), sigma, modulus) with x = y + modulus*sigma,
    sigma != 0 and in_lattice(sigma), for left points (a, x) and right
    points (b, y), in double-loop order (left outer, right inner).

    The right points are bucketed by their residue vector mod the modulus,
    so each left point meets only the points congruent to it."""
    buckets: dict[tuple, list] = {}
    for b, y in right:
        buckets.setdefault(tuple(c % modulus for c in y), []).append((b, y))
    out = []
    for a, x in left:
        for b, y in buckets.get(tuple(c % modulus for c in x), ()):
            sigma = tuple((u - v) // modulus for u, v in zip(x, y))
            if any(sigma) and in_lattice(sigma):
                # re-validate
                assert x == tuple(v + modulus * s for v, s in zip(y, sigma))
                out.append(Violation(a + (b,), sigma, modulus))
    return out


def _pair_sums(points):
    """((a, b), x + y) over ordered pairs of points, generated lazily."""
    for a, x in points:
        for b, y in points:
            yield (a, b), tuple(u + v for u, v in zip(x, y))


def _dot_points(rs: RootSystem, group: WeylGroup, lam: tuple) -> list:
    return [(_word(w), w.dot(lam, rs)) for w in group.elements]


def search_sum_dot(rs: RootSystem, group: WeylGroup, p: int):
    """All (w1, w2, w3) with w1.0 + w2.0 = w3.0 + p*sigma,
    sigma in ZPhi \\ {0}; exhaustive over W^3."""
    t0 = time.time()
    dots = _dot_points(rs, group, (0,) * rs.rank)
    violations = _hits(_pair_sums(dots), dots, p, rs.in_root_lattice)
    cert = _wrap("sum-dot", rs, p, "ZPhi", violations, t0)
    return violations, cert


def search_levi_weights(rs: RootSystem, group: WeylGroup, J, p: int):
    """All (mu1, mu2, mu3) with mu1 + mu2 = mu3 + p*sigma,
    sigma in ZPhi \\ {0}, mu_i in the support of L_J(w_i . 0), w_i in ^JW."""
    t0 = time.time()
    J = tuple(sorted(set(J)))
    zero = (0,) * rs.rank
    supports = set()
    for w in group.min_coset_reps(J):
        chi = levi_simple_character(w.dot(zero, rs), J, rs)
        supports.update(chi.support)
    weights = [(list(m), m) for m in sorted(supports)]
    violations = _hits(_pair_sums(weights), weights, p, rs.in_root_lattice)
    cert = _wrap("levi-weights", rs, p, "ZPhi", violations, t0)
    cert["J"] = list(J)
    return violations, cert


def search_dot_collisions(rs: RootSystem, group: WeylGroup, lam: tuple,
                          modulus: int, sigma_domain: str = "ZPhi",
                          quantum: bool = False):
    """All (w1, w2) with w1.lam = w2.lam + modulus*sigma, sigma != 0 in the
    chosen domain (root lattice or full weight lattice)."""
    if sigma_domain not in ("ZPhi", "X"):
        raise ValueError("sigma_domain must be 'ZPhi' or 'X'")
    t0 = time.time()
    if quantum:
        profile, passed = admissibility(modulus, rs, "weight-separation")
        if not passed:
            cert = _wrap("dot-collisions", rs, modulus, sigma_domain, [], t0)
            cert["gate"] = {"context": "weight-separation", "passed": False,
                            "flags": profile.flags()}
            cert["exhaustive"] = False
            return None, cert
    dots = _dot_points(rs, group, lam)
    in_lattice = rs.in_root_lattice if sigma_domain == "ZPhi" else \
        (lambda sigma: True)
    violations = _hits((((a,), x) for a, x in dots), dots, modulus,
                       in_lattice)
    cert = _wrap("dot-collisions", rs, modulus, sigma_domain, violations, t0)
    cert["lambda"] = list(lam)
    return violations, cert


def consistency_suite(rs: RootSystem, group: WeylGroup, p: int) -> dict:
    """Cross-module checks at one (type, modulus); pass/fail with diffs."""
    require_prime(p, "the consistency suite")
    t0 = time.time()
    report = {"type": rs.label, "modulus": p, "checks": [], "pass": True}

    def record(name, ok, detail=None):
        entry = {"name": name, "pass": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        report["checks"].append(entry)
        if not ok:
            report["pass"] = False

    # kostant vs oracle, every J
    zero = (0,) * rs.rank
    for size in range(rs.rank + 1):
        for J in combinations(range(rs.rank), size):
            try:
                kd = kostant_decomposition(zero, J, rs, group,
                                           "modular", p).character()
            except PreconditionError as exc:
                record(f"kostant-vs-oracle J={list(J)}", True,
                       f"skipped: {exc}")
                continue
            oc = oracle_cohomology(J, rs, field="Fp", p=p)
            record(f"kostant-vs-oracle J={list(J)}", kd == oc)

    # ring signs vs cochain cup, all pairs
    ok = True
    bad = []
    for w1 in group.elements:
        for w2 in group.elements:
            res = nil_product(w1, w2, rs, group)
            cup = cochain_cup(w1, w2, group, rs, field="Q")
            if res is None:
                good = not cup
            else:
                sgn, w = res
                good = len(cup) == 1 and cup.get(w) == sgn
            if not good:
                ok = False
                bad.append((_word(w1), _word(w2)))
    record("nil-product-vs-cochain-cup", ok, bad or None)

    # ring identity applicability note
    try:
        require_regime("modular", p, rs, "ring")
    except RegimeError as exc:
        record("ring-identity", True, f"skipped: p={p} <= 2(h-1)={exc.bound},"
               " identity not asserted")

    # ext dims vs bigraded character (small cases only)
    try:
        require_regime("modular", p, rs, "ext")
        alg = build_algebra((), p, rs)
        gc, _ = ext_dims(alg, 4)
        fk = frobenius_kernel_character(zero, (), rs, group,
                                        "modular", p, 4).collapse()
        record("ext-vs-bigraded-character", gc == fk,
               {"ext": gc.dims(), "predicted": fk.dims()})
    except RegimeError as exc:
        record("ext-vs-bigraded-character", True,
               f"skipped: p={p} <= h={exc.bound}")
    except BudgetError as exc:
        record("ext-vs-bigraded-character", True, f"skipped: {exc}")

    report["elapsed_ms"] = int((time.time() - t0) * 1000)
    report["tool_version"] = TOOL_VERSION
    report["cartan_hash"] = _cartan_hash(rs)
    return report
