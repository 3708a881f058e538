"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value here is either a fixed combinatorial fact of the
pinned conventions or was independently cross-checked by a second code
path (brute-force cohomology oracle, minimal-resolution Ext computation).
"""

import time
from itertools import combinations, product

import pytest

from nilcoh.alcoves import admissibility, in_alcove, weak_linkage
from nilcoh.characters import FormalCharacter, symmetric_character
from nilcoh.kostant import (frobenius_kernel_character, kostant_decomposition,
                            parabolic_character, t1_invariants)
from nilcoh.koszul import cochain_cup, oracle_cohomology
from nilcoh.restricted import square_certificate
from nilcoh.ring import (CohomologyRing, check_ring_laws, mask_scalar,
                         nil_product, quantum_nil_product,
                         quantum_straighten)
from nilcoh.rootsystem import build
from nilcoh.verify import search_dot_collisions, search_sum_dot
from nilcoh.weyl import enumerate_group


def _report(name, ok, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s budget"


def test_criterion_1_kostant_vs_oracle():
    t0 = time.time()
    ok = True
    for label, p in (("A2", 5), ("A3", 5), ("B2", 5), ("G2", 7)):
        rs = build(label)
        g = enumerate_group(rs)
        for size in range(rs.rank + 1):
            for J in combinations(range(rs.rank), size):
                kd = kostant_decomposition(
                    (0,) * rs.rank, J, rs, g, "modular", p).character()
                oc = oracle_cohomology(J, rs, field="Fp", p=p)
                if kd != oc:
                    ok = False
    _report("criterion 1: Kostant equals brute-force oracle", ok, t0, 60)


def test_criterion_2_sum_dot_sharpness():
    t0 = time.time()
    ok = True
    for label, p in (("A2", 5), ("A3", 7), ("B2", 7), ("G2", 13)):
        rs = build(label)
        g = enumerate_group(rs)
        if search_sum_dot(rs, g, p)[0]:
            ok = False
    rs = build("B2")
    g = enumerate_group(rs)
    violations, _ = search_sum_dot(rs, g, 5)
    witness = any(v.witnesses == ([2, 1], [2, 1], [1, 2])
                  and v.sigma == (1, -2) for v in violations)
    ok = ok and bool(violations) and witness
    _report("criterion 2: sum-dot searches empty above bound,"
            " B2/p=5 witness found", ok, t0, 5)


def test_criterion_3_dot_collisions():
    t0 = time.time()
    ok = True
    for label in ("A2", "B2"):
        rs = build(label)
        g = enumerate_group(rs)
        for p in (5, 7):
            # dominant weights of the open bottom alcove: each
            # coordinate is below p
            for lam in product(range(p), repeat=rs.rank):
                if in_alcove(lam, p, rs, closed=False) and \
                        search_dot_collisions(rs, g, lam, p, "ZPhi")[0]:
                    ok = False
    rs = build("A2")
    g = enumerate_group(rs)
    violations, _ = search_dot_collisions(rs, g, (2, 1), 5, "ZPhi")
    boundary = any(v.witnesses == ([1, 2, 1], []) and v.sigma == (-1, -1)
                   for v in violations)
    _report("criterion 3: no interior dot-collisions; boundary violation"
            " found", ok and boundary, t0, 10)


def test_criterion_4_bigraded_character():
    t0 = time.time()
    rs = build("B2")
    g = enumerate_group(rs)
    bg = frobenius_kernel_character((0, 0), (), rs, g, "modular", 5, 4)
    ok = bg.dims() == [1, 2, 6, 10, 19]
    _report("criterion 4: B2 Frobenius-kernel dims 1,2,6,10,19", ok, t0, 1)


def test_criterion_5_restricted_ext(b2_p5):
    t0 = time.time()
    rs, g, _, gc, res = b2_p5
    fk = frobenius_kernel_character((0, 0), (), rs, g, "modular", 5, 4)
    ok = gc.dims() == [1, 2, 6, 10, 19] and gc == fk.collapse()
    sb_sa = g.multiply(g.simple[1], g.simple[0])
    cert = square_certificate(res, 2, sb_sa.dot((0, 0), rs))
    ok = ok and cert["nonzero"] is True
    _report("criterion 5: restricted Ext reproduces dims/weights and"
            " z^2 != 0", ok, t0, 600)


def test_criterion_6_ring_laws():
    t0 = time.time()
    ok = True
    for label, p in (("A2", 7), ("B2", 11), ("A3", 11)):
        rs = build(label)
        g = enumerate_group(rs)
        ring = CohomologyRing(rs, g, (), "classical", p)
        if not all(check_ring_laws(ring).values()):
            ok = False
        for w1 in g.elements:
            for w2 in g.elements:
                res = nil_product(w1, w2, rs, g)
                cup = cochain_cup(w1, w2, g, rs, field="Q")
                if res is None:
                    good = not cup
                else:
                    good = len(cup) == 1 and cup.get(res[1]) == res[0]
                if not good:
                    ok = False
    for label in ("A2", "B2"):
        rs = build(label)
        g = enumerate_group(rs)
        n = len(rs.positive_roots)
        for ell in (5, 7):
            # the relation x_j x_i = c x_i x_j by adjacent swaps and by the
            # mask rule
            for j in range(n):
                for i in range(j):
                    if quantum_straighten((j, i), rs, ell) != \
                            (mask_scalar(1 << j, 1 << i, rs, ell), (i, j)):
                        ok = False
            for w1 in g.elements:
                for w2 in g.elements:
                    q = quantum_nil_product(w1, w2, rs, g, ell)
                    c = nil_product(w1, w2, rs, g)
                    if (q is None) != (c is None):
                        ok = False
                    elif q is not None and (q[0].sign != c[0]
                                            or q[1] != c[1]):
                        ok = False
    _report("criterion 6: classical/quantum ring laws and sign"
            " consistency", ok, t0, 30)


def test_criterion_7_parabolic_consistency():
    t0 = time.time()
    ok = True
    for label in ("A1", "A2"):
        rs = build(label)
        g = enumerate_group(rs)
        p = 5
        box = [()]
        for _ in range(rs.rank):
            box = [b + (c,) for b in box for c in range(p)]
        from nilcoh.alcoves import in_alcove
        for lam in box:
            if not in_alcove(lam, p, rs, closed=True):
                continue
            datum = weak_linkage(lam, p, rs, g)
            if datum is None:
                continue
            gc = parabolic_character(lam, (), rs, g, "modular", p, 6)
            winv = g.inverse(datum.w)
            wsigma = winv.act(datum.sigma)
            lw = datum.w.length
            for j in range(7):
                if (j - lw) % 2 or j < lw:
                    if gc[j]:
                        ok = False
                    continue
                expect = symmetric_character(
                    rs.positive_roots, (j - lw) // 2, rs) * \
                    FormalCharacter.single(wsigma)
                if gc[j] != expect:
                    ok = False
            ti = t1_invariants(lam, p, rs, g)
            for j in range(len(ti)):
                if j == lw:
                    if ti[j].support != {wsigma: 1}:
                        ok = False
                elif ti[j]:
                    ok = False
    _report("criterion 7: parabolic characters and torus-kernel"
            " invariants consistent (A1, A2, p=5)", ok, t0, 10)


def test_criterion_8_quantum_modular_agreement_and_gates():
    t0 = time.time()
    rs = build("A2")
    g = enumerate_group(rs)
    km = kostant_decomposition((0, 0), (), rs, g, "modular", 7)
    kq = kostant_decomposition((0, 0), (), rs, g, "quantum", 7)
    ok = km.entries == kq.entries and km.character() == kq.character()
    fm = frobenius_kernel_character((0, 0), (), rs, g, "modular", 7, 4)
    fq = frobenius_kernel_character((0, 0), (), rs, g, "quantum", 7, 4)
    ok = ok and fm.collapse() == fq.collapse() and fm.slabs == fq.slabs
    ok = ok and not admissibility(9, build("A2"), "weight-separation")[1]
    ok = ok and not admissibility(9, build("G2"), "base")[1]
    _report("criterion 8: quantum/modular agreement at modulus 7;"
            " admissibility gates reject A2 and G2 at 9", ok, t0, 5)
