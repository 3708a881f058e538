from itertools import combinations

import pytest

from nilcoh import koszul
from nilcoh.alcoves import PreconditionError
from nilcoh.koszul import (CEComplex, OracleBudgetError, chevalley_constants,
                           cochain_cup, oracle_cohomology)
from nilcoh.kostant import kostant_decomposition
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


def test_constants_a2():
    rs = build("A2")
    n = chevalley_constants(rs)
    # single decomposable pair alpha1 + alpha2 with N = +1
    assert n == {(0, 2): 1}


def test_constants_b2_magnitude():
    rs = build("B2")
    n = chevalley_constants(rs)
    mags = sorted(abs(v) for v in n.values())
    assert mags == [1, 2]  # |N_{beta, alpha+beta}| = 2 from the root string


def test_constants_antisymmetry_and_magnitude_rule():
    for label in ("A3", "B3", "G2"):
        rs = build(label)
        pos = rs.positive_roots
        allroots = set(pos) | {tuple(-c for c in g) for g in pos}
        for (i, j), val in chevalley_constants(rs).items():
            q = 0
            cur = tuple(a - b for a, b in zip(pos[j], pos[i]))
            while cur in allroots:
                q += 1
                cur = tuple(a - b for a, b in zip(cur, pos[i]))
            assert abs(val) == q + 1


def test_ce_complex_d_generator():
    rs = build("A2")
    ce = CEComplex((), rs)
    # d f_{alpha1+alpha2} = -N * f_{alpha1} ^ f_{alpha2}
    assert ce.d_generator(1) == {(0, 2): -1}
    assert ce.d_generator(0) == {}  # simple roots are cocycles


def test_d_squared_check_catches_a_wrong_constant(monkeypatch):
    # A3 has one Jacobi relation and each of its four constants enters it,
    # so flipping any one sign makes d o d nonzero
    original = koszul.nilradical_constants

    def flipped(rs, roots):
        out = original(rs, roots)
        ab = next(iter(out))
        k, val = out[ab]
        out[ab] = (k, -val)
        return out

    CEComplex((), build("A3"))
    monkeypatch.setattr(koszul, "nilradical_constants", flipped)
    with pytest.raises(AssertionError, match=r"d\^2 != 0"):
        CEComplex((), build("A3"))


def test_top_degree_differential_zero():
    rs = build("B2")
    ce = CEComplex((), rs)
    m, dom, cod = ce.d_matrix(len(ce.roots))
    assert cod == []


def test_oracle_matches_kostant_fp_and_q():
    for label, p in (("A2", 5), ("B2", 5), ("G2", 7)):
        rs = build(label)
        g = enumerate_group(rs)
        for size in range(rs.rank + 1):
            for J in combinations(range(rs.rank), size):
                kd = kostant_decomposition((0,) * rs.rank, J, rs, g).character()
                assert oracle_cohomology(J, rs, "Fp", p) == kd
                assert oracle_cohomology(J, rs, "Q") == kd


def test_fp_entry_points_reject_composite_p():
    rs = build("A2")
    g = enumerate_group(rs)
    with pytest.raises(PreconditionError):
        oracle_cohomology((), rs, "Fp", 6)
    with pytest.raises(PreconditionError):
        cochain_cup(g.simple[0], g.simple[1], g, rs, field="Fp", p=9)
    for w1 in g.elements:
        for w2 in g.elements:
            over_q = cochain_cup(w1, w2, g, rs, field="Q")
            over_fp = cochain_cup(w1, w2, g, rs, field="Fp", p=7)
            assert over_fp == {w: int(c) % 7 for w, c in over_q.items()}


def test_oracle_euler_characteristic():
    rs = build("B2")
    gc = oracle_cohomology((), rs, "Q")
    from math import comb
    n = len(rs.positive_roots)
    assert sum((-1) ** k * gc[k].dim() for k in range(n + 1)) == \
        sum((-1) ** k * comb(n, k) for k in range(n + 1))


def test_cochain_cup_identity_and_vanishing():
    rs = build("A2")
    g = enumerate_group(rs)
    s1, s2 = g.simple
    assert cochain_cup(g.identity, s1, g, rs) == {s1: 1}
    assert cochain_cup(s1, s2, g, rs) == {}  # lands in coboundaries
    assert cochain_cup(s1, s1, g, rs) == {}  # overlapping inversion sets


def test_cochain_cup_top_class_sign():
    rs = build("A2")
    g = enumerate_group(rs)
    s1, s2 = g.simple
    s2s1 = g.multiply(s2, s1)
    res = cochain_cup(s1, s2s1, g, rs)
    assert res == {g.longest: 1}
    # graded commutativity: degree 1 x degree 2 commutes
    assert cochain_cup(s2s1, s1, g, rs) == {g.longest: 1}


def test_cocycles_are_cocycles():
    # every f_{Phi(w)} is killed by the differential
    for label in ("A2", "B2"):
        rs = build(label)
        g = enumerate_group(rs)
        ce = CEComplex((), rs)
        for w in g.elements:
            subset = tuple(sorted(ce.index[gam]
                                  for gam in g.inversion_set(w)))
            assert ce.d_basis_element(subset) == {}


def test_oracle_budget():
    rs = build("E6")
    with pytest.raises(OracleBudgetError):
        oracle_cohomology((), rs, "Q")


def test_differential_and_blocks_are_memoised_per_complex():
    rs = build("B2")
    ce = CEComplex((), rs)
    for deg in range(len(ce.roots) + 1):
        assert ce.blocks_by_weight(deg) is ce.blocks_by_weight(deg)
        assert sorted(s for block in ce.blocks_by_weight(deg).values()
                      for s in block) == ce.basis(deg)
        for s in ce.basis(deg):
            d = ce.d_basis_element(s)
            assert d is ce.d_basis_element(s)
            assert d == ce._d_of(s)


def test_repeated_oracle_and_cup_calls_agree():
    """Memoised differentials are shared by every call on one complex:
    no caller may change them, so a second pass (after passes over the
    other field) gives the same answers as the first, and as a complex
    built afresh."""
    rs = build("A3")
    g = enumerate_group(rs)
    pairs = [(w1, w2) for w1 in g.elements for w2 in g.elements]

    def cups(field, p=None):
        return [cochain_cup(w1, w2, g, rs, field, p) for w1, w2 in pairs]

    koszul._full_complex.cache_clear()
    first = {"Q": cups("Q"), "Fp": cups("Fp", 7)}
    assert cups("Q") == first["Q"] and cups("Fp", 7) == first["Fp"]
    koszul._full_complex.cache_clear()
    assert cups("Fp", 7) == first["Fp"] and cups("Q") == first["Q"]
    oracle = oracle_cohomology((), rs, "Fp", 7)
    assert oracle_cohomology((), rs, "Q") == oracle
    assert oracle_cohomology((), rs, "Fp", 7) == oracle
