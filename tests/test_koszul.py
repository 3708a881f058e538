import hashlib
from itertools import combinations

import pytest

from nilcoh import BudgetError, koszul
from nilcoh.alcoves import PreconditionError
from nilcoh.koszul import (CEComplex, chevalley_constants, cochain_cup,
                           oracle_cohomology)
from nilcoh.kostant import kostant_decomposition
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group

from conftest import times


def test_constants_a2():
    rs = build("A2")
    n = dict(chevalley_constants(rs.label))
    # single decomposable pair alpha1 + alpha2 with N = +1
    assert n == {(0, 2): 1}


def test_constants_b2_magnitude():
    rs = build("B2")
    n = dict(chevalley_constants(rs.label))
    mags = sorted(abs(v) for v in n.values())
    assert mags == [1, 2]  # |N_{beta, alpha+beta}| = 2 from the root string


def test_constants_antisymmetry_and_magnitude_rule():
    for label in ("A3", "B3", "G2", "E7"):
        rs = build(label)
        pos = rs.positive_roots
        allroots = set(pos) | {tuple(-c for c in g) for g in pos}
        for (i, j), val in chevalley_constants(rs.label):
            q = 0
            cur = tuple(a - b for a, b in zip(pos[j], pos[i]))
            while cur in allroots:
                q += 1
                cur = tuple(a - b for a, b in zip(cur, pos[i]))
            assert abs(val) == q + 1


@pytest.mark.parametrize("label", ["B3", "G2", "F4", "E7"])
def test_constants_satisfy_jacobi(label):
    # sum over cyclic (x, y, z) of N_xy N_(x+y)z = 0 on every triple of
    # positive roots, read from the returned dict alone
    rs = build(label)
    pos = rs.positive_roots
    index = {g: k for k, g in enumerate(pos)}
    n = dict(chevalley_constants(rs.label))

    def bracket(x, y):
        """(N_xy, index of gamma_x + gamma_y), or (0, None)."""
        k = index.get(tuple(a + b for a, b in zip(pos[x], pos[y])))
        if k is None:
            return 0, None
        return (n[x, y] if x < y else -n[y, x]), k

    checked = 0
    for a, b, c in combinations(range(len(pos)), 3):
        total = 0
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            nxy, s = bracket(x, y)
            if nxy:
                total += nxy * bracket(s, z)[0]
                checked += 1
        assert total == 0, (label, a, b, c)
    assert checked


# sha256 of repr(sorted(dict(chevalley_constants(label)).items())), as
# computed by the backtracking sign search that the forward solve replaced
PINNED_CONSTANTS = {
    "A1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "A2": "5ee0be2cce67b788cbac3ddaa5de24c2f07489ff31c7dbb45247bfd33c9acd44",
    "A3": "e707022f8fa64170dad5149673ed9eda089d332054a097df5e03489547cc6dd3",
    "A4": "97247d7ef679b037d57b8aec7e6a3c58bf6e41480750d10faa7bf66db5d61942",
    "A5": "643fb594566206a0ae1303bcbbc3ac638eb682c92e312bac408f90237f39ff1c",
    "A6": "a74304bbd48abfd4e8aea9488fbb12d339c0660636ebe577bb2206866092fb8f",
    "A8": "ad5450a6bee4863e45098b7f5023d223e7b30f722d3f2e67e0ddc5c8ffba8b4d",
    "B2": "cd447cfe691f6f8f2ad8466efcc20f66eacd1e38f2b8a4149e997a203aca0b93",
    "B3": "e5680ce5387150382f3d6894e24c062272c7b5d68a6d6ce041173af5d228143c",
    "B4": "a3afb1593d7ef9078b27b447ec045d29a6fc963b7d00b7a1d7c5b8fed35004aa",
    "B5": "b7929fa64d5aab727abc722dc79a8390c57d5b6bb822c138907a4f32d2a49aa9",
    "B7": "b9b391489482c32283536e26ad953a3092fe35bb7ea794d3ac1a204593c4c204",
    "C3": "8f4b672c3aad3546759d27ef434be28d83c224b52ee5a6cd972bbb93dd909855",
    "C4": "af8c95be314e7680a95343ae90c8771a2b92ca07cc27ac781b6908b094b305a8",
    "C5": "ade4705b4d1436d5e5e27566a07782780a2a13633f124d795946908a4f9fb422",
    "C7": "17315ac90c336c5c9270500c00481917b71323757cdc77979c3ecae6efdba8d6",
    "D4": "2a498bd914f004c2e352749c0dfeefab6f94042aedafa0d1b1a93b302cd1117e",
    "D5": "12f5e24893b71ec2fe7822737e43572311c26ffea89b1e601da044ba03d47901",
    "D6": "08fb4c89f55a3ba1cdac063e53896c7d092f594e5b81e6881372cdf44e162e04",
    "D8": "e5e3612aeb8b3a8021b23dddc55e9336bd3da9015ef4105f422ad345cadbfca7",
    "E6": "e5c59f7d0f5f6ebed3914ae8b18709271066881622f0b175d270b3f12963c228",
    "F4": "c2c96141561a86ec9e0ce0c7eb560e67433970942beb7c58993ca59a29ea4fcc",
    "G2": "16f92a0d6cbcee39f16e47c1dcbda0be1127835123e72701e67d1287a83450b0",
}


def test_constants_match_pinned_hashes():
    got = {label: hashlib.sha256(repr(sorted(
        dict(chevalley_constants(label)).items())).encode()).hexdigest()
        for label in PINNED_CONSTANTS}
    assert got == PINNED_CONSTANTS


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
        cochain_cup(times(g, 0), times(g, 1), g, rs, field="Fp", p=9)
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
    s1, s2 = times(g, 0), times(g, 1)
    assert cochain_cup(g.identity, s1, g, rs) == {s1: 1}
    assert cochain_cup(s1, s2, g, rs) == {}  # lands in coboundaries
    assert cochain_cup(s1, s1, g, rs) == {}  # overlapping inversion sets


def test_cochain_cup_top_class_sign():
    rs = build("A2")
    g = enumerate_group(rs)
    s1, s2 = times(g, 0), times(g, 1)
    s2s1 = times(g, 1, 0)
    res = cochain_cup(s1, s2s1, g, rs)
    assert res == {g.longest: 1}
    # graded commutativity: degree 1 x degree 2 commutes
    assert cochain_cup(s2s1, s1, g, rs) == {g.longest: 1}


def test_cocycles_are_cocycles():
    # every f_{Phi(w)} is killed by the differential
    for label in ("A2", "B2"):
        rs = build(label)
        g = enumerate_group(rs)
        ce = CEComplex((), rs)  # its roots are rs.positive_roots, in order
        for w in g.elements:
            subset = tuple(sorted(rs.pos_index[gam]
                                  for gam in g.inversion_set(w)))
            assert ce.d_basis_element(subset) == {}


def test_oracle_budget():
    rs = build("E6")
    with pytest.raises(BudgetError, match="oracle supports at most 14"):
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
