import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh.alcoves import PreconditionError, weak_linkage
from nilcoh.characters import FormalCharacter, symmetric_character
from nilcoh.kostant import (frobenius_kernel_character, kostant_decomposition,
                            parabolic_character, t1_invariants)
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


def _setup(label):
    rs = build(label)
    return rs, enumerate_group(rs)


def test_a2_full_decomposition():
    rs, g = _setup("A2")
    kd = kostant_decomposition((0, 0), (), rs, g)
    assert kd.poincare() == [1, 2, 2, 1]
    weights = sorted(hw for _, deg, hw in kd.entries if deg == 1)
    # -alpha1 = (-2, 1), -alpha2 = (1, -2)
    assert weights == [(-2, 1), (1, -2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3"]), st.data())
def test_poincare_is_freudenthal_sum(label, data):
    """`poincare` takes each L_J(w.lam) dimension from Weyl's formula;
    `character` expands the same entries by Demazure's character formula,
    which replaced the Freudenthal recursion the name refers to."""
    rs, g = _setup(label)
    J = tuple(i for i in range(rs.rank) if data.draw(st.booleans()))
    lam = tuple(data.draw(st.integers(0, 3)) for _ in range(rs.rank))
    kd = kostant_decomposition(lam, J, rs, g)
    assert kd.poincare() == kd.character().dims()


def test_a2_parabolic_decomposition():
    rs, g = _setup("A2")
    kd = kostant_decomposition((0, 0), (0,), rs, g)
    hw = [(deg, w) for _, deg, w in sorted(kd.entries, key=lambda e: e[1])]
    assert hw == [(0, (0, 0)), (1, (1, -2)), (2, (0, -3))]


def test_modular_gate():
    rs, g = _setup("G2")  # h = 6
    with pytest.raises(PreconditionError):
        kostant_decomposition((0, 0), (), rs, g, "modular", 3)  # p < h-1
    with pytest.raises(PreconditionError, match="needs a prime p, got 9"):
        kostant_decomposition((0, 0), (), rs, g, "modular", 9)  # composite
    kd = kostant_decomposition((0, 0), (), rs, g, "modular", 7)
    assert kd.poincare() == [1, 2, 2, 2, 2, 2, 1]


def test_quantum_gate():
    rs, g = _setup("A2")
    with pytest.raises(PreconditionError):
        kostant_decomposition((0, 0), (), rs, g, "quantum", 4)  # even
    kd = kostant_decomposition((0, 0), (), rs, g, "quantum", 5)
    assert kd.poincare() == [1, 2, 2, 1]


def test_b2_frobenius_kernel_dims():
    rs, g = _setup("B2")
    bg = frobenius_kernel_character((0, 0), (), rs, g, "modular", 5, 4)
    assert bg.dims() == [1, 2, 6, 10, 19]


def test_frobenius_kernel_slab_structure():
    rs, g = _setup("B2")
    bg = frobenius_kernel_character((0, 0), (), rs, g, "modular", 5, 4)
    # degree-2 slabs: (1,0) symmetric part and (0,2) exterior part
    assert set(k for k in bg.slabs if 2 * k[0] + k[1] == 2) == {(1, 0), (0, 2)}
    assert bg.slabs[(1, 0)].dim() == 4  # dim u = 4, twisted weights -5*gamma
    assert bg.slabs[(0, 2)].dim() == 2


def test_frobenius_kernel_requires_interior():
    rs, g = _setup("A2")
    with pytest.raises(PreconditionError):
        frobenius_kernel_character((2, 1), (), rs, g, "modular", 5)


def test_t1_invariants_zero_weight():
    rs, g = _setup("A2")
    gc = t1_invariants((0, 0), 5, rs, g)
    assert gc.dims() == [1]
    assert gc[0].support == {(0, 0): 1}


def test_t1_invariants_b2_linked():
    rs, g = _setup("B2")
    d = weak_linkage((0, 1), 5, rs, g)
    gc = t1_invariants((0, 1), 5, rs, g)
    assert gc.dims()[: d.w.length] == [0] * d.w.length
    assert gc[d.w.length].dim() == 1
    winv = g.inverse(d.w)
    assert gc[d.w.length].support == {winv.act(d.sigma): 1}


def test_t1_invariants_unlinked_vanish():
    rs, g = _setup("A2")
    assert t1_invariants((1, 1), 5, rs, g).dims() == []


def test_parabolic_character_parity_and_slabs():
    rs, g = _setup("A2")
    gc = parabolic_character((0, 0), (), rs, g, "modular", 5, 6)
    for j in range(7):
        if j % 2 == 1:
            assert not gc[j]
        else:
            expect = symmetric_character(rs.positive_roots, j // 2, rs)
            assert gc[j] == expect


def test_parabolic_character_unlinked_zero():
    rs, g = _setup("A2")
    gc = parabolic_character((1, 1), (), rs, g, "modular", 5, 4)
    assert gc.dims() == [0] * 5


def test_quantum_equals_modular_at_7():
    rs, g = _setup("A2")
    km = kostant_decomposition((0, 0), (), rs, g, "modular", 7)
    kq = kostant_decomposition((0, 0), (), rs, g, "quantum", 7)
    assert km.entries == kq.entries
    fm = frobenius_kernel_character((0, 0), (), rs, g, "modular", 7, 4)
    fq = frobenius_kernel_character((0, 0), (), rs, g, "quantum", 7, 4)
    assert fm.collapse() == fq.collapse()
