from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh.characters import (FormalCharacter, GradedCharacter,
                               euler_induction, format_poincare,
                               frobenius_twist, levi_simple_character,
                               symmetric_character, weyl_dimension_levi)
from nilcoh.rootsystem import build


def test_formal_character_arithmetic():
    a = FormalCharacter({(1, 0): 2})
    b = FormalCharacter({(0, 1): 1, (1, 0): -2})
    assert (a + b).support == {(0, 1): 1}
    assert (a * b).support == {(1, 1): 2, (2, 0): -4}
    assert a.scale(3).dim() == 6
    assert a.to_json() == [[[1, 0], 2]]


def test_levi_simple_dims_match_weyl_formula():
    cases = [("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 3)),
             ("B2", (1, 1)), ("B2", (0, 2)), ("G2", (1, 0)), ("G2", (0, 1))]
    for label, mu in cases:
        rs = build(label)
        full = tuple(range(rs.rank))
        chi = levi_simple_character(mu, full, rs)
        assert chi.dim() == weyl_dimension_levi(mu, full, rs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3"]), st.data())
def test_levi_dims_are_weyl_dims(label, data):
    """Freudenthal's character and Weyl's dimension formula agree on every
    Levi and every J-dominant weight."""
    rs = build(label)
    J = tuple(i for i in range(rs.rank) if data.draw(st.booleans()))
    mu = tuple(data.draw(st.integers(0 if i in J else -4, 4))
               for i in range(rs.rank))
    assert levi_simple_character(mu, J, rs).dim() == \
        weyl_dimension_levi(mu, J, rs)


def test_a2_adjoint_zero_weight():
    rs = build("A2")
    chi = levi_simple_character((1, 1), (0, 1), rs)
    assert chi.dim() == 8
    assert chi.support[(0, 0)] == 2


def test_torus_levi_is_single_weight():
    rs = build("B2")
    chi = levi_simple_character((3, -2), (), rs)
    assert chi.support == {(3, -2): 1}


def test_proper_levi_character():
    rs = build("A2")
    chi = levi_simple_character((1, 0), (0,), rs)  # A1-Levi 2-dimensional
    assert chi.dim() == 2
    assert set(chi.support) == {(1, 0), (-1, 1)}


def test_euler_induction_dominant_and_singular():
    rs = build("A2")
    # J-dominant weight: identity correction
    chi = euler_induction(FormalCharacter.single((1, 0)), (0,), rs)
    assert chi == levi_simple_character((1, 0), (0,), rs)
    # dot-singular weight vanishes
    assert not euler_induction(FormalCharacter.single((-1, 3)), (0,), rs)
    # negative chamber: one reflection, sign -1
    chi = euler_induction(FormalCharacter.single((-3, 1)), (0,), rs)
    neg = levi_simple_character((1, -1), (0,), rs).scale(-1)
    assert chi == neg


def test_symmetric_character_dims():
    rs = build("B2")
    roots = rs.positive_roots
    assert symmetric_character(roots, 0, rs).dim() == 1
    assert symmetric_character(roots, 2, rs).dim() == 10
    # weights are negated sums of roots
    chi = symmetric_character(roots, 1, rs)
    assert all(any(c < 0 for c in mu) for mu in chi.support)


def test_frobenius_twist():
    chi = FormalCharacter({(1, -1): 2})
    assert frobenius_twist(chi, 5).support == {(5, -5): 2}


def test_graded_character_and_poincare():
    gc = GradedCharacter()
    gc.set_degree(0, FormalCharacter.single((0, 0)))
    gc.set_degree(2, FormalCharacter({(0, 0): 2}))
    assert gc.dims() == [1, 0, 2]
    assert format_poincare(gc.dims()) == "1 + 2t^2"
    assert format_poincare([1, 2, 2, 1]) == "1 + 2t + 2t^2 + t^3"
