import hashlib
import json

import pytest
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
    """Demazure's character and Weyl's dimension formula agree on every
    Levi and every J-dominant weight."""
    rs = build(label)
    J = tuple(i for i in range(rs.rank) if data.draw(st.booleans()))
    mu = tuple(data.draw(st.integers(0 if i in J else -4, 4))
               for i in range(rs.rank))
    assert levi_simple_character(mu, J, rs).dim() == \
        weyl_dimension_levi(mu, J, rs)


# (type, J, weights): connected, disconnected, full-rank and torus Levis.
# The hash was taken from the characters of Freudenthal's recursion, which
# computed them before Demazure's formula did.
LEVI_PINS = (
    ("A1", (0,), [(5,), (2,), (6,), (0,), (1,)]),
    ("A2", (0,), [(0, -1), (0, 1), (1, -3), (0, 0), (3, -3)]),
    ("A2", (0, 1), [(1, 0), (3, 0), (0, 1), (0, 3), (2, 3)]),
    ("A3", (0, 2), [(1, 1, 0), (2, 1, 1), (0, 1, 1), (2, -3, 0), (3, 2, 3)]),
    ("A3", (0, 1, 2), [(2, 3, 3), (2, 2, 1), (1, 1, 0), (2, 3, 2), (3, 2, 0)]),
    ("A4", (0, 1, 3), [(0, 2, 0, 0), (1, 0, 0, 1), (0, 2, -3, 2),
                       (2, 1, -1, 2), (1, 2, 0, 2)]),
    ("A4", (0, 3), [(1, -3, 3, 0), (1, 0, 2, 2), (0, -3, 2, 2), (1, 2, 1, 2),
                    (1, -1, 2, 1)]),
    ("B2", (1,), [(2, 2), (-3, 3), (-1, 1), (1, 0), (0, 0)]),
    ("B2", (0, 1), [(1, 2), (1, 1), (3, 3), (3, 0), (1, 3)]),
    ("B3", (0, 2), [(3, 1, 2), (1, 3, 3), (2, 2, 3), (1, -2, 0), (1, -2, 1)]),
    ("B3", (0, 1, 2), [(1, 0, 3), (1, 2, 2), (0, 1, 3), (2, 2, 1), (0, 3, 3)]),
    ("C3", (0, 2), [(3, 0, 3), (0, 0, 3), (0, -2, 0), (1, 0, 1), (0, -1, 0)]),
    ("C3", (1, 2), [(-3, 0, 1), (1, 0, 2), (1, 0, 0), (3, 1, 3), (-2, 2, 2)]),
    ("C4", (0, 2, 3), [(2, -1, 1, 0), (0, 3, 1, 1), (1, 0, 1, 0),
                       (0, -3, 2, 1), (2, -1, 1, 2)]),
    ("D4", (0, 2, 3), [(0, 1, 0, 0), (2, -1, 0, 2), (2, -3, 2, 1),
                       (2, 3, 0, 2), (1, 1, 1, 0)]),
    ("D4", (0, 1, 2, 3), [(1, 0, 1, 0), (0, 0, 1, 0), (0, 1, 1, 0),
                          (1, 0, 0, 0), (0, 1, 0, 1)]),
    ("D5", (0, 3, 4), [(0, 0, 1, 2, 0), (1, 2, -1, 2, 0), (2, -3, 0, 2, 0),
                       (1, -2, 0, 2, 1), (0, 3, 2, 1, 1)]),
    ("G2", (0,), [(3, 2), (0, 2), (1, -2), (1, -3), (1, 1)]),
    ("G2", (0, 1), [(3, 1), (3, 2), (1, 1), (0, 0), (0, 1)]),
    ("F4", (0, 3), [(1, 3, -2, 0), (0, -1, -2, 1), (2, -2, 3, 2),
                    (1, -1, 1, 1), (0, -3, 2, 1)]),
    ("F4", (0, 1, 2, 3), [(1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1),
                          (0, 0, 1, 1), (0, 0, 0, 0)]),
    ("E6", (0, 2, 5), [(1, -3, 0, 1, 0, 2), (0, 3, 0, 0, -1, 2),
                       (2, 1, 2, -2, 2, 1), (1, 1, 2, 3, 0, 2),
                       (0, 2, 2, -1, 1, 0)]),
    ("B3", (), [(3, 0, -2), (0, -3, 0), (0, -1, -3)]),
)
LEVI_PINS_SHA256 = (
    "685b0b87baa67fa301d8660df0bf3b3886e0ed36b78dc1163909d2ff034f0d46")


def test_levi_characters_match_pinned_hash():
    rows = [[label, list(J), list(mu),
             levi_simple_character(mu, J, build(label)).to_json()]
            for label, J, mus in LEVI_PINS for mu in mus]
    assert len(rows) == 113
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == LEVI_PINS_SHA256


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3"]), st.data())
def test_levi_character_invariants(label, data):
    """Checks that use no character algorithm: positive multiplicities,
    W_J-invariance, mu of multiplicity one, and mu - nu a nonnegative
    integer combination of the J simple roots for every weight nu."""
    rs = build(label)
    J = tuple(i for i in range(rs.rank) if data.draw(st.booleans()))
    mu = tuple(data.draw(st.integers(0 if i in J else -4, 3))
               for i in range(rs.rank))
    chi = levi_simple_character(mu, J, rs).support
    assert chi[mu] == 1
    for nu, m in chi.items():
        assert m > 0
        assert all(chi.get(rs.reflect(nu, i)) == m for i in J)
        diff = rs.fund_to_root(tuple(a - b for a, b in zip(mu, nu)))
        assert all(c.denominator == 1 and c >= 0 for c in diff)
        assert all(c == 0 for i, c in enumerate(diff) if i not in J)


@pytest.mark.parametrize("label, mu, dim", (("E6", (1, 0, 0, 0, 0, 1), 650),
                                            ("F4", (1, 0, 0, 1), 1053)))
def test_full_rank_levi_characters_of_e6_and_f4(label, mu, dim):
    rs = build(label)
    full = tuple(range(rs.rank))
    assert levi_simple_character(mu, full, rs).dim() == dim
    assert weyl_dimension_levi(mu, full, rs) == dim


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
