from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh.linalg import (echelon, nullspace_mod_p, rank_frac, rank_mod_p,
                           rref_mod_p, solve_frac, solve_mod_p)

PRIMES = (2, 3, 5, 7)
# Above the Hadamard bound (3 * sqrt(5))^5 ~ 4.1e5 for 5x5 matrices with
# entries in [-3, 3], so no nonzero minor vanishes mod this prime.
BIG_PRIME = 1000003


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.integers(-3, 3)
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


def _apply(rows, x, p=None):
    out = [sum(a * b for a, b in zip(row, x)) for row in rows]
    return [v % p for v in out] if p else out


@settings(max_examples=150, deadline=None)
@given(matrices(), st.sampled_from(PRIMES))
def test_nullspace_annihilated_and_rank_nullity(rows, p):
    null = nullspace_mod_p(rows, p)
    for v in null:
        assert _apply(rows, v, p) == [0] * len(rows)
    assert rank_mod_p(rows, p) + len(null) == len(rows[0])
    # the nullspace vectors are independent
    assert not null or rank_mod_p(null, p) == len(null)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.sampled_from(PRIMES), st.data())
def test_solve_mod_p(rows, p, data):
    rhs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                             max_size=len(rows)))
    x = solve_mod_p(rows, rhs, p)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    rises = rank_mod_p(aug, p) > rank_mod_p(rows, p)
    assert (x is None) == rises
    if x is not None:
        assert _apply(rows, x, p) == [b % p for b in rhs]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_frac(rows, data):
    rhs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                             max_size=len(rows)))
    x = solve_frac(rows, rhs)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    assert (x is None) == (rank_frac(aug) > rank_frac(rows))
    if x is not None:
        assert all(isinstance(c, Fraction) for c in x)
        assert _apply(rows, x) == rhs


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_frac_equals_rank_mod_big_prime(rows):
    assert rank_frac(rows) == rank_mod_p(rows, BIG_PRIME)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.sampled_from(PRIMES + (None,)))
def test_echelon_is_reduced(rows, p):
    red, pivots = echelon(rows, p)
    assert len(red) == len(pivots)
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert [row[pc] for row in red] == [int(k == r) for k in range(len(red))]
        assert not any(red[r][:pc])
    if p is not None:
        assert (red, pivots) == rref_mod_p(rows, p)


def test_degenerate_shapes():
    assert echelon([]) == ([], [])
    assert echelon([[], []], 5) == ([], [])
    assert rank_mod_p([[0, 0], [0, 0]], 3) == 0
    assert nullspace_mod_p([[0, 0]], 3) == [[1, 0], [0, 1]]
    assert solve_mod_p([], [0, 3], 3) == []
    assert solve_mod_p([], [1], 3) is None
    assert solve_frac([], [Fraction(1, 2)]) is None
