from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh.linalg import (Span, echelon, nullspace_mod_p, rank_frac,
                           rank_mod_p, rref_mod_p, solve_frac, solve_mod_p)

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


# Sparse vectors keyed like free-module elements of the Ext resolution:
# (generator index, PBW monomial).
KEYS = [(s, (a, b)) for s in range(2) for a in range(2) for b in range(2)]
sparse_vectors = st.dictionaries(st.sampled_from(KEYS), st.integers(-3, 3),
                                 max_size=4)


def _normal(vec, p):
    return {k: c % p if p else Fraction(c) for k, c in vec.items()
            if (c % p if p else c)}


def _combine(kept, comb, p):
    out = {}
    for i, c in comb.items():
        for k, x in kept[i].items():
            out[k] = out.get(k, 0) + c * x
    return _normal(out, p)


def _rank(vecs, p):
    """Rank by fraction-free elimination, independent of nilcoh.linalg."""
    rows, rank = [_normal(v, p) for v in vecs], 0
    while rows:
        row = rows.pop()
        if row:
            lead, c = next(iter(row.items()))
            rows = [_normal({k: c * r.get(k, 0)
                             - r.get(lead, 0) * row.get(k, 0)
                             for k in r.keys() | row.keys()}, p)
                    for r in rows]
            rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(st.lists(sparse_vectors, max_size=12),
       st.lists(sparse_vectors, max_size=4),
       st.sampled_from(PRIMES + (None,)))
def test_span_combinations_rebuild_their_vectors(vecs, probes, p):
    span, kept = Span(p), []
    for vec in vecs:
        size, expressed = span.size, span.express(vec)
        comb = span.add(vec)
        assert (expressed is None) == (span.size == size + 1)
        if comb is None:
            kept.append(vec)
        else:
            assert comb == expressed
            assert _combine(kept, comb, p) == _normal(vec, p)
    assert span.size == len(kept) == _rank(kept, p) == _rank(vecs, p)
    for vec in probes:
        comb = span.express(vec)
        assert span.size == len(kept)
        if comb is not None:
            assert _combine(kept, comb, p) == _normal(vec, p)
        else:
            grown = Span(p)
            for v in kept + [vec]:
                grown.add(v)
            assert grown.size == len(kept) + 1


@settings(max_examples=150, deadline=None)
@given(st.lists(sparse_vectors, max_size=12),
       st.lists(sparse_vectors, max_size=4),
       st.sampled_from(PRIMES + (None,)), st.data())
def test_span_without_combinations_keeps_the_same_vectors(vecs, probes, p,
                                                          data):
    drop_at = data.draw(st.integers(0, len(vecs)))
    tracked, membership = Span(p), Span(p)
    for i, vec in enumerate(vecs):
        if i == drop_at:
            membership.drop_combinations()
        comb, got = tracked.add(vec), membership.add(vec)
        if i < drop_at:
            assert got == comb
        else:
            # never a combination, which a caller could take for a real one
            assert got is (None if comb is None else True)
        assert membership.size == tracked.size
    if drop_at == len(vecs):
        membership.drop_combinations()
    for vec in probes:
        comb = tracked.express(vec)
        assert membership.express(vec) is (None if comb is None else True)
    assert membership.size == tracked.size


@st.composite
def shuffled_vectors(draw):
    """Sparse vectors on the keys 0-7, each with its keys inserted in a
    random order; entries may be 0 or vanish mod p."""
    vecs = []
    for _ in range(draw(st.integers(0, 10))):
        entries = draw(st.dictionaries(st.integers(0, 7), st.integers(-3, 3),
                                       max_size=5))
        order = draw(st.permutations(sorted(entries)))
        vecs.append({k: entries[k] for k in order})
    return vecs


def _gauss_jordan(rows, p):
    """(nonzero rows, pivot columns) of the reduced row echelon form, by
    textbook Gauss-Jordan on the dense matrix, independent of
    nilcoh.linalg (whose `echelon` is built on `Span`)."""
    norm = Fraction if p is None else (lambda x: x % p)
    m, pivots = [[norm(x) for x in row] for row in rows], []
    for c in range(len(m[0])):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [norm(x * inv) for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [norm(a - row[c] * b) for a, b in zip(row, m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@settings(max_examples=200, deadline=None)
@given(shuffled_vectors(), st.sampled_from(PRIMES + (None,)), st.data())
def test_span_matches_dense_echelon(vecs, p, data):
    """Adding the vectors one by one keeps the pivot columns of the dense
    matrix whose columns they are, and a dependent vector's combination is
    its column of the reduced row echelon form, before and after
    `drop_combinations()`.  The form is `echelon`'s, checked against
    `_gauss_jordan`."""
    keys = sorted({k for vec in vecs for k in vec})
    rows = [[vec.get(k, 0) for vec in vecs] for k in keys] or [[0] * len(vecs)]
    red, pivots = echelon(rows, p)
    assert (red, pivots) == _gauss_jordan(rows, p)
    drop_at = data.draw(st.integers(0, len(vecs)))
    span, kept = Span(p), []
    for c, vec in enumerate(vecs):
        if c == drop_at:
            span.drop_combinations()
        got = span.add(vec)
        if c in pivots:
            assert got is None
            kept.append(c)
        elif c < drop_at:
            assert got == {i: row[c] for i, row in enumerate(red) if row[c]}
        else:
            assert got is True
        assert span.size == len(kept)
    assert kept == pivots
