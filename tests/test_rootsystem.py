from fractions import Fraction

import pytest

from nilcoh.rootsystem import build


def test_cartan_matrices_basic():
    def rows(rs):
        return [list(r) for r in rs.cartan]

    assert rows(build("A2")) == [[2, -1], [-1, 2]]
    assert rows(build("B2")) == [[2, -1], [-2, 2]]
    assert rows(build("G2")) == [[2, -3], [-1, 2]]


# |Phi+| by type and rank
NUM_POSITIVE = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                "E": {6: 36, 7: 63, 8: 120}.get, "F": lambda n: 24,
                "G": lambda n: 6}


def test_positive_root_counts():
    for label, count in [("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4),
                         ("B3", 9), ("C3", 9), ("D4", 12), ("G2", 6),
                         ("F4", 24), ("E6", 36)]:
        rs = build(label)
        assert len(rs.positive_roots) == count
        assert NUM_POSITIVE[rs.letter](rs.rank) == count


def test_coxeter_numbers():
    for label, h in [("A1", 2), ("A2", 3), ("A3", 4), ("B2", 4), ("G2", 6),
                     ("F4", 12), ("E6", 12)]:
        assert build(label).coxeter_number == h


def test_a2_convex_order_pinned():
    rs = build("A2")
    # root coordinates: alpha1, alpha1+alpha2, alpha2
    assert list(rs.positive_roots) == [(1, 0), (1, 1), (0, 1)]


def test_convex_order_property():
    # if gamma_a + gamma_b = gamma_k then a < k < b for a < b
    for label in ("A2", "A3", "B2", "B3", "G2"):
        rs = build(label)
        index = {g: i for i, g in enumerate(rs.positive_roots)}
        for a, ga in enumerate(rs.positive_roots):
            for b in range(a + 1, len(rs.positive_roots)):
                s = tuple(x + y for x, y in zip(ga, rs.positive_roots[b]))
                if s in index:
                    assert a < index[s] < b


def test_pairing_and_inner():
    rs = build("B2")
    alpha2 = (0, 1)  # the short simple root
    alpha1 = (1, 0)
    assert rs.inner_roots(alpha2, alpha2) == 2  # short roots normalized
    assert rs.inner_roots(alpha1, alpha1) == 4
    # pairing of rho with the highest root beta0: h - 1
    assert rs.pairing(rs.rho, rs.positive_roots[0]) in range(1, 10)


def test_minuscule():
    assert build("B2").minuscule_weights() == [(0, 1)]
    assert build("G2").minuscule_weights() == []
    assert sorted(build("A2").minuscule_weights()) == [(0, 1), (1, 0)]


def test_fund_root_roundtrip():
    rs = build("G2")
    for g in rs.positive_roots:
        f = rs.root_to_fund(g)
        back = rs.fund_to_root(f)
        assert tuple(Fraction(c) for c in g) == tuple(back)


def test_cartan_inverse_every_supported_type():
    labels = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
              + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])
    for label in labels:
        rs = build(label)
        n = rs.rank
        inv = rs._cartan_inverse
        for i in range(n):
            for j in range(n):
                entry = sum(inv[i][k] * rs.cartan[k][j] for k in range(n))
                assert entry == (1 if i == j else 0), label


def test_nilradical_and_levi_split():
    rs = build("B2")
    assert set(rs.phi_j_plus({0})) | set(rs.nilradical_roots({0})) == \
        set(rs.positive_roots)
    assert list(rs.nilradical_roots({0, 1})) == []


def test_bad_type_rejected():
    with pytest.raises(ValueError):
        build("H3")
    with pytest.raises(ValueError):
        build("B1")


ALL_SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6")


def test_integer_root_tables():
    for label in ALL_SMALL_TYPES:
        rs = build(label)
        negatives = [tuple(-c for c in b) for b in rs.positive_roots]
        assert len(rs.root_of_fund) == 2 * rs.num_positive
        for b in rs.positive_roots + tuple(negatives):
            assert rs.root_of_fund[rs.root_to_fund(b)] == b
        # <omega_i, beta^vee> = 2 (omega_i, beta) / (beta, beta), rationally,
        # with (mu, nu) = sum_j d_j mu_j (nu in root coordinates)_j
        def inner(mu, nu):
            return sum(d * a * b for d, a, b in
                       zip(rs.d, mu, rs.fund_to_root(nu)))

        for b, cor in zip(rs.positive_roots, rs.coroot_coords):
            bf = rs.root_to_fund(b)
            for i in range(rs.rank):
                mu = rs.fundamental_weight(i)
                assert cor[i] == 2 * inner(mu, bf) / inner(bf, bf)
                assert rs.pairing(mu, b) == cor[i]
            minus = tuple(-c for c in b)
            assert rs.pairing(rs.rho, minus) == -rs.pairing(rs.rho, b)


def test_phi_j_plus_is_computed_once_per_j():
    rs = build("F4")
    phi = rs.phi_j_plus((0, 1))
    assert rs.phi_j_plus([1, 0]) is phi and rs.phi_j_plus({0, 1}) is phi
    assert phi == tuple(b for b in rs.positive_roots if not b[2] and not b[3])
    assert len(phi) == 3 and rs.phi_j_plus(()) == ()


def test_levi_w0_word():
    """The descent loop keeps the full word and gives a reduced word of the
    longest element of W_J for any J."""
    for label in ALL_SMALL_TYPES:
        rs = build(label)
        assert rs._w0_word(range(rs.rank)) == rs._w0_word() == rs.w0_word
        for J in ((0,), (0, rs.rank - 1), ()):
            word = rs._w0_word(J)
            assert set(word) <= set(J)
            assert len(word) == len(rs.phi_j_plus(J))
