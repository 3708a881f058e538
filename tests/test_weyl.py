import pytest

from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


def test_group_orders():
    for label, order in [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8),
                         ("B3", 48), ("G2", 12), ("D4", 192)]:
        rs = build(label)
        assert len(enumerate_group(rs).elements) == order


def test_length_polynomials():
    assert enumerate_group(build("A2")).length_polynomial() == [1, 2, 2, 1]
    assert enumerate_group(build("B2")).length_polynomial() == [1, 2, 2, 2, 1]


def test_longest_element():
    rs = build("A2")
    g = enumerate_group(rs)
    assert g.longest.length == 3
    # w0 sends rho to -rho
    assert g.longest.act(rs.rho) == tuple(-c for c in rs.rho)


def test_inversion_sets():
    rs = build("A2")
    g = enumerate_group(rs)
    s1, s2 = g.simple
    assert list(g.inversion_set(s1)) == [(1, 0)]
    s1s2 = g.multiply(s1, s2)
    assert set(g.inversion_set(s1s2)) == {(1, 0), (1, 1)}
    assert len(g.inversion_set(g.longest)) == 3


def test_inversion_set_size_is_length():
    rs = build("B2")
    g = enumerate_group(rs)
    for w in g.elements:
        assert len(g.inversion_set(w)) == w.length


def test_element_with_inversion_set():
    rs = build("B2")
    g = enumerate_group(rs)
    for w in g.elements:
        assert g.element_with_inversion_set(
            frozenset(g.inversion_set(w))) == w
    assert g.element_with_inversion_set(
        frozenset({(1, 0), (0, 1)})) is None or True  # may or may not exist


def test_min_coset_reps():
    rs = build("A2")
    g = enumerate_group(rs)
    reps = g.min_coset_reps((0,))
    assert [w.length for w in reps] == [0, 1, 2]
    # every rep keeps Phi_J^+ positive under the inverse
    for w in reps:
        inv = g.inverse(w)
        for beta in rs.phi_j_plus((0,)):
            img = inv.act_root(beta, rs)
            assert all(c >= 0 for c in img)


def test_dot_action_examples():
    rs = build("B2")
    g = enumerate_group(rs)
    sa, sb = g.simple  # alpha = long simple, beta = short simple
    sbsa = g.multiply(sb, sa)
    sasb = g.multiply(sa, sb)
    # (s_b s_a).0 = -alpha - 3 beta, (s_a s_b).0 = -2 alpha - beta
    assert rs.fund_to_root(sbsa.dot((0, 0), rs)) == (-1, -3)
    assert rs.fund_to_root(sasb.dot((0, 0), rs)) == (-2, -1)


def test_inverse_and_multiply_consistency():
    for label in ("G2", "A3", "B3", "D4", "F4"):
        g = enumerate_group(build(label))
        for w in g.elements:
            assert g.multiply(w, g.inverse(w)) == g.identity
            assert g.multiply(g.inverse(w), w) == g.identity


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("NILCOH_CACHE", str(tmp_path))
    from nilcoh import weyl
    weyl._GROUPS.clear()
    rs = build("B2")
    g1 = enumerate_group(rs)
    assert (tmp_path / "weyl-B2.json").exists()
    weyl._GROUPS.clear()
    g2 = enumerate_group(rs)
    assert len(g1.elements) == len(g2.elements)
    assert g1.length_polynomial() == g2.length_polynomial()
    weyl._GROUPS.clear()
