import itertools
import json

import pytest

from nilcoh import weyl
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
    """`element_with_mask` inverts `inversion_mask`: an element is
    determined by its inversion set, and {alpha_1, alpha_2}, which is not
    closed under sums, is the inversion set of no element of B2."""
    rs = build("B2")
    g = enumerate_group(rs)
    for w in g.elements:
        assert g.element_with_mask(g.inversion_mask(w)) == w
    index = rs.pos_index
    assert g.element_with_mask(
        1 << index[(1, 0)] | 1 << index[(0, 1)]) is None


def test_min_coset_reps():
    rs = build("A2")
    g = enumerate_group(rs)
    reps = g.min_coset_reps((0,))
    assert [w.length for w in reps] == [0, 1, 2]
    # every rep keeps Phi_J^+ positive under the inverse
    for w in reps:
        inv = g.inverse(w)
        for beta in rs.phi_j_plus((0,)):
            img = rs.root_of_fund[inv.act(rs.root_to_fund(beta))]
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


INTEGER_PATH_TYPES = ("A3", "B3", "C3", "D4", "G2", "F4")


def _reflect(rs, beta, i):
    """s_i beta = beta - <beta, alpha_i^vee> alpha_i, in root coordinates."""
    out = list(beta)
    out[i] -= sum(rs.cartan[i][j] * beta[j] for j in range(rs.rank))
    return tuple(out)


def test_inversion_set_matches_reduced_word():
    # Phi(s_i1 ... s_ik) = {alpha_i1, s_i1 alpha_i2, s_i1 s_i2 alpha_i3, ...}
    for label in INTEGER_PATH_TYPES:
        rs = build(label)
        g = enumerate_group(rs)
        for w in g.elements:
            along_word = set()
            for k, i in enumerate(w.word):
                beta = tuple(1 if j == i else 0 for j in range(rs.rank))
                for prev in reversed(w.word[:k]):
                    beta = _reflect(rs, beta, prev)
                along_word.add(beta)
            inv = g.inversion_set(w)
            assert set(inv) == along_word and len(inv) == w.length
            assert list(inv) == [b for b in rs.positive_roots if b in along_word]


def test_min_coset_reps_match_definition():
    # ^JW = {w : w^{-1} alpha_i > 0 for i in J}, with w^{-1} alpha_i taken
    # to simple-root coordinates through the rational Cartan inverse
    for label in INTEGER_PATH_TYPES:
        rs = build(label)
        g = enumerate_group(rs)
        positive_on = {}
        for w in g.elements:
            winv = g.inverse(w)
            positive_on[w] = {
                i for i in range(rs.rank)
                if all(c >= 0 for c in
                       rs.fund_to_root(winv.act(rs.simple_root_fund(i))))}
        for J in itertools.chain.from_iterable(
                itertools.combinations(range(rs.rank), k)
                for k in range(rs.rank + 1)):
            expect = sorted((w for w in g.elements
                             if set(J) <= positive_on[w]),
                            key=lambda w: (w.length, w.word))
            assert g.min_coset_reps(J) == expect


def test_weyl_elements_permute_the_roots():
    rs = build("G2")
    g = enumerate_group(rs)
    for w in g.elements:
        images = {rs.root_of_fund[w.act(rs.root_to_fund(b))]
                  for b in rs.positive_roots}
        assert len(images) == rs.num_positive
        negatives = {tuple(-c for c in b) for b in rs.positive_roots}
        assert len(images & negatives) == w.length


def _cached_group(tmp_path, monkeypatch, label):
    """Write the cache of `label` under tmp_path; return (path, payload)."""
    monkeypatch.setenv("NILCOH_CACHE", str(tmp_path))
    monkeypatch.setattr(weyl, "_GROUPS", {})
    enumerate_group(build(label))
    path = tmp_path / f"weyl-{label}.json"
    return path, json.loads(path.read_text())


def _reload(label):
    weyl._GROUPS.clear()
    return enumerate_group(build(label))


def test_damaged_cache_deleted_element_is_recomputed(tmp_path, monkeypatch):
    path, data = _cached_group(tmp_path, monkeypatch, "A2")
    data["elements"] = [e for e in data["elements"] if len(e["word"]) != 3]
    path.write_text(json.dumps(data))
    assert weyl._load_cache(build("A2")) is None
    g = _reload("A2")
    assert g.length_polynomial() == [1, 2, 2, 1]
    # the recomputed group replaced the damaged file
    assert len(json.loads(path.read_text())["elements"]) == 6


def test_damaged_cache_tampered_word_is_recomputed(tmp_path, monkeypatch):
    path, data = _cached_group(tmp_path, monkeypatch, "B2")
    for entry in data["elements"]:
        if entry["word"] == [0, 1]:
            entry["word"] = [1, 0]  # the other element of length 2
    path.write_text(json.dumps(data))
    assert weyl._load_cache(build("B2")) is None
    g = _reload("B2")
    for w in g.elements:
        m = g.identity.matrix
        for i in w.word:
            m = g.multiply(g.by_matrix[m], g.simple[i]).matrix
        assert m == w.matrix


def test_damaged_cache_non_reduced_words_are_recomputed(tmp_path, monkeypatch):
    # a Hamiltonian path e, s1, s1s2, s1s2s1, s1s2s1s2, s1s2s1s2s1 through
    # W(A2): every word multiplies out to its matrix, but three are not
    # reduced, so the lengths would be wrong
    path, data = _cached_group(tmp_path, monkeypatch, "A2")
    rs = build("A2")
    g = enumerate_group(rs)
    m = g.identity.matrix
    words = [()]
    entries = [{"matrix": [list(r) for r in m], "word": []}]
    for k in range(5):
        w = g.by_matrix[m]
        m = g.multiply(w, g.simple[k % 2]).matrix
        words.append(words[-1] + (k % 2,))
        entries.append({"matrix": [list(r) for r in m],
                        "word": list(words[-1])})
    assert len({str(e["matrix"]) for e in entries}) == 6
    data["elements"] = entries
    path.write_text(json.dumps(data))
    assert weyl._load_cache(rs) is None
    assert _reload("A2").length_polynomial() == [1, 2, 2, 1]


def test_damaged_cache_truncated_file_is_recomputed(tmp_path, monkeypatch):
    path, _ = _cached_group(tmp_path, monkeypatch, "G2")
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert weyl._load_cache(build("G2")) is None
    assert _reload("G2").length_polynomial() == [1, 2, 2, 2, 2, 2, 1]


def test_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    _cached_group(tmp_path, monkeypatch, "B3")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["weyl-B3.json"]


def _elements(g):
    return [(w.matrix, w.word) for w in g.elements]


def _matrix_keyed_bfs(rs):
    """The enumeration before it was keyed by w^-1 rho: breadth-first
    search over action matrices, m -> m s_i for every i in turn."""
    n = rs.rank
    # (s_i mu)_k = mu_k - mu_i a_ki
    gens = [tuple(tuple(int(k == j) - (j == i) * rs.cartan[k][i]
                        for j in range(n)) for k in range(n))
            for i in range(n)]
    ident = tuple(tuple(int(k == j) for j in range(n)) for k in range(n))
    found = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i, s in enumerate(gens):
                m2 = tuple(tuple(sum(row[k] * s[k][j] for k in range(n))
                                 for j in range(n)) for row in m)
                if m2 not in found:
                    found[m2] = found[m] + (i,)
                    nxt.append(m2)
        frontier = nxt
    return list(found.items())


@pytest.mark.parametrize("label", ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "D4", "G2", "F4"))
def test_keyed_enumeration_matches_matrix_bfs(label):
    rs = build(label)
    expect = _matrix_keyed_bfs(rs)
    assert _elements(weyl._from_words(rs, weyl._bfs_words(rs))) == expect
    assert _elements(enumerate_group(rs)) == expect


def test_cache_stores_words_only(tmp_path, monkeypatch):
    path, data = _cached_group(tmp_path, monkeypatch, "B3")
    assert sorted(data) == ["cartan", "elements", "label"]
    assert all(list(entry) == ["word"] for entry in data["elements"])
    assert _elements(weyl._load_cache(build("B3"))) == \
        _elements(enumerate_group(build("B3")))


def test_cache_with_matrices_still_loads(tmp_path, monkeypatch):
    # the earlier format stored each element's matrix next to its word
    path, data = _cached_group(tmp_path, monkeypatch, "F4")
    g = enumerate_group(build("F4"))
    data["elements"] = [{"matrix": [list(r) for r in w.matrix],
                         "word": list(w.word)} for w in g.elements]
    path.write_text(json.dumps(data))
    assert _elements(weyl._load_cache(build("F4"))) == _elements(g)


# B2 words: s1 s2 is an ascent of s1; s1 s2 s2 = s1 is shorter than s1 s2;
# s2 s1 s2 is already an element, so a second copy repeats its key
BAD_B2_WORDS = {"float": ([0, 1], [0, 1.0]), "bool": ([0, 1], [0, True]),
                "negative": ([0, 1], [0, -1]), "rank": ([0, 1], [0, 2]),
                "descent": ([0, 1, 0], [0, 1, 1]),
                "repeat": ([0, 1, 0, 1], [1, 0, 1])}


@pytest.mark.parametrize("case", sorted(BAD_B2_WORDS))
def test_damaged_cache_bad_word_is_recomputed(tmp_path, monkeypatch, case):
    path, data = _cached_group(tmp_path, monkeypatch, "B2")
    old, new = BAD_B2_WORDS[case]
    for entry in data["elements"]:
        if entry["word"] == old:
            entry["word"] = new
    path.write_text(json.dumps(data))
    rs = build("B2")
    assert weyl._load_cache(rs) is None
    g = _reload("B2")
    assert g.length_polynomial() == [1, 2, 2, 2, 1]
    assert _elements(weyl._load_cache(rs)) == _elements(g)
