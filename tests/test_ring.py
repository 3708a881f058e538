from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh.alcoves import LinkageDatum, PreconditionError, admissibility
from nilcoh.ring import (BasisClass, CohomologyRing, CycScalar,
                         check_ring_laws, mask_scalar, merge_sign,
                         nil_product, quantum_nil_product,
                         quantum_straighten)
from nilcoh.rootsystem import build
from nilcoh.verify import Violation
from nilcoh.weyl import enumerate_group, mask_bits


def _setup(label):
    rs = build(label)
    return rs, enumerate_group(rs)


def test_cyc_scalar_arithmetic():
    a = CycScalar(-1, 3, 5)
    b = CycScalar(-1, 4, 5)
    assert a * b == CycScalar(1, 2, 5)
    assert CycScalar.zero(5) * a == CycScalar.zero(5)
    assert (-a) == CycScalar(1, 3, 5)
    assert CycScalar(1, 7, 1).exponent == 0  # classical modulus


def test_cyc_scalar_normal_form():
    for sign in (2, -2):
        with pytest.raises(ValueError, match="sign must be -1, 0 or 1"):
            CycScalar(sign, 0, 5)
    assert CycScalar(-1, 13, 5).exponent == 3
    assert CycScalar(1, -1, 5).exponent == 4
    assert CycScalar(0, 3, 5) == CycScalar.zero(5)
    assert CycScalar(0, 3, 5).exponent == 0
    # equal values are equal dict keys
    assert CycScalar(1, 12, 5) == CycScalar(1, 2, 5)
    assert hash(CycScalar(1, 12, 5)) == hash(CycScalar(1, 2, 5))
    g = enumerate_group(build("A2"))
    s1 = g.simple[0]
    assert hash(BasisClass((1, 0, 0), s1)) == hash(BasisClass((1, 0, 0), s1))
    assert len({BasisClass((1, 0, 0), s1), BasisClass((1, 0, 0), s1),
                BasisClass((0, 0, 0), s1)}) == 2


def _value_record(name):
    """An instance of the named record and one of its fields."""
    rs = build("A2")
    w = enumerate_group(rs).identity
    return {"CycScalar": (CycScalar(-1, 2, 5), "exponent"),
            "BasisClass": (BasisClass((0, 1, 0), w), "s_part"),
            "Violation": (Violation(((1,), (2,)), (0, 0), 5), "sigma"),
            "LinkageDatum": (LinkageDatum(w, (0, 0), 5), "w"),
            "AdmissibilityProfile": (admissibility(7, rs, "base")[0],
                                     "odd")}[name]


@pytest.mark.parametrize("name", ["CycScalar", "BasisClass", "Violation",
                                  "LinkageDatum", "AdmissibilityProfile"])
def test_value_records_are_frozen(name):
    """Each is a dict key or a certificate field: no field may change."""
    record, field = _value_record(name)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_merge_sign():
    assert merge_sign((0,), (1, 2)) == 1
    assert merge_sign((1,), (0,)) == -1
    assert merge_sign((0, 2), (1,)) == -1
    assert merge_sign((0,), (0,)) == 0


def test_nil_product_identity_and_vanishing():
    rs, g = _setup("A2")
    s1, s2 = g.simple
    assert nil_product(s1, g.identity, rs, g) == (1, s1)
    assert nil_product(s1, s2, rs, g) is None  # union not an inversion set
    assert nil_product(s1, s1, rs, g) is None


def test_nil_product_top_class():
    rs, g = _setup("A2")
    s1, s2 = g.simple
    s2s1 = g.multiply(s2, s1)
    # Phi(s1) = {alpha1} (index 0), Phi(s2s1) = {alpha1+alpha2, alpha2}
    # (indices 1, 2): merge (0 | 1, 2) is already sorted
    assert nil_product(s1, s2s1, rs, g) == (1, g.longest)
    s1s2 = g.multiply(s1, s2)
    # Phi(s2) = {alpha2} = index 2, Phi(s1s2) = indices {0, 1}:
    # merge (2 | 0, 1) needs two transpositions
    assert nil_product(s2, s1s2, rs, g) == (1, g.longest)
    # and in the other order one transposition each way
    assert nil_product(s1s2, s2, rs, g) == (1, g.longest)


def test_classical_laws():
    for label, p in (("A2", 7), ("B2", 11), ("A3", 11)):
        rs, g = _setup(label)
        ring = CohomologyRing(rs, g, (), "classical", p)
        assert all(check_ring_laws(ring).values())


def test_classical_bound_gate_and_unsafe():
    rs, g = _setup("B2")  # 2(h-1) = 6
    with pytest.raises(PreconditionError):
        CohomologyRing(rs, g, (), "classical", 5)
    ring = CohomologyRing(rs, g, (), "classical", 5, unsafe=True)
    assert ring.formal_only
    assert ring.metadata()["formal_only"]
    with pytest.raises(PreconditionError):
        CohomologyRing(rs, g, (0,), "classical", 7)  # needs p > 3(h-1) = 9
    for unsafe in (False, True):  # composite p > 2(h-1): unsafe waives no prime
        with pytest.raises(PreconditionError, match="needs a prime p, got 9"):
            CohomologyRing(rs, g, (), "classical", 9, unsafe=unsafe)


def test_full_product_tensor_structure():
    rs, g = _setup("A2")
    ring = CohomologyRing(rs, g, (), "classical", 7)
    s1 = g.simple[0]
    x = BasisClass((1, 0, 0), g.identity)
    y = BasisClass((0, 0, 0), s1)
    one = BasisClass((0, 0, 0), g.identity)
    assert ring.multiply_classes(x, y).terms == {
        BasisClass((1, 0, 0), s1): CycScalar.one()}
    # odd class squared is zero
    assert ring.multiply_classes(y, y).terms == {}
    # identity law
    assert ring.multiply_classes(one, x).terms == {x: CycScalar.one()}


def test_quantum_straighten_examples():
    rs = build("A2")
    # sorted square-free monomial is fixed
    assert quantum_straighten((0, 1, 2), rs, 5) == (CycScalar.one(5), (0, 1, 2))
    # repeated index dies
    scal, _ = quantum_straighten((1, 1), rs, 5)
    assert scal.sign == 0
    # x_{alpha1+alpha2} x_{alpha1} -> -zeta^{(alpha1, alpha1+alpha2)} = -zeta^1
    scal, srt = quantum_straighten((1, 0), rs, 5)
    assert srt == (0, 1)
    assert scal == CycScalar(-1, 1, 5)


def test_quantum_relations_against_mask_scalar():
    """The defining relations by two paths: x_j x_i straightened by
    adjacent swaps equals the mask rule's scalar for x_{e_j} x_{e_i}, and
    x_i^2 straightens to 0."""
    for label in ("A2", "B2"):
        rs = build(label)
        n = len(rs.positive_roots)
        for ell in (5, 7):
            for j in range(n):
                assert quantum_straighten((j, j), rs, ell)[0].sign == 0
                for i in range(j):
                    scal, srt = quantum_straighten((j, i), rs, ell)
                    assert srt == (i, j)
                    assert scal == mask_scalar(1 << j, 1 << i, rs, ell)


def test_quantum_nil_product_specializes():
    for label in ("A2", "B2"):
        rs, g = _setup(label)
        for ell in (5, 7):
            for w1 in g.elements:
                for w2 in g.elements:
                    q = quantum_nil_product(w1, w2, rs, g, ell)
                    c = nil_product(w1, w2, rs, g)
                    assert (q is None) == (c is None)
                    if q is not None:
                        scal, w = q
                        assert w == c[1]
                        assert scal.sign == c[0]  # zeta -> formal, sign part


def test_quantum_classes_independent():
    rs, g = _setup("B2")
    seen = set()
    for w in g.elements:
        order = {gam: k for k, gam in enumerate(rs.positive_roots)}
        mono = tuple(sorted(order[gam] for gam in g.inversion_set(w)))
        assert mono not in seen
        seen.add(mono)
    assert len(seen) == len(g.elements)


def test_quantum_ring_gate():
    rs, g = _setup("B2")
    with pytest.raises(PreconditionError):
        CohomologyRing(rs, g, (), "quantum", 5)  # 5 <= 2(h-1) = 6
    ring = CohomologyRing(rs, g, (), "quantum", 7)
    assert not ring.formal_only
    assert all(check_ring_laws(ring).values())


def test_table_rows_format():
    rs, g = _setup("A2")
    ring = CohomologyRing(rs, g, (), "classical", 7)
    rows = ring.table_rows()
    assert len(rows) == len(g.elements) ** 2
    for w1, w2, tgt, sign, expo in rows:
        assert sign in (-1, 0, 1) and expo == 0
    meta = ring.metadata()
    assert meta["w0_word"] and meta["positive_root_order"]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 24 - 1), st.integers(0, 2 ** 24 - 1))
def test_mask_merge_sign_is_merge_sign(m1, m2):
    m2 &= ~m1
    rs = build("F4")  # 24 positive roots
    assert mask_scalar(m1, m2, rs, 1).sign == merge_sign(tuple(mask_bits(m1)),
                                                         tuple(mask_bits(m2)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["B3", "G2"]), st.integers(3, 12), st.data())
def test_mask_scalar_is_straightening_scalar(label, ell, data):
    """Arbitrary disjoint masks, not only inversion sets: on the products
    of inversion sets the zeta-exponent happens to be 0."""
    rs = build(label)
    full = 2 ** len(rs.positive_roots) - 1
    m1 = data.draw(st.integers(0, full))
    m2 = data.draw(st.integers(0, full)) & ~m1
    word = tuple(mask_bits(m1) + mask_bits(m2))
    assert mask_scalar(m1, m2, rs, ell) == quantum_straighten(word, rs, ell)[0]


# ----------------------------------------------------------------------
# check_ring_laws against the exhaustive reference


def _reference_laws(ring):
    """The ring laws checked by brute force: associativity on all
    |^JW|^3 triples of ring.exterior_table(), graded commutativity on all
    |^JW|^2 pairs.  check_ring_laws must return the same dict on every
    table, corrupted ones included."""
    table = ring.exterior_table()
    reps = ring.reps
    one = CycScalar.one(ring.ell)

    def times(x, y):
        if x is None or y is None:
            return None
        prod = table[x[1], y[1]]
        return None if prod is None else (x[0] * y[0] * prod[0], prod[1])

    ok_assoc = all(times(ab, (one, c)) == times((one, a), table[b, c])
                   for (a, b), ab in table.items() for c in reps)
    ok_square = all(a.length == 0 or table[a, a] is None for a in reps)
    ident = ring.group.identity
    ok_identity = all(table[ident, a] == (one, a) == table[a, ident]
                      for a in reps)
    rs = ring.rs
    gamma = {w: tuple(sum(col) for col in zip(
        (0,) * rs.rank, *ring.group.inversion_set(w))) for w in reps}

    def commutes(a, b):
        ab, ba = table[a, b], table[b, a]
        if ab is None or ba is None:
            return ab is ba
        twist = CycScalar(-1 if a.length * b.length % 2 else 1,
                          rs.inner_roots(gamma[a], gamma[b]), ring.ell)
        return ab[1] == ba[1] and ab[0] * ba[0] == twist

    ok_comm = all(commutes(a, b) for a in reps for b in reps)
    return {"associative": ok_assoc, "odd_squares_zero": ok_square,
            "identity": ok_identity, "graded_commutative": ok_comm}


def _a3_ring(mode):
    rs, g = _setup("A3")
    return CohomologyRing(rs, g, (), mode, 11 if mode == "classical" else 7)


def _in_a_triple(ring, length=None):
    """A nonzero product e_a e_b of non-identity classes (of the given
    length, if one is given), and a non-identity c with
    (e_a e_b) e_c != 0."""
    table = ring.exterior_table()
    for (a, b), ab in table.items():
        if ab is None or not a.length or not b.length:
            continue
        if length is not None and not a.length == b.length == length:
            continue
        for c in ring.reps:
            if c.length and table[ab[1], c] is not None:
                return a, b, c
    raise AssertionError("no nonzero triple")


def _flip_sign(ring):
    table = ring.exterior_table()
    a, b, _ = _in_a_triple(ring)
    scal, w = table[a, b]
    table[a, b] = (-scal, w)


def _zero_product(ring):
    a, b, _ = _in_a_triple(ring)
    ring.exterior_table()[a, b] = None


def _unzero_product(ring):
    """Make a zero product nonzero: e_a e_b = e_{w0}, where a and d are
    simple and e_b = +-e_a e_d, so Phi(a) lies in Phi(b).  The triples
    (a, a, d) and (a, d, a) join R but not L, and every triple of L reads
    the entry alike on both sides, so only the count of R against L sees
    the fault."""
    table = ring.exterior_table()
    a, d, _ = _in_a_triple(ring, length=1)
    b = table[a, d][1]
    assert table[a, b] is None
    table[a, b] = (CycScalar.one(ring.ell), ring.group.longest)


def _redirect_target(ring):
    """Send a nonzero e_a e_b to the top class."""
    table = ring.exterior_table()
    a, b, _ = _in_a_triple(ring)
    table[a, b] = (table[a, b][0], ring.group.longest)


def _break_identity(ring):
    table = ring.exterior_table()
    a = ring.group.simple[0]
    table[ring.group.identity, a] = (-table[ring.group.identity, a][0], a)


def _nonzero_square(ring):
    table = ring.exterior_table()
    a = ring.group.simple[0]
    table[a, a] = (CycScalar.one(ring.ell), ring.group.longest)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("fault, law", [
    (_flip_sign, "associative"), (_zero_product, "associative"),
    (_unzero_product, "associative"), (_redirect_target, "associative"),
    (_break_identity, "identity"),
    (_nonzero_square, "odd_squares_zero")])
def test_planted_fault_breaks_its_law(fault, law, mode):
    ring = _a3_ring(mode)
    assert all(check_ring_laws(ring).values())
    fault(ring)
    laws = check_ring_laws(ring)
    assert laws[law] is False
    assert laws == _reference_laws(ring)


def test_planted_fault_in_a_commuting_pair():
    """A sign flip on e_a e_b but not on e_b e_a breaks classical graded
    commutativity, even where no nonzero triple reads the entry."""
    rs, g = _setup("A2")
    ring = CohomologyRing(rs, g, (), "classical", 7)
    table = ring.exterior_table()
    for (x, y), xy in table.items():
        if xy is not None and x.length and y.length:
            a, b = x, y
            break
    scal, w = table[a, b]
    table[a, b] = (-scal, w)
    laws = check_ring_laws(ring)
    assert laws == {"associative": True, "odd_squares_zero": True,
                    "identity": True, "graded_commutative": False}
    assert laws == _reference_laws(ring)


def test_planted_exponent_fault_breaks_quantum_commutativity():
    """A zeta-exponent shift on any one nonzero product of non-identity
    classes of A2 breaks quantum graded commutativity; no other law reads
    it."""
    rs, g = _setup("A2")
    ring = CohomologyRing(rs, g, (), "quantum", 5)
    clean = dict(ring.exterior_table())
    faults = [(a, b) for (a, b), ab in clean.items()
              if ab is not None and a.length and b.length]
    assert len(faults) == 4
    for key in faults:
        scal, w = clean[key]
        ring._table = dict(clean)
        ring._table[key] = (scal * CycScalar(1, 1, 5), w)
        laws = check_ring_laws(ring)
        assert laws == {"associative": True, "odd_squares_zero": True,
                        "identity": True, "graded_commutative": False}
        assert laws == _reference_laws(ring)


def test_quantum_commutativity_reads_the_twist_exponent():
    """On every real table (gamma_a, gamma_b) = 0 where e_a e_b != 0, so
    plant a nonzero pair where it is not: graded commutativity holds
    exactly when c c' carries the exponent (gamma_a, gamma_b)."""
    rs, g = _setup("A2")
    ring = CohomologyRing(rs, g, (), "quantum", 5)
    clean = dict(ring.exterior_table())

    def gamma(w):
        return tuple(sum(col) for col in zip((0, 0), *g.inversion_set(w)))

    expo, a, b = next((e, a, b) for (a, b), ab in clean.items()
                      if a != b and ab is None
                      and (e := rs.inner_roots(gamma(a), gamma(b))) % 5)
    sign = -1 if a.length * b.length % 2 else 1
    for twist, commutes in ((CycScalar(sign, expo, 5), True),
                            (CycScalar(sign, 0, 5), False)):
        ring._table = dict(clean)
        ring._table[a, b] = (CycScalar.one(5), g.longest)
        ring._table[b, a] = (twist, g.longest)
        laws = check_ring_laws(ring)
        assert laws["graded_commutative"] is commutes
        assert laws == _reference_laws(ring)


@lru_cache(maxsize=None)
def _corruptible(label, J, mode, modulus):
    """A ring, and a copy of its table to corrupt copies of."""
    rs, g = _setup(label)
    ring = CohomologyRing(rs, g, J, mode, modulus, unsafe=True)
    return ring, dict(ring.exterior_table())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A2", "B2", "A3", "G2"]), st.sampled_from([(), (0,)]),
       st.sampled_from([("classical", 5), ("classical", 7), ("quantum", 5),
                        ("quantum", 7)]),
       st.integers(1, 2), st.data())
def test_sparse_laws_match_reference_on_corrupted_tables(label, J, case,
                                                         entries, data):
    ring, clean = _corruptible(label, J, *case)
    keys = list(clean)
    ell = ring.ell
    table = dict(clean)
    for _ in range(entries):
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()):
            table[key] = None
        else:
            sign = data.draw(st.sampled_from([-1, 1]))
            expo = data.draw(st.integers(0, ell - 1))
            w = data.draw(st.sampled_from(ring.reps))
            table[key] = (CycScalar(sign, expo, ell), w)
    ring._table = table
    assert check_ring_laws(ring) == _reference_laws(ring)


def test_laws_reach_b4():
    """|^JW| = 384: the exhaustive check would visit 56.6 M triples."""
    rs, g = _setup("B4")
    ring = CohomologyRing(rs, g, (), "classical", 17)
    assert len(ring.reps) == 384
    assert check_ring_laws(ring) == {
        "associative": True, "odd_squares_zero": True, "identity": True,
        "graded_commutative": True}
