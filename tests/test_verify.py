from itertools import product

import pytest

from nilcoh.alcoves import in_alcove
from nilcoh.characters import levi_simple_character
from nilcoh.rootsystem import build
from nilcoh.verify import (consistency_suite, search_dot_collisions,
                           search_levi_weights, search_sum_dot)
from nilcoh.weyl import enumerate_group


def _setup(label):
    rs = build(label)
    return rs, enumerate_group(rs)


def test_sum_dot_a1_always_empty():
    rs, g = _setup("A1")
    for p in (3, 5, 7):
        violations, cert = search_sum_dot(rs, g, p)
        assert violations == []
        assert cert["exhaustive"] is True


def test_sum_dot_b2_p5_contains_known_witness():
    rs, g = _setup("B2")
    violations, cert = search_sum_dot(rs, g, 5)
    assert violations
    # (s_b s_a, s_b s_a, s_a s_b, sigma = -beta); beta = alpha2 = (-1, 2)
    hits = [v for v in violations
            if v.witnesses == ([2, 1], [2, 1], [1, 2])
            and v.sigma == (1, -2)]
    assert len(hits) == 1
    assert cert["violations"]


def test_sum_dot_above_bound_empty():
    for label, p in (("A2", 5), ("B2", 7), ("G2", 13)):
        rs, g = _setup(label)
        violations, _ = search_sum_dot(rs, g, p)
        assert violations == [], (label, p)


def test_dot_collisions_interior_empty():
    for label in ("A2", "B2"):
        rs, g = _setup(label)
        for p in (5, 7):
            # dominant weights of the open bottom alcove: each
            # coordinate is below p
            for lam in product(range(p), repeat=rs.rank):
                if not in_alcove(lam, p, rs, closed=False):
                    continue
                violations, _ = search_dot_collisions(rs, g, lam, p, "ZPhi")
                assert violations == []


def test_dot_collision_boundary_witness():
    rs, g = _setup("A2")
    violations, cert = search_dot_collisions(rs, g, (2, 1), 5, "ZPhi")
    # the closure-boundary weight admits (w0, e, sigma = -alpha1 - alpha2)
    hits = [v for v in violations
            if v.witnesses == ([1, 2, 1], []) and v.sigma == (-1, -1)]
    assert len(hits) == 1
    assert cert["lambda"] == [2, 1]


def test_dot_collision_quantum_gate_fail_recorded():
    rs, g = _setup("A2")
    violations, cert = search_dot_collisions(rs, g, (0, 0), 9, "X",
                                             quantum=True)
    assert violations is None
    assert cert["gate"]["passed"] is False
    assert cert["gate"]["flags"]["coprime_type_conditions"] is False
    assert cert["exhaustive"] is False


def test_levi_weights():
    rs, g = _setup("B2")
    violations, _ = search_levi_weights(rs, g, (0,), 11)  # 11 > 3(h-1) = 9
    assert violations == []
    # J = Delta: only the zero weight
    violations, _ = search_levi_weights(rs, g, (0, 1), 5)
    assert violations == []


def test_levi_weights_reduce_to_sum_dot_for_empty_j():
    rs, g = _setup("B2")
    v_levi, _ = search_levi_weights(rs, g, (), 5)
    v_dot, _ = search_sum_dot(rs, g, 5)
    # same sigma multiset (witnesses are recorded as weights vs words)
    assert sorted(v.sigma for v in v_levi) == sorted(v.sigma for v in v_dot)


def test_sharpness_table():
    # smallest prime with empty search <= smallest prime above 2(h-1)
    def primes_from(n):
        k = n
        while True:
            if k > 1 and all(k % d for d in range(2, int(k ** 0.5) + 1)):
                yield k
            k += 1

    for label in ("A2", "B2", "A3", "G2"):
        rs, g = _setup(label)
        bound_prime = next(primes_from(2 * (rs.coxeter_number - 1) + 1))
        smallest_empty = None
        for p in primes_from(3):
            if not search_sum_dot(rs, g, p)[0]:
                smallest_empty = p
                break
            if p > bound_prime:
                break
        assert smallest_empty is not None and smallest_empty <= bound_prime


def test_consistency_suite_a2():
    rs, g = _setup("A2")
    report = consistency_suite(rs, g, 5)
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "nil-product-vs-cochain-cup" in names
    assert "ext-vs-bigraded-character" in names


def test_consistency_suite_skips_name_the_bounds():
    rs, g = _setup("A2")  # h = 3
    details = {c["name"]: c.get("detail")
               for c in consistency_suite(rs, g, 3)["checks"]}
    assert details["ring-identity"] == \
        "skipped: p=3 <= 2(h-1)=4, identity not asserted"
    assert details["ext-vs-bigraded-character"] == "skipped: p=3 <= h=3"


def test_certificate_fields():
    rs, g = _setup("A2")
    _, cert = search_sum_dot(rs, g, 5)
    for key in ("lemma", "type", "modulus", "domain", "violations",
                "exhaustive", "elapsed_ms", "tool_version", "cartan_hash",
                "gamma_order"):
        assert key in cert


# ----------------------------------------------------------------------
# The searches against plain nested loops written out here


def _brute(points, arity, modulus, in_lattice):
    """Every tuple (x_1, ..., x_arity) of points, first index slowest, with
    x_1 + ... + x_{arity-1} = x_arity + modulus*sigma, sigma != 0 in the
    lattice, as (witnesses, sigma)."""
    out = []
    for combo in product(points, repeat=arity):
        *lhs, (_, last) = combo
        diff = [sum(x[t] for _, x in lhs) - last[t]
                for t in range(len(last))]
        if any(diff) and all(c % modulus == 0 for c in diff):
            sigma = tuple(c // modulus for c in diff)
            if in_lattice(sigma):
                out.append((tuple(a for a, _ in combo), sigma))
    return out


def _found(violations):
    return [(v.witnesses, v.sigma) for v in violations]


def _dots(rs, g, lam):
    return [([i + 1 for i in w.word], w.dot(lam, rs)) for w in g.elements]


@pytest.mark.parametrize("label", ("A2", "B2", "G2"))
@pytest.mark.parametrize("p", (3, 5, 7))
def test_sum_dot_matches_triple_loop(label, p):
    rs, g = _setup(label)
    violations, _ = search_sum_dot(rs, g, p)
    assert all(v.modulus == p for v in violations)
    expected = _brute(_dots(rs, g, (0,) * rs.rank), 3, p, rs.in_root_lattice)
    assert _found(violations) == expected


@pytest.mark.parametrize("label, J", (("A2", ()), ("A2", (0,)),
                                      ("B2", ()), ("B2", (1,)),
                                      ("G2", ()), ("G2", (0,)),
                                      ("A3", ()), ("A3", (1,)),
                                      ("A3", (0, 2))))
@pytest.mark.parametrize("p", (3, 5, 7))
def test_levi_weights_match_triple_loop(label, J, p):
    rs, g = _setup(label)
    violations, _ = search_levi_weights(rs, g, J, p)
    supports = set()
    for w in g.min_coset_reps(J):
        supports.update(levi_simple_character(
            w.dot((0,) * rs.rank, rs), J, rs).support)
    weights = [(list(m), m) for m in sorted(supports)]
    assert _found(violations) == _brute(weights, 3, p, rs.in_root_lattice)


@pytest.mark.parametrize("label, lam", (("A2", (0, 0)), ("A2", (2, 1)),
                                        ("B2", (0, 0)), ("B2", (1, 2)),
                                        ("G2", (0, 0)), ("G2", (1, 0))))
@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("domain", ("ZPhi", "X"))
def test_dot_collisions_match_double_loop(label, lam, p, domain):
    rs, g = _setup(label)
    violations, cert = search_dot_collisions(rs, g, lam, p, domain)
    in_lattice = rs.in_root_lattice if domain == "ZPhi" else \
        (lambda sigma: True)
    assert _found(violations) == _brute(_dots(rs, g, lam), 2, p, in_lattice)
    assert cert["violations"] == [v.to_json() for v in violations]


def test_brute_force_comparisons_see_hits():
    # the comparisons above are not all between empty lists
    rs, g = _setup("B2")
    assert search_sum_dot(rs, g, 3)[0]
    assert search_levi_weights(rs, g, (), 3)[0]
    assert search_dot_collisions(rs, g, (0, 0), 3, "X")[0]
    assert search_dot_collisions(rs, g, (1, 2), 5, "ZPhi")[0]
