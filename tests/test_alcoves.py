import pytest

from nilcoh.alcoves import (PreconditionError, RegimeError, admissibility,
                            in_alcove, require_admissible, require_regime,
                            weak_linkage)
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group


def test_in_alcove_a2():
    rs = build("A2")
    assert in_alcove((0, 0), 5, rs, closed=False)
    assert in_alcove((1, 1), 5, rs, closed=False)
    assert not in_alcove((2, 1), 5, rs, closed=False)  # boundary
    assert in_alcove((2, 1), 5, rs, closed=True)
    assert not in_alcove((3, 3), 5, rs, closed=True)


def test_weak_linkage_zero():
    rs = build("A2")
    g = enumerate_group(rs)
    d = weak_linkage((0, 0), 5, rs, g)
    assert d is not None and d.w == g.identity and d.sigma == (0, 0)
    base = d.w.dot((0, 0), rs)  # lambda = w.0 + 5 * sigma
    assert tuple(b + d.modulus * s for b, s in zip(base, d.sigma)) == (0, 0)


def test_weak_linkage_b2_witness():
    rs = build("B2")
    g = enumerate_group(rs)
    d = weak_linkage((0, 1), 5, rs, g)
    assert d is not None
    assert d.sigma == (0, 1)  # the minuscule weight
    assert d.w.length == 3
    base = d.w.dot((0, 0), rs)  # lambda = w.0 + 5 * sigma
    assert tuple(b + d.modulus * s for b, s in zip(base, d.sigma)) == (0, 1)


def test_weak_linkage_none():
    rs = build("A2")
    g = enumerate_group(rs)
    assert weak_linkage((1, 1), 5, rs, g) is None


def test_weak_linkage_requires_modulus_gt_h():
    rs = build("B2")  # h = 4
    g = enumerate_group(rs)
    with pytest.raises(PreconditionError):
        weak_linkage((0, 0), 3, rs, g)


def test_admissibility_contexts():
    a2 = build("A2")
    g2 = build("G2")
    # even moduli always fail
    assert not admissibility(8, a2, "base")[1]
    # A2 weight separation needs gcd(l, 3) = 1
    assert not admissibility(9, a2, "weight-separation")[1]
    assert admissibility(9, a2, "base")[1]
    # G2 base needs gcd(l, 3) = 1
    assert not admissibility(9, g2, "base")[1]
    assert admissibility(13, g2, "ring")[1]  # 13 > 2(h-1) = 10
    assert not admissibility(7, g2, "ring")[1]
    assert admissibility(7, a2, "ring")[1]   # 7 > 2(h-1) = 4


def test_require_admissible_names_flags():
    a2 = build("A2")
    with pytest.raises(PreconditionError) as exc:
        require_admissible(9, a2, "weight-separation")
    assert "coprime" in str(exc.value)


def test_flags_keys_and_order():
    """`require_admissible` lists the failing flags in this order."""
    profile, _ = admissibility(9, build("A2"), "weight-separation")
    assert list(profile.flags()) == [
        "odd", "gt_h", "ge_hminus1", "gt_2hminus2",
        "coprime_type_conditions", "base_coprime"]
    assert profile.flags()["coprime_type_conditions"] is False
    with pytest.raises(RegimeError, match=r"violated flags:"
                       r" gt_2hminus2, coprime_type_conditions\)"):
        require_admissible(3, build("A2"), "ring")


@pytest.mark.parametrize("label, ell, context, named, unnamed", (
    ("A2", 4, "base", "odd", ("gt_2hminus2",)),
    ("B2", 6, "weight-separation", "odd", ("gt_2hminus2",)),
    ("G2", 9, "kostant", "base_coprime",
     ("gt_2hminus2", "coprime_type_conditions")),
    ("A2", 3, "ring", "gt_2hminus2, coprime_type_conditions", ("gt_h",)),
))
def test_require_admissible_names_only_context_flags(label, ell, context,
                                                     named, unnamed):
    """A failing flag the context does not require is not named."""
    profile, _ = admissibility(ell, build(label), context)
    assert all(not profile.flags()[flag] for flag in unnamed)
    with pytest.raises(RegimeError) as exc:
        require_admissible(ell, build(label), context)
    assert str(exc.value).endswith(f"(violated flags: {named})")


def test_unknown_context_rejected():
    with pytest.raises(ValueError):
        admissibility(5, build("A2"), "nonsense")


def test_require_regime_bounds():
    b2 = build("B2")  # h = 4
    require_regime("modular", 3, b2, "kostant")  # p may reach h-1
    for context, J, p, bound in (("kostant", (), 2, 3), ("ring", (), 5, 6),
                                 ("ring", (0,), 7, 9), ("ext", (), 3, 4),
                                 ("weight-separation", (), 3, 4)):
        with pytest.raises(RegimeError) as exc:
            require_regime("modular", p, b2, context, J)
        assert exc.value.bound == bound
        require_regime("modular", next(q for q in (5, 7, 11) if q > bound),
                       b2, context, J)
    with pytest.raises(RegimeError, match="quantum mode requires l > h = 4"):
        require_regime("quantum", 3, b2, "weight-separation")
    require_regime("quantum", 5, b2, "weight-separation")
    require_regime("classical", None, b2, "ring")
    with pytest.raises(ValueError, match="unknown mode"):
        require_regime("p-adic", 7, b2)
