import copy
import gc
import inspect
import random
from itertools import combinations, combinations_with_replacement, product
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcoh import restricted
from nilcoh.alcoves import PreconditionError
from nilcoh.kostant import frobenius_kernel_character
from nilcoh.linalg import Span
from nilcoh.restricted import (BudgetError, MinimalResolution,
                               ResolutionStage, RestrictedAlgebra,
                               _height_form, _may_weights, build_algebra,
                               certificate, ext_dims, find_class_by_weight,
                               square_certificate, yoneda_product)
from nilcoh.rootsystem import build
from nilcoh.weyl import enumerate_group

from conftest import times


def test_algebra_dimensions():
    assert build_algebra((), 3, build("A1")).dimension == 3
    assert build_algebra((), 5, build("B2")).dimension == 625
    assert build_algebra((0,), 5, build("A2")).dimension == 25


def test_budget_rejected():
    with pytest.raises(BudgetError):
        build_algebra((), 7, build("G2"))  # 7^6 > 5^6


def test_composite_p_rejected():
    with pytest.raises(PreconditionError, match="prime"):
        build_algebra((), 4, build("A1"))


# G2 J=(1,) has structure constants 2 and 3 mod 5
MULT_CASES = pytest.mark.parametrize("label,p,J", (
    ("B2", 5, ()), ("A2", 3, ()), ("B2", 5, (0,)), ("A3", 3, (1,)),
    ("G2", 5, (1,))), ids=("B2-p5", "A2-p3", "B2-p5-J0", "A3-p3-J1",
                           "G2-p5-J1"))


def _mult_sum(alg, terms):
    """The sum of coeff * x^a x^b over terms (coeff, a, b), as
    {monomial: coeff mod p} with the zero coefficients dropped."""
    out = {}
    for coeff, a, b in terms:
        for t, c in alg.mult_mono(a, b).items():
            out[t] = (out.get(t, 0) + coeff * c) % alg.p
    return {t: c for t, c in out.items() if c}


@MULT_CASES
def test_multiplication_associative_spot_check(label, p, J):
    alg = build_algebra(J, p, build(label))
    rng = random.Random(7)
    monos = [tuple(rng.randrange(p) for _ in range(alg.n)) for _ in range(12)]
    for a in monos[:4]:
        for b in monos[4:8]:
            for c in monos[8:]:
                left = _mult_sum(alg, ((x, m, c) for m, x
                                       in alg.mult_mono(a, b).items()))
                right = _mult_sum(alg, ((x, a, m) for m, x
                                        in alg.mult_mono(b, c).items()))
                assert left == right


@MULT_CASES
def test_commutator_reproduces_bracket(label, p, J):
    alg = build_algebra(J, p, build(label))
    assert alg.bracket
    for (a, b), (k, c) in alg.bracket.items():
        ea = tuple(1 if i == a else 0 for i in range(alg.n))
        eb = tuple(1 if i == b else 0 for i in range(alg.n))
        ek = tuple(1 if i == k else 0 for i in range(alg.n))
        comm = alg.mult_mono(ea, eb)
        rev = alg.mult_mono(eb, ea)
        diff = dict(comm)
        for m, v in rev.items():
            diff[m] = (diff.get(m, 0) - v) % p
        diff = {m: v for m, v in diff.items() if v}
        assert diff == {ek: c % p}


def test_a1_cyclic_pattern():
    alg = build_algebra((), 5, build("A1"))
    gc, res = ext_dims(alg, 5)
    assert gc.dims() == [1, 1, 1, 1, 1, 1]
    assert res.check_complex() and res.check_minimal()


def test_a2_ext_matches_prediction():
    rs = build("A2")
    g = enumerate_group(rs)
    alg = build_algebra((), 5, rs)
    gc, res = ext_dims(alg, 4)
    fk = frobenius_kernel_character((0, 0), (), rs, g, "modular", 5, 4)
    assert gc == fk.collapse()


def test_b2_ext_reproduction(b2_p5):
    rs, g, alg, gc, res = b2_p5
    assert gc.dims() == [1, 2, 6, 10, 19]
    fk = frobenius_kernel_character((0, 0), (), rs, g, "modular", 5, 4)
    assert gc == fk.collapse()
    assert res.check_complex()


def test_h1_weights_are_negated_simples():
    rs = build("A2")
    alg = build_algebra((), 5, rs)
    gc, _ = ext_dims(alg, 2)
    assert set(gc[1].support) == {(-2, 1), (1, -2)}  # -alpha1, -alpha2


def test_b2_square_nonzero(b2_p5):
    rs, g, _, _, res = b2_p5
    wt = times(g, 1, 0).dot((0, 0), rs)
    cert = square_certificate(res, 2, wt)
    assert cert["nonzero"] is True
    assert cert["degree"] == 4


def test_yoneda_identity_and_odd_squares(b2_p5):
    res = b2_p5[4]
    # H^0 generator is the identity for the product
    for i in range(len(res.stages[2].gen_weights)):
        assert yoneda_product(res, (0, 0), (2, i)) == {i: 1}
    # odd classes square to zero (graded commutativity over odd p)
    for i in range(len(res.stages[1].gen_weights)):
        assert yoneda_product(res, (1, i), (1, i)) == {}


def test_yoneda_product_rejects_classes_the_resolution_lacks(b2_p5):
    """A negative degree or an index outside 0 <= i < betti[degree] names
    no class, and raises instead of returning a zero product."""
    res = b2_p5[4]
    assert res.betti() == [1, 2, 6, 10, 19]
    for z1, z2 in (((2, 99), (2, 0)), ((2, -1), (2, -1)), ((0, 0), (0, 5)),
                   ((-1, 0), (1, 0)), ((2, 6), (1, 0))):
        with pytest.raises(ValueError, match="no class"):
            yoneda_product(res, z1, z2)


def test_yoneda_graded_commutative(b2_p5):
    _, _, alg, _, res = b2_p5
    p = alg.p
    n1 = len(res.stages[1].gen_weights)
    n2 = len(res.stages[2].gen_weights)
    # degree 1 x degree 1: anticommute
    for i in range(n1):
        for j in range(n1):
            ab = yoneda_product(res, (1, i), (1, j))
            ba = yoneda_product(res, (1, j), (1, i))
            assert ab == {k: (-v) % p for k, v in ba.items()}
    # degree 1 x degree 2: commute
    for i in range(n1):
        for j in range(n2):
            assert yoneda_product(res, (1, i), (2, j)) == \
                yoneda_product(res, (2, j), (1, i))


# the algebra members that the resolution, its Yoneda products,
# `_may_weights` and `certificate` may read
ALGEBRA_MEMBERS = ("rs", "J", "p", "dimension", "by_weight", "root_weights",
                   "times", "lower", "monomials", "mono_index", "mult_mono")


class _Boundary:
    """An algebra seen through ALGEBRA_MEMBERS alone: any other name
    raises AttributeError."""

    def __init__(self, alg):
        self._alg = alg

    def __getattr__(self, name):
        if name not in ALGEBRA_MEMBERS:
            raise AttributeError(f"the resolution read alg.{name}")
        return getattr(self._alg, name)


@pytest.mark.parametrize("label,p,J,degree", (("B2", 5, (), 4),
                                              ("G2", 5, (1,), 3)),
                         ids=("B2-p5-d4", "G2-p5-J1-d3"))
def test_resolution_reads_only_the_named_algebra_members(label, p, J,
                                                         degree):
    """`ext_dims`, `yoneda_product`, `square_certificate` and `certificate`
    over an algebra that exposes only ALGEBRA_MEMBERS give the stages and
    products of the direct build."""
    rs = build(label)
    gc, direct = ext_dims(build_algebra(J, p, rs), degree)
    gc_seen, seen = ext_dims(_Boundary(build_algebra(J, p, rs)), degree)
    assert gc_seen == gc
    assert [st.gen_weights for st in seen.stages] == \
        [st.gen_weights for st in direct.stages]
    assert [[list(e.items()) for e in st.differential]
            for st in seen.stages] == \
        [[list(e.items()) for e in st.differential] for st in direct.stages]
    pairs = [((a, i), (b, j)) for a, b in ((1, 1), (1, 2), (2, 1))
             for i in range(len(direct.stages[a].gen_weights))
             for j in range(len(direct.stages[b].gen_weights))]
    assert [yoneda_product(seen, z1, z2) for z1, z2 in pairs] == \
        [yoneda_product(direct, z1, z2) for z1, z2 in pairs]
    example = None
    if degree >= 4:
        group = enumerate_group(rs)
        wt = times(group, 1, 0).dot((0, 0), rs)
        example = square_certificate(seen, 2, wt)
        assert example == square_certificate(direct, 2, wt)
        assert example["nonzero"] is True
    assert certificate(seen, example) == certificate(direct, example)


def test_yoneda_products_on_one_resolution_match_fresh_ones(b2_p5):
    """Products on one resolution, which share its lifting spans and image
    memos, equal the same products each lifted from scratch."""
    res = copy.copy(b2_p5[4])
    res._liftings = {}
    counts = [len(st.gen_weights) for st in res.stages]
    pairs = [((a, i), (b, j)) for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))
             for i in range(counts[a]) for j in range(counts[b])]
    shared = [yoneda_product(res, z1, z2) for z1, z2 in pairs]
    fresh = []
    for z1, z2 in pairs:
        alone = copy.copy(res)
        alone._liftings = {}
        fresh.append(yoneda_product(alone, z1, z2))
    assert shared == fresh
    assert any(shared)


def test_check_minimal_finds_a_planted_unit_term():
    """A unit term x^0 e_s, key s p^n, planted in a stage-2 differential
    fails `check_minimal`."""
    res = MinimalResolution(build_algebra((), 5, build("B2")), 4)
    assert res.check_minimal()
    elem = res.stages[2].differential[0]
    key = res.alg.dimension  # x^0 e_1
    assert key not in elem
    elem[key] = 3
    assert not res.check_minimal()


def test_check_complex_finds_a_planted_non_unit_term():
    """A non-unit term x_gamma e_0 planted in a stage-2 differential adds
    x_gamma d_1(e_0) != 0 to d_1 d_2: `check_complex` fails while
    `check_minimal` still holds."""
    res = MinimalResolution(build_algebra((), 5, build("B2")), 4)
    assert res.check_complex()
    elem = res.stages[2].differential[0]
    key = 1  # x^m e_0 with m = (0, ..., 0, 1), a single root vector
    assert key not in elem
    elem[key] = 2
    assert not res.check_complex()
    assert res.check_minimal()


def test_find_class_by_weight():
    rs = build("B2")
    g = enumerate_group(rs)
    alg = build_algebra((), 5, rs)
    _, res = ext_dims(alg, 2)
    wt = times(g, 1, 0).dot((0, 0), rs)
    assert len(find_class_by_weight(res, 2, wt)) == 1


def _decode(alg, vec):
    """An int-keyed free-module element as {(s, monomial): coeff}."""
    return {(key // alg.dimension, alg.monomials[key % alg.dimension]): c
            for key, c in vec.items()}


def _two_pass_stages(alg, max_degree):
    """The resolution by two passes per stage: the generators are the
    kernel elements independent of the x_gamma k and of the kernel
    elements before them, weight by weight in sorted order; then the whole
    kernel of the new differential comes from `_d_block` on every weight
    block of the new stage.  Elements are int-keyed, as `_d_block` reads
    and returns them; x_gamma k is formed by the tuple view `mult_mono`,
    and the monomial weights and weight blocks are listed here, not by
    `by_weight` and `_block`."""
    res = MinimalResolution.__new__(MinimalResolution)
    res.alg, res.max_degree = alg, max_degree
    res.stages = [ResolutionStage(0, [(0,) * alg.rs.rank], [{}])]
    dim = alg.dimension
    # the weight of each monomial by index, sum a_gamma * gamma
    weights = [tuple(sum(a * f[t] for a, f in zip(m, alg.root_weights))
                     for t in range(alg.rs.rank)) for m in alg.monomials]
    # the exponent tuple of each generator x_gamma
    units = [tuple(int(k == g) for k in range(alg.n)) for g in range(alg.n)]
    kernel = [{i: 1} for i in range(1, dim)]
    for degree in range(1, max_degree + 1):
        prev = res.stages[-1].gen_weights
        ker_by_wt, aug_by_wt = {}, {}
        for elem in kernel:
            s0, i0 = divmod(next(iter(elem)), dim)
            wt = tuple(a + b for a, b in zip(prev[s0], weights[i0]))
            ker_by_wt.setdefault(wt, []).append(elem)
            for gf, e_g in zip(alg.root_weights, units):
                moved = {}
                for key, c in elem.items():
                    s, i = divmod(key, dim)
                    for m2, c2 in alg.mult_mono(e_g, alg.monomials[i]).items():
                        k2 = s * dim + alg.mono_index(m2)
                        moved[k2] = moved.get(k2, 0) + c * c2
                gwt = tuple(a + b for a, b in zip(wt, gf))
                aug_by_wt.setdefault(gwt, []).append(moved)
        gen_weights, diff = [], []
        for wt in sorted(ker_by_wt):
            span = Span(alg.p)
            for elem in aug_by_wt.get(wt, ()):
                span.add(elem)
            for elem in ker_by_wt[wt]:
                if span.add(elem) is None:
                    gen_weights.append(wt)
                    diff.append(elem)
        res.stages.append(ResolutionStage(degree, gen_weights, diff))
        blocks = {}
        for s, gw in enumerate(gen_weights):
            for i, mw in enumerate(weights):
                wt = tuple(a + b for a, b in zip(gw, mw))
                blocks.setdefault(wt, []).append(s * dim + i)
        kernel = [elem for wt in sorted(blocks)
                  for elem in res._d_block(degree, blocks[wt])[2]]
    return res.stages


@pytest.mark.parametrize("label,p,J,degree", (
    ("A2", 3, (), 6), ("B2", 5, (0,), 6), ("B2", 5, (1,), 6),
    ("A3", 5, (0, 1), 5)))
def test_single_pass_matches_two_passes(label, p, J, degree):
    alg = build_algebra(J, p, build(label))
    expected = _two_pass_stages(alg, degree)
    got = MinimalResolution(alg, degree).stages
    assert [st.gen_weights for st in got] == \
        [st.gen_weights for st in expected]
    assert [[list(e.items()) for e in st.differential] for st in got] == \
        [[list(e.items()) for e in st.differential] for st in expected]


# every case over A2, B2, G2 and A3 with p in {2, 3, 5, 7}, a nonempty
# nilradical and p^N <= 625
SMALL_CASES = tuple(
    (label, p, J) for label in ("A2", "B2", "G2", "A3")
    for r in range(build(label).rank)
    for J in combinations(range(build(label).rank), r) for p in (2, 3, 5, 7)
    if p ** len(build(label).nilradical_roots(J)) <= 625)


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(SMALL_CASES), degree=st.integers(1, 4))
def test_may_weight_stages_match_two_passes(case, degree):
    """The build, which visits only the May weights, gives the stages of
    the two-pass resolution, which visits every weight of every kernel."""
    label, p, J = case
    alg = build_algebra(J, p, build(label))
    expected = _two_pass_stages(alg, degree)
    got = MinimalResolution(alg, degree).stages
    assert [st.gen_weights for st in got] == \
        [st.gen_weights for st in expected]
    assert [[list(e.items()) for e in st.differential] for st in got] == \
        [[list(e.items()) for e in st.differential] for st in expected]


def test_a3_p5_degree_4_matches_prediction():
    """A3 p=5 through degree 4, which the May weights bring to about a
    second, against the Frobenius-kernel prediction `verify suite` uses."""
    rs = build("A3")
    gc, res = ext_dims(build_algebra((), 5, rs), 4)
    assert gc.dims() == [1, 3, 11, 24, 56]
    fk = frobenius_kernel_character((0, 0, 0), (), rs, enumerate_group(rs),
                                    "modular", 5, 4)
    assert gc == fk.collapse()


@pytest.mark.parametrize("label,p,degree,dims", (
    ("G2", 7, 3, [1, 2, 8, 14]),
    ("B2", 5, 8, [1, 2, 6, 10, 19, 28, 44, 60, 85]),
    ("A2", 7, 10, [1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51])),
    ids=("G2-p7-d3", "B2-p5-d8", "A2-p7-d10"))
def test_ext_matches_prediction_beyond_the_old_reach(monkeypatch, label, p,
                                                     degree, dims):
    """G2 p=7 (7^6 is over the default budget) and degrees above 6, which
    `ext_dims` used to refuse, against the Frobenius-kernel prediction;
    each has p > h."""
    monkeypatch.setattr(restricted, "DEFAULT_DIM_BUDGET", 7 ** 6)
    rs = build(label)
    gc, res = ext_dims(build_algebra((), p, rs), degree)
    assert gc.dims() == dims
    fk = frobenius_kernel_character((0,) * rs.rank, (), rs,
                                    enumerate_group(rs), "modular", p, degree)
    assert res.ext_character() == fk.collapse()


# -- images by left multiplication ---------------------------------------


TWO_PATH_CASES = (("A2", 3, ()), ("A2", 3, (0,)), ("B2", 5, ()),
                  ("B2", 5, (0,)), ("A3", 3, (1,)))


@pytest.fixture(scope="module")
def resolutions():
    """Each case's resolution through degree 3, with one image memo per
    stage shared by all examples."""
    out = {}
    for label, p, J in TWO_PATH_CASES:
        res = MinimalResolution(build_algebra(J, p, build(label)), 3)
        out[label, p, J] = res, [{} for _ in res.stages]
    return out


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(TWO_PATH_CASES), data=st.data())
def test_memoised_image_matches_mult_mono(resolutions, case, data):
    """d(x^a g) from `_image` (x_h times the image one step lower) equals
    sum c mult_mono(a, m) (t, m) over the terms c (t, m) of d(g)."""
    res, memos = resolutions[case]
    alg = res.alg
    degree = data.draw(st.integers(1, res.max_degree))
    diff = res.stages[degree].differential
    g = data.draw(st.integers(0, len(diff) - 1))
    a = tuple(data.draw(st.lists(st.integers(0, alg.p - 1),
                                 min_size=alg.n, max_size=alg.n)))
    expected: dict = {}
    for (t, m), c in _decode(alg, diff[g]).items():
        for m3, c3 in alg.mult_mono(a, m).items():
            expected[(t, m3)] = (expected.get((t, m3), 0) + c * c3) % alg.p
    expected = {k: v for k, v in expected.items() if v}
    key = g * alg.dimension + alg.mono_index(a)
    assert _decode(alg, res._image(diff, {}, key)) == expected
    assert _decode(alg, res._image(diff, memos[degree], key)) == expected


def test_build_calls_no_mult_mono_and_keeps_no_image_memo(monkeypatch):
    """The resolution multiplies by `times` alone, and each stage's
    image memos are unreachable once the build ends."""
    calls = []
    mult_mono = RestrictedAlgebra.mult_mono
    monkeypatch.setattr(RestrictedAlgebra, "mult_mono",
                        lambda *args: calls.append(args) or mult_mono(*args))
    memos = {}
    image = MinimalResolution._image

    def recording(self, images, memo, key):
        memos[id(memo)] = memo
        return image(self, images, memo, key)

    monkeypatch.setattr(MinimalResolution, "_image", recording)
    alg = build_algebra((), 5, build("B2"))
    res = MinimalResolution(alg, 4)
    assert res.betti() == [1, 2, 6, 10, 19]
    assert calls == [] and alg._mono_cache == {}
    # stages 1-4 each read two memos: the images of their own differential
    # and, for the kernel rebuilds, those of the differential below
    assert len(memos) == 8
    for memo in memos.values():
        assert memo
        holders = [r for r in gc.get_referrers(memo)
                   if r is not memos and not inspect.isframe(r)]
        assert holders == []


@pytest.mark.parametrize("label,p,degree", (("B2", 5, 4), ("A2", 3, 6)))
def test_stage_builds_each_image_once_and_spans_only_may_weights(
        monkeypatch, label, p, degree):
    """No memo, neither a stage's own nor the one its kernel rebuilds read,
    builds an image twice; stage n creates one Span without combinations at
    each weight of W_n (`_may_weights`) where K is not 0, and at no other
    weight; and every memo is unreachable once the build ends."""
    alg = build_algebra((), p, build(label))
    memos, built, events = {}, set(), []
    image, block = MinimalResolution._image, MinimalResolution._block

    def recording_image(self, images, memo, key):
        memos[id(memo)] = memo
        if key % alg.dimension and key not in memo:
            assert (id(memo), key) not in built
            built.add((id(memo), key))
        return image(self, images, memo, key)

    def recording_block(self, gens, wt):
        if all(gens is not st.gens for st in self.stages):
            # the generators of the stage being built
            events.append((len(self.stages), wt))
        return block(self, gens, wt)

    class RecordingSpan(Span):
        def drop_combinations(self):
            events.append("span")
            super().drop_combinations()

    monkeypatch.setattr(MinimalResolution, "_image", recording_image)
    monkeypatch.setattr(MinimalResolution, "_block", recording_block)
    monkeypatch.setattr(restricted, "Span", RecordingSpan)
    res = MinimalResolution(alg, degree)
    # each span is followed by the block of the weight it spans
    spanned = [events[i + 1] for i, e in enumerate(events) if e == "span"]
    assert "span" not in spanned
    for n in range(1, degree + 1):
        may = _may_weights(alg, n)
        expected = sorted(wt for wt in may if res._kernel_dim(n - 1, wt))
        assert expected
        assert sorted(wt for m, wt in spanned if m == n) == expected
    # stages 1 to degree each read two memos: the images of their own
    # differential and, for the kernel rebuilds, those of the one below
    assert len(memos) == 2 * degree
    assert len(built) == sum(map(len, memos.values()))
    gc.collect()
    for memo in memos.values():
        holders = [r for r in gc.get_referrers(memo)
                   if r is not memos and not inspect.isframe(r)]
        assert holders == []


# -- the May weights and the generating roots ------------------------------


# every case whose build without the cap takes at most about 2 s, and the
# p = 2, 3 cases where some structure constants vanish mod p
CAP_CASES = (("A1", 2, (), 6), ("A1", 3, (), 6), ("A2", 2, (), 6),
             ("A2", 3, (), 6), ("A2", 5, (), 6), ("A3", 2, (), 5),
             ("B2", 5, (), 5), ("B2", 5, (0,), 6), ("B2", 7, (), 4),
             ("A3", 3, (1,), 4), ("A3", 5, (0, 1), 5), ("B2", 2, (), 6),
             ("G2", 2, (), 5), ("G2", 3, (), 4), ("G2", 3, (1,), 4))
CAP_IDS = tuple(f"{label}-p{p}{'-J' if J else ''}{''.join(map(str, J))}"
                f"-d{degree}" for label, p, J, degree in CAP_CASES)


def _may_top(alg, n):
    """H_n, the largest height over W_n (`_may_weights`), in `_height_form`
    units."""
    form = _height_form(alg.rs)
    return max(sum(map(mul, form, wt)) for wt in _may_weights(alg, n))


def _everywhere(alg, n):
    """Every weight of the positive root lattice up to n times the top
    weight of A, in each simple-root coordinate: F_(n-1), and with it K,
    lies there, since each generator of F_k lies in K_(k-1) inside
    F_(k-1)."""
    top = [(alg.p - 1) * sum(col) for col in zip(*alg.roots)]
    return {alg.rs.root_to_fund(c)
            for c in product(*(range(n * t + 1) for t in top))}


@pytest.fixture(scope="module")
def uncapped():
    """Each CAP_CASES resolution built with `_may_weights` patched to
    `_everywhere`, so that stage n visits every weight where K is not 0;
    built on first use.  Each build is checked to visit exactly those
    weights, and some weight off W_n."""
    built = {}
    block = MinimalResolution._block

    def get(label, p, J, degree):
        if (label, p, J, degree) in built:
            return built[label, p, J, degree]
        alg = build_algebra(J, p, build(label))
        visits = {}

        def recording_block(self, gens, wt):
            if all(gens is not st.gens for st in self.stages):
                # the generators of the stage being built
                visits.setdefault(len(self.stages), set()).add(wt)
            return block(self, gens, wt)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(restricted, "_may_weights", _everywhere)
            mp.setattr(MinimalResolution, "_block", recording_block)
            res = built[label, p, J, degree] = MinimalResolution(alg, degree)
        # K_(n-1) lies in F_(n-1): stage n visited every weight of F_(n-1)
        # where K_(n-1) is not 0, and no other
        support = {n: {tuple(map(add, gw, mw)) for gw in res.stages[n - 1].gens
                       for mw in alg.by_weight}
                   for n in range(1, degree + 1)}
        assert visits == {n: {wt for wt in wts if res._kernel_dim(n - 1, wt)}
                          for n, wts in support.items()}
        off = [wt for n, wts in visits.items() for wt in wts
               if wt not in _may_weights(alg, n)]
        # u(u) = k[x]/(x^2) is periodic: K is nonzero only on W_n
        assert off or (label, p) == ("A1", 2)
        return res
    return get


@pytest.mark.parametrize("label,p,J,degree", CAP_CASES, ids=CAP_IDS)
def test_capped_stages_match_uncapped(uncapped, label, p, J, degree):
    """Stopping each stage at the May bound changes no generator weight and
    no differential."""
    full = uncapped(label, p, J, degree)
    capped = MinimalResolution(build_algebra(J, p, build(label)), degree)
    assert [st.gen_weights for st in capped.stages] == \
        [st.gen_weights for st in full.stages]
    assert [[list(e.items()) for e in st.differential]
            for st in capped.stages] == \
        [[list(e.items()) for e in st.differential] for st in full.stages]
    assert capped.check_minimal() and capped.check_complex()


@pytest.mark.parametrize("label,p,J,degree", CAP_CASES, ids=CAP_IDS)
def test_may_bound_holds_and_is_reached_in_even_degrees(uncapped, label, p,
                                                        J, degree):
    """Without the cap, no generator of degree n lies above H_n, and in
    even degrees the highest one is at H_n: the class of x_theta^(1) to
    the power n/2."""
    res = uncapped(label, p, J, degree)
    form = _height_form(res.alg.rs)
    for st in res.stages:
        top = max(sum(map(mul, form, wt)) for wt in st.gen_weights)
        bound = _may_top(res.alg, st.degree)
        assert top <= bound
        if st.degree % 2 == 0:
            assert top == bound


@pytest.mark.parametrize("label,p,J,degree", CAP_CASES, ids=CAP_IDS)
def test_may_weights_hold_every_generator(uncapped, label, p, J, degree):
    """Without the cap, every generator of degree n lies in W_n, and H_n is
    the largest height over W_n: p i R + (the sum of the j largest root
    heights) at best over 2i + j = n, R the largest root height."""
    res = uncapped(label, p, J, degree)
    alg = res.alg
    form = _height_form(alg.rs)
    heights = sorted((sum(map(mul, form, f)) for f in alg.root_weights),
                     reverse=True)
    for st in res.stages:
        n, may = st.degree, _may_weights(alg, st.degree)
        assert set(st.gen_weights) <= may
        assert _may_top(alg, n) == max(
            p * i * heights[0] + sum(heights[:n - 2 * i])
            for i in range(n // 2 + 1) if n - 2 * i <= len(heights))


@pytest.mark.parametrize("label,J", (("A2", ()), ("B2", ()), ("G2", (1,)),
                                     ("A3", (0,))))
def test_may_weights_for_p2_are_those_of_the_symmetric_power(label, J):
    """For p = 2, W_n is the set of sums of n nilradical roots, repeats
    allowed: the weights of S^n(u_J*)."""
    alg = build_algebra(J, 2, build(label))
    for n in range(6):
        sums = {tuple(map(sum, zip((0,) * alg.rs.rank, *roots)))
                for roots in combinations_with_replacement(alg.root_weights, n)}
        assert _may_weights(alg, n) == sums


@pytest.mark.parametrize("label,p,J,degree", CAP_CASES, ids=CAP_IDS)
def test_euler_kernel_dims_match_kernels(label, p, J, degree):
    """At every weight of the free modules up to H_max, the largest height
    over the May weights of the stages built, dim K_n from the Euler
    characteristic of the finished stages (`_kernel_dim`, which the build
    reads) equals dim A - [wt = 0] for n = 0 and the number of kernel
    elements `_d_block` finds for d_n for n >= 1."""
    alg = build_algebra(J, p, build(label))
    res = MinimalResolution(alg, degree)
    form = _height_form(alg.rs)
    top = max(_may_top(alg, n) for n in range(degree + 1))
    weights = {tuple(map(add, gw, mw))
               for st in res.stages for gw in st.gens for mw in alg.by_weight}
    weights = {wt for wt in weights if sum(map(mul, form, wt)) <= top}
    zero = (0,) * alg.rs.rank
    assert {wt: res._kernel_dim(0, wt) for wt in weights} == \
        {wt: len(alg.by_weight.get(wt, ())) - (wt == zero) for wt in weights}
    for n in range(1, degree + 1):
        memo = {}
        assert {wt: res._kernel_dim(n, wt) for wt in weights} == \
            {wt: len(res._d_block(n, res._block(res.stages[n].gens, wt),
                                  memo)[2]) for wt in weights}


@pytest.mark.parametrize("label,J", (("A1", (0,)), ("A2", (0, 1)),
                                     ("B2", (0, 1))))
def test_may_weights_of_an_empty_nilradical_are_empty(label, J):
    alg = build_algebra(J, 5, build(label))
    assert alg.n == 0
    assert _may_weights(alg, 0) == {(0,) * alg.rs.rank}
    assert not any(_may_weights(alg, n) for n in range(1, 7))
    assert MinimalResolution(alg, 4).betti() == [1, 0, 0, 0, 0]


# (type, p, generating roots beyond the simple ones)
GENERATING_CASES = (("B2", 3, set()), ("G2", 5, set()), ("B2", 2, {(1, 2)}),
                    ("G2", 2, {(2, 1)}), ("G2", 3, {(3, 1)}))


@pytest.mark.parametrize("label,p,extra", GENERATING_CASES,
                         ids=[f"{c[0]}-p{c[1]}" for c in GENERATING_CASES])
def test_generating_roots(label, p, extra):
    """Ext^1 = (u_J / [u_J, u_J])^*, so the stage-1 generators sit at the
    roots that generate u(u_J), those that no bracket with a constant
    nonzero mod p reaches: the simple ones when no structure constant
    vanishes mod p, and a root that only brackets with a constant 0 mod p
    reach joins them."""
    rs = build(label)
    alg = build_algebra((), p, rs)
    simple = {tuple(int(i == j) for i in range(rs.rank))
              for j in range(rs.rank)}
    targets = {k for k, c in alg.bracket.values() if c}
    generating = {alg.roots[g] for g in range(alg.n) if g not in targets}
    assert generating == simple | extra
    stage = MinimalResolution(alg, 1).stages[1]
    assert sorted(stage.gen_weights) == \
        sorted(rs.root_to_fund(r) for r in generating)
