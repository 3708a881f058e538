"""Ext algebra of the restricted enveloping algebra of the nilradical.

Builds u(u_J) over F_p on PBW monomials with x_gamma^p = 0, computes a
minimal free resolution of the trivial module, reads off Betti numbers with
T-weights, and evaluates Yoneda products by chain-map lifting.  This is the
from-first-principles check of the character-level predictions.

Each stage of the resolution is one pass over the weights in order of
height, in the manner of R. Bruner, "Calculation of large Ext modules"
(1989).  The dimension of K = ker d_(n-1) at a weight is read off the
finished stages alone: 0 -> K_(n-1) -> F_(n-1) -> ... -> F_0 -> k -> 0 is
exact, so dim K_(n-1) is the alternating sum of dim F_k over k < n, less
(-1)^(n-1) at weight 0 (`MinimalResolution._kernel_dim`).  At each weight
the images d(a g) of the basis elements above generators of lower weight
span A_+K there; where that span is smaller than K, a basis of K is
rebuilt from d_(n-1) and the elements the span misses are the new
generators.  No kernel passes between stages.

Each stage visits only the May weights.  May's filtration gives the
Friedlander-Parshall spectral sequence E_2^{2i,j} = S^i(u_J*)^(1) (x)
H^j(u_J, k) => H^{2i+j}((U_J)_1, k) (Friedlander-Parshall, Amer. J. Math.
108, 1986; J. P. May, J. Algebra 3, 1966), which is T-equivariant, so every
stage-n generator has a weight in W_n, the set of p (a sum of i nilradical
roots, repeats allowed) + (a sum of j distinct ones) over 2i + j = n
(`_may_weights`).  Stage n visits only the weights of W_n where K is not
0, and counts K only there.  Skipping the others is exact: no generator
lies there, so the span would take all of K at each of them; a visit
leaves nothing behind but the generators it finds, and the images a block
needs are built from lower ones wherever those lie; and every generator
of F_n is known, so dim F_n, and with it dim K_n, is exact at every
weight.  Where a weight gets generators, the span has taken every image
of its block, so the stages are those of a build that visits every
weight.

Each image is derived from one a step lower, as in Bruner's scheme: with h
the first index where a_h > 0, x^a = x_h x^(a - e_h) in PBW order, so
d(x^a g) = x_h d(x^(a - e_h) g).  `_image` builds the lower images of a
chain on demand, into a memo that lives for one stage and is never
evicted, so no image is built twice.  At a visited weight the span stops
once it is all of K, so only the images it reads, and the lower ones they
come from, are built.

The resolution, its Yoneda products and its certificate read the algebra
through these members alone: `rs`, `J`, `p`, `dimension`, `by_weight`
(monomial indices by T-weight), `root_weights` (the nilradical roots in
fundamental coordinates), `times(g, vec)` (x_g vec) and `lower(i)` (x^a =
x_h x^(a - e_h) on indices); and, on the reference path, `monomials`,
`mono_index` and `mult_mono`, through which `check_complex` reads
d^2 = 0.  How the indices are laid out, and how `times` finds its
products, is the algebra's own affair.  A basis element x^m e_s of a
free module is one int, s * dimension + the index of m, so no tuple is
hashed in the inner loop.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import lcm
from operator import add, mul, sub

from .alcoves import PreconditionError, require_prime
from .characters import FormalCharacter, GradedCharacter
from .koszul import nilradical_constants
from .linalg import Span
from .rootsystem import RootSystem

DEFAULT_DIM_BUDGET = 5 ** 6


class BudgetError(RuntimeError):
    pass


class RestrictedAlgebra:
    """u(u_J) over F_p: PBW monomials x^a, 0 <= a_gamma < p, x_gamma^p = 0.

    A monomial is known by its index, its position in the lexicographic
    order of `monomials` (`mono_index`); index 0 is the unit."""

    def __init__(self, J, p: int, rs: RootSystem):
        require_prime(p, "the restricted enveloping algebra")
        self.rs = rs
        self.p = p
        self.J = tuple(sorted(set(J)))
        self.roots = rs.nilradical_roots(self.J)
        self.n = len(self.roots)
        self.dimension = p ** self.n
        if self.dimension > DEFAULT_DIM_BUDGET:
            raise BudgetError(f"algebra dimension p^N = {p}^{self.n} exceeds"
                              f" budget {DEFAULT_DIM_BUDGET}")
        # [x_a, x_b] = c * x_k for nilradical positions a < b, c mod p
        self.bracket = {ab: (k, val % p) for ab, (k, val)
                        in nilradical_constants(rs, self.roots).items()}
        self._check_restricted()
        self._mono_cache: dict = {}
        self.root_weights = [rs.root_to_fund(g) for g in self.roots]
        # the monomials by index, the first nonzero exponent of each, the
        # index step p^(n-1-k) of x_k, and the one table of products x_g x^m
        # by index, straightened as they are read
        self.monomials = list(product(range(p), repeat=self.n))
        self._lead = [next((k for k, a in enumerate(m) if a), None)
                      for m in self.monomials]
        self._step = [p ** (self.n - 1 - k) for k in range(self.n)]
        self._gen_index: list[list] = [[None] * self.dimension
                                       for _ in range(self.n)]
        # {T-weight: increasing indices}, the weight of x^a being sum
        # a_gamma * gamma in fund coords; the unit is alone at weight 0, so
        # the other blocks are the basis of A_+ by weight
        self.by_weight: dict[tuple, list] = {}
        for i, m in enumerate(self.monomials):
            wt = tuple(sum(a * f[t] for a, f in zip(m, self.root_weights))
                       for t in range(rs.rank))
            self.by_weight.setdefault(wt, []).append(i)

    def _check_restricted(self):
        """(ad x_gamma)^p = 0: the adjoint operators are nilpotent of order
        at most the root-string length, which must stay below p."""
        for g in range(self.n):
            mat = [[0] * self.n for _ in range(self.n)]
            for (a, b), (k, c) in self.bracket.items():
                if a == g:
                    mat[k][b] = c
                elif b == g:
                    mat[k][a] = (-c) % self.p
            cur = [row[:] for row in mat]
            power = 1
            while any(any(row) for row in cur) and power <= self.p:
                cur = [[sum(cur[r][t] * mat[t][c] for t in range(self.n)) % self.p
                        for c in range(self.n)] for r in range(self.n)]
                power += 1
            if power > self.p:
                raise RuntimeError(
                    "(ad x)^p != 0: outside the modeled restricted regime")

    # -- multiplication ------------------------------------------------

    def mono_index(self, mono: tuple) -> int:
        """The index of x^mono: sum mono_k p^(n-1-k), its position in the
        lexicographic order of `monomials`."""
        i = 0
        for a in mono:
            i = i * self.p + a
        return i

    def _mult_gen_index(self, g: int, i: int) -> tuple:
        """x_g * x^(monomials[i]) as ((index, coeff mod p), ...), kept in
        `_gen_index`.  With h the first index where m_h > 0, x_g x^m is
        already in PBW order when g <= h; otherwise x^m = x_h x^(m - e_h)
        and x_g x_h = x_h x_g + [x_g, x_h]."""
        out = self._gen_index[g][i]
        if out is not None:
            return out
        p, step = self.p, self._step
        h = self._lead[i]
        if h is None or g <= h:
            out = () if i // step[g] % p == p - 1 else ((i + step[g], 1),)
        else:
            rest = i - step[h]
            acc: dict = {}
            for t, c in self._mult_gen_index(g, rest):
                for t2, c2 in self._mult_gen_index(h, t):
                    acc[t2] = (acc.get(t2, 0) + c * c2) % p
            br = self.bracket.get((h, g))
            if br is not None:
                k, cN = br
                c = (-cN) % p  # [x_g, x_h] = -[x_h, x_g]
                for t, c2 in self._mult_gen_index(k, rest):
                    acc[t] = (acc.get(t, 0) + c * c2) % p
            out = tuple((t, c) for t, c in acc.items() if c)
        self._gen_index[g][i] = out
        return out

    def lower(self, i: int) -> tuple:
        """(h, j) with x^(monomials[i]) = x_h x^(monomials[j]) in PBW order,
        for i > 0: h is the first index where the exponent is positive."""
        h = self._lead[i]
        return h, i - self._step[h]

    def times(self, g: int, vec: dict) -> dict:
        """x_g vec for an element vec keyed s * dimension + index, reduced
        mod p: x_g x^m e_s is read off `_gen_index` at the index of m and
        moved to the block of e_s."""
        dim, row = self.dimension, self._gen_index[g]
        out: dict = {}
        get = out.get
        for key, c in vec.items():
            i = key % dim
            prods = row[i]
            if prods is None:
                prods = self._mult_gen_index(g, i)
            base = key - i
            for j, c2 in prods:
                j += base
                out[j] = get(j, 0) + c * c2
        p = self.p
        return {key: r for key, x in out.items() if (r := x % p)}

    def mult_mono(self, a: tuple, mono: tuple) -> dict:
        """x^a * x^mono as {monomial: coeff mod p}."""
        if not any(a):
            return {mono: 1}
        key = (a, mono)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        g = max(k for k, v in enumerate(a) if v)
        head = list(a)
        head[g] -= 1
        head = tuple(head)
        out = {}
        for j, c in self._mult_gen_index(g, self.mono_index(mono)):
            for t2, c2 in self.mult_mono(head, self.monomials[j]).items():
                out[t2] = (out.get(t2, 0) + c * c2) % self.p
        out = {t: c for t, c in out.items() if c}
        self._mono_cache[key] = out
        return out


def build_algebra(J, p: int, rs: RootSystem) -> RestrictedAlgebra:
    return RestrictedAlgebra(J, p, rs)


# ----------------------------------------------------------------------
# Minimal resolution
#
# A free module element is a dict {key: coeff} with one int key per
# basis element: x^m e_s has key s * dimension + mono_index(m), so the
# keys of one generator form a block in lexicographic monomial order.  The
# T-weight of x^m e_s is gen_weight[s] + weight(m); differentials
# preserve weight, so kernels split into small blocks.


class ResolutionStage:
    """The finished stage F_degree.  Per generator, numbered by weight: its
    weight (fund coords) and its image under the differential, an
    int-keyed element of the previous stage.  Stage 0 has one generator of
    weight 0 and the zero map [{}] to k.  `dims` (dim F_degree by weight)
    is filled when `MinimalResolution._kernel_dim` first reads it."""

    def __init__(self, degree: int, gen_weights: list, differential: list):
        self.degree = degree
        self.gen_weights = gen_weights
        self.gens: dict[tuple, list] = {}  # weight -> generator numbers
        for s, wt in enumerate(gen_weights):
            self.gens.setdefault(wt, []).append(s)
        self.differential = differential
        self.dims: dict[tuple, int] | None = None


class MinimalResolution:
    def __init__(self, alg: RestrictedAlgebra, max_degree: int):
        self.alg = alg
        self.max_degree = max_degree
        self.stages: list[ResolutionStage] = []
        # lifting degree k -> (memo of d_k images, weight -> (span of the
        # d_k images of that `_block`, the keys it kept)), what
        # `yoneda_product` reads there.  None of it depends on the classes
        # multiplied, so every product on this resolution shares it; it
        # fills in as products reach it.
        self._liftings: dict[int, tuple] = {}
        # d_0 as the zero map: at a weight other than 0 its kernel is the
        # whole block of A, the augmentation ideal A_+
        self.stages.append(ResolutionStage(0, [(0,) * alg.rs.rank], [{}]))
        for degree in range(1, max_degree + 1):
            self._stage(degree)

    # -- helpers -------------------------------------------------------

    def _block(self, gens: dict, wt: tuple) -> list:
        """Keys of the free module on `gens`, {weight: generator numbers},
        at weight wt: by generator weight, then generator number, then
        monomial index."""
        alg = self.alg
        dim, by_weight = alg.dimension, alg.by_weight
        keys = []
        for w in sorted(gens):
            monos = by_weight.get(tuple(map(sub, wt, w)))
            if monos:
                keys.extend([s * dim + i for s in gens[w] for i in monos])
        return keys

    def _apply(self, images, elem: dict) -> dict:
        """sum c x^m images[s] over the terms c x^m e_s of elem: with a
        stage's differential as `images`, d of an element of that stage.
        The keys are decoded to monomials and each x^m images[s] is formed
        by `mult_mono`, independently of `_image`; `check_complex` reads
        d^2 = 0 through this path."""
        alg = self.alg
        dim, monomials = alg.dimension, alg.monomials
        out: dict = {}
        for key, c in elem.items():
            s, i = divmod(key, dim)
            mono = monomials[i]
            for key2, c2 in images[s].items():
                t, j = divmod(key2, dim)
                for m3, c3 in alg.mult_mono(mono, monomials[j]).items():
                    k3 = t * dim + alg.mono_index(m3)
                    out[k3] = (out.get(k3, 0) + c * c2 * c3) % alg.p
        return {k: v for k, v in out.items() if v}

    def _image(self, images, memo: dict, key: int) -> dict:
        """x^m images[s] for key = s * dimension + index of m, memoised in
        `memo` by key.

        With (h, j) = `lower` of that index, x^m = x_h x^(monomials[j]) in
        PBW order, so the image is x_h times the image one step lower, at
        key - index + j.  A memo serves one map `images`."""
        out = memo.get(key)
        if out is not None:
            return out
        alg = self.alg
        i = key % alg.dimension
        if not i:
            return images[key // alg.dimension]
        h, j = alg.lower(i)
        lower = self._image(images, memo, key - i + j)
        out = memo[key] = alg.times(h, lower)
        return out

    def _d_block(self, degree: int, dom: list, memo: dict | None = None):
        """d_degree on the weight block with keys `dom`.

        Adds the image of each b in `dom` to one Span and returns it, the
        keys whose images it kept, and the kernel basis: for each other
        b, {b: 1} - sum c * kept[i] where add(d b) returned {i: c}.  The
        images come from `_image` with `memo`, a memo of d_degree images
        (a new one when None)."""
        p = self.alg.p
        diff = self.stages[degree].differential
        memo = {} if memo is None else memo
        span = Span(p)
        kept, kernel = [], []
        for b in dom:
            comb = span.add(self._image(diff, memo, b))
            if comb is None:
                kept.append(b)
            else:
                elem = {kept[i]: -comb[i] % p for i in sorted(comb)}
                elem[b] = 1
                kernel.append(elem)
        return span, kept, kernel

    def _kernel_dim(self, n: int, wt: tuple) -> int:
        """dim K_n at weight wt, K_n = ker d_n, from stages 0 to n alone:
        0 -> K_n -> F_n -> K_(n-1) -> 0 is exact for each n, with K_(-1) =
        k at weight 0, so dim K_n = dim F_n - dim K_(n-1), weight by
        weight.  dim F_k is counted from `gens` and `by_weight` once per
        stage, at every weight of F_k, into the stage's `dims`."""
        count = int(not any(wt))
        for st in self.stages[:n + 1]:
            dims = st.dims
            if dims is None:
                dims = st.dims = {}
                for w, gens in st.gens.items():
                    for v, monos in self.alg.by_weight.items():
                        key = tuple(map(add, w, v))
                        dims[key] = dims.get(key, 0) + len(gens) * len(monos)
            count = dims.get(wt, 0) - count
        return count

    def _stage(self, degree: int):
        """Choose the stage-`degree` generators and append the stage.

        Only the weights of W_degree (`_may_weights`) where K = ker
        d_{degree-1} is not 0 (`_kernel_dim`) are visited, by height, so
        every generator of lower weight is known at wt.  A_+K at wt is
        spanned by the images of the block {a g : a in A_+, g of lower
        weight}; a Span without combinations takes them until it is all
        of K, and dim K less its size, `need`, is the number of new
        generators at wt.  Only where `need` is positive is a basis of K
        at wt rebuilt, by `_d_block` on d_{degree-1} over the block of
        F_{degree-1} at wt, and the first `need` of its elements that the
        span misses are the new generators.  The span has then taken
        every image of the block.  That block also holds the generators
        of F_{degree-1} at wt; their images were chosen outside the span
        of the rest of it, so they are kept and add or change no kernel
        element.  Likewise a new generator's image lies outside A_+K, so
        leaving it out of the block changes no span.

        The images are built on demand: `_image` builds the lower images
        of a chain into the stage's memo, which is never evicted, so none
        is built twice."""
        alg = self.alg
        # the weights and images of the generators, in the order found
        gen_weights: list[tuple] = []
        diff: list[dict] = []
        prev = self.stages[degree - 1].gens  # F_{degree-1} by weight
        images: dict = {}  # memo of d(a g) for this stage only
        below: dict = {}  # memo of d_{degree-1} images for the rebuilds
        found: dict[tuple, range] = {}  # weight -> generators there
        form = _height_form(alg.rs)
        for _, wt in sorted((sum(map(mul, form, wt)), wt)
                            for wt in _may_weights(alg, degree)):
            full = self._kernel_dim(degree - 1, wt)
            if not full:
                continue
            span = Span(alg.p)
            span.drop_combinations()
            for key in self._block(found, wt):
                span.add(self._image(diff, images, key))
                if span.size == full:
                    break
            need = full - span.size
            if not need:
                continue
            ker = self._d_block(degree - 1, self._block(prev, wt), below)[2]
            if len(ker) != full:
                raise RuntimeError(
                    f"ker d_{degree - 1} at {wt} has dimension {len(ker)},"
                    f" not {full} as the Euler characteristic says")
            gens = []
            for elem in ker:
                if span.add(elem) is None:
                    gens.append(elem)
                    if len(gens) == need:
                        break
            found[wt] = range(len(diff), len(diff) + len(gens))
            diff.extend(gens)
            gen_weights.extend([wt] * len(gens))
        # number the generators by weight, then in the order found
        order = sorted(range(len(diff)), key=gen_weights.__getitem__)
        self.stages.append(ResolutionStage(
            degree, [gen_weights[s] for s in order], [diff[s] for s in order]))

    # -- outputs -------------------------------------------------------

    def betti(self) -> list[int]:
        return [len(st.gen_weights) for st in self.stages]

    def ext_character(self) -> GradedCharacter:
        """Ext^n graded by T-weight: the dual class of a generator of
        weight mu sits in weight -mu."""
        gc = GradedCharacter()
        for st in self.stages:
            chi: dict = {}
            for wt in st.gen_weights:
                neg = tuple(-c for c in wt)
                chi[neg] = chi.get(neg, 0) + 1
            gc.set_degree(st.degree, FormalCharacter(chi))
        return gc

    def check_minimal(self) -> bool:
        """No differential entry has a unit (constant-term) coefficient:
        no key x^0 e_s = s * dimension with a coefficient nonzero mod p."""
        dim, p = self.alg.dimension, self.alg.p
        return not any(key % dim == 0 and c % p for st in self.stages[1:]
                       for elem in st.differential for key, c in elem.items())

    def check_complex(self) -> bool:
        """d_{n-1} o d_n = 0 on every generator."""
        for degree in range(2, len(self.stages)):
            below = self.stages[degree - 1].differential
            if any(self._apply(below, img)
                   for img in self.stages[degree].differential):
                return False
        return True


def _height_form(rs: RootSystem) -> tuple:
    """Integer form on fundamental coordinates that is a positive multiple
    of the height (the sum of simple-root coordinates), so it grows along
    the weight order."""
    cols = [sum(rs.fund_to_root(tuple(int(i == j) for i in range(rs.rank))))
            for j in range(rs.rank)]
    den = lcm(*(c.denominator for c in cols))
    return tuple(int(c * den) for c in cols)


def _may_weights(alg: RestrictedAlgebra, n: int) -> set:
    """W_n, in fundamental coordinates: the weights p (a sum of i
    nilradical roots, repeats allowed) + (a sum of j distinct ones) with
    2i + j = n.  Every T-weight of a stage-n generator lies in W_n.

    May's filtration gives the Friedlander-Parshall spectral sequence
    E_2^{2i,j} = S^i(u_J*)^(1) (x) H^j(u_J, k) => H^{2i+j}((U_J)_1, k),
    which is T-equivariant, and H^j(u_J, k) is a subquotient of
    Lambda^j(u_J*).  For p = 2 the set is that of the weights of
    S^n(u_J*): split each root's multiplicity into twos and a remainder.
    Empty for n > 0 when the nilradical is."""
    zero = (0,) * alg.rs.rank

    def sums(choose, k):
        return {tuple(map(sum, zip(zero, *roots)))
                for roots in choose(alg.root_weights, k)}

    return {tuple(alg.p * a + b for a, b in zip(sym, ext))
            for i in range(n // 2 + 1)
            for sym in sums(combinations_with_replacement, i)
            for ext in sums(combinations, n - 2 * i)}


def ext_dims(alg: RestrictedAlgebra, max_degree: int = 4):
    """(GradedCharacter, MinimalResolution) through the given degree."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    res = MinimalResolution(alg, max_degree)
    if not res.check_minimal():
        raise RuntimeError("the resolution is not minimal")
    if not res.check_complex():
        raise RuntimeError("the resolution is not a complex (d^2 != 0)")
    return res.ext_character(), res


# ----------------------------------------------------------------------
# Yoneda products


def find_class_by_weight(res: MinimalResolution, degree: int, weight: tuple):
    """Indices of stage-degree generators whose Ext-weight is `weight`."""
    target = tuple(-c for c in weight)
    st = res.stages[degree]
    return [i for i, wt in enumerate(st.gen_weights) if wt == target]


def yoneda_product(res: MinimalResolution, z1, z2):
    """Yoneda/cup product of dual-basis classes z = (degree, gen_index).

    Lifts z2 to a chain map g_k: F_{d2+k} -> F_k and returns the composite
    z1 o g_{d1} as {gen index in degree d1+d2: coeff}.  A class the
    resolution does not hold raises ValueError."""
    betti = res.betti()
    for degree, index in (z1, z2):
        if not (0 <= degree < len(betti) and 0 <= index < betti[degree]):
            raise ValueError(f"no class ({degree}, {index}): the computed"
                             f" Betti numbers are {betti}")
    (d1, g1idx), (d2, g2idx) = z1, z2
    p = res.alg.p
    if d1 + d2 >= len(res.stages):
        raise ValueError("product degree beyond the computed resolution")

    # g_0: F_{d2} -> F_0, e_s -> delta_{s,g2idx} * e_0 (key 0)
    chain: dict[int, list] = {}
    chain[0] = [({0: 1} if s == g2idx else {})
                for s in range(len(res.stages[d2].gen_weights))]
    for k in range(1, d1 + 1):
        src = res.stages[d2 + k].differential
        d_images, d_blocks = res._liftings.setdefault(k, ({}, {}))
        g_images: dict = {}  # memo of a g_{k-1}(e_t), for this call and k
        maps = []
        for s, swt in enumerate(res.stages[d2 + k].gen_weights):
            # rhs = g_{k-1}(d_{d2+k}(e_s)), an element of F_{k-1}
            rhs: dict = {}
            for key, c in src[s].items():
                for key2, c2 in res._image(chain[k - 1], g_images,
                                           key).items():
                    rhs[key2] = (rhs.get(key2, 0) + c * c2) % p
            # solve d_k(x) = rhs with x in the weight block of F_k at
            # weight swt - weight(e_{g2idx})
            wt = tuple(a - b for a, b in
                       zip(swt, res.stages[d2].gen_weights[g2idx]))
            if wt not in d_blocks:
                d_blocks[wt] = res._d_block(
                    k, res._block(res.stages[k].gens, wt), d_images)[:2]
            span, kept = d_blocks[wt]
            sol = span.express(rhs)
            if sol is None:
                raise RuntimeError("chain-map lifting failed (no solution)")
            maps.append({kept[i]: sol[i] for i in sorted(sol)})
        chain[k] = maps

    # z1 o g_{d1}: evaluate the dual cocycle of generator g1idx on each
    # generator image (the unit-coefficient of the g1idx component, whose
    # key is g1idx * dimension; for d1 = 0, g_0 itself)
    unit = g1idx * res.alg.dimension
    return {s: val for s, image in enumerate(chain[d1])
            if (val := image.get(unit, 0) % p)}


def square_certificate(res: MinimalResolution, degree: int, weight: tuple):
    """JSON-ready record that the unique class of the given Ext weight in
    the given degree has nonzero (or zero) square."""
    idxs = find_class_by_weight(res, degree, weight)
    if len(idxs) != 1:
        raise ValueError(
            f"weight space not one-dimensional ({len(idxs)} classes)")
    z = (degree, idxs[0])
    prod = yoneda_product(res, z, z)
    return {
        "degree": 2 * degree,
        "weight": [2 * c for c in weight],
        "nonzero": bool(prod),
        "components": {str(k): v for k, v in sorted(prod.items())},
    }


def certificate(res: MinimalResolution, example=None) -> dict:
    alg, gc = res.alg, res.ext_character()
    out = {
        "type": alg.rs.label,
        "p": alg.p,
        "J": list(alg.J),
        "dims": gc.dims(),
        "weights": gc.to_json(),
    }
    if example is not None:
        out["example_product"] = example
    return out
