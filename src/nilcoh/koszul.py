"""Brute-force Lie algebra cohomology oracle.

Builds integral structure constants for the nilpotent radical from the
positive-root strings (extraspecial-pair signs fixed positive, the rest
forced one at a time by the Jacobi identity in a forward solve, with no
search), assembles the Chevalley-Eilenberg cochain complex on the exterior
algebra of the dual, and computes weight-graded cohomology by exact rank
computations over F_p or Q.  Independent of the coset-representative
decomposition, so it can confirm it.  The wedge sign of two sorted index
sets, `merge_sign`, is defined here, where the differential and the cup
product read it; this module does not import `ring`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import BudgetError
from .alcoves import require_prime
from .characters import FormalCharacter, GradedCharacter
from .linalg import Span
from .rootsystem import RootSystem, build
from .weyl import mask_bits

MAX_ORACLE_ROOTS = 14


# ----------------------------------------------------------------------
# Structure constants


@lru_cache(maxsize=None)
def chevalley_constants(label: str) -> tuple:
    """((i, j), N) for positive-root indices i < j with gamma_i + gamma_j a
    positive root, sorted: integral constants [x_i, x_j] = N * x_{i+j}
    satisfying the Jacobi identity, with |N| = q + 1 from the root string
    and the extraspecial pairs normalized to +.

    The other signs come from a forward solve with no search: passes over
    the Jacobi triples set each N that is the one unset value of a triple's
    identity, until every N is set; then every triple is checked.  A pass
    that sets nothing, a forced value that is not +-|N|, or a failed check
    raises RuntimeError."""
    rs = build(label)
    pos = rs.positive_roots
    index = {g: k for k, g in enumerate(pos)}
    allroots = set(pos) | {tuple(-c for c in g) for g in pos}

    def string_len(beta, delta):
        # largest q with delta - q*beta a root
        q = 0
        cur = tuple(d - b for d, b in zip(delta, beta))
        while cur in allroots:
            q += 1
            cur = tuple(c - b for c, b in zip(cur, beta))
        return q

    # |N| per (i, j) with i < j in convex order and gamma_i+gamma_j in Phi+
    magnitude = {}
    sum_of = {}  # (x, y) -> index of gamma_x + gamma_y, in both orders
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            s = tuple(a + b for a, b in zip(pos[i], pos[j]))
            if s in index:
                magnitude[(i, j)] = string_len(pos[i], pos[j]) + 1
                sum_of[i, j] = sum_of[j, i] = index[s]

    # extraspecial pairs: for each decomposable gamma, the pair with the
    # smallest first index; its sign is the normalization choice (+).
    extraspecial = {}
    for (i, j) in magnitude:
        k = sum_of[i, j]
        if k not in extraspecial or i < extraspecial[k][0]:
            extraspecial[k] = (i, j)
    value = {pq: magnitude[pq] for pq in extraspecial.values()}

    def factor(x, y):
        """(sign, (i, j)) with N_xy = sign * N_ij and i < j."""
        return (1, (x, y)) if x < y else (-1, (y, x))

    # Jacobi triples a < b < c with a nonzero cyclic term N_xy N_(x+y)z (so
    # a + b + c is a positive root; the other triples hold trivially), each
    # as its nonzero terms: (sign, pair, pair') for sign * N[pair] * N[pair']
    triples = sorted({tuple(sorted((x, y, z))) for (x, y), s in sum_of.items()
                      for z in range(len(pos)) if (s, z) in sum_of})
    jacobi = []
    for (a, b, c) in triples:
        terms = []
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            if (x, y) in sum_of:
                (s1, p), (s2, q) = factor(x, y), factor(sum_of[x, y], z)
                terms.append((s1 * s2, p, q))
        jacobi.append(terms)

    def total(terms):
        return sum(sgn * value[p] * value[q] for sgn, p, q in terms)

    # forward solve: a triple with one term holding an unset pair forces it
    while len(value) < len(magnitude):
        before = len(value)
        for terms in jacobi:
            open_terms = [t for t in terms
                          if t[1] not in value or t[2] not in value]
            if len(open_terms) != 1:
                continue
            sgn, p, q = open_terms[0]
            if p not in value and q not in value:
                continue
            unset, known = (p, q) if q in value else (q, p)
            rest = total([t for t in terms if t is not open_terms[0]])
            val, rem = divmod(-rest, sgn * value[known])
            if rem or abs(val) != magnitude[unset]:
                raise RuntimeError(f"no consistent sign assignment for {label}")
            value[unset] = val
        if len(value) == before:
            raise RuntimeError(f"the Jacobi identity leaves signs of {label}"
                               " unforced")
    if any(map(total, jacobi)):
        raise RuntimeError(f"no consistent sign assignment for {label}")
    return tuple(sorted(value.items()))


def nilradical_constants(rs: RootSystem, roots) -> dict:
    """Chevalley constants restricted to the nilradical with the given roots
    (an ideal in u, so sums stay in it): {(a, b): (k, N)} for positions
    a < b in `roots`, meaning [x_a, x_b] = N * x_k."""
    index = {g: k for k, g in enumerate(roots)}
    pos = rs.positive_roots
    out = {}
    for (i, j), val in chevalley_constants(rs.label):
        gi, gj = pos[i], pos[j]
        if gi in index and gj in index:
            a, b = index[gi], index[gj]
            if a > b:
                a, b, val = b, a, -val
            out[(a, b)] = (index[tuple(x + y for x, y in zip(gi, gj))], val)
    return out


# ----------------------------------------------------------------------
# Chevalley-Eilenberg complex


def merge_sign(left: tuple, right: tuple) -> int:
    """Parity of the permutation sorting the concatenation of two sorted
    index tuples (the passes of a right entry over larger left ones); 0 if
    they intersect.  The sign of f_left ^ f_right in the sorted basis, read
    by CEComplex.d_basis_element and cochain_cup, and the reference that
    tests compare ring.mask_scalar's sign with."""
    passes = 0
    for x in left:
        for y in right:
            if x == y:
                return 0
            passes += x > y
    return -1 if passes % 2 else 1


class CEComplex:
    """Cochain complex Lambda^*(u_J^*) with basis f_S, S a sorted index
    subset of the nilradical roots, graded by degree and T-weight."""

    def __init__(self, J, rs: RootSystem):
        self.rs = rs
        self.J = tuple(sorted(set(J)))
        self.roots = rs.nilradical_roots(self.J)
        if len(self.roots) > MAX_ORACLE_ROOTS:
            raise BudgetError(
                f"nilradical has {len(self.roots)} roots; oracle supports"
                f" at most {MAX_ORACLE_ROOTS}")
        self.N = nilradical_constants(rs, self.roots)
        # d f_k = -sum_{a<b, gamma_a+gamma_b=gamma_k} N_{ab} f_a ^ f_b
        self._d_gen: dict[int, dict] = {}
        for ab, (k, val) in self.N.items():
            self._d_gen.setdefault(k, {})[ab] = -val
        # T-weight of each dual generator f_k: minus its root
        self._neg_fund = [tuple(-c for c in rs.root_to_fund(g))
                          for g in self.roots]
        self._d_memo: dict[tuple, dict] = {}
        self._blocks_memo: dict[int, dict] = {}
        self._check_d_squared()

    def weight_of(self, subset) -> tuple:
        w = [0] * self.rs.rank
        for k in subset:
            for t, c in enumerate(self._neg_fund[k]):
                w[t] += c
        return tuple(w)

    def basis(self, degree: int):
        return list(combinations(range(len(self.roots)), degree))

    def d_generator(self, k: int) -> dict:
        """d f_k = -sum_{a<b, gamma_a+gamma_b=gamma_k} N_{ab} f_a ^ f_b."""
        return self._d_gen.get(k, {})

    def d_basis_element(self, subset: tuple) -> dict:
        """Derivation extension: d(f_S) as dict {sorted subset: coeff}.

        Memoised per complex; callers must not mutate the dict."""
        hit = self._d_memo.get(subset)
        if hit is None:
            hit = self._d_memo[subset] = self._d_of(subset)
        return hit

    def _d_of(self, subset: tuple) -> dict:
        out = {}
        for pos_in_s, k in enumerate(subset):
            rest = subset[:pos_in_s] + subset[pos_in_s + 1:]
            lead_sign = -1 if pos_in_s % 2 else 1
            for (a, b), val in self.d_generator(k).items():
                sgn = merge_sign((a, b), rest)  # f_a ^ f_b ^ f_rest, sorted
                if sgn:
                    key = tuple(sorted((a, b, *rest)))
                    out[key] = out.get(key, 0) + lead_sign * val * sgn
        return {k: v for k, v in out.items() if v}

    def blocks_by_weight(self, degree: int) -> dict:
        """{T-weight: [subsets of that weight]} for C^degree, in basis
        order.  Memoised per degree; callers must not mutate it."""
        out = self._blocks_memo.get(degree)
        if out is None:
            out = self._blocks_memo[degree] = {}
            for s in self.basis(degree):
                out.setdefault(self.weight_of(s), []).append(s)
        return out

    def d_matrix(self, degree: int):
        """Matrix of d: C^degree -> C^{degree+1} in the subset bases."""
        dom = self.basis(degree)
        cod = self.basis(degree + 1)
        cod_index = {s: i for i, s in enumerate(cod)}
        rows = [[0] * len(dom) for _ in cod]
        for c, subset in enumerate(dom):
            for tgt, val in self.d_basis_element(subset).items():
                rows[cod_index[tgt]][c] += val
        return rows, dom, cod

    def _check_d_squared(self):
        for deg in range(len(self.roots)):
            for subset in self.basis(deg):
                acc = {}
                for mid, val in self.d_basis_element(subset).items():
                    for tgt, val2 in self.d_basis_element(mid).items():
                        acc[tgt] = acc.get(tgt, 0) + val * val2
                assert not any(acc.values()), f"d^2 != 0 at degree {deg}"


def oracle_cohomology(J, rs: RootSystem, field: str = "Q",
                      p: int | None = None) -> GradedCharacter:
    """Weight-graded cohomology of the nilradical complex.

    field is "Q" or "Fp" (the latter needs p).  Returns the graded
    character; each degree's support lists T-weights with multiplicity.
    """
    if field not in ("Q", "Fp"):
        raise ValueError("field must be 'Q' or 'Fp'")
    if field == "Fp":
        require_prime(p, "the F_p oracle")
    ce = CEComplex(J, rs)
    n = len(ce.roots)
    gc = GradedCharacter()
    # per-weight ranks of d at each degree
    rank_at: dict[tuple, dict[int, int]] = {}
    dim_at: dict[tuple, dict[int, int]] = {}
    for deg in range(n + 1):
        for wt, block in ce.blocks_by_weight(deg).items():
            dim_at.setdefault(wt, {})[deg] = len(block)
            span = Span(None if field == "Q" else p)
            for s in block:
                span.add(ce.d_basis_element(s))
            rank_at.setdefault(wt, {})[deg] = span.size
    for deg in range(n + 1):
        chi = {}
        for wt, dims in dim_at.items():
            d_here = dims.get(deg, 0)
            if not d_here:
                continue
            r_out = rank_at.get(wt, {}).get(deg, 0)
            r_in = rank_at.get(wt, {}).get(deg - 1, 0)
            h = d_here - r_out - r_in
            assert h >= 0
            if h:
                chi[wt] = h
        gc.set_degree(deg, FormalCharacter(chi))
    return gc


# ----------------------------------------------------------------------
# Cochain-level cup products


@lru_cache(maxsize=None)
def _full_complex(label: str) -> CEComplex:
    """The complex of the whole nilradical u (J empty), built and d^2-checked
    once per root system.  Its roots are the positive roots in convex order,
    so f_{Phi(w)} is the cochain on the set bits of the inversion mask."""
    return CEComplex((), build(label))


def cochain_cup(w1, w2, group, rs: RootSystem, field: str = "Q",
                p: int | None = None):
    """Cup product [f_{Phi(w1)}] . [f_{Phi(w2)}] expressed in the basis of
    classes [f_{Phi(w)}], l(w) = l(w1) + l(w2).

    Returns a dict {w: coeff} over minimal-length elements whose inversion
    cochains span the target cohomology weight block (empty dict = zero).
    """
    if field == "Fp":
        require_prime(p, "the F_p cup product")
    ce = _full_complex(rs.label)

    def cochain(w):
        return tuple(mask_bits(group.inversion_mask(w)))

    s1, s2 = cochain(w1), cochain(w2)
    # wedge f_{s1} ^ f_{s2}: sign = parity of merge inversions
    sgn = merge_sign(s1, s2)
    if not sgn:
        return {}
    subset = tuple(sorted(s1 + s2))
    deg = len(subset)
    if deg == 0:
        return {group.identity: Fraction(1) if field == "Q" else 1}
    wt = ce.weight_of(subset)
    # express sgn*f_subset in span{f_{Phi(w)} : l(w)=deg, weight match}
    #                        + image of d on the weight block; the distinct
    # candidate cochains are kept first, as vectors 0 .. len(cand_ws) - 1
    span = Span(None if field == "Q" else p)
    cand_ws = []
    for w in group.elements:
        if w.length == deg and ce.weight_of(s := cochain(w)) == wt:
            span.add({s: 1})
            cand_ws.append(w)
    for s in ce.blocks_by_weight(deg - 1).get(wt, []):
        span.add(ce.d_basis_element(s))
    sol = span.express({subset: sgn})
    if sol is None:
        raise RuntimeError("cup product not expressible; complex inconsistent")
    out = {}
    for k, w in enumerate(cand_ws):
        coeff = sol.get(k)
        if coeff:
            out[w] = int(coeff) if field != "Q" else coeff
    return out
