"""Formal characters on the weight lattice.

A FormalCharacter is a finitely supported Z-valued function on weights
(fundamental coordinates).  Levi simple characters are computed
characteristic-zero style by Freudenthal's recursion; every weight this
package feeds in lies in the regime where the modular Levi simple agrees
with the Weyl character, and the operation documents (but does not police)
that assumption.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import mul

from .rootsystem import RootSystem, build


class FormalCharacter:
    """Finitely supported integer multiplicity function on the weight lattice."""

    __slots__ = ("support",)

    def __init__(self, support=None):
        self.support = {}
        if support:
            for mu, m in dict(support).items():
                if m:
                    self.support[tuple(mu)] = int(m)

    @classmethod
    def single(cls, mu, mult=1):
        return cls({tuple(mu): mult})

    def dim(self) -> int:
        return sum(self.support.values())

    def __add__(self, other):
        out = dict(self.support)
        for mu, m in other.support.items():
            out[mu] = out.get(mu, 0) + m
        return FormalCharacter(out)

    def __sub__(self, other):
        out = dict(self.support)
        for mu, m in other.support.items():
            out[mu] = out.get(mu, 0) - m
        return FormalCharacter(out)

    def __mul__(self, other):
        """Convolution product = character of the tensor product."""
        out = {}
        for mu, m in self.support.items():
            for nu, n in other.support.items():
                key = tuple(a + b for a, b in zip(mu, nu))
                out[key] = out.get(key, 0) + m * n
        return FormalCharacter(out)

    def scale(self, c: int):
        return FormalCharacter({mu: c * m for mu, m in self.support.items()})

    def __eq__(self, other):
        return isinstance(other, FormalCharacter) and self.support == other.support

    def __bool__(self):
        return bool(self.support)

    def items(self):
        return sorted(self.support.items())

    def to_json(self):
        return [[list(mu), m] for mu, m in self.items()]

    def __repr__(self):
        return f"FormalCharacter({dict(self.items())})"


class GradedCharacter:
    """A formal character per cohomological degree."""

    def __init__(self, degrees=None):
        self.degrees: list[FormalCharacter] = list(degrees or [])

    def __getitem__(self, n) -> FormalCharacter:
        if 0 <= n < len(self.degrees):
            return self.degrees[n]
        return FormalCharacter()

    def __len__(self):
        return len(self.degrees)

    def set_degree(self, n, chi: FormalCharacter):
        while len(self.degrees) <= n:
            self.degrees.append(FormalCharacter())
        self.degrees[n] = chi

    def dims(self) -> list[int]:
        return [chi.dim() for chi in self.degrees]

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        n = max(len(self.degrees), len(other.degrees))
        return all(self[k] == other[k] for k in range(n))

    def to_json(self):
        return [{"degree": n, "character": chi.to_json()}
                for n, chi in enumerate(self.degrees)]


def format_poincare(dims) -> str:
    """Stable ascii Poincare polynomial, e.g. '1 + 2t + 2t^2 + t^3'."""
    terms = []
    for n, d in enumerate(dims):
        if d == 0:
            continue
        if n == 0:
            terms.append(str(d))
        elif n == 1:
            terms.append(f"{d}t" if d != 1 else "t")
        else:
            terms.append(f"{d}t^{n}" if d != 1 else f"t^{n}")
    return " + ".join(terms) if terms else "0"


# ----------------------------------------------------------------------
# Levi simple characters (Freudenthal recursion)


def _j_dominant(mu: tuple, J) -> tuple:
    """J as a sorted tuple, once mu is checked to be J-dominant."""
    J = tuple(sorted(set(J)))
    for i in J:
        if mu[i] < 0:
            raise ValueError(f"{mu} is not J-dominant for J={J}")
    return J


def _dominant_rep_ordinary(nu: tuple, J, rs: RootSystem):
    """(W_J-dominant representative under the ordinary (undotted) action,
    number of simple reflections taken).  Each reflection lowers the length
    of the element still to apply by one, so the loop ends."""
    steps = 0
    while True:
        for i in J:
            if nu[i] < 0:
                nu = rs.reflect(nu, i)
                steps += 1
                break
        else:
            return nu, steps


def levi_simple_character(mu: tuple, J, rs: RootSystem) -> FormalCharacter:
    """Character of the Levi highest-weight simple L_J(mu), char-0 style."""
    return _levi_character_cached(rs.label, tuple(mu), _j_dominant(mu, J))


@lru_cache(maxsize=None)
def _levi_character_cached(label: str, mu: tuple, J: tuple) -> FormalCharacter:
    rs = build(label)
    if not J:
        return FormalCharacter.single(mu)
    phi_j = rs.phi_j_plus(J)
    rho_j2 = tuple(map(sum, zip(*map(rs.root_to_fund, phi_j))))  # 2 rho_J

    # doubled coordinates and the scaled form keep every norm integral
    def norm2_shifted(nu):
        v = tuple(2 * a + b for a, b in zip(nu, rho_j2))  # 2(nu + rho_J)
        return rs.inner_scaled(v, v)  # = D * 4 |nu + rho_J|^2

    top = norm2_shifted(mu)
    scale = 8 * rs.inner_denominator
    # (nu, gamma) = sum_j d_j nu_j gamma_j with gamma in root coordinates
    d_gamma = [tuple(d * c for d, c in zip(rs.d, gamma)) for gamma in phi_j]
    gamma_fund = [rs.root_to_fund(gamma) for gamma in phi_j]
    simple_j_fund = {i: rs.simple_root_fund(i) for i in J}
    dominant_mults: dict[tuple, int] = {}
    # root coordinates of mu - nu, a nonnegative combination of J simples
    depth = {mu: (0,) * rs.rank}

    def mult_of(nu):
        rep, _ = _dominant_rep_ordinary(nu, J, rs)
        return dominant_mults.get(rep, 0)

    # BFS levels over mu - N.Phi_J, pruned by the norm inequality
    level = {mu}
    dominant_mults[mu] = 1
    while level:
        children = set()
        for nu in level:
            for i in J:
                child = tuple(a - b for a, b in zip(nu, simple_j_fund[i]))
                if child in depth:
                    continue
                if norm2_shifted(child) > top:
                    continue
                dep = list(depth[nu])
                dep[i] += 1
                depth[child] = tuple(dep)
                children.add(child)
        # compute multiplicities for the J-dominant children of this level
        for nu in sorted(children):
            if any(nu[i] < 0 for i in J):
                continue
            denom = top - norm2_shifted(nu)  # 4D(|mu+rho|^2 - |nu+rho|^2)
            if denom == 0:
                continue
            dep = depth[nu]
            s = 0
            for gamma, dg, gf in zip(phi_j, d_gamma, gamma_fund):
                k = 1
                while True:
                    up = tuple(a + k * b for a, b in zip(nu, gf))
                    m = mult_of(up)
                    if m == 0 and any(x < k * c for x, c in zip(dep, gamma)):
                        break  # mu - up is not in N.Phi_J
                    if m:
                        s += m * sum(map(mul, up, dg))
                    k += 1
            # 2 s / (|mu+rho|^2 - |nu+rho|^2), norms were scaled by 4D
            val, rem = divmod(scale * s, denom)
            assert rem == 0
            if val:
                dominant_mults[nu] = val
        level = children

    out = {}
    # expand dominant multiplicities over W_J orbits
    for rep, m in dominant_mults.items():
        orbit = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for nu in frontier:
                for i in J:
                    if nu[i] and (img := rs.reflect(nu, i)) not in orbit:
                        orbit.add(img)
                        nxt.append(img)
            frontier = nxt
        for nu in orbit:
            out[nu] = m
    return FormalCharacter(out)


def weyl_dimension_levi(mu: tuple, J, rs: RootSystem) -> int:
    """dim L_J(mu) by Weyl's formula: the product over gamma in Phi_J^+ of
    <mu + rho, gamma^vee> / <rho, gamma^vee>.  Each such gamma^vee lies in
    the span of the J coroots, where rho pairs as rho_J does."""
    num = den = 1
    for gamma in rs.phi_j_plus(_j_dominant(mu, J)):
        cor = rs.coroot_coords[rs.pos_index[gamma]]
        num *= sum(map(mul, mu, cor)) + sum(cor)
        den *= sum(cor)
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


# ----------------------------------------------------------------------
# Euler induction, twists, symmetric powers


def euler_induction(chi: FormalCharacter, J, rs: RootSystem) -> FormalCharacter:
    """Weyl-Euler characteristic of induction from B to P_J, at character level.

    Each support weight mu contributes 0 if mu is W_J-dot-singular, else
    (-1)^{l(u)} ch L_J(u . mu) for the unique u making u . mu J-dominant.
    """
    J = tuple(sorted(set(J)))
    out = FormalCharacter()
    for mu, m in chi.items():
        res = _dominant_dot_correction(mu, J, rs)
        if res is None:
            continue
        sign, dom = res
        out = out + levi_simple_character(dom, J, rs).scale(sign * m)
    return out


def _dominant_dot_correction(mu: tuple, J, rs: RootSystem):
    """(sign, nu) with nu = u.mu J-dominant, or None if dot-singular."""
    shifted, steps = _dominant_rep_ordinary(
        tuple(m + r for m, r in zip(mu, rs.rho)), J, rs)
    if any(shifted[i] == 0 for i in J):
        return None
    return (-1) ** steps, tuple(c - r for c, r in zip(shifted, rs.rho))


def frobenius_twist(chi: FormalCharacter, m: int) -> FormalCharacter:
    """Scale every support weight by m (character of the Frobenius twist)."""
    if m < 1:
        raise ValueError("twist factor must be >= 1")
    return FormalCharacter({tuple(m * c for c in mu): mult
                            for mu, mult in chi.support.items()})


def symmetric_character(roots, degree: int, rs: RootSystem) -> FormalCharacter:
    """Character of S^degree on the dual of the span of the given roots."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    roots = list(roots)
    out = {}
    for combo in combinations_with_replacement(range(len(roots)), degree):
        w = [0] * rs.rank
        for idx in combo:
            f = rs.root_to_fund(roots[idx])
            for k in range(rs.rank):
                w[k] -= f[k]
        key = tuple(w)
        out[key] = out.get(key, 0) + 1
    chi = FormalCharacter(out)
    assert chi.dim() == comb(len(roots) + degree - 1, degree) if degree else 1
    return chi
