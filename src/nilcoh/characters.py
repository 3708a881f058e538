"""Formal characters on the weight lattice.

A FormalCharacter is a finitely supported Z-valued function on weights
(fundamental coordinates).  Levi simple characters are computed
characteristic-zero style by Demazure's character formula over a reduced
word of the longest element of W_J, in integers only; every weight this
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
# Levi simple characters (Demazure's character formula)


def _j_dominant(mu: tuple, J) -> tuple:
    """J as a sorted tuple, once mu is checked to be J-dominant."""
    J = tuple(sorted(set(J)))
    for i in J:
        if mu[i] < 0:
            raise ValueError(f"{mu} is not J-dominant for J={J}")
    return J


def levi_simple_character(mu: tuple, J, rs: RootSystem) -> FormalCharacter:
    """Character of the Levi highest-weight simple L_J(mu), char-0 style."""
    return _levi_character_cached(rs.label, tuple(mu), _j_dominant(mu, J))


@lru_cache(maxsize=None)
def _levi_character_cached(label: str, mu: tuple, J: tuple) -> FormalCharacter:
    """D_{i1} ... D_{ik} e^mu over a reduced word s_{i1} ... s_{ik} of the
    longest element of W_J.  With n = <nu, alpha_i^vee>, D_i sends e^nu to
    e^nu + e^{nu - alpha_i} + ... + e^{nu - n alpha_i} when n >= 0, and to
    -(e^{nu + alpha_i} + ... + e^{nu + (-n-1) alpha_i}) when n < 0."""
    rs = build(label)
    chi = {mu: 1}
    for i in reversed(rs._w0_word(J)):
        alpha = rs.simple_root_fund(i)
        out = {}
        for nu, m in chi.items():
            n = nu[i]
            ks, sign = (range(n + 1), m) if n >= 0 else (range(-1, n, -1), -m)
            for k in ks:
                key = tuple(a - k * b for a, b in zip(nu, alpha))
                out[key] = out.get(key, 0) + sign
        chi = {nu: m for nu, m in out.items() if m}
    return FormalCharacter(chi)


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
    """(sign, nu) with nu = u.mu J-dominant, or None if dot-singular.  Each
    simple reflection of mu + rho lowers the length of the element still to
    apply by one, so the loop ends."""
    shifted, sign = tuple(m + r for m, r in zip(mu, rs.rho)), 1
    while (i := next((i for i in J if shifted[i] < 0), None)) is not None:
        shifted, sign = rs.reflect(shifted, i), -sign
    if any(shifted[i] == 0 for i in J):
        return None
    return sign, tuple(c - r for c, r in zip(shifted, rs.rho))


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
