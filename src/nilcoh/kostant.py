"""Character-level cohomology decompositions for Frobenius kernels.

Everything here is a statement about formal characters: the Kostant
decomposition over minimal coset representatives, the collapsed bigraded
character of the first Frobenius kernel of a unipotent radical, the
torus-kernel invariants, and the parabolic cohomology characters, each in
modular (p), quantum (l), or classical mode.
"""

from __future__ import annotations

from .alcoves import (PreconditionError, in_alcove, require_regime,
                      weak_linkage)
from .characters import (FormalCharacter, GradedCharacter, euler_induction,
                         frobenius_twist, levi_simple_character,
                         symmetric_character, weyl_dimension_levi)
from .rootsystem import RootSystem
from .weyl import WeylGroup


class KostantDecomposition:
    """H^j of the nilradical with simple coefficients: one entry per ^JW."""

    def __init__(self, rs: RootSystem, J: tuple, lam: tuple, mode: str,
                 modulus: int | None, entries: list):
        self.rs = rs
        self.J = J
        self.lam = lam
        self.mode = mode
        self.modulus = modulus
        self.entries = entries  # (WeylElement, degree, highest weight)

    def character(self) -> GradedCharacter:
        """Expansion of each degree into Levi simple characters."""
        gc = GradedCharacter()
        for w, deg, hw in self.entries:
            gc.set_degree(deg, gc[deg] + levi_simple_character(hw, self.J, self.rs))
        return gc

    def poincare(self) -> list[int]:
        top = max(deg for _, deg, _ in self.entries)
        dims = [0] * (top + 1)
        for w, deg, hw in self.entries:
            dims[deg] += weyl_dimension_levi(hw, self.J, self.rs)
        return dims

    def to_json(self) -> dict:
        return {
            "type": self.rs.label, "J": list(self.J), "lambda": list(self.lam),
            "mode": self.mode, "modulus": self.modulus,
            "entries": [{"word": [i + 1 for i in w.word], "degree": deg,
                         "highest_weight": list(hw)}
                        for w, deg, hw in self.entries],
        }


def kostant_decomposition(lam: tuple, J, rs: RootSystem, group: WeylGroup,
                          mode: str = "classical",
                          modulus: int | None = None) -> KostantDecomposition:
    """Decompose H^j(u_J, L(lam)) as a sum of Levi simples L_J(w . lam)."""
    J = tuple(sorted(set(J)))
    require_regime(mode, modulus, rs, "kostant")
    if not rs.is_dominant(lam):
        raise PreconditionError(f"lambda must be dominant, got {tuple(lam)}")
    if mode != "classical" and not in_alcove(lam, modulus, rs, closed=True):
        raise PreconditionError("lambda must lie in the closed bottom alcove")
    entries = []
    for w in group.min_coset_reps(J):
        entries.append((w, w.length, w.dot(lam, rs)))
    return KostantDecomposition(rs, J, tuple(lam), mode, modulus, entries)


class BigradedCharacter:
    """Per-degree slabs (i, j) with 2i + j = n of the collapsed E_2 page."""

    def __init__(self, rs: RootSystem, J: tuple, lam: tuple, mode: str,
                 modulus: int, max_degree: int, slabs: dict):
        self.rs = rs
        self.J = J
        self.lam = lam
        self.mode = mode
        self.modulus = modulus
        self.max_degree = max_degree
        self.slabs = slabs  # (i, j) -> FormalCharacter

    def degree(self, n: int) -> FormalCharacter:
        chi = FormalCharacter()
        for (i, j), slab in sorted(self.slabs.items()):
            if 2 * i + j == n:
                chi = chi + slab
        return chi

    def collapse(self) -> GradedCharacter:
        gc = GradedCharacter()
        for n in range(self.max_degree + 1):
            gc.set_degree(n, self.degree(n))
        return gc

    def dims(self) -> list[int]:
        return self.collapse().dims()

    def to_json(self) -> dict:
        return {
            "type": self.rs.label, "J": list(self.J), "lambda": list(self.lam),
            "mode": self.mode, "modulus": self.modulus,
            "max_degree": self.max_degree,
            "slabs": [{"i": i, "j": j, "character": chi.to_json()}
                      for (i, j), chi in sorted(self.slabs.items())],
            "dims": self.dims(),
        }


def frobenius_kernel_character(lam: tuple, J, rs: RootSystem, group: WeylGroup,
                               mode: str = "modular", modulus: int | None = None,
                               max_degree: int = 8) -> BigradedCharacter:
    """Character of H^n((U_J)_1, L(lam)) as twisted symmetric slabs times
    the nilradical cohomology, for n up to max_degree."""
    J = tuple(sorted(set(J)))
    require_regime(mode, modulus, rs, "weight-separation")
    if mode == "classical":
        raise PreconditionError("Frobenius kernel character needs a modulus")
    if not (rs.is_dominant(lam) and in_alcove(lam, modulus, rs, closed=False)):
        raise PreconditionError(
            "lambda must lie in the interior bottom alcove and be dominant")
    uj_roots = rs.nilradical_roots(J)
    reps = group.min_coset_reps(J)
    by_len: dict[int, list] = {}
    for w in reps:
        by_len.setdefault(w.length, []).append(w)
    slabs = {}
    for n in range(max_degree + 1):
        for i in range(n // 2 + 1):
            j = n - 2 * i
            if j not in by_len:
                continue
            sym = frobenius_twist(symmetric_character(uj_roots, i, rs), modulus)
            coh = FormalCharacter()
            for w in by_len[j]:
                coh = coh + levi_simple_character(w.dot(lam, rs), J, rs)
            slabs[(i, j)] = sym * coh
    return BigradedCharacter(rs, J, tuple(lam), mode, modulus, max_degree, slabs)


def t1_invariants(lam: tuple, p: int, rs: RootSystem,
                  group: WeylGroup) -> GradedCharacter:
    """H^j(u, L(lam))^{T_1}: one-dimensional in degree l(w), weight w^{-1}sigma."""
    datum = weak_linkage(lam, p, rs, group)
    gc = GradedCharacter()
    if datum is None:
        return gc
    winv = group.inverse(datum.w)
    gc.set_degree(datum.w.length, FormalCharacter.single(winv.act(datum.sigma)))
    return gc


def parabolic_character(lam: tuple, J, rs: RootSystem, group: WeylGroup,
                        mode: str = "modular", modulus: int | None = None,
                        max_degree: int = 8) -> GradedCharacter:
    """Untwisted character of H^j((P_J)_1, L(lam)) (quantum: of u_zeta(p_J)).

    Zero if lam is not weakly linked to zero; otherwise degree j carries
    the Euler induction of S^{(j - l(w))/2}(u^*) tensor w^{-1}sigma for
    j = l(w) mod 2 and is zero in the other parity.
    """
    J = tuple(sorted(set(J)))
    require_regime(mode, modulus, rs, "weight-separation")
    if mode == "classical":
        raise PreconditionError("parabolic character needs a modulus")
    datum = weak_linkage(lam, modulus, rs, group)
    gc = GradedCharacter()
    for n in range(max_degree + 1):
        gc.set_degree(n, FormalCharacter())
    if datum is None:
        return gc
    winv = group.inverse(datum.w)
    wsigma = winv.act(datum.sigma)
    lw = datum.w.length
    for j in range(lw, max_degree + 1):
        if (j - lw) % 2 != 0:
            continue
        i = (j - lw) // 2
        chi = symmetric_character(rs.positive_roots, i, rs) * \
            FormalCharacter.single(wsigma)
        gc.set_degree(j, euler_induction(chi, J, rs))
    return gc
