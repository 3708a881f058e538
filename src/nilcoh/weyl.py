"""Weyl group enumeration, dot actions, inversion sets, coset representatives.

Elements are canonicalized by their action matrix on fundamental-weight
coordinates (exact integer matrices), so equality and hashing never depend
on word choice.  Each element keeps the reduced word along which breadth-
first enumeration first reached it.

All of the Weyl layer is integer arithmetic, read off the image w rho of
the dominant weight rho (fundamental coordinates):

- inversion set: Phi(w) = w Phi^- cap Phi^+ = {beta > 0 : <w rho, beta^vee> < 0};
- minimal coset representatives: w in ^JW  <=>  (w rho)_i > 0 for all i in J
  (equivalently w^{-1} alpha_i > 0).

Inversion sets are kept as int bitmasks over the convex order of the
positive roots, filled the first time an element's set is asked for.

Enumerations are cached on disk, keyed by Cartan type; the cache directory is
taken from the NILCOH_CACHE environment variable (default ./.nilcoh-cache).
A cache file that fails validation (wrong order, repeated matrices, missing
generators, a word that does not multiply out to its matrix or is not
reduced) is ignored and the group is recomputed.
"""

from __future__ import annotations

import json
import os
from math import factorial
from operator import mul
from pathlib import Path

from .rootsystem import RootSystem

DEFAULT_ORDER_BOUND = 10 ** 7


class GroupTooLargeError(RuntimeError):
    pass


_WEYL_ORDERS = {"A": lambda n: factorial(n + 1),
                "B": lambda n: 2 ** n * factorial(n),
                "C": lambda n: 2 ** n * factorial(n),
                "D": lambda n: 2 ** (n - 1) * factorial(n),
                "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
                "F": lambda n: 1152, "G": lambda n: 12}


class WeylElement:
    """A Weyl group element: exact action matrix plus one reduced word."""

    __slots__ = ("matrix", "word", "length", "_hash")

    def __init__(self, matrix: tuple, word: tuple):
        self.matrix = matrix
        self.word = word
        self.length = len(word)
        self._hash = hash(matrix)

    def act(self, mu: tuple) -> tuple:
        return tuple(sum(row[j] * mu[j] for j in range(len(mu)))
                     for row in self.matrix)

    def dot(self, mu: tuple, rs: RootSystem) -> tuple:
        shifted = tuple(m + r for m, r in zip(mu, rs.rho))
        img = self.act(shifted)
        return tuple(a - r for a, r in zip(img, rs.rho))

    def act_root(self, beta: tuple, rs: RootSystem) -> tuple:
        return rs.root_of_fund[self.act(rs.root_to_fund(beta))]

    def act_rho(self) -> tuple:
        """w rho in fundamental coordinates (rho = (1, ..., 1); not the dot action)."""
        return tuple(map(sum, self.matrix))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.word)


def _mat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _times_simple(m: tuple, i: int, rs: RootSystem) -> tuple:
    """m * s_i.  (s_i mu)_k = mu_k - mu_i a_ki, so s_i differs from the
    identity only in column i."""
    col = [row[i] for row in rs.cartan]
    return tuple(row[:i] + (row[i] - sum(map(mul, row, col)),) + row[i + 1:]
                 for row in m)


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class WeylGroup:
    """The full Weyl group of a root system, enumerated once."""

    def __init__(self, rs: RootSystem, elements: list[WeylElement]):
        self.rs = rs
        self.elements = elements
        self.by_matrix = {w.matrix: w for w in elements}
        self.order = len(elements)
        self.identity = self.by_matrix[_identity(rs.rank)]
        self.simple = [self.by_matrix[_times_simple(self.identity.matrix, i, rs)]
                       for i in range(rs.rank)]
        self.longest = max(elements, key=lambda w: w.length)
        self._masks: dict[WeylElement, int] = {}
        self._by_mask: dict[int, WeylElement] | None = None

    def length_polynomial(self) -> list[int]:
        """Coefficient list of sum_w t^{l(w)}."""
        coeffs = [0] * (self.longest.length + 1)
        for w in self.elements:
            coeffs[w.length] += 1
        return coeffs

    def multiply(self, w1: WeylElement, w2: WeylElement) -> WeylElement:
        return self.by_matrix[_mat_mul(w1.matrix, w2.matrix)]

    def inverse(self, w: WeylElement) -> WeylElement:
        # (s_i1 ... s_ik)^-1 = s_ik ... s_i1: each s_i is an involution
        m = self.identity.matrix
        for i in reversed(w.word):
            m = _times_simple(m, i, self.rs)
        return self.by_matrix[m]

    def inversion_mask(self, w: WeylElement) -> int:
        """Phi(w) as a bitmask: bit k set iff positive_roots[k] is in Phi(w)."""
        mask = self._masks.get(w)
        if mask is None:
            wrho = w.act_rho()
            mask = 0
            for k, cor in enumerate(self.rs.coroot_coords):
                if sum(map(mul, wrho, cor)) < 0:
                    mask |= 1 << k
            assert mask.bit_count() == w.length, f"word of {w!r} is not reduced"
            self._masks[w] = mask
        return mask

    def inversion_set(self, w: WeylElement) -> tuple:
        """Phi(w) = {beta > 0 : <w rho, beta^vee> < 0}, in convex order."""
        pos = self.rs.positive_roots
        return tuple(pos[k] for k in mask_bits(self.inversion_mask(w)))

    def element_with_mask(self, mask: int) -> WeylElement | None:
        if self._by_mask is None:
            self._by_mask = {self.inversion_mask(w): w for w in self.elements}
        return self._by_mask.get(mask)

    def element_with_inversion_set(self, roots: frozenset) -> WeylElement | None:
        index = self.rs.pos_index
        mask = 0
        for beta in roots:
            k = index.get(beta)
            if k is None:
                return None
            mask |= 1 << k
        return self.element_with_mask(mask)

    def min_coset_reps(self, J) -> list[WeylElement]:
        """^JW: w with (w rho)_i > 0 for i in J, sorted by (length, word)."""
        J = sorted(set(J))
        reps = []
        for w in self.elements:
            wrho = w.act_rho()
            if all(wrho[i] > 0 for i in J):
                reps.append(w)
        reps.sort(key=lambda w: (w.length, w.word))
        return reps


def _identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _cache_dir() -> Path:
    return Path(os.environ.get("NILCOH_CACHE", ".nilcoh-cache"))


def _cache_file(rs: RootSystem) -> Path:
    return _cache_dir() / f"weyl-{rs.label}.json"


_GROUPS: dict[str, WeylGroup] = {}


def enumerate_group(rs: RootSystem) -> WeylGroup:
    """Enumerate the Weyl group by BFS in the Cayley graph (reduced words)."""
    if rs.label in _GROUPS:
        return _GROUPS[rs.label]
    expected = _WEYL_ORDERS[rs.letter](rs.rank)
    if expected > DEFAULT_ORDER_BOUND:
        raise GroupTooLargeError(
            f"|W({rs.label})| = {expected} exceeds bound {DEFAULT_ORDER_BOUND}")

    group = _load_cache(rs)
    if group is None:
        ident = _identity(rs.rank)
        elements = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                word = elements[m]
                for i in range(rs.rank):
                    m2 = _times_simple(m, i, rs)
                    if m2 not in elements:
                        elements[m2] = word + (i,)
                        nxt.append(m2)
            frontier = nxt
        assert len(elements) == expected
        group = WeylGroup(rs, [WeylElement(m, w) for m, w in elements.items()])
        _store_cache(rs, group)
    _GROUPS[rs.label] = group
    return group


def _load_cache(rs: RootSystem) -> WeylGroup | None:
    path = _cache_file(rs)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(), parse_float=_reject_float)
        if data.get("label") != rs.label or \
                data.get("cartan") != [list(r) for r in rs.cartan]:
            return None
        elements = [WeylElement(tuple(map(tuple, entry["matrix"])),
                                tuple(entry["word"]))
                    for entry in data["elements"]]
        if not _valid_elements(rs, elements):
            return None
    except (ValueError, OSError, KeyError, TypeError, AttributeError,
            IndexError):
        return None
    return WeylGroup(rs, elements)


def _reject_float(text: str):
    raise ValueError(f"non-integer entry {text} in Weyl cache")


def _valid_elements(rs: RootSystem, elements: list[WeylElement]) -> bool:
    """The cached elements are exactly W, each with a reduced word.

    Checks the order, distinct matrices, and that each word's prefix is a
    cached element whose matrix times s_last is this element's matrix (so
    by induction every word multiplies out to its matrix, identity and
    generators included) and whose (rho, w rho) is larger (so each step
    lengthens the element and every word is reduced).  O(|W| rank^2)."""
    if len(elements) != _WEYL_ORDERS[rs.letter](rs.rank):
        return False
    by_word = {w.word: w for w in elements}
    if len(by_word) != len(elements) or \
            len({w.matrix for w in elements}) != len(elements):
        return False
    # D (rho, w rho) = sum_i D (rho, omega_i) (w rho)_i
    rho_row = [rs.inner_scaled(rs.rho, rs.fundamental_weight(i))
               for i in range(rs.rank)]
    height = {w.word: sum(map(mul, rho_row, w.act_rho())) for w in elements}
    if by_word.get(()) is None or by_word[()].matrix != _identity(rs.rank):
        return False
    for w in elements:
        if not w.word:
            continue
        parent = by_word.get(w.word[:-1])
        i = w.word[-1]
        if parent is None or not 0 <= i < rs.rank:
            return False
        if _times_simple(parent.matrix, i, rs) != w.matrix or \
                height[parent.word] <= height[w.word]:
            return False
    return True


def _store_cache(rs: RootSystem, group: WeylGroup) -> None:
    path = _cache_file(rs)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"label": rs.label, "cartan": [list(r) for r in rs.cartan],
                   "elements": [{"matrix": [list(r) for r in w.matrix],
                                 "word": list(w.word)} for w in group.elements]}
        # write a sibling temp file and rename it, so a reader never sees
        # a half-written cache
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort
