"""Weyl group enumeration, dot actions, inversion sets, coset representatives.

Elements are canonicalized by their action matrix on fundamental-weight
coordinates (exact integer matrices).  Reduced words are recovered by greedy
left descent, so equality and hashing never depend on word choice.

Enumerations are cached on disk, keyed by Cartan type; the cache directory is
taken from the NILCOH_CACHE environment variable (default ./.nilcoh-cache).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .rootsystem import RootSystem

DEFAULT_ORDER_BOUND = 10 ** 7


class GroupTooLargeError(RuntimeError):
    pass


_WEYL_ORDERS = {"A": lambda n: _fact(n + 1), "B": lambda n: 2 ** n * _fact(n),
                "C": lambda n: 2 ** n * _fact(n), "D": lambda n: 2 ** (n - 1) * _fact(n),
                "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
                "F": lambda n: 1152, "G": lambda n: 12}


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class WeylElement:
    """A Weyl group element: exact action matrix plus one reduced word."""

    __slots__ = ("matrix", "word", "length")

    def __init__(self, matrix: tuple, word: tuple):
        self.matrix = matrix
        self.word = word
        self.length = len(word)

    def act(self, mu: tuple) -> tuple:
        return tuple(sum(row[j] * mu[j] for j in range(len(mu)))
                     for row in self.matrix)

    def dot(self, mu: tuple, rs: RootSystem) -> tuple:
        shifted = tuple(m + r for m, r in zip(mu, rs.rho))
        img = self.act(shifted)
        return tuple(a - r for a, r in zip(img, rs.rho))

    def act_root(self, beta: tuple, rs: RootSystem) -> tuple:
        img = self.act(rs.root_to_fund(beta))
        coords = rs.fund_to_root(img)
        assert all(c.denominator == 1 for c in coords)
        return tuple(int(c) for c in coords)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.word)


def _simple_matrix(rs: RootSystem, i: int) -> tuple:
    n = rs.rank
    # (s_i mu)_k = mu_k - mu_i a_ki
    return tuple(tuple((1 if k == j else 0) - (rs.cartan[k][i] if j == i else 0)
                       for j in range(n)) for k in range(n))


def _mat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


class WeylGroup:
    """The full Weyl group of a root system, enumerated once."""

    def __init__(self, rs: RootSystem, elements: list[WeylElement]):
        self.rs = rs
        self.elements = elements
        self.by_matrix = {w.matrix: w for w in elements}
        self.order = len(elements)
        self.identity = self.by_matrix[_identity(rs.rank)]
        self.simple = [self.by_matrix[_simple_matrix(rs, i)] for i in range(rs.rank)]
        self.longest = max(elements, key=lambda w: w.length)
        self._inv_index = None

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
            m = _mat_mul(m, self.simple[i].matrix)
        return self.by_matrix[m]

    def inversion_set(self, w: WeylElement) -> tuple:
        """Phi(w) = w Phi^- cap Phi^+, as roots in canonical convex order."""
        rs = self.rs
        winv = self.inverse(w)
        out = []
        for beta in rs.positive_roots:
            img = winv.act_root(beta, rs)
            if all(c <= 0 for c in img):
                out.append(beta)
        return tuple(out)

    def element_with_inversion_set(self, roots: frozenset) -> WeylElement | None:
        if self._inv_index is None:
            self._inv_index = {frozenset(self.inversion_set(w)): w
                               for w in self.elements}
        return self._inv_index.get(roots)

    def min_coset_reps(self, J) -> list[WeylElement]:
        """^JW: w with w^{-1}(Phi_J^+) in Phi^+, sorted by (length, word)."""
        J = sorted(set(J))
        reps = []
        for w in self.elements:
            winv = self.inverse(w)
            ok = True
            for i in J:
                alpha = tuple(1 if j == i else 0 for j in range(self.rs.rank))
                img = winv.act_root(alpha, self.rs)
                if not all(c >= 0 for c in img):
                    ok = False
                    break
            if ok:
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


def enumerate_group(rs: RootSystem, bound: int = DEFAULT_ORDER_BOUND,
                    use_cache: bool = True) -> WeylGroup:
    """Enumerate the Weyl group by BFS in the Cayley graph (reduced words)."""
    if rs.label in _GROUPS:
        return _GROUPS[rs.label]
    expected = _WEYL_ORDERS[rs.letter](rs.rank)
    if expected > bound:
        raise GroupTooLargeError(
            f"|W({rs.label})| = {expected} exceeds bound {bound}")

    group = None
    if use_cache:
        group = _load_cache(rs)
    if group is None:
        gens = [_simple_matrix(rs, i) for i in range(rs.rank)]
        ident = _identity(rs.rank)
        elements = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                word = elements[m]
                for i, g in enumerate(gens):
                    m2 = _mat_mul(m, g)
                    if m2 not in elements:
                        elements[m2] = word + (i,)
                        nxt.append(m2)
            frontier = nxt
        assert len(elements) == expected
        group = WeylGroup(rs, [WeylElement(m, w) for m, w in elements.items()])
        if use_cache:
            _store_cache(rs, group)
    _GROUPS[rs.label] = group
    return group


def _load_cache(rs: RootSystem) -> WeylGroup | None:
    path = _cache_file(rs)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if data.get("label") != rs.label or data.get("cartan") != [list(r) for r in rs.cartan]:
        return None
    elements = [WeylElement(tuple(tuple(r) for r in entry["matrix"]),
                            tuple(entry["word"]))
                for entry in data["elements"]]
    return WeylGroup(rs, elements)


def _store_cache(rs: RootSystem, group: WeylGroup) -> None:
    path = _cache_file(rs)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"label": rs.label, "cartan": [list(r) for r in rs.cartan],
                   "elements": [{"matrix": [list(r) for r in w.matrix],
                                 "word": list(w.word)} for w in group.elements]}
        path.write_text(json.dumps(payload))
    except OSError:
        pass  # cache is best-effort

