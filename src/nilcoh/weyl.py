"""Weyl group enumeration, dot actions, inversion sets, coset representatives.

Elements are canonicalized by their action matrix on fundamental-weight
coordinates (exact integer matrices), so equality and hashing never depend
on word choice.  Every group, enumerated or loaded, is built by
`_from_words` from one reduced word per element.  Breadth-first search
finds the words with each w keyed by w^-1 rho: (w s_i)^-1 rho =
s_i (w^-1 rho), and w s_i > w iff (w^-1 rho)_i > 0 (W. Casselman,
"Machine calculations in Weyl groups", Invent. Math. 116, 1994).  Both
steps, v -> s_i v and m -> m s_i, change only what the nonzero entries
of alpha_i (`RootSystem.simple_support`, at most four) touch.

All of the Weyl layer is integer arithmetic (importing it loads neither
`fractions` nor `linalg`), read off the image w rho of the dominant
weight rho (fundamental coordinates):

- inversion set: Phi(w) = w Phi^- cap Phi^+ = {beta > 0 : <w rho, beta^vee> < 0};
- minimal coset representatives: w in ^JW  <=>  (w rho)_i > 0 for all i in J
  (equivalently w^{-1} alpha_i > 0).

Inversion sets are kept as int bitmasks over the convex order of the
positive roots, filled the first time an element's set is asked for.

Enumerations are cached on disk as their words, one file per Cartan type,
in the directory NILCOH_CACHE (default ./.nilcoh-cache).  Loading rebuilds
the group through `_from_words`; a file it refuses is ignored and the
group is recomputed.  A failed write leaves no temp file behind.
"""

from __future__ import annotations

import json
import os
from math import factorial
from operator import mul
from pathlib import Path

from . import BudgetError
from .rootsystem import RootSystem

DEFAULT_ORDER_BOUND = 10 ** 6


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


def _times_simple(m: tuple, i: int, rs: RootSystem) -> tuple:
    """m * s_i.  s_i (`RootSystem.reflect`) differs from the identity only
    in column i, which is e_i - alpha_i, so only column i of m changes, by
    the entries of m at the support of alpha_i."""
    support = rs.simple_support[i]
    out = []
    for row in m:
        new = list(row)
        for k, a in support:
            new[i] -= row[k] * a
        out.append(tuple(new))
    return tuple(out)


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
        self.longest = max(elements, key=lambda w: w.length)
        self._masks: dict[WeylElement, int] = {}
        self._by_mask: dict[int, WeylElement] | None = None

    def length_polynomial(self) -> list[int]:
        """Coefficient list of sum_w t^{l(w)}."""
        coeffs = [0] * (self.longest.length + 1)
        for w in self.elements:
            coeffs[w.length] += 1
        return coeffs

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
    """The Weyl group, loaded from the disk cache or enumerated by BFS."""
    if rs.label in _GROUPS:
        return _GROUPS[rs.label]
    expected = _WEYL_ORDERS[rs.letter](rs.rank)
    if expected > DEFAULT_ORDER_BOUND:
        raise BudgetError(
            f"|W({rs.label})| = {expected} exceeds bound {DEFAULT_ORDER_BOUND}")

    group = _load_cache(rs)
    if group is None:
        group = _from_words(rs, _bfs_words(rs))
        assert group is not None
        _store_cache(rs, group)
    _GROUPS[rs.label] = group
    return group


def _bfs_words(rs: RootSystem) -> list[tuple]:
    """One reduced word per element, in breadth-first order, keyed by
    v = w^-1 rho; only ascents (v_i > 0) are followed, as a descent leads
    back to the level before."""
    words = {rs.rho: ()}
    frontier = [rs.rho]
    while frontier:
        nxt = []
        for v in frontier:
            word = words[v]
            for i, c in enumerate(v):
                if c > 0:
                    v2 = rs.reflect(v, i)
                    if v2 not in words:
                        words[v2] = word + (i,)
                        nxt.append(v2)
        frontier = nxt
    return list(words.values())


def _from_words(rs: RootSystem, words) -> WeylGroup | None:
    """The group whose elements carry `words`, in order, or None.

    Each word is an earlier word times s_i with i an ascent (v_i > 0 for
    its key v = w^-1 rho), so it is reduced; its matrix and key are the
    prefix's times s_i.  Keys must be distinct, and |W| of them."""
    if len(words) != _WEYL_ORDERS[rs.letter](rs.rank):
        return None
    built = {}  # word -> (matrix, v)
    keys = set()
    elements = []
    for word in map(tuple, words):
        if word:
            prefix, i = built.get(word[:-1]), word[-1]
            if prefix is None or type(i) is not int or \
                    not 0 <= i < rs.rank or prefix[1][i] <= 0:
                return None
            m, v = _times_simple(prefix[0], i, rs), rs.reflect(prefix[1], i)
        else:
            m, v = _identity(rs.rank), rs.rho
        if v in keys:
            return None
        keys.add(v)
        built[word] = m, v
        elements.append(WeylElement(m, word))
    return WeylGroup(rs, elements)


def _load_cache(rs: RootSystem) -> WeylGroup | None:
    path = _cache_file(rs)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if data.get("label") != rs.label or \
                data.get("cartan") != [list(r) for r in rs.cartan]:
            return None
        return _from_words(rs, [entry["word"] for entry in data["elements"]])
    except (ValueError, OSError, KeyError, TypeError, AttributeError):
        return None


def _store_cache(rs: RootSystem, group: WeylGroup) -> None:
    path = _cache_file(rs)
    payload = {"label": rs.label, "cartan": [list(r) for r in rs.cartan],
               "elements": [{"word": list(w.word)} for w in group.elements]}
    # write a sibling temp file and rename it, so a reader never sees a
    # half-written cache
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    except OSError:
        # the cache is best-effort, but a failed write removes its temp file
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # e.g. NILCOH_CACHE names a regular file
            pass
