"""Finite root systems with exact integral Cartan data.

Weights are tuples of integers in fundamental-weight coordinates.
Roots are tuples of integers in simple-root coordinates.  Nothing here
ever touches a float.  A root's fundamental coordinates are an integer
product with the Cartan matrix, and coroot pairings read an integer table
built once per root system; only `fund_to_root`, from a weight back to
root coordinates, needs exact rationals, and it loads `linalg` (and with
it `fractions`) the first time it is called, so a caller that needs only
roots and the Weyl group never loads either.
A simple reflection s_i mu = mu - mu_i alpha_i reads only the nonzero
entries of alpha_i in fundamental coordinates (at most four).

The positive roots carry a fixed "convex" enumeration gamma_1 < ... < gamma_N
induced by a reduced expression of the longest Weyl element (chosen
deterministically, see :meth:`RootSystem._convex_order`).  That single order
pins down every sign and zeta-exponent convention used elsewhere.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from . import PreconditionError

MAX_RANK = 8


def _cartan_matrix(letter: str, n: int) -> list[list[int]]:
    """Cartan matrix a[i][j] = <alpha_j, alpha_i^vee> (Bourbaki numbering)."""
    if n > MAX_RANK:
        raise PreconditionError(
            f"unsupported Cartan type {letter}{n}: rank is at most {MAX_RANK}")
    if letter == "A" and n >= 1:
        a = _chain(n)
    elif letter == "B" and n >= 2:
        a = _chain(n)
        a[n - 1][n - 2] = -2  # alpha_n short
    elif letter == "C" and n >= 2:
        a = _chain(n)
        a[n - 2][n - 1] = -2  # alpha_n long
    elif letter == "D" and n >= 3:
        a = _chain(n - 1)
        for row in a:
            row.append(0)
        a.append([0] * n)
        a[n - 1][n - 1] = 2
        a[n - 1][n - 3] = a[n - 3][n - 1] = -1
        a[n - 1][n - 2] = a[n - 2][n - 1] = 0
    elif letter == "E" and n in (6, 7, 8):
        edges = [(1, 3), (3, 4), (4, 5), (2, 4), (5, 6), (6, 7), (7, 8)]
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for u, v in edges:
            if u <= n and v <= n:
                a[u - 1][v - 1] = a[v - 1][u - 1] = -1
    elif letter == "F" and n == 4:
        a = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    elif letter == "G" and n == 2:
        a = [[2, -3], [-1, 2]]  # alpha_1 short, alpha_2 long
    else:
        raise PreconditionError(f"unsupported Cartan type {letter}{n}")
    return a


def _chain(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def _symmetrizers(a: list[list[int]]) -> list[int]:
    """Positive integers d_i with d_i a_ij symmetric, short roots of length 2.

    Root-length ratios are 1, 2 or 3, so from d_0 = 6 every d_j =
    d_i a_ij / a_ji is an exact integer; dividing by the least gives
    min d = 1."""
    n = len(a)
    d: list[int | None] = [None] * n
    d[0] = 6
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and a[i][j] != 0:
                    # d_i a_ij = d_j a_ji
                    if d[i] is not None and d[j] is None:
                        d[j], r = divmod(d[i] * a[i][j], a[j][i])
                        assert r == 0
                        changed = True
    g = min(d)
    assert all(v % g == 0 for v in d)
    return [v // g for v in d]


class RootSystem:
    """Immutable root system of a given Cartan type and rank."""

    def __init__(self, letter: str, rank: int):
        letter = letter.upper()
        self.letter = letter
        self.rank = rank
        self.label = f"{letter}{rank}"
        self.cartan = tuple(tuple(r) for r in _cartan_matrix(letter, rank))
        self.d = tuple(_symmetrizers([list(r) for r in self.cartan]))
        # alpha_i in fundamental coordinates: column i of the Cartan matrix
        self._simple_fund = tuple(zip(*self.cartan))
        # its nonzero entries (k, a_ki), read by `reflect` and `weyl`
        self.simple_support = tuple(
            tuple((k, a) for k, a in enumerate(col) if a)
            for col in self._simple_fund)
        self.rho = (1,) * rank
        self.positive_roots = self._convex_order()
        self.pos_index = {b: i for i, b in enumerate(self.positive_roots)}
        self.num_positive = len(self.positive_roots)
        # <mu, beta^vee> = sum_j mu_j c_j for the k-th positive root beta
        self.coroot_coords = tuple(self._coroot(b) for b in self.positive_roots)
        self.highest_short_root = self._highest_short()
        self.coxeter_number = self.pairing(self.rho, self.highest_short_root) + 1
        self._phi_j: dict[frozenset, tuple] = {}

    # ------------------------------------------------------------------
    # construction helpers

    def _reflect_root(self, beta: tuple, i: int) -> tuple:
        # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, in root coordinates
        pair = sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
        out = list(beta)
        out[i] -= pair
        return tuple(out)

    def _w0_word(self, J=None) -> tuple:
        """Reduced word for the longest element of W_J (J: every index when
        None), by driving rho until no J-coordinate stays positive (smallest
        descent first)."""
        J = range(self.rank) if J is None else sorted(J)
        mu = self.rho
        applied = []
        while True:
            i = next((i for i in J if mu[i] > 0), None)
            if i is None:
                break
            mu = self.reflect(mu, i)
            applied.append(i)
        assert all(mu[i] < 0 for i in J)
        return tuple(reversed(applied))

    def _convex_order(self) -> tuple:
        word = self._w0_word()
        order = []
        prefix = []  # indices i1..ik applied left to right
        for k, ik in enumerate(word):
            beta = tuple(1 if j == ik else 0 for j in range(self.rank))
            for i in reversed(prefix):
                beta = self._reflect_root(beta, i)
            order.append(beta)
            prefix.append(ik)
        assert len(set(order)) == len(order)
        assert all(all(c >= 0 for c in b) for b in order)
        self.w0_word = word
        return tuple(order)

    def _coroot(self, beta: tuple) -> tuple:
        """Simple-coroot coordinates 2 d_j beta_j / (beta, beta) of beta^vee."""
        len2 = self.root_length2(beta)
        out = []
        for j in range(self.rank):
            q, r = divmod(2 * self.d[j] * beta[j], len2)
            assert r == 0, "coroot coordinates must be integral"
            out.append(q)
        return tuple(out)

    def _highest_short(self) -> tuple:
        short_len = min(self.root_length2(b) for b in self.positive_roots)
        short = [b for b in self.positive_roots if self.root_length2(b) == short_len]
        best = max(short, key=sum)
        assert all(c >= 0 for c in self.root_to_fund(best))
        return best

    # ------------------------------------------------------------------
    # coordinates and forms

    def root_to_fund(self, beta: tuple) -> tuple:
        """Fundamental-weight coordinates of a root-lattice vector."""
        return tuple(sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
                     for i in range(self.rank))

    @property
    def _cartan_inverse(self) -> tuple:
        inv = getattr(self, "_cartan_inv_cache", None)
        if inv is None:
            from .linalg import echelon  # only fund_to_root needs Q
            n = self.rank
            aug = [list(row) + [1 if i == j else 0 for j in range(n)]
                   for i, row in enumerate(self.cartan)]
            rows, _ = echelon(aug)  # [C | I] -> [I | C^-1]
            inv = tuple(tuple(row[n:]) for row in rows)
            self._cartan_inv_cache = inv
        return inv

    def fund_to_root(self, mu: tuple) -> tuple:
        """Exact rational simple-root coordinates of a weight."""
        inv = self._cartan_inverse
        n = self.rank
        return tuple(sum(inv[i][j] * mu[j] for j in range(n)) for i in range(n))

    def in_root_lattice(self, mu: tuple) -> bool:
        return all(c.denominator == 1 for c in self.fund_to_root(mu))

    def root_length2(self, beta: tuple):
        """(beta, beta); an integer in {2, 4, 6} for roots."""
        return self.inner_roots(beta, beta)

    def inner_roots(self, beta: tuple, gamma: tuple):
        # (alpha_i, alpha_j) = d_i a_ij
        tot = 0
        for i in range(self.rank):
            if beta[i]:
                for j in range(self.rank):
                    if gamma[j]:
                        tot += beta[i] * gamma[j] * self.d[i] * self.cartan[i][j]
        return tot

    def length_class(self, beta: tuple) -> str:
        return "short" if self.root_length2(beta) == min(
            self.root_length2(b) for b in self.positive_roots) else "long"

    def pairing(self, mu: tuple, beta: tuple) -> int:
        """<mu, beta^vee> = 2 (mu, beta) / (beta, beta), an exact integer."""
        k = self.pos_index.get(beta)
        cor = self._coroot(beta) if k is None else self.coroot_coords[k]
        return sum(map(mul, mu, cor))

    # ------------------------------------------------------------------
    # derived data

    def simple_root_fund(self, i: int) -> tuple:
        return self._simple_fund[i]

    def reflect(self, mu: tuple, i: int) -> tuple:
        """s_i mu = mu - <mu, alpha_i^vee> alpha_i, in fundamental coordinates."""
        c = mu[i]
        out = list(mu)
        for k, a in self.simple_support[i]:
            out[k] -= c * a
        return tuple(out)

    def fundamental_weight(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def is_dominant(self, mu: tuple) -> bool:
        return all(c >= 0 for c in mu)

    def minuscule_weights(self) -> list:
        """Nonzero dominant weights pairing at most 1 with every positive coroot."""
        out = []
        for i in range(self.rank):
            w = self.fundamental_weight(i)
            if all(self.pairing(w, b) <= 1 for b in self.positive_roots):
                assert not self.in_root_lattice(w)
                out.append(w)
        return out

    def phi_j_plus(self, J) -> tuple:
        """Positive roots supported on the simple-root subset J (index set),
        computed once per J."""
        J = frozenset(J)
        out = self._phi_j.get(J)
        if out is None:
            out = self._phi_j[J] = tuple(
                b for b in self.positive_roots
                if all(i in J for i in range(self.rank) if b[i]))
        return out

    def nilradical_roots(self, J) -> tuple:
        """Phi^+ minus Phi_J^+, in convex order (the roots of u_J)."""
        inside = set(self.phi_j_plus(J))
        return tuple(b for b in self.positive_roots if b not in inside)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {
            "cartan_type": self.letter,
            "rank": self.rank,
            "cartan_matrix": [list(r) for r in self.cartan],
            "symmetrizers": list(self.d),
            "coxeter_number": self.coxeter_number,
            "w0_word": [i + 1 for i in self.w0_word],
            "positive_roots": [
                {"root_coords": list(b), "fund_coords": list(self.root_to_fund(b)),
                 "length": self.length_class(b)}
                for b in self.positive_roots
            ],
        }

    def __repr__(self):
        return f"RootSystem({self.label})"


@lru_cache(maxsize=None)
def build(cartan_type: str, rank: int | None = None) -> RootSystem:
    """Construct (and memoize) a root system, e.g. build('B', 2) or build('B2')."""
    if rank is None:
        letter, rank = cartan_type[0], int(cartan_type[1:])
    else:
        letter = cartan_type
    return RootSystem(letter, int(rank))
