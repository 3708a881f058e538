"""Exact linear algebra over F_p and over the rationals.

`Span` is the one elimination routine: a greedy basis of sparse vectors
{key: coeff}, grown one vector at a time in the manner of R. Bruner,
"Calculation of large Ext modules" (1989).  The weight-graded complexes
feed it the dict vectors of one weight block at a time.  The dense views
below (matrices are lists of row lists) add a matrix's columns in order:
the kept columns are the pivot columns of the reduced row echelon form, and
a dependent column's combination is its column of that form.
"""

from __future__ import annotations

from fractions import Fraction


class Span:
    """Span of the vectors added so far, over F_p (p prime) or over Q
    when p is None.

    `add(vec)` keeps `vec` and returns None when it is independent of the
    kept vectors; otherwise it returns the unique {i: c} with
    vec = sum c * kept[i].  `express(vec)` returns the same combination
    without keeping anything, or None when `vec` lies outside the span.

    A caller that needs membership only calls `drop_combinations()`.
    From then on no combination is kept: `add` and `express` return True
    where they would have returned one, so a stale or missing combination
    can never be handed back.  Which vectors are kept, and `size`, stay
    exactly as they would have been.

    Each kept vector becomes a row whose lead, its largest key, has
    coefficient 1 and occurs in no other row, stored with the combination
    of kept vectors it equals (empty once combinations are dropped), so
    one pass over a vector's own keys reduces it.
    """

    def __init__(self, p: int | None = None):
        self.p = p
        self.size = 0
        self._rows: dict = {}  # lead key -> (row, combination)
        self._track = True

    def drop_combinations(self):
        """Stop keeping combinations; see the class docstring."""
        self._track = False
        self._rows = {key: (row, {}) for key, (row, _) in self._rows.items()}

    def _clean(self, vec: dict) -> dict:
        """vec without zero entries, reduced mod p over F_p."""
        p = self.p
        if p is None:
            return {k: x for k, x in vec.items() if x}
        return {k: r for k, x in vec.items() if (r := x % p)}

    def _axpy(self, vec: dict, f, other: dict):
        """vec += f * other in place, popping the entries that cancel."""
        p, get = self.p, vec.get
        for k, x in other.items():
            x = get(k, 0) + f * x
            if p is not None:
                x %= p
            if x:
                vec[k] = x
            else:
                vec.pop(k, None)

    def _reduce(self, vec: dict):
        """(vec minus its row combination, that combination; {} once
        combinations are dropped)."""
        res, comb, rows, track = dict(vec), {}, self._rows, self._track
        get = res.get
        for key, c in vec.items():
            hit = rows.get(key)
            if hit is not None and c:
                for k, x in hit[0].items():
                    res[k] = get(k, 0) - c * x
                if track:
                    for i, x in hit[1].items():
                        comb[i] = comb.get(i, 0) + c * x
        return self._clean(res), self._clean(comb) if track else comb

    def add(self, vec: dict):
        res, comb = self._reduce(vec)
        if not res:
            return comb if self._track else True
        lead = max(res)
        p, track = self.p, self._track
        if p is None:
            inv = Fraction(1) / res[lead]
            row = {k: x * inv for k, x in res.items()}
        else:
            inv = pow(res[lead], -1, p)
            row = {k: x * inv % p for k, x in res.items()}
        if track:  # row = inv * (vec - sum comb_i kept_i)
            reduced, comb = comb, {self.size: inv}
            self._axpy(comb, -inv, reduced)
        for other, other_comb in self._rows.values():
            f = other.get(lead)
            if f:
                self._axpy(other, -f, row)
                if track:
                    self._axpy(other_comb, -f, comb)
        self._rows[lead] = (row, comb)
        self.size += 1
        return None

    def express(self, vec: dict):
        res, comb = self._reduce(vec)
        if res:
            return None
        return comb if self._track else True


def _columns(rows, p):
    """Add the columns of a dense matrix to one Span, left to right.

    Returns (span, pivot columns, the columns of the reduced row echelon
    form as {row: entry}: a unit vector for a pivot column, else the
    combination of earlier pivot columns that `add` returned)."""
    span, pivots, cols = Span(p), [], []
    for c in range(len(rows[0]) if rows else 0):
        col = span.add({r: row[c] for r, row in enumerate(rows)})
        if col is None:
            col = {len(pivots): Fraction(1) if p is None else 1}
            pivots.append(c)
        cols.append(col)
    return span, pivots, cols


def echelon(rows, p: int | None = None):
    """Reduced row echelon form over F_p (p prime), or over Q when p is None.

    Returns (nonzero reduced rows, pivot column list); entries are ints in
    [0, p) over F_p and Fractions over Q."""
    _, pivots, cols = _columns(rows, p)
    red = [[Fraction(0) if p is None else 0] * len(cols) for _ in pivots]
    for c, col in enumerate(cols):
        for i, x in col.items():
            red[i][c] = x
    return red, pivots


def _solve(rows, rhs, p):
    """One solution x of rows @ x = rhs (over F_p, or Q when p is None),
    zero off the pivot columns."""
    span, pivots, cols = _columns(rows, p)
    comb = span.express(dict(enumerate(rhs)))
    if comb is None:
        return None  # inconsistent
    x = [Fraction(0) if p is None else 0] * len(cols)
    for i, c in comb.items():
        x[pivots[i]] = c
    return x


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    return _columns(rows, p)[0].size


def rref_mod_p(rows: list[list[int]], p: int):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    return echelon(rows, p)


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : rows @ v = 0} over F_p (vectors of length ncols), one
    per non-pivot column."""
    _, pivots, cols = _columns(rows, p)
    basis = []
    for fc, col in enumerate(cols):
        if fc not in pivots:
            v = [0] * len(cols)
            v[fc] = 1
            for i, c in col.items():
                v[pivots[i]] = -c % p
            basis.append(v)
    return basis


def solve_mod_p(rows: list[list[int]], rhs: list[int], p: int):
    """One solution x of rows @ x = rhs over F_p, or None."""
    return _solve(rows, rhs, p)


def rank_frac(rows) -> int:
    return _columns(rows, None)[0].size


def solve_frac(rows, rhs):
    """One rational solution of rows @ x = rhs, or None."""
    return _solve(rows, rhs, None)
