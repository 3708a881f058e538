"""Exact dense linear algebra over F_p and over the rationals.

Matrices are lists of row lists.  Blocks coming out of the weight-graded
complexes are small (tens of rows), so plain Gaussian elimination is fine;
what matters is that every pivot decision is exact.  `echelon` is the one
elimination routine; rank, nullspace and solve are views over it.
"""

from __future__ import annotations

from fractions import Fraction


def echelon(rows, p: int | None = None):
    """Reduced row echelon form over F_p (p prime), or over Q when p is None.

    Returns (nonzero reduced rows, pivot column list); entries are ints in
    [0, p) over F_p and Fractions over Q."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
    else:
        m = [[x % p for x in row] for row in rows]
    if not m or not m[0]:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        if p is None:
            inv = 1 / m[rank][col]
            top = m[rank] = [x * inv for x in m[rank]]
        else:
            inv = pow(m[rank][col], p - 2, p)
            top = m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(nrows):
            f = m[r][col]
            if r == rank or not f:
                continue
            if p is None:
                m[r] = [x - f * y for x, y in zip(m[r], top)]
            else:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], top)]
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return m[:len(pivots)], pivots


def _solve(rows, rhs, p):
    """One solution x of rows @ x = rhs (over F_p, or Q when p is None)."""
    if not rows:
        return None if any(v % p if p else v for v in rhs) else []
    ncols = len(rows[0])
    red, pivots = echelon([list(row) + [b] for row, b in zip(rows, rhs)], p)
    if pivots and pivots[-1] == ncols:
        return None  # inconsistent
    x = [0 if p else Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    return len(echelon(rows, p)[1])


def rref_mod_p(rows: list[list[int]], p: int):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    return echelon(rows, p)


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : rows @ v = 0} over F_p (vectors of length ncols)."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = echelon(rows, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(v)
    return basis


def solve_mod_p(rows: list[list[int]], rhs: list[int], p: int):
    """One solution x of rows @ x = rhs over F_p, or None."""
    return _solve(rows, rhs, p)


def rank_frac(rows) -> int:
    return len(echelon(rows)[1])


def solve_frac(rows, rhs):
    """One rational solution of rows @ x = rhs, or None."""
    return _solve(rows, rhs, None)
