"""Multiplicative structure of the cohomology rings.

Classical model: S(u_J^*) tensor Lambda-span{e_w : w in ^JW}, with
e_w . e_w' = sign * e_{w''} when the inversion sets are disjoint and their
union is again an inversion set Phi(w''), zero otherwise.  The sign is the
parity of the permutation merging the concatenated inversion lists (each
taken in the fixed convex order) into convex order.

Quantum model: scalars are signed powers of a primitive l-th root of
unity; the exterior part is the zeta-twisted exterior algebra with
relations x_i x_j = -zeta^{-(gamma_i, gamma_j)} x_j x_i (i < j), that is
x_j x_i = -zeta^{(gamma_i, gamma_j)} x_i x_j, and x_i^2 = 0.

Both models multiply exterior classes by one rule, `mask_scalar`; at
l = 1 its scalar is the classical sign.
"""

from __future__ import annotations

from collections import namedtuple

from .alcoves import PreconditionError, RegimeError, require_regime
from .rootsystem import RootSystem
from .weyl import WeylElement, WeylGroup, mask_bits


# ----------------------------------------------------------------------
# Scalars: sign * zeta^exponent


class CycScalar(namedtuple("CycScalar", "sign exponent ell")):
    """sign * zeta^exponent, zeta a primitive ell-th root of unity.

    ell = 1 models the classical case (every exponent is 0)."""
    __slots__ = ()

    def __new__(cls, sign: int, exponent: int, ell: int):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        return tuple.__new__(cls, (sign, exponent % ell if sign else 0, ell))

    @classmethod
    def one(cls, ell=1):
        return cls(1, 0, ell)

    @classmethod
    def zero(cls, ell=1):
        return cls(0, 0, ell)

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        if self.ell != other.ell:
            raise ValueError("mixed moduli")
        return CycScalar(self.sign * other.sign,
                         self.exponent + other.exponent, self.ell)

    def __neg__(self):
        return CycScalar(-self.sign, self.exponent, self.ell)

    def __repr__(self):
        if self.sign == 0:
            return "0"
        s = "-" if self.sign < 0 else ""
        if self.exponent == 0:
            return f"{s}1"
        return f"{s}z^{self.exponent}"


def merge_sign(left: tuple, right: tuple) -> int:
    """Parity of the permutation sorting the concatenation of two sorted
    index tuples (the passes of a right entry over larger left ones); 0 if
    they intersect.  The reference for the sign of mask_scalar, and the
    sign of koszul.cochain_cup and koszul.CEComplex.d_basis_element."""
    passes = 0
    for x in left:
        for y in right:
            if x == y:
                return 0
            passes += x > y
    return -1 if passes % 2 else 1


# ----------------------------------------------------------------------
# Exterior classes: one product rule for both models


def mask_scalar(m1: int, m2: int, rs: RootSystem, ell: int) -> CycScalar:
    """Scalar c with x_{m1} x_{m2} = c * x_{m1 | m2} for disjoint masks, where
    x_m is the product of the generators of the set bits of m, ascending.

    Sorting passes each bit b of m2 over the bits a > b of m1, and each pass
    is a factor -zeta^{(gamma_a, gamma_b)}.  The sign is the merge sign; the
    exponent is only summed when ell > 1."""
    pos = rs.positive_roots
    swaps = expo = 0
    for b in mask_bits(m2):
        above = m1 >> b  # bit b is not in m1: these are the bits a > b
        swaps += above.bit_count()
        if ell > 1:
            for a in mask_bits(above):
                expo += rs.inner_roots(pos[a + b], pos[b])
    return CycScalar(-1 if swaps % 2 else 1, expo, ell)


def quantum_nil_product(w1: WeylElement, w2: WeylElement, rs: RootSystem,
                        group: WeylGroup, ell: int):
    """(CycScalar, w) with e_{w1} e_{w2} = scalar * e_w in the exterior
    model (zeta-twisted when ell > 1), or None when Phi(w1) and Phi(w2)
    meet or their union is not an inversion set."""
    m1 = group.inversion_mask(w1)
    m2 = group.inversion_mask(w2)
    if m1 & m2:
        return None
    w = group.element_with_mask(m1 | m2)
    if w is None:
        return None
    return mask_scalar(m1, m2, rs, ell), w


def nil_product(w1: WeylElement, w2: WeylElement, rs: RootSystem,
                group: WeylGroup):
    """(sign, w) with e_{w1} e_{w2} = sign * e_w, or None for zero: the
    classical (ell = 1) view of quantum_nil_product."""
    res = quantum_nil_product(w1, w2, rs, group, 1)
    return None if res is None else (res[0].sign, res[1])


# ----------------------------------------------------------------------
# Quantum exterior algebra on the positive-root generators


def quantum_swap_factor(a: int, b: int, rs: RootSystem, ell: int) -> CycScalar:
    """Factor when commuting x_a past x_b with a > b:
    x_a x_b = -zeta^{(gamma_b, gamma_a)} x_b x_a."""
    gb = rs.positive_roots[b]
    ga = rs.positive_roots[a]
    return CycScalar(-1, rs.inner_roots(gb, ga), ell)


def quantum_straighten(word: tuple, rs: RootSystem, ell: int):
    """Sort a product x_{i1}...x_{ik} of quantum exterior generators.

    Returns (CycScalar, sorted tuple); scalar zero on repeated indices."""
    arr = list(word)
    scal = CycScalar.one(ell)
    # insertion sort, tracking the commutation factor per adjacent swap
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            scal = scal * quantum_swap_factor(arr[j - 1], arr[j], rs, ell)
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    if len(set(arr)) != len(arr):
        return CycScalar.zero(ell), tuple(arr)
    return scal, tuple(arr)


# ----------------------------------------------------------------------
# Full ring model: polynomial part x exterior part


class BasisClass(namedtuple("BasisClass", "s_part w_part")):
    """s_part: exponent tuple over the nilradical roots (polynomial part);
    w_part: element of ^JW (exterior part)."""
    __slots__ = ()

    def degree(self) -> int:
        return 2 * sum(self.s_part) + self.w_part.length


class RingElement:
    """Finite CycScalar-combination of BasisClass terms."""

    def __init__(self, terms=None, ell: int = 1):
        self.ell = ell
        self.terms: dict[BasisClass, CycScalar] = {}
        for cls, scal in (terms or {}).items():
            if scal.sign:
                self.terms[cls] = scal

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.ell == other.ell \
            and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for cls, scal in sorted(self.terms.items(),
                                key=lambda kv: (kv[0].degree(), kv[0].s_part)):
            bits.append(f"{scal!r}*S{cls.s_part}e[{''.join(str(i+1) for i in cls.w_part.word) or 'e'}]")
        return " + ".join(bits)


class CohomologyRing:
    """Ring model for H^*((U_J)_1) (classical, ell=1) or its quantum
    analog (ell > 1): S(u_J^*) tensor the (twisted) exterior span of ^JW."""

    def __init__(self, rs: RootSystem, group: WeylGroup, J=(), mode="classical",
                 modulus: int | None = None, unsafe: bool = False):
        self.rs = rs
        self.group = group
        self.J = tuple(sorted(set(J)))
        self.mode = mode
        self.formal_only = False
        if mode not in ("classical", "quantum"):
            raise ValueError(f"unknown mode {mode!r}")
        if modulus is None:
            raise PreconditionError(
                "classical ring model needs a prime p" if mode == "classical"
                else "quantum ring model needs a modulus l")
        try:
            require_regime("modular" if mode == "classical" else mode,
                           modulus, rs, "ring", self.J)
        except RegimeError:
            if not unsafe:
                raise
            self.formal_only = True
        self.ell = 1 if mode == "classical" else modulus
        self.modulus = modulus
        self.reps = group.min_coset_reps(self.J)

    def multiply_classes(self, c1: BasisClass, c2: BasisClass) -> RingElement:
        cached = getattr(self, "_mc_cache", None)
        if cached is None:
            cached = self._mc_cache = {}
        key = (c1, c2)
        hit = cached.get(key)
        if hit is not None:
            return hit
        out = self._multiply_classes(c1, c2)
        cached[key] = out
        return out

    def _multiply_classes(self, c1: BasisClass, c2: BasisClass) -> RingElement:
        res = quantum_nil_product(c1.w_part, c2.w_part, self.rs, self.group,
                                  self.ell)
        if res is None:
            return RingElement({}, self.ell)
        scal, w = res
        # polynomial part is central and even: no extra sign
        s = tuple(a + b for a, b in zip(c1.s_part, c2.s_part))
        return RingElement({BasisClass(s, w): scal}, self.ell)

    def exterior_table(self) -> dict:
        """{(w1, w2): (CycScalar, w) or None} over ^JW x ^JW, with
        e_{w1} e_{w2} = scalar * e_w.  Closed: w is again in ^JW."""
        table = getattr(self, "_table", None)
        if table is None:
            table = self._table = {
                (w1, w2): quantum_nil_product(w1, w2, self.rs, self.group,
                                              self.ell)
                for w1 in self.reps for w2 in self.reps}
        return table

    def table_rows(self):
        """Rows (w, w', result_w'' or 0, sign, zeta_exponent)."""
        name = {w: "".join(str(i + 1) for i in w.word) or "e"
                for w in self.reps}
        rows = []
        for (w1, w2), prod in self.exterior_table().items():
            if prod is None:
                tgt, sign, expo = "0", 0, 0
            else:
                scal, w = prod
                tgt, sign, expo = name[w], scal.sign, scal.exponent
            rows.append((name[w1], name[w2], tgt, sign, expo))
        return rows

    def metadata(self) -> dict:
        return {
            "type": self.rs.label,
            "J": list(self.J),
            "mode": self.mode,
            "modulus": self.modulus,
            "formal_only": self.formal_only,
            "w0_word": [i + 1 for i in self.group.longest.word],
            "positive_root_order": [list(g) for g in self.rs.positive_roots],
        }


def check_ring_laws(ring: CohomologyRing) -> dict:
    """Associativity, graded commutativity (up to the twist), squares of
    odd classes, and identity, checked exhaustively on the exterior basis
    by lookups in ring.exterior_table().

    Associativity visits only the triples where a product is nonzero.  Let
    L be the triples (a, b, c) with (e_a e_b) e_c != 0 and R those with
    e_a (e_b e_c) != 0.  Each triple of L is checked to lie in R with the
    same value, so L lies in R; then |R| is counted, as the sum over the
    nonzero e_b e_c = s e_w of the number of a with e_a e_w != 0, and must
    equal |L|.  Both sets are finite, so L = R, and (ab)c = a(bc) holds on
    every triple, the zero ones included: the answer is that of the check
    over all |^JW|^3 triples, at a cost of O(|^JW|^2 + |L|).

    Returns a dict of law name -> bool."""
    table = ring.exterior_table()
    reps = ring.reps
    one = CycScalar.one(ring.ell)

    def times(x, y):
        """x * y for x, y each (scalar, w) or None (zero)."""
        if x is None or y is None:
            return None
        prod = table[x[1], y[1]]
        return None if prod is None else (x[0] * y[0] * prod[0], prod[1])

    # the nonzero products; for each w, the c with e_w e_c != 0 and the
    # number of a with e_a e_w != 0
    nonzero = [(pair, prod) for pair, prod in table.items()
               if prod is not None]
    right_of = {w: [] for w in reps}
    left_count = dict.fromkeys(reps, 0)
    for (a, b), _ in nonzero:
        right_of[a].append(b)
        left_count[b] += 1
    ok_assoc = all(times(ab, (one, c)) == times((one, a), table[b, c])
                   for (a, b), ab in nonzero for c in right_of[ab[1]]) \
        and sum(len(right_of[ab[1]]) for _, ab in nonzero) \
        == sum(left_count[bc[1]] for _, bc in nonzero)
    ok_square = all(a.length == 0 or table[a, a] is None for a in reps)
    ident = ring.group.identity
    ok_identity = all(table[ident, a] == (one, a) == table[a, ident]
                      for a in reps)
    # graded commutativity, one rule for both models: e_a e_b = c e_w and
    # e_b e_a = c' e_w with c c' = (-1)^{l(a) l(b)} zeta^{(gamma_a, gamma_b)},
    # gamma_v the sum of Phi(v).  Read on the nonzero products only: a pair
    # with one order zero and the other not fails from its nonzero side
    rs = ring.rs
    gamma = {}
    for w in reps:
        g = (0,) * rs.rank
        for k in mask_bits(ring.group.inversion_mask(w)):
            g = tuple(map(sum, zip(g, rs.positive_roots[k])))
        gamma[w] = g

    def commutes(a, b, ab):
        ba = table[b, a]
        return ba is not None and ba[1] == ab[1] and ab[0] * ba[0] == \
            CycScalar(-1 if a.length * b.length % 2 else 1,
                      rs.inner_roots(gamma[a], gamma[b]), ring.ell)

    ok_comm = all(commutes(a, b, ab) for (a, b), ab in nonzero)
    return {"associative": ok_assoc, "odd_squares_zero": ok_square,
            "identity": ok_identity, "graded_commutative": ok_comm}
