"""Alcove membership, restricted weights, weak linkage, and l-admissibility."""

from __future__ import annotations

import math
from collections import namedtuple

from .rootsystem import RootSystem
from .weyl import WeylGroup

# The AdmissibilityProfile flags an l-th root of unity needs in each context.
ADMISSIBLE = {
    "base": ("odd", "base_coprime"),
    "weight-separation": ("odd", "base_coprime", "coprime_type_conditions"),
    "kostant": ("odd", "base_coprime", "ge_hminus1"),
    "ring": ("odd", "base_coprime", "coprime_type_conditions", "gt_2hminus2"),
}
CONTEXTS = tuple(ADMISSIBLE)

# Bounds on the modulus beyond primality and the flags: (mode, context) ->
# (bound from h and J, whether the modulus must exceed it or may reach it,
# message).  "ext" compares the restricted Ext with the bigraded character.
BOUNDS = {
    ("modular", "kostant"): (lambda h, J: h - 1, False,
                             "modular mode requires p >= h-1 = {bound}"),
    ("modular", "ring"): (lambda h, J: 3 * (h - 1) if J else 2 * (h - 1), True,
                          "classical ring model requires p > {bound} (got"
                          " {modulus}); pass unsafe to study the formal model"),
    ("modular", "ext"): (lambda h, J: h, True, "Ext check needs p > h = {bound}"),
    ("modular", "weight-separation"): (lambda h, J: h, True,
                                       "modular mode requires p > h = {bound}"),
    ("quantum", "weight-separation"): (lambda h, J: h, True,
                                       "quantum mode requires l > h = {bound}"),
}


class PreconditionError(ValueError):
    """A stated precondition (alcove membership, modulus bound, gate) failed."""


class RegimeError(PreconditionError):
    """A missed admissibility flag or BOUNDS entry (a caller may waive it)."""

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


def require_prime(p, what: str) -> None:
    """F_p elimination divides by each pivot, which needs p prime."""
    if p is None or p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise PreconditionError(f"{what} needs a prime p, got {p}")


class LinkageDatum(namedtuple("LinkageDatum", "w sigma modulus")):
    """lambda = w.0 + modulus * sigma, with sigma zero or minuscule."""
    __slots__ = ()


class AdmissibilityProfile(namedtuple(
        "AdmissibilityProfile", "modulus odd gt_h ge_hminus1 gt_2hminus2"
        " coprime_type_conditions base_coprime")):
    __slots__ = ()

    def flags(self) -> dict:
        """Every field but the modulus, in field order."""
        return dict(zip(self._fields[1:], self[1:]))


def in_alcove(lam: tuple, p: int, rs: RootSystem, closed: bool = False) -> bool:
    """Membership of lambda in the bottom p-alcove (or its closure)."""
    if p < 2:
        raise PreconditionError("modulus must be at least 2")
    shifted = tuple(x + r for x, r in zip(lam, rs.rho))
    for beta in rs.positive_roots:
        v = rs.pairing(shifted, beta)
        if closed:
            if v < 0 or v > p:
                return False
        else:
            if v <= 0 or v >= p:
                return False
    return True


def weak_linkage(lam: tuple, modulus: int, rs: RootSystem,
                 group: WeylGroup) -> LinkageDatum | None:
    """The unique (w, sigma) with lam = w.0 + modulus*sigma, or None.

    Exhausts all of W, so each returned datum doubles as a per-instance
    uniqueness certificate.  Requires lam dominant in the closed bottom
    alcove and modulus > h.
    """
    if modulus <= rs.coxeter_number:
        raise PreconditionError(
            f"weak linkage requires modulus > h = {rs.coxeter_number}")
    if not rs.is_dominant(lam) or not in_alcove(lam, modulus, rs, closed=True):
        raise PreconditionError("lambda must lie in X^+ and the closed bottom alcove")
    zero = (0,) * rs.rank
    found = []
    for w in group.elements:
        base = w.dot(zero, rs)
        diff = tuple(x - b for x, b in zip(lam, base))
        if all(c % modulus == 0 for c in diff):
            sigma = tuple(c // modulus for c in diff)
            found.append(LinkageDatum(w, sigma, modulus))
    if not found:
        return None
    if len(found) > 1:
        raise PreconditionError(
            f"linkage datum not unique for {lam} at modulus {modulus}")
    datum = found[0]
    minus = set(rs.minuscule_weights())
    assert datum.sigma == zero or datum.sigma in minus
    return datum


def admissibility(ell: int, rs: RootSystem, context: str):
    """Evaluate the root-of-unity admissibility flags and gate for a context.

    Returns (AdmissibilityProfile, passed: bool).
    """
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}; expected one of {CONTEXTS}")
    if ell < 1:
        raise PreconditionError("modulus must be positive")
    h = rs.coxeter_number
    coprime = True
    if rs.letter == "A":
        coprime = coprime and math.gcd(ell, rs.rank + 1) == 1
    if rs.label == "E6" or rs.label == "G2":
        coprime = coprime and math.gcd(ell, 3) == 1
    base_coprime = math.gcd(ell, 3) == 1 if rs.label == "G2" else True
    profile = AdmissibilityProfile(
        modulus=ell,
        odd=ell % 2 == 1,
        gt_h=ell > h,
        ge_hminus1=ell >= h - 1,
        gt_2hminus2=ell > 2 * (h - 1),
        coprime_type_conditions=coprime,
        base_coprime=base_coprime,
    )
    return profile, all(getattr(profile, flag) for flag in ADMISSIBLE[context])


def require_admissible(ell: int, rs: RootSystem, context: str) -> AdmissibilityProfile:
    profile, passed = admissibility(ell, rs, context)
    if not passed:
        failing = [k for k, v in profile.flags().items()
                   if not v and k in ADMISSIBLE[context]]
        raise RegimeError(
            f"l={ell} fails admissibility for context {context!r} on {rs.label}"
            f" (violated flags: {', '.join(failing)})")
    return profile


def require_regime(mode: str, modulus, rs: RootSystem, context=None, J=()):
    """The one gate on (mode, modulus) for a result stated in `context`
    (none: the modulus alone).  modular: p prime, then the BOUNDS entry;
    quantum: l >= 1, then the ADMISSIBLE flags and the BOUNDS entry;
    classical: nothing.  A missed flag or bound raises RegimeError."""
    if mode == "modular":
        if modulus is None or modulus < 2:
            raise PreconditionError("modular mode needs a modulus p >= 2")
        require_prime(modulus, "modular mode")
    elif mode == "quantum":
        if modulus is None or modulus < 1:
            raise PreconditionError("quantum mode needs a modulus l >= 1")
        if context is not None:
            require_admissible(modulus, rs, context)
    elif mode != "classical":
        raise ValueError(f"unknown mode {mode!r}")
    rule = BOUNDS.get((mode, context))
    if rule is not None:
        bound_of, strict, message = rule
        bound = bound_of(rs.coxeter_number, J)
        if modulus < bound + strict:
            raise RegimeError(message.format(bound=bound, modulus=modulus),
                              bound)
