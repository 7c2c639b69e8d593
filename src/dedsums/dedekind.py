"""Dedekind sums, classical and character-twisted, by literal direct summation.

Every sum here is computed term by term from its defining finite sum, with no
closed forms, so these values can serve as the independent side of every
reciprocity verification.  Families:

  classical:   s(b, c)                 = sum_{j mod c} ((j/c)) ((bj/c))
  apostol:     s_p(b, c)               = sum_{j=0}^{c-1} periodic_B_p(bj/c) ((j/c))
  char_pair:   s_p(b, c : chi1, chi2)  = sum_{n=0}^{ck-1}
                   chi1(n) periodic_B_{p,chi2}(bn/c) ((n/(ck)))       [same k]
  hat:         sum_{n=0}^{c k1 k2 - 1}
                   chi1(n) periodic_B_{p,chi2}(nb/c) ((n/(c k1 k2)))
  tilde:       sum_{n=0}^{c k1 - 1}
                   chi1(n) periodic_B_{p,chi2}(n b k2/(c k1)) ((n/(c k1)))

plus the weighted power sums sum_n chi1(n) periodic_B_{p+1,chi2}(...) used by
the closed-form identities.  Character sums require primitive characters (the
identities they feed are stated for primitive characters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bernoulli import periodic_bernoulli
from .charbernoulli import gen_bernoulli_function
from .dirichlet import DirichletCharacter
from .exactnum import CyclotomicNumber

__all__ = [
    "SumSpec",
    "classical_dedekind_sum",
    "apostol_sum",
    "char_pair_sum",
    "hat_sum",
    "tilde_sum",
    "char_weighted_power_sum",
    "tilde_weighted_power_sum",
    "compute_sum",
]


@dataclass(frozen=True)
class SumSpec:
    """Parameter record for one Dedekind-type sum; q = gcd(b, c) is attached
    to reports because the reciprocity statements are phrased with it."""
    family: str
    p: int
    b: int
    c: int
    chi1: Optional[DirichletCharacter] = None
    chi2: Optional[DirichletCharacter] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        needs_chars = self.family in ("char_single", "char_pair", "hat", "tilde")
        if needs_chars and (self.chi1 is None or
                            (self.family != "char_single" and self.chi2 is None)):
            raise ValueError(f"family {self.family!r} requires characters")
        if not needs_chars and (self.chi1 is not None or self.chi2 is not None):
            raise ValueError(f"family {self.family!r} takes no characters")

    @property
    def q(self) -> int:
        return math.gcd(self.b, self.c)


def _require_primitive(*chars: DirichletCharacter) -> None:
    for chi in chars:
        if not chi.is_primitive():
            raise ValueError(f"character {chi!r} is not primitive")


def classical_dedekind_sum(b: int, c: int) -> Fraction:
    """s(b, c) over the residues j mod c, exactly."""
    if c < 1:
        raise ValueError("c must be >= 1")
    total = Fraction(0)
    for j in range(c):
        total += periodic_bernoulli(1, Fraction(j, c)) * periodic_bernoulli(1, Fraction(b * j, c))
    return total


def apostol_sum(p: int, b: int, c: int) -> Fraction:
    """Degree-p generalization; coincides with the classical sum at p = 1."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    total = Fraction(0)
    for j in range(c):
        total += periodic_bernoulli(p, Fraction(b * j, c)) * periodic_bernoulli(1, Fraction(j, c))
    return total


def _twisted_sum(p: int, chi1: DirichletCharacter, chi2: DirichletCharacter,
                 m: int, d: int, start: int, stop: int,
                 saw_den: Optional[int] = None) -> CyclotomicNumber:
    """sum_{n=start}^{stop-1} chi1(n) periodic_B_{p,chi2}(n*m/d), each term
    times the sawtooth ((n/saw_den)) when saw_den is given.

    The kernel of the five character sums.  The range is literal: with a
    modulus-1 character the end terms are nonzero.  Terms are accumulated in
    the group ring of Q(zeta_e), e = lcm of the orders: chi1(n) = zeta_e^(s1 j)
    shifts power-basis coefficient i of the chi2 value to bucket s1 j + s2 i."""
    _require_primitive(chi1, chi2)
    k1, phases = chi1.modulus, chi1.phases
    e = math.lcm(chi1.order, chi2.order)
    s1, s2 = e // chi1.order, e // chi2.order
    acc = [Fraction(0)] * e
    for n in range(start, stop):
        j = phases[n % k1]
        if j is None:
            continue
        if saw_den is None:
            saw = 1
        else:
            saw = periodic_bernoulli(1, Fraction(n, saw_den))
            if saw == 0:
                continue
        base = s1 * j
        for i, g in enumerate(gen_bernoulli_function(chi2, p, Fraction(n * m, d)).coeffs):
            if g:
                acc[(base + s2 * i) % e] += g * saw
    return CyclotomicNumber.from_group_ring(e, acc)


def char_pair_sum(p: int, b: int, c: int,
                  chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """Two-character sum with both characters of one modulus k.

    With chi1 = chi2 this is the single-character sum of the hierarchy.
    """
    if chi1.modulus != chi2.modulus:
        raise ValueError("char_pair_sum requires characters of the same modulus")
    if c < 1 or p < 1:
        raise ValueError("need c >= 1 and p >= 1")
    return _twisted_sum(p, chi1, chi2, b, c, 0, c * chi1.modulus, c * chi1.modulus)


def hat_sum(p: int, b: int, c: int,
            chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """Cross-modulus sum over c*k1*k2 terms with argument n*b/c."""
    span = c * chi1.modulus * chi2.modulus
    return _twisted_sum(p, chi1, chi2, b, c, 0, span, span)


def tilde_sum(p: int, b: int, c: int,
              chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """Cross-modulus sum over c*k1 terms with argument n*b*k2/(c*k1).

    Reduces to char_pair_sum for equal moduli, and evaluating it at
    (b*k1, c*k2) reproduces hat_sum(b, c).
    """
    span = c * chi1.modulus
    return _twisted_sum(p, chi1, chi2, b * chi2.modulus, span, 0, span, span)


def char_weighted_power_sum(p: int, b: int, c: int,
                            chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """sum_{n=1}^{ck-1} chi1(n) periodic_B_{p+1,chi2}(bn/c), k = modulus of chi1.

    This is the degree-(p+1) sum whose closed double-sum form the verification
    engine checks; here it is always the literal direct sum.
    """
    return _twisted_sum(p + 1, chi1, chi2, b, c, 1, c * chi1.modulus)


def tilde_weighted_power_sum(p: int, b: int, c: int,
                             chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """sum_{n=1}^{c*k1} chi1(n) periodic_B_{p+1,chi2}(n*b*k2/(c*k1)),
    the cross-modulus counterpart of char_weighted_power_sum."""
    span = c * chi1.modulus
    return _twisted_sum(p + 1, chi1, chi2, b * chi2.modulus, span, 1, span + 1)


# family -> evaluation of a SumSpec of that family
_FAMILY_SUMS = {
    "classical": lambda s: classical_dedekind_sum(s.b, s.c),
    "apostol": lambda s: apostol_sum(s.p, s.b, s.c),
    "char_single": lambda s: char_pair_sum(s.p, s.b, s.c, s.chi1, s.chi1),
    "char_pair": lambda s: char_pair_sum(s.p, s.b, s.c, s.chi1, s.chi2),
    "hat": lambda s: hat_sum(s.p, s.b, s.c, s.chi1, s.chi2),
    "tilde": lambda s: tilde_sum(s.p, s.b, s.c, s.chi1, s.chi2),
}

FAMILIES = tuple(_FAMILY_SUMS)


def compute_sum(spec: SumSpec):
    """Evaluate a SumSpec; scalar result type follows the family."""
    return _FAMILY_SUMS[spec.family](spec)
