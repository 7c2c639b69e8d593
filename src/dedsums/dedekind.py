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

The character sums share one kernel, _twisted_sum, that works on integers
(Knuth, TAOCP vol. 2, 4.5.1).  It expands every term by the defining sum of
the twisted function over the units a of chi2 (the sum charbernoulli
evaluates through dirichlet.character_sum); each periodic Bernoulli value in
it, and each sawtooth value, is an integer numerator over a denominator
fixed per sum, read from a cached table (its two periods laid end to end,
so the index needs one reduction, not two).  The numerators are added into
integer group-ring buckets by the phase of chi1(n) conj chi2(a); the bucket
of each (phase, unit a) is planned once per character pair (_slot_plan).
The buckets are reduced modulo Phi_e as integers, and the coordinates are
scaled once at the end, as integers over the sum's one denominator.  The
kernel keeps this loop inline rather than call character_sum, which
measured 3.7 times slower here (see _twisted_sum).  The range of n and the
units a stay literal: one table value is added per (n, a) term.  The
classical and Apostol sums read both of their factors from the same tables
and build one Fraction per sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional

from .bernoulli import _periodic_table, _piece_denominator
from .dirichlet import DirichletCharacter
from .exactnum import CyclotomicNumber, _reduce_mod_phi

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


SUM_BUDGET = 10 ** 6
"""The most terms one direct sum may add, and the most entries of a
_periodic_table it may build.  Both are checked before any table is built:
the tables are cached for the life of the process, and a sum's time grows
with its terms (a modulus-7 pair sum of 10^5 terms takes about 0.2 s of CPU
time on a busy 2-vCPU x86 host, its tables built first, and 0.12 to 0.19 s
with them cached)."""


def _require_affordable(terms: int, *table_sizes: int) -> None:
    if terms > SUM_BUDGET:
        raise ValueError(f"a direct sum of {terms} terms is over SUM_BUDGET = {SUM_BUDGET}")
    for size in table_sizes:
        if size > SUM_BUDGET:
            raise ValueError(f"a table of {size} entries is over SUM_BUDGET = {SUM_BUDGET}")


def _require_primitive(*chars: DirichletCharacter) -> None:
    for chi in chars:
        if not chi.is_primitive():
            raise ValueError(f"character {chi!r} is not primitive")


def classical_dedekind_sum(b: int, c: int) -> Fraction:
    """s(b, c) over the residues j mod c, exactly: the sawtooth values
    ((j/c)) and ((bj/c)) are integer numerators over 2c, read from
    _periodic_table(1, c)."""
    if c < 1:
        raise ValueError("c must be >= 1")
    _require_affordable(c, c)
    saws = _periodic_table(1, c)
    total = sum(saws[j] * saws[b * j % c] for j in range(c))
    return Fraction(total, _piece_denominator(1, c) ** 2)


def apostol_sum(p: int, b: int, c: int) -> Fraction:
    """Degree-p generalization; coincides with the classical sum at p = 1.
    Both factors are integer numerators read from _periodic_table."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    _require_affordable(c, c)
    table, saws = _periodic_table(p, c), _periodic_table(1, c)
    total = sum(table[b * j % c] * saws[j] for j in range(c))
    return Fraction(total, _piece_denominator(p, c) * _piece_denominator(1, c))


@lru_cache(maxsize=None)
def _slot_plan(chi1: DirichletCharacter, chi2: DirichletCharacter):
    """(e, plans) for the twisted sums of the pair: e = lcm of the orders,
    and plans[j] holds, for each unit a of chi2, the pair (a, slot) with
    slot = (s1 j - s2 j2(a)) mod e, the group-ring bucket of
    chi1(n) conj chi2(a) = zeta_e^(s1 j - s2 j2(a)) when chi1(n) =
    zeta_{order1}^j.  One plan per character pair, as
    verify._binom_charbernoulli_rows keeps one row set per pair."""
    e = math.lcm(chi1.order, chi2.order)
    s1, s2 = e // chi1.order, e // chi2.order
    units = [(a, s2 * j2) for a, j2 in enumerate(chi2.phases) if j2 is not None]
    return e, tuple(tuple((a, (s1 * j - off) % e) for a, off in units)
                    for j in range(chi1.order))


def _twisted_sum(p: int, chi1: DirichletCharacter, chi2: DirichletCharacter,
                 m: int, d: int, start: int, stop: int,
                 saw_den: Optional[int] = None) -> CyclotomicNumber:
    """sum_{n=start}^{stop-1} chi1(n) periodic_B_{p,chi2}(n*m/d), each term
    times the sawtooth ((n/saw_den)) when saw_den is given.

    The kernel of the five character sums.  The range is literal: with a
    modulus-1 character the end terms are nonzero.  Each periodic_B_{p,chi2}
    value is expanded by its defining sum over the units a of chi2, with
    N = d*k2 and den = _piece_denominator(p, N):

        periodic_B_{p,chi2}(r/d) = k2^(p-1)/den
                                   * sum_a conj(chi2)(a) t((a*d + r) mod N),

    where t = _periodic_table(p, N) holds the numerators of periodic_B_p(./N),
    as _periodic_table(1, saw_den) holds the sawtooth's.  Terms are
    accumulated as integers in the group ring of Q(zeta_e), e = lcm of the
    orders, one table value per (n, a) term added into its bucket.  The
    units a and their buckets for each phase of chi1(n) are read from
    _slot_plan, memoised per character pair, so a call builds no tuple per
    unit (per-call (a*d, bucket) pairs measured 2 % more peak RSS on the
    charsum-wide benchmark).  With r = n*m mod N and a*d < N, the index
    a*d + r is below 2N, so it reads the two-period table t + t, built per
    call, with no second reduction.  The loop without a sawtooth adds the
    table value alone; the loop with one skips the terms where the sawtooth
    is 0.  The buckets are reduced modulo Phi_e as integers, and the phi(e)
    coordinates are scaled once at the end: times k2^(p-1), over den, with
    no Fraction built.  A sum over SUM_BUDGET terms, or whose tables would
    pass it, is refused first.  Callers ensure d >= 1 and p >= 1.

    This is the one phase loop besides dirichlet.character_sum, on purpose:
    as a character_sum caller over the two ranges (chars chi1 and conj chi2,
    one value call per (n, a) pair) the kernel ran 3.7 times slower on the
    1842 sums of the seed-3 charsum-wide benchmark sample, 0.13 s against
    0.47 s of CPU time on a 2-vCPU Intel Xeon host (warm tables, best of 15
    passes, median of six runs); the slot plans and the two-period table
    took the kernel there from 0.25 s to 0.13 s."""
    _require_primitive(chi1, chi2)
    big = d * chi2.modulus
    _require_affordable(stop - start, big, saw_den or 0)
    k1, phases = chi1.modulus, chi1.phases
    e, plans = _slot_plan(chi1, chi2)
    scale, den = chi2.modulus ** (p - 1), _piece_denominator(p, big)
    table = _periodic_table(p, big)
    twice = table + table
    acc = [0] * e
    if saw_den is None:
        for n in range(start, stop):
            j = phases[n % k1]
            if j is not None:
                r = n * m % big
                for a, slot in plans[j]:
                    acc[slot] += twice[a * d + r]
    else:
        saws = _periodic_table(1, saw_den)
        den *= _piece_denominator(1, saw_den)
        for n in range(start, stop):
            j = phases[n % k1]
            if j is None:
                continue
            saw = saws[n % saw_den]
            if saw:
                r = n * m % big
                for a, slot in plans[j]:
                    acc[slot] += twice[a * d + r] * saw
    nums = [x * scale for x in _reduce_mod_phi(acc, e)]
    return CyclotomicNumber._from_ints(e, nums, den)


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
    if c < 1 or p < 1:
        raise ValueError("need c >= 1 and p >= 1")
    span = c * chi1.modulus * chi2.modulus
    return _twisted_sum(p, chi1, chi2, b, c, 0, span, span)


def tilde_sum(p: int, b: int, c: int,
              chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """Cross-modulus sum over c*k1 terms with argument n*b*k2/(c*k1).

    Reduces to char_pair_sum for equal moduli, and evaluating it at
    (b*k1, c*k2) reproduces hat_sum(b, c).
    """
    if c < 1 or p < 1:
        raise ValueError("need c >= 1 and p >= 1")
    span = c * chi1.modulus
    return _twisted_sum(p, chi1, chi2, b * chi2.modulus, span, 0, span, span)


def char_weighted_power_sum(p: int, b: int, c: int,
                            chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """sum_{n=1}^{ck-1} chi1(n) periodic_B_{p+1,chi2}(bn/c), k = modulus of chi1.

    This is the degree-(p+1) sum whose closed double-sum form the verification
    engine checks; here it is always the literal direct sum.
    """
    if c < 1 or p < 0:
        raise ValueError("need c >= 1 and p >= 0")
    return _twisted_sum(p + 1, chi1, chi2, b, c, 1, c * chi1.modulus)


def tilde_weighted_power_sum(p: int, b: int, c: int,
                             chi1: DirichletCharacter, chi2: DirichletCharacter) -> CyclotomicNumber:
    """sum_{n=1}^{c*k1} chi1(n) periodic_B_{p+1,chi2}(n*b*k2/(c*k1)),
    the cross-modulus counterpart of char_weighted_power_sum."""
    if c < 1 or p < 0:
        raise ValueError("need c >= 1 and p >= 0")
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
