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
identities they feed are stated for primitive characters) and a non-principal
chi2; at the modulus-1 character, char_pair_sum is apostol_sum.

The character sums share one kernel, _twisted_sum, that works on integers
(Knuth, TAOCP vol. 2, 4.5.1).  It expands every term by the defining sum of
the twisted function over the units a of chi2 (the sum charbernoulli
evaluates through dirichlet.character_sum); each periodic Bernoulli value in
it, and each sawtooth value, is an integer numerator over a denominator
fixed per sum, read from a cached table.  The numerators are added into
integer group-ring buckets by the phase of chi1(n) conj chi2(a) in
dirichlet.table_sum, the accumulator the closed-side double sums of verify
use too, and the coordinates are scaled once at the end, as integers over
the sum's one denominator.  The units are read in pairs a, k2 - a, whose
terms share a bucket up to the sign chi2(-1), so each row adds a pair's two
values into its bucket once; every chi1 of one order shares the plan of
those pairs.  The range of n and the units a stay literal: one table value
is added per (n, a) term.
The Apostol sum reads both of its factors from the same tables and builds
one Fraction per sum; the classical sum is the Apostol sum at p = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bernoulli import _periodic_table, _piece_denominator
from .budget import require
from .dirichlet import DirichletCharacter, table_sum
from .exactnum import CyclotomicNumber, euler_phi

__all__ = [
    "classical_dedekind_sum",
    "apostol_sum",
    "char_pair_sum",
    "hat_sum",
    "tilde_sum",
    "char_weighted_power_sum",
    "tilde_weighted_power_sum",
]


def _require_primitive(*chars: DirichletCharacter) -> None:
    for chi in chars:
        if not chi.is_primitive():
            raise ValueError(f"character {chi!r} is not primitive")


def classical_dedekind_sum(b: int, c: int) -> Fraction:
    """s(b, c) = s_1(b, c): apostol_sum at p = 1, whose two factors are the
    sawtooth values ((bj/c)) and ((j/c))."""
    return apostol_sum(1, b, c)


def apostol_sum(p: int, b: int, c: int) -> Fraction:
    """Degree-p generalization of s(b, c), over the residues j mod c.  Both
    factors are integer numerators read from _periodic_table, the sawtooth's
    over 2c."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    require("SUM_BUDGET", c, "a direct sum of {} terms")
    table, saws = _periodic_table(p, c), _periodic_table(1, c)
    total = sum(table[b * j % c] * saws[j] for j in range(c))
    return Fraction(total, _piece_denominator(p, c) * _piece_denominator(1, c))


def _twisted_sum(p: int, chi1: DirichletCharacter, chi2: DirichletCharacter,
                 m: int, d: int, start: int, stop: int,
                 saw_den: Optional[int] = None) -> CyclotomicNumber:
    """sum_{n=start}^{stop-1} chi1(n) periodic_B_{p,chi2}(n*m/d), each term
    times the sawtooth ((n/saw_den)) when saw_den is given.

    The kernel of the five character sums.  The range is literal: with a
    modulus-1 chi1 the end terms are nonzero.  Each periodic_B_{p,chi2}
    value is expanded by its defining sum over the units a of chi2, with
    N = d*k2 and den = _piece_denominator(p, N):

        periodic_B_{p,chi2}(r/d) = k2^(p-1)/den
                                   * sum_a conj(chi2)(a) t((a*d + r) mod N),

    where t = _periodic_table(p, N) holds the numerators of periodic_B_p(./N),
    as _periodic_table(1, saw_den) holds the sawtooth's.  With r = n*m mod N
    and a*d < N, this is dirichlet.table_sum over the rows n at alpha = m
    with the columns a*d, one table value added per (n, a) term, the units
    read in pairs a, k2 - a, weighted by the sawtooth table when there is
    one, and scaled once by k2^(p-1)/den, with no Fraction built.  A
    principal chi2 (of primitive ones, the modulus-1 character) is a
    ValueError, and a sum of over SUM_BUDGET terms, rows times the units of
    chi2, or whose tables would pass it, is refused next, before any table.
    Callers ensure d >= 1 and p >= 1."""
    _require_primitive(chi1, chi2)
    if chi2.is_principal():
        raise ValueError(f"character {chi2.modulus}:{chi2.label} is principal; the twisted "
                         "sums need a non-principal chi2 (at modulus 1, apostol_sum)")
    k2 = chi2.modulus
    big = d * k2
    require("SUM_BUDGET", max((stop - start) * euler_phi(k2), big, saw_den or 0),
            "a direct sum of {} terms or table entries")
    table, den, saws = _periodic_table(p, big), _piece_denominator(p, big), None
    if saw_den is not None:
        saws = _periodic_table(1, saw_den)
        den *= _piece_denominator(1, saw_den)
    e, nums = table_sum(table, chi1, range(start, stop), m, chi2, [a * d for a in range(k2)],
                        saws)
    scale = k2 ** (p - 1)
    return CyclotomicNumber._from_ints(e, [x * scale for x in nums], den)


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
