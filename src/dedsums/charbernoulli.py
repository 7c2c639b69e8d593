"""Generalized Bernoulli numbers, polynomials, and periodic functions twisted
by a Dirichlet character.

For a character chi mod k the polynomial of degree index n is the finite sum

    k^(n-1) * sum_{a=0}^{k-1} conj(chi)(a) B_n((a + x)/k),

which matches the generating-function definition
sum_a conj(chi)(a) t e^((a+x)t) / (e^(kt) - 1).  The k-periodic function of
degree m >= 1 replaces B_m by the periodic Bernoulli function:

    k^(m-1) * sum_{n=0}^{k-1} conj(chi)(n) periodic_B_m((n + x)/k).

For the principal character mod 1 both reduce to the plain Bernoulli objects
(the a = 0 term carries weight 1 there; for k > 1 it carries weight 0).
Values are exact and live in Q(zeta_e) for e the order of chi.  For
non-principal chi the degree-n polynomial is the zero polynomial at n = 0 and
has degree at most n - 1 in general.

The periodic function is evaluated on integers, and _twisted_expansion is
the one statement of that expansion, shared with the character Dedekind
sums.  At x = r/d, with N = d*k, its terms are
periodic_B_m(((a*d + r) mod N)/N) over the units a of chi, integer
numerators over a denominator fixed per (m, N); they are added into integer
group-ring buckets by the phase of conj(chi)(a), reduced modulo Phi_e as
integers, scaled once by k^(m-1)/den, and the value is memoised under the
integers (chi, m, r mod N, d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .bernoulli import (Polynomial, _periodic_numerator, _piece_denominator,
                        bernoulli_poly)
from .dirichlet import DirichletCharacter, character_sum
from .exactnum import CyclotomicNumber

__all__ = [
    "gen_bernoulli_poly",
    "gen_bernoulli_number",
    "gen_bernoulli_function",
]


@lru_cache(maxsize=None)
def gen_bernoulli_poly(chi: DirichletCharacter, n: int) -> Polynomial:
    """Character-twisted Bernoulli polynomial of degree index n (coefficients
    are CyclotomicNumber in Q(zeta_order))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    k = chi.modulus
    scale = Fraction(k) ** (n - 1)
    # B_n((a + x)/k) has degree exactly n for every a
    shifted = [bernoulli_poly(n).compose_affine(Fraction(1, k), Fraction(a, k)).coeffs
               for a in range(k)]
    weights = [chi.conjugate()]
    return Polynomial([character_sum(weights, [range(k)], lambda a, i=i: shifted[a][i] * scale)
                       for i in range(n + 1)])


def gen_bernoulli_number(chi: DirichletCharacter, n: int) -> CyclotomicNumber:
    """Constant term of the degree-n twisted polynomial."""
    poly = gen_bernoulli_poly(chi, n)
    return poly.coeffs[0] if poly.coeffs else CyclotomicNumber.zero(chi.order)


def _twisted_expansion(chi: DirichletCharacter, m: int, d: int):
    """periodic_B_{m,chi}(r/d) on integers, for every r at once: with N = d*k,

        periodic_B_{m,chi}(r/d) = scale/den * sum_{(ad, j) in units}
                                      zeta_e^(-j) * t_m((ad + r) mod N),

    where t_m(t) = _periodic_numerator(m, t, N) is periodic_B_m(t/N) times
    den = _piece_denominator(m, N), scale = k^(m-1), and units pairs a*d with
    the phase j of chi(a) = zeta_e^j for each unit a mod k.  Returns
    (N, units, scale, den)."""
    big = d * chi.modulus
    units = [(a * d, j) for a, j in enumerate(chi.phases) if j is not None]
    return big, units, chi.modulus ** (m - 1), _piece_denominator(m, big)


@lru_cache(maxsize=None)
def _gen_bernoulli_function_reduced(chi: DirichletCharacter, m: int,
                                    r: int, d: int) -> CyclotomicNumber:
    # the value at x = r/d, 0 <= r < d*k.  Each numerator is evaluated on its
    # own, not read from _periodic_table: x may have any denominator, and a
    # table would hold d*k entries.
    e = chi.order
    big, units, scale, den = _twisted_expansion(chi, m, d)
    acc = [0] * e
    for ad, j in units:
        acc[-j % e] += _periodic_numerator(m, (ad + r) % big, big)
    return CyclotomicNumber.from_group_ring(e, acc) * Fraction(scale, den)


def gen_bernoulli_function(chi: DirichletCharacter, m: int, x) -> CyclotomicNumber:
    """The k-periodic twisted Bernoulli function of degree m >= 1 at rational x."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = Fraction(x)
    d = x.denominator
    # the function has period k: reduce the numerator mod d*k
    return _gen_bernoulli_function_reduced(chi, m, x.numerator % (d * chi.modulus), d)
