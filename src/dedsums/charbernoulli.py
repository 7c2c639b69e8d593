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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .bernoulli import Polynomial, bernoulli_poly, periodic_bernoulli
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


@lru_cache(maxsize=None)
def _gen_bernoulli_function_reduced(chi: DirichletCharacter, m: int,
                                    x: Fraction) -> CyclotomicNumber:
    # conj(chi)(n) = zeta_e^(-j): each term lands in group-ring bucket -j
    k, e = chi.modulus, chi.order
    acc = [Fraction(0)] * e
    for n, j in enumerate(chi.phases):
        if j is None:
            continue
        acc[-j % e] += periodic_bernoulli(m, Fraction(n + x, k))
    scale = Fraction(k) ** (m - 1)
    return CyclotomicNumber.from_group_ring(e, [a * scale for a in acc])


def gen_bernoulli_function(chi: DirichletCharacter, m: int, x) -> CyclotomicNumber:
    """The k-periodic twisted Bernoulli function of degree m >= 1 at rational x."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = Fraction(x)
    k = chi.modulus
    xr = x - k * math.floor(x / k)  # reduce into [0, k): the function has period k
    return _gen_bernoulli_function_reduced(chi, m, xr)
