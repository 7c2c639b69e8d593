"""Generalized Bernoulli numbers, polynomials, and periodic functions twisted
by a Dirichlet character.

For a character chi mod k every value here comes from one defining sum over
the residues a mod k (Washington, GTM 83, ch. 4):

    B_{n,chi}            = k^(n-1) * sum_{a=0}^{k-1} conj(chi)(a) B_n(a/k),
    B_{n,chi}(x)         = sum_{i=0}^{n} C(n, i) B_{n-i,chi} x^i
                         = k^(n-1) * sum_{a=0}^{k-1} conj(chi)(a) B_n((a + x)/k),
    periodic_B_{m,chi}(x) = k^(m-1) * sum_{a=0}^{k-1} conj(chi)(a) periodic_B_m((a + x)/k),

the last for m >= 1, k-periodic in x.  The polynomial matches the
generating-function definition sum_a conj(chi)(a) t e^((a+x)t) / (e^(kt) - 1).
For the principal character mod 1 all three reduce to the plain Bernoulli
objects (the a = 0 term carries weight 1 there; for k > 1 it carries weight
0), so the numbers use the polynomial B_n: B_{1,chi} = B_1(0) = -1/2 at
k = 1, where the sawtooth would give 0.  Values are exact and live in
Q(zeta_e) for e the order of chi.  For non-principal chi the degree-n
polynomial is the zero polynomial at n = 0 and has degree at most n - 1 in
general.

Numbers, polynomial values and periodic values all come from that one sum
(_defining_sum), a dirichlet.character_sum on integers (Knuth, TAOCP vol. 2,
4.5.1): at x = r/d each value in it is an integer numerator over
_piece_denominator(n, d*k), added by the phase of conj(chi)(a), reduced and
scaled by k^(n-1)/den once.  Two tables memoise: polynomial values per
(chi, n, x), numbers as those at x = 0, periodic values per (chi, m, r mod d*k, d).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .bernoulli import Polynomial, _periodic_numerator, _piece_denominator, _poly_numerator
from .dirichlet import DirichletCharacter, character_sum
from .exactnum import CyclotomicNumber

__all__ = [
    "gen_bernoulli_poly",
    "gen_bernoulli_number",
    "gen_bernoulli_function",
]


def _defining_sum(chi: DirichletCharacter, n: int, numerator, q: int) -> CyclotomicNumber:
    """k^(n-1)/_piece_denominator(n, q) * sum_{a<k} conj(chi)(a) numerator(a),
    for numerator(a) an integer over _piece_denominator(n, q)."""
    total = character_sum(chi.conjugate(), range(chi.modulus), numerator)
    return total * (Fraction(chi.modulus) ** (n - 1) / _piece_denominator(n, q))


def gen_bernoulli_number(chi: DirichletCharacter, n: int) -> CyclotomicNumber:
    """B_{n,chi} = B_{n,chi}(0) = k^(n-1) sum_{a<k} conj(chi)(a) B_n(a/k), in
    Q(zeta_order); the int 0 shares the memo entry of Fraction(0)."""
    return _gen_bernoulli_value(chi, n, 0)


def gen_bernoulli_poly(chi: DirichletCharacter, n: int) -> Polynomial:
    """Character-twisted Bernoulli polynomial of degree index n (coefficients
    are CyclotomicNumber in Q(zeta_order)): sum_i C(n, i) B_{n-i,chi} x^i."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Polynomial([math.comb(n, i) * gen_bernoulli_number(chi, n - i)
                       for i in range(n + 1)])


@lru_cache(maxsize=None)
def _gen_bernoulli_value(chi: DirichletCharacter, n: int, x: Fraction) -> CyclotomicNumber:
    """B_{n,chi}(x) at a rational x = r/d, memoised as bernoulli_poly_value
    is: B_n((a + x)/k) = B_n((a*d + r)/(d*k)) in the defining sum."""
    r, d = x.numerator, x.denominator
    big = d * chi.modulus
    return _defining_sum(chi, n, lambda a: _poly_numerator(n, a * d + r, big), big)


@lru_cache(maxsize=None)
def _gen_bernoulli_function_reduced(chi: DirichletCharacter, m: int,
                                    r: int, d: int) -> CyclotomicNumber:
    # the value at x = r/d, 0 <= r < d*k, with periodic_B_m((a + r/d)/k) =
    # periodic_B_m(((a*d + r) mod N)/N), N = d*k.  Each numerator is evaluated
    # on its own, not read from _periodic_table: x may have any denominator,
    # and a table would hold N entries.
    big = d * chi.modulus
    return _defining_sum(chi, m, lambda a: _periodic_numerator(m, (a * d + r) % big, big), big)


def gen_bernoulli_function(chi: DirichletCharacter, m: int, x) -> CyclotomicNumber:
    """The k-periodic twisted Bernoulli function of degree m >= 1 at rational x."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = Fraction(x)
    d = x.denominator
    # the function has period k: reduce the numerator mod d*k
    return _gen_bernoulli_function_reduced(chi, m, x.numerator % (d * chi.modulus), d)
