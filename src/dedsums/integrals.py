"""Exact integrals of products of Bernoulli polynomials with affine arguments,
the closed multinomial formula for them, and the reciprocity identities that
follow (including the character-twisted two-factor version).

The central object is

    integral_0^x  B_{n_1}(b_1 z + y_1) * ... * B_{n_r}(b_r z + y_r)  dz

for nonzero rational slopes b_l.  All public functions return the *unscaled*
integral; the closed formula is stated most naturally with 1/(n_1! ... n_r!)
prefactors, so the implementation applies exact factorial rationals at the
boundary rather than carrying them through (smaller intermediate heights).

The closed formula is an iterated integration by parts: with
f = product of the first r-1 factors and mu = n_1 + ... + n_{r-1},

    I = sum_{a=0}^{mu} (-1)^a sum_{j_1+...+j_{r-1}=a} multinomial(a; j)
        * b_1^{j_1} ... b_{r-1}^{j_{r-1}} * b_r^(-a-1)
        * [difference of products of Bernoulli values at x and at 0],

where factor l contributes B_{n_l - j_l}(b_l x + y_l) (terms with
n_l - j_l < 0 vanish: the corresponding derivative of f is zero, and the
iteration skips them).

The inner sum over the compositions j is grouped by the multinomial theorem,
sum_{|j|=a} a!/prod_l j_l! prod_l z_l^{j_l} = a! [t^a] prod_l sum_j z_l^j t^j / j!.
With the factorial prefactors folded in, each head factor l gives one row
A_l(t) = sum_j C(n_l, j) b_l^j B_{n_l-j}(b_l x + y_l) t^j, the product
H_x = A_1 ... A_{r-1} is one convolution, and

    I = sum_a (-1)^a a! n_r!/(n_r+a+1)! b_r^(-a-1)
          * ([t^a]H_x B_{n_r+a+1}(b_r x + y_r) - [t^a]H_0 B_{n_r+a+1}(y_r)),

H_0 being H_x at x = 0.  The cost is O(r mu^2) operations rather than one
product per composition.  The brute-force side expands the product on
integer numerators instead (_direct_numerators) and reads no Bernoulli
value.  Both sides reach exactnum's kernels and bernoulli's _scaled_row,
_compose_affine, _piece_denominator and bernoulli_number (the formula in
_bernoulli_piece(n, 1, 0, 1), the one row behind every Bernoulli value).

Each reciprocity shape has one routine.  Closed sides are the binomial
convolution sum_a C(N, a) u^a v^(N-a) B_{N-a} B_a of plain or twisted values
(binomial_convolution); the paper's last result is that Dedekind-sum
reciprocities in the verify module share this closed side.  Two-factor left
sides are the two mirrored sums that integration by parts leaves
(_two_factor_lhs).  These and the formula's sum over a work on integers: the
terms make rows of integer coordinates over one denominator (_coordinate_rows),
and each row one homogeneous Horner sum (exactnum._horner), divided once:
_row_sum, which the Dedekind-sum closed sides of the verify module share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from .bernoulli import (Polynomial, _compose_affine, _piece_denominator, _scaled_row,
                        bernoulli_poly, bernoulli_poly_value)
from .budget import require
from .charbernoulli import _gen_bernoulli_value
from .dirichlet import DirichletCharacter
from .exactnum import CyclotomicNumber, _convolve, _horner, _over_lcm

__all__ = [
    "ProductIntegralSpec",
    "product_integral_direct",
    "product_integral_direct_poly",
    "product_integral_formula",
    "permutation_invariance_check",
    "two_factor_reciprocity",
    "two_factor_constant_sum_poly",
    "equal_slope_reciprocity",
    "reflective_slope_integral",
    "char_two_factor_reciprocity",
    "bernoulli_pair_identity_polys",
    "binomial_convolution",
]


@dataclass(frozen=True)
class ProductIntegralSpec:
    """Degrees, slopes, offsets, and the upper limit of one product integral."""
    degrees: tuple[int, ...]
    slopes: tuple[Fraction, ...]
    offsets: tuple[Fraction, ...]
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(n) for n in self.degrees))
        object.__setattr__(self, "slopes", tuple(Fraction(b) for b in self.slopes))
        object.__setattr__(self, "offsets", tuple(Fraction(y) for y in self.offsets))
        object.__setattr__(self, "x", Fraction(self.x))
        r = len(self.degrees)
        if r < 1:
            raise ValueError("need at least one factor")
        if len(self.slopes) != r or len(self.offsets) != r:
            raise ValueError("degrees, slopes, offsets must have equal length")
        if any(n < 0 for n in self.degrees):
            raise ValueError("degrees must be >= 0")
        if any(b == 0 for b in self.slopes):
            raise ValueError("slopes must be nonzero")

    @property
    def r(self) -> int:
        return len(self.degrees)

    def permuted(self, sigma: Sequence[int]) -> "ProductIntegralSpec":
        """Spec with factors reordered by the permutation sigma of 0..r-1."""
        if sorted(sigma) != list(range(self.r)):
            raise ValueError("not a permutation of the factors")
        return ProductIntegralSpec(
            tuple(self.degrees[i] for i in sigma),
            tuple(self.slopes[i] for i in sigma),
            tuple(self.offsets[i] for i in sigma),
            self.x)

    def to_json(self) -> dict:
        return {"degrees": list(self.degrees),
                "slopes": [str(b) for b in self.slopes],
                "offsets": [str(y) for y in self.offsets],
                "x": str(self.x)}


def _direct_numerators(degrees, slopes, offsets) -> tuple[list[int], int]:
    """(nums, den) with integral_0^x prod_l B_{n_l}(b_l z + y_l) dz equal to
    sum_t nums[t] x^t / den: the product expanded and integrated on integers.

    Over q, the lcm of the denominators of b and y, a factor is
    B_n((a z + c)/q) with a = b q and c = y q, an integer row over
    _piece_denominator(n, q).  The rows are convolved, and the product
    sum_t c_t z^t (degree g) integrates to sum_t c_t (L/(t+1)) x^(t+1) over
    L = lcm(1..g+1).  A degree g + 1 over BERNOULLI_BUDGET, the bound that
    product_integral_formula checks, is refused before the first row."""
    require("BERNOULLI_BUDGET", sum(degrees) + 1, "Bernoulli index {}")
    product, den = [1], 1
    for n, b, y in zip(degrees, slopes, offsets):
        (a, c), q = _over_lcm((Fraction(b), Fraction(y)))
        product = _convolve(product, _compose_affine(_scaled_row(n, q), a, c))
        den *= _piece_denominator(n, q)
    lcm_deg = math.lcm(*range(1, len(product) + 1))
    return [0] + [c * (lcm_deg // (t + 1)) for t, c in enumerate(product)], den * lcm_deg


def product_integral_direct_poly(degrees, slopes, offsets) -> Polynomial:
    """The integral with symbolic upper limit: expand the product of shifted
    Bernoulli polynomials exactly and antidifferentiate (vanishes at 0)."""
    nums, den = _direct_numerators(degrees, slopes, offsets)
    return Polynomial([0] + [Fraction(c, den) for c in nums[1:]])


def product_integral_direct(spec: ProductIntegralSpec) -> Fraction:
    """Brute-force oracle: term-wise exact integration of the expanded product,
    evaluated at x = u/v by a homogeneous Horner loop on integers.  It reads
    no Bernoulli value and calls no Polynomial.eval."""
    nums, den = _direct_numerators(spec.degrees, spec.slopes, spec.offsets)
    v = spec.x.denominator
    return Fraction(_horner(spec.x.numerator, v, nums), den * v ** (len(nums) - 1))


def _grouped_row(factors) -> tuple[list[int], int]:
    """(nums, den) for the coefficients nums[a]/den of
    prod_l sum_{j=0}^{n_l} C(n_l, j) b_l^j B_{n_l-j}(u_l) t^j, factors (n_l, b_l, u_l):
    [t^a] of it is the composition sum
    sum_{|j|=a} prod_l C(n_l, j_l) b_l^(j_l) B_{n_l-j_l}(u_l).  Each row is
    read as integers over the lcm of its denominators and the rows are
    convolved on integers."""
    nums, den = [1], 1
    for n, b, u in factors:
        row, d = _over_lcm([math.comb(n, j) * b ** j * bernoulli_poly_value(n - j, u)
                            for j in range(n + 1)])
        nums = _convolve(nums, row)
        den *= d
    return nums, den


def product_integral_formula(spec: ProductIntegralSpec) -> Fraction:
    """Closed form of the product integral via iterated integration by parts,
    with the composition sum grouped by the multinomial theorem:

        I = sum_a (-1)^a a! n_r!/(n_r+a+1)! b_r^(-a-1)
              * ([t^a]H_x B_{n_r+a+1}(b_r x + y_r) - [t^a]H_0 B_{n_r+a+1}(y_r)),

    where H_x = prod_{l<r} sum_j C(n_l, j) b_l^j B_{n_l-j}(b_l x + y_l) t^j
    and H_0 is H_x at x = 0 (see the module docstring).  It costs one
    convolution of the r-1 head rows, not one product per composition.

    Exactly equal to product_integral_direct; the module docstring lists
    the kernels that both reach.
    """
    degrees, slopes, offsets, x = spec.degrees, spec.slopes, spec.offsets, spec.x
    require("BERNOULLI_BUDGET", sum(degrees) + 1, "Bernoulli index {}")
    nr, br, yr = degrees[-1], slopes[-1], offsets[-1]
    head = list(zip(degrees[:-1], slopes[:-1], offsets[:-1]))
    return (_formula_sum(nr, br, *_grouped_row([(n, b, b * x + y) for n, b, y in head]),
                         br * x + yr)
            - _formula_sum(nr, br, *_grouped_row(head), yr))


def _formula_sum(nr: int, br: Fraction, row, den: int, u: Fraction) -> Fraction:
    """sum_a (-1)^a a! n_r!/(n_r+a+1)! b_r^(-a-1) row[a] B_{n_r+a+1}(u) / den:
    with A = len(row) - 1 and b_r = p/q, (-1)^a b_r^(-a-1) = (-q)^a p^(A-a) q
    / p^(A+1), so the terms over one lcm are a homogeneous Horner sum on
    integers, divided once."""
    values = [bernoulli_poly_value(nr + a + 1, u) for a in range(len(row))]
    dens = [math.factorial(nr + a + 1) * b.denominator for a, b in enumerate(values)]
    lcm = math.lcm(*dens)
    nums = [math.factorial(a) * h * b.numerator * (lcm // d)
            for a, (h, b, d) in enumerate(zip(row, values, dens))]
    p, q = br.numerator, br.denominator
    return Fraction(_horner(-q, p, nums) * q * math.factorial(nr), lcm * den * p ** len(row))


def permutation_invariance_check(spec: ProductIntegralSpec, sigma: Sequence[int]) -> bool:
    """True iff the closed formula gives the same value on the permuted spec."""
    return product_integral_formula(spec) == product_integral_formula(spec.permuted(sigma))


# ---------------------------------------------------------------------------
# Two-factor reciprocity and its specializations
# ---------------------------------------------------------------------------

def _coordinate_rows(terms) -> tuple:
    """(e, den, rows) for the terms (w, f, g), int w: rows[i][a] / den is
    coordinate i of w f g, in Q(zeta_e) for e the lcm of the products' orders,
    or its one coordinate with e None when every f and g is rational."""
    if any(isinstance(z, CyclotomicNumber) for _, f, g in terms for z in (f, g)):
        products = [CyclotomicNumber._coerce(f * g) for _, f, g in terms]
        e = math.lcm(*(p.order for p in products))
        coords = [(p.nums, p.den) for p in (p.embed(e) for p in products)]
    else:
        e = None
        coords = [((f.numerator * g.numerator,), f.denominator * g.denominator)
                  for _, f, g in terms]
    den = math.lcm(*(d for _, d in coords))
    return e, den, tuple(zip(*([w * c * (den // d) for c in cs]
                               for (w, _, _), (cs, d) in zip(terms, coords))))


def _row_sum(x: int, y: int, e, den: int, rows):
    """sum_a x^a y^(N-a) rows[i][a] / den, integers x and y, for each row of the
    (e, den, rows) of _coordinate_rows: a Fraction if e is None, else in Q(zeta_e)."""
    nums = [_horner(x, y, row) for row in rows]
    return Fraction(nums[0], den) if e is None else CyclotomicNumber._from_ints(e, nums, den)


def _weighted_sum(u, v, terms):
    """sum_{a=0}^{N} w u^a v^(N-a) f g over the terms (w, f, g) at a = 0..N, for
    rational u = u1/u2, v = v1/v2: _row_sum in u1 v2 and v1 u2 over (u2 v2)^N."""
    u, v = Fraction(u), Fraction(v)
    e, den, rows = _coordinate_rows(terms)
    return _row_sum(u.numerator * v.denominator, v.numerator * u.denominator, e,
                    den * (u.denominator * v.denominator) ** (len(terms) - 1), rows)


def binomial_convolution(N: int, u, v, left, right):
    """sum_{a=0}^{N} C(N, a) u^a v^(N-a) left(N-a) right(a), for rational u, v
    and Fraction or cyclotomic values, on integers (_weighted_sum).  No term is
    skipped, so a cyclotomic result has the lcm of the orders of all values."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return _weighted_sum(u, v, [(math.comb(N, a), left(N - a), right(a)) for a in range(N + 1)])


def _two_factor_lhs(n: int, m: int, b1, b2, f1, f2):
    """The mirrored sums of the two-factor reciprocity, for Fraction slopes b1,
    b2 and Bernoulli values f1(.) at b1 x + y1 and f2(.) at b2 x + y2:

      sum_{a=0}^{n} (-1)^a C(m+n+1, n-a) b1^a b2^(-a-1) f1(n-a) f2(m+a+1)
        - (the same with (n, b1, f1) and (m, b2, f2) swapped)

    The largest index read, m + n + 1, is checked before any binomial.
    """
    require("BERNOULLI_BUDGET", m + n + 1, "Bernoulli index {}")

    def half(n, m, b1, b2, f1, f2):
        # (-1)^a b1^a b2^(-a-1) = (-b1)^a b2^(n-a) / b2^(n+1)
        return _weighted_sum(-b1, b2, [(math.comb(m + n + 1, n - a), f1(n - a), f2(m + a + 1))
                                       for a in range(n + 1)]) / b2 ** (n + 1)

    return half(n, m, b1, b2, f1, f2) - half(m, n, b2, b1, f2, f1)


def _two_factor_sides(n: int, m: int, b1, b2, y1, y2, x, value1, value2):
    """(lhs, rhs) of the two-factor reciprocity for Bernoulli values
    value1(j, point) and value2(j, point), plain or twisted: the proof uses
    only d/dx B_j = j B_{j-1}, which both satisfy."""
    b1, b2, y1, y2, x = (Fraction(v) for v in (b1, b2, y1, y2, x))
    u1, u2 = b1 * x + y1, b2 * x + y2
    lhs = _two_factor_lhs(n, m, b1, b2, lambda j: value1(j, u1), lambda j: value2(j, u2))
    rhs = binomial_convolution(m + n + 1, -b1, b2, lambda j: value1(j, y1),
                               lambda j: value2(j, y2))
    return lhs, rhs * (Fraction(-1) ** (m + 1) / (b1 ** (m + 1) * b2 ** (n + 1)))


def two_factor_reciprocity(n: int, m: int, b1, b2, y1, y2, x):
    """Both sides of the two-factor reciprocity:

      lhs = sum_{a=0}^{n} (-1)^a C(m+n+1, n-a) b1^a b2^(-a-1)
                B_{n-a}(b1 x + y1) B_{m+a+1}(b2 x + y2)
          - sum_{a=0}^{m} (-1)^a C(m+n+1, m-a) b2^a b1^(-a-1)
                B_{m-a}(b2 x + y2) B_{n+a+1}(b1 x + y1)

      rhs = (-1)^(m+1) / (b1^(m+1) b2^(n+1)) * sum_{a=0}^{m+n+1}
                (-1)^a C(m+n+1, a) b1^a b2^(m+n+1-a) B_{m+n+1-a}(y1) B_a(y2)

    Returns (lhs, rhs) exactly.
    """
    return _two_factor_sides(n, m, b1, b2, y1, y2, x, bernoulli_poly_value,
                             bernoulli_poly_value)


def two_factor_constant_sum_poly(n: int, m: int, b1, b2, y1, y2) -> Polynomial:
    """The combination sum_{a} (-1)^a C(m+n+1, a) b1^a b2^(m+n+1-a)
    B_{m+n+1-a}(b1 x + y1) B_a(b2 x + y2) as a polynomial in x.

    All non-constant coefficients vanish identically; returning the whole
    polynomial lets callers verify that rather than assume it.
    """
    b1, b2, y1, y2 = (Fraction(v) for v in (b1, b2, y1, y2))
    return sum(math.comb(m + n + 1, a) * (-b1) ** a * b2 ** (m + n + 1 - a)
               * bernoulli_poly(m + n + 1 - a).compose_affine(b1, y1)
               * bernoulli_poly(a).compose_affine(b2, y2) for a in range(m + n + 2))


def equal_slope_reciprocity(n: int, m: int, y1, y2, x):
    """Unit-slope specialization with shifted arguments:

      lhs = sum_{a=0}^{n} (-1)^a C(m+n+1, n-a) B_{n-a}(x+y1) B_{m+a+1}(x+y2)
          - sum_{a=0}^{m} (-1)^a C(m+n+1, m-a) B_{m-a}(x+y2) B_{n+a+1}(x+y1)
      rhs = (-1)^m (m+n+1)(y2-y1) B_{m+n}(y1-y2) + (-1)^m (m+n) B_{m+n+1}(y1-y2)

    Returns (lhs, rhs).
    """
    y1, y2, x = Fraction(y1), Fraction(y2), Fraction(x)
    lhs = _two_factor_lhs(n, m, Fraction(1), Fraction(1),
                          lambda j: bernoulli_poly_value(j, x + y1),
                          lambda j: bernoulli_poly_value(j, x + y2))
    d = y1 - y2
    rhs = (-1) ** m * ((m + n + 1) * (y2 - y1) * bernoulli_poly_value(m + n, d)
                       + (m + n) * bernoulli_poly_value(m + n + 1, d))
    return lhs, rhs


def reflective_slope_integral(degrees, offsets, q) -> Fraction:
    """The product integral with slopes (1 - 2 y_l)/q and upper limit q, where
    each factor satisfies B(b_l q - y_l) = B(1 - y_l) = (-1)^deg B(y_l).

    For even total degree + 1 the integral is exactly 0; otherwise it reduces
    to a closed double sum in the offset values alone.  Returns the unscaled
    integral value (no factorial prefactor), so it can be compared directly
    against product_integral_direct.
    """
    degrees = tuple(int(n) for n in degrees)
    offsets = tuple(Fraction(y) for y in offsets)
    if not degrees:
        raise ValueError("need at least one factor")
    if len(offsets) != len(degrees):
        raise ValueError("degrees, offsets must have equal length")
    require("BERNOULLI_BUDGET", sum(degrees) + 1, "Bernoulli index {}")
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    if any(y == Fraction(1, 2) for y in offsets):
        raise ValueError("offset 1/2 gives a zero slope")
    if (sum(degrees) + 1) % 2 == 0:
        return Fraction(0)
    nr, yr = degrees[-1], offsets[-1]
    # the formula's grouped row at the offsets, with the slopes 1 - 2 y_l
    # (the factor 1/q of each slope comes out as the one factor q)
    row, den = _grouped_row([(n, 1 - 2 * y, y) for n, y in zip(degrees[:-1], offsets[:-1])])
    return -2 * q * _formula_sum(nr, 1 - 2 * yr, row, den, yr)


# ---------------------------------------------------------------------------
# Character-twisted two-factor reciprocity
# ---------------------------------------------------------------------------

def char_two_factor_reciprocity(n: int, m: int, b1, b2, y1, y2, x,
                                chi1: DirichletCharacter, chi2: DirichletCharacter):
    """The two-factor reciprocity with character-twisted Bernoulli polynomials
    in place of the plain ones; requires n, m >= 1 (the degree of the twisted
    polynomial of index n is at most n - 1) and non-principal primitive
    characters.  Returns (lhs, rhs) as exact cyclotomic numbers.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    for chi in (chi1, chi2):
        if chi.is_principal() or not chi.is_primitive():
            raise ValueError("characters must be non-principal and primitive")
    return _two_factor_sides(n, m, b1, b2, y1, y2, x, partial(_gen_bernoulli_value, chi1),
                             partial(_gen_bernoulli_value, chi2))


# ---------------------------------------------------------------------------
# The pair-convolution polynomial identity used by the unit-slope reduction
# ---------------------------------------------------------------------------

def bernoulli_pair_identity_polys(p: int, y: Fraction) -> tuple[Polynomial, Polynomial]:
    """For fixed rational y, both sides of

        sum_{a=0}^{p} C(p, a) B_{p-a}(x) B_a(y)
            = p (x + y - 1) B_{p-1}(x + y) - (p - 1) B_p(x + y)

    as exact polynomials in x (p >= 1).  Comparing them for deg+1 distinct y
    is equivalent to the two-variable polynomial identity.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    y = Fraction(y)
    lhs = sum(math.comb(p, a) * bernoulli_poly(p - a) * bernoulli_poly_value(a, y)
              for a in range(p + 1))
    rhs = Polynomial([y - 1, 1]) * bernoulli_poly(p - 1).compose_affine(Fraction(1), y) * p \
        - bernoulli_poly(p).compose_affine(Fraction(1), y) * (p - 1)
    return lhs, rhs
