"""Bernoulli numbers/polynomials, exact polynomial algebra, and piecewise
integration of products with periodic Bernoulli factors.

Conventions:
  * B_1 = -1/2 (so B_n = B_n(0) for the polynomials below).
  * Fractional part floors toward -infinity: {x} = x - floor(x) in [0, 1).
  * The degree-1 periodic function is the sawtooth ((x)): 0 at integers and
    {x} - 1/2 elsewhere.  For n > 1 the periodic function is B_n({x}).

Polynomials are dense ascending coefficient vectors; coefficients may be int,
Fraction, or CyclotomicNumber (they only need +, *, / by integers).  Trailing
zeros are trimmed and the zero polynomial has an empty coefficient vector.

The piecewise product integrator is rational-only.  It works on integer
numerators over one known denominator (Knuth, TAOCP vol. 2, 4.5.1): each
shifted Bernoulli piece is cached as integer coefficients, pieces multiply
by integer convolution, and a family of integrals that differ only in the
offsets of their factors (the terms of a character-weighted sum) shares one
frame and one denominator, so its integer numerators add before the one
division.

Everything here is exact; there is no floating point in this module.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Sequence

from .exactnum import _convolve

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_value",
    "periodic_bernoulli",
    "fractional_part",
    "Polynomial",
    "PeriodicFactor",
    "piecewise_product_integral",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers: recurrence sum_{j<n} C(n+1, j) B_j = -(n+1) B_n ... i.e.
# B_n = -1/(n+1) * sum_{j=0}^{n-1} C(n+1, j) B_j, from the generating function
# t e^{xt}/(e^t - 1).  The sum runs on integers over the lcm of the known
# denominators, one Fraction per index; odd indices from 3 on are 0 and are
# not summed.  Memoized in a shared table guarded by a lock so the table is
# safe under concurrent read/insert, and extended one index at a time.
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()

BERNOULLI_BUDGET = 500
"""The largest Bernoulli index the package computes.  The recurrence is
quadratic in the index and its numbers grow too; summed as integers over one
denominator, B_500 from an empty table takes about 0.06 s on a 2-vCPU x86
host (1.6 s with one Fraction add per term), B_1000 about 0.5 s.  An index over
the budget is refused before the recurrence starts (bernoulli_number) and
before a piece denominator walks the indices up to it (_piece_denominator)."""


def _require_index(n: int) -> None:
    if n > BERNOULLI_BUDGET:
        raise ValueError(f"Bernoulli index {n} is over BERNOULLI_BUDGET = {BERNOULLI_BUDGET}")


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_0 = 1, B_1 = -1/2, odd ones 0 for n >= 3)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_BERNOULLI):
        _require_index(n)
        with _BERNOULLI_LOCK:
            # B_j = nums[j] / den for the known j; row[j] = C(m+1, j), j <= m+1
            den = math.lcm(*(b.denominator for b in _BERNOULLI))
            nums = [b.numerator * (den // b.denominator) for b in _BERNOULLI]
            row = [math.comb(len(nums) + 1, j) for j in range(len(nums) + 2)]
            while len(_BERNOULLI) <= n:
                m = len(_BERNOULLI)
                value = (Fraction(0) if m >= 3 and m % 2 else
                         Fraction(-sum(map(operator.mul, row, nums)), (m + 1) * den))
                if den % value.denominator:
                    scale = math.lcm(den, value.denominator) // den
                    den, nums = den * scale, [x * scale for x in nums]
                nums.append(value.numerator * (den // value.denominator))
                _BERNOULLI.append(value)
                row = [1, *map(operator.add, row, row[1:]), 1]
    return _BERNOULLI[n]


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> "Polynomial":
    """B_n(x) = sum_{r=0}^{n} C(n, r) B_{n-r} x^r, degree exactly n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [math.comb(n, r) * bernoulli_number(n - r) for r in range(n + 1)]
    return Polynomial(coeffs)


_POLY_VALUE_CACHE: dict[tuple[int, Fraction], Fraction] = {}


def bernoulli_poly_value(n: int, x: Fraction) -> Fraction:
    """B_n(x) at a rational point, memoized (the sweeps revisit few points)."""
    x = Fraction(x)
    key = (n, x)
    val = _POLY_VALUE_CACHE.get(key)
    if val is None:
        val = bernoulli_poly(n).eval(x)
        _POLY_VALUE_CACHE[key] = val
    return val


def fractional_part(x: Fraction) -> Fraction:
    """{x} = x - floor(x) in [0, 1); floor is toward -infinity."""
    x = Fraction(x)
    return x - math.floor(x)


def periodic_bernoulli(n: int, x: Fraction) -> Fraction:
    """Periodic Bernoulli function of degree n >= 1.

    For n > 1 this is B_n({x}); for n = 1 it is the sawtooth ((x)), which is
    0 at integers and {x} - 1/2 off them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Fraction(x)
    q = x.denominator
    return Fraction(_periodic_numerator(n, x.numerator % q, q), _piece_denominator(n, q))


# ---------------------------------------------------------------------------
# Dense polynomials, generic over the exact scalar types
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable dense polynomial; index = power.

    A polynomial with int and Fraction coefficients is evaluated at an int
    or Fraction point on integers: its coefficients are read once as
    numerators over their lcm, kept in the _ints slot, and a homogeneous
    Horner loop builds one Fraction at the end (Knuth, TAOCP vol. 2,
    4.5.1)."""

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Sequence = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.coeffs,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] = out[i] + c
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial()
            return Polynomial([c * other for c in self.coeffs])
        return Polynomial(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Polynomial([c / scalar for c in self.coeffs])

    def eval(self, x):
        """The value at x, of the type the plain Horner loop acc * x + c from
        acc = 0 gives: an int for int coefficients at an int point."""
        if (type(x) is int or type(x) is Fraction) and self.coeffs:
            try:
                form = self._ints
            except AttributeError:
                form = self._integer_form()
            if form is not None:
                nums, den, whole = form
                acc = 0
                if type(x) is int:
                    for c in reversed(nums):
                        acc = acc * x + c
                    return acc if whole else Fraction(acc, den)
                # sum_t nums[t] u^t v^(g-t) over den v^g, for x = u/v
                u, v, scale = x.numerator, x.denominator, 1
                for c in reversed(nums):
                    acc = acc * u + c * scale
                    scale *= v
                return Fraction(acc, den * (scale // v))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _integer_form(self):
        """(numerators, their denominator, whether every coefficient is an
        int), or None when a coefficient is neither an int nor a Fraction;
        cached in the _ints slot."""
        form = None
        if all(type(c) is int or type(c) is Fraction for c in self.coeffs):
            den = math.lcm(*(c.denominator for c in self.coeffs))
            form = (tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den,
                    all(type(c) is int for c in self.coeffs))
        object.__setattr__(self, "_ints", form)
        return form

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def integrate_from_zero(self) -> "Polynomial":
        """Antiderivative with zero constant term: integral_0^x P(z) dz."""
        return Polynomial([0] + [c / Fraction(i + 1) for i, c in enumerate(self.coeffs)])

    def integral_over(self, a, b):
        """Exact integral of P over [a, b]."""
        anti = self.integrate_from_zero()
        return anti.eval(b) - anti.eval(a)

    def compose_affine(self, slope, offset) -> "Polynomial":
        """P(slope*x + offset)."""
        return Polynomial(_compose_affine(self.coeffs, slope, offset))

    def to_json(self, scalar_to_json) -> dict:
        return {"coeffs": [scalar_to_json(c) for c in self.coeffs]}


@lru_cache(maxsize=None)
def _piece_denominator(n: int, q: int) -> int:
    """The denominator of every piece B_n((a*x + b)/q): lcm(den B_0..B_n) * q**n."""
    _require_index(n)
    return math.lcm(*(bernoulli_number(j).denominator for j in range(n + 1))) * q ** n


def _scaled_row(n: int, q: int) -> list[int]:
    """The integer row C(n, r) * lcm(den B_0..B_n) * B_{n-r} * q**(n-r),
    r = 0..n: composed with a*x + b it gives B_n((a*x + b)/q) over
    _piece_denominator(n, q), since B_n(y) = sum_r C(n, r) B_{n-r} y^r."""
    lcm_b = _piece_denominator(n, 1)
    row = []
    for r in range(n + 1):
        b = bernoulli_number(n - r)
        row.append(math.comb(n, r) * b.numerator * (lcm_b // b.denominator) * q ** (n - r))
    return row


@lru_cache(maxsize=None)
def _bernoulli_piece(n: int, a: int, b: int, q: int) -> tuple[int, ...]:
    """B_n((a*x + b)/q) as integer numerators, ascending, over
    _piece_denominator(n, q); cached (the integrator revisits shifts heavily)."""
    return tuple(_compose_affine(_scaled_row(n, q), a, b))


def _poly_numerator(n: int, t: int, q: int) -> int:
    """B_n(t/q) for an integer t, as an integer numerator over
    _piece_denominator(n, q): Horner on _bernoulli_piece(n, 1, 0, q)."""
    acc = 0
    for c in reversed(_bernoulli_piece(n, 1, 0, q)):
        acc = acc * t + c
    return acc


def _periodic_numerator(n: int, t: int, q: int) -> int:
    """periodic_B_n(t/q) for an integer 0 <= t < q, as an integer numerator
    over _piece_denominator(n, q); at n = 1 and t = 0 it is the sawtooth's 0.
    periodic_bernoulli and the twisted functions of charbernoulli read it one
    value at a time; the tables below give the same numerators, a whole
    period at once, without calling it."""
    return 0 if n == 1 and t == 0 else _poly_numerator(n, t, q)


@lru_cache(maxsize=None)
def _periodic_table(n: int, q: int) -> tuple[int, ...]:
    """_periodic_numerator(n, t, q) for t = 0..q-1: one period of
    periodic_B_n(x/q) over one common denominator.

    _poly_numerator(n, t, q) is an integer polynomial of degree n in t, so
    it is tabulated by forward differences (Knuth, TAOCP vol. 2, 4.6.4):
    Horner gives t = 0..min(n, q-1), and for q > n + 1 the leading
    differences of those values at t = 0 give the rest by n nested running
    sums over the constant n-th difference, integer additions at C speed
    (a table 2.3 times faster than by Horner at n = 20, q = 997, and 10
    times at n = 1, q = 210).  Entry 0 is then the sawtooth's 0 at n = 1."""
    values = [_poly_numerator(n, t, q) for t in range(min(n + 1, q))]
    if q > n + 1:
        leading, row = [], values
        while row:
            leading.append(row[0])
            row = list(map(operator.sub, row[1:], row))
        column = repeat(leading[n], q - n)
        for start in reversed(leading[:n]):
            column = accumulate(column, initial=start)
        values = list(column)
    if n == 1 and q:
        values[0] = 0
    return tuple(values)


def _compose_affine(coeffs: Sequence, a, b) -> list:
    """Coefficients of sum_r coeffs[r] * (a*x + b)^r, expanded binomially;
    zero entries of coeffs are skipped."""
    out = [0] * len(coeffs)
    a_pow = [a ** i for i in range(len(coeffs))]
    b_pow = [b ** i for i in range(len(coeffs))]
    for r, c in enumerate(coeffs):
        if c:
            for i in range(r + 1):
                out[i] += c * (math.comb(r, i) * a_pow[i] * b_pow[r - i])
    return out


# ---------------------------------------------------------------------------
# Piecewise products of periodic Bernoulli factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicFactor:
    """One factor of the form (periodic Bernoulli of degree n)(slope*x + offset).

    Breakpoints on [alpha, beta] are exactly the x with slope*x + offset an
    integer.  Over q, the lcm of the denominators of slope and offset,
    slope*x + offset = (a*x + b)/q with integers a and b: the form the
    integrator works in.
    """
    n: int
    slope: Fraction
    offset: Fraction = Fraction(0)
    a: int = field(init=False, repr=False, compare=False)
    b: int = field(init=False, repr=False, compare=False)
    q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be >= 1")
        slope, offset = Fraction(self.slope), Fraction(self.offset)
        if slope == 0:
            raise ValueError("slope must be nonzero")
        q = math.lcm(slope.denominator, offset.denominator)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "a", slope.numerator * (q // slope.denominator))
        object.__setattr__(self, "b", offset.numerator * (q // offset.denominator))
        object.__setattr__(self, "q", q)

    def breakpoints(self, alpha: Fraction, beta: Fraction) -> list[Fraction]:
        """Strictly interior breakpoints of the factor on (alpha, beta)."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        if not alpha < beta:
            return []
        w = math.lcm(alpha.denominator, beta.denominator, self.a)
        return [Fraction(u, w) for u in _cut_numerators(
            self.a, self.b, self.q, alpha.numerator * (w // alpha.denominator),
            beta.numerator * (w // beta.denominator), w)]

    def local_poly(self, x: Fraction) -> Polynomial:
        """The polynomial piece valid on the breakpoint-free interval around x."""
        m = math.floor(self.slope * x + self.offset)
        den = _piece_denominator(self.n, self.q)
        return Polynomial([Fraction(c, den) for c in
                           _bernoulli_piece(self.n, self.a, self.b - m * self.q, self.q)])


def _cut_numerators(a: int, b: int, q: int, u0: int, u1: int, w: int) -> list[int]:
    """Numerators over w, in the order of m, of the strictly interior
    breakpoints of periodic_B((a*x + b)/q) on (u0/w, u1/w), for u0 < u1 and
    w a multiple of a.

    The breakpoint where (a*x + b)/q = m is x = (m*q - b)/a."""
    v0, v1 = sorted((a * u0 + b * w, a * u1 + b * w))
    qw, step = q * w, w // a
    return [(m * q - b) * step for m in range(v0 // qw + 1, (v1 - 1) // qw + 1)]


def piecewise_product_integral(poly, factors: Sequence[PeriodicFactor],
                               alpha: Fraction, beta: Fraction) -> Fraction:
    """Exact integral over [alpha, beta] of poly(x) * prod_i F_i(x), where
    each F_i is a periodic Bernoulli factor and poly is a rational polynomial
    (or scalar) with int or Fraction coefficients; any other coefficient type
    raises TypeError.

    The breakpoints of all factors split [alpha, beta] into intervals on which
    every factor agrees with a shifted Bernoulli polynomial; each subinterval
    is then integrated exactly.  Subinterval boundaries have measure zero, so
    the sawtooth's value convention at integers never affects the result; the
    polynomial attached to each open interval is the one valid in its
    interior (chosen at the midpoint).  This is the one-term case of
    _product_integral_numerators, which does the work.
    """
    den, numerator = _product_integral_numerators(
        poly, [(f.n, f.slope, {0: f.offset}) for f in factors], alpha, beta)
    return Fraction(numerator(*(0 for _ in factors)), den)


def _product_integral_numerators(poly, families, alpha: Fraction, beta: Fraction):
    """(den, numerator) for the integrals over [alpha, beta] of
    poly(x) * prod_i periodic_B_{n_i}(slope_i x + offset_i), where family i
    is (n_i, slope_i, offsets_i) and offsets_i maps a key to an offset:
    numerator(key_1, ..., key_r) / den is the integral with the offset of
    key_i in family i.  A character-weighted sum over the key tuples adds the
    integer numerators and divides by den once.

    Every integral is over one frame.  Family i is written over one q_i, the
    lcm of the denominators of its slope and offsets, as (a_i x + b)/q_i, so
    all its pieces share the denominator D_i.  The cuts are numerators u
    over w = lcm(den alpha, den beta, a_1, ..., a_r), never reduced.  With
    poly = P/d, the integral of the integer product c_0 + ... + c_g x^g over
    [u0/w, u1/w] is sum_t c_t * (L/(t+1)) * w^(g-t) * (u1^(t+1) - u0^(t+1))
    over den = L * w^(g+1) * d * prod D_i, L = lcm(1..g+1).  The power row
    (L/(t+1)) w^(g-t) u^(t+1) of a cut is built once and serves the two
    intervals that meet there.  Each key's own cuts and its piece on each
    own interval are built once, with P folded into the first family's
    pieces; a key tuple is then a merge of its keys' cuts, and each interval
    costs the product of its pieces against the difference of two power rows.
    """
    if not isinstance(poly, Polynomial):
        poly = Polynomial([poly])
    if not all(isinstance(c, (int, Fraction)) for c in poly.coeffs):
        raise TypeError("piecewise_product_integral takes int or Fraction coefficients")
    alpha, beta = Fraction(alpha), Fraction(beta)
    sign = 1
    if beta < alpha:
        alpha, beta, sign = beta, alpha, -1
    if alpha == beta or poly.is_zero():
        return 1, lambda *keys: 0

    forms = []  # (n, a, q, {key: b}) for the pieces of B_n((a*x + b)/q)
    for n, slope, offsets in families:
        q = math.lcm(slope.denominator, *(o.denominator for o in offsets.values()))
        forms.append((n, slope.numerator * (q // slope.denominator), q,
                      {key: o.numerator * (q // o.denominator) for key, o in offsets.items()}))
    w = math.lcm(alpha.denominator, beta.denominator, *(a for _, a, _, _ in forms))
    ua, ub = alpha.numerator * (w // alpha.denominator), beta.numerator * (w // beta.denominator)
    d = math.lcm(*(c.denominator for c in poly.coeffs))
    base = [c.numerator * (d // c.denominator) for c in poly.coeffs]
    deg = poly.degree + sum(n for n, _, _, _ in forms)
    lcm_deg = math.lcm(*range(1, deg + 2))
    den = sign * lcm_deg * w ** (deg + 1) * d * math.prod(
        _piece_denominator(n, q) for n, _, q, _ in forms)
    scale = [lcm_deg // (t + 1) * w ** (deg - t) for t in range(deg + 1)]

    # walks[i][key] = (the piece from ua, [(cut, i, the piece from that cut)])
    walks, cuts, fold = [], {ua, ub}, base != [1]
    for i, (n, a, q, bs) in enumerate(forms):
        walk = {}
        for key, b in bs.items():
            own = _cut_numerators(a, b, q, ua, ub, w)
            if a < 0:
                own.reverse()
            cuts.update(own)
            bounds = [ua, *own, ub]
            pieces = []
            for u0, u1 in zip(bounds, bounds[1:]):
                # floor((a*x + b)/q) at x = (u0 + u1)/(2w)
                m = (a * (u0 + u1) + 2 * w * b) // (2 * w * q)
                piece = _bernoulli_piece(n, a, b - m * q, q)
                pieces.append(_convolve(base, piece) if fold and i == 0 else piece)
            walk[key] = (pieces[0], [(u, i, p) for u, p in zip(own, pieces[1:])])
        walks.append(walk)
    rows = {}
    for u in cuts:
        row, power = [], u
        for s in scale:
            row.append(s * power)
            power *= u
        rows[u] = row
    start, end = rows[ua], rows[ub]

    def numerator(*keys) -> int:
        current, events = [], []
        for walk, key in zip(walks, keys):
            first, steps = walk[key]
            current.append(first)
            events += steps
        current = current or [base]
        events.sort(key=operator.itemgetter(0))
        total, lo = 0, start
        for u, i, piece in events:
            hi = rows[u]
            if hi is not lo:
                total += _interval_numerator(current, lo, hi)
                lo = hi
            current[i] = piece
        return total + _interval_numerator(current, lo, end)

    return den, numerator


def _interval_numerator(pieces, lo, hi) -> int:
    """sum_t c_t * (hi_t - lo_t) for the product c of the pieces.  The last
    piece is not convolved in: each coefficient of the others' product meets
    its sum against the differences shifted by that coefficient's power."""
    diff = list(map(operator.sub, hi, lo))
    *head, last = pieces
    product = head[0] if head else (1,)
    for piece in head[1:]:
        product = _convolve(product, piece)
    total = 0
    for t, c in enumerate(product):
        total += c * sum(map(operator.mul, last, diff[t:]))
    return total
