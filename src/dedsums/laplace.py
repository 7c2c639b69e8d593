"""Floating-point checks of the Laplace-transform identities.

The float side lives here, quarantined from the exact modules.  Both sides of
each identity are evaluated with mpmath at 35 significant digits and returned
as machine floats: the closed forms subtract two nearly equal parts (the
difference is O((s/t)^(n+1)) while the parts are O(1)), and the block sums of
the numeric integrals cancel similarly, so double precision alone cannot
honour a 1e-9 relative comparison; 35 digits leaves ~20 after the worst
cancellation on sane grids.  Each closed form works with the digits it
cancels plus 19 where this is more than 35 (one rule, _working_digits): the
product's cancels about log10((m+n)!/s^(m+n+1)) digits, which passes 16 at
small s, and the periodic one's about (n+1) log10(2 pi t/s), which passes 16
from about n = 20 at t = s.  The product's numeric side works at the digits
of its closed form, since its blocks grow to about m!/s^m before they cancel,
and its moment series run to those digits; the periodic numeric side stays
at 35.

The numeric integrals are semi-analytic: the integrand is an exact piecewise
polynomial times e^(-su), each breakpoint-free block integrates in closed
form (stable incomplete-gamma series for the moments), and blocks are summed
until the geometric tail bound drops below 1e-14 of the total.  No quadrature
rule is involved.  A block over [0, L] is sum_i c_i M_i with the moments
M_i = integral_0^L u^i e^(-su) du, which depend only on (L, s): each transform
computes them once per (L, s), and the product transform, whose blocks all
span L = 1, once in all.  Its closed form needs the derivatives of
1/(e^s - 1) up to order m; their series share each e^(-ls).

The loops that run once per series term, period or block (_moment, the
period loop of periodic_laplace_numeric, the block loop of
product_laplace_numeric with _exp_poly_block, _inv_expm1_derivatives) work
on mpmath's raw mpf tuples (mpmath.libmp), not on mpf objects.  Each
operator is replaced by the libmp call that the mpf operator makes, on the
same operands in the same order, at mp.prec and rounding to nearest: x / m
is mpf_div(x, from_int(m)), m * x is mpf_mul_int(x, m), 1 - x is
mpf_sub(from_int(1), x), f * x for a float f is mpf_mul(x, from_float(f)),
exp is mpf_exp and a comparison is mpf_lt or mpf_gt.  The same libmp call at
the same precision and rounding gives the same bits, so every value is the
one the mpf code gives, bit for bit.  One bounded memo table holds the raw
moments across transforms, _moment per (i, x, s, prec, digits) with x = s L
and s raw, 4096 entries; the precision and the digits are in the key, so a
moment computed at 35 digits is never served at 60.  Another, _zeta_powers,
holds the powers of zeta that convert a character value to an mpc, per
(order, prec), built by the multiplies the conversion loop made.

The stop rule of the period and block loops, _below_tail, costs six libmp
calls and is nearly always far from its bound, so a screen in doubles
(_screened_below_tail) settles it first.  Each loop keeps double shadows of
what the rule reads, damp, total and amp / gap, each within a stated bound
of its mpf value: relative bounds of a few roundings per period for damp
and amp / gap, and for the running total of the period loop an absolute
bound that grows with the period count and the sum of the magnitudes of its
terms, not with |total|, so that it holds under cancellation.  The screen
answers only when the rule's two sides differ by more than those bounds plus
a relative margin of 1e-6, and runs _below_tail otherwise, or when a shadow
is zero, subnormal, infinite or NaN.  It thus gives _below_tail's answer,
every loop stops at the same period, and the mpf values are untouched.

One gate (_gate) runs first in every transform: it refuses a degree over
DEGREE_BUDGET, a t <= 0, an s <= 0 and a non-finite s.  A transform whose
period count, block count or series length would then pass TERM_BUDGET
(they grow like t/s or 1/s), or a tail series longer than
SERIES_TERM_BUDGET, is refused before the first block or term.

Closed forms checked (s > 0, t > 0 rational, n >= 1):

  integral_0^inf e^(-su) periodic_B_n(tu + y) du
      = n! t^n / s^(n+1) * ( sum_{a=0}^{n} B_a({y})/a! (s/t)^a
                             - (s/t) e^({y} s/t) / (e^(s/t) - 1) )

  integral_0^inf e^(-su) B_m(u) periodic_B_n(u) du
      = sum_{r=0}^{m} C(m,r) B_{m-r} ( sum_{a=0}^{n} C(n,a) (n+r-a)!/s^(n+1+r-a) B_a
                                       - n! (-1)^r d^r/ds^r [ s^(-n)/(e^s - 1) ] )

  (1/n!) integral_0^inf e^(-su) periodic_B_{n,chi}(tu) du
      = (1/s) sum_{a=0}^{n} B_{a,chi}/a! (t/s)^(n-a)
        - t^(n-1)/s^n * sum_{j=0}^{k-1} conj(chi)(j) e^(js/t) / (e^(ks/t) - 1)
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from mpmath import mp, mpf, mpc, exp as mp_exp, expm1 as mp_expm1
from mpmath.libmp import (from_float, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_exp,
                          mpf_gt, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pos, mpf_pow_int,
                          mpf_rdiv_int, mpf_sub, round_nearest, to_float)

from .bernoulli import (bernoulli_number, bernoulli_poly, bernoulli_poly_value, fractional_part,
                        periodic_bernoulli)
from .budget import require
from .charbernoulli import gen_bernoulli_number
from .dirichlet import DirichletCharacter
from .exactnum import CyclotomicNumber, euler_phi

__all__ = [
    "periodic_laplace_numeric",
    "periodic_laplace_closed",
    "periodic_laplace_series",
    "product_laplace_numeric",
    "product_laplace_closed",
    "char_laplace_numeric",
    "char_laplace_closed",
]

_DPS = 35
_KEPT_DIGITS = 19  # the 17 that round-trip a double, and two guard digits
_TAIL = 1e-14

# The raw operands of the mpf operators that the hot loops replace: an int
# or float operand goes through from_int or from_float, as in the operator.
_RND = round_nearest
_ONE, _TWO, _FORTY = from_int(1), from_int(2), from_int(40)
_TAIL_RAW = from_float(_TAIL)

# The double-precision screen of the stop rule (_screened_below_tail): the
# unit roundoff of a double, the relative margin past the shadows' error
# bounds (far above the few roundings of the screen's own arithmetic), and
# the range of normal doubles.
_U = 2.0 ** -53
_MARGIN = 1e-6
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _int_raw(n: int, prec: int) -> tuple:
    """mpf(n) at prec."""
    return mpf_pos(from_int(n), prec, _RND)


def _mpq_raw(x, prec: int) -> tuple:
    """_mpq(x) at prec, as a raw tuple."""
    x = Fraction(x)
    return mpf_div(_int_raw(x.numerator, prec), _int_raw(x.denominator, prec), prec, _RND)


def _mpq(x) -> mpf:
    return mp.make_mpf(_mpq_raw(x, mp.prec))


def _eps(digits: int, prec: int) -> tuple:
    """mpf(10) ** (-digits - 5) at prec: where a series stops."""
    return mpf_pow_int(_int_raw(10, prec), -digits - 5, prec, _RND)


@functools.lru_cache(maxsize=4096)
def _moment(i: int, x: tuple, s: tuple, prec: int, digits: int = _DPS) -> tuple:
    """integral_0^L u^i e^(-su) du for x = s L, via the all-positive series
    (i!/s^(i+1)) e^(-x) sum_{m>i} x^m/m!  (stable for every x > 0), which
    stops below 10^-(digits+5) of its sum; x, s and the result are raw
    tuples at prec."""
    if mpf_gt(x, _FORTY):
        head = term = _ONE
        for m in range(1, i + 1):
            term = mpf_mul(term, mpf_div(x, from_int(m), prec, _RND), prec, _RND)
            head = mpf_add(head, term, prec, _RND)
        e = mpf_exp(mpf_neg(x, prec, _RND), prec, _RND)
        tail_factor = mpf_sub(_ONE, mpf_mul(e, head, prec, _RND), prec, _RND)
    else:
        term = mpf_div(mpf_pow_int(x, i + 1, prec, _RND), from_int(math.factorial(i + 1)),
                       prec, _RND)
        tail = term
        m = i + 1
        eps = _eps(digits, prec)
        while mpf_gt(term, mpf_mul(eps, tail, prec, _RND)):
            m += 1
            term = mpf_mul(term, mpf_div(x, from_int(m), prec, _RND), prec, _RND)
            tail = mpf_add(tail, term, prec, _RND)
        e = mpf_exp(mpf_neg(x, prec, _RND), prec, _RND)
        tail_factor = mpf_mul(e, tail, prec, _RND)
    fact_over_s = mpf_div(_int_raw(math.factorial(i), prec), mpf_pow_int(s, i + 1, prec, _RND),
                          prec, _RND)
    return mpf_mul(fact_over_s, tail_factor, prec, _RND)


def _moments(k: int, L: tuple, s: tuple, prec: int, digits: int = _DPS) -> list:
    """The moments integral_0^L u^i e^(-su) du for i = 0..k, to digits; L, s
    and the moments are raw tuples at prec."""
    x = mpf_mul(s, L, prec, _RND)
    return [_moment(i, x, s, prec, digits) for i in range(k + 1)]


def _exp_poly_block(coeffs, moments, prec: int) -> tuple:
    """integral_0^L e^(-su) sum_i c_i u^i du with exact rational c_i, given
    the moments of [0, L] from `_moments`; raw tuples at prec."""
    total = fzero
    for c, moment in zip(coeffs, moments):
        if c:
            total = mpf_add(total, mpf_mul(_mpq_raw(c, prec), moment, prec, _RND), prec, _RND)
    return total


def _below_tail(amp: tuple, damp: tuple, gap: tuple, total: tuple, prec: int) -> bool:
    """The stop rule of both numeric transforms, amp * damp / gap <
    _TAIL * (1 + |total|), with a float amp and gap = s (1 - e^(-s L)): the
    geometric tail bound below 1e-14 of the total.  Raw tuples at prec."""
    return mpf_lt(mpf_div(mpf_mul(damp, amp, prec, _RND), gap, prec, _RND),
                  mpf_mul(mpf_add(mpf_abs(total, prec, _RND), _ONE, prec, _RND), _TAIL_RAW,
                          prec, _RND))


def _screened_below_tail(amp: tuple, damp: tuple, gap: tuple, total: tuple, prec: int,
                         damp_f: float, ratio_f: float, total_f: float, total_err: float,
                         rel_err: float) -> bool:
    """_below_tail(amp, damp, gap, total, prec), settled in doubles when its
    two sides are far apart.  The caller's shadows bound the mpf values:
    damp_f * ratio_f is within rel_err (relative) of amp * damp / gap, and
    total_f within total_err (absolute) of total.  The screen answers only
    when the sides differ by more than those bounds plus _MARGIN, so it
    gives _below_tail's answer; otherwise, and whenever a shadow is zero,
    subnormal, infinite or NaN, it runs _below_tail."""
    lhs, size = damp_f * ratio_f, abs(total_f)
    if (_TINY <= lhs <= _HUGE and _TINY <= damp_f <= _HUGE and _TINY <= ratio_f <= _HUGE
            and _TINY <= size <= _HUGE):
        fuzz = rel_err + _MARGIN
        if lhs * (1 - fuzz) > (size + total_err + 1) * _TAIL * (1 + _MARGIN):
            return False
        if lhs * (1 + fuzz) < (max(size - total_err, 0.0) + 1) * _TAIL * (1 - _MARGIN):
            return True
    return _below_tail(amp, damp, gap, total, prec)


def periodic_laplace_numeric(n: int, t: Fraction, y: Fraction, s) -> float:
    """integral_0^inf e^(-su) periodic_B_n(tu + y) du.

    The integrand has period 1/t in u: past the first breakpoint every period
    contributes one base block damped by e^(-s/t) per step, so the sum is a
    head block plus a geometric series, truncated at the 1e-14 tail bound.
    """
    t, y = Fraction(t), Fraction(y)
    s = _gate(s, n, t=t)
    bound = float(sum(abs(c) for c in bernoulli_poly(n).coeffs))  # |B_n| on [0,1]
    require("TERM_BUDGET", _periodic_periods(bound, t, float(s)),
            "a periodic Laplace transform of about {:.0f} periods")
    with mp.workdps(_DPS):
        prec = mp.prec
        s, neg_s = s._mpf_, mpf_neg(s._mpf_, prec, _RND)
        period = Fraction(1) / t
        m0 = math.floor(y)
        u0 = Fraction(m0 + 1 - y, t)  # first breakpoint: t*u + y = m0 + 1
        head_piece = bernoulli_poly(n).compose_affine(t, y - m0)
        base_piece = bernoulli_poly(n).compose_affine(t, Fraction(0))
        base_moments = _moments(n, _mpq_raw(period, prec), s, prec)
        head_moments = base_moments if u0 == period else _moments(n, _mpq_raw(u0, prec), s, prec)
        total = _exp_poly_block(head_piece.coeffs, head_moments, prec)
        base = _exp_poly_block(base_piece.coeffs, base_moments, prec)
        rho = mpf_exp(mpf_mul(neg_s, _mpq_raw(period, prec), prec, _RND), prec, _RND)
        damp = mpf_exp(mpf_mul(neg_s, _mpq_raw(u0, prec), prec, _RND), prec, _RND)
        gap = mpf_mul(s, mpf_sub(_ONE, rho, prec, _RND), prec, _RND)  # s (1 - rho)
        amp = from_float(bound)
        # Shadows of the stop rule's operands, in relative errors of u = _U.
        # After j periods damp_f is within (2j + 1) u of damp (one rounding
        # in its conversion, and in rho_f and in the product per period), so
        # damp_f * ratio_f is within (2j + 3) u of amp * damp / gap.  The
        # term of period i, damp_f * base_f with the damp_f of i - 1 periods,
        # is within (2i + 1) u of the mpf term, and each addition rounds by u
        # of a partial sum, so total_f is within (3j + 2) u size_f of total,
        # size_f being the sum of the magnitudes of the head and the terms.
        # (4j + 8) u covers both, with the mpf roundings (2^-prec) and the
        # second-order terms.
        damp_f, rho_f = to_float(damp, rnd=_RND), to_float(rho, rnd=_RND)
        base_f, total_f = to_float(base, rnd=_RND), to_float(total, rnd=_RND)
        ratio_f = to_float(mpf_div(amp, gap, prec, _RND), rnd=_RND)
        size_f = abs(total_f)
        j = 0
        while True:
            total = mpf_add(total, mpf_mul(damp, base, prec, _RND), prec, _RND)
            damp = mpf_mul(damp, rho, prec, _RND)
            term_f = damp_f * base_f
            total_f += term_f
            size_f += abs(term_f)
            damp_f *= rho_f
            j += 1
            err = (4 * j + 8) * _U
            if _screened_below_tail(amp, damp, gap, total, prec, damp_f, ratio_f, total_f,
                                    err * size_f, err):
                return to_float(total, rnd=_RND)


def periodic_laplace_closed(n: int, t: Fraction, y: Fraction, s) -> float:
    """The literal closed form (see module docstring), at _periodic_digits."""
    t, y = Fraction(t), Fraction(y)
    s = _gate(s, n, t=t)
    with mp.workdps(_periodic_digits(n, t, float(s))):
        yf = fractional_part(y)
        ratio = s / _mpq(t)
        acc = mpf(0)
        for a in range(n + 1):
            acc += _mpq(bernoulli_poly_value(a, yf)) / math.factorial(a) * ratio ** a
        acc -= ratio * mp_exp(_mpq(yf) * ratio) / mp_expm1(ratio)
        return float(math.factorial(n) * _mpq(t) ** n / s ** (n + 1) * acc)


def periodic_laplace_series(n: int, t: Fraction, y: Fraction, s, terms: int) -> float:
    """Truncated tail-series form - (t^n/s^(n+1)) n! sum_{a=n+1}^{terms}
    periodic_B_a(y)/a! (s/t)^a; converges for |s/t| < 2*pi."""
    t, y = Fraction(t), Fraction(y)
    s = _gate(s, n, t=t)
    require("SERIES_TERM_BUDGET", terms, "the tail series at {} terms")
    with mp.workdps(_DPS):
        ratio = s / _mpq(t)
        if abs(ratio) >= 2 * math.pi:
            raise ValueError("series form requires |s/t| < 2*pi")
        acc = mpf(0)
        for a in range(n + 1, terms + 1):
            acc += _mpq(periodic_bernoulli(a, y)) / math.factorial(a) * ratio ** a
        return float(-math.factorial(n) * _mpq(t) ** n / s ** (n + 1) * acc)


def _gate(s, *degrees: int, t: Fraction | None = None) -> mpf:
    """The arguments every transform checks before any work: a degree over
    DEGREE_BUDGET, a t <= 0, an s <= 0 and a non-finite s are refused, in
    that order.  Returns s as an mpf."""
    require("DEGREE_BUDGET", max(degrees), "the Laplace transform at degree {}")
    if t is not None and t <= 0:
        raise ValueError("t must be positive")
    s = mpf(str(float(s)))
    if s <= 0:
        raise ValueError("s must be positive")
    if not mp.isfinite(s):
        raise ValueError("s must be finite")
    return s


_COUNT_CAP = 1e18  # far past any budget; keeps the estimates finite as s -> 0


def _periodic_periods(bound: float, t: Fraction, s: float) -> float:
    """Estimated period count of `periodic_laplace_numeric`: its loop stops
    once bound e^(-js/t) / (s (1 - e^(-s/t))) drops below _TAIL, which takes
    about (t/s) ln(bound / (_TAIL s (1 - e^(-s/t)))) periods.  s/t is taken
    through logarithms, so a huge or tiny t or s neither overflows nor
    divides by zero."""
    log_ratio = math.log(s) - math.log(t.numerator) + math.log(t.denominator)
    ratio = math.exp(max(min(log_ratio, 700.0), -700.0))
    log_gap = math.log(-math.expm1(-ratio)) if ratio > 1e-12 else log_ratio
    periods = (math.log(bound / _TAIL) - math.log(s) - log_gap) / ratio
    return min(max(periods, 0.0), _COUNT_CAP)


def _product_blocks(m: int, s: float) -> float:
    """Estimated block count of `product_laplace_numeric`: its loop stops once
    (j+2)^m e^(-s(j+1)) / (s (1 - e^(-s))) drops below _TAIL (the amplitudes
    of B_m and B_n left out); solved for j by fixed-point iteration."""
    head = -math.log(_TAIL) - math.log(s) - math.log(-math.expm1(-s))
    j = min(-math.log(_TAIL) / s, _COUNT_CAP)
    for _ in range(4):
        j = min(max(2.0, (head + m * math.log(j + 2)) / s - 1), _COUNT_CAP)
    return j + 1


def _series_terms(m: int, s: float, digits: int = _DPS) -> float:
    """Estimated length of the order-m derivative series, the longest one of
    `_inv_expm1_derivatives(m, s, digits)`: it stops once l > m/s + 2 and
    l^m e^(-ls) < 10^-(digits+5) (1 + m!/s^(m+1)), the sum being about
    m!/s^(m+1) for small s; solved for l by fixed-point iteration."""
    digits = (digits + 5) * math.log(10)
    size = math.lgamma(m + 1) - (m + 1) * math.log(s)  # log of m!/s^(m+1)
    head = digits - max(size, 0.0) - math.log1p(math.exp(-abs(size)))
    l = min(digits / s, _COUNT_CAP)
    for _ in range(4):
        l = min(max(m / s + 2, (head + m * math.log(max(l, 1.0))) / s), _COUNT_CAP)
    return l


def _product_count(m: int, n: int, s: float) -> float:
    """The larger of _product_blocks and _series_terms, the longest sum that
    either product transform would take, weighted by its _closed_digits over
    _DPS: each term costs more at more digits."""
    digits = _closed_digits(m, n, s)
    return max(_product_blocks(m, s), _series_terms(m, s, digits)) * max(1, digits / _DPS)


def product_laplace_numeric(m: int, n: int, s) -> float:
    """integral_0^inf e^(-su) B_m(u) periodic_B_n(u) du, block by block over
    [j, j+1] in local coordinates (the periodic factor restarts at 0), at
    _closed_digits: the blocks grow to about m!/s^m and cancel to the
    transform."""
    s = _gate(s, m, n)
    require("TERM_BUDGET", _product_count(m, n, float(s)),
            "a Laplace product of about {:.0f} blocks or series terms")
    digits = _closed_digits(m, n, float(s))
    with mp.workdps(digits):
        prec = mp.prec
        bn = bernoulli_poly(n)
        bm = bernoulli_poly(m)
        amp_n = float(sum(abs(c) for c in bn.coeffs))
        s, neg_s = s._mpf_, mpf_neg(s._mpf_, prec, _RND)
        moments = _moments(m + n, _ONE, s, prec, digits)  # every block spans L = 1
        rho = mpf_exp(neg_s, prec, _RND)
        gap = mpf_mul(s, mpf_sub(_ONE, rho, prec, _RND), prec, _RND)  # s (1 - rho)
        # the shadows are read off the mpf values each block: damp_f and
        # total_f within u of damp and total, inv_gap_f within 2u of 1/gap,
        # so damp_f * mx * inv_gap_f is within 6u of mx * damp / gap
        inv_gap_f = to_float(mpf_div(_ONE, gap, prec, _RND), rnd=_RND)
        total = fzero
        damp = _ONE  # e^(-sj)
        j = 0
        while True:
            piece = bm.compose_affine(Fraction(1), Fraction(j)) * bn
            block = _exp_poly_block(piece.coeffs, moments, prec)
            total = mpf_add(total, mpf_mul(damp, block, prec, _RND), prec, _RND)
            # safe tail bound: |B_m| <= sum |c_i| (j+2)^i on [j+1, j+2], ...
            mx = sum(abs(float(c)) * (j + 2.0) ** i for i, c in enumerate(bm.coeffs)) * amp_n
            damp = mpf_exp(mpf_mul_int(neg_s, j + 1, prec, _RND), prec, _RND)
            total_f = to_float(total, rnd=_RND)
            if _screened_below_tail(from_float(mx), damp, gap, total, prec,
                                    to_float(damp, rnd=_RND), mx * inv_gap_f, total_f,
                                    8 * _U * abs(total_f), 8 * _U) and j >= 2:
                return to_float(total, rnd=_RND)
            j += 1


def _inv_expm1_derivatives(k: int, s: tuple, digits: int, prec: int) -> list:
    """d^j/ds^j of 1/(e^s - 1) for j = 0..k, each by the geometric series
    sum_{l>=1} (-l)^j e^(-ls).  The orders share each e^(-ls); each series
    stops at its own l, once its terms drop below 10^-(digits+5) of it.
    s and the derivatives are raw tuples at prec."""
    totals = [fzero] * (k + 1)
    eps = _eps(digits, prec)
    starts = [mpf_add(mpf_rdiv_int(j, s, prec, _RND), _TWO, prec, _RND) for j in range(k + 1)]
    running = range(k + 1)
    l = 1
    while running:
        e = mpf_exp(mpf_mul_int(s, -l, prec, _RND), prec, _RND)
        still = []
        for j in running:
            term = mpf_mul_int(e, (-l) ** j, prec, _RND)
            totals[j] = total = mpf_add(totals[j], term, prec, _RND)
            # |term| < eps (1 + |total|) and l > j/s + 2
            small = mpf_mul(eps, mpf_add(mpf_abs(total, prec, _RND), _ONE, prec, _RND),
                            prec, _RND)
            if not (mpf_lt(mpf_abs(term, prec, _RND), small)
                    and mpf_lt(starts[j], from_int(l))):
                still.append(j)
        running = still
        l += 1
    return totals


def _working_digits(cancelled: float) -> int:
    """The working digits of a closed form that cancels `cancelled` digits:
    _KEPT_DIGITS beyond them, and never fewer than _DPS."""
    return max(_DPS, math.ceil(cancelled + _KEPT_DIGITS))


def _closed_digits(m: int, n: int, s: float) -> int:
    """The working digits of both product transforms: the closed form's
    terms grow to about (m+n)!/s^(m+n+1), the numeric side's blocks to about
    m!/s^m, and both cancel to a transform of order one."""
    return _working_digits((math.lgamma(m + n + 1) - (m + n + 1) * math.log(s)) / math.log(10))


def _periodic_digits(n: int, t: Fraction, s: float) -> int:
    """The working digits of `periodic_laplace_closed`: its bracket's parts
    are of order one and cancel to the tail sum_{a>n} B_a({y})/a! (s/t)^a,
    about (s/(2 pi t))^(n+1).  s/t is taken through logarithms, as in
    _periodic_periods."""
    log_ratio = math.log(2 * math.pi) + math.log(t.numerator) - math.log(t.denominator) \
        - math.log(s)
    return _working_digits((n + 1) * log_ratio / math.log(10))


def product_laplace_closed(m: int, n: int, s) -> float:
    """The literal closed form of the product transform, at _closed_digits."""
    s = _gate(s, m, n)
    require("TERM_BUDGET", _product_count(m, n, float(s)),
            "a Laplace product of about {:.0f} blocks or series terms")
    digits = _closed_digits(m, n, float(s))
    with mp.workdps(digits):
        inv_expm1 = [mp.make_mpf(v) for v in _inv_expm1_derivatives(m, s._mpf_, digits, mp.prec)]
        total = mpf(0)
        for r in range(m + 1):
            w = math.comb(m, r) * _mpq(bernoulli_number(m - r))
            if w == 0:
                continue
            inner = mpf(0)
            for a in range(n + 1):
                inner += math.comb(n, a) * math.factorial(n + r - a) / s ** (n + 1 + r - a) \
                    * _mpq(bernoulli_number(a))
            # d^r/ds^r [s^(-n)/(e^s-1)] by the Leibniz rule
            der = mpf(0)
            for i in range(r + 1):
                ds_pow = (-1) ** i * math.prod(range(n, n + i)) * s ** (-n - i)
                der += math.comb(r, i) * ds_pow * inv_expm1[r - i]
            inner -= math.factorial(n) * (-1) ** r * der
            total += w * inner
        return float(total)


@functools.lru_cache(maxsize=64)
def _zeta_powers(order: int, prec: int) -> tuple:
    """zeta^0 .. zeta^(phi(order) - 1) for zeta = e^(2 pi i/order), as mpc
    values at prec, which must be mp.prec: one multiply by zeta each, as the
    conversion loop of _mp_complex made them."""
    zeta = mp_exp(2j * mp.pi / order)
    powers = [mpc(1)]
    for _ in range(euler_phi(order) - 1):
        powers.append(powers[-1] * zeta)
    return tuple(powers)


def _mp_complex(value: CyclotomicNumber) -> mpc:
    """value as an mpc at mp.prec, summed over its power basis; a zero
    coordinate is skipped, since adding an exact zero changes nothing."""
    acc = mpc(0)
    for num, power in zip(value.nums, _zeta_powers(value.order, mp.prec)):
        if num:
            acc += _mpq(Fraction(num, value.den)) * power
    return acc


def char_laplace_numeric(chi: DirichletCharacter, n: int, t: Fraction, s) -> complex:
    """integral_0^inf e^(-su) periodic_B_{n,chi}(tu) du via the expansion
    k^(n-1) sum_m conj(chi)(m) * (basic transform at slope t/k, offset m/k)."""
    t = Fraction(t)
    _gate(s, n, t=t)
    k = chi.modulus
    chib = chi.conjugate()
    with mp.workdps(_DPS):
        total = mpc(0)
        for m_res in range(k):
            w = chib(m_res)
            if w.is_zero():
                continue
            block = periodic_laplace_numeric(n, Fraction(t, k), Fraction(m_res, k), s)
            total += _mp_complex(w) * block
        return complex(mpf(k) ** (n - 1) * total)


def char_laplace_closed(chi: DirichletCharacter, n: int, t: Fraction, s) -> complex:
    """n! [ (1/s) sum_a B_{a,chi}/a! (t/s)^(n-a)
           - t^(n-1)/s^n sum_j conj(chi)(j) e^(js/t) / (e^(ks/t) - 1) ]."""
    t = Fraction(t)
    s = _gate(s, n, t=t)
    k = chi.modulus
    chib = chi.conjugate()
    with mp.workdps(_DPS):
        tf = _mpq(t)
        acc = mpc(0)
        for a in range(n + 1):
            acc += _mp_complex(gen_bernoulli_number(chi, a)) / math.factorial(a) \
                * (tf / s) ** (n - a)
        acc /= s
        gsum = mpc(0)
        for j in range(k):
            w = chib(j)
            if w.is_zero():
                continue
            gsum += _mp_complex(w) * mp_exp(j * s / tf)
        acc -= tf ** (n - 1) / s ** n * gsum / mp_expm1(k * s / tf)
        return complex(math.factorial(n) * acc)
