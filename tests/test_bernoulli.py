"""Bernoulli numbers/polynomials, polynomial algebra, piecewise integration."""

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedsums import bernoulli, budget
from dedsums.bernoulli import (PeriodicFactor, Polynomial, _periodic_numerator,
                               _periodic_table, _piece_denominator, bernoulli_number,
                               bernoulli_poly, bernoulli_poly_value, fractional_part,
                               periodic_bernoulli, piecewise_product_integral)
from dedsums.charbernoulli import _gen_bernoulli_value, gen_bernoulli_number
from dedsums.dirichlet import enumerate_characters
from dedsums.exactnum import CyclotomicNumber, euler_phi


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)  # from the defining recurrence
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == F(-691, 2730)
    for n in range(3, 30, 2):
        assert bernoulli_number(n) == 0


def _fraction_recurrence(n):
    """B_0..B_n by B_m = -1/(m+1) sum_{j<m} C(m+1, j) B_j on Fractions, every
    index summed: the reference for the integer recurrence."""
    table = [F(1)]
    for m in range(1, n + 1):
        table.append(-sum(math.comb(m + 1, j) * table[j] for j in range(m)) / (m + 1))
    return table


def test_bernoulli_numbers_match_the_fraction_recurrence(monkeypatch):
    want = _fraction_recurrence(300)
    monkeypatch.setattr(bernoulli, "_BERNOULLI", [F(1)])
    assert [bernoulli_number(n) for n in range(301)] == want
    # from an empty table at once, and extended from tables of every parity
    for stops in ((300,), (1, 2, 3, 7, 8, 61, 62, 300)):
        monkeypatch.setattr(bernoulli, "_BERNOULLI", [F(1)])
        for n in stops:
            bernoulli_number(n)
        assert bernoulli._BERNOULLI == want


def test_bernoulli_polynomials():
    assert bernoulli_poly(0).coeffs == (F(1),)
    assert bernoulli_poly(1).coeffs == (F(-1, 2), F(1))
    assert bernoulli_poly(2).coeffs == (F(1, 6), F(-1), F(1))
    assert bernoulli_poly(3).eval(F(1, 2)) == 0
    assert bernoulli_poly(5).eval(F(1, 2)) == 0
    for n in range(9):
        assert bernoulli_poly(n).degree == n
        assert bernoulli_poly(n).eval(F(0)) == bernoulli_number(n)


def test_derivative_property():
    for n in range(1, 10):
        assert bernoulli_poly(n).derivative() == bernoulli_poly(n - 1) * n


def test_reflection_property():
    rng = random.Random(3)
    for n in range(9):
        for _ in range(4):
            x = F(rng.randint(-12, 12), rng.randint(1, 7))
            assert bernoulli_poly(n).eval(1 - x) == (-1) ** n * bernoulli_poly(n).eval(x)


def test_fractional_part_floors_toward_minus_infinity():
    assert fractional_part(F(7, 3)) == F(1, 3)
    assert fractional_part(F(-1, 3)) == F(2, 3)
    assert fractional_part(F(-2)) == 0


def test_periodic_bernoulli():
    assert periodic_bernoulli(1, F(2)) == 0          # sawtooth vanishes at integers
    assert periodic_bernoulli(1, F(1, 3)) == F(-1, 6)
    assert periodic_bernoulli(2, F(7, 3)) == F(-1, 18)
    rng = random.Random(8)
    for n in range(2, 7):
        for _ in range(5):
            x = F(rng.randint(-30, 30), rng.randint(1, 9))
            m = rng.randint(-3, 3)
            assert periodic_bernoulli(n, x + m) == periodic_bernoulli(n, x)


def test_periodic_table_matches_the_definition():
    # every entry against B_n(t/q), the sawtooth's 0 at t = 0 included; and
    # periodic_bernoulli, built on the same numerators, at t/q and shifted
    for n in range(1, 9):
        for q in range(1, 41):
            table, den = _periodic_table(n, q), _piece_denominator(n, q)
            assert len(table) == q
            for t, num in enumerate(table):
                want = F(0) if n == 1 and t == 0 else bernoulli_poly(n).eval(F(t, q))
                assert F(num, den) == want, (n, q, t)
                for shift in (0, -3, 1):
                    assert periodic_bernoulli(n, F(t, q) + shift) == want, (n, q, t, shift)


def test_periodic_table_by_differences_at_the_edges():
    # q <= n + 1 is built by Horner alone and q = n + 2 takes the first
    # difference step; q = 1 and q = n hold fewer entries than the Horner head
    cases = {(n, q) for n in range(1, 31) for q in (1, n, n + 1, n + 2, 2 * n + 5)}
    cases |= {(n, q) for q in (210, 997) for n in (1, 2, 7, 20)}
    for n, q in sorted(cases):
        table = _periodic_table(n, q)
        assert len(table) == q, (n, q)
        assert list(table) == [_periodic_numerator(n, t, q) for t in range(q)], (n, q)
        if n == 1:
            assert table[0] == 0


def test_polynomial_algebra():
    p = Polynomial([F(1), F(2), F(3)])
    q = Polynomial([F(0), F(1)])
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert (p * q).coeffs == (0, F(1), F(2), F(3))
    assert (p - p).is_zero() and (p - p).degree == -1
    assert p.eval(F(2)) == 1 + 4 + 12
    assert p.derivative().coeffs == (F(2), F(6))
    assert q.integrate_from_zero().coeffs == (0, 0, F(1, 2))
    assert Polynomial([F(1)]).integrate_from_zero().eval(F(5)) == 5
    assert (p / F(2)).coeffs == (F(1, 2), F(1), F(3, 2))


def test_compose_affine():
    p = bernoulli_poly(4)
    a, d = F(2, 3), F(-1, 5)
    comp = p.compose_affine(a, d)
    rng = random.Random(4)
    for _ in range(6):
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert comp.eval(x) == p.eval(a * x + d)


@pytest.mark.parametrize("n, q", [(1, 1), (1, 6), (2, 5), (7, 12), (30, 4), (64, 210)])
def test_identity_piece_is_the_scaled_row(n, q):
    # the identity map a = 1, b = 0, which _poly_numerator reads at q = 1,
    # composes to the scaled row itself
    want = tuple(bernoulli._scaled_row(n, q))
    assert tuple(bernoulli._compose_affine(want, 1, 0)) == want
    assert bernoulli._bernoulli_piece.__wrapped__(n, 1, 0, q) == want
    assert bernoulli._bernoulli_piece(n, 1, 0, q) == want


# Polynomial.compose_affine as it was before the binomial expansion: Horner
# over the linear polynomial, each step a literal product loop.
def _horner_compose_affine(poly, slope, offset):
    lin = Polynomial([offset, slope])
    acc = Polynomial()
    for c in reversed(poly.coeffs):
        prod = [0] * (len(acc.coeffs) + len(lin.coeffs) - 1)
        for i, a in enumerate(acc.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(lin.coeffs):
                prod[i + j] = prod[i + j] + a * b
        acc = Polynomial(prod) + Polynomial([c])
    return acc


_sevenths = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_cyclotomic = st.sampled_from([3, 4, 5, 6]).flatmap(
    lambda e: st.lists(_sevenths, min_size=euler_phi(e), max_size=euler_phi(e))
    .map(lambda cs: CyclotomicNumber(e, cs)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.integers(-5, 5), max_size=7), st.lists(_sevenths, max_size=7),
                 st.lists(_cyclotomic, max_size=5)).map(Polynomial),
       st.one_of(st.integers(-3, 3), _sevenths),
       st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3), _sevenths))
# the integer rows of the integrator's pieces, at the degrees it reaches
@example(Polynomial(bernoulli._scaled_row(30, 4)), 3, 5)
@example(Polynomial(bernoulli._scaled_row(64, 210)), -7, 209)
@example(Polynomial(bernoulli._scaled_row(64, 1)), F(2, 3), F(-1, 5))
def test_compose_affine_matches_horner(poly, slope, offset):
    # equal values; a cyclotomic coefficient may come out in another field
    # Q(zeta_e) when the inputs mix orders (the library composes only
    # rational polynomials)
    assert poly.compose_affine(slope, offset) == _horner_compose_affine(poly, slope, offset)


def test_zero_mean_over_period():
    # integral over one period of every periodic Bernoulli factor is 0
    for n in range(1, 7):
        assert piecewise_product_integral(1, [PeriodicFactor(n, F(1))], 0, 1) == 0
    # also with rational slope and offset, over one full period of the factor
    assert piecewise_product_integral(1, [PeriodicFactor(3, F(2, 3), F(1, 5))],
                                      0, F(3, 2)) == 0


def test_piecewise_known_values():
    saw = PeriodicFactor(1, F(1))
    assert piecewise_product_integral(1, [saw, saw], 0, 1) == F(1, 12)  # int (u-1/2)^2
    x = Polynomial([0, F(1)])
    # hand-computed: int_0^1 x * sawtooth(2x) dx = 1/48 + 1/48 = 1/24
    assert piecewise_product_integral(x, [PeriodicFactor(1, F(2))], 0, 1) == F(1, 24)
    # hand-computed (both half-period pieces vanish): int_0^1 x * B2({2x}) dx = 0
    assert piecewise_product_integral(x, [PeriodicFactor(2, F(2))], 0, 1) == 0


def test_piecewise_against_quadrature_oracle():
    # independent oracle: adaptive numeric quadrature on the same integrand
    from scipy.integrate import quad

    cases = [
        (Polynomial([0, F(1)]), [PeriodicFactor(2, F(2))], F(0), F(1)),
        (Polynomial([F(1, 3), F(1)]), [PeriodicFactor(1, F(3, 2), F(1, 5))], F(0), F(2)),
        (Polynomial([F(1)]), [PeriodicFactor(2, F(5, 3)), PeriodicFactor(3, F(-1, 2), F(1, 7))],
         F(-1), F(2)),
    ]
    for poly, factors, a, b in cases:
        exact = piecewise_product_integral(poly, factors, a, b)

        def integrand(u):
            val = sum(float(c) * u ** i for i, c in enumerate(poly.coeffs))
            for f in factors:
                arg = float(f.slope) * u + float(f.offset)
                frac = arg - math.floor(arg)
                val *= sum(float(c) * frac ** i
                           for i, c in enumerate(bernoulli_poly(f.n).coeffs))
            return val

        pts = sorted({float(a), float(b),
                      *(float(x) for f in factors for x in f.breakpoints(a, b))})
        approx = 0.0
        for lo, hi in zip(pts, pts[1:]):
            approx += quad(integrand, lo, hi, limit=200)[0]
        assert abs(approx - float(exact)) < 1e-10


def test_piecewise_without_factors_is_plain_integration():
    p = bernoulli_poly(3) * bernoulli_poly(2)
    assert piecewise_product_integral(p, [], F(-1, 2), F(7, 3)) == \
        p.integral_over(F(-1, 2), F(7, 3))


def test_piecewise_orientation_and_degenerate_interval():
    saw = PeriodicFactor(1, F(1))
    assert piecewise_product_integral(1, [saw, saw], 1, 0) == -F(1, 12)
    assert piecewise_product_integral(1, [saw], F(1, 3), F(1, 3)) == 0


def _reference_breakpoints(f, a, b):
    va, vb = f.slope * a + f.offset, f.slope * b + f.offset
    lo, hi = (va, vb) if va <= vb else (vb, va)
    out = []
    for m in range(math.ceil(lo), math.floor(hi) + 1):
        x = (m - f.offset) / f.slope
        if a < x < b:
            out.append(x)
    return out


def _reference_piecewise_product_integral(poly, factors, alpha, beta):
    """The integrator on Fraction coefficients and generic Polynomial
    arithmetic that the integer-numerator one replaced, kept as its oracle
    (with the Fraction breakpoint search it used)."""
    alpha, beta = F(alpha), F(beta)
    if not isinstance(poly, Polynomial):
        poly = Polynomial([poly])
    if alpha == beta:
        return F(0)
    if beta < alpha:
        return -_reference_piecewise_product_integral(poly, factors, beta, alpha)

    cuts = {alpha, beta}
    for f in factors:
        cuts.update(_reference_breakpoints(f, alpha, beta))
    pts = sorted(cuts)

    total = F(0)
    for x0, x1 in zip(pts, pts[1:]):
        mid = (x0 + x1) / 2
        piece = poly
        for f in factors:
            m = math.floor(f.slope * mid + f.offset)
            piece = piece * bernoulli_poly(f.n).compose_affine(f.slope, f.offset - m)
        total = total + piece.integral_over(x0, x1)
    return total


_small = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_factors = st.lists(
    st.builds(PeriodicFactor, st.integers(1, 6), _small.filter(bool), _small),
    min_size=1, max_size=3)
_polys = st.one_of(st.integers(-3, 3), _small,
                   st.lists(_small, min_size=2, max_size=4).map(Polynomial))


@st.composite
def _intervals(draw):
    """(alpha, beta) in either order, and often empty."""
    ends = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    alpha = draw(ends)
    return alpha, alpha if draw(st.integers(0, 3)) == 3 else draw(ends)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_polys, _factors, _intervals())
def test_piecewise_matches_fraction_reference(poly, factors, interval):
    alpha, beta = interval
    exact = piecewise_product_integral(poly, factors, alpha, beta)
    assert type(exact) is F
    assert exact == _reference_piecewise_product_integral(poly, factors, alpha, beta)
    for f in factors:
        assert f.breakpoints(alpha, beta) == _reference_breakpoints(f, alpha, beta)
        m = math.floor(f.slope * alpha + f.offset)
        assert f.local_poly(alpha) == \
            bernoulli_poly(f.n).compose_affine(f.slope, f.offset - m)


def test_piecewise_rejects_non_rational_coefficients():
    from dedsums.exactnum import CyclotomicNumber
    saw = [PeriodicFactor(1, F(1))]
    for bad in (Polynomial([F(1), 0.5]), Polynomial([CyclotomicNumber.one(3)]), 0.5):
        with pytest.raises(TypeError):
            piecewise_product_integral(bad, saw, 0, 1)


def test_pair_convolution_identity_small_degrees():
    # sum_a C(p,a) B_{p-a}(x) B_a(y) = p(x+y-1)B_{p-1}(x+y) - (p-1)B_p(x+y)
    rng = random.Random(77)
    for p in range(1, 9):
        for _ in range(3):
            x = F(rng.randint(-6, 6), rng.randint(1, 5))
            y = F(rng.randint(-6, 6), rng.randint(1, 5))
            lhs = sum(math.comb(p, a) * bernoulli_poly(p - a).eval(x)
                      * bernoulli_poly(a).eval(y) for a in range(p + 1))
            rhs = p * (x + y - 1) * bernoulli_poly(p - 1).eval(x + y) \
                - (p - 1) * bernoulli_poly(p).eval(x + y)
            assert lhs == rhs


def test_factor_validation():
    with pytest.raises(ValueError):
        PeriodicFactor(0, F(1))
    with pytest.raises(ValueError):
        PeriodicFactor(2, F(0))


# Horner on the coefficients themselves, from the int 0: the reference for
# Polynomial.eval and for the integer rows behind bernoulli_poly_value.
def _fraction_horner(poly, x):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


_points = st.one_of(st.integers(-9, 9), _sevenths, st.just(F(0)), st.just(F(5)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.integers(-5, 5), max_size=7), st.lists(_sevenths, max_size=7),
                 st.lists(st.one_of(st.integers(-5, 5), _sevenths), max_size=7),
                 st.lists(_cyclotomic, max_size=4)).map(Polynomial),
       _points)
def test_eval_matches_fraction_horner(poly, x):
    want = _fraction_horner(poly, x)
    for _ in range(2):  # eval keeps no state: a second call gives the same value
        got = poly.eval(x)
        assert type(got) is type(want) and got == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_poly_value_matches_fraction_horner(n, num, den):
    # bernoulli_poly_value reads the integer row of B_n by homogeneous Horner
    x = F(num, den)
    got = bernoulli_poly_value(n, x)
    assert type(got) is F and got == _fraction_horner(bernoulli_poly(n), x)


def test_negative_degrees_are_refused():
    # every value path reads _piece_denominator, which states the rule:
    # without it q ** -1 is a float and the row of B_-1 is empty
    chi = enumerate_characters(3, "nonprincipal_primitive")[0]
    for x in (F(0), F(1, 3), F(-5, 7), 2):
        with pytest.raises(ValueError, match="n must be >= 0"):
            bernoulli_poly_value(-1, x)
        with pytest.raises(ValueError, match="n must be >= 0"):
            _gen_bernoulli_value(chi, -1, x)
    with pytest.raises(ValueError, match="n must be >= 0"):
        gen_bernoulli_number(chi, -1)


def test_eval_keeps_int_values_and_generic_points():
    p = Polynomial([1, -2, 3])
    assert p.eval(2) == 9 and type(p.eval(2)) is int
    assert type(p.eval(F(2))) is F
    assert type(Polynomial([1, F(4, 2)]).eval(3)) is F
    assert Polynomial().eval(F(1, 3)) == 0 and type(Polynomial().eval(F(1, 3))) is int
    # a point that is neither an int nor a Fraction takes the same loop
    assert p.eval(0.5) == _fraction_horner(p, 0.5)
    z = CyclotomicNumber(4, [0, 1])
    assert p.eval(z) == _fraction_horner(p, z)


def test_polynomial_pickles():
    for poly in (Polynomial(), Polynomial([1, 2]), bernoulli_poly(5),
                 Polynomial([CyclotomicNumber(3, [F(1, 2), 2]), 1])):
        poly.eval(F(1, 3))  # a polynomial that has been evaluated pickles the same
        back = pickle.loads(pickle.dumps(poly))
        assert back == poly and back.coeffs == poly.coeffs
        assert back.eval(F(2, 7)) == poly.eval(F(2, 7))


def test_bernoulli_index_over_budget_is_refused_before_the_recurrence(monkeypatch):
    big = budget.BERNOULLI_BUDGET + 1
    monkeypatch.setattr(bernoulli, "_BERNOULLI", [F(1)])
    for call in (lambda: bernoulli_number(big), lambda: bernoulli_poly(big),
                 lambda: bernoulli_poly_value(big, F(1, 3)),
                 lambda: _piece_denominator(big, 3), lambda: periodic_bernoulli(big, F(1, 2))):
        with pytest.raises(ValueError, match="over BERNOULLI_BUDGET"):
            call()
        assert bernoulli._BERNOULLI == [F(1)]
    assert bernoulli_number(4) == F(-1, 30)


_COUNT_COMBS = """
import math
from dedsums import bernoulli
calls, comb = [], math.comb
math.comb = lambda *args: calls.append(args) or comb(*args)
bernoulli._piece_denominator(200, 1)
print(len(calls))
"""


def test_a_cold_piece_denominator_fills_the_bernoulli_table_once():
    # one recurrence for B_0..B_200; extended once per index, the table
    # would rebuild its binomial row 200 times, about 20,000 math.comb calls
    env = dict(os.environ, PYTHONPATH=str(Path(bernoulli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _COUNT_COMBS], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert int(proc.stdout) <= 10
