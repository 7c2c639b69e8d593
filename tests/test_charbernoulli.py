"""Character-twisted Bernoulli polynomials, numbers, and periodic functions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsums.bernoulli import bernoulli_poly, periodic_bernoulli
from dedsums.charbernoulli import (_gen_bernoulli_value, gen_bernoulli_function,
                                   gen_bernoulli_number, gen_bernoulli_poly)
from dedsums.dirichlet import enumerate_characters
from dedsums.exactnum import scalars_equal


def _chi3():
    return enumerate_characters(3, "nonprincipal_primitive")[0]


def test_degree_one_values_mod3():
    chi = _chi3()
    # B-bar_{1,chi}(0) = sawtooth(1/3) - sawtooth(2/3) = -1/6 - 1/6 = -1/3
    assert gen_bernoulli_function(chi, 1, F(0)) == F(-1, 3)
    assert gen_bernoulli_number(chi, 1) == F(-1, 3)
    poly = gen_bernoulli_poly(chi, 1)
    assert poly.degree == 0 and scalars_equal(poly.eval(F(17, 5)), F(-1, 3))


def test_degree_bound_for_nonprincipal():
    for k in (3, 4, 5, 7):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            assert gen_bernoulli_poly(chi, 0).is_zero()
            for n in range(1, 6):
                assert gen_bernoulli_poly(chi, n).degree <= n - 1, (k, chi.label, n)


def test_principal_mod_one_reduces_to_plain():
    chi0 = enumerate_characters(1)[0]
    assert scalars_equal(gen_bernoulli_function(chi0, 2, F(1, 4)),
                         periodic_bernoulli(2, F(1, 4)))
    assert scalars_equal(gen_bernoulli_number(chi0, 2), F(1, 6))
    assert scalars_equal(gen_bernoulli_number(chi0, 1), F(-1, 2))  # B_1(0), not the sawtooth's 0
    for n in range(5):
        poly = gen_bernoulli_poly(chi0, n)
        plain = bernoulli_poly(n)
        assert poly.degree == plain.degree
        for x in (F(0), F(1, 3), F(-2, 7)):
            assert scalars_equal(poly.eval(x), plain.eval(x))


def test_boundary_values_equal_number():
    # the periodic function at 0 and at k both give the twisted number
    for k in (3, 4, 5):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            for m in (1, 2, 3, 4):
                B = gen_bernoulli_number(chi, m)
                assert gen_bernoulli_function(chi, m, F(0)) == B
                assert gen_bernoulli_function(chi, m, F(k)) == B


def test_periodicity():
    rng = random.Random(21)
    for k in (3, 4, 5):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            for m in (1, 2, 3):
                for _ in range(4):
                    x = F(rng.randint(-40, 40), rng.randint(1, 9))
                    assert gen_bernoulli_function(chi, m, x + k) == \
                        gen_bernoulli_function(chi, m, x)


def test_polynomial_derivative_property():
    for k in (3, 4, 5, 7):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            for m in range(1, 7):
                lhs = gen_bernoulli_poly(chi, m).derivative()
                rhs = gen_bernoulli_poly(chi, m - 1) * m
                assert lhs == rhs, (k, chi.label, m)


def test_periodic_derivative_property():
    # d/dx of the degree-m periodic function is m times the degree-(m-1) one,
    # checked through the local polynomial piece at non-breakpoint rationals
    import math

    rng = random.Random(31)
    for k in (3, 5):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            chibar = chi.conjugate()
            scale_base = F(k)
            for m in (2, 3, 4):
                for _ in range(4):
                    num = rng.randint(1, 7 * k)
                    while num % 7 == 0:              # integers are breakpoints
                        num = rng.randint(1, 7 * k)
                    x = F(num, 7)
                    xr = x - k * math.floor(x / k)   # local pieces live on [0, k)
                    deriv = chibar(1) * 0
                    for n in range(1, k):
                        shift = math.floor(F(n + xr, k))
                        piece = bernoulli_poly(m).compose_affine(F(1, k), F(n, k) - shift)
                        deriv = deriv + chibar(n) * piece.derivative().eval(xr)
                    deriv = deriv * scale_base ** (m - 1)
                    assert deriv == m * gen_bernoulli_function(chi, m - 1, x)


def test_reflection_as_polynomial_identity():
    # twisted polynomial at -x equals (-1)^m chi(-1) times the polynomial at x
    for k in (3, 4, 5, 7):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            sign = chi.parity
            for m in range(0, 6):
                p = gen_bernoulli_poly(chi, m)
                reflected = p.compose_affine(F(-1), F(0))
                assert reflected == p * ((-1) ** m * sign), (k, chi.label, m)


def test_forced_zero_numbers():
    # the twisted number vanishes when (-1)^n chi(-1) = -1
    for k in (3, 4, 5):
        for chi in enumerate_characters(k, "nonprincipal_primitive"):
            for n in range(1, 6):
                if (-1) ** n * chi.parity == -1:
                    assert gen_bernoulli_number(chi, n).is_zero(), (k, chi.label, n)


def test_agrees_with_polynomial_on_unit_interval():
    # inside (0, 1) the periodic function and the polynomial coincide
    chi = _chi3()
    for m in (1, 2, 3):
        for x in (F(1, 4), F(1, 2), F(2, 3) - F(1, 100)):
            assert scalars_equal(gen_bernoulli_function(chi, m, x),
                                 gen_bernoulli_poly(chi, m).eval(x))


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        gen_bernoulli_function(_chi3(), 0, F(1, 2))
    with pytest.raises(ValueError):
        gen_bernoulli_poly(_chi3(), -1)


@pytest.mark.parametrize("chi", [chi for k in range(1, 9) for chi in enumerate_characters(k)],
                         ids=lambda chi: f"{chi.modulus}:{chi.label}")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10), st.fractions(min_value=-20, max_value=20, max_denominator=12))
def test_gen_value_matches_the_polynomial(chi, n, x):
    # the defining sum at x = r/d, over the residues of chi mod k, against
    # Horner on the polynomial's cyclotomic coefficients
    assert scalars_equal(_gen_bernoulli_value(chi, n, x), gen_bernoulli_poly(chi, n).eval(x))
