"""Product integrals of Bernoulli polynomials: oracle equivalence, the worked
examples, and the reciprocity identities derived from them."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsums import bernoulli, integrals
from dedsums.bernoulli import Polynomial, bernoulli_number, bernoulli_poly, bernoulli_poly_value
from dedsums.charbernoulli import gen_bernoulli_number, gen_bernoulli_poly
from dedsums.dirichlet import enumerate_characters
from dedsums.exactnum import CyclotomicNumber, scalars_equal
from dedsums.integrals import (ProductIntegralSpec, bernoulli_pair_identity_polys,
                               binomial_convolution, char_two_factor_reciprocity,
                               equal_slope_reciprocity,
                               permutation_invariance_check,
                               product_integral_direct,
                               product_integral_direct_poly,
                               product_integral_formula,
                               reflective_slope_integral,
                               two_factor_constant_sum_poly,
                               two_factor_reciprocity)
from test_bernoulli import _fraction_horner

CHI3 = enumerate_characters(3, "nonprincipal_primitive")[0]
CHI4 = enumerate_characters(4, "nonprincipal_primitive")[0]

# the two fully worked product-integral examples
EXAMPLE_A = ProductIntegralSpec((3, 4, 16), (F(-1), F(3), F(5)),
                                (F(1), F(-1), F(-2)), F(1))
EXAMPLE_B = ProductIntegralSpec((3, 4, 15), (F(-1), F(3), F(-3)),
                                (F(1), F(-1), F(2)), F(1))


def _rand_frac(rng, nonzero=False):
    while True:
        v = F(rng.randint(-9, 9), rng.randint(1, 9))
        if not nonzero or v != 0:
            return v


def test_spec_validation():
    with pytest.raises(ValueError):
        ProductIntegralSpec((), (), (), F(1))
    with pytest.raises(ValueError):
        ProductIntegralSpec((1,), (F(0),), (F(0),), F(1))
    with pytest.raises(ValueError):
        ProductIntegralSpec((1, 2), (F(1),), (F(0),), F(1))


def test_single_factor_is_the_antiderivative():
    # one factor: the integral is (B_{n+1}(bx+y) - B_{n+1}(y)) / (b (n+1))
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(0, 6)
        b, y, x = _rand_frac(rng, True), _rand_frac(rng), _rand_frac(rng)
        spec = ProductIntegralSpec((n,), (b,), (y,), x)
        want = (bernoulli_poly_value(n + 1, b * x + y)
                - bernoulli_poly_value(n + 1, y)) / (b * (n + 1))
        assert product_integral_direct(spec) == want
        assert product_integral_formula(spec) == want


def test_zero_mean_single_period():
    spec = ProductIntegralSpec((2,), (F(1),), (F(0),), F(1))
    assert product_integral_direct(spec) == 0


def test_worked_example_vanishing():
    assert product_integral_direct(EXAMPLE_A) == 0
    assert product_integral_formula(EXAMPLE_A) == 0


def test_worked_example_double_sum():
    direct = product_integral_direct(EXAMPLE_B)
    assert product_integral_formula(EXAMPLE_B) == direct
    # the displayed double sum for the scaled integral:
    # -2 sum_{a<=7} B_{16+a}(2)/(16+a)! sum_i C(a,i) 3^-(i+1)
    #                       B_{3-i} B_{4-a+i}(-1) / ((3-i)! (4-a+i)!)
    displayed = F(0)
    for a in range(8):
        for i in range(min(a, 3) + 1):
            if 4 - a + i < 0:
                continue
            displayed += (bernoulli_poly_value(16 + a, F(2)) / math.factorial(16 + a)
                          * math.comb(a, i) * F(1, 3 ** (i + 1))
                          * bernoulli_number(3 - i)
                          * bernoulli_poly_value(4 - a + i, F(-1))
                          / (math.factorial(3 - i) * math.factorial(4 - a + i)))
    displayed *= -2
    scale = math.factorial(3) * math.factorial(4) * math.factorial(15)
    assert F(direct, 1) / scale == displayed


def test_oracle_equivalence_random_grid():
    rng = random.Random(20260810)
    for _ in range(60):
        r = rng.randint(1, 4)
        while True:
            degrees = tuple(rng.randint(0, 6) for _ in range(r))
            if sum(degrees) <= 20:
                break
        spec = ProductIntegralSpec(degrees,
                                   tuple(_rand_frac(rng, True) for _ in range(r)),
                                   tuple(_rand_frac(rng) for _ in range(r)),
                                   _rand_frac(rng))
        assert product_integral_formula(spec) == product_integral_direct(spec), spec


def test_unit_slope_specialization():
    # slopes 1, offsets 0 recovers the plain product-integral relation
    rng = random.Random(6)
    for _ in range(12):
        r = rng.randint(1, 4)
        degrees = tuple(rng.randint(0, 4) for _ in range(r))
        spec = ProductIntegralSpec(degrees, (F(1),) * r, (F(0),) * r, _rand_frac(rng))
        assert product_integral_formula(spec) == product_integral_direct(spec)


def test_three_factor_unit_case():
    # the classical three-factor formula is the r=3, unit-slope instance
    for l in range(5):
        for m in range(5):
            for n in range(5):
                spec = ProductIntegralSpec((l, m, n), (F(1),) * 3, (F(0),) * 3, F(2, 3))
                assert product_integral_formula(spec) == product_integral_direct(spec)


def test_symbolic_antiderivative():
    poly = product_integral_direct_poly((2, 1), (F(2), F(-1)), (F(0), F(1, 2)))
    assert poly.eval(F(0)) == 0
    spec = ProductIntegralSpec((2, 1), (F(2), F(-1)), (F(0), F(1, 2)), F(3, 4))
    assert poly.eval(F(3, 4)) == product_integral_direct(spec)


def test_permutation_invariance():
    assert permutation_invariance_check(EXAMPLE_A, (0, 1, 2))
    assert permutation_invariance_check(EXAMPLE_A, (2, 0, 1))
    assert permutation_invariance_check(EXAMPLE_B, (1, 2, 0))
    rng = random.Random(9)
    for _ in range(6):
        spec = ProductIntegralSpec((rng.randint(0, 4), rng.randint(0, 4)),
                                   (_rand_frac(rng, True), _rand_frac(rng, True)),
                                   (_rand_frac(rng), _rand_frac(rng)),
                                   _rand_frac(rng))
        assert permutation_invariance_check(spec, (1, 0))
    with pytest.raises(ValueError):
        permutation_invariance_check(EXAMPLE_A, (0, 0, 1))


def test_two_factor_reciprocity_random():
    rng = random.Random(14)
    for n in range(5):
        for m in range(5):
            b1, b2 = _rand_frac(rng, True), _rand_frac(rng, True)
            y1, y2, x = _rand_frac(rng), _rand_frac(rng), _rand_frac(rng)
            lhs, rhs = two_factor_reciprocity(n, m, b1, b2, y1, y2, x)
            assert lhs == rhs, (n, m, b1, b2, y1, y2, x)


def test_two_factor_degenerate():
    lhs, rhs = two_factor_reciprocity(0, 0, F(2), F(3), F(1, 2), F(1, 3), F(1, 5))
    assert lhs == rhs


def test_unit_slope_collapse_matches_shifted_identity():
    # with b1 = b2 = 1 the reciprocity collapses onto the shifted-argument form
    rng = random.Random(23)
    for _ in range(8):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        y1, y2, x = _rand_frac(rng), _rand_frac(rng), _rand_frac(rng)
        l24, r24 = two_factor_reciprocity(n, m, F(1), F(1), y1, y2, x)
        l28, r28 = equal_slope_reciprocity(n, m, y1, y2, x)
        assert l24 == r24 and l28 == r28


def test_equal_slope_known_points():
    for (n, m, y1, y2, x) in [(1, 1, F(1, 2), F(0), F(1, 3)),
                              (2, 3, F(2, 5), F(-1, 5), F(0))]:
        lhs, rhs = equal_slope_reciprocity(n, m, y1, y2, x)
        assert lhs == rhs
    # y1 = y2: the right side reduces to (-1)^m (m+n) B_{m+n+1}(0)
    for n in range(4):
        for m in range(4):
            lhs, rhs = equal_slope_reciprocity(n, m, F(1, 3), F(1, 3), F(2))
            assert lhs == rhs
            assert rhs == (-1) ** m * (m + n) * bernoulli_number(m + n + 1)


def test_constant_combination_in_x():
    rng = random.Random(4)
    for n in range(4):
        for m in range(4):
            b1, b2 = _rand_frac(rng, True), _rand_frac(rng, True)
            y1, y2 = _rand_frac(rng), _rand_frac(rng)
            poly = two_factor_constant_sum_poly(n, m, b1, b2, y1, y2)
            assert all(c == 0 for c in poly.coeffs[1:]), (n, m)


def test_reflective_slope_even_total_vanishes():
    assert reflective_slope_integral((3, 4, 16), (F(1), F(-1), F(-2)), F(1)) == 0
    assert product_integral_direct(EXAMPLE_A) == 0  # same spec, direct route
    rng = random.Random(2)
    for _ in range(8):
        r = rng.randint(1, 4)
        while True:
            degrees = tuple(rng.randint(0, 5) for _ in range(r))
            if (sum(degrees) + 1) % 2 == 0:
                break
        offsets = tuple(F(rng.randint(-2, 2)) + F(1, 3) for _ in range(r))
        assert reflective_slope_integral(degrees, offsets, F(2)) == 0


def test_reflective_slope_odd_total_matches_direct():
    cases = [((3, 4, 15), (F(1), F(-1), F(2)), F(1)),
             ((2, 0), (F(0), F(1)), F(2)),
             ((1, 1, 2), (F(1, 3), F(0), F(-1)), F(1, 2)),
             ((4,), (F(2),), F(3))]
    for degrees, offsets, q in cases:
        closed = reflective_slope_integral(degrees, offsets, q)
        spec = ProductIntegralSpec(degrees, tuple((1 - 2 * y) / q for y in offsets),
                                   offsets, q)
        assert closed == product_integral_direct(spec), (degrees, offsets, q)


def test_reflective_slope_rejects_half_offset():
    with pytest.raises(ValueError):
        reflective_slope_integral((2,), (F(1, 2),), F(1))
    with pytest.raises(ValueError):
        reflective_slope_integral((2,), (F(0),), F(0))


def test_char_reciprocity_exact():
    rng = random.Random(33)
    for (c1, c2) in [(CHI3, CHI3), (CHI3, CHI4), (CHI4, CHI3), (CHI4, CHI4)]:
        for n in (1, 2, 3):
            for m in (1, 2):
                b1, b2 = _rand_frac(rng, True), _rand_frac(rng, True)
                y1, y2, x = _rand_frac(rng), _rand_frac(rng), _rand_frac(rng)
                lhs, rhs = char_two_factor_reciprocity(n, m, b1, b2, y1, y2, x, c1, c2)
                assert scalars_equal(lhs, rhs), (c1.label, c2.label, n, m)


def test_char_reciprocity_mixed_orders():
    # mod 3 with mod 4: values land in a shared quadratic field
    lhs, rhs = char_two_factor_reciprocity(2, 1, F(1, 2), F(3), F(1, 3), F(-2),
                                           F(1, 5), CHI3, CHI4)
    assert scalars_equal(lhs, rhs)


def test_char_reciprocity_vanishing_right_side():
    # y1 = y2 = 0 with (-1)^(m+n) chi1(-1) chi2(-1) = 1 kills the right side
    lhs, rhs = char_two_factor_reciprocity(1, 1, F(2), F(3), F(0), F(0), F(1, 7),
                                           CHI3, CHI3)
    assert rhs.is_zero() and scalars_equal(lhs, rhs)


def test_char_reciprocity_requires_positive_degrees():
    with pytest.raises(ValueError):
        char_two_factor_reciprocity(0, 1, F(1), F(1), F(0), F(0), F(0), CHI3, CHI3)
    with pytest.raises(ValueError):
        char_two_factor_reciprocity(1, 0, F(1), F(1), F(0), F(0), F(0), CHI3, CHI3)


def test_char_reciprocity_extra_terms_vanish():
    # the boundary terms of the full-length sums carry the degree-0 twisted
    # polynomial, which is identically zero for non-principal characters
    from dedsums.charbernoulli import gen_bernoulli_poly
    for chi in (CHI3, CHI4):
        assert gen_bernoulli_poly(chi, 0).is_zero()


def test_pair_identity_polynomials():
    for p in range(1, 9):
        for i in range(p + 2):
            y = F(i, 3) - 1
            lhs, rhs = bernoulli_pair_identity_polys(p, y)
            assert lhs == rhs, (p, y)


# binomial_convolution against the literal loop it replaced (the twisted
# closed side of the character reciprocities, with N for p + 1), which
# starts from the zero of order 1 and adds every term.
def _convolution_reference(N, u, v, left, right, zero):
    total = zero
    for j in range(N + 1):
        total = total + math.comb(N, j) * u ** j * v ** (N - j) \
            * right(j) * left(N - j)
    return total


_CHARS = [chi for k in range(1, 6) for chi in enumerate_characters(k)]
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _bernoulli_values(draw):
    """(is_twisted, n -> value): plain B_n(y), a twisted B_{n,chi}(y) or a
    twisted number B_{n,chi}, for characters of modulus at most 5."""
    y = draw(_rationals)
    kind = draw(st.sampled_from(["plain", "twisted", "number"]))
    if kind == "plain":
        return False, lambda n: bernoulli_poly_value(n, y)
    chi = draw(st.sampled_from(_CHARS))
    if kind == "number":
        return True, lambda n: gen_bernoulli_number(chi, n)
    return True, lambda n: CyclotomicNumber._coerce(gen_bernoulli_poly(chi, n).eval(y))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 8), _rationals, _rationals, _bernoulli_values(), _bernoulli_values())
def test_binomial_convolution_matches_literal_loop(N, u, v, left, right):
    (left_twisted, left), (right_twisted, right) = left, right
    zero = CyclotomicNumber.zero(1) if left_twisted or right_twisted else F(0)
    want = _convolution_reference(N, u, v, left, right, zero)
    got = binomial_convolution(N, u, v, left, right)
    assert type(got) is type(want) and got == want
    if isinstance(want, CyclotomicNumber):
        assert got.order == want.order  # zero terms still raise the order


def test_binomial_convolution_refuses_negative_N_and_is_one_product_at_0():
    with pytest.raises(ValueError, match="N must be >= 0"):
        binomial_convolution(-1, 1, 1, lambda j: 1, lambda j: 1)
    assert binomial_convolution(0, F(2, 3), F(-5), lambda j: F(3, 7), lambda j: F(-2)) == F(-6, 7)
    z = CyclotomicNumber(3, [F(1, 2), 2])
    assert binomial_convolution(0, F(7), F(1, 9), lambda j: z, lambda j: F(4)) == z * 4


# _two_factor_lhs against the literal loop it replaced: each half adds one
# term per a from 0, in the order a = 0..n.
def _two_factor_lhs_reference(n, m, b1, b2, f1, f2, zero):
    def half(n, m, b1, b2, f1, f2):
        total = zero
        for a in range(n + 1):
            total = total + (-1) ** a * math.comb(m + n + 1, n - a) * b1 ** a \
                * b2 ** (-a - 1) * f1(n - a) * f2(m + a + 1)
        return total

    return half(n, m, b1, b2, f1, f2) - half(m, n, b2, b1, f2, f1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(0, 5), _rationals.filter(bool), _rationals.filter(bool),
       _bernoulli_values(), _bernoulli_values())
def test_two_factor_lhs_matches_literal_loop(n, m, b1, b2, f1, f2):
    (f1_twisted, f1), (f2_twisted, f2) = f1, f2
    zero = CyclotomicNumber.zero(1) if f1_twisted or f2_twisted else F(0)
    want = _two_factor_lhs_reference(n, m, b1, b2, f1, f2, zero)
    got = integrals._two_factor_lhs(n, m, b1, b2, f1, f2)
    assert type(got) is type(want) and got == want
    if isinstance(want, CyclotomicNumber):
        assert got.order == want.order


# ---------------------------------------------------------------------------
# The grouped formula and the integer expansion against the code they replaced
# ---------------------------------------------------------------------------

def _compositions(total, parts, caps):
    """All tuples j of length `parts`, sum `total`, with j_i <= caps[i]."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, parts - 1, caps[1:]):
            yield (first,) + rest


def _composition_formula_reference(spec):
    """The closed formula as a literal sum over every composition of a."""
    degrees, slopes, offsets, x = spec.degrees, spec.slopes, spec.offsets, spec.x
    r = spec.r
    nr, br, yr = degrees[-1], slopes[-1], offsets[-1]
    head = list(zip(degrees[:-1], slopes[:-1], offsets[:-1]))
    total = F(0)
    for a in range(sum(degrees[:-1]) + 1):
        for js in _compositions(a, r - 1, [h[0] for h in head]):
            multinom = math.factorial(a)
            coef = F(1)
            px, p0 = F(1), F(1)
            for j, (n, b, y) in zip(js, head):
                multinom //= math.factorial(j)
                coef *= b ** j * F(math.factorial(n), math.factorial(n - j))
                px *= bernoulli_poly_value(n - j, b * x + y)
                p0 *= bernoulli_poly_value(n - j, y)
            m = nr + a + 1
            coef *= F(math.factorial(nr), math.factorial(m)) * br ** (-a - 1)
            px *= bernoulli_poly_value(m, br * x + yr)
            p0 *= bernoulli_poly_value(m, yr)
            total += (-1) ** a * multinom * coef * (px - p0)
    return total


def _fraction_expansion_reference(degrees, slopes, offsets):
    """The expansion on Fraction polynomials, antidifferentiated."""
    prod = Polynomial([1])
    for n, b, y in zip(degrees, slopes, offsets):
        prod = prod * bernoulli_poly(n).compose_affine(F(b), F(y))
    return Polynomial([0] + [c / F(i + 1) for i, c in enumerate(prod.coeffs)])


def _reflective_reference(degrees, offsets, q):
    """reflective_slope_integral's double sum over every composition."""
    if (sum(degrees) + 1) % 2 == 0:
        return F(0)
    r = len(degrees)
    nr, yr = degrees[-1], offsets[-1]
    head = list(zip(degrees[:-1], offsets[:-1]))
    total = F(0)
    for a in range(sum(degrees[:-1]) + 1):
        inner = F(0)
        for js in _compositions(a, r - 1, [h[0] for h in head]):
            multinom = math.factorial(a)
            term = F(1)
            for j, (n, y) in zip(js, head):
                multinom //= math.factorial(j)
                term *= (1 - 2 * y) ** j * bernoulli_poly_value(n - j, y) / math.factorial(n - j)
            inner += multinom * term
        total += (-1) ** a * (1 - 2 * yr) ** (-a - 1) \
            * bernoulli_poly_value(nr + a + 1, yr) / math.factorial(nr + a + 1) * inner
    return -2 * q * total * math.prod(math.factorial(n) for n in degrees)


_ninths = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def _specs(draw):
    r = draw(st.integers(1, 4))
    return ProductIntegralSpec(tuple(draw(st.integers(0, 6)) for _ in range(r)),
                               tuple(draw(_ninths.filter(bool)) for _ in range(r)),
                               tuple(draw(_ninths) for _ in range(r)), draw(_ninths))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_specs())
def test_grouped_formula_and_integer_expansion_match_references(spec):
    want = _composition_formula_reference(spec)
    got = product_integral_formula(spec)
    assert type(got) is type(want) is F and got == want
    poly = _fraction_expansion_reference(spec.degrees, spec.slopes, spec.offsets)
    direct = product_integral_direct(spec)
    assert type(direct) is F and direct == _fraction_horner(poly, spec.x) == want
    assert product_integral_direct_poly(spec.degrees, spec.slopes, spec.offsets) == poly


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4).flatmap(
           lambda ds: st.tuples(st.just(tuple(ds)),
                                st.lists(_ninths.filter(lambda y: y != F(1, 2)),
                                         min_size=len(ds), max_size=len(ds)))),
       _ninths.filter(bool))
def test_reflective_slope_matches_composition_reference(case, q):
    degrees, offsets = case
    want = _reflective_reference(degrees, tuple(offsets), q)
    got = reflective_slope_integral(degrees, offsets, q)
    assert type(got) is type(want) is F and got == want


def _formula_loop_reference(spec):
    """product_integral_formula's sum over a as it was: one Fraction per term."""
    degrees, slopes, offsets, x = spec.degrees, spec.slopes, spec.offsets, spec.x
    nr, br, yr = degrees[-1], slopes[-1], offsets[-1]
    head = list(zip(degrees[:-1], slopes[:-1], offsets[:-1]))
    at_x, den_x = integrals._grouped_row([(n, b, b * x + y) for n, b, y in head])
    at_0, den_0 = integrals._grouped_row(head)
    ur = br * x + yr
    sum_x, sum_0 = F(0), F(0)
    for a, (hx, h0) in enumerate(zip(at_x, at_0)):
        m = nr + a + 1
        coef = F((-1) ** a * math.factorial(a) * math.factorial(nr),
                 math.factorial(m)) * br ** (-a - 1)
        sum_x += coef * hx * bernoulli_poly_value(m, ur)
        sum_0 += coef * h0 * bernoulli_poly_value(m, yr)
    return sum_x / den_x - sum_0 / den_0


def test_formula_matches_its_fraction_loop_on_the_oracle_grid():
    from dedsums.verify import default_grid

    for point in default_grid("int-32-oracle"):
        spec = ProductIntegralSpec(point["degrees"], point["slopes"], point["offsets"],
                                   point["x"])
        want = _formula_loop_reference(spec)
        got = product_integral_formula(spec)
        assert type(got) is F and got == want, spec


# ---------------------------------------------------------------------------
# The two sides of int-32-oracle stay independent
# ---------------------------------------------------------------------------

_FRESH = ProductIntegralSpec((3, 5, 2, 4), (F(7, 11), F(-13, 5), F(3, 17), F(19, 7)),
                             (F(23, 13), F(-5, 19), F(11, 3), F(-29, 11)), F(31, 23))


def _refuse(*_args, **_kw):
    raise AssertionError("the other side's code path was called")


def test_direct_side_reads_no_bernoulli_value_and_no_polynomial_eval(monkeypatch):
    want = _composition_formula_reference(_FRESH)
    for module in (bernoulli, integrals):
        monkeypatch.setattr(module, "bernoulli_poly_value", _refuse)
    monkeypatch.setattr(Polynomial, "eval", _refuse)
    assert product_integral_direct(_FRESH) == want


def test_formula_side_composes_no_affine_row(monkeypatch):
    # the formula's one row of B_n, _bernoulli_piece(n, 1, 0, 1), is the
    # identity composition; the piece memo is cleared so that it is built
    # here, whichever tests ran before
    want = _fraction_horner(
        _fraction_expansion_reference(_FRESH.degrees, _FRESH.slopes, _FRESH.offsets), _FRESH.x)
    compose = bernoulli._compose_affine

    def identity_only(coeffs, a, b):
        if (a, b) != (1, 0):
            _refuse()
        return compose(coeffs, a, b)

    monkeypatch.setattr(bernoulli, "_compose_affine", identity_only)
    monkeypatch.setattr(integrals, "_compose_affine", _refuse)
    monkeypatch.setattr(bernoulli, "_POLY_VALUE_CACHE", {})
    bernoulli._bernoulli_piece.cache_clear()
    assert product_integral_formula(_FRESH) == want


# what int-32-oracle's two sides may both reach: the integer kernels of
# exactnum, the budget check and the integer rows of bernoulli, which the
# formula reaches through the row of B_n behind every Bernoulli value
_SHARED_KERNELS = {"budget.require", "exactnum._convolve", "exactnum._horner",
                   "exactnum._over_lcm", "bernoulli._scaled_row", "bernoulli._compose_affine",
                   "bernoulli._piece_denominator", "bernoulli.bernoulli_number"}
_COMPREHENSIONS = {"<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>"}


def _clear_memo_tables():
    for name, module in list(sys.modules.items()):
        if name.startswith("dedsums."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    bernoulli._POLY_VALUE_CACHE.clear()


def _reached(side, spec) -> set:
    """The dedsums functions that side(spec) calls, from cold memo tables."""
    _clear_memo_tables()
    seen = set()

    def profile(frame, event, _arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("dedsums.") \
                and frame.f_code.co_name not in _COMPREHENSIONS:
            seen.add(f"{module.removeprefix('dedsums.')}.{frame.f_code.co_qualname}")

    sys.setprofile(profile)
    try:
        side(spec)
    finally:
        sys.setprofile(None)
    return seen


def test_oracle_sides_share_only_the_listed_kernels():
    from dedsums.verify import default_grid

    shared = set()
    for point in default_grid("int-32-oracle"):
        spec = ProductIntegralSpec(point["degrees"], point["slopes"], point["offsets"],
                                   point["x"])
        shared |= _reached(product_integral_formula, spec) & _reached(product_integral_direct,
                                                                      spec)
    assert shared <= _SHARED_KERNELS, sorted(shared - _SHARED_KERNELS)


def test_shifting_one_side_gives_a_mismatch(monkeypatch):
    from dedsums import verify

    # at x = 0, or with every degree 0, the integral does not read the offsets
    points = [p for p in verify.default_grid("int-32-oracle")[:40]
              if any(p["degrees"]) and F(p["x"]) != 0]
    for point in points:
        assert verify.verify_identity("int-32-oracle", point).verdict == "exact-equal"
    direct = verify.product_integral_direct

    def shifted(spec):
        # +1/7 on the offset of the first factor of positive degree
        l = next(i for i, n in enumerate(spec.degrees) if n)
        offsets = list(spec.offsets)
        offsets[l] += F(1, 7)
        return direct(ProductIntegralSpec(spec.degrees, spec.slopes, offsets, spec.x))

    monkeypatch.setattr(verify, "product_integral_direct", shifted)
    for point in points:
        assert verify.verify_identity("int-32-oracle", point).verdict == "mismatch", point
