"""Dedekind-sum families: frozen values, parity vanishing, cross-family
consistency, and the scaling laws (each verified by direct summation)."""

import importlib.util
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dedsums import bernoulli, budget, dedekind, verify
from dedsums.bernoulli import PeriodicFactor, Polynomial, bernoulli_poly, periodic_bernoulli
from dedsums.charbernoulli import (gen_bernoulli_function, gen_bernoulli_number,
                                   gen_bernoulli_poly)
from dedsums.dedekind import (apostol_sum, char_pair_sum, char_weighted_power_sum,
                              classical_dedekind_sum, hat_sum, tilde_sum,
                              tilde_weighted_power_sum, _twisted_sum)
from dedsums.dirichlet import (DirichletCharacter, character_from_label, character_sum,
                               enumerate_characters)
from dedsums.exactnum import CyclotomicNumber, cyclo_root, euler_phi
from dedsums.verify import _char_double_sum, _char_product_integral
from test_bernoulli import _reference_piecewise_product_integral
from test_budget import assert_refused_at_once


def _chars(k):
    return enumerate_characters(k, "nonprincipal_primitive")


CHI1 = enumerate_characters(1, "primitive")[0]   # the character mod 1
CHI3 = _chars(3)[0]
CHI4 = _chars(4)[0]
CHI5_ODD = _chars(5)[0]             # exponent 1: chi(-1) = -1
CHI5_EVEN = [c for c in _chars(5) if c.parity == 1][0]
CHI7_CUBIC = [c for c in _chars(7) if c.order == 3][0]


def test_classical_values():
    # ((1/3))^2 + ((2/3))^2 = 1/36 + 1/36
    assert classical_dedekind_sum(1, 3) == F(1, 18)
    assert classical_dedekind_sum(2, 3) == F(-1, 18)
    assert classical_dedekind_sum(1, 1) == 0
    assert classical_dedekind_sum(5, 1) == 0


def test_apostol_degree_one_is_classical():
    for b in range(1, 8):
        for c in range(1, 8):
            assert apostol_sum(1, b, c) == classical_dedekind_sum(b, c)


def test_apostol_values():
    assert apostol_sum(3, 1, 2) == 0
    # B3(1/3) = 1/27, B3(2/3) = -1/27; (1/27)(-1/6) + (-1/27)(1/6) = -1/81
    assert apostol_sum(3, 1, 3) == F(-1, 81)


def test_char_pair_requires_matching_modulus():
    with pytest.raises(ValueError, match="same modulus"):
        char_pair_sum(2, 1, 1, CHI3, CHI4)


def test_char_pair_requires_primitive():
    imprimitive = [c for c in enumerate_characters(6) if not c.is_principal()][0]
    with pytest.raises(ValueError, match="not primitive"):
        char_pair_sum(2, 1, 1, imprimitive, imprimitive)


def test_parity_forced_vanishing():
    # the pair sum dies when (-1)^(p+1) chi1(-1) chi2(-1) = -1: exhaustive
    # over k <= 5, p <= 5, b, c <= 6 (k <= 2 has no non-principal primitive)
    assert char_pair_sum(2, 1, 1, CHI3, CHI3).is_zero()
    for k, chars in ((3, _chars(3)), (4, _chars(4)), (5, _chars(5))):
        for chi1 in chars:
            for chi2 in chars:
                for p in (1, 2, 3, 4, 5):
                    sign = (-1) ** (p + 1) * chi1.parity * chi2.parity
                    if sign != -1:
                        continue
                    for b in range(1, 7):
                        for c in range(1, 7):
                            assert char_pair_sum(p, b, c, chi1, chi2).is_zero(), \
                                (k, chi1.label, chi2.label, p, b, c)


def test_char_pair_against_inline_reimplementation():
    # independent second implementation: literal term loop with no shared code
    for (chi1, chi2, p, b, c) in [(CHI5_ODD, CHI5_EVEN, 2, 1, 2),
                                  (CHI3, CHI3, 3, 2, 3),
                                  (CHI4, CHI4, 3, 3, 2)]:
        k = chi1.modulus
        total = CyclotomicNumber.zero(1)
        for n in range(c * k):
            total = total + chi1(n) * gen_bernoulli_function(chi2, p, F(b * n, c)) \
                * periodic_bernoulli(1, F(n, c * k))
        assert total == char_pair_sum(p, b, c, chi1, chi2)


def test_family_hierarchy():
    # equal moduli: the cross-modulus sum collapses onto the pair sum
    for (chi1, chi2) in [(CHI3, CHI3), (CHI5_ODD, CHI5_EVEN)]:
        for (p, b, c) in [(2, 2, 3), (3, 1, 2)]:
            assert tilde_sum(p, b, c, chi1, chi2) == char_pair_sum(p, b, c, chi1, chi2)
    # scaled arguments turn the tilde family into the hat family
    for (chi1, chi2) in [(CHI3, CHI4), (CHI3, CHI5_ODD), (CHI4, CHI5_EVEN)]:
        k1, k2 = chi1.modulus, chi2.modulus
        for (p, b, c) in [(2, 1, 1), (2, 2, 3), (3, 3, 2)]:
            assert tilde_sum(p, b * k1, c * k2, chi1, chi2) == \
                hat_sum(p, b, c, chi1, chi2)


def test_hat_tilde_parity_vanishing():
    for (chi1, chi2) in [(CHI3, CHI4), (CHI3, CHI5_ODD), (CHI4, CHI5_EVEN)]:
        for p in (1, 2, 3):
            if (-1) ** (p + 1) * chi1.parity * chi2.parity != -1:
                continue
            assert tilde_sum(p, 2, 3, chi1, chi2).is_zero()
            assert hat_sum(p, 2, 3, chi1, chi2).is_zero()


def test_period_respecting_in_b():
    # replacing b by b + c*k leaves the pair sum unchanged
    for (chi1, chi2) in [(CHI3, CHI3), (CHI5_ODD, CHI5_EVEN)]:
        k = chi1.modulus
        for (p, b, c) in [(2, 1, 2), (3, 2, 3)]:
            assert char_pair_sum(p, b + c * k, c, chi1, chi2) == \
                char_pair_sum(p, b, c, chi1, chi2)


def test_pair_sum_invariant_under_common_scaling():
    # direct summation shows s_p(qb, qc) = s_p(b, c) (the B1 weight averages
    # out over the q copies of each period)
    cases = [(CHI5_ODD, CHI5_EVEN, 2, 1, 1), (CHI5_EVEN, CHI5_ODD, 2, 1, 2),
             (CHI3, CHI3, 3, 2, 3), (CHI5_ODD, CHI5_ODD, 3, 1, 2)]
    saw_nonzero = False
    for chi1, chi2, p, b, c in cases:
        base = char_pair_sum(p, b, c, chi1, chi2)
        saw_nonzero = saw_nonzero or not base.is_zero()
        for q in (2, 3):
            assert char_pair_sum(p, q * b, q * c, chi1, chi2) == base
    assert saw_nonzero  # the invariance was exercised on substantive values


def test_weighted_power_sum_q_scaling():
    # the degree-(p+1) weighted sum picks up exactly one factor of q
    for (chi1, chi2) in [(CHI5_ODD, CHI5_EVEN), (CHI3, CHI3)]:
        for (p, b, c) in [(2, 1, 2), (3, 1, 1), (2, 2, 3)]:
            base = char_weighted_power_sum(p, b, c, chi1, chi2)
            for q in (2, 3):
                assert char_weighted_power_sum(p, q * b, q * c, chi1, chi2) == q * base


def test_weighted_power_sum_parity_vanishing():
    for (chi1, chi2) in [(CHI3, CHI3), (CHI5_ODD, CHI5_EVEN)]:
        for p in (1, 2, 3, 4):
            if (-1) ** (p + 1) * chi1.parity * chi2.parity != -1:
                continue
            assert char_weighted_power_sum(p, 2, 3, chi1, chi2).is_zero()
            assert tilde_weighted_power_sum(p, 2, 3, chi1, chi2).is_zero()


def test_weighted_sum_inclusive_upper_limit_agrees():
    # the cross-modulus weighted sum may be written to c*k1 inclusive or
    # exclusive: the top term carries chi1(c*k1) = 0, so they agree; asserted
    # against an inline exclusive loop rather than assumed
    for (chi1, chi2) in [(CHI3, CHI4), (CHI4, CHI5_ODD)]:
        k1, k2 = chi1.modulus, chi2.modulus
        for (p, b, c) in [(2, 1, 2), (3, 2, 1)]:
            span = c * k1
            exclusive = CyclotomicNumber.zero(1)
            for n in range(1, span):
                exclusive = exclusive + chi1(n) * gen_bernoulli_function(
                    chi2, p + 1, F(n * b * k2, span))
            assert tilde_weighted_power_sum(p, b, c, chi1, chi2) == exclusive
            assert chi1(span).is_zero()


def test_weighted_power_sum_b_c_one_double_sum():
    # at b = c = 1 the closed double-sum form is a plain finite identity
    for (chi1, chi2) in [(CHI5_ODD, CHI5_EVEN), (CHI5_EVEN, CHI5_ODD)]:
        k = chi1.modulus
        for p in (1, 2, 3):
            direct = char_weighted_power_sum(p, 1, 1, chi1, chi2)
            chib = chi2.conjugate()
            dbl = CyclotomicNumber.zero(1)
            for h in range(1, k):
                for j in range(1, k):
                    dbl = dbl + chi1(h) * chib(j) * periodic_bernoulli(p + 1, F(j + h, k))
            assert direct == F(k) ** p * dbl


def test_character_sums_refuse_c_below_one():
    # at c = 0 the range is empty and the denominator 0: refused, not summed to 0
    for fn in (char_pair_sum, hat_sum, tilde_sum, char_weighted_power_sum,
               tilde_weighted_power_sum):
        with pytest.raises(ValueError, match="c >= 1"):
            fn(2, 1, 0, CHI5_ODD, CHI5_EVEN)
    for fn in (char_pair_sum, hat_sum, tilde_sum):
        with pytest.raises(ValueError, match="p >= 1"):
            fn(0, 1, 1, CHI5_ODD, CHI5_EVEN)
    for fn in (char_weighted_power_sum, tilde_weighted_power_sum):   # degree p + 1
        with pytest.raises(ValueError, match="p >= 0"):
            fn(-1, 1, 1, CHI5_ODD, CHI5_EVEN)


def _ref_classical_dedekind_sum(b, c):
    total = F(0)
    for j in range(c):
        total += periodic_bernoulli(1, F(j, c)) * periodic_bernoulli(1, F(b * j, c))
    return total


def _ref_apostol_sum(p, b, c):
    total = F(0)
    for j in range(c):
        total += periodic_bernoulli(p, F(b * j, c)) * periodic_bernoulli(1, F(j, c))
    return total


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(-60, 60), st.integers(1, 30))
@example(1, -7, 5)     # negative b
@example(3, 41, 6)     # b >= c
@example(2, 12, 8)     # gcd(b, c) > 1
def test_classical_sums_match_fraction_loops(p, b, c):
    assert classical_dedekind_sum(b, c) == _ref_classical_dedekind_sum(b, c)
    assert apostol_sum(p, b, c) == _ref_apostol_sum(p, b, c)


# ---------------------------------------------------------------------------
# Group-ring kernels against the literal per-term CyclotomicNumber loops
# ---------------------------------------------------------------------------

PRIMITIVE = [chi for k in range(1, 13) for chi in enumerate_characters(k, "primitive")]
characters = st.sampled_from(PRIMITIVE)


def _ref_gen_function(chi, m, x):
    """periodic_B_{m,chi}(x) as one CyclotomicNumber per term."""
    k = chi.modulus
    x = F(x) - k * math.floor(F(x) / k)
    chibar = chi.conjugate()
    total = CyclotomicNumber.zero(chi.order)
    for n in range(k):
        w = chibar(n)
        if not w.is_zero():
            total = total + w * periodic_bernoulli(m, F(n + x, k))
    return total * F(k) ** (m - 1)


def _ref_twisted_sum(p, chi1, chi2, m, d, start, stop, saw_den):
    total = CyclotomicNumber.zero(math.lcm(chi1.order, chi2.order))
    for n in range(start, stop):
        w1 = chi1(n)
        if w1.is_zero():
            continue
        term = w1 * _ref_gen_function(chi2, p, F(n * m, d))
        if saw_den is not None:
            term = term * periodic_bernoulli(1, F(n, saw_den))
        total = total + term
    return total


def _ref_char_double_sum(deg, chi1, chi2bar, arg):
    # h and j over 1..k, the paper's ranges
    total = CyclotomicNumber.zero(1)
    for h in range(1, chi1.modulus + 1):
        w1 = chi1(h)
        if w1.is_zero():
            continue
        for j in range(1, chi2bar.modulus + 1):
            w2 = chi2bar(j)
            if not w2.is_zero():
                total = total + w1 * w2 * periodic_bernoulli(deg, arg(h, j))
    return total


def _ref_character_sum(chars, ranges, value):
    total = CyclotomicNumber.zero(1)
    for ns in itertools.product(*ranges):
        w = CyclotomicNumber.one(1)
        for chi, n in zip(chars, ns):
            w = w * chi(n)
        if not w.is_zero():
            total = total + w * value(*ns)
    return total


def _ref_char_product_integral(poly, factors, alpha, beta):
    """The defining sums term by term: one integral of the Fraction reference
    integrator of test_bernoulli per unit-residue tuple, weighted by the
    conj(psi)(r) and scaled by k^(deg-1) per factor."""
    total = CyclotomicNumber.zero(1)
    residues = [[r for r in range(psi.modulus) if not psi(r).is_zero()]
                for _, psi, _ in factors]
    for rs in itertools.product(*residues):
        w = CyclotomicNumber.one(1)
        pieces = []
        for (deg, psi, slope), r in zip(factors, rs):
            k = psi.modulus
            w = w * psi.conjugate()(r)
            pieces.append(PeriodicFactor(deg, F(slope, k), F(r, k)))
        total = total + w * _reference_piecewise_product_integral(poly, pieces, alpha, beta)
    return total * math.prod(F(psi.modulus) ** (deg - 1) for deg, psi, _ in factors)


def _ref_gen_bernoulli_poly(chi, n):
    k = chi.modulus
    chibar = chi.conjugate()
    scale = F(k) ** (n - 1)
    total = Polynomial()
    for a in range(k):
        w = chibar(a)
        if w.is_zero():
            continue
        total = total + bernoulli_poly(n).compose_affine(F(1, k), F(a, k)) * w
    poly = total * scale
    e = chi.order
    return Polynomial([CyclotomicNumber._coerce(c).embed(e) for c in poly.coeffs])


def _same(got, want):
    assert got.order == want.order
    assert got.coeffs == want.coeffs


@settings(max_examples=60, deadline=None)
@given(characters, st.integers(1, 4), st.integers(-30, 30), st.integers(1, 12))
def test_gen_bernoulli_function_matches_per_term_loop(chi, m, num, den):
    _same(gen_bernoulli_function(chi, m, F(num, den)), _ref_gen_function(chi, m, F(num, den)))


# (start, stop, saw_den) of the five callers of _twisted_sum, from (c, k1, k2),
# and of any range the kernel accepts: start in {0, 1}, up to two terms past
# c*k1 (so the sawtooth wraps), with or without the sawtooth
TWISTED_SHAPES = {
    "char_pair_sum, tilde_sum": lambda c, k1, k2, start, extra, saw: (0, c * k1, c * k1),
    "hat_sum": lambda c, k1, k2, start, extra, saw: (0, c * k1 * k2, c * k1 * k2),
    "char_weighted_power_sum": lambda c, k1, k2, start, extra, saw: (1, c * k1, None),
    "tilde_weighted_power_sum": lambda c, k1, k2, start, extra, saw: (1, c * k1 + 1, None),
    "any range": lambda c, k1, k2, start, extra, saw: (
        start, start + c * k1 + extra, c * k1 if saw else None),
}


@settings(max_examples=100, deadline=None)
@given(characters, characters, st.integers(1, 7), st.integers(-12, 12), st.integers(1, 12),
       st.integers(1, 3), st.sampled_from(sorted(TWISTED_SHAPES)),
       st.integers(0, 1), st.integers(0, 2), st.booleans())
@example(CHI3, CHI4, 7, -6, 4, 2, "hat_sum", 0, 0, False)           # gcd(m, d) = 2, 3 not | d
@example(CHI5_ODD, CHI3, 5, 0, 6, 1, "char_pair_sum, tilde_sum", 0, 0, False)  # m = 0
@example(CHI4, CHI5_EVEN, 2, -9, 15, 1, "char_weighted_power_sum", 0, 0, False)  # gcd 3
@example(CHI5_EVEN, CHI4, 1, -4, 6, 3, "tilde_weighted_power_sum", 0, 0, False)  # p = 1
@example(CHI3, CHI5_ODD, 3, 2, 3, 1, "any range", 1, 2, True)       # n >= saw_den
@example(CHI1, CHI4, 3, 1, 3, 2, "any range", 0, 1, False)          # modulus 1: n = 0 term
@example(CHI1, CHI1, 2, 3, 5, 3, "any range", 0, 2, True)           # e = 1: rational buckets
# a = k2 - 1 at n m = 7 = -1 mod N = 4: the largest index a d + r = 2N - d - 1
# of the two-period table
@example(CHI3, CHI4, 2, 7, 1, 1, "char_weighted_power_sum", 0, 0, False)
@example(CHI5_ODD, CHI7_CUBIC, 2, 3, 2, 1, "any range", 0, 1, True)  # orders 4, 3: e = 12
@example(CHI5_ODD, CHI4, 3, -7, 3, 2, "char_pair_sum, tilde_sum", 0, 0, False)  # m < 0, sawtooth
# pairs a, k2 - a: an odd chi2 against an even chi1 of odd order, so the sign
# of the pair comes from chi2 alone (e = 6), and an even chi2 of order 2 < 4
# units, whose two pairs fall into different buckets
@example(CHI7_CUBIC, CHI4, 3, 5, 2, 2, "any range", 1, 1, True)
@example(CHI3, CHI5_EVEN, 2, -3, 4, 1, "hat_sum", 0, 0, False)
def test_twisted_sum_matches_per_term_loop(chi1, chi2, p, m, d, c, shape, start, extra, saw):
    # m and d are drawn apart from the span and from each other, so m <= 0,
    # gcd(m, d) > 1 and d prime to k1 are all reached
    start, stop, saw_den = TWISTED_SHAPES[shape](c, chi1.modulus, chi2.modulus,
                                                 start, extra, saw)
    args = (p, chi1, chi2, m, d, start, stop, saw_den)
    _same(_twisted_sum(*args), _ref_twisted_sum(*args))


def _character_sum_double_sum(deg, chi1, chi2bar, bh, cj, N):
    # _char_double_sum as a per-term loop over the integer table, one value
    # call per (h, j) term, with h and j over 1..k-1: the units of 1..k
    table = bernoulli._periodic_table(deg, N)
    total = _ref_character_sum([chi1, chi2bar],
                               [range(1, chi1.modulus), range(1, chi2bar.modulus)],
                               lambda h, j: table[(bh * h + cj * j) % N])
    return total / bernoulli._piece_denominator(deg, N)


NONPRINCIPAL = [chi for chi in PRIMITIVE if not chi.is_principal()]

# (bh, cj, N) of the six callers of _char_double_sum, from (b, c, k1, k2),
# and any (bh, cj, N) the kernel accepts
DOUBLE_SHAPES = {
    "rp1": lambda b, c, n, k1, k2: (b, c, math.gcd(b, c) * k1),
    "rp2": lambda b, c, n, k1, k2: (b * k2, c * k1, math.gcd(b, c) * k1 * k2),
    "rp3's correction": lambda b, c, n, k1, k2: (b, c, math.gcd(b * k1, c * k2)),
    "lek2, further-weighted": lambda b, c, n, k1, k2: (b, c, k1),
    "lek3": lambda b, c, n, k1, k2: (b * k2, c * k1, k1 * k2),
    "any": lambda b, c, n, k1, k2: (b, c, n),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NONPRINCIPAL), st.sampled_from(NONPRINCIPAL), st.integers(1, 4),
       st.sampled_from(sorted(DOUBLE_SHAPES)), st.integers(-12, 12), st.integers(-12, 12),
       st.integers(1, 30))
@example(CHI3, CHI4, 3, "lek3", 1, 1, 1)           # lek3's shape at b = c = 1
@example(CHI5_ODD, CHI5_EVEN, 1, "any", 5, 5, 5)   # deg 1: the sawtooth is 0 at integers
@example(CHI5_ODD, CHI7_CUBIC, 2, "any", 3, 8, 35)  # orders 4 and 3: e = 12
@example(CHI4, CHI5_EVEN, 3, "any", -7, -5, 20)    # negative bh and cj
@example(CHI4, CHI3, 2, "rp3's correction", 3, 4, 1)  # k2 | b, k1 | c: q' = 12
# h = j = 1 at bh = cj = -1: (N - 1) + (N - 1) = 2N - 2, the largest index
# of the two-period table
@example(CHI3, CHI4, 2, "any", -1, -1, 12)
# pairs a, k2 - a, as in the twisted sums above
@example(CHI7_CUBIC, CHI4, 3, "any", 5, 3, 28)
@example(CHI3, CHI5_EVEN, 2, "lek3", 2, 3, 1)
def test_char_double_sum_matches_per_term_loop(chi1, chi2, deg, shape, b, c, n):
    # b, c and n are drawn apart, so that N shares factors with both, and
    # bh h + cj j may be negative or past N
    bh, cj, N = DOUBLE_SHAPES[shape](b, c, n, chi1.modulus, chi2.modulus)
    assume(N >= 1)
    got = _char_double_sum(deg, chi1, chi2, bh, cj, N)
    chi2bar = chi2.conjugate()
    _same(got, _ref_char_double_sum(deg, chi1, chi2bar, lambda h, j: F(bh * h + cj * j, N)))
    _same(got, _character_sum_double_sum(deg, chi1, chi2bar, bh, cj, N))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24).flatmap(
    lambda e: st.lists(st.fractions(max_denominator=50), min_size=e, max_size=e)))
def test_from_group_ring_matches_sum_of_roots(acc):
    e = len(acc)
    want = sum((a * cyclo_root(e, j) for j, a in enumerate(acc)), CyclotomicNumber.zero(e))
    _same(CyclotomicNumber.from_group_ring(e, acc), want)


@settings(max_examples=60, deadline=None)
@given(characters, st.integers(-8, 8), st.integers(0, 14), st.integers(-5, 5),
       st.integers(1, 6), st.booleans())
def test_character_sum_one_character_matches_per_term_loop(chi, start, length, a, c, integer):
    # integer values stay integers in the buckets until the one reduction
    def value(n):
        return n * n + a if integer else F(n * n + a, c)
    ns = range(start, start + length)
    _same(character_sum(chi, ns, value), _ref_character_sum([chi], [ns], value))


def test_character_sum_without_units_is_rational_zero():
    chi4, chi6 = enumerate_characters(4)[1], enumerate_characters(6)[1]
    for chi, ns in ((chi4, range(2, 3)), (chi4, range(0)), (chi6, range(0, 7, 6)),
                    (chi6, range(2, 5))):
        for value in (lambda n: 1, lambda n: F(1)):     # integer and rational values
            _same(character_sum(chi, ns, value), CyclotomicNumber.zero(1))


SMALL = [chi for k in (1, 2, 3, 4, 5, 7, 8) for chi in enumerate_characters(k, "primitive")]
CHI7_SEXTIC = [c for c in _chars(7) if c.order == 6][0]
CHI8 = _chars(8)[0]


_PRODUCT_FACTORS = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(SMALL),
              st.sampled_from([F(1), F(2), F(3), F(1, 2), F(2, 3), F(-1), F(-3, 2), F(-4)])),
    min_size=1, max_size=2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(-2, 2, max_denominator=5), min_size=1, max_size=4).map(Polynomial),
       _PRODUCT_FACTORS, st.fractions(-1, 1, max_denominator=3),
       st.fractions(F(1, 2), 2, max_denominator=4))
@example(Polynomial([1]), [(2, CHI1, F(1)), (1, CHI3, F(2))], F(0), F(1))  # residue 0 of CHI1
@example(Polynomial([F(1, 2), F(-1, 3), F(2)]), [(3, CHI5_ODD, F(1))], F(-1, 3), F(7, 4))
@example(Polynomial([0, 1]), [(2, CHI4, F(-3, 2)), (3, CHI5_EVEN, F(2))], F(1, 2), F(3, 2))
@example(Polynomial([F(1, 3)]), [(1, CHI3, F(-4)), (2, CHI4, F(3))], F(-1, 3), F(2))
@example(Polynomial([1, 1]), [(2, CHI7_CUBIC, F(1)), (1, CHI3, F(2))], F(0), F(7))  # odd e
@example(Polynomial([1]), [(1, CHI7_SEXTIC, F(3)), (2, CHI7_SEXTIC, F(1))], F(0), F(7))
@example(Polynomial([0, 1]), [(2, CHI5_ODD, F(2)), (1, CHI5_ODD, F(-1))], F(0), F(5))
@example(Polynomial([F(1, 2)]), [(1, CHI5_ODD, F(1)), (2, CHI7_CUBIC, F(-2))], F(1, 3), F(3))
@example(Polynomial([2, -1]), [(1, CHI4, F(1)), (2, CHI8, F(3))], F(2), F(-5, 2))  # beta < alpha
@example(Polynomial([1]), [(3, CHI8, F(2, 3)), (1, CHI5_EVEN, F(-5, 4))], F(-1, 2), F(3))
def test_char_product_integral_matches_per_term_loop(poly, factors, alpha, width):
    # one factor is the em-theorem shape, two the further-* shapes.  The
    # examples: order 3 (odd e, no class folded); e = 6, every class holding
    # a + and a - residue; order 4 mod 5, classes {1, -4} and {2, -3}; orders
    # 4 and 3 (e = 12); a reversed interval; slopes with denominators
    beta = alpha + width
    _same(_char_product_integral(poly, factors, alpha, beta),
          _ref_char_product_integral(poly, factors, alpha, beta))


def test_modulus_one_product_integral_is_the_periodic_one():
    # the residue 0 is a unit mod 1, as in gen_bernoulli_function, so the
    # modulus-1 factor is the periodic B_n and not 0
    saw = PeriodicFactor(1, F(1), F(0))
    assert _reference_piecewise_product_integral(1, [saw, saw], F(0), F(1)) == F(1, 12)
    got = _char_product_integral(1, [(1, CHI1, F(1)), (1, CHI1, F(1))], F(0), F(1))
    assert got.order == 1 and got.to_rational() == F(1, 12)


ALL_CHARS = [chi for k in range(1, 9) for chi in enumerate_characters(k)]
CHI_PRINCIPAL_6 = enumerate_characters(6)[0]   # imprimitive: conductor 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_CHARS), st.integers(0, 7))
@example(CHI1, 1)                 # B_1(0) = -1/2, where the sawtooth gives 0
@example(CHI_PRINCIPAL_6, 0)      # phi(6)/6 = 1/3
@example(CHI5_ODD, 4)
def test_gen_bernoulli_number_is_the_constant_term(chi, n):
    poly = _ref_gen_bernoulli_poly(chi, n)
    want = poly.coeffs[0] if poly.coeffs else CyclotomicNumber.zero(chi.order)
    _same(gen_bernoulli_number(chi, n), want)


@settings(max_examples=40, deadline=None)
@given(characters, st.integers(0, 6))
def test_gen_bernoulli_poly_matches_per_term_loop(chi, n):
    got, want = gen_bernoulli_poly(chi, n), _ref_gen_bernoulli_poly(chi, n)
    assert len(got.coeffs) == len(want.coeffs)
    for g, w in zip(got.coeffs, want.coeffs):
        _same(g, w)


# ---------------------------------------------------------------------------
# SUM_BUDGET: oversized direct sums are refused before any table is built
# ---------------------------------------------------------------------------

def test_oversized_sums_are_refused_before_any_table(monkeypatch):
    monkeypatch.setattr(dedekind, "_periodic_table",
                        lambda *a: pytest.fail("a table was built"))
    big = budget.SUM_BUDGET + 1
    calls = [lambda: classical_dedekind_sum(1, big), lambda: apostol_sum(2, 1, big),
             lambda: char_pair_sum(2, 1, big // 5 + 1, CHI5_ODD, CHI5_ODD),
             lambda: hat_sum(2, 1, big // 12 + 1, CHI3, CHI4),
             # c * k1 terms fit, the table of c * k1 * k2 entries does not
             lambda: tilde_sum(2, 1, big // 12 + 1, CHI3, CHI4),
             lambda: char_weighted_power_sum(2, 1, big // 5 + 1, CHI5_ODD, CHI5_EVEN),
             lambda: tilde_weighted_power_sum(2, 1, big // 3 + 1, CHI3, CHI4)]
    for call in calls:
        with pytest.raises(ValueError, match="over SUM_BUDGET"):
            call()


def test_costly_tables_are_refused_before_they_are_built(monkeypatch):
    # every caller of _periodic_table: each sum here adds at most SUM_BUDGET
    # terms into tables of at most SUM_BUDGET entries, but the table's degree
    # times entries passes TABLE_BUDGET
    monkeypatch.setattr(bernoulli, "_poly_numerator", lambda *a: pytest.fail("a table was built"))
    entries = budget.TABLE_BUDGET // 40
    calls = [lambda: apostol_sum(41, 1, entries), lambda: apostol_sum(40, 1, entries + 1),
             lambda: char_pair_sum(41, 1, entries // 5, CHI5_ODD, CHI5_ODD),
             # 499,992 rows of 2 units; the table of degree 61 has 166,664 entries
             lambda: hat_sum(61, 1, entries // 6, CHI3, CHI4),
             lambda: tilde_weighted_power_sum(40, 1, entries // 12, CHI3, CHI4),
             lambda: _char_double_sum(41, CHI3, CHI4, 1, 1, entries)]
    for call in calls:
        with pytest.raises(ValueError, match="over TABLE_BUDGET"):
            call()


@pytest.mark.parametrize("args, name", [
    (["verify", "--id", "classical-dr", "--b", "1", "--c", "1000000000"], "SUM_BUDGET"),
    (["verify", "--id", "rp1", "--char1", "5:1", "--char2", "5:1", "--p", "2", "--b", "1",
      "--c", "100000000"], "SUM_BUDGET"),
    (["sum", "--family", "hat", "--p", "2", "--b", "1", "--c", "100000000", "--char1", "3:1",
      "--char2", "4:1"], "SUM_BUDGET"),
    # 1003 * 997 rows times 996 units: within the budget when it counted
    # rows, and about 220 s of work
    (["sum", "--family", "char_pair", "--p", "2", "--b", "1", "--c", "1003", "--char1", "997:1",
      "--char2", "997:1"], "SUM_BUDGET"),
    # raabe's literal sum over m < c: without the refusal, c = 300000 runs
    # for seconds before it reports
    (["verify", "--id", "raabe", "--p", "1", "--c", str(budget.SUM_BUDGET + 1), "--x", "1/3"],
     "SUM_BUDGET"),
    # a table of 10^6 entries at degree 499: within SUM_BUDGET, it ran past
    # 60 s under a 1.5 GB address-space limit before the table budget
    (["verify", "--id", "apostol-dr1", "--p", "499", "--b", "1", "--c", "1000000"],
     "TABLE_BUDGET"),
], ids=["classical-dr", "rp1", "hat", "char-pair-units", "raabe", "apostol-dr1-table"])
def test_cli_refuses_oversized_sums_at_once(args, name):
    assert_refused_at_once(args, name)


def _point_span(point):
    # the largest integer parameter times the moduli of the characters: no
    # direct sum of a point has more rows, and no table it builds more entries
    ints = [v for v in point.values() if type(v) is int]
    return max(ints + [1]) * math.prod(v.modulus for v in point.values()
                                       if isinstance(v, DirichletCharacter))


def _point_size(point):
    # the span times the most units of one character: each row of a direct
    # sum reads the units of one character, so the sums of a point add at
    # most this many terms (checked on the largest point of each grid below)
    return _point_span(point) * max([euler_phi(v.modulus) for v in point.values()
                                     if isinstance(v, DirichletCharacter)] + [1])


def _all_default_grids():
    from dedsums.verify import IDENTITY_IDS, default_grid

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    grids = [(rid, default_grid(rid)) for rid in IDENTITY_IDS]
    for name, pools in workloads.WORKLOADS.items():
        grids += [(rid, grid) for (rid, _, _), grid in zip(pools, workloads.build_pools(name))]
    return grids


def _table_cost(point):
    # the degree bound of a point times its span: no table a check builds
    # has a larger degree times entries
    return _index_bound(point) * _point_span(point)


def test_default_grids_and_benchmark_pools_stay_within_the_budget(monkeypatch):
    from dedsums.verify import verify_identity

    largest, costliest = {}, {}
    for rid, grid in _all_default_grids():
        assert len(grid) <= budget.GRID_BUDGET, rid
        for measure, bound, top in ((_point_size, budget.SUM_BUDGET, largest),
                                    (_table_cost, budget.TABLE_BUDGET, costliest)):
            point = max(grid, key=measure)
            assert measure(point) <= bound, (rid, point)
            if measure(point) > measure(top.get(rid, {})):
                top[rid] = point
    seen = []
    # every direct sum's terms or table entries, as dedekind checks them
    check = dedekind.require
    monkeypatch.setattr(dedekind, "require", lambda name, amount, what: (
        seen.append(amount) if name == "SUM_BUDGET" else None) or check(name, amount, what))
    summed = set()
    for rid, point in largest.items():
        seen.clear()
        verify_identity(rid, point)
        assert max(seen, default=0) <= _point_size(point), (rid, point)
        summed.update([rid] if seen else [])
    assert {"classical-dr", "remark-apostol", "berndt-dkr", "rp1", "rp2", "rp3",
            "lek3"} <= summed
    # every table the costliest points read, built or cached, through the
    # two modules that read tables
    costs = []
    table = bernoulli._periodic_table
    for module in (dedekind, verify):
        monkeypatch.setattr(module, "_periodic_table",
                            lambda n, q: costs.append(n * q) or table(n, q))
    tabled = set()
    for rid, point in costliest.items():
        costs.clear()
        verify_identity(rid, point)
        assert max(costs, default=0) <= _table_cost(point), (rid, point)
        tabled.update([rid] if costs else [])
    assert {"classical-dr", "apostol-dr1", "remark-apostol", "berndt-dkr", "cck-rp", "rp1",
            "rp2", "rp3", "lek2", "lek3", "further-weighted"} <= tabled


# ---------------------------------------------------------------------------
# BERNOULLI_BUDGET and MODULUS_BUDGET: refused before the recurrence or the
# enumeration, and never reached by a default grid or a benchmark pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args, name", [
    (["bernoulli", "--number", "200000"], "BERNOULLI_BUDGET"),
    (["bernoulli", "--poly", "200000"], "BERNOULLI_BUDGET"),
    (["bernoulli", "--periodic", "200000", "--x", "1/3"], "BERNOULLI_BUDGET"),
    (["char", "list", "--modulus", "100000000"], "MODULUS_BUDGET"),
    (["char", "show", "--modulus", "100000000", "--label", "1", "--eval", "3"],
     "MODULUS_BUDGET"),
    # int-23 builds its polynomials at p + 2 values of y: p = 80 took 6 s
    (["verify", "--id", "int-23", "--p", str(budget.INT_23_DEGREE_BUDGET + 1)],
     "INT_23_DEGREE_BUDGET"),
], ids=["number", "poly", "periodic", "char-list", "char-show", "int-23-degree"])
def test_cli_refuses_an_index_or_modulus_over_budget_at_once(args, name):
    assert_refused_at_once(args, name)


def _index_bound(point):
    # the degrees of a point plus 2: no Bernoulli index a check reads passes
    # it (confirmed below on the largest point of each grid, in a fresh
    # process, whose Bernoulli table starts empty)
    degrees = [v for key, v in point.items() if key in ("p", "n", "m", "l")]
    return sum(degrees) + sum(point.get("degrees", ())) + 2


_INDEX_PROBE = """
import pickle, sys
from dedsums import bernoulli
from dedsums.verify import verify_identity
top = 0
for rid, point, bound in pickle.load(sys.stdin.buffer):
    verify_identity(rid, point)
    top = max(top, bound)
    assert len(bernoulli._BERNOULLI) - 1 <= top, (rid, point, len(bernoulli._BERNOULLI) - 1)
print(len(bernoulli._BERNOULLI) - 1)
"""


def test_default_grids_and_benchmark_pools_stay_within_index_and_modulus_budgets():
    largest = {}
    for rid, grid in _all_default_grids():
        for point in grid:
            assert _index_bound(point) <= budget.BERNOULLI_BUDGET, (rid, point)
            assert rid != "int-23" or point["p"] <= budget.INT_23_DEGREE_BUDGET, point
            assert all(v.modulus <= budget.MODULUS_BUDGET for v in point.values()
                       if isinstance(v, DirichletCharacter)), (rid, point)
        point = max(grid, key=_index_bound)
        if _index_bound(point) > _index_bound(largest.get(rid, {})):
            largest[rid] = point
    probes = sorted(((rid, point, _index_bound(point)) for rid, point in largest.items()),
                    key=lambda probe: probe[2])
    env = dict(os.environ, PYTHONPATH=str(Path(dedekind.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _INDEX_PROBE], input=pickle.dumps(probes),
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert 0 < int(proc.stdout) <= probes[-1][2]


# ---------------------------------------------------------------------------
# CUT_BUDGET, and em-theorem's l and literal sum: refused before the work
# ---------------------------------------------------------------------------

_EM_THEOREM = ["verify", "--id", "em-theorem", "--char", "3:1", "--f", "0,1", "--alpha", "0"]
_FURTHER_997 = ["verify", "--char1", "997:1", "--char2", "997:1", "--p", "2", "--l", "0"]


@pytest.mark.parametrize("args, name", [
    (_EM_THEOREM + ["--beta", "10", "--l", "520"], "BERNOULLI_BUDGET"),
    (["verify", "--id", "further-eq20", "--char1", "5:1", "--char2", "5:2", "--p", "3",
      "--l", "0", "--b", "1", "--c", "1000000"], "CUT_BUDGET"),
    (_EM_THEOREM + ["--beta", "100000000", "--l", "0"], "SUM_BUDGET"),
    (_EM_THEOREM + ["--beta", "3000000", "--l", "0"], "SUM_BUDGET"),
    # 1,992 cuts at modulus 997, each walked once per key of the other
    # family (498): 992,016 walked.  Counted once per cut, they were admitted
    # and took 2.5 s to 3.5 s each on a 2-vCPU x86 host
    (_FURTHER_997 + ["--id", "further-bc1"], "CUT_BUDGET"),
    (_FURTHER_997 + ["--id", "further-eq20", "--b", "1", "--c", "1"], "CUT_BUDGET"),
    (_FURTHER_997 + ["--id", "further-weighted", "--b", "1", "--c", "1"], "CUT_BUDGET"),
    # 50,796 cuts, 25.3 million walked: 58 s on that host when admitted
    (_FURTHER_997 + ["--id", "further-eq20", "--b", "1", "--c", "50"], "CUT_BUDGET"),
    # 996 residues times n + 1 = 51 moments: 29.7 s on that host when admitted
    (["verify", "--id", "laplace-char", "--char", "997:1", "--n", "50", "--t", "1", "--s",
      "0.05"], "TERM_BUDGET"),
], ids=["em-theorem-l", "further-eq20-cuts", "em-theorem-sum-1e8", "em-theorem-sum-3e6",
        "further-bc1-997", "further-eq20-997", "further-weighted-997", "further-eq20-997-c50",
        "laplace-char-997"])
def test_cli_refuses_product_integral_work_over_budget_at_once(args, name):
    assert_refused_at_once(args, name)


def test_cut_budget_counts_the_walk_over_every_key_tuple():
    # conj(chi) and chi of order 996 fold into 498 phase classes each; every
    # unit residue's term cuts (0, 997) once, so family i has 996 cuts, each
    # walked once per key of the other family
    chi = character_from_label(997, "1")
    with pytest.raises(budget.BudgetError) as info:
        verify.verify_identity("further-bc1", {"char1": chi, "char2": chi, "p": 2, "l": 0})
    assert (info.value.name, info.value.amount) == ("CUT_BUDGET", 2 * 996 * 498)


def test_em_theorem_at_the_largest_l_within_budget_runs_in_seconds():
    # every twisted value reads _bernoulli_piece(l + 1, 1, 0, 1); at l = 499
    # this took over 30 s while that piece was expanded binomially
    env = dict(os.environ, PYTHONPATH=str(Path(dedekind.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "dedsums.cli", *_EM_THEOREM,
                           "--beta", "10", "--l", "499"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "exact-equal"' in proc.stdout


def test_em_theorem_reads_no_boundary_value_past_the_degree_of_f():
    # once the derivative row of f is empty, every further boundary term is
    # 0: f = x reads periodic_B_1 and periodic_B_2 at both ends, 4 values,
    # where all l + 1 = 500 degrees were read (1,000 misses, 1.5 s)
    from dedsums import charbernoulli

    charbernoulli._gen_bernoulli_function_reduced.cache_clear()
    report = verify.verify_identity("em-theorem", {
        "char": character_from_label(3, "1"), "f": Polynomial([0, 1]), "alpha": F(0),
        "beta": F(10), "l": 499})
    assert charbernoulli._gen_bernoulli_function_reduced.cache_info().misses == 2 * (1 + 1)
    assert report.to_json() == (
        '{"id": "em-theorem", "lhs": "2", "notes": "", "params": {"alpha": "0", "beta": "10", '
        '"char": "3:1", "f": ["0", "1"], "l": 499}, "residual": null, "rhs": "2", '
        '"verdict": "exact-equal"}')


class _Counted(Exception):
    pass


def test_default_grids_and_benchmark_pools_stay_within_the_cut_budget(monkeypatch):
    # every point of an id that integrates through a product-integral frame
    # runs up to the frame's cut count, which is recorded, and stops there
    frame_ids = {"further-c1k", "further-bc1", "further-eq20", "further-weighted",
                 "em-theorem"}
    count, counts = bernoulli._frame_cuts, []

    def record(*args):
        counts.append(count(*args))
        raise _Counted

    monkeypatch.setattr(bernoulli, "_frame_cuts", record)
    from dedsums.verify import verify_identity

    for rid, grid in _all_default_grids():
        if rid in frame_ids:
            for point in grid:
                try:
                    verify_identity(rid, point)
                except _Counted:
                    pass
    assert len(counts) > 1000 and max(counts) <= budget.CUT_BUDGET
