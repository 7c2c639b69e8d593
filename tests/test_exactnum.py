"""Exact scalar arithmetic: rationals, cyclotomic numbers, serialization."""

import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedsums.exactnum import (CyclotomicNumber, Rational, _convolve, _horner, _over_lcm,
                              _reduce_mod_phi, cyclo_root, cyclotomic_polynomial, divisors,
                              euler_phi, scalar_from_json, scalar_to_json, scalars_equal)


def test_make_rational_canonical():
    # the library's rationals are Fractions: reduced, sign on the numerator
    assert Rational(2, 4) == F(1, 2)
    half = Rational(-3, -6)
    assert (half.numerator, half.denominator) == (1, 2)
    minus = Rational(3, -6)
    assert (minus.numerator, minus.denominator) == (-1, 2)
    zero = Rational(0, 7)
    assert zero.numerator == 0 and zero.denominator == 1


def test_make_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


def test_rational_strings_round_trip():
    for text in ("-7/36", "5", "0", "22/7"):
        assert scalar_to_json(scalar_from_json(text)) == text


def test_cyclotomic_polynomials_against_sympy():
    # independent oracle for the exact-division construction; Phi_105 is the
    # first with a coefficient outside {-1, 0, 1}
    import sympy
    x = sympy.symbols("x")
    for e in [*range(1, 21), 105]:
        ours = cyclotomic_polynomial(e)
        theirs = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
        assert [F(c) for c in theirs] == list(ours), e


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda e: st.tuples(st.just(e), st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=3 * e))))
def test_reduce_mod_phi_against_sympy(case):
    import sympy
    e, coeffs = case
    x = sympy.symbols("x")
    num = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs[::-1]]
                     or [0], x, domain="QQ")
    rem = num.rem(sympy.Poly(sympy.cyclotomic_poly(e, x), x, domain="QQ"))
    theirs = [F(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
    theirs += [F(0)] * (euler_phi(e) - len(theirs))
    assert [F(c) for c in _reduce_mod_phi(coeffs, e)] == theirs


def test_roots_of_unity():
    assert cyclo_root(4, 2) == -1
    assert (cyclo_root(3, 1) + cyclo_root(3, 2) + 1).is_zero()
    # zeta_6 = -zeta_3^2 after embedding into the same field
    assert cyclo_root(6, 1) == -(cyclo_root(3, 1).embed(6) ** 2)
    assert cyclo_root(5, 0) == 1
    assert cyclo_root(1, 3) == 1


def test_product_of_conjugate_pair():
    # (1 + i)(1 - i) = 2, exact and against the complex shadow
    a = 1 + cyclo_root(4, 1)
    b = 1 - cyclo_root(4, 1)
    assert a * b == 2
    assert abs(complex(a) * complex(b) - 2) < 1e-12


def test_cyclo_arith_dispatch():
    # the operators, with int and Fraction operands on either side
    z = cyclo_root(5, 1)
    assert cyclo_root(3, 1) * cyclo_root(3, 2) == 1
    assert z + 0 == z and 0 + z == z
    assert (z - z).is_zero()
    assert z ** 2 / z == z
    assert z * F(3, 2) == F(3, 2) * z
    assert (z * F(3, 2)).coeffs == tuple(c * F(3, 2) for c in z.coeffs)
    with pytest.raises(ZeroDivisionError):
        z / CyclotomicNumber.zero(5)


def _random_element(rng, e, height=10):
    return CyclotomicNumber(e, [F(rng.randint(-height, height),
                                  rng.randint(1, height)) for _ in range(euler_phi(e))])


def test_field_axioms_randomized():
    # the composite orders give Galois groups with many conjugates to multiply
    rng = random.Random(11)
    for e in [*range(1, 13), 15, 20, 24, 30]:
        r = CyclotomicNumber.from_rational(F(-3, 7), e)
        assert r.inverse() * r == 1 and r.inverse().order == e
        for _ in range(6):
            a, b, c = (_random_element(rng, e) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (b / a) * a == b


def test_embedding_commutes_with_arithmetic():
    rng = random.Random(5)
    for d, e in ((2, 6), (3, 12), (4, 8), (6, 12), (1, 7)):
        for _ in range(5):
            a, b = _random_element(rng, d), _random_element(rng, d)
            assert (a + b).embed(e) == a.embed(e) + b.embed(e)
            assert (a * b).embed(e) == a.embed(e) * b.embed(e)


def test_cross_order_equality():
    # the same rational seen from different fields
    assert CyclotomicNumber.from_rational(F(2, 3), 4) == CyclotomicNumber.from_rational(F(2, 3), 3)
    # zeta_3 in its own field vs embedded in Q(zeta_12)
    assert cyclo_root(3, 1) == cyclo_root(12, 4)
    assert cyclo_root(3, 1) != cyclo_root(12, 5)


def test_numeric_shadow_agreement():
    rng = random.Random(99)
    for e in (1, 3, 4, 5, 7, 8, 12):
        for _ in range(4):
            a = _random_element(rng, e, height=10 ** 6)
            b = _random_element(rng, e, height=10 ** 6)
            exact = complex(a * b)
            shadow = complex(a) * complex(b)
            scale = max(abs(exact), abs(shadow), 1.0)
            assert abs(exact - shadow) / scale < 1e-9


def test_rational_round_trip_through_cyclotomic():
    v = cyclo_root(4, 1) * cyclo_root(4, 3)  # i * (-i) = 1
    assert v.is_rational() and v.to_rational() == 1
    with pytest.raises(ValueError):
        cyclo_root(4, 1).to_rational()


def test_coefficients_read_as_fractions_of_the_canonical_form():
    class Sub(F):
        pass

    half = F(1, 2)
    v = CyclotomicNumber(5, [half, 3, "2/3", Sub(1, 4)])
    assert [type(c) for c in v.coeffs] == [F] * 4
    assert v.coeffs == (half, 3, F(2, 3), F(1, 4))
    # stored as integer coordinates over one denominator, without a common factor
    assert v.nums == (6, 36, 8, 3) and v.den == 12
    _assert_canonical(v)


def _assert_canonical(v):
    assert all(type(x) is int for x in v.nums) and type(v.den) is int
    assert v.den > 0 and math.gcd(v.den, *v.nums) == 1
    assert len(v.nums) == euler_phi(v.order)


def test_power_and_negative_power():
    z = cyclo_root(7, 1)
    assert z ** 7 == 1
    assert z ** -1 == z ** 6
    assert z ** 0 == 1


def test_scalar_json_round_trip():
    vals = [F(-7, 36), F(5), cyclo_root(5, 2) + F(1, 3), CyclotomicNumber.from_rational(F(2), 6)]
    for v in vals:
        back = scalar_from_json(scalar_to_json(v))
        assert scalars_equal(back, v)
    # rational-valued cyclotomic numbers collapse to plain "p/q"
    assert scalar_to_json(CyclotomicNumber.from_rational(F(-1, 2), 8)) == "-1/2"
    js = scalar_to_json(cyclo_root(5, 1))
    assert js["order"] == 5 and len(js["coeffs"]) == euler_phi(5)


def test_helpers():
    assert euler_phi(1) == 1 and euler_phi(12) == 4
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


# ---------------------------------------------------------------------------
# Reference: the Fraction-coordinate representation, one Fraction per
# power-basis coordinate, against which the integer form is checked
# ---------------------------------------------------------------------------

class _FractionCyclo:
    def __init__(self, order, coeffs):
        self.order, self.coeffs = order, tuple(F(c) for c in coeffs)
        assert len(self.coeffs) == euler_phi(order)

    @staticmethod
    def from_rational(value, order=1):
        return _FractionCyclo(order, [F(value)] + [F(0)] * (euler_phi(order) - 1))

    @staticmethod
    def from_group_ring(e, acc):
        return _FractionCyclo(e, _reduce_mod_phi(acc, e))

    def embed(self, order):
        if order == self.order:
            return self
        step = order // self.order
        raw = [F(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            raw[j * step] = c
        return _FractionCyclo(order, _reduce_mod_phi(raw, order))

    def _aligned(self, other):
        if not isinstance(other, _FractionCyclo):
            other = _FractionCyclo.from_rational(other)
        e = math.lcm(self.order, other.order)
        return self.embed(e), other.embed(e)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __add__(self, other):
        if isinstance(other, (int, F)):
            return _FractionCyclo(self.order, (self.coeffs[0] + other,) + self.coeffs[1:])
        a, b = self._aligned(other)
        return _FractionCyclo(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return _FractionCyclo(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return _FractionCyclo(self.order, [c * other for c in self.coeffs])
        a, b = self._aligned(other)
        if a.is_rational():
            return b * a.coeffs[0]
        if b.is_rational():
            return a * b.coeffs[0]
        return _FractionCyclo(a.order, _reduce_mod_phi(_convolve(a.coeffs, b.coeffs), a.order))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_rational():
            return _FractionCyclo.from_rational(1 / self.coeffs[0], self.order)
        e = self.order
        others = _FractionCyclo.from_rational(1, e)
        for a in range(2, e):
            if math.gcd(a, e) == 1:
                acc = [F(0)] * e
                for i, c in enumerate(self.coeffs):
                    acc[a * i % e] = c
                others = others * _FractionCyclo.from_group_ring(e, acc)
        return others * (1 / (self * others).coeffs[0])

    def __truediv__(self, other):
        if isinstance(other, (int, F)):
            return self * (1 / F(other))
        a, b = self._aligned(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _FractionCyclo.from_rational(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = _FractionCyclo.from_rational(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        a, b = self._aligned(other)
        return a.coeffs == b.coeffs


ORDERS = [*range(1, 13), 15, 20, 24, 30]
_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_scalars = st.one_of(st.integers(-9, 9), _rationals)


@st.composite
def _operands(draw):
    """(e, a, b): a of order e, b an int, a Fraction, or an element of an
    order dividing e, each as a (library value, reference value) pair."""
    def element(d):
        coords = draw(st.lists(_scalars, min_size=euler_phi(d), max_size=euler_phi(d)))
        return CyclotomicNumber(d, coords), _FractionCyclo(d, coords)

    e = draw(st.sampled_from(ORDERS))
    if draw(st.booleans()):
        b = element(draw(st.sampled_from(divisors(e))))
    else:
        value = draw(_scalars)
        b = value, value
    return e, element(e), b


def _assert_same(value, ref):
    if isinstance(ref, _FractionCyclo):
        _assert_canonical(value)
        assert (value.order, value.coeffs) == (ref.order, ref.coeffs)
    else:
        assert value == ref


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operands(), st.integers(-2, 3))
def test_integer_form_matches_fraction_reference(case, n):
    e, (a, ra), (b, rb) = case
    for op in (lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x - y,
               lambda x, y: y - x, lambda x, y: x * y, lambda x, y: y * x):
        _assert_same(op(a, b), op(ra, rb))
    if b != 0:
        _assert_same(a / b, ra / rb)
    if not a.is_zero():
        _assert_same(b / a, rb / ra)
        _assert_same(a.inverse(), ra.inverse())
    if n >= 0 or not a.is_zero():
        _assert_same(a ** n, ra ** n)
    for order in (e, 2 * e, 3 * e):
        _assert_same(a.embed(order), ra.embed(order))
    assert (a == b) == (ra == rb) and (b == a) == (ra == rb)
    assert (a.embed(2 * e) == b) == (ra == rb)


def test_cyclotomic_numbers_pickle():
    values = [CyclotomicNumber.zero(1), CyclotomicNumber.from_rational(F(-3, 4), 5),
              cyclo_root(5, 2) * F(1, 3), CyclotomicNumber(12, [F(1, 2), 0, F(-7, 3), 5])]
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is CyclotomicNumber and back == v
        assert (back.order, back.nums, back.den) == (v.order, v.nums, v.den)
        with pytest.raises(AttributeError):
            back.den = 1


# ---------------------------------------------------------------------------
# The integer kernels against Fraction references
# ---------------------------------------------------------------------------

_ints = st.integers(-10 ** 6, 10 ** 6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-50, 50), st.integers(-50, 50), st.lists(_ints, max_size=12))
@example(3, -2, [])
@example(0, 0, [5])
def test_horner_is_the_homogeneous_sum(x, y, coeffs):
    n = len(coeffs) - 1
    want = sum((F(c) * F(x) ** a * F(y) ** (n - a) for a, c in enumerate(coeffs)), F(0))
    got = _horner(x, y, coeffs)
    assert type(got) is int and got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_ints, max_size=12), st.lists(st.one_of(_ints, st.fractions(
    min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)), max_size=12)))
@example([])
@example([-4, 6])
def test_over_lcm_reads_values_over_one_denominator(values):
    nums, den = _over_lcm(values)
    assert type(den) is int and den >= 1 and len(nums) == len(values)
    assert all(type(x) is int and F(x, den) == v for x, v in zip(nums, values))
    if values:
        assert math.gcd(den, *nums) == 1
