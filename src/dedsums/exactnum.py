"""Exact scalar arithmetic: arbitrary-precision rationals and cyclotomic numbers.

Rationals are stdlib ``fractions.Fraction`` (already canonical: positive
denominator, fully reduced, exact arithmetic).  This module adds the field
Q(zeta_e), modelled as Q[x]/(Phi_e(x)) in the power basis
{1, zeta, ..., zeta^(phi(e)-1)}, where Phi_e is the e-th cyclotomic
polynomial.  Since Phi_e is irreducible, representation in the power basis is
unique, so equality is decidable coefficient-wise; values of different orders
are compared after embedding into Q(zeta_lcm).

A value is held as phi(e) integer coordinates over one positive denominator
with no common factor (Cohen, GTM 138, 4.2), so the arithmetic runs on
integers only (Knuth, TAOCP vol. 2, 4.5.1): a sum cross-multiplies by the
two denominators, a product convolves the integer vectors and reduces them
modulo the integer Phi_e, and each result is brought back to that form by
one gcd.  Fraction coordinates are built only when asked for (``coeffs``),
for JSON, display and the complex shadow.

All values are immutable and all operations are pure, so they can be shared
freely between concurrent workers.  No floating point is used anywhere in the
arithmetic; ``complex()`` on a CyclotomicNumber is provided only as a numeric
shadow for cross-checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Fraction

Scalar = Union[int, Fraction, "CyclotomicNumber"]

__all__ = [
    "Rational",
    "CyclotomicNumber",
    "cyclo_root",
    "cyclotomic_polynomial",
    "euler_phi",
    "divisors",
    "factorize",
    "scalar_to_json",
    "scalar_from_json",
    "scalars_equal",
    "as_complex",
]


# ---------------------------------------------------------------------------
# Small integer helpers (shared with the character module)
# ---------------------------------------------------------------------------

def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, exponent), ...], p ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# Integer kernels on ascending coefficient lists, stated once for the package
# ---------------------------------------------------------------------------

def _convolve(p, q) -> list:
    """Coefficients of the product of two polynomials; zero entries of p are
    skipped, and an entry no product reaches stays int 0."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def _horner(x: int, y: int, coeffs) -> int:
    """sum_a coeffs[a] x^a y^(N-a), N = len(coeffs) - 1: the value at x/y
    times y^N, by homogeneous Horner (Knuth, TAOCP vol. 2, 4.6.4)."""
    acc, y_pow = 0, 1
    for c in reversed(coeffs):
        acc = acc * x + c * y_pow
        y_pow *= y
    return acc


def _over_lcm(values) -> tuple[list[int], int]:
    """(nums, den): values[i] == nums[i] / den for ints or Fractions, den the
    lcm of their denominators, no common factor (Knuth, TAOCP vol. 2, 4.5.1)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _divide_top(rem: list, deg: int, low) -> None:
    """Divide rem in place by the monic x^deg + sum c x^i, (i, c) over low:
    afterwards rem[:deg] holds the remainder and rem[deg:] the quotient."""
    for top in range(len(rem) - 1, deg - 1, -1):
        coef = rem[top]
        if coef:
            base = top - deg
            for i, c in low:
                rem[base + i] -= coef * c


def _divmod_monic(a, b) -> tuple[list, list]:
    """Quotient and remainder of a by a monic integer polynomial b; the
    remainder is padded to len(b) - 1 entries."""
    deg = len(b) - 1
    rem = list(a)
    _divide_top(rem, deg, [(i, c) for i, c in enumerate(b[:deg]) if c])
    return rem[deg:], rem[:deg] + [0] * (deg - len(rem))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of Phi_e, computed by exact division
    of x^e - 1 by the monic Phi_d of every proper divisor d of e."""
    if e < 1:
        raise ValueError("order must be >= 1")
    quot = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e)[:-1]:
        quot, rem = _divmod_monic(quot, cyclotomic_polynomial(d))
        assert not any(rem), "the division must be exact"
    return tuple(quot)


@lru_cache(maxsize=None)
def _phi_row(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(e), the (i, c) of every nonzero c x^i below the top of Phi_e)."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    return deg, tuple((i, c) for i, c in enumerate(phi[:deg]) if c)


def _reduce_mod_phi(coeffs, e: int) -> list:
    """coeffs modulo Phi_e, padded to length phi(e).  Integer coefficients
    stay integers."""
    deg, low = _phi_row(e)
    rem = list(coeffs)
    _divide_top(rem, deg, low)
    del rem[deg:]
    return rem + [0] * (deg - len(rem))


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

_new = object.__new__
_set = object.__setattr__


class CyclotomicNumber:
    """Element of Q(zeta_order): sum_j nums[j] zeta^j / den in the power
    basis, reduced modulo Phi_order.

    ``nums`` holds exactly phi(order) ints and ``den`` is a positive int with
    gcd(den, *nums) == 1, so every value has one form and equality of one
    order is equality of (nums, den).  ``coeffs`` gives the coordinates as
    Fractions.  Mixed-order arithmetic embeds both operands into
    Q(zeta_lcm); the result order is the lcm.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        coeffs = [c if type(c) is int else Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        nums, den = _over_lcm(coeffs)
        _set(self, "order", order)
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        return CyclotomicNumber._from_ints, (self.order, self.nums, self.den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _from_ints(order: int, nums, den: int = 1) -> "CyclotomicNumber":
        """sum_j nums[j] zeta_order^j / den for phi(order) ints and an int
        den != 0, brought to the canonical form by one gcd."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        self = _new(CyclotomicNumber)
        _set(self, "order", order)
        _set(self, "nums", tuple(nums) if g == 1 else tuple(x // g for x in nums))
        _set(self, "den", den // g)
        return self

    @staticmethod
    def from_rational(value, order: int = 1) -> "CyclotomicNumber":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return CyclotomicNumber._from_ints(
            order, (q.numerator,) + (0,) * (euler_phi(order) - 1), q.denominator)

    @staticmethod
    def from_group_ring(e: int, acc) -> "CyclotomicNumber":
        """sum_j acc[j] zeta_e^j for a length-e vector of ints or Fractions,
        an element of the group ring Q[x]/(x^e - 1), reduced modulo Phi_e
        once over the lcm of the denominators (1 for ints)."""
        if len(acc) != e:
            raise ValueError(f"need {e} group-ring coefficients, got {len(acc)}")
        nums, den = _over_lcm(acc)
        return CyclotomicNumber._from_ints(e, _reduce_mod_phi(nums, e), den)

    @staticmethod
    def zero(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(1, order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(order) coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- order handling ------------------------------------------------------

    def embed(self, order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_d) -> Q(zeta_order), zeta_d |-> zeta_order^(order/d)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        raw = [0] * ((len(self.nums) - 1) * step + 1)
        raw[::step] = self.nums
        return CyclotomicNumber._from_ints(order, _reduce_mod_phi(raw, order), self.den)

    @staticmethod
    def _coerce(value) -> "CyclotomicNumber":
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to CyclotomicNumber")

    def _aligned(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        other = CyclotomicNumber._coerce(other)
        if self.order == other.order:
            return self, other
        e = math.lcm(self.order, other.order)
        return self.embed(e), other.embed(e)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value has nonzero non-constant coefficients")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ----------------------------------------------------------
    # Rational operands are read as numerator / denominator, ints included.

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            d, nums = other.denominator, self.nums
            return CyclotomicNumber._from_ints(
                self.order, (nums[0] * d + other.numerator * self.den,
                             *(x * d for x in nums[1:])), self.den * d)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        g = math.gcd(a.den, b.den)
        sa, sb = b.den // g, a.den // g
        return CyclotomicNumber._from_ints(
            a.order, [x * sa + y * sb for x, y in zip(a.nums, b.nums)], a.den * sa)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._from_ints(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return CyclotomicNumber._from_ints(self.order, [x * n for x in self.nums],
                                               self.den * other.denominator)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        if not any(a.nums[1:]):
            a, b = b, a
        if not any(b.nums[1:]):
            n = b.nums[0]
            nums = [x * n for x in a.nums]
        else:
            nums = _reduce_mod_phi(_convolve(a.nums, b.nums), a.order)
        return CyclotomicNumber._from_ints(a.order, nums, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        e, nums = self.order, self.nums
        if self.is_rational():
            return CyclotomicNumber.from_rational(Fraction(self.den, nums[0]), e)
        # 1/x = den/X for the integer vector X = den*x, and 1/X is the product
        # of the other Galois conjugates of X over the norm N(X), all integral;
        # the conjugate zeta -> zeta^a puts coordinate i in bucket a*i
        others = CyclotomicNumber.one(e)
        for a in range(2, e):
            if math.gcd(a, e) == 1:
                acc = [0] * e
                for i, c in enumerate(nums):
                    acc[a * i % e] = c
                others = others * CyclotomicNumber.from_group_ring(e, acc)
        norm = (CyclotomicNumber._from_ints(e, nums) * others).nums[0]
        return CyclotomicNumber._from_ints(e, [x * self.den for x in others.nums], norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            d = other.denominator
            return CyclotomicNumber._from_ints(self.order, [x * d for x in self.nums],
                                               self.den * other.numerator)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CyclotomicNumber._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # mixed-order equality makes a consistent hash impractical

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        zeta = cmath.exp(2j * cmath.pi / self.order)
        return sum((complex(c) * zeta ** j for j, c in enumerate(self.coeffs)), 0j)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"CyclotomicNumber({self.to_rational()})"
        terms = " + ".join(f"{c}*z^{j}" if j else str(c)
                           for j, c in enumerate(self.coeffs) if c != 0)
        return f"CyclotomicNumber(order={self.order}: {terms})"


def cyclo_root(e: int, j: int) -> CyclotomicNumber:
    """zeta_e^(j mod e), reduced modulo Phi_e."""
    if e < 1:
        raise ValueError("order must be >= 1")
    j %= e
    return CyclotomicNumber._from_ints(e, _reduce_mod_phi([0] * j + [1], e))


# ---------------------------------------------------------------------------
# Scalar JSON interchange
# ---------------------------------------------------------------------------

def scalars_equal(a, b) -> bool:
    """Exact equality across int / Fraction / CyclotomicNumber."""
    if isinstance(a, CyclotomicNumber) or isinstance(b, CyclotomicNumber):
        return CyclotomicNumber._coerce(a) == CyclotomicNumber._coerce(b)
    return Fraction(a) == Fraction(b)


def scalar_to_json(value):
    """Canonical JSON form: rationals as "p/q" strings, genuine cyclotomic
    values as {"order": e, "coeffs": [...]}.  A cyclotomic value whose
    non-constant coefficients vanish collapses to its rational string."""
    if isinstance(value, CyclotomicNumber):
        if value.is_rational():
            return str(value.to_rational())
        return {"order": value.order, "coeffs": [str(c) for c in value.coeffs]}
    return str(Fraction(value))


def scalar_from_json(obj):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict):
        return CyclotomicNumber(obj["order"], [Fraction(c) for c in obj["coeffs"]])
    raise ValueError(f"not a scalar JSON value: {obj!r}")


def as_complex(value) -> complex:
    """Double-precision shadow of an exact scalar."""
    if isinstance(value, CyclotomicNumber):
        return complex(value)
    return complex(Fraction(value))
