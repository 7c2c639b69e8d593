"""Exact scalar arithmetic: arbitrary-precision rationals and cyclotomic numbers.

Rationals are stdlib ``fractions.Fraction`` (already canonical: positive
denominator, fully reduced, exact arithmetic).  This module adds the field
Q(zeta_e), modelled as Q[x]/(Phi_e(x)) in the power basis
{1, zeta, ..., zeta^(phi(e)-1)}, where Phi_e is the e-th cyclotomic
polynomial.  Since Phi_e is irreducible, representation in the power basis is
unique, so equality is decidable coefficient-wise; values of different orders
are compared after embedding into Q(zeta_lcm).

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
    "rational_from_string",
    "rational_to_string",
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
# Rational surface
# ---------------------------------------------------------------------------

def rational_from_string(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(text.strip())


def rational_to_string(value: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# Dense polynomial kernels on ascending coefficient lists, shared by the package
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


def _divmod_monic(a, b) -> tuple[list, list]:
    """Quotient and remainder of a by a monic integer polynomial b; the
    remainder is padded to len(b) - 1 entries."""
    deg = len(b) - 1
    low = [(i, int(c)) for i, c in enumerate(b[:deg]) if c]
    rem = list(a)
    quot = [0] * max(len(rem) - deg, 0)
    for pos in range(len(quot) - 1, -1, -1):
        coef = quot[pos] = rem[pos + deg]
        if coef:
            for i, c in low:
                rem[pos + i] -= coef * c
    del rem[deg:]
    return quot, rem + [0] * (deg - len(rem))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of Phi_e, computed by exact division of
    x^e - 1 by the monic Phi_d of every proper divisor d of e."""
    if e < 1:
        raise ValueError("order must be >= 1")
    quot = [Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
    for d in divisors(e)[:-1]:
        quot, rem = _divmod_monic(quot, cyclotomic_polynomial(d))
        assert not any(rem), "the division must be exact"
    return tuple(quot)


def _reduce_mod_phi(coeffs, e: int) -> list:
    """coeffs modulo Phi_e, padded to length phi(e).  Entries are not
    re-wrapped: the CyclotomicNumber constructor does that."""
    return _divmod_monic(coeffs, cyclotomic_polynomial(e))[1]


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

class CyclotomicNumber:
    """Element of Q(zeta_order) as a reduced power-basis coefficient vector.

    ``coeffs`` always has exactly phi(order) entries.  Mixed-order arithmetic
    embeds both operands into Q(zeta_lcm); the result order is the lcm.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(value, order: int = 1) -> "CyclotomicNumber":
        q = Fraction(value)
        coeffs = [q] + [Fraction(0)] * (euler_phi(order) - 1)
        return CyclotomicNumber(order, coeffs)

    @staticmethod
    def from_group_ring(e: int, acc) -> "CyclotomicNumber":
        """sum_j acc[j] zeta_e^j for a length-e rational vector, an element of
        the group ring Q[x]/(x^e - 1), reduced modulo Phi_e once."""
        if len(acc) != e:
            raise ValueError(f"need {e} group-ring coefficients, got {len(acc)}")
        return CyclotomicNumber(e, _reduce_mod_phi(acc, e))

    @staticmethod
    def zero(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(1, order)

    # -- order handling ------------------------------------------------------

    def embed(self, order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_d) -> Q(zeta_order), zeta_d |-> zeta_order^(order/d)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            raw[j * step] = c
        return CyclotomicNumber(order, _reduce_mod_phi(raw, order))

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
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value has nonzero non-constant coefficients")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            coeffs = (self.coeffs[0] + other,) + self.coeffs[1:]
            return CyclotomicNumber(self.order, coeffs)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        return CyclotomicNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.coeffs))

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
            if other == 0:
                return CyclotomicNumber.zero(self.order)
            return CyclotomicNumber(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        if a.is_rational():
            return b * a.coeffs[0]
        if b.is_rational():
            return a * b.coeffs[0]
        raw = _convolve(a.coeffs, b.coeffs)
        return CyclotomicNumber(a.order, _reduce_mod_phi(raw, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_rational():
            return CyclotomicNumber.from_rational(1 / self.coeffs[0], self.order)
        # 1/x = (product of the other Galois conjugates) / N(x), N(x) rational;
        # the conjugate zeta -> zeta^a puts coefficient i in bucket a*i
        e = self.order
        others = CyclotomicNumber.one(e)
        for a in range(2, e):
            if math.gcd(a, e) == 1:
                acc = [Fraction(0)] * e
                for i, c in enumerate(self.coeffs):
                    acc[a * i % e] = c
                others = others * CyclotomicNumber.from_group_ring(e, acc)
        return others / (self * others).to_rational()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return CyclotomicNumber(self.order, tuple(c / Fraction(other) for c in self.coeffs))
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
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mixed-order equality makes a consistent hash impractical

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        zeta = cmath.exp(2j * cmath.pi / self.order)
        return sum((complex(c) * zeta ** j for j, c in enumerate(self.coeffs)), 0j)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"CyclotomicNumber({self.coeffs[0]})"
        terms = " + ".join(f"{c}*z^{j}" if j else str(c)
                           for j, c in enumerate(self.coeffs) if c != 0)
        return f"CyclotomicNumber(order={self.order}: {terms})"


def cyclo_root(e: int, j: int) -> CyclotomicNumber:
    """zeta_e^(j mod e), reduced modulo Phi_e."""
    if e < 1:
        raise ValueError("order must be >= 1")
    j %= e
    raw = [Fraction(0)] * j + [Fraction(1)]
    return CyclotomicNumber(e, _reduce_mod_phi(raw, e))


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
            return rational_to_string(value.to_rational())
        return {"order": value.order,
                "coeffs": [rational_to_string(c) for c in value.coeffs]}
    return rational_to_string(Fraction(value))


def scalar_from_json(obj):
    if isinstance(obj, str):
        return rational_from_string(obj)
    if isinstance(obj, dict):
        return CyclotomicNumber(obj["order"], [rational_from_string(c) for c in obj["coeffs"]])
    raise ValueError(f"not a scalar JSON value: {obj!r}")


def as_complex(value) -> complex:
    """Double-precision shadow of an exact scalar."""
    if isinstance(value, CyclotomicNumber):
        return complex(value)
    return complex(Fraction(value))
