"""The identity-verification engine.

A closed registry maps each identity id to its checker, its hypothesis
predicate and its default grid.  The checker's keyword-only parameters are
the one declaration of the point's keys and their types (PARAMETERS), and
the grid builder's parameters the one declaration of its overrides.  Every
point takes one path: verify_identity checks and converts it against the
declaration, asks the registry's predicate for a refusal note, and only a
point that passes reaches the checker.  A checker takes its declared keys
only and returns the report body (lhs, rhs, verdict, residual, notes), from
one of the comparisons _exact_body, _dual_reading and _float_body or built
by hand; verify_identity is the one place that builds a VerificationReport,
from that body or from the refusal note, and no report changes once built.
The public forms verify_euler_maclaurin and laplace_check build a point and
call verify_identity, and sweep calls it on every point in canonical order.

Every checker computes its two sides by different formulas: left sides
come from literal direct summation (dedekind module) or piecewise
integration (bernoulli module), right sides from closed formulas assembled
out of Bernoulli and character-Bernoulli values.  The code paths are not all
independent: the six closed sides that are double character sums (rp1, rp2,
rp3's correction term, lek2, lek3, further-weighted) reach
dirichlet.table_sum over bernoulli._periodic_table, as the direct sums do,
so a fault there can move both sides alike.  Only int-32-oracle's sharing is
tested (the kernels both its sides may reach are listed).

Verdicts:
  exact-equal        both sides are bit-identical canonical scalars
  equal-within-tol   float sides within relative REL_TOL, or within ABS_FLOOR
                     where both are below SMALL_MAGNITUDE (Laplace family only)
  vacuous-zero       the identity's parity argument forces 0 = 0 and both
                     sides were verified to be exactly 0
  hypothesis-not-met stated preconditions fail (never silently skipped)
  mismatch           sides differ

Where a stated identity admits two candidate formulations (or fails in its
common formulation), the checker computes every candidate and the report's
notes say which verified; nothing is guessed silently.  Known dual readings:

  * rp1's second sum: the displayed argument order (b, c) against the swapped
    (c, b) that the combination step actually produces.  The swapped reading
    is the one that verifies; the report carries both verdicts.
  * further-bc1's sign: the displayed (-1)^(l+1) against the (-1)^l that the
    summation-formula derivation gives.  The latter verifies.
  * rp3 carries no second reading, but when the displayed form fails the
    checker also evaluates the cross-modulus correction term implied by rp2
    at (b*k1, c*k2); the notes record whether that term explains the gap
    exactly.  The displayed corollary is only valid where this term vanishes,
    which it does wherever the README's hypothesis G fails.

Each shared shape has one routine.  The Dedekind-sum reciprocities share the
sum side (p+1)(b c^p s(b, c) + c b^p s(c, b)) (_combination) and, in their
closed sides, the binomial convolution of twisted Bernoulli numbers, the
plain B_n being those of the modulus-1 character (_binom_charbernoulli_sum:
memoised integrals._coordinate_rows, each row summed by exactnum._horner).
Their double character sums (_char_double_sum) add through
dirichlet.table_sum, the accumulator of the direct twisted sums: the two
sides of a check share it and bernoulli._periodic_table, and each states its
own sum.  The paper's last result is this link: the same convolution closes
the product-integral reciprocities.  Integrals of products of twisted
periodic Bernoulli functions go through _char_product_integral, which
expands each factor over its unit residues and adds the residues of one
phase class, signed, inside the integrand, so one integer frame walks once
per class tuple and the sum is divided once.
"""

import importlib.util
import inspect
import itertools
import json
import math
import os
import random
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional, get_origin

from .bernoulli import (Polynomial, _periodic_numerator, _periodic_table, _piece_denominator,
                        _product_integral_numerators, bernoulli_number, bernoulli_poly_value,
                        periodic_bernoulli)
from .budget import require
from .charbernoulli import gen_bernoulli_function, gen_bernoulli_number
from .dedekind import (apostol_sum, char_pair_sum, char_weighted_power_sum,
                       classical_dedekind_sum, hat_sum, tilde_sum,
                       tilde_weighted_power_sum)
from .dirichlet import (DirichletCharacter, character_sum, enumerate_characters,
                        phase_classes, table_sum)
from .exactnum import (CyclotomicNumber, _horner, _over_lcm, _reduce_mod_phi, factorize,
                       scalar_to_json, scalars_equal)
from .integrals import (ProductIntegralSpec, _coordinate_rows, _two_factor_lhs,
                        bernoulli_pair_identity_polys, char_two_factor_reciprocity,
                        equal_slope_reciprocity, product_integral_direct, product_integral_formula,
                        reflective_slope_integral, two_factor_reciprocity)


def _lazy_submodule(name: str):
    """The package's submodule `name`, registered in sys.modules and as the
    package's attribute with its body deferred to the first attribute access
    (importlib.util.LazyLoader), so a process that reads none of it never
    executes it or its imports."""
    fullname = f"{__package__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# The Laplace checkers are the only readers of laplace, and it alone imports
# mpmath: it loads at the first Laplace transform.
laplace = _lazy_submodule("laplace")

__all__ = [
    "IDENTITY_IDS",
    "PARAMETERS",
    "VerificationReport",
    "verify_identity",
    "verify_euler_maclaurin",
    "laplace_check",
    "sweep",
    "default_grid",
    "aggregate",
]

EXACT_EQUAL = "exact-equal"
WITHIN_TOL = "equal-within-tol"
MISMATCH = "mismatch"
HYP_NOT_MET = "hypothesis-not-met"
VACUOUS = "vacuous-zero"

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
SMALL_MAGNITUDE = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    id: str
    params: dict
    lhs: object = None
    rhs: object = None
    verdict: str = MISMATCH
    residual: Optional[float] = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            if isinstance(v, float):
                return v
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return scalar_to_json(v)

        return {
            "id": self.id,
            "params": _encode_params(self.params),
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "verdict": self.verdict,
            "residual": self.residual,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _encode_params(params: dict) -> dict:
    out = {}
    for key, value in sorted(params.items()):
        if isinstance(value, DirichletCharacter):
            out[key] = f"{value.modulus}:{value.label}"
        elif isinstance(value, Fraction):
            out[key] = str(value)
        elif isinstance(value, Polynomial):
            out[key] = [str(Fraction(c)) for c in value.coeffs]
        elif isinstance(value, (list, tuple)):
            out[key] = [str(v) for v in value]
        else:
            out[key] = value
    return out


def _canonical_pair(lhs, rhs):
    """Embed both sides into one cyclotomic field so equal values serialize
    into bit-identical canonical scalars."""
    if isinstance(lhs, CyclotomicNumber) or isinstance(rhs, CyclotomicNumber):
        return CyclotomicNumber._coerce(lhs)._aligned(rhs)
    return lhs, rhs


def _exact_body(lhs, rhs, notes: str = "", vacuous: Optional[str] = None) -> tuple:
    """The body of an exact comparison.  vacuous, where the identity's parity
    argument forces 0 = 0, is the note of a verified 0 = 0 (a vacuous-zero
    body) in place of notes; None where it does not."""
    lhs, rhs = _canonical_pair(lhs, rhs)
    if not scalars_equal(lhs, rhs):
        return lhs, rhs, MISMATCH, None, notes
    if vacuous is not None and scalars_equal(lhs, 0):
        return lhs, rhs, VACUOUS, None, vacuous
    return lhs, rhs, EXACT_EQUAL, None, notes


_SUMS_VANISH = "sign condition is -1: both sums and the right side vanish"
_CLOSED_FORM_VANISHES = "sign condition is -1: the sum and its closed form both vanish"


def _dual_reading(rhs, displayed, derived) -> tuple:
    """The body of an identity with two readings, each a (label, lhs) pair.
    The notes give the verdict of both; the derived lhs is reported if it
    verifies."""
    (label_a, lhs_a), (label_b, lhs_b) = displayed, derived
    ok_a = scalars_equal(*_canonical_pair(lhs_a, rhs))
    ok_b = scalars_equal(*_canonical_pair(lhs_b, rhs))
    notes = (f"{label_a}: {EXACT_EQUAL if ok_a else MISMATCH}; "
             f"{label_b}: {EXACT_EQUAL if ok_b else MISMATCH}")
    lhs, rhs = _canonical_pair(lhs_b if ok_b else lhs_a, rhs)
    return lhs, rhs, EXACT_EQUAL if ok_a or ok_b else MISMATCH, None, notes


def _float_body(numeric, closed, *args, describe=lambda mode: f"{mode} comparison") -> tuple:
    """The body of a float identity: lhs = numeric(*args), then
    rhs = closed(*args), within the relative tolerance REL_TOL, or within
    ABS_FLOOR where both sides are below SMALL_MAGNITUDE.  The notes are
    describe(mode) for the comparison mode."""
    lhs = numeric(*args)
    rhs = closed(*args)
    diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    if scale < SMALL_MAGNITUDE:
        ok = diff <= ABS_FLOOR
        residual = diff
        mode = f"absolute (both sides below {SMALL_MAGNITUDE:g})"
    else:
        ok = diff <= max(REL_TOL * scale, ABS_FLOOR)
        residual = diff / scale
        mode = "relative"
    return lhs, rhs, WITHIN_TOL if ok else MISMATCH, residual, describe(mode)


def _sign_condition(p: int, chi1: DirichletCharacter, chi2: DirichletCharacter) -> int:
    return (-1) ** (p + 1) * chi1.parity * chi2.parity


def _vanishing(p: int, chi1: DirichletCharacter, chi2: DirichletCharacter,
               note: str) -> Optional[str]:
    """_exact_body's vacuous note: note where the sign condition is -1."""
    return note if _sign_condition(p, chi1, chi2) == -1 else None


def _nonprincipal_primitive(*chars) -> bool:
    return all(c.is_primitive() and not c.is_principal() for c in chars)


def _combination(p: int, b: int, c: int, s_bc, s_cb):
    """The sum side (p+1)(b c^p s_bc + c b^p s_cb) of a Dedekind-sum reciprocity."""
    return (p + 1) * (b * c ** p * s_bc + c * b ** p * s_cb)


# ---------------------------------------------------------------------------
# The registry: each identity id maps to its checker, its hypothesis predicate
# and its default-grid builder, registered together by @_identity on the checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Identity:
    check: Callable[..., tuple]  # the report body (lhs, rhs, verdict, residual, notes)
    # the refusal note of a converted point outside the stated hypotheses, else None
    refusal: Optional[Callable[[dict], Optional[str]]]
    grid: Callable[..., list[dict]]
    keys: dict           # key -> declared type, in declaration order
    domain: tuple        # (key, bound, holds, reason) clauses, from _domain


_REGISTRY: dict[str, _Identity] = {}


def _identity(rid: str, grid, refusal=None, domain=()):
    """Register the decorated checker under rid: its keyword-only
    parameters, none with a default, are the point's keys.  verify_identity
    calls it as check(**point), with the point's values converted to their
    declared types, for a point inside its domain with refusal(point) None,
    and builds the report from the body it returns."""
    def register(check):
        keys = {p.name: p.annotation for p in inspect.signature(check).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
        _REGISTRY[rid] = _Identity(check, refusal, grid, keys, domain)
        return check
    return register


def _convert(typ, value):
    """value as the declared type typ (None: undeclared): an int from an
    integral Fraction, a Fraction from an int or a "p/q" string, a float from
    an int or a Fraction, a tuple element by element; anything else is a
    ValueError, so nothing is truncated; "p/q" with q = 0, or a value past the
    float range, is an ArithmeticError."""
    if typ is None:
        raise ValueError("undeclared")
    if type(value) is typ:
        return value
    if typ is int and type(value) is Fraction and value.denominator == 1:
        return value.numerator
    if typ is Fraction and type(value) in (int, str):
        return Fraction(value)
    if typ is float and type(value) in (int, Fraction):
        return float(value)
    if get_origin(typ) is tuple and type(value) in (tuple, list):
        return tuple(_convert(typ.__args__[0], v) for v in value)
    raise ValueError(f"{value!r} is not {getattr(typ, '__name__', typ)}")


_BOUNDS = {">= 1": lambda value: value >= 1, ">= 0": lambda value: value >= 0,
           "nonzero": lambda value: value != 0}


def _domain(keys: str, bound: str, reason: str) -> tuple:
    """Domain clauses: each of the space-separated keys must meet bound, one
    of _BOUNDS, because the identity, as reason says, is undefined or
    unstated outside it.  A point outside is a usage error naming the key,
    not a hypothesis-not-met report."""
    return tuple((key, bound, _BOUNDS[bound], reason) for key in keys.split())


# the ids that also evaluate their sums at (c, b)
_SWAPS = _domain("b c", ">= 1", "evaluates its sums at (b, c) and (c, b)")


def _requires(*clauses):
    """Predicate from (note, condition, ...) clauses tried in order: the note
    of the first clause with a failing condition is the refusal."""
    def refusal(point):
        for note, *conditions in clauses:
            if not all(holds(point) for holds in conditions):
                return note
        return None
    return refusal


def _primitive_pair(point) -> bool:
    return _nonprincipal_primitive(point["char1"], point["char2"])


def _primitive_char(point) -> bool:
    return _nonprincipal_primitive(point["char"])


def _one_modulus(point) -> bool:
    return point["char1"].modulus == point["char2"].modulus


def _p_above_one(point) -> bool:
    return point["p"] > 1


def _coprime(point) -> bool:
    return math.gcd(point["b"], point["c"]) == 1


def _sign_minus(point) -> bool:
    return _sign_condition(point["p"], point["char1"], point["char2"]) == -1


_FURTHER = ("requires one modulus and 0 <= l <= p-2", _primitive_pair, _one_modulus,
            lambda point: 0 <= point["l"] <= point["p"] - 2)


# ---------------------------------------------------------------------------
# Grid helpers (the acceptance grids are the defaults)
# ---------------------------------------------------------------------------

def _bc_pairs(limit: int, coprime: bool = True):
    require("GRID_BUDGET", limit * limit, "a grid of {} (b, c) pairs")
    return [(b, c) for b in range(1, limit + 1) for c in range(1, limit + 1)
            if not coprime or math.gcd(b, c) == 1]


def _char_pairs(moduli):
    """(chi1, chi2) over non-principal primitive characters, for each
    (modulus of chi1, modulus of chi2) in turn."""
    return [(c1, c2) for k1, k2 in moduli
            for c1 in enumerate_characters(k1, "nonprincipal_primitive")
            for c2 in enumerate_characters(k2, "nonprincipal_primitive")]


def _char_family_grid(char_pairs, p_values, bc_pairs) -> list[dict]:
    """Points (chi1, chi2) x p x (b, c), nested in that order."""
    require("GRID_BUDGET", len(char_pairs) * len(p_values) * len(bc_pairs), "a grid of {} points")
    return [{"char1": c1, "char2": c2, "p": p, "b": b, "c": c}
            for c1, c2 in char_pairs for p in p_values for b, c in bc_pairs]


# ---------------------------------------------------------------------------
# Closed-form right-hand sides (built from bernoulli / charbernoulli only)
#
# These work on integers over one known denominator (Knuth, TAOCP vol. 2,
# 4.5.1), as the direct sums do, and so does the CyclotomicNumber they build.
# The binomial convolution of twisted Bernoulli numbers, the closed side of
# all six Dedekind-sum reciprocities (of the plain ones at _MODULUS_ONE), is
# memoised per (p, chi_left, chi_right) as integer rows over one denominator:
# each (b, c) costs one homogeneous Horner sum per coordinate, no Fraction.
# The double character sums divide by the piece denominator once, and the rp1
# and rp2 scalars are ints.  No caller's table exceeds its direct side's.
# ---------------------------------------------------------------------------

_MODULUS_ONE = enumerate_characters(1)[0]  # primitive; B_{n,chi} = B_n, B_1 = -1/2


@lru_cache(maxsize=None)
def _binom_charbernoulli_rows(p: int, chi_left: DirichletCharacter,
                              chi_right: DirichletCharacter):
    """integrals._coordinate_rows of the closed side's terms at N = p + 1,
    (C(N, a), B_{N-a,chi_right}, B_{a,chi_left}) for a = 0..N."""
    n = p + 1
    return _coordinate_rows([(math.comb(n, a), gen_bernoulli_number(chi_right, n - a),
                              gen_bernoulli_number(chi_left, a)) for a in range(n + 1)])


def _binom_charbernoulli_sum(p: int, b: int, c: int, chi_left: DirichletCharacter,
                             chi_right: DirichletCharacter) -> CyclotomicNumber:
    """sum_{a=0}^{p+1} C(p+1, a) b^a c^(p+1-a) B_{p+1-a,chi_right} B_{a,chi_left}
    for integers b, c: the homogeneous Horner sum in b and c of each memoised
    row is one coordinate over the memoised denominator.  Equal in value and
    order to integrals.binomial_convolution on the same numbers."""
    e, den, rows = _binom_charbernoulli_rows(p, chi_left, chi_right)
    return CyclotomicNumber._from_ints(e, [_horner(b, c, row) for row in rows], den)


def _char_double_sum(deg: int, chi1: DirichletCharacter, chi2: DirichletCharacter,
                     bh: int, cj: int, N: int) -> CyclotomicNumber:
    """sum_h sum_j chi1(h) conj(chi2)(j) periodic_B_deg((bh h + cj j)/N) for
    integers bh, cj and N >= 1, h and j literally over one period of the
    units of chi1 and chi2, which every caller gives primitive and
    non-principal (their units in 1..k are those in range(k)):
    dirichlet.table_sum over the rows h in range(k1) at alpha = bh and the
    columns cj j mod N, the units j read in pairs j, k2 - j, on
    _periodic_table(deg, N), over its piece denominator once, with no
    Fraction built."""
    e, nums = table_sum(_periodic_table(deg, N), chi1, range(chi1.modulus), bh, chi2,
                        [cj * j % N for j in range(chi2.modulus)])
    return CyclotomicNumber._from_ints(e, nums, _piece_denominator(deg, N))


def _char_product_integral(poly, factors, alpha: Fraction, beta: Fraction):
    """integral_alpha^beta poly(x) prod periodic_B_{deg,psi}(slope x) dx over
    the (deg, psi, slope) factors, expanded through the defining sums
    periodic_B_{deg,psi}(x) = k^(deg-1) sum_r conj(psi)(r) periodic_B_deg((x + r)/k)
    over the unit residues r of psi mod k.  With slope = a/d, the term at r
    is periodic_B_deg((a x + r d)/(k d)), given to
    bernoulli._product_integral_numerators as integers.  The integral is
    linear in each factor, and conj(psi)(r) = +-zeta_e^s, e the lcm of the
    orders, so the residues of one phase class s (dirichlet.phase_classes)
    enter as one signed term sum: every unit residue's piece is in the
    integrand, and the frame walks once per class tuple, not once per
    residue tuple.  The integer numerators add by sum s_i mod e into one
    group-ring vector, reduced once and divided once.  The residues run over
    range(k), as in charbernoulli, so the modulus-1 character has the one
    residue 0 and gives the periodic B_deg."""
    e = math.lcm(*(psi.order for _, psi, _ in factors))
    families = []
    for deg, psi, slope in factors:
        k, slope = psi.modulus, Fraction(slope)
        d = slope.denominator
        families.append((deg, slope.numerator, k * d,
                         {s: tuple((r * d, sign) for r, sign in terms)
                          for s, terms in phase_classes(psi.conjugate(), e).items()}))
    # the frame refuses a degree over BERNOULLI_BUDGET before k^(deg-1) is formed
    den, numerator = _product_integral_numerators(poly, families, alpha, beta)
    scale = math.prod(psi.modulus ** (deg - 1) for deg, psi, _ in factors)
    acc = [0] * e
    for keys in itertools.product(*(classes for _, _, _, classes in families)):
        acc[sum(keys) % e] += numerator(*keys)
    return CyclotomicNumber._from_ints(e, [x * scale for x in _reduce_mod_phi(acc, e)], den)


# ---------------------------------------------------------------------------
# Checkers, each with its registry entry
# ---------------------------------------------------------------------------

def _gcd_refusal(point) -> Optional[str]:
    g = math.gcd(point["b"], point["c"])
    return f"gcd(b, c) = {g} != 1" if g != 1 else None


@_identity("classical-dr",
           grid=lambda bc_max=30: [{"b": b, "c": c} for b, c in _bc_pairs(bc_max)],
           refusal=_gcd_refusal, domain=_SWAPS)
def _check_classical_dr(*, b: int, c: int) -> tuple:
    lhs = classical_dedekind_sum(b, c) + classical_dedekind_sum(c, b)
    rhs = Fraction(-1, 4) + Fraction(1, 12) * (Fraction(b, c) + Fraction(c, b)
                                               + Fraction(1, b * c))
    return _exact_body(lhs, rhs)


@_identity("apostol-dr1",
           grid=lambda p_values=(1, 3, 5, 7), bc_max=12: [
               {"p": p, "b": b, "c": c} for p in p_values for b, c in _bc_pairs(bc_max)],
           refusal=_requires(("requires odd p and gcd(b, c) = 1",
                              lambda point: point["p"] % 2 == 1, _coprime)),
           domain=_SWAPS)
def _check_apostol_dr1(*, p: int, b: int, c: int) -> tuple:
    lhs = _combination(p, b, c, apostol_sum(p, b, c), apostol_sum(p, c, b))
    rhs = _binom_charbernoulli_sum(p, -b, c, _MODULUS_ONE, _MODULUS_ONE) \
        + p * bernoulli_number(p + 1)
    return _exact_body(lhs, rhs)


def _grid_berndt_dkr(ks=(3, 4, 5), bc_max=10):
    return [{"char": chi, "b": b, "c": c}
            for k in ks for chi in enumerate_characters(k, "nonprincipal_primitive")
            for c in range(k, bc_max + 1, k) for b in range(1, bc_max + 1) if math.gcd(b, c) == 1]


def _k_divides_b_or_c(point) -> bool:
    k = point["char"].modulus
    return point["b"] % k == 0 or point["c"] % k == 0


@_identity("berndt-dkr", grid=_grid_berndt_dkr,
           refusal=_requires(("requires a non-principal primitive character", _primitive_char),
                             ("requires gcd(b, c) = 1 and k | b or k | c", _coprime,
                              _k_divides_b_or_c)),
           domain=_SWAPS)
def _check_berndt_dkr(*, char: DirichletCharacter, b: int, c: int) -> tuple:
    chib = char.conjugate()
    lhs = char_pair_sum(1, c, b, char, char) + char_pair_sum(1, b, c, chib, chib)
    rhs = gen_bernoulli_number(char, 1) * gen_bernoulli_number(chib, 1)
    return _exact_body(lhs, rhs)


def _k_prime_or_shares_bc(point) -> bool:
    k = point["char"].modulus
    return math.gcd(k, point["b"] * point["c"]) > 1 or factorize(k) == [(k, 1)]


@_identity("cck-rp",
           grid=lambda ks=(3, 5, 7), p_values=(1, 3, 5), bc_max=8: [
               {"char": chi, "p": p, "b": b, "c": c}
               for k in ks
               for chi in enumerate_characters(k, "nonprincipal_primitive")
               for p in p_values
               for b, c in _bc_pairs(bc_max)],
           refusal=_requires(("requires odd p, gcd(b,c)=1, non-principal primitive chi, "
                              "and k prime when gcd(k, bc) = 1",
                              lambda point: point["p"] % 2 == 1, _coprime, _primitive_char,
                              _k_prime_or_shares_bc)),
           domain=_SWAPS)
def _check_cck_rp(*, char: DirichletCharacter, p: int, b: int, c: int) -> tuple:
    k = char.modulus
    chib = char.conjugate()
    lhs = _combination(p, b, c, char_pair_sum(p, b, c, char, char),
                       char_pair_sum(p, c, b, chib, chib))
    rhs = _binom_charbernoulli_sum(p, b, c, chib, char)
    rhs = rhs + Fraction(p, k) * char(c) * chib(-b) * (k ** (p + 1) - 1) * bernoulli_number(p + 1)
    return _exact_body(lhs, rhs)


def _grid_same_modulus(ks=(3, 4, 5, 7), p_values=range(2, 7), bc_max=8, *, coprime):
    return _char_family_grid(_char_pairs((k, k) for k in ks), p_values,
                             _bc_pairs(bc_max, coprime))


@_identity("rp1", grid=partial(_grid_same_modulus, coprime=False),
           refusal=_requires(("requires p > 1 and non-principal primitive characters "
                              "of one modulus", _primitive_pair, _one_modulus, _p_above_one)),
           domain=_SWAPS)
def _check_rp1(*, char1: DirichletCharacter, char2: DirichletCharacter,
               p: int, b: int, c: int) -> tuple:
    k = char1.modulus
    q = math.gcd(b, c)
    c1b, c2b = char1.conjugate(), char2.conjugate()
    s_bc = char_pair_sum(p, b, c, char1, char2)
    s_swap = char_pair_sum(p, c, b, c2b, c1b)
    dbl = _char_double_sum(p + 1, char1, char2, b, c, q * k)
    rhs = _binom_charbernoulli_sum(p, b, c, c1b, char2) \
        + p * q ** (p + 1) * k ** (p - 1) * dbl
    if _sign_condition(p, char1, char2) == -1:
        # reflection forces every piece to vanish; verify rather than assume
        return _exact_body(_combination(p, b, c, s_bc, s_swap), rhs,
                           vacuous=_SUMS_VANISH if s_bc.is_zero() and s_swap.is_zero() else "")
    return _dual_reading(
        rhs,
        ("second-sum reading (b,c) as displayed",
         _combination(p, b, c, s_bc, char_pair_sum(p, b, c, c2b, c1b))),
        ("swapped reading (c,b) from the combination step", _combination(p, b, c, s_bc, s_swap)))


def _grid_cross_modulus(k_pairs=((3, 4), (3, 5), (4, 5)), p_values=range(2, 6), bc_max=6):
    return _char_family_grid(_char_pairs(k_pairs), p_values, _bc_pairs(bc_max, coprime=False))


@_identity("rp2", grid=_grid_cross_modulus,
           refusal=_requires(("requires p > 1 and non-principal primitive characters",
                              _primitive_pair, _p_above_one)),
           domain=_SWAPS)
def _check_rp2(*, char1: DirichletCharacter, char2: DirichletCharacter,
               p: int, b: int, c: int) -> tuple:
    k1, k2 = char1.modulus, char2.modulus
    q = math.gcd(b, c)
    c1b, c2b = char1.conjugate(), char2.conjugate()
    lhs = _combination(p, b * k2, c * k1, tilde_sum(p, b, c, char1, char2),
                       tilde_sum(p, c, b, c2b, c1b))
    rhs = _binom_charbernoulli_sum(p, b * k2, c * k1, c1b, char2)
    dbl = _char_double_sum(p + 1, char1, char2, b * k2, c * k1, q * k1 * k2)
    rhs = rhs + p * q ** (p + 1) * (k1 * k2) ** p * dbl
    return _exact_body(lhs, rhs, vacuous=_vanishing(p, char1, char2, _SUMS_VANISH))


@_identity("rp3", grid=_grid_cross_modulus,
           refusal=_requires(("requires p > 1, distinct moduli, non-principal primitive "
                              "characters", _primitive_pair, _p_above_one,
                              lambda point: not _one_modulus(point))),
           domain=_SWAPS)
def _check_rp3(*, char1: DirichletCharacter, char2: DirichletCharacter,
               p: int, b: int, c: int) -> tuple:
    k1, k2 = char1.modulus, char2.modulus
    c1b, c2b = char1.conjugate(), char2.conjugate()
    lhs = _combination(p, b, c, hat_sum(p, b, c, c1b, char2), hat_sum(p, c, b, c2b, char1))
    rhs = _binom_charbernoulli_sum(p, b, c, char1, char2)
    lhs, rhs, verdict, _, notes = _exact_body(lhs, rhs,
                                              vacuous=_vanishing(p, char1, char2, _SUMS_VANISH))
    if verdict == MISMATCH:
        # cross-modulus correction implied by the general reciprocity at (b*k1, c*k2)
        qq = math.gcd(b * k1, c * k2)
        corr_sum = _char_double_sum(p + 1, c1b, char2, b, c, qq)
        corr = p * Fraction(qq) ** (p + 1) * corr_sum / (k1 * k2)
        explains = scalars_equal(*_canonical_pair(lhs, rhs + corr))
        notes = ("displayed form fails; the cross-modulus correction term "
                 f"{'explains the gap exactly' if explains else 'does NOT explain the gap'}"
                 " (statement implicitly needs the correction sum to vanish)")
    return lhs, rhs, verdict, None, notes


@_identity("lek2", grid=partial(_grid_same_modulus, coprime=True),
           refusal=_requires(("requires non-principal primitive characters of one modulus",
                              _primitive_pair, _one_modulus)))
def _check_lek2(*, char1: DirichletCharacter, char2: DirichletCharacter,
                p: int, b: int, c: int) -> tuple:
    k = char1.modulus
    q = math.gcd(b, c)
    direct = char_weighted_power_sum(p, b, c, char1, char2)
    if q > 1:
        # scaling display: the (qb', qc') sum is q times the reduced sum
        reduced = char_weighted_power_sum(p, b // q, c // q, char1, char2)
        return _exact_body(direct, q * reduced,
                           notes=f"scaling display: sum at ({b},{c}) against "
                                 f"{q} * sum at ({b // q},{c // q})")
    closed = Fraction(k, c) ** p * _char_double_sum(p + 1, char1, char2, b, c, k)
    return _exact_body(direct, closed, vacuous=_vanishing(p, char1, char2, _CLOSED_FORM_VANISHES))


@_identity("lek3",
           grid=lambda k_pairs=((3, 4), (3, 5), (4, 5)), p_values=range(2, 6), bc_max=6:
               _char_family_grid(_char_pairs(k_pairs), p_values, _bc_pairs(bc_max)),
           refusal=_requires(("requires non-principal primitive characters", _primitive_pair),
                             ("closed form requires gcd(b, c) = 1", _coprime)))
def _check_lek3(*, char1: DirichletCharacter, char2: DirichletCharacter,
                p: int, b: int, c: int) -> tuple:
    k1, k2 = char1.modulus, char2.modulus
    direct = tilde_weighted_power_sum(p, b, c, char1, char2)
    closed = Fraction(k2, c) ** p * _char_double_sum(
        p + 1, char1, char2, b * k2, c * k1, k1 * k2)
    return _exact_body(direct, closed, vacuous=_vanishing(p, char1, char2, _CLOSED_FORM_VANISHES))


def _grid_raabe(rng, p_values=range(1, 7)):
    return [{"p": p, "c": c, "x": Fraction(rng.randint(-20, 20), rng.randint(1, 9))}
            for c in range(1, 11) for p in p_values for _ in range(3)]


@_identity("raabe", grid=_grid_raabe,
           domain=_domain("p", ">= 0", "sums periodic_B_{p+1}")
           + _domain("c", ">= 1", "sums over m < c"))
def _check_raabe(*, p: int, c: int, x: Fraction) -> tuple:
    """The multiplication formula for periodic_B_{p+1}, summed literally over
    m in range(c) on integers: with x = u/v and q = c v, the term at m is
    periodic_B_{p+1}((m v + u)/q), an integer numerator over the one piece
    denominator of q.  A sum over SUM_BUDGET terms, or a (p + 1) c over
    TABLE_BUDGET (each numerator has about (p + 1) log q digits, as an entry
    of a _periodic_table has), is refused before any term is built."""
    require("SUM_BUDGET", c, "a direct sum of {} terms")
    require("TABLE_BUDGET", (p + 1) * c, f"a sum of {c} terms of degree {p + 1}")
    u, v = x.numerator, x.denominator
    q = c * v
    lhs = Fraction(sum(_periodic_numerator(p + 1, (m * v + u) % q, q) for m in range(c)),
                   _piece_denominator(p + 1, q))
    rhs = Fraction(1, c ** p) * periodic_bernoulli(p + 1, x)
    return _exact_body(lhs, rhs)


def _grid_em_theorem(rng, ks=(3, 4, 5, 6, 7), l_values=range(5)):
    out = []
    for k in ks:
        for chi in enumerate_characters(k):
            if chi.is_principal():
                continue
            # monomial basis is exhaustive for all f of degree <= 5 (linearity)
            fs = [Polynomial([0] * d + [1]) for d in range(6)]
            fs.append(Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(6)]))
            for f in fs:
                for l in l_values:
                    for (a, b) in ((0, k), (0, 2 * k), (1, 3 * k)):
                        out.append({"char": chi, "f": f, "alpha": Fraction(a),
                                    "beta": Fraction(b), "l": l})
    return out


@_identity("em-theorem", grid=_grid_em_theorem,
           refusal=_requires(("requires a non-principal character",
                              lambda point: not point["char"].is_principal()),
                             ("requires alpha < beta",
                              lambda point: point["alpha"] < point["beta"]),
                             ("requires l >= 0", lambda point: point["l"] >= 0)))
def _check_em_theorem(*, char: DirichletCharacter, f: Polynomial, alpha: Fraction, beta: Fraction,
                      l: int) -> tuple:
    """The character summation formula: the endpoint-halved sum of chi(n) f(n)
    over integers alpha <= n <= beta, for f with rational coefficients,
    against boundary terms plus the exact piecewise integral of the twisted
    periodic function times f^(l+1).  An l + 1 over BERNOULLI_BUDGET, or a
    sum over SUM_BUDGET terms, is refused before any value is built, and a
    frame over CUT_BUDGET before the literal sum, since the closed side is
    built first."""
    require("BERNOULLI_BUDGET", l + 1, "Bernoulli index {}")
    require("SUM_BUDGET", math.floor(beta) - math.ceil(alpha) + 1, "a direct sum of {} terms")
    nums, d = _over_lcm(f.coeffs)  # f = P/d; P and its derivatives are integer rows
    chib = char.conjugate()
    rhs = CyclotomicNumber.zero(1)
    row = nums
    for j in range(min(l + 1, len(row))):
        # P^(j)(x)/d at each end x = u/v: homogeneous Horner gives v^deg P^(j)(x)
        lo, hi = (Fraction(_horner(x.numerator, x.denominator, row),
                           d * x.denominator ** (len(row) - 1)) for x in (alpha, beta))
        rhs = rhs + Fraction((-1) ** (j + 1), math.factorial(j + 1)) * (
            gen_bernoulli_function(chib, j + 1, beta) * hi
            - gen_bernoulli_function(chib, j + 1, alpha) * lo)
        row = [i * c for i, c in enumerate(row)][1:]
    deriv = Polynomial([Fraction(c, d) for c in row])
    integral = _char_product_integral(deriv, [(l + 1, chib, Fraction(1))], alpha, beta)
    rhs = rhs + Fraction((-1) ** l, math.factorial(l + 1)) * integral
    rhs = char.parity * rhs

    lhs = character_sum(char, range(math.ceil(alpha), math.floor(beta) + 1),
                        lambda n: _horner(n, 1, nums) * (1 if n in (alpha, beta) else 2))
    return _exact_body(lhs / (2 * d), rhs)


def verify_euler_maclaurin(chi: DirichletCharacter, f: Polynomial,
                           alpha: Fraction, beta: Fraction, l: int) -> tuple:
    """The em-theorem report at one point, hypotheses included."""
    return verify_identity("em-theorem", {"char": chi, "f": f, "alpha": alpha, "beta": beta,
                                          "l": l})


def _grid_further(ks=(3, 4, 5), p_values=range(2, 6)):
    """Points (chi1, chi2) x p x l in 0..p-2, nested in that order, one modulus."""
    return [{"char1": c1, "char2": c2, "p": p, "l": l}
            for c1, c2 in _char_pairs((k, k) for k in ks) for p in p_values for l in range(p - 1)]


def _grid_further_bc(coprime: bool):
    """The further-* grid times the (b, c) pairs, parity-product sign -1 only."""
    return lambda ks=(3, 4, 5), p_values=range(2, 6), bc_max=4: [
        dict(head, b=b, c=c) for head in _grid_further(ks, p_values) if _sign_minus(head)
        for b, c in _bc_pairs(bc_max, coprime)]


@_identity("further-c1k", grid=_grid_further, refusal=_requires(_FURTHER))
def _check_further_c1k(*, char1: DirichletCharacter, char2: DirichletCharacter,
                       p: int, l: int) -> tuple:
    k = char1.modulus
    val = _char_product_integral(1, [(l + 1, char1.conjugate(), Fraction(1)),
                                     (p - l, char2, Fraction(k))], Fraction(0), Fraction(k))
    return _exact_body(val, CyclotomicNumber.zero(1),
                       notes="integral vanishes for either sign of the parity product")


@_identity("further-bc1", grid=_grid_further, refusal=_requires(_FURTHER))
def _check_further_bc1(*, char1: DirichletCharacter, char2: DirichletCharacter,
                       p: int, l: int) -> tuple:
    integral = _char_product_integral(1, [(l + 1, char1.conjugate(), Fraction(1)),
                                          (p - l, char2, Fraction(1))],
                                      Fraction(0), Fraction(char1.modulus))
    rhs = char_weighted_power_sum(p, 1, 1, char1, char2)
    coeff = char1.parity * math.comb(p + 1, l + 1)
    return _dual_reading(
        rhs,
        ("sign reading (-1)^(l+1) as displayed", coeff * Fraction(-1) ** (l + 1) * integral),
        ("derived sign (-1)^l", coeff * Fraction(-1) ** l * integral))


_NONZERO_BC = _domain("b c", "nonzero", "is stated for nonzero slopes b, c")


@_identity("further-eq20", grid=_grid_further_bc(coprime=False), domain=_NONZERO_BC,
           refusal=_requires(_FURTHER, ("vanishing holds under parity-product sign -1",
                                        _sign_minus)))
def _check_further_eq20(*, char1: DirichletCharacter, char2: DirichletCharacter, p: int, l: int,
                        b: int, c: int) -> tuple:
    k = char1.modulus
    val = _char_product_integral(1, [(l + 1, char1.conjugate(), Fraction(c)),
                                     (p - l, char2, Fraction(b))], Fraction(0), Fraction(k))
    return _exact_body(val, CyclotomicNumber.zero(1))


@_identity("further-weighted", grid=_grid_further_bc(coprime=True), domain=_NONZERO_BC,
           refusal=_requires(_FURTHER, ("requires parity-product sign -1 and gcd(b,c)=1",
                                        _sign_minus, _coprime)))
def _check_further_weighted(*, char1: DirichletCharacter, char2: DirichletCharacter, p: int,
                            l: int, b: int, c: int) -> tuple:
    k = char1.modulus
    integral = _char_product_integral(Polynomial([0, 1]),
                                      [(l + 1, char1.conjugate(), Fraction(c)),
                                       (p - l - 1, char2, Fraction(b))], Fraction(0), Fraction(k))
    lhs = math.comb(p, l + 1) * Fraction(-b, c) ** l * b * integral
    rhs = char1.parity * Fraction(k, 2) * Fraction(k, c) ** (p - 1) * _char_double_sum(
        p, char1, char2, b, c, k)
    return _exact_body(lhs, rhs)


def _grid_int_32_oracle(rng, count=200):
    require("GRID_BUDGET", count + 2, "a grid of {} points")
    out = [
        {"degrees": (3, 4, 16), "slopes": ("-1", "3", "5"),
         "offsets": ("1", "-1", "-2"), "x": "1"},
        {"degrees": (3, 4, 15), "slopes": ("-1", "3", "-3"),
         "offsets": ("1", "-1", "2"), "x": "1"},
    ]
    for _ in range(count):
        r = rng.randint(1, 4)
        while True:
            degrees = tuple(rng.randint(0, 6) for _ in range(r))
            if sum(degrees) <= 20:
                break
        def rand_frac(nonzero=False):
            while True:
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if not nonzero or v != 0:
                    return v
        out.append({"degrees": degrees,
                    "slopes": tuple(str(rand_frac(True)) for _ in range(r)),
                    "offsets": tuple(str(rand_frac()) for _ in range(r)),
                    "x": str(rand_frac())})
    return out


@_identity("int-32-oracle", grid=_grid_int_32_oracle)
def _check_int_32_oracle(*, degrees: tuple[int, ...], slopes: tuple[Fraction, ...],
                         offsets: tuple[Fraction, ...], x: Fraction) -> tuple:
    spec = ProductIntegralSpec(degrees, slopes, offsets, x)
    lhs = product_integral_formula(spec)
    rhs = product_integral_direct(spec)
    return _exact_body(lhs, rhs, notes="closed multinomial formula against brute-force expansion")


def _two_factor_points(first: int) -> list[dict]:
    """int-24's points, with n and m from `first` to 5."""
    tuples = [("1/2", "3", "1/3", "-2", "1/5"), ("2", "-1/2", "0", "1/4", "1"),
              ("-2/3", "5", "1", "2/7", "-1/2")]
    return [{"n": n, "m": m, "b1": Fraction(b1), "b2": Fraction(b2),
             "y1": Fraction(y1), "y2": Fraction(y2), "x": Fraction(x)}
            for n in range(first, 6) for m in range(first, 6)
            for b1, b2, y1, y2, x in tuples]


_DEGREES = _domain("n m", ">= 0", "is stated for degrees n, m >= 0")
_NONZERO_SLOPES = _domain("b1 b2", "nonzero", "is stated for nonzero slopes b1, b2")


@_identity("int-24", grid=lambda: _two_factor_points(0), domain=_DEGREES + _NONZERO_SLOPES)
def _check_int_24(*, n: int, m: int, b1: Fraction, b2: Fraction, y1: Fraction, y2: Fraction,
                  x: Fraction) -> tuple:
    return _exact_body(*two_factor_reciprocity(n, m, b1, b2, y1, y2, x))


@_identity("int-28",
           grid=lambda: [
               {"n": n, "m": m, "y1": Fraction(y1), "y2": Fraction(y2), "x": Fraction(x)}
               for n in range(6) for m in range(6)
               for y1, y2, x in (("1/2", "0", "1/3"), ("2/5", "-1/5", "0"), ("1", "1", "7/3"))],
           domain=_DEGREES)
def _check_int_28(*, n: int, m: int, y1: Fraction, y2: Fraction, x: Fraction) -> tuple:
    return _exact_body(*equal_slope_reciprocity(n, m, y1, y2, x))


def _grid_int_17(rng, count=40):
    require("GRID_BUDGET", count + 2, "a grid of {} points")
    out = []
    offset_pool = ["0", "1", "-1", "1/3", "-2", "2/5", "3"]
    for _ in range(count):
        r = rng.randint(1, 4)
        degrees = tuple(rng.randint(0, 5) for _ in range(r))
        offsets = tuple(rng.choice(offset_pool) for _ in range(r))
        q = rng.choice(["1", "2", "1/2", "-1", "3"])
        out.append({"degrees": degrees, "offsets": offsets, "q": q})
    out.append({"degrees": (3, 4, 16), "offsets": ("1", "-1", "-2"), "q": "1"})
    out.append({"degrees": (3, 4, 15), "offsets": ("1", "-1", "2"), "q": "1"})
    return out


@_identity("int-17", grid=_grid_int_17)
def _check_int_17(*, degrees: tuple[int, ...], offsets: tuple[Fraction, ...],
                  q: Fraction) -> tuple:
    closed = reflective_slope_integral(degrees, offsets, q)
    spec = ProductIntegralSpec(degrees, tuple((1 - 2 * y) / q for y in offsets),
                               offsets, q)
    direct = product_integral_direct(spec)
    even = (sum(degrees) + 1) % 2 == 0
    return _exact_body(closed, direct,
                       notes="even case: closed value is identically 0" if even else
                             "odd case: closed double sum against direct integral")


@_identity("int-23", grid=lambda: [{"p": p} for p in range(1, 9)])
def _check_int_23(*, p: int) -> tuple:
    require("INT_23_DEGREE_BUDGET", p, "int-23's degree p = {}")
    # polynomial identity in two variables: full polynomial in x at p+2 sample y
    for i in range(p + 2):
        y = Fraction(i, 3) - 1
        lhs, rhs = bernoulli_pair_identity_polys(p, y)
        if lhs != rhs:
            return (lhs.eval(Fraction(0)), rhs.eval(Fraction(0)), MISMATCH, None,
                    f"polynomial-in-x mismatch at y = {y}")
    val = bernoulli_pair_identity_polys(p, Fraction(1, 7))[0].eval(Fraction(2, 5))
    return (val, val, EXACT_EQUAL, None, f"two-variable identity checked as polynomials in x "
            f"at {p + 2} distinct y values (degree-exhaustive)")


def _grid_int_36(ks=(3, 4)):
    chars = _char_pairs((k1, k2) for k1 in ks for k2 in ks)
    return [dict(base, char1=c1, char2=c2) for base in _two_factor_points(1)
            for c1, c2 in chars]


@_identity("int-36", grid=_grid_int_36,
           refusal=_requires(("requires non-principal primitive characters", _primitive_pair)),
           domain=_domain("n m", ">= 1", "is stated for degrees n, m >= 1") + _NONZERO_SLOPES)
def _check_int_36(*, n: int, m: int, b1: Fraction, b2: Fraction, y1: Fraction, y2: Fraction,
                  x: Fraction, char1: DirichletCharacter, char2: DirichletCharacter) -> tuple:
    return _exact_body(*char_two_factor_reciprocity(n, m, b1, b2, y1, y2, x, char1, char2))


def _odd_m_plus_n(point) -> bool:
    p = point["m"] + point["n"]
    return p % 2 == 1 and p >= 1


@_identity("remark-apostol",
           grid=lambda: [
               {"m": m, "n": n, "b1": b1, "b2": b2, "x": x}
               for m in range(6) for n in range(6) if (m + n) % 2 == 1
               for b1, b2 in ((1, 1), (2, 3), (3, 2), (2, 4), (6, 4), (5, 5), (7, 8))
               for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 5))],
           refusal=_requires(("requires odd p = m + n", _odd_m_plus_n)),
           domain=_domain("m n", ">= 0", "is stated for degrees m, n >= 0")
           + _domain("b1 b2", ">= 1", "evaluates its sums at (b1, b2) and (b2, b1)"))
def _check_remark_apostol(*, m: int, n: int, b1: int, b2: int, x: Fraction) -> tuple:
    p = m + n
    q = math.gcd(b1, b2)
    lhs = _combination(p, b1, b2, apostol_sum(p, b1, b2), apostol_sum(p, b2, b1))
    # the middle form is (-1)^n b1^(m+1) b2^(n+1) times the two-factor left
    # side at y1 = y2 = 0 (its mirrored half has the sign (-1)^(m-a) because
    # m + n is odd), plus the tail
    f1, f2 = Fraction(b1), Fraction(b2)
    tail = Fraction(q) ** (p + 1) * p * bernoulli_number(p + 1)
    mid = (-1) ** n * f1 ** (m + 1) * f2 ** (n + 1) * _two_factor_lhs(
        n, m, f1, f2, lambda j: bernoulli_poly_value(j, b1 * x),
        lambda j: bernoulli_poly_value(j, b2 * x)) + tail
    closed = _binom_charbernoulli_sum(p, -b1, b2, _MODULUS_ONE, _MODULUS_ONE) + tail
    if lhs == mid == closed:
        return (lhs, closed, EXACT_EQUAL, None,
                "sum side, x-dependent middle form, and closed form all agree")
    return lhs, closed, MISMATCH, None, f"middle form value {mid}"


_LAPLACE_N = ("requires n >= 1", lambda point: point["n"] >= 1)


@_identity("laplace-16",
           grid=lambda: [{"n": n, "t": Fraction(t), "y": Fraction(y), "s": s}
                         for n in (1, 2, 3, 4)
                         for t in ("1", "2", "3")
                         for y in ("0", "1/3", "5/2")
                         for s in (0.5, 1.0, 2.0)],
           refusal=_requires(_LAPLACE_N))
def _check_laplace_16(*, n: int, t: Fraction, y: Fraction, s: float) -> tuple:
    return _float_body(laplace.periodic_laplace_numeric, laplace.periodic_laplace_closed,
                       n, t, y, s)


@_identity("laplace-product",
           grid=lambda: [{"m": m, "n": n, "s": s} for (m, n, s) in (
               (0, 1, 1.0), (1, 1, 0.8), (1, 2, 1.0), (2, 2, 1.5), (3, 1, 1.0),
               (2, 3, 0.6), (4, 2, 2.0), (3, 3, 1.0), (4, 4, 0.75), (5, 3, 1.25))],
           refusal=_requires(_LAPLACE_N, ("requires m >= 0", lambda point: point["m"] >= 0)))
def _check_laplace_product(*, m: int, n: int, s: float) -> tuple:
    return _float_body(laplace.product_laplace_numeric, laplace.product_laplace_closed, m, n, s)


def _grid_laplace_char():
    pts = [(3, 1, "1", 1.0), (3, 2, "1", 0.6), (3, 1, "2", 2.0),
           (4, 1, "1", 1.0), (4, 2, "2", 0.8), (4, 3, "1", 1.5),
           (5, 1, "1", 1.0), (5, 2, "1", 1.2), (5, 1, "3", 0.9),
           (5, 3, "2", 1.0)]
    return [{"char": enumerate_characters(k, "nonprincipal_primitive")[0], "n": n,
             "t": Fraction(t), "s": s} for k, n, t, s in pts]


@_identity("laplace-char", grid=_grid_laplace_char,
           refusal=_requires(("requires a non-principal primitive character",
                              _primitive_char),
                             _LAPLACE_N))
def _check_laplace_char(*, char: DirichletCharacter, n: int, t: Fraction, s: float) -> tuple:
    return _float_body(laplace.char_laplace_numeric, laplace.char_laplace_closed, char, n, t, s,
                       describe=lambda mode: f"{mode.split()[0]} comparison of complex "
                                             "magnitudes")


def laplace_check(n: int, t, y, s: float) -> tuple:
    """Operation form of the basic Laplace identity check."""
    return verify_identity("laplace-16", {"n": n, "t": Fraction(t), "y": Fraction(y),
                                          "s": float(s)})


IDENTITY_IDS = tuple(_REGISTRY)

# identity id -> {key: declared type} of its points, in declaration order
PARAMETERS = {rid: entry.keys for rid, entry in _REGISTRY.items()}


def verify_identity(identity_id: str, params: dict) -> tuple:
    """Run one registered checker; unknown ids are an error (closed registry).
    The point is converted to its declared key types in one pass: an
    undeclared key or a value not of its key's type raises ValueError, a
    missing key KeyError, and a value outside the identity's domain (b < 1
    where it evaluates its sums at (c, b) too, a zero slope, a negative
    degree) a ValueError naming the key.  A point outside the identity's
    stated hypotheses is reported as hypothesis-not-met, with the reason in
    its notes.  The report carries params as given."""
    try:
        entry = _REGISTRY[identity_id]
    except KeyError:
        raise KeyError(f"unknown identity id {identity_id!r}; known: {sorted(_REGISTRY)}")
    keys, point = entry.keys, {}
    for key, value in params.items():
        typ = keys.get(key)
        try:
            point[key] = value if type(value) is typ else _convert(typ, value)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"parameter {key!r}: {exc}; {identity_id} takes "
                             f"{', '.join(keys)}") from None
    for key in entry.keys:
        if key not in point:
            raise KeyError(f"missing parameter {key!r} for {identity_id}")
    for key, bound, holds, reason in entry.domain:
        if not holds(point[key]):
            raise ValueError(f"parameter {key!r} must be {bound}, got {point[key]}; "
                             f"{identity_id} {reason}")
    note = entry.refusal(point) if entry.refusal else None
    lhs, rhs, verdict, residual, notes = (entry.check(**point) if note is None
                                          else (None, None, HYP_NOT_MET, None, note))
    return VerificationReport(identity_id, params, lhs, rhs, verdict, residual, notes)


def default_grid(identity_id: str, *, seed: int = 0, **overrides) -> list[dict]:
    """Deterministic parameter grids per identity; keyword overrides narrow or
    widen the defaults.  The overrides an identity's grid takes, and their
    defaults, are its builder's parameters (documented per identity in the
    README); any other override is an error.  seed is taken by every grid
    and used by those that draw random points.  An override that asks for no
    points is an error, not a request for the default: one below 1 where the
    builder's default is an int (bc_max, count), and an empty one where it is
    a sequence (ks, k_pairs, p_values, l_values); so are overrides that leave
    the grid empty."""
    try:
        entry = _REGISTRY[identity_id]
    except KeyError:
        raise KeyError(f"no default grid for identity id {identity_id!r}")
    takes = inspect.signature(entry.grid).parameters
    for name, value in overrides.items():
        if name not in takes or name == "rng":
            raise ValueError(f"the {identity_id} grid takes no override {name!r}")
        default = takes[name].default
        if type(default) is int and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
        if isinstance(default, Sequence) and not value:
            raise ValueError(f"{name} must not be empty")
    grid = entry.grid(**overrides, **({"rng": random.Random(seed)} if "rng" in takes else {}))
    if not grid:
        raise ValueError(f"the overrides ({', '.join(overrides)}) leave no {identity_id} points")
    return grid


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(identity_id: str, grid, jobs: int = 1) -> list[VerificationReport]:
    """verify_identity over every parameter point, in the canonical
    (parameter JSON) order of the points, so collection is order-independent.

    jobs is clamped to the number of CPUs and of points: a process pool starts
    all its workers up front."""
    grid = sorted(grid, key=lambda params: json.dumps(_encode_params(params), sort_keys=True))
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(grid)))
    check = partial(verify_identity, identity_id)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(check, grid, chunksize=max(1, len(grid) // (4 * jobs))))
    return list(map(check, grid))


def aggregate(identity_id: str, reports) -> dict:
    counts = Counter(r.verdict for r in reports)
    return {
        "id": identity_id,
        "total": counts.total(),
        "exact_equal": counts[EXACT_EQUAL],
        "within_tol": counts[WITHIN_TOL],
        "vacuous": counts[VACUOUS],
        "hypothesis_not_met": counts[HYP_NOT_MET],
        "mismatch": counts[MISMATCH],
    }
