"""Dirichlet characters mod k with exact cyclotomic values.

A character is stored intrinsically mod k as an exponent tuple over a fixed
generator set of the unit group (Z/k)^*, built per prime power by CRT:

  * odd p^a: the smallest primitive root of p^a (one cyclic component);
  * 2: trivial; 4: the generator -1 (i.e. 3); 2^a for a >= 3: the pair
    {-1, 5} (components of order 2 and 2^(a-2)).

The canonical label is the dot-joined exponent tuple in this fixed generator
order ("0" for the empty tuple), so enumeration order and labels are
deterministic and reproducible.  Values live in Q(zeta_e) where e is the
order of the character; conductor and primitivity are queried properties.
There is one instance per character, so characters compare and hash by
identity and key memo tables at the cost of a pointer.
A character-weighted sum over one range goes through character_sum, which
adds integer or rational terms by root-of-unity phase.  table_sum is the one
kernel of the two hot double sums over integer tables, the twisted Dedekind
sums (dedekind._twisted_sum) and the closed-side double sums
(verify._char_double_sum).  It reads the units of the second character,
mod k >= 3, in pairs a, k - a, from one bucket plan per (order of the
first character, second character); phase_classes groups a character's
units by phase, up to sign, for sums that add their terms before weighting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from .budget import require
from .exactnum import (CyclotomicNumber, _reduce_mod_phi, cyclo_root, euler_phi, factorize,
                       divisors)

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "character_from_label",
    "character_sum",
    "phase_classes",
    "table_sum",
]


# ---------------------------------------------------------------------------
# Unit group structure (shared per modulus)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Component:
    generator: int       # lifted generator mod k (== 1 mod every other prime power)
    order: int           # multiplicative order of the generator


def _smallest_primitive_root(q: int, phi_q: int) -> int:
    prime_factors = [p for p, _ in factorize(phi_q)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi_q // p, q) != 1 for p in prime_factors):
            return g
    raise ValueError(f"no primitive root mod {q}")


def _crt_lift(residue: int, q: int, k: int) -> int:
    """x mod k with x = residue (mod q) and x = 1 (mod k/q); gcd(q, k/q) = 1."""
    rest = k // q
    if rest == 1:
        return residue % k
    inv = pow(q, -1, rest)
    return (residue + q * ((1 - residue) * inv % rest)) % k


@lru_cache(maxsize=None)
def _unit_group(k: int) -> tuple[_Component, ...]:
    require("MODULUS_BUDGET", k, "modulus {}")
    comps: list[_Component] = []
    for p, a in factorize(k):
        q = p ** a
        if p == 2:
            if a == 1:
                continue
            if a == 2:
                comps.append(_Component(_crt_lift(3, q, k), 2))
            else:
                comps.append(_Component(_crt_lift(q - 1, q, k), 2))
                comps.append(_Component(_crt_lift(5, q, k), 2 ** (a - 2)))
        else:
            g = _smallest_primitive_root(q, euler_phi(q))
            comps.append(_Component(_crt_lift(g, q, k), euler_phi(q)))
    return tuple(comps)


@lru_cache(maxsize=None)
def _unit_logs(k: int) -> dict[int, tuple[int, ...]]:
    """Discrete log table: unit n mod k -> exponent tuple over the generators."""
    comps = _unit_group(k)
    logs = {math.prod(pow(c.generator, t, k) for c, t in zip(comps, exps)) % k: exps
            for exps in itertools.product(*(range(c.order) for c in comps))}
    assert len(logs) == euler_phi(k)
    return logs


def _phase_table(k: int, exponents: tuple[int, ...]) -> tuple[int, tuple[Optional[int], ...]]:
    """(e, phases) of the character mod k with these exponents: e is its
    order and chi(n) = zeta_e^phases[n % k], with None off the units."""
    comps = _unit_group(k)
    e = 1
    for comp, exp in zip(comps, exponents):
        e = math.lcm(e, comp.order // math.gcd(comp.order, exp))
    phases: list[Optional[int]] = [None] * k
    for n, logs in _unit_logs(k).items():
        j = 0
        for comp, exp, t in zip(comps, exponents, logs):
            g = math.gcd(comp.order, exp)
            o_i = comp.order // g          # order of chi(generator_i)
            j += t * (exp // g) * (e // o_i)
        phases[n] = j % e
    return e, tuple(phases)


def _conductor(k: int, phases: tuple[Optional[int], ...]) -> int:
    """Least f | k such that the character is trivial on units = 1 (mod f);
    a phase is falsy (None or 0) exactly off the units or where chi is 1."""
    return next(f for f in divisors(k) if not any(phases[n] for n in range(1 % f, k, f)))


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

_CHARACTERS: dict[tuple[int, tuple[int, ...]], "DirichletCharacter"] = {}


class DirichletCharacter:
    """Character mod k given by its exponents on the fixed generator set.

    chi(generator_i) = zeta^(exponents_i) where zeta generates the order-s_i
    value group of generator i.  chi(n) = 0 iff gcd(n, k) > 1, and
    chi(n) = zeta_order^phases[n % k], with phases[n] None off the units.

    There is one instance per normalised (modulus, exponents): the
    constructor, character_from_label, enumerate_characters, conjugate(),
    pickle and copy all return it, so equality and hashing are identity and
    a memo keyed by characters hashes no tuple.  The instance computes its
    order, phase table and conductor once, when it is built, and its
    conjugate on the first call.
    """

    __slots__ = ("modulus", "exponents", "_order", "phases", "_conductor", "_conjugate")

    def __new__(cls, modulus: int, exponents) -> "DirichletCharacter":
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        comps = _unit_group(modulus)
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(comps):
            raise ValueError(f"modulus {modulus} needs {len(comps)} exponents")
        key = (modulus, tuple(e % c.order for e, c in zip(exponents, comps)))
        self = _CHARACTERS.get(key)
        if self is None:
            self = object.__new__(cls)
            order, phases = _phase_table(*key)
            for name, value in zip(cls.__slots__, (*key, order, phases,
                                                   _conductor(modulus, phases), None)):
                object.__setattr__(self, name, value)
            _CHARACTERS[key] = self
        return self

    def __setattr__(self, *a):
        raise AttributeError("DirichletCharacter is immutable")

    def __reduce__(self):
        return DirichletCharacter, (self.modulus, self.exponents)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"DirichletCharacter({self.modulus}, label={self.label!r})"

    # -- structure ----------------------------------------------------------

    @property
    def label(self) -> str:
        return ".".join(str(e) for e in self.exponents) if self.exponents else "0"

    @property
    def order(self) -> int:
        """Order of the character in the dual group (lcm of component orders)."""
        return self._order

    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, n: int) -> CyclotomicNumber:
        """chi(n): exact root of unity in Q(zeta_order), 0 off the units."""
        j = self.phases[n % self.modulus]
        return CyclotomicNumber.zero(self._order) if j is None else cyclo_root(self._order, j)

    # -- derived data ---------------------------------------------------------

    @property
    def conductor(self) -> int:
        """Least f | k such that chi is trivial on units = 1 (mod f)."""
        return self._conductor

    def is_primitive(self) -> bool:
        return self._conductor == self.modulus

    @property
    def parity(self) -> int:
        """chi(-1) as +1 or -1 (+1 for k <= 2)."""
        return 1 if self.phases[self.modulus - 1] == 0 else -1

    def conjugate(self) -> "DirichletCharacter":
        """The complex conjugate character, found on the first call."""
        if self._conjugate is None:
            object.__setattr__(self, "_conjugate",
                               DirichletCharacter(self.modulus, [-e for e in self.exponents]))
        return self._conjugate

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "conductor": self.conductor,
            "parity": self.parity,
            "order": self.order,
            "exponents": list(self.exponents),
            "label": self.label,
        }


@lru_cache(maxsize=None)
def _all_characters(k: int) -> tuple[DirichletCharacter, ...]:
    """Every character mod k, its exponent tuples in lexicographic order."""
    return tuple(DirichletCharacter(k, exps) for exps in
                 itertools.product(*(range(c.order) for c in _unit_group(k))))


def enumerate_characters(k: int, which: str = "all") -> list[DirichletCharacter]:
    """Characters mod k in canonical (lexicographic exponent) order.

    which: "all" (phi(k) characters), "primitive", or "nonprincipal_primitive".
    """
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    chars = list(_all_characters(k))
    if which == "all":
        return chars
    if which == "primitive":
        return [c for c in chars if c.is_primitive()]
    if which == "nonprincipal_primitive":
        return [c for c in chars if c.is_primitive() and not c.is_principal()]
    raise ValueError(f"unknown filter {which!r}")


def character_from_label(k: int, label: str) -> DirichletCharacter:
    """The character mod k with canonical label `label`, or the principal
    character for an empty label; any other label is a ValueError."""
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    comps = _unit_group(k)
    if not label:
        return DirichletCharacter(k, [0] * len(comps))
    chi = DirichletCharacter(k, tuple(int(t) for t in label.split(".")) if comps else ())
    if chi.label != label:
        raise ValueError(f"label {label!r} is not canonical mod {k} (it reduces to {chi.label!r})")
    return chi


def character_sum(chi: DirichletCharacter, ns: Iterable[int],
                  value: Callable[[int], Union[int, Fraction]]):
    """sum of chi(n) value(n) over ns, for a value called on units only that
    returns an integer or a rational.

    The terms are added by phase in the group ring Q[x]/(x^e - 1), e the
    order of chi, and reduced modulo Phi_e once.  The buckets start at int
    0, so integer values are summed and reduced as integers; a caller with
    integer numerators over a common denominator divides the result once.
    The result has order e, or order 1 when no n is a unit."""
    k, table = chi.modulus, chi.phases
    acc = [0] * chi.order
    unit = False
    for n in ns:
        j = table[n % k]
        if j is not None:
            acc[j] += value(n)
            unit = True
    return CyclotomicNumber.from_group_ring(chi.order, acc) if unit else CyclotomicNumber.zero(1)


def phase_classes(chi: DirichletCharacter, e: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """The units r in range(k) of chi mod k grouped by the phase s of
    chi(r) = zeta_e^s in Z/e, for e a multiple of chi's order, as
    {s: ((r, sign), ...)} in increasing r: chi(r) = sign * zeta_e^s.  When e
    is even, zeta_e^(e/2) = -1 folds a phase s >= e/2 onto s - e/2 with
    sign -1, so one class may hold both signs; when e is odd nothing is
    folded.  The modulus-1 character has the one unit 0, of phase 0."""
    k, table, step = chi.modulus, chi.phases, e // chi.order
    half = e // 2 if e % 2 == 0 else e
    classes: dict[int, list[tuple[int, int]]] = {}
    for r in range(k):
        j = table[r]
        if j is not None:
            s = step * j
            classes.setdefault(s % half, []).append((r, -1 if s >= half else 1))
    return {s: tuple(terms) for s, terms in classes.items()}


@lru_cache(maxsize=None)
def _pair_plan(o1: int, chi2: DirichletCharacter):
    """(e, pairs) for table_sum over a chi1 of order o1 and chi2 mod k2 >= 3:
    e = lcm(o1, order of chi2), and for chi1(n) = zeta_{o1}^j, pairs[j] the
    triples (a, k2 - a, slot) over the units 2a < k2 of chi2.  slot =
    (s1 j - s2 j2(a)) mod e is the bucket of chi1(n) conj(chi2)(a), and
    conj(chi2)(k2 - a) = chi2(-1) conj(chi2)(a) puts the term of k2 - a in
    the same bucket, times chi2's parity.  The plan reads chi1 only through
    its order, so every chi1 of one order shares it."""
    o2, k2 = chi2.order, chi2.modulus
    e = math.lcm(o1, o2)
    s1, s2 = e // o1, e // o2
    firsts = [(a, s2 * j2) for a, j2 in enumerate(chi2.phases) if j2 is not None and 2 * a < k2]
    return e, tuple(tuple((a, k2 - a, (s1 * j - off) % e) for a, off in firsts)
                    for j in range(o1))


def table_sum(table: Sequence[int], chi1: DirichletCharacter, rows: Iterable[int], alpha: int,
              chi2: DirichletCharacter, cols: Sequence[int],
              weights: Optional[Sequence[int]] = None) -> tuple[int, list[int]]:
    """(e, nums): the sum over n in rows and the units a in range(k2) of chi2
    of chi1(n) conj(chi2)(a) table[(alpha n mod N) + cols[a]], times
    weights[n mod len(weights)] when given, for N = len(table) and each
    cols[a] in range(N); e is the lcm of the orders and nums the phi(e)
    integer coordinates of the sum in Q(zeta_e).

    The one kernel of dedekind._twisted_sum and verify._char_double_sum;
    each caller states its own range, arguments, table and scale.  The index
    is below 2N, so it reads table + table with no second reduction.  The
    integer terms go into group-ring buckets read from a plan memoised per
    order of chi1 and chi2 (_pair_plan), rows of weight 0 are skipped, and
    the buckets are reduced modulo Phi_e once.  A chi2 mod k2 < 3, which
    would have a unit a = -a, is refused.

    The units are read in pairs a, k2 - a: conj(chi2)(k2 - a) is
    chi2(-1) conj(chi2)(a), so both terms of a row fall into one bucket,
    and the row adds table[i + cols[a]] +- table[i + cols[k2 - a]] there
    once, times its weight once, by chi2's parity.  Every (n, a) value is
    still read and added once, and nothing of the table is assumed.
    Replayed with warm plans, the kernel calls of the seed-1 benchmark
    samples took 0.077 s against the unpaired kernel's 0.089 s
    (charsum-wide, 2,586 calls) and 0.110 s against 0.122 s (charsum,
    11,305 calls): best of 15 passes in each of six alternating fresh
    processes per side, on a 2-vCPU x86 host.  Hence one row loop per weighting and parity: one loop with
    the sign as a factor gave most of the gain back, at 0.092 s and 0.121 s
    in the same replay."""
    k1, phases = chi1.modulus, chi1.phases
    if chi2.modulus < 3:
        raise ValueError(f"table_sum needs chi2 mod k2 >= 3, got {chi2!r}")
    e, pairs = _pair_plan(chi1.order, chi2)
    big = len(table)
    twice = table + table
    acc = [0] * e
    if weights is None:
        if chi2.parity > 0:
            for n in rows:
                j = phases[n % k1]
                if j is not None:
                    r = alpha * n % big
                    for a, b, slot in pairs[j]:
                        acc[slot] += twice[cols[a] + r] + twice[cols[b] + r]
        else:
            for n in rows:
                j = phases[n % k1]
                if j is not None:
                    r = alpha * n % big
                    for a, b, slot in pairs[j]:
                        acc[slot] += twice[cols[a] + r] - twice[cols[b] + r]
    else:
        w = len(weights)
        if chi2.parity > 0:
            for n in rows:
                j = phases[n % k1]
                if j is None:
                    continue
                weight = weights[n % w]
                if weight:
                    r = alpha * n % big
                    for a, b, slot in pairs[j]:
                        acc[slot] += (twice[cols[a] + r] + twice[cols[b] + r]) * weight
        else:
            for n in rows:
                j = phases[n % k1]
                if j is None:
                    continue
                weight = weights[n % w]
                if weight:
                    r = alpha * n % big
                    for a, b, slot in pairs[j]:
                        acc[slot] += (twice[cols[a] + r] - twice[cols[b] + r]) * weight
    return e, _reduce_mod_phi(acc, e)
