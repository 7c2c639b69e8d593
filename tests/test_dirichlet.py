"""Dirichlet characters: enumeration, values, conductor, parity, conjugation."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest

from dedsums import budget, dedekind, dirichlet, verify
from dedsums.dirichlet import (DirichletCharacter, _unit_group, _unit_logs,
                               character_from_label, enumerate_characters, phase_classes)
from dedsums.exactnum import CyclotomicNumber, cyclo_root, euler_phi


def test_enumeration_counts():
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 15, 24):
        assert len(enumerate_characters(k)) == euler_phi(k), k


def test_modulus_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi.is_principal() and chi.is_primitive() and chi.conductor == 1
    assert chi(0) == 1 and chi(17) == 1


# The unit-group walks as they were before itertools.product: a breadth-first
# closure under multiplication by the generators, and a recursive enumerator.
def _bfs_unit_logs(k):
    comps = _unit_group(k)
    logs = {1 % k: (0,) * len(comps)}
    frontier = [1 % k]
    while frontier:
        nxt = []
        for n in frontier:
            t = logs[n]
            for i, comp in enumerate(comps):
                m = (n * comp.generator) % k
                if m not in logs:
                    t2 = list(t)
                    t2[i] = (t2[i] + 1) % comp.order
                    logs[m] = tuple(t2)
                    nxt.append(m)
        frontier = nxt
    return logs


def _recursive_labels(k):
    comps = _unit_group(k)
    labels = []

    def rec(prefix):
        if len(prefix) == len(comps):
            labels.append(DirichletCharacter(k, tuple(prefix)).label)
            return
        for e in range(comps[len(prefix)].order):
            rec(prefix + [e])

    rec([])
    return labels


def test_unit_group_walks_match_closure_and_recursion():
    # every modulus up to 120, not a sample
    for k in range(1, 121):
        assert _unit_logs(k) == _bfs_unit_logs(k), k
        assert [chi.label for chi in enumerate_characters(k)] == _recursive_labels(k), k


def test_mod3_nonprincipal():
    chars = enumerate_characters(3, "nonprincipal_primitive")
    assert len(chars) == 1
    chi = chars[0]
    assert chi.order == 2 and chi.parity == -1
    assert chi(2) == -1 and chi(1) == 1
    assert chi(3).is_zero()


def test_mod8_structure():
    # (Z/8)* = C2 x C2: 4 characters, 2 primitive
    allc = enumerate_characters(8)
    assert len(allc) == 4
    prims = enumerate_characters(8, "primitive")
    assert len(prims) == 2
    for chi in allc:
        if chi(5) == 1 and not chi.is_principal():
            assert chi.conductor == 4  # trivial on 5: induced mod 4
        if chi(5) == -1 and chi(7) == 1:
            assert chi.conductor == 8  # not induced mod 4 since 5 = 1 (mod 4)


def test_mod4_character():
    chi = enumerate_characters(4, "nonprincipal_primitive")[0]
    assert chi.conductor == 4 and chi.parity == -1
    assert chi(3) == -1


def test_principal_conductor():
    for k in (3, 4, 5, 6, 8, 12):
        chi0 = enumerate_characters(k)[0]
        assert chi0.is_principal()
        assert chi0.conductor == 1
        assert not chi0.is_primitive()


def test_periodicity_and_zero_off_units():
    for k in (5, 6, 8, 12):
        for chi in enumerate_characters(k):
            for n in range(-k, 2 * k):
                assert chi(n) == chi(n + k)
                if math.gcd(n, k) > 1:
                    assert chi(n).is_zero()


def test_complete_multiplicativity():
    rng = random.Random(17)
    for k in (3, 4, 5, 7, 8, 9, 12):
        for chi in enumerate_characters(k):
            for _ in range(8):
                m, n = rng.randint(-20, 40), rng.randint(-20, 40)
                assert chi(m * n) == chi(m) * chi(n)


def test_nonprincipal_sum_vanishes():
    for k in (3, 4, 5, 6, 7, 8, 9, 12):
        for chi in enumerate_characters(k):
            total = sum((chi(n) for n in range(1, k)), CyclotomicNumber.zero(1))
            if chi.is_principal():
                assert total == euler_phi(k)
            else:
                assert total.is_zero(), (k, chi.label)


def test_conjugation():
    for k in (5, 7, 8, 12):
        for chi in enumerate_characters(k):
            bar = chi.conjugate()
            assert bar.conjugate() == chi
            assert bar.parity == chi.parity
            for n in range(k):
                if math.gcd(n, k) == 1:
                    assert chi(n) * bar(n) == 1
                else:
                    assert (chi(n) * bar(n)).is_zero()


def test_parity_matches_value_at_minus_one():
    for k in (3, 4, 5, 7, 8, 9, 12):
        for chi in enumerate_characters(k):
            assert chi(-1) == chi.parity


def test_order_divides_group_exponent():
    for k in (5, 7, 8, 9, 12):
        for chi in enumerate_characters(k):
            e = chi.order
            for n in range(1, k):
                if math.gcd(n, k) == 1:
                    assert chi(n) ** e == 1


def test_labels_round_trip_and_are_sorted():
    for k in (1, 2, 3, 8, 12):
        chars = enumerate_characters(k)
        labels = [c.label for c in chars]
        assert labels == sorted(labels, key=lambda s: [int(t) for t in s.split(".")])
        for chi in chars:
            assert character_from_label(k, chi.label) == chi


def test_json_shape():
    chi = enumerate_characters(5)[1]
    js = chi.to_json()
    assert set(js) == {"modulus", "conductor", "parity", "order", "exponents", "label"}
    assert js["modulus"] == 5 and js["order"] == 4


def test_operation_wrappers():
    # the method forms of evaluation, conductor, primitivity, parity, conjugation
    chi = enumerate_characters(3, "nonprincipal_primitive")[0]
    assert chi(2) == -1
    assert chi.conductor == 3
    assert chi.is_primitive()
    assert chi.parity == -1
    assert chi.conjugate() == chi  # real quadratic character


def test_bad_exponent_length():
    with pytest.raises(ValueError):
        DirichletCharacter(8, (1,))


def test_characters_pickle():
    for k in range(1, 13):
        for chi in enumerate_characters(k):
            back = pickle.loads(pickle.dumps(chi))
            assert back is chi
            with pytest.raises(AttributeError):
                back.modulus = 1


def test_one_instance_per_character():
    chi = DirichletCharacter(5, (5,))
    assert (chi is DirichletCharacter(5, (1,)) is character_from_label(5, "1")
            is enumerate_characters(5)[1])
    assert chi.conjugate().conjugate() is chi
    assert copy.deepcopy(chi) is chi and copy.copy(chi) is chi
    assert DirichletCharacter.__eq__ is object.__eq__
    assert DirichletCharacter.__hash__ is object.__hash__
    for name in ("modulus", "exponents", "phases", "_order", "_conductor", "_conjugate"):
        with pytest.raises(AttributeError):
            setattr(chi, name, None)
    assert chi.modulus == 5 and chi.exponents == (1,) and chi.order == 4


def test_pool_reports_carry_the_grid_characters():
    grid = verify.default_grid("rp1", ks=(5,), p_values=(2,), bc_max=2)
    reports = verify.sweep("rp1", grid, jobs=2)
    own = {id(point[key]) for point in grid for key in ("char1", "char2")}
    assert reports and {id(r.params[key]) for r in reports for key in ("char1", "char2")} <= own


def test_modulus_over_budget_is_refused_before_any_table(monkeypatch):
    at = budget.MODULUS_BUDGET
    assert len(enumerate_characters(at)) == euler_phi(at)
    big = at + 1
    monkeypatch.setattr(dirichlet, "factorize", lambda n: pytest.fail("k was factorized"))
    for call in (lambda: DirichletCharacter(big, (1,)), lambda: enumerate_characters(big),
                 lambda: character_from_label(big, "1"), lambda: _unit_group(big)):
        with pytest.raises(ValueError, match="over MODULUS_BUDGET"):
            call()


def test_phase_classes_cover_the_units_with_their_values():
    # chi(r) = sign * zeta_e^s for every unit r, each in one class; an even e
    # folds every phase below e/2, an odd e keeps every sign +1
    for k in (1, 3, 4, 5, 7, 8, 9, 12, 15):
        for chi in enumerate_characters(k):
            for e in (chi.order, 2 * chi.order, 3 * chi.order):
                classes = phase_classes(chi, e)
                residues = sorted(r for terms in classes.values() for r, _ in terms)
                assert residues == [r for r in range(k) if math.gcd(r, k) == 1]
                for s, terms in classes.items():
                    assert 0 <= s < (e // 2 if e % 2 == 0 else e)
                    for r, sign in terms:
                        assert sign == 1 or (sign == -1 and e % 2 == 0)
                        assert chi(r).embed(e) == sign * cyclo_root(e, s), (chi, e, r)


def test_pair_plan_reads_each_unit_of_chi2_once_in_pairs_a_and_k2_minus_a():
    # for every order o1 of a chi1 and every phase j of chi1, the units of
    # chi2 mod k2 >= 3 in pairs (a, k2 - a), in the bucket of chi1(n)
    # conj(chi2)(a) for chi1(n) = zeta_o1^j, where conj(chi2)(k2 - a) is
    # chi2's parity times conj(chi2)(a)
    chars = [chi for k in range(3, 13) for chi in enumerate_characters(k)]
    for o1 in sorted({chi.order for chi in chars}):
        for chi2 in chars:
            k2, chi2bar = chi2.modulus, chi2.conjugate()
            e, pairs = dirichlet._pair_plan(o1, chi2)
            assert e == math.lcm(o1, chi2.order) and len(pairs) == o1
            units = [a for a in range(k2) if math.gcd(a, k2) == 1]
            for j, row in enumerate(pairs):
                assert sorted([t[0] for t in row] + [t[1] for t in row]) == units, (o1, chi2, j)
                chi1_n = cyclo_root(o1, j).embed(e)
                for a, b, slot in row:
                    assert b == k2 - a and 2 * a < k2
                    assert chi1_n * chi2bar(a).embed(e) == cyclo_root(e, slot)
                    assert chi2bar(b) == chi2.parity * chi2bar(a)


@pytest.mark.parametrize("k2", [1, 2])
def test_table_sum_refuses_a_chi2_mod_k2_below_3(k2):
    # the one character mod 1 or 2 has a unit a = -a, which no plan reads
    chi1, chi2 = enumerate_characters(5)[1], enumerate_characters(k2)[0]
    with pytest.raises(ValueError, match="k2 >= 3"):
        dirichlet.table_sum((1, 2, 3), chi1, range(5), 1, chi2, [0] * k2)


def test_characters_of_one_order_share_one_pair_plan():
    # 5:1 and 5:3 both have order 4, so against one psi they read one plan
    chi, chi3, psi = (character_from_label(5, label) for label in ("1", "3", "2"))
    assert chi.order == chi3.order == 4 and chi is not chi3
    dirichlet._pair_plan.cache_clear()
    for first in (chi, chi3):
        dedekind.char_pair_sum(2, 1, 3, first, psi)
    assert dirichlet._pair_plan.cache_info().currsize == 1
