"""The verification engine: registry, verdicts, reports, sweeps."""

import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from dedsums.bernoulli import Polynomial, periodic_bernoulli
from dedsums.charbernoulli import gen_bernoulli_number
from dedsums.dirichlet import character_from_label, enumerate_characters
from dedsums.exactnum import scalars_equal
from dedsums.integrals import binomial_convolution
from dedsums.verify import (IDENTITY_IDS, PARAMETERS, _binom_charbernoulli_sum, aggregate,
                            default_grid, laplace_check,
                            sweep, verify_euler_maclaurin, verify_identity)

CHI3 = character_from_label(3, "1")
CHI4 = character_from_label(4, "1")
CHI5_ODD = character_from_label(5, "1")
CHI5_EVEN = character_from_label(5, "2")


def test_registry_is_closed():
    assert len(IDENTITY_IDS) == 25
    with pytest.raises(KeyError, match="unknown identity id"):
        verify_identity("no-such-identity", {})


def test_points_are_checked_against_the_declared_keys():
    point = {"m": 2, "n": 1, "b1": F(5, 2), "b2": 4, "x": F(0)}
    not_int = "parameter 'b1': .* is not int; remark-apostol takes m, n, b1, b2, x"
    # an int key refuses a non-integer instead of truncating it
    with pytest.raises(ValueError, match=not_int):
        verify_identity("remark-apostol", point)
    for key, value in (("tolerance", 1e-3), ("force", True), ("s", 1.0)):
        with pytest.raises(ValueError, match=f"parameter '{key}': undeclared"):
            verify_identity("remark-apostol", dict(point, b1=2, **{key: value}))
    with pytest.raises(KeyError, match="missing parameter 'x' for remark-apostol"):
        verify_identity("remark-apostol", {"m": 2, "n": 1, "b1": 2, "b2": 4})
    for value in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=not_int):
            verify_identity("remark-apostol", dict(point, b1=value))
    # an integral Fraction is an int; the report keeps the point as given
    report = verify_identity("remark-apostol", dict(point, b1=F(2)))
    assert report.verdict == "exact-equal" and report.params["b1"] == F(2)
    assert report.to_json() != verify_identity("remark-apostol", dict(point, b1=2)).to_json()


_LAPLACE_IDS = {"laplace-16", "laplace-product", "laplace-char"}


def test_zero_and_negative_keys_are_a_report_or_a_refusal():
    # every int, Fraction and float key of each id's first default point, at
    # 0 and at -1: a report or a ValueError/KeyError, never an arithmetic
    # fault inside a checker, and a float side only on the Laplace ids
    probes = 0
    for rid in IDENTITY_IDS:
        point = default_grid(rid)[0]
        for key, typ in PARAMETERS[rid].items():
            if typ not in (int, F, float):
                continue
            for value in (0, -1):
                probes += 1
                try:
                    report = verify_identity(rid, {**point, key: typ(value)})
                except (ValueError, KeyError):
                    continue
                assert rid in _LAPLACE_IDS or not any(
                    isinstance(side, float) for side in (report.lhs, report.rhs)), (rid, key)
    assert probes == 160


def test_classical_dr_example():
    r = verify_identity("classical-dr", {"b": 2, "c": 3})
    assert r.verdict == "exact-equal"
    assert r.lhs == F(-1, 18) and r.rhs == F(-1, 18)


def test_classical_dr_hypothesis():
    r = verify_identity("classical-dr", {"b": 2, "c": 4})
    assert r.verdict == "hypothesis-not-met"


def test_apostol_example():
    r = verify_identity("apostol-dr1", {"p": 3, "b": 2, "c": 3})
    assert r.verdict == "exact-equal"
    assert verify_identity("apostol-dr1", {"p": 2, "b": 1, "c": 2}).verdict == \
        "hypothesis-not-met"


def test_berndt_example():
    r = verify_identity("berndt-dkr", {"char": CHI3, "b": 1, "c": 3})
    assert r.verdict == "exact-equal" and scalars_equal(r.rhs, F(1, 9))
    # outside the divisibility hypothesis the point is reported, not skipped
    r = verify_identity("berndt-dkr", {"char": CHI3, "b": 1, "c": 2})
    assert r.verdict == "hypothesis-not-met"
    assert "sides" in r.notes
    r = verify_identity("berndt-dkr", {"char": CHI3, "b": 1, "c": 2, "force": True})
    assert r.verdict in ("exact-equal", "mismatch")


def test_cck_rp_hypothesis_and_example():
    r = verify_identity("cck-rp", {"char": CHI3, "p": 3, "b": 2, "c": 3})
    assert r.verdict == "exact-equal"
    # k = 4 is composite and gcd(4, bc) = 1 here: hypothesis fails
    r = verify_identity("cck-rp", {"char": CHI4, "p": 3, "b": 3, "c": 5})
    assert r.verdict == "hypothesis-not-met"
    r = verify_identity("cck-rp", {"char": CHI4, "p": 3, "b": 3, "c": 5, "force": True})
    assert r.verdict in ("exact-equal", "mismatch")


def test_rp1_vacuous_and_readings():
    r = verify_identity("rp1", {"char1": CHI3, "char2": CHI3, "p": 2, "b": 2, "c": 3})
    assert r.verdict == "vacuous-zero"
    r = verify_identity("rp1", {"char1": CHI3, "char2": CHI3, "p": 3, "b": 2, "c": 3})
    assert r.verdict == "exact-equal"
    assert "swapped reading (c,b)" in r.notes and "exact-equal" in r.notes
    # both readings coincide at b = c, so the displayed one verifies there too
    r = verify_identity("rp1", {"char1": CHI3, "char2": CHI3, "p": 3, "b": 2, "c": 2})
    assert r.verdict == "exact-equal"
    assert "as displayed: exact-equal" in r.notes


def test_rp1_non_coprime():
    r = verify_identity("rp1", {"char1": CHI5_ODD, "char2": CHI5_EVEN,
                                "p": 2, "b": 4, "c": 6})
    assert r.verdict == "exact-equal"


def test_rp2_exact():
    for (c1, c2) in [(CHI3, CHI4), (CHI3, CHI5_ODD), (CHI4, CHI5_EVEN)]:
        for p in (2, 3):
            r = verify_identity("rp2", {"char1": c1, "char2": c2, "p": p,
                                        "b": 3, "c": 2})
            assert r.verdict in ("exact-equal", "vacuous-zero"), (r.verdict, r.notes)


def test_rp3_exact_and_documented_failure():
    r = verify_identity("rp3", {"char1": CHI3, "char2": CHI4, "p": 3, "b": 1, "c": 2})
    assert r.verdict == "exact-equal"
    # the known failing point: the cross-modulus correction explains it exactly
    r = verify_identity("rp3", {"char1": CHI3, "char2": CHI4, "p": 3, "b": 4, "c": 3})
    assert r.verdict == "mismatch"
    assert "explains the gap exactly" in r.notes
    r = verify_identity("rp3", {"char1": CHI3, "char2": CHI3, "p": 3, "b": 1, "c": 2})
    assert r.verdict == "hypothesis-not-met"  # equal moduli


def test_lek2_closed_form_and_scaling():
    r = verify_identity("lek2", {"char1": CHI5_ODD, "char2": CHI5_EVEN,
                                 "p": 2, "b": 1, "c": 2})
    assert r.verdict == "exact-equal"
    r = verify_identity("lek2", {"char1": CHI5_ODD, "char2": CHI5_EVEN,
                                 "p": 2, "b": 2, "c": 4})
    assert r.verdict == "exact-equal" and "scaling display" in r.notes
    r = verify_identity("lek2", {"char1": CHI3, "char2": CHI3, "p": 2, "b": 1, "c": 2})
    assert r.verdict == "vacuous-zero"


def test_lek3():
    r = verify_identity("lek3", {"char1": CHI3, "char2": CHI4, "p": 2, "b": 2, "c": 3})
    assert r.verdict in ("exact-equal", "vacuous-zero")
    r = verify_identity("lek3", {"char1": CHI3, "char2": CHI4, "p": 2, "b": 2, "c": 4})
    assert r.verdict == "hypothesis-not-met"


def test_raabe():
    r = verify_identity("raabe", {"p": 4, "c": 6, "x": F(5, 7)})
    assert r.verdict == "exact-equal"


@pytest.mark.parametrize("p", (0, 1, 5))
def test_raabe_integer_sum_equals_the_fraction_sum(p):
    # the left side adds integer numerators over one denominator; it is the
    # sum of periodic_B_{p+1}((m + x)/c) as Fractions, negative and integer x too
    for c in (1, 7, 30):
        for x in (F(0), F(4, 7), F(-20, 9), F(3)):
            r = verify_identity("raabe", {"p": p, "c": c, "x": x})
            direct = sum((periodic_bernoulli(p + 1, F(m + x, c)) for m in range(c)), F(0))
            assert r.verdict == "exact-equal" and scalars_equal(r.lhs, direct), (p, c, x)


def test_euler_maclaurin():
    for f, l in ((Polynomial([1]), 0), (Polynomial([0, 1]), 1), (Polynomial([0, 0, 1]), 2)):
        r = verify_euler_maclaurin(CHI3, f, F(0), F(6), l)
        assert r.verdict == "exact-equal", (f, l, r.notes)
    r = verify_euler_maclaurin(CHI4, Polynomial([0, 0, 1]), F(0), F(8), 2)
    assert r.verdict == "exact-equal"
    # non-integer interval ends and an imprimitive character also work
    chi6 = [c for c in enumerate_characters(6) if not c.is_principal()][0]
    r = verify_euler_maclaurin(chi6, Polynomial([F(1, 3), F(2), F(1)]), F(1, 2), F(25, 2), 3)
    assert r.verdict == "exact-equal"
    r = verify_euler_maclaurin(enumerate_characters(5)[0], Polynomial([1]), F(0), F(5), 0)
    assert r.verdict == "hypothesis-not-met"  # principal


def test_euler_maclaurin_negative_l_is_refused():
    points = default_grid("em-theorem", ks=(3,), l_values=(-1,))
    assert points
    for pt in points:
        r = verify_identity("em-theorem", pt)
        assert (r.verdict, r.notes) == ("hypothesis-not-met", "requires l >= 0")


@pytest.mark.parametrize("chi,alpha,beta,l,note", [
    (CHI3, F(0), F(6), 1, ""),
    (enumerate_characters(5)[0], F(6), F(0), -1, "requires a non-principal character"),
    (CHI3, F(6), F(0), -1, "requires alpha < beta"),
    (CHI3, F(0), F(6), -1, "requires l >= 0"),
])
def test_euler_maclaurin_is_the_registered_report(chi, alpha, beta, l, note):
    # the public form and the registry give one report, refusals in their order
    f = Polynomial([F(1, 2), 0, 1])
    report = verify_euler_maclaurin(chi, f, alpha, beta, l)
    params = {"char": chi, "f": f, "alpha": alpha, "beta": beta, "l": l}
    assert report.to_json() == verify_identity("em-theorem", params).to_json()
    assert (report.verdict, report.notes) == (
        ("hypothesis-not-met", note) if note else ("exact-equal", ""))


def test_further_family():
    assert verify_identity("further-c1k", {"char1": CHI5_ODD, "char2": CHI5_EVEN,
                                           "p": 3, "l": 1}).verdict == "exact-equal"
    r = verify_identity("further-bc1", {"char1": CHI5_ODD, "char2": CHI5_EVEN,
                                        "p": 3, "l": 1})
    assert r.verdict == "exact-equal" and "derived sign (-1)^l: exact-equal" in r.notes
    r = verify_identity("further-eq20", {"char1": CHI5_ODD, "char2": CHI5_EVEN,
                                         "p": 2, "l": 0, "b": 2, "c": 3})
    assert r.verdict in ("exact-equal", "hypothesis-not-met")
    r = verify_identity("further-weighted", {"char1": CHI3, "char2": CHI3,
                                             "p": 2, "l": 0, "b": 1, "c": 1})
    assert r.verdict == "exact-equal"
    # out-of-range l
    r = verify_identity("further-c1k", {"char1": CHI3, "char2": CHI3, "p": 2, "l": 3})
    assert r.verdict == "hypothesis-not-met"


def test_integral_checkers():
    r = verify_identity("int-32-oracle", {"degrees": (3, 4, 16),
                                          "slopes": ("-1", "3", "5"),
                                          "offsets": ("1", "-1", "-2"), "x": "1"})
    assert r.verdict == "exact-equal" and r.lhs == 0
    assert verify_identity("int-24", {"n": 2, "m": 3, "b1": F(1, 2), "b2": F(3),
                                      "y1": F(1, 3), "y2": F(-2), "x": F(1, 5)}).verdict == "exact-equal"
    assert verify_identity("int-28", {"n": 1, "m": 1, "y1": F(1, 2), "y2": F(0),
                                      "x": F(1, 3)}).verdict == "exact-equal"
    assert verify_identity("int-17", {"degrees": (3, 4, 15),
                                      "offsets": ("1", "-1", "2"), "q": "1"}).verdict == "exact-equal"
    assert verify_identity("int-23", {"p": 8}).verdict == "exact-equal"
    assert verify_identity("int-36", {"n": 1, "m": 1, "b1": F(2), "b2": F(3),
                                      "y1": F(0), "y2": F(0), "x": F(1, 7),
                                      "char1": CHI3, "char2": CHI3}).verdict == "exact-equal"
    assert verify_identity("remark-apostol", {"m": 2, "n": 1, "b1": 2, "b2": 4,
                                              "x": F(1, 3)}).verdict == "exact-equal"


def test_laplace_checkers():
    r = laplace_check(1, 1, 0, 1.0)
    assert r.verdict == "equal-within-tol"
    # spot value: closed form at (1,1,0,1) is 1/2 - 1/(e-1)
    assert abs(r.rhs - (0.5 - 1 / (math.e - 1))) < 1e-13
    r = verify_identity("laplace-product", {"m": 2, "n": 2, "s": 1.0})
    assert r.verdict == "equal-within-tol"
    r = verify_identity("laplace-char", {"char": CHI4, "n": 2, "t": F(2), "s": 0.8})
    assert r.verdict == "equal-within-tol"
    with pytest.raises(ValueError):
        laplace_check(1, 1, 0, -1.0)
    # the operation form keeps the identity's refusals
    r = laplace_check(0, 1, 0, 1.0)
    assert r.verdict == "hypothesis-not-met" and r.notes == "requires n >= 1"


def test_report_json_round_trip_and_canonical_sides():
    r = verify_identity("rp1", {"char1": CHI5_ODD, "char2": CHI5_ODD,
                                "p": 3, "b": 2, "c": 3})
    js = r.to_json_dict()
    line = json.dumps(js, sort_keys=True)
    assert json.loads(line) == js
    # exact-equal requires bit-identical canonical scalars
    if r.verdict == "exact-equal":
        assert js["lhs"] == js["rhs"]


def test_sweep_and_aggregate():
    grid = default_grid("classical-dr", bc_max=10)
    reports = sweep("classical-dr", grid)
    agg = aggregate("classical-dr", reports)
    assert agg["total"] == len(grid) and agg["mismatch"] == 0
    assert agg["exact_equal"] == agg["total"]
    # canonical order: sorted by encoded parameters
    keys = [json.dumps(r.to_json_dict()["params"], sort_keys=True) for r in reports]
    assert keys == sorted(keys)


def test_sweep_parallel_matches_serial():
    grid = default_grid("classical-dr", bc_max=6)
    serial = [r.to_json() for r in sweep("classical-dr", grid)]
    parallel = [r.to_json() for r in sweep("classical-dr", grid, jobs=2)]
    assert serial == parallel


@pytest.mark.parametrize("rid, options", [
    ("rp1", {"ks": (3,), "p_values": (2,), "bc_max": 2}),
    ("em-theorem", {"ks": (3,), "l_values": (0, 1)}),
])
def test_sweep_parallel_carries_characters_and_polynomials(monkeypatch, rid, options):
    # the points carry DirichletCharacters and Polynomials and the reports
    # CyclotomicNumbers, all pickled to and from the workers
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    grid = default_grid(rid, **options)
    serial = [r.to_json() for r in sweep(rid, grid)]
    assert serial and [r.to_json() for r in sweep(rid, grid, jobs=2)] == serial


def test_default_grids_exist_for_every_id():
    # ids with heavy default grids get narrowing options; grids stay non-empty
    narrow = {
        "classical-dr": {"bc_max": 6},
        "apostol-dr1": {"bc_max": 4, "p_values": (1, 3)},
        "berndt-dkr": {"ks": (3,), "bc_max": 6},
        "cck-rp": {"ks": (3,), "bc_max": 3, "p_values": (1,)},
        "rp1": {"ks": (3,), "bc_max": 2, "p_values": (2, 3)},
        "rp2": {"k_pairs": ((3, 4),), "bc_max": 2, "p_values": (2, 3)},
        "rp3": {"k_pairs": ((3, 4),), "bc_max": 2, "p_values": (2, 3)},
        "lek2": {"ks": (3,), "bc_max": 2, "p_values": (2, 3)},
        "lek3": {"k_pairs": ((3, 4),), "bc_max": 2, "p_values": (2, 3)},
        "em-theorem": {"ks": (3,), "l_values": (0, 1)},
        "further-c1k": {"ks": (3,), "p_values": (2, 3)},
        "further-bc1": {"ks": (3,), "p_values": (2, 3)},
        "further-eq20": {"ks": (3,), "bc_max": 2, "p_values": (2, 3)},
        "further-weighted": {"ks": (3,), "bc_max": 2, "p_values": (2, 3)},
        "int-32-oracle": {"count": 2},
        "int-17": {"count": 3},
        "int-36": {"ks": (3,)},
    }
    for identity_id in IDENTITY_IDS:
        grid = default_grid(identity_id, **narrow.get(identity_id, {}))
        assert grid, identity_id
        assert all(isinstance(pt, dict) for pt in grid)



def test_grid_overrides_asking_for_no_points_are_errors():
    # an override of 0 or () is not a request for the default grid
    for identity_id, override in (("em-theorem", {"l_values": ()}),
                                  ("em-theorem", {"l_values": range(0)}),
                                  ("int-17", {"count": 0}),
                                  ("int-32-oracle", {"count": -3}),
                                  ("classical-dr", {"bc_max": 0})):
        (name,) = override
        with pytest.raises(ValueError, match=name):
            default_grid(identity_id, **override)
    # overrides that leave the grid empty: no primitive character mod 2, no
    # l in 0..p-2 for p = 1
    for identity_id, overrides in (("rp1", {"ks": (2,)}),
                                   ("further-c1k", {"ks": (3,), "p_values": (1,)})):
        with pytest.raises(ValueError, match=f"leave no {identity_id} points"):
            default_grid(identity_id, **overrides)
    assert len(default_grid("int-17", count=1)) == 3  # one drawn, two fixed
    assert {pt["l"] for pt in default_grid("em-theorem", ks=(3,), l_values=(0,))} == {0}


def test_grid_overrides_are_the_builders_parameters():
    # an override the grid does not take is an error; every grid takes seed
    for identity_id, override in (("int-24", {"ks": (3,)}), ("classical-dr", {"ks": (3,)}),
                                  ("rp2", {"coprime": False}), ("raabe", {"rng": None})):
        (name,) = override
        with pytest.raises(ValueError, match=f"grid takes no override '{name}'"):
            default_grid(identity_id, **override)
    for identity_id in IDENTITY_IDS:
        assert default_grid(identity_id, seed=0) == default_grid(identity_id)
    assert default_grid("rp1", ks=(3,), bc_max=2, coprime=True) == [
        pt for pt in default_grid("rp1", ks=(3,), bc_max=2) if math.gcd(pt["b"], pt["c"]) == 1]

def test_sweep_jobs_clamped(monkeypatch):
    # a fake pool records max_workers and runs serially: no process starts
    import concurrent.futures

    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    grid = default_grid("classical-dr", bc_max=6)
    serial = [r.to_json() for r in sweep("classical-dr", grid)]
    assert [r.to_json() for r in sweep("classical-dr", grid, jobs=10 ** 6)] == serial
    sweep("classical-dr", grid[:3], jobs=64)
    assert seen == [4, 3]  # at most one worker per CPU and per point
    for jobs in (0, -5, 1):
        sweep("classical-dr", grid, jobs=jobs)
    sweep("classical-dr", grid[:1], jobs=8)
    monkeypatch.setattr("os.cpu_count", lambda: None)
    sweep("classical-dr", grid, jobs=8)
    assert seen == [4, 3]  # each of these ran serially, with no pool


# every character mod 3..8: orders 1, 2, 4 and 6, principal and imprimitive ones too
MIXED = [chi for k in range(3, 9) for chi in enumerate_characters(k)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(-40, 40), st.integers(-40, 40),
       st.sampled_from(MIXED), st.sampled_from(MIXED))
@example(2, 1, 1, character_from_label(7, "1"), character_from_label(5, "1"))  # e = 12
@example(3, 0, 5, character_from_label(4, "1"), character_from_label(8, "0.0"))
def test_binom_charbernoulli_sum_matches_binomial_convolution(p, b, c, chi_left, chi_right):
    got = _binom_charbernoulli_sum(p, b, c, chi_left, chi_right)
    want = binomial_convolution(p + 1, F(b), F(c), lambda j: gen_bernoulli_number(chi_right, j),
                                lambda j: gen_bernoulli_number(chi_left, j))
    assert got.order == want.order
    assert got.coeffs == want.coeffs


# rp3 beyond coprime moduli: on the (4, 8) and (8, 4) slice, 192 of the 208
# mismatches lie outside k2 | b and k1 | c.  Every one of them meets the
# observed (not proved) condition lcm(k1, k2) | gcd(b k1, c k2), and the
# cross-modulus correction term explains every gap exactly.  The digest pins
# the canonical JSON of the mismatch reports, in sweep order.
RP3_NON_COPRIME_MISMATCHES = 'a9f0f40344b6f912ffbd904e7cd4830bc616c012ba5141c0a2f971f177862a3c'


def test_rp3_mismatch_set_beyond_coprime_moduli():
    reports = sweep("rp3", default_grid("rp3", k_pairs=((4, 8), (8, 4)), bc_max=12))
    agg = aggregate("rp3", reports)
    assert (agg["total"], agg["mismatch"], agg["exact_equal"], agg["vacuous"]) == \
        (2304, 208, 944, 1152)
    bad = [r.params for r in reports if r.verdict == "mismatch"]
    moduli = [(p["char1"].modulus, p["char2"].modulus) for p in bad]
    assert sum(p["b"] % k2 != 0 or p["c"] % k1 != 0
               for p, (k1, k2) in zip(bad, moduli)) == 192
    assert all(math.gcd(p["b"] * k1, p["c"] * k2) % math.lcm(k1, k2) == 0
               for p, (k1, k2) in zip(bad, moduli))
    assert all("explains the gap exactly" in r.notes for r in reports if r.verdict == "mismatch")
    assert any((k1, k2, p["p"], p["b"], p["c"]) == (8, 4, 2, 1, 10)
               for p, (k1, k2) in zip(bad, moduli))
    stream = "\n".join(r.to_json() for r in reports if r.verdict == "mismatch")
    assert hashlib.sha256(stream.encode()).hexdigest() == RP3_NON_COPRIME_MISMATCHES
