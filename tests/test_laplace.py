"""Laplace transforms of B_m(u) periodic_B_n(u) and periodic_B_n(tu + y): the
numeric and closed sides against reference copies of their first form, which
recomputed every moment on every block, summed each derivative order on its
own and ran each stop rule on mpf values alone; the character values against
the conversion loop that built every power of zeta anew; the moment count
and the precision in the moment and power tables' keys; and the refusal of
an s that the block sum, the derivative series or the period sum of the
periodic transform cannot afford."""

import functools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpc, mpf, exp as mp_exp
from mpmath.libmp import mpf_exp

import dedsums
from dedsums import budget, laplace
from dedsums.bernoulli import bernoulli_number, bernoulli_poly
from dedsums.charbernoulli import gen_bernoulli_number
from dedsums.cli import main
from dedsums.dirichlet import character_from_label
from dedsums.verify import default_grid
from test_budget import assert_refused_at_once

_DPS, _TAIL, _mpq = laplace._DPS, laplace._TAIL, laplace._mpq

M_N = [(m, n) for m in range(7) for n in range(7)]
S_VALUES = (0.3, 0.55, 1.0, 2.5, 7.0)


# --- reference copies of the block-by-block form -----------------------------
# Memoising the pure _ref_moment and _ref_inv_expm1_derivative only saves test
# time: each block asks for the same (i, x, s) again, each r of the closed form
# for the same (j, s), and gets the value computed the first time.

@functools.lru_cache(maxsize=None)
def _ref_moment(i, x, s):
    if x > 40:
        head = term = mpf(1)
        for m in range(1, i + 1):
            term *= x / m
            head += term
        tail_factor = 1 - mp_exp(-x) * head
    else:
        term = x ** (i + 1) / math.factorial(i + 1)
        tail = term
        m = i + 1
        eps = mpf(10) ** (-_DPS - 5)
        while term > eps * tail:
            m += 1
            term *= x / m
            tail += term
        tail_factor = mp_exp(-x) * tail
    fact_over_s = mpf(math.factorial(i)) / s ** (i + 1)
    return fact_over_s * tail_factor


def _ref_exp_poly_block(coeffs, L, s):
    x = s * L
    total = mpf(0)
    for i, c in enumerate(coeffs):
        if c:
            total += _mpq(c) * _ref_moment(i, x, s)
    return total


def _ref_product_numeric(m, n, s):
    s = mpf(str(float(s)))
    with mp.workdps(_DPS):
        bn = bernoulli_poly(n)
        bm = bernoulli_poly(m)
        amp_n = float(sum(abs(c) for c in bn.coeffs))
        total = mpf(0)
        j = 0
        while True:
            piece = bm.compose_affine(Fraction(1), Fraction(j)) * bn
            total += mp_exp(-s * j) * _ref_exp_poly_block(piece.coeffs, mpf(1), s)
            mx = sum(abs(float(c)) * (j + 2.0) ** i for i, c in enumerate(bm.coeffs)) * amp_n
            if mx * mp_exp(-s * (j + 1)) / (s * (1 - mp_exp(-s))) < _TAIL * (1 + abs(total)) \
                    and j >= 2:
                return float(total)
            j += 1


@functools.lru_cache(maxsize=None)
def _ref_inv_expm1_derivative(j, s):
    total = mpf(0)
    eps = mpf(10) ** (-_DPS - 5)
    l = 1
    while True:
        term = (-l) ** j * mp_exp(-l * s)
        total += term
        if abs(term) < eps * (1 + abs(total)) and l > j / s + 2:
            return total
        l += 1
        if l > 200000:
            raise RuntimeError("series for the derivative did not converge")


def _ref_product_closed(m, n, s):
    s = mpf(str(float(s)))
    with mp.workdps(_DPS):
        total = mpf(0)
        for r in range(m + 1):
            w = math.comb(m, r) * _mpq(bernoulli_number(m - r))
            if w == 0:
                continue
            inner = mpf(0)
            for a in range(n + 1):
                inner += math.comb(n, a) * math.factorial(n + r - a) / s ** (n + 1 + r - a) \
                    * _mpq(bernoulli_number(a))
            der = mpf(0)
            for i in range(r + 1):
                ds_pow = (-1) ** i * math.prod(range(n, n + i)) * s ** (-n - i)
                der += math.comb(r, i) * ds_pow * _ref_inv_expm1_derivative(r - i, s)
            inner -= math.factorial(n) * (-1) ** r * der
            total += w * inner
        return float(total)


def _ref_periodic_numeric(n, t, y, s, ties=None):
    """(value, periods) of the periodic transform; ties, if given, gets
    |A/B - 1| of the stop rule's two sides A < B at each period."""
    t, y = Fraction(t), Fraction(y)
    s = mpf(str(float(s)))
    bound = float(sum(abs(c) for c in bernoulli_poly(n).coeffs))
    with mp.workdps(_DPS):
        period = Fraction(1) / t
        m0 = math.floor(y)
        u0 = Fraction(m0 + 1 - y, t)
        head_piece = bernoulli_poly(n).compose_affine(t, y - m0)
        base_piece = bernoulli_poly(n).compose_affine(t, Fraction(0))
        total = _ref_exp_poly_block(head_piece.coeffs, _mpq(u0), s)
        base = _ref_exp_poly_block(base_piece.coeffs, _mpq(period), s)
        rho = mp_exp(-s * _mpq(period))
        damp = mp_exp(-s * _mpq(u0))
        gap = s * (1 - rho)
        periods = 0
        while True:
            total += damp * base
            damp *= rho
            periods += 1
            lhs, rhs = damp * bound / gap, _TAIL * (1 + abs(total))
            if ties is not None:
                ties.append(abs(lhs / rhs - 1))
            if lhs < rhs:
                return float(total), periods


def _periodic_numeric(n, t, y, s):
    """(value, periods) of laplace.periodic_laplace_numeric, the periods
    counted through the screen of its stop rule, which runs once a period."""
    periods = []
    screen = laplace._screened_below_tail
    with mock.patch.object(laplace, "_screened_below_tail",
                           lambda *a: periods.append(a) or screen(*a)):
        value = laplace.periodic_laplace_numeric(n, t, y, s)
    return value, len(periods)


def _char_residue_calls(point):
    """The (n, t, y, s) of each periodic transform that char_laplace_numeric
    sums for a laplace-char point."""
    chi, k = point["char"], point["char"].modulus
    return [(point["n"], Fraction(point["t"], k), Fraction(m, k), point["s"])
            for m in range(k) if not chi.conjugate()(m).is_zero()]


# --- bit-identical floats ----------------------------------------------------

@pytest.mark.parametrize("s", S_VALUES)
def test_product_numeric_matches_block_reference(s):
    for m, n in M_N:
        assert laplace.product_laplace_numeric(m, n, s) == _ref_product_numeric(m, n, s), (m, n)


@pytest.mark.parametrize("s", S_VALUES)
def test_product_closed_matches_reference(s):
    for m, n in M_N:
        assert laplace.product_laplace_closed(m, n, s) == _ref_product_closed(m, n, s), (m, n)


# The screen settles the periodic stop rule in doubles: the same floats, and
# the same period count, as the rule on mpf values alone.

def test_periodic_numeric_matches_reference_on_the_laplace_16_grid():
    for pt in default_grid("laplace-16"):
        args = pt["n"], pt["t"], pt["y"], pt["s"]
        assert _periodic_numeric(*args) == _ref_periodic_numeric(*args), pt


def test_periodic_numeric_matches_reference_on_the_laplace_char_residues():
    for pt in default_grid("laplace-char"):
        for args in _char_residue_calls(pt):
            assert _periodic_numeric(*args) == _ref_periodic_numeric(*args), args


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.fractions(Fraction(1, 4), 10, max_denominator=12),
       st.fractions(-3, 3, max_denominator=30), st.floats(0.05, 10))
def test_periodic_numeric_matches_reference_on_draws(n, t, y, s):
    assume(laplace._periodic_periods(_periodic_bound(n), t, s) <= budget.TERM_BUDGET)
    assert _periodic_numeric(n, t, y, s) == _ref_periodic_numeric(n, t, y, s)


# Points at which the stop rule's sides tie to within 1e-9 at some period: s
# was bisected to the edge between two period counts, so each pair holds one
# point that stops at the tie and one that goes on past it.
NEAR_TIES = [
    (2, Fraction(1), Fraction(0), 1.0134603192226463),
    (2, Fraction(1), Fraction(0), 1.0134603192226466),
    (3, Fraction(3, 4), Fraction(1, 3), 0.5041434165972232),
    (3, Fraction(3, 4), Fraction(1, 3), 0.5041434165972233),
    (5, Fraction(2), Fraction(5, 7), 2.022333279694924),
    (5, Fraction(2), Fraction(5, 7), 2.0223332796949243),
    (1, Fraction(10), Fraction(1, 2), 0.20009438418777725),
    (1, Fraction(10), Fraction(1, 2), 0.20009438418777728),
]


@pytest.mark.parametrize("n,t,y,s", NEAR_TIES)
def test_periodic_numeric_matches_reference_at_near_ties(n, t, y, s):
    ties = []
    expected = _ref_periodic_numeric(n, t, y, s, ties)
    assert min(ties) < 1e-9, min(ties)
    assert _periodic_numeric(n, t, y, s) == expected


# Points at which the transform cancels to about 1e-21 of its amplitude
# bound (s bisected to a zero of the transform in s): the double total is
# far off the mpf one, and only its error bound keeps the screen right.
CANCELLING = [
    (50, Fraction(1), Fraction(1, 64), 0.6188397384572331),
    (50, Fraction(1), Fraction(1, 128), 0.3086731006595357),
    (50, Fraction(1), Fraction(1, 256), 0.15424354174630442),
]


@pytest.mark.parametrize("n,t,y,s", CANCELLING)
def test_periodic_numeric_matches_reference_under_cancellation(n, t, y, s):
    expected = _ref_periodic_numeric(n, t, y, s)
    assert abs(expected[0]) < 1e-20 * _periodic_bound(n), expected
    assert _periodic_numeric(n, t, y, s) == expected


def test_exact_stop_rule_runs_on_few_periods():
    # a screen that handed every period to the mpf rule would pass the tests
    # above and save nothing
    screened, exact = [], []
    screen, below_tail = laplace._screened_below_tail, laplace._below_tail
    with mock.patch.object(laplace, "_screened_below_tail",
                           lambda *a: screened.append(a) or screen(*a)), \
            mock.patch.object(laplace, "_below_tail",
                              lambda *a: exact.append(a) or below_tail(*a)):
        for pt in default_grid("laplace-16"):
            laplace.periodic_laplace_numeric(pt["n"], pt["t"], pt["y"], pt["s"])
    assert len(exact) < 0.05 * len(screened), (len(exact), len(screened))


def _ref_mp_complex(value):
    zeta = mp_exp(2j * mp.pi / value.order)
    acc = mpc(0)
    power = mpc(1)
    for c in value.coeffs:
        acc += _mpq(c) * power
        power *= zeta
    return acc


def _character_values():
    values = [chi(a) for k in (5, 7, 13, 16) for chi in dedsums.enumerate_characters(k)
              for a in range(k)]
    chi997 = character_from_label(997, "1")
    values += [chi997(a) for a in (1, 2, 3, 5, 100, 498, 499, 996)]
    values += [gen_bernoulli_number(chi, a) for k in (5, 7, 16)
               for chi in dedsums.enumerate_characters(k, "nonprincipal_primitive")
               for a in range(5)]
    return values


@pytest.mark.parametrize("dps", (_DPS, 60))
def test_character_values_convert_as_the_loop_did(dps):
    with mp.workdps(dps):
        for value in _character_values():
            assert laplace._mp_complex(value) == _ref_mp_complex(value), value


def test_a_power_chain_is_not_served_at_another_precision():
    laplace._zeta_powers.cache_clear()
    values = _character_values()
    for first, second in ((_DPS, 60), (60, _DPS)):
        with mp.workdps(first):
            [laplace._mp_complex(v) for v in values]
        with mp.workdps(second):
            for value in values:
                assert laplace._mp_complex(value) == _ref_mp_complex(value), (first, value)


# The floats hide the last terms of each series (they sit below 10^-35 of the
# sum, the series stop at 10^-40), so the mpf values are compared as well, also
# at 60 digits, where one term more or less changes the result.
PRECISIONS = (_DPS, 60)


@pytest.mark.parametrize("dps", PRECISIONS)
@pytest.mark.parametrize("s", S_VALUES)
def test_shared_derivative_series_match_each_order(s, dps):
    s = mpf(str(s))
    with mp.workdps(dps):
        derivatives = laplace._inv_expm1_derivatives(6, s._mpf_, _DPS, mp.prec)
        assert len(derivatives) == 7
        for j, value in enumerate(derivatives):
            assert mp.make_mpf(value) == _ref_inv_expm1_derivative.__wrapped__(j, s), j


def _moments(k, L, s):
    """laplace._moments on the mpf L and s, at mp.prec, as mpf values."""
    return [mp.make_mpf(v) for v in laplace._moments(k, L._mpf_, s._mpf_, mp.prec)]


@pytest.mark.parametrize("dps", PRECISIONS)
@pytest.mark.parametrize("s", S_VALUES)
def test_moments_match_reference(s, dps):
    s = mpf(str(s))
    with mp.workdps(dps):
        for L in (mpf(1), _mpq(Fraction(1, 3)), _mpq(Fraction(7, 2)), mpf(7)):
            expected = [_ref_moment.__wrapped__(i, s * L, s) for i in range(13)]
            assert _moments(12, L, s) == expected, L


def test_a_moment_is_not_served_at_another_precision():
    # at L = 1 the raw x = s L and s are the same tuples at 35 and at 60
    # digits: only the precision in the table's key tells the two apart
    s = mpf("0.55")
    with mp.workdps(_DPS):
        _moments(12, mpf(1), s)
    with mp.workdps(60):
        expected = [_ref_moment.__wrapped__(i, s, s) for i in range(13)]
        assert _moments(12, mpf(1), s) == expected


@pytest.fixture
def cold_moments():
    """An empty moment table, so that a count sees every moment computed."""
    laplace._moment.cache_clear()


@pytest.mark.parametrize("s", S_VALUES)
def test_block_sums_match_reference(s):
    s = mpf(str(s))
    with mp.workdps(_DPS):
        for m, n in M_N:
            moments = laplace._moments(m + n, mpf(1)._mpf_, s._mpf_, mp.prec)
            for j in (0, 1, 5):
                piece = bernoulli_poly(m).compose_affine(Fraction(1), Fraction(j)) \
                    * bernoulli_poly(n)
                assert mp.make_mpf(laplace._exp_poly_block(piece.coeffs, moments, mp.prec)) \
                    == _ref_exp_poly_block(piece.coeffs, mpf(1), s), (m, n, j)


@pytest.mark.parametrize("m,n,s", [(0, 1, 1.0), (2, 3, 0.6), (5, 3, 1.25), (6, 6, 0.3)])
def test_moments_computed_once_per_transform(monkeypatch, cold_moments, m, n, s):
    calls = []
    moment = laplace._moment
    monkeypatch.setattr(laplace, "_moment", lambda *a: calls.append(a) or moment(*a))
    laplace.product_laplace_numeric(m, n, s)
    assert len(calls) == moment.cache_info().misses == m + n + 1


# --- refusing an s that cannot be afforded ----------------------------------

def test_default_grid_is_within_the_budget():
    for pt in default_grid("laplace-product"):
        m, s = pt["m"], pt["s"]
        assert laplace._product_blocks(m, s) <= budget.TERM_BUDGET, pt
        assert laplace._series_terms(m, s) <= budget.TERM_BUDGET, pt


@pytest.mark.parametrize("m,n,s", [(0, 1, 7.0), (2, 2, 1.0), (6, 6, 0.3), (3, 1, 0.1),
                                   (6, 1, 0.06)])
def test_estimates_track_the_counts(monkeypatch, cold_moments, m, n, s):
    # one e^(-x) per moment, one for e^(-s) and one per block on the numeric
    # side; one e^(-ls) per term of the longest series on the closed side
    calls = []
    monkeypatch.setattr(laplace, "mpf_exp", lambda *a: calls.append(a) or mpf_exp(*a))
    laplace.product_laplace_numeric(m, n, s)
    blocks = len(calls) - (m + n + 1) - 1
    calls.clear()
    laplace.product_laplace_closed(m, n, s)
    terms = len(calls)
    assert 0.8 <= laplace._product_blocks(m, s) / blocks <= 1.25, blocks
    assert 0.8 <= laplace._series_terms(m, s) / terms <= 1.25, terms


def periodic_laplace_at_y0(n, t, s):
    """The periodic transform in the (m, n, s) call shape of the product's."""
    return laplace.periodic_laplace_numeric(n, Fraction(t), Fraction(0), s)


@pytest.mark.parametrize("transform", [laplace.product_laplace_numeric,
                                       laplace.product_laplace_closed,
                                       periodic_laplace_at_y0])
@pytest.mark.parametrize("s", [0.0001, 1e-300, 5e-324])
def test_small_s_is_refused_naming_the_budget(monkeypatch, transform, s):
    # refused before the first moment or the first e^(-ls): fail, not hang, if not
    for name in ("mp_exp", "mpf_exp", "_moment"):
        monkeypatch.setattr(laplace, name, lambda *a: pytest.fail("work started"))
    with pytest.raises(ValueError, match="TERM_BUDGET"):
        transform(2, 2, s)


CHI5 = dedsums.enumerate_characters(5, "nonprincipal_primitive")[0]


# the other transforms in the same call shape
def periodic_closed_at_y0(n, t, s):
    return laplace.periodic_laplace_closed(n, Fraction(t), Fraction(0), s)


def tail_series_at_y0(n, t, s):
    return laplace.periodic_laplace_series(n, Fraction(t), Fraction(0), s, 10)


def char_numeric_mod_5(n, t, s):
    return laplace.char_laplace_numeric(CHI5, n, Fraction(t), s)


def char_closed_mod_5(n, t, s):
    return laplace.char_laplace_closed(CHI5, n, Fraction(t), s)


ALL_TRANSFORMS = [laplace.product_laplace_numeric, laplace.product_laplace_closed,
                  periodic_laplace_at_y0, periodic_closed_at_y0, tail_series_at_y0,
                  char_numeric_mod_5, char_closed_mod_5]


@pytest.mark.parametrize("transform", ALL_TRANSFORMS)
@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_non_finite_s_is_refused(monkeypatch, transform, s):
    # the closed forms returned nan, and the series nan or a |s/t| refusal
    for name in ("mp_exp", "mpf_exp", "bernoulli_poly", "periodic_bernoulli"):
        monkeypatch.setattr(laplace, name, lambda *a: pytest.fail("work started"))
    with pytest.raises(ValueError, match="s must be finite"):
        transform(2, 2, s)


@pytest.mark.parametrize("transform", ALL_TRANSFORMS[2:])
@pytest.mark.parametrize("t", [0, -1])
def test_t_at_most_zero_is_refused(monkeypatch, transform, t):
    # the periodic closed form divided by zero at t = 0 and gave a value at t = -1
    for name in ("mp_exp", "mpf_exp", "bernoulli_poly", "periodic_bernoulli"):
        monkeypatch.setattr(laplace, name, lambda *a: pytest.fail("work started"))
    with pytest.raises(ValueError, match="t must be positive"):
        transform(2, t, 1.0)


def test_long_tail_series_is_refused_before_the_first_term(monkeypatch):
    monkeypatch.setattr(laplace, "periodic_bernoulli", lambda *a: pytest.fail("work started"))
    with pytest.raises(ValueError, match="SERIES_TERM_BUDGET = 200"):
        laplace.periodic_laplace_series(2, Fraction(1), Fraction(0), 1.0,
                                        budget.SERIES_TERM_BUDGET + 1)


def test_cli_refuses_a_long_tail_series_at_once(capsys):
    # the tail series is no verify option: the parser refuses --series-terms
    # before any point is built (SERIES_TERM_BUDGET still bounds the series)
    code = main(["verify", "--id", "laplace-16", "--n", "2", "--t", "1", "--y", "0",
                 "--s", "1", "--series-terms", "1000"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "unrecognized arguments: --series-terms 1000" in err, err


def _periodic_bound(n):
    return float(sum(abs(c) for c in bernoulli_poly(n).coeffs))


def test_periodic_default_grids_are_within_the_budget():
    # laplace-char sums periodic transforms at slope t/k
    for pt in default_grid("laplace-16"):
        n, t, s = pt["n"], pt["t"], pt["s"]
        assert laplace._periodic_periods(_periodic_bound(n), t, s) <= budget.TERM_BUDGET, pt
    for pt in default_grid("laplace-char"):
        n, t, s = pt["n"], pt["t"] / pt["char"].modulus, pt["s"]
        assert laplace._periodic_periods(_periodic_bound(n), t, s) <= budget.TERM_BUDGET, pt


@pytest.mark.parametrize("n,t,s", [(1, Fraction(1), 0.5), (4, Fraction(3), 0.5),
                                   (2, Fraction(3), 2.0), (4, Fraction(3, 4), 0.5),
                                   (3, Fraction(10), 0.2)])
def test_periodic_estimate_tracks_the_count(n, t, s):
    _, periods = _periodic_numeric(n, t, Fraction(0), s)
    assert 0.8 <= laplace._periodic_periods(_periodic_bound(n), t, s) / periods <= 1.25, periods


def test_periodic_huge_t_is_refused_without_overflow(monkeypatch):
    for name in ("_moments", "_moment", "mpf_exp"):
        monkeypatch.setattr(laplace, name, lambda *a: pytest.fail("work started"))
    with pytest.raises(ValueError, match="TERM_BUDGET"):
        laplace.periodic_laplace_numeric(1, Fraction(10) ** 400, Fraction(0), 1.0)


def test_cli_refuses_small_s_of_the_periodic_transform_at_once():
    # without the refusal this command runs for minutes
    assert_refused_at_once(["verify", "--id", "laplace-16", "--n", "2", "--t", "1000", "--y", "0",
                            "--s", "0.0001"], "TERM_BUDGET")


def test_cli_refuses_small_s_at_once():
    # without the refusal this command runs for minutes
    assert_refused_at_once(["verify", "--id", "laplace-product", "--m", "2", "--n", "2",
                            "--s", "0.0001"], "TERM_BUDGET")


# --- refusing a degree whose floats would overflow ---------------------------

@pytest.mark.parametrize("transform,args", [
    (laplace.periodic_laplace_numeric, (300, Fraction(1), Fraction(0), 1.0)),
    (laplace.periodic_laplace_closed, (300, Fraction(1), Fraction(0), 1.0)),
    (laplace.product_laplace_numeric, (200, 200, 1.0)),
    (laplace.product_laplace_closed, (2, 51, 1.0)),
    (laplace.char_laplace_closed, (dedsums.enumerate_characters(5)[1], 51, Fraction(1), 1.0)),
])
def test_large_degree_is_refused_naming_the_budget(monkeypatch, transform, args):
    # refused before B_n is built, so before any float is formed from it
    for name in ("bernoulli_poly", "bernoulli_number", "gen_bernoulli_number"):
        monkeypatch.setattr(laplace, name, lambda *a: pytest.fail("work started"))
    with pytest.raises(ValueError, match="DEGREE_BUDGET = 50"):
        transform(*args)


def test_degree_budget_edge_runs():
    n = budget.DEGREE_BUDGET
    lhs = laplace.periodic_laplace_numeric(n, Fraction(1), Fraction(0), 1.0)
    assert math.isfinite(lhs)
    assert math.isfinite(laplace.product_laplace_numeric(2, n, 2.0))


def test_cli_refuses_a_large_periodic_degree_at_once():
    # without the refusal this command ends in an OverflowError traceback
    assert_refused_at_once(["verify", "--id", "laplace-16", "--n", "300", "--t", "1", "--y", "0",
                            "--s", "1"], "DEGREE_BUDGET")


def test_cli_refuses_a_large_product_degree_at_once():
    # without the refusal this command ends in an OverflowError traceback
    assert_refused_at_once(["verify", "--id", "laplace-product", "--m", "200", "--n", "200",
                            "--s", "1"], "DEGREE_BUDGET")


# --- the closed side's working precision -------------------------------------

def test_closed_digits_are_the_default_on_every_tested_point():
    # so the floats of the default grid and of the reference tests above are
    # computed exactly as before the precision grew with the cancellation
    points = [(pt["m"], pt["n"], pt["s"]) for pt in default_grid("laplace-product")]
    points += [(m, n, s) for m, n in M_N for s in S_VALUES]
    for m, n, s in points:
        assert laplace._closed_digits(m, n, s) == _DPS, (m, n, s)


def test_periodic_digits_are_the_default_on_the_default_grid():
    # so every default laplace-16 float is computed exactly as before the
    # precision grew with the cancellation
    for pt in default_grid("laplace-16"):
        assert laplace._periodic_digits(pt["n"], pt["t"], pt["s"]) == _DPS, pt


def test_large_n_periodic_point_verifies_with_the_raised_precision():
    # at 35 digits the closed side was off by 3e-3 relative: a false mismatch
    assert laplace._periodic_digits(40, Fraction(1), 1.0) > _DPS
    report = dedsums.verify_identity("laplace-16", {"n": 40, "t": Fraction(1),
                                                    "y": Fraction(0), "s": 1.0})
    assert report.verdict == "equal-within-tol", report.to_json()
    assert abs(report.lhs - report.rhs) <= 1e-15 * abs(report.lhs)


def test_modulus_one_character_transform_is_the_periodic_one():
    # periodic_B_{n,chi} of the modulus-1 character is periodic_B_n: its one
    # residue is 0
    chi1 = dedsums.enumerate_characters(1)[0]
    periodic = laplace.periodic_laplace_numeric(2, Fraction(3), Fraction(0), 0.5)
    assert laplace.char_laplace_numeric(chi1, 2, Fraction(3), 0.5) == complex(periodic)
    assert abs(laplace.char_laplace_closed(chi1, 2, Fraction(3), 0.5) - periodic) \
        <= 1e-12 * abs(periodic)


def test_small_s_product_verifies_with_the_raised_precision():
    # at 35 digits the closed side cancelled 26 of them: rhs 1.43025540e-4
    # against lhs 1.43025068e-4, a false mismatch
    assert laplace._closed_digits(6, 6, 0.05) > _DPS
    report = dedsums.verify_identity("laplace-product", {"m": 6, "n": 6, "s": 0.05})
    assert report.verdict == "equal-within-tol", report.to_json()
    assert abs(report.lhs - report.rhs) <= 1e-15 * abs(report.lhs)


def test_high_degree_product_verifies_with_the_raised_numeric_precision():
    # at 35 digits the numeric side's blocks, up to about 30!/0.5^30, cancelled
    # more digits than it kept: residual 3.6e-3, a false mismatch
    assert laplace._closed_digits(30, 2, 0.5) > _DPS
    report = dedsums.verify_identity("laplace-product", {"m": 30, "n": 2, "s": 0.5})
    assert report.verdict == "equal-within-tol", report.to_json()
    assert report.residual <= 1e-15
