"""The budget module: every limit refuses an input just over it with a
BudgetError that names it, the error survives a process pool, and the CLI
words it as over budget, at once."""

import math
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from dedsums import bernoulli, budget, dedekind, dirichlet, laplace
from dedsums.bernoulli import PeriodicFactor, bernoulli_poly, piecewise_product_integral
from dedsums.budget import BudgetError
from dedsums.verify import _bc_pairs, verify_identity

_PERIODIC_BOUND = float(sum(abs(c) for c in bernoulli_poly(2).coeffs))

# name -> (a call just over the limit, the amount it asks for)
_JUST_OVER = {
    "BERNOULLI_BUDGET": (lambda: bernoulli.bernoulli_number(501), 501),
    "TABLE_BUDGET": (lambda: bernoulli._periodic_table(1, budget.TABLE_BUDGET + 1),
                     budget.TABLE_BUDGET + 1),
    # the sawtooth of slope 1 breaks at every integer inside (0, 100002)
    "CUT_BUDGET": (lambda: piecewise_product_integral(1, [PeriodicFactor(1, F(1))], F(0),
                                                      F(budget.CUT_BUDGET + 2)),
                   budget.CUT_BUDGET + 1),
    "SUM_BUDGET": (lambda: dedekind.classical_dedekind_sum(1, budget.SUM_BUDGET + 1),
                   budget.SUM_BUDGET + 1),
    "GRID_BUDGET": (lambda: _bc_pairs(math.isqrt(budget.GRID_BUDGET) + 1),
                    (math.isqrt(budget.GRID_BUDGET) + 1) ** 2),
    "MODULUS_BUDGET": (lambda: dirichlet.enumerate_characters(budget.MODULUS_BUDGET + 1),
                       budget.MODULUS_BUDGET + 1),
    # the estimates at these s are a few periods or blocks over the limit
    "TERM_BUDGET": (lambda: laplace.periodic_laplace_numeric(2, F(1), F(0), 0.0085),
                    laplace._periodic_periods(_PERIODIC_BOUND, F(1), 0.0085)),
    "DEGREE_BUDGET": (lambda: laplace.product_laplace_numeric(0, budget.DEGREE_BUDGET + 1, 1.0),
                      budget.DEGREE_BUDGET + 1),
    "SERIES_TERM_BUDGET": (lambda: laplace.periodic_laplace_series(
        2, F(1), F(0), 1.0, budget.SERIES_TERM_BUDGET + 1), budget.SERIES_TERM_BUDGET + 1),
    "INT_23_DEGREE_BUDGET": (lambda: verify_identity("int-23",
                                                     {"p": budget.INT_23_DEGREE_BUDGET + 1}),
                             budget.INT_23_DEGREE_BUDGET + 1),
}


def test_every_limit_is_covered():
    assert set(_JUST_OVER) == {name for name in vars(budget) if name.endswith("_BUDGET")}


@pytest.mark.parametrize("name", sorted(_JUST_OVER))
def test_an_input_just_over_a_limit_names_it(name):
    call, amount = _JUST_OVER[name]
    limit = getattr(budget, name)
    assert limit < amount < 1.01 * limit + 2
    with pytest.raises(BudgetError) as info:
        call()
    error = info.value
    assert (error.name, error.amount, error.limit) == (name, amount, limit)
    assert str(error).endswith(f" is over {name} = {limit}")


def test_product_transforms_refuse_just_over_the_term_budget():
    amount = laplace._product_count(2, 2, 0.0192)
    assert budget.TERM_BUDGET < amount < 1.01 * budget.TERM_BUDGET
    for transform in (laplace.product_laplace_numeric, laplace.product_laplace_closed):
        with pytest.raises(BudgetError) as info:
            transform(2, 2, 0.0192)
        assert (info.value.name, info.value.amount) == ("TERM_BUDGET", amount)


def test_product_transforms_weight_their_count_by_digits():
    # 2,401 terms at 230 digits, not 35: within the budget unweighted, it
    # took 18.8 s
    assert_refused_at_once(["verify", "--id", "laplace-product", "--m", "50", "--n", "50",
                            "--s", "0.3"], "TERM_BUDGET")


def test_require_fills_the_amount_in():
    budget.require("SUM_BUDGET", budget.SUM_BUDGET, "never {} raised")
    with pytest.raises(BudgetError, match=r"^a sum of 1000001 terms is over SUM_BUDGET = "
                                          r"1000000$"):
        budget.require("SUM_BUDGET", budget.SUM_BUDGET + 1, "a sum of {} terms")


def test_budget_error_pickles():
    # a sweep worker's refusal is pickled back to the parent process
    error = BudgetError("modulus 1001 is over MODULUS_BUDGET = 1000", "MODULUS_BUDGET", 1001,
                        1000)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is BudgetError and isinstance(back, ValueError)
    assert (back.args, back.name, back.amount, back.limit) == (
        error.args, "MODULUS_BUDGET", 1001, 1000)


def assert_refused_at_once(args, name):
    """A usage error (exit 1, nothing on stdout) in under 1 s, ending with
    the budget's name and limit; verify and sweep word it as over budget for
    the id, every other command as it words any bad input."""
    env = dict(os.environ, PYTHONPATH=str(Path(budget.__file__).resolve().parent.parent))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "dedsums.cli", *args], capture_output=True,
                          text=True, env=env, timeout=5)
    assert time.monotonic() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    prefix = (f"error: over budget for {args[args.index('--id') + 1]}: "
              if args[0] in ("verify", "sweep") else "error: ")
    assert proc.stderr.startswith(prefix) and proc.stderr.endswith(
        f" is over {name} = {getattr(budget, name)}\n"), proc.stderr


# Each reads a Bernoulli index far over the budget, refused before the
# factorials, binomials or lcm(1..deg+1) that would take seconds to minutes.
@pytest.mark.parametrize("args", [
    ["verify", "--id", "int-24", "--n", "1000000", "--m", "1000000", "--b1", "1", "--b2", "1",
     "--y1", "0", "--y2", "0", "--x", "1"],
    ["verify", "--id", "int-28", "--n", "1000000", "--m", "1000000", "--y1", "0", "--y2", "0",
     "--x", "1"],
    ["verify", "--id", "int-36", "--n", "1000000", "--m", "1000000", "--b1", "1", "--b2", "1",
     "--y1", "0", "--y2", "0", "--x", "1", "--char1", "3:1", "--char2", "3:1"],
    ["verify", "--id", "int-17", "--degrees", "1000000", "--offsets", "0", "--q", "1"],
    ["verify", "--id", "int-32-oracle", "--degrees", "1000000", "--slopes", "1", "--offsets",
     "0", "--x", "1"],
    ["verify", "--id", "further-c1k", "--char1", "3:1", "--char2", "3:1", "--p", "100000",
     "--l", "0"],
    ["verify", "--id", "further-eq20", "--char1", "3:1", "--char2", "3:1", "--p", "1000000",
     "--l", "0", "--b", "1", "--c", "1"],
    # k^(p-1) = 3^(2^31 - 1), the scale of the twisted factors, was formed first
    ["verify", "--id", "further-bc1", "--char1", "3:1", "--char2", "3:1", "--p", "2147483648",
     "--l", "0"],
    ["verify", "--id", "further-weighted", "--char1", "3:1", "--char2", "3:1", "--p",
     "2147483648", "--l", "0", "--b", "1", "--c", "1"],
    # each degree is within the budget; their sum, the expansion's degree, is not
    ["integral", "direct", "--degrees", "499,499,499,499", "--slopes", "1,1,1,1", "--offsets",
     "1/3,0,0,0", "--x", "1/7"],
], ids=lambda args: args[2] if args[0] == "verify" else " ".join(args[:2]))
def test_a_bernoulli_index_over_budget_is_refused_at_once(args):
    assert_refused_at_once(args, "BERNOULLI_BUDGET")


@pytest.mark.parametrize("args, name", [
    # a frame of 666,666 cuts: refused before the literal sum of 10^6 terms,
    # which took 7 s before the closed side was built first
    (["verify", "--id", "em-theorem", "--char", "3:1", "--f", "0,1", "--alpha", "0",
      "--beta", "999999", "--l", "0"], "CUT_BUDGET"),
    # c = SUM_BUDGET terms of degree 500, each of about 500 log q digits
    (["verify", "--id", "raabe", "--p", "499", "--c", "1000000", "--x", "4/7"], "TABLE_BUDGET"),
], ids=["em-theorem-cuts", "raabe-degree-times-terms"])
def test_a_literal_sum_over_budget_is_refused_before_its_first_term(args, name):
    assert_refused_at_once(args, name)


_SLOPE = "1" + "0" * 900


@pytest.mark.parametrize("args", [
    ["verify", "--id", "further-eq20", "--char1", "3:1", "--char2", "3:1", "--p", "2", "--l", "0",
     "--b", _SLOPE, "--c", "1"],
    ["verify", "--id", "further-weighted", "--char1", "3:1", "--char2", "3:1", "--p", "2",
     "--l", "0", "--b", "1", "--c", _SLOPE],
], ids=["further-eq20-b", "further-weighted-c"])
def test_a_901_digit_slope_is_refused_at_once(args):
    # the cut count, 2 * 10^900, passed sys.maxsize as the len() of a range:
    # an OverflowError traceback
    assert_refused_at_once(args, "CUT_BUDGET")


def test_sweep_refuses_a_point_over_budget_in_a_worker_at_once():
    # p = 600 reads B_601 in each of two worker processes, which send the
    # refusal back to the parent
    assert_refused_at_once(["sweep", "--id", "rp1", "--k", "5", "--p-range", "600",
                            "--bc-max", "1", "--jobs", "2"], "BERNOULLI_BUDGET")


def test_sweep_refuses_a_grid_over_budget_at_once():
    assert_refused_at_once(["sweep", "--id", "rp1", "--k", "1001"], "MODULUS_BUDGET")


@pytest.mark.parametrize("args", [
    ["sweep", "--id", "classical-dr", "--bc-max", "2147483648"],
    ["sweep", "--id", "int-32-oracle", "--count", "2147483648"],
    # 165 primitive characters mod 501: 27,225 pairs times 5 p values times
    # 64 (b, c) pairs
    ["sweep", "--id", "rp1", "--k", "501"],
], ids=["bc-max", "count", "char-pairs"])
def test_sweep_refuses_a_grid_of_too_many_points_before_building_it(args):
    # each was still running after 5 s, building its grid, before grids were counted
    assert_refused_at_once(args, "GRID_BUDGET")
