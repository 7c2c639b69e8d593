"""CLI: JSON output, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dedsums
from dedsums.cli import main
from dedsums.dedekind import apostol_sum, char_pair_sum, classical_dedekind_sum, hat_sum, tilde_sum
from dedsums.dirichlet import character_from_label
from dedsums.exactnum import scalar_from_json, scalar_to_json
from dedsums.verify import IDENTITY_IDS, PARAMETERS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sum_classical(capsys):
    code, out, err = run(capsys, "sum", "--family", "classical", "--b", "2", "--c", "3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == "-1/18"
    assert payload["q"] == 1


def _character(text):
    k, _, label = text.partition(":")
    return character_from_label(int(k), label)


# each sum family: its characters, --char1 first, and its direct call at
# (p, b, c) = (2, 4, 6)
_SUM_FAMILIES = {
    "classical": ([], lambda: classical_dedekind_sum(4, 6)),
    "apostol": ([], lambda: apostol_sum(2, 4, 6)),
    "char_single": (["5:1"], lambda: char_pair_sum(2, 4, 6, _character("5:1"),
                                                   _character("5:1"))),
    "char_pair": (["5:1", "5:2"], lambda: char_pair_sum(2, 4, 6, _character("5:1"),
                                                        _character("5:2"))),
    "hat": (["3:1", "4:1"], lambda: hat_sum(2, 4, 6, _character("3:1"), _character("4:1"))),
    "tilde": (["3:1", "4:1"], lambda: tilde_sum(2, 4, 6, _character("3:1"),
                                                _character("4:1"))),
}


@pytest.mark.parametrize("family", list(_SUM_FAMILIES))
def test_sum_prints_the_direct_call_and_refuses_a_bad_spec(capsys, family):
    chars, direct = _SUM_FAMILIES[family]

    def flags(texts):
        return [arg for flag, text in zip(("--char1", "--char2"), texts) for arg in (flag, text)]

    point = ["sum", "--family", family, "--p", "2", "--b", "4", "--c", "6"]
    code, out, err = run(capsys, *point, *flags(chars))
    assert code == 0 and err == ""
    assert json.loads(out) == {"family": family, "p": 2, "b": 4, "c": 6, "q": 2, "chars": chars,
                               "value": scalar_to_json(direct())}
    bad = [point + ["--char2", "3:1"]]                   # --char2 without --char1
    if chars:
        bad.append(point + flags(chars[:-1]))            # a missing character
    if len(chars) < 2:
        bad.append(point + flags(chars + ["3:1"]))       # a stray one
    for key in ("--c", "--p"):
        argv = point + flags(chars)
        argv[argv.index(key) + 1] = "0"
        bad.append(argv)
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_bernoulli_number(capsys):
    code, out, _ = run(capsys, "bernoulli", "--number", "1")
    assert code == 0
    assert json.loads(out)["value"] == "-1/2"


def test_bernoulli_poly_and_periodic(capsys):
    code, out, _ = run(capsys, "bernoulli", "--poly", "2")
    assert code == 0 and json.loads(out)["coeffs"] == ["1/6", "-1", "1"]
    code, out, _ = run(capsys, "bernoulli", "--periodic", "2", "--x", "7/3")
    assert code == 0 and json.loads(out)["value"] == "-1/18"


def test_char_list_and_show(capsys):
    code, out, _ = run(capsys, "char", "list", "--modulus", "8",
                       "--filter", "primitive")
    assert code == 0
    chars = json.loads(out)
    assert len(chars) == 2 and all(c["conductor"] == 8 for c in chars)
    code, out, _ = run(capsys, "char", "show", "--modulus", "5", "--label", "1",
                       "--eval", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    value = scalar_from_json(payload["value_at"]["value"])
    assert value.order == 4


def test_char_sum_with_cyclotomic_value(capsys):
    code, out, _ = run(capsys, "sum", "--family", "char_pair", "--p", "2",
                       "--b", "1", "--c", "2", "--char1", "5:1", "--char2", "5:2")
    assert code == 0
    value = json.loads(out)["value"]
    assert value["order"] == 4 and len(value["coeffs"]) == 2


def test_integral_direct_and_formula_agree(capsys):
    args = ["--degrees", "2,3", "--slopes=2,-1/2", "--offsets=1/3,0", "--x", "5/4"]
    code1, out1, _ = run(capsys, "integral", "direct", *args)
    code2, out2, _ = run(capsys, "integral", "formula", *args)
    assert code1 == code2 == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_a_result_over_the_digit_limit_is_an_error_line(capsys):
    # x^11 has 9,901 digits, and B_10 at 1/x a denominator of 9,001: the
    # input parses, the result does not print
    x = "1" + "0" * 900
    for argv in (["integral", "direct", "--degrees", "10", "--slopes", "1", "--offsets", "0",
                  "--x", x],
                 ["verify", "--id", "int-32-oracle", "--degrees", "10", "--slopes", "1",
                  "--offsets", "0", "--x", x],
                 ["bernoulli", "--periodic", "10", "--x", f"1/{x}"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv[:2]
        assert err == (f"error: a result has an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits, the most Python converts "
                       "to text\n"), err


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--id", "classical-dr", "--b", "2", "--c", "3")
    assert code == 0 and json.loads(out)["verdict"] == "exact-equal"
    # the documented failing corollary point exits 2
    code, out, _ = run(capsys, "verify", "--id", "rp3", "--char1", "3:1",
                       "--char2", "4:1", "--p", "3", "--b", "4", "--c", "3")
    assert code == 2 and json.loads(out)["verdict"] == "mismatch"
    # int-24's slopes are rationals, as in its own grid
    code, out, _ = run(capsys, "verify", "--id", "int-24", "--n", "1", "--m", "1", "--b1", "1/2",
                       "--b2", "3", "--y1", "1/3", "--y2", "-2", "--x", "1/5")
    assert code == 0 and json.loads(out)["verdict"] == "exact-equal"
    assert json.loads(out)["params"]["b1"] == "1/2"


def test_verify_unknown_id(capsys):
    code, out, err = run(capsys, "verify", "--id", "bogus", "--b", "1")
    assert code == 1 and "unknown identity id" in err


def test_unknown_id_message_is_not_quoted(capsys):
    code, out, err = run(capsys, "verify", "--id", "nope")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown identity id 'nope'; known: ['apostol-dr1', ")
    code, out, err = run(capsys, "sweep", "--id", "nope")
    assert code == 1 and out == ""
    assert err == "error: no default grid for identity id 'nope'\n"


def test_bad_rational_literal(capsys):
    code, out, err = run(capsys, "bernoulli", "--periodic", "2", "--x", "1//3")
    assert code == 1 and "bad rational literal" in err


def test_bad_character_spec(capsys):
    code, out, err = run(capsys, "sum", "--family", "char_pair", "--p", "1",
                         "--b", "1", "--c", "1", "--char1", "wat", "--char2", "3:1")
    assert code == 1 and "bad character spec" in err


def test_char_show_rejects_modulus_below_one(capsys):
    code, out, err = run(capsys, "char", "show", "--modulus", "0", "--label", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "modulus must be >= 1" in err, err


def test_sweep_summary_and_exit(capsys):
    code, out, _ = run(capsys, "sweep", "--id", "classical-dr", "--bc-max", "8")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["mismatch"] == 0 and summary["total"] > 0
    code, out, _ = run(capsys, "sweep", "--id", "rp3", "--k-pairs", "3:4",
                       "--p-range", "3..3", "--bc-max", "4")
    assert code == 2
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["mismatch"] == 1
    report = json.loads(lines[0])  # mismatching points are always emitted
    assert report["verdict"] == "mismatch"


def test_sweep_reports_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--id", "raabe", "--reports")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 2  # per-point lines plus the summary
    for line in lines:
        json.loads(line)


def test_deterministic_output(capsys):
    argv = ["sweep", "--id", "int-32-oracle", "--count", "5", "--seed", "7",
            "--reports"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["verify", "--id", "laplace-16", "--n", "2", "--t", "2", "--y", "1/3",
            "--s", "0.5"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_round_trip_of_emitted_values(capsys):
    _, out, _ = run(capsys, "sum", "--family", "tilde", "--p", "2", "--b", "2",
                    "--c", "3", "--char1", "3:1", "--char2", "5:1")
    payload = json.loads(out)
    value = scalar_from_json(payload["value"])
    from dedsums.dedekind import tilde_sum
    from dedsums.dirichlet import character_from_label
    from dedsums.exactnum import scalars_equal
    direct = tilde_sum(2, 2, 3, character_from_label(3, "1"),
                       character_from_label(5, "1"))
    assert scalars_equal(value, direct)


def test_pretty_flag_both_positions(capsys):
    code1, out1, _ = run(capsys, "--pretty", "bernoulli", "--number", "4")
    code2, out2, _ = run(capsys, "bernoulli", "--number", "4", "--pretty")
    assert code1 == code2 == 0 and out1 == out2
    assert "\n" in out1.strip()


def test_usage_error_exit(capsys):
    assert main(["bernoulli"]) == 1          # missing mode flag
    capsys.readouterr()
    assert main(["nope"]) == 1               # unknown subcommand
    capsys.readouterr()


def test_bad_sweep_options_are_usage_errors(capsys):
    for argv in (["sweep", "--id", "rp2", "--k-pairs", "3x4"],
                 ["sweep", "--id", "rp1", "--p-range", "2..x"],
                 ["sweep", "--id", "rp1", "--k", "0"],
                 ["sweep", "--id", "cck-rp", "--k", "3", "--p-range=-1..-1"],
                 ["sweep", "--id", "classical-dr", "--bc-max", "0"],
                 ["sweep", "--id", "rp1", "--p-range", "5..2"],
                 ["sweep", "--id", "int-32-oracle", "--count", "0"],
                 ["sweep", "--id", "int-32-oracle", "--count", "-3"],
                 ["sweep", "--id", "int-17", "--count", "0"],
                 ["sweep", "--id", "rp1", "--k", "2"],
                 ["sweep", "--id", "further-c1k", "--k", "3", "--p-range", "1..1"],
                 ["char", "list", "--modulus", "0"],
                 ["bernoulli", "--periodic", "0", "--x", "1"],
                 ["bernoulli", "--number", "-1"],
                 ["bernoulli", "--poly", "-2"],
                 ["verify", "--id", "raabe", "--p", "1", "--c", "0", "--x", "1"],
                 ["verify", "--id", "raabe", "--p", "1", "--c", "-1", "--x", "1/3"],
                 ["verify", "--id", "raabe", "--p", "2", "--c", "-2", "--x", "0"],
                 ["verify", "--id", "int-24", "--n", "1", "--m", "1", "--b1", "0",
                  "--b2", "1", "--y1", "0", "--y2", "0", "--x", "1"],
                 ["verify", "--id", "lek2", "--char1", "5:1", "--char2", "5:1", "--p", "2",
                  "--b", "2", "--c", "0"],
                 # an empty factor list, refused before it is indexed
                 ["verify", "--id", "int-17", "--degrees", "", "--offsets", "0", "--q", "1"],
                 # a flag the identity does not declare, on verify and on sweep
                 ["verify", "--id", "classical-dr", "--b", "2", "--c", "3", "--s", "1",
                  "--char", "3:1"],
                 ["sweep", "--id", "int-24", "--k", "3", "--p-range", "2..3", "--bc-max", "1"],
                 ["sweep", "--id", "classical-dr", "--k", "3"],
                 # an int key refuses a non-integer
                 ["verify", "--id", "remark-apostol", "--m", "2", "--n", "1", "--b1", "5/2",
                  "--b2", "4", "--x", "0"],
                 # a character label that is not canonical
                 ["char", "show", "--modulus", "5", "--label", "9"],
                 ["char", "show", "--modulus", "2", "--label", "7"],
                 ["verify", "--id", "berndt-dkr", "--char", "3:-1", "--b", "1", "--c", "3"],
                 ["verify", "--id", "rp1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
    assert err == "error: missing parameter 'char1' for rp1\n"


def test_swapped_sums_name_the_key_below_one(capsys):
    # the ids that also evaluate their sums at (c, b) refuse b < 1 and c < 1
    # by name, before a sum at (c, b) could report the other key
    points = {"classical-dr": [],
              "apostol-dr1": ["--p", "1"],
              "berndt-dkr": ["--char", "3:1"],
              "cck-rp": ["--char", "3:1", "--p", "1"],
              "rp1": ["--char1", "5:1", "--char2", "5:1", "--p", "2"],
              "rp2": ["--char1", "3:1", "--char2", "4:1", "--p", "2"],
              "rp3": ["--char1", "3:1", "--char2", "4:1", "--p", "2"]}
    for rid, rest in points.items():
        for b, c, key, value in (("0", "2", "b", "0"), ("-1", "2", "b", "-1"),
                                 ("2", "0", "c", "0")):
            code, out, err = run(capsys, "verify", "--id", rid, *rest, "--b", b, "--c", c)
            assert code == 1 and out == "", (rid, b, c)
            assert err == (f"error: malformed parameters for {rid}: parameter {key!r} must be "
                           f">= 1, got {value}; {rid} evaluates its sums at (b, c) and (c, b)\n")


def test_imprimitive_character_is_a_refusal(capsys):
    for argv, note in (
            (["--id", "berndt-dkr", "--char", "3:0", "--b", "1", "--c", "3"],
             "requires a non-principal primitive character"),
            (["--id", "cck-rp", "--char", "4:0", "--p", "1", "--b", "1", "--c", "3"],
             "requires odd p, gcd(b,c)=1, non-principal primitive chi, and k prime when "
             "gcd(k, bc) = 1")):
        code, out, err = run(capsys, "verify", *argv)
        report = json.loads(out)
        assert code == 0 and err == "", argv
        assert (report["verdict"], report["lhs"], report["rhs"], report["notes"]) == (
            "hypothesis-not-met", None, None, note), argv


def test_berndt_point_outside_the_hypothesis_is_a_refusal(capsys):
    # the registry judges berndt-dkr as it does every id: 101 divides neither
    # 1 nor 200, so no sum is computed and none is over budget
    code, out, err = run(capsys, "verify", "--id", "berndt-dkr", "--char", "101:1",
                         "--b", "1", "--c", "200")
    assert code == 0 and err == ""
    assert json.loads(out) == {"id": "berndt-dkr", "params": {"char": "101:1", "b": 1, "c": 200},
                               "lhs": None, "rhs": None, "verdict": "hypothesis-not-met",
                               "residual": None,
                               "notes": "requires gcd(b, c) = 1 and k | b or k | c"}


def test_force_is_not_a_flag(capsys):
    # no identity computes outside its stated hypotheses
    for argv in (["--id", "berndt-dkr", "--char", "3:1", "--b", "1", "--c", "2"],
                 ["--id", "cck-rp", "--char", "4:1", "--p", "3", "--b", "3", "--c", "5"],
                 ["--id", "classical-dr", "--b", "2", "--c", "3"]):
        code, out, err = run(capsys, "verify", *argv, "--force")
        assert code == 1 and out == "", argv
        assert "unrecognized arguments: --force" in err, err


def test_sweep_refuses_verify_only_flags(capsys):
    # sweep takes --id and its own grid, output and pool flags, and no flag
    # writes into the points; no abbreviation lets --b pass for --bc-max or
    # --p for --p-range
    for extra in (["--b", "5"], ["--p", "2"], ["--char", "3:1"], ["--force"],
                  ["--series-terms", "3"], ["--tolerance", "1e-6"]):
        code, out, err = run(capsys, "sweep", "--id", "classical-dr", "--bc-max", "3", *extra)
        assert code == 1 and out == "", extra
        assert "unrecognized arguments: " + " ".join(extra) in err, err
    # no id takes a tolerance, the Laplace ids included
    for rid in IDENTITY_IDS:
        code, out, err = run(capsys, "sweep", "--id", rid, "--tolerance", "1e-6")
        assert code == 1 and out == "", rid
        assert "unrecognized arguments: --tolerance 1e-6" in err, (rid, err)
    code, out, _ = run(capsys, "sweep", "--id", "laplace-product")
    assert code == 0 and json.loads(out)["within_tol"] == 10


def test_an_empty_grid_flag_is_a_usage_error(capsys):
    # an empty flag leaves nothing to sweep; it was read as unset, so the
    # whole default grid was swept
    for flag, message in (("--k", "ks must not be empty"),
                          ("--k-pairs", "bad modulus pair '' in --k-pairs (want k1:k2)"),
                          ("--p-range", "p_values must not be empty")):
        code, out, err = run(capsys, "sweep", "--id", "rp1", flag, "")
        assert (code, out, err) == (1, "", f"error: {message}\n"), flag


def test_verify_takes_no_tolerance(capsys):
    # a Laplace point is its statement's keys: no tolerance, no tail series
    # (--series-terms: test_laplace.py)
    assert not any({"tolerance", "series_terms"} & set(keys) for keys in PARAMETERS.values())
    code, out, err = run(capsys, "verify", "--id", "laplace-16", "--n", "2", "--t", "1",
                         "--y", "0", "--s", "1", "--tolerance", "1e-6")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --tolerance 1e-6" in err, err


def test_json_flag_is_refused(capsys):
    # compact JSON is the only output besides --pretty; --json did nothing
    for argv in (["--json", "bernoulli", "--number", "2"],
                 ["bernoulli", "--json", "--number", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "unrecognized arguments: --json" in err, err


def test_raabe_refuses_c_below_one_by_name(capsys):
    for c in ("0", "-1", "-2"):
        code, out, err = run(capsys, "verify", "--id", "raabe", "--p", "1", "--c", c,
                             "--x", "1/3")
        assert code == 1 and out == "", c
        assert err == (f"error: malformed parameters for raabe: parameter 'c' must be "
                       f">= 1, got {c}; raabe sums over m < c\n"), err


def test_module_run_reaches_the_cli():
    # python -m dedsums.cli is the way to the CLI without installing the script
    env = dict(os.environ, PYTHONPATH=str(Path(dedsums.__file__).resolve().parent.parent))
    argv = [sys.executable, "-m", "dedsums.cli", "sweep", "--id", "rp1", "--k", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: "), proc.stderr


def _assert_refused_by_name(capsys, argv, key, bound, value, reason):
    code, out, err = run(capsys, "verify", *argv)
    rid = argv[argv.index("--id") + 1]
    assert code == 1 and out == "", argv
    assert err == (f"error: malformed parameters for {rid}: parameter {key!r} must be "
                   f"{bound}, got {value}; {rid} {reason}\n"), err


def test_int_24_refuses_a_negative_degree_by_name(capsys):
    # n = -1 was an exact-equal verdict on a point outside the statement
    point = ["--b1", "1/2", "--b2", "3", "--y1", "1/3", "--y2", "-2", "--x", "1/5"]
    for degrees, key in ((["--n", "-1", "--m", "2"], "n"), (["--n", "2", "--m", "-1"], "m")):
        _assert_refused_by_name(capsys, ["--id", "int-24", *degrees, *point], key, ">= 0", -1,
                                "is stated for degrees n, m >= 0")


def test_int_28_refuses_a_negative_degree_by_name(capsys):
    # m = -1 was a mismatch with a float right side, from (-1) ** m
    point = ["--y1", "1/2", "--y2", "0", "--x", "1/3"]
    for degrees, key in ((["--n", "2", "--m", "-1"], "m"), (["--n", "-1", "--m", "2"], "n")):
        _assert_refused_by_name(capsys, ["--id", "int-28", *degrees, *point], key, ">= 0", -1,
                                "is stated for degrees n, m >= 0")


def test_remark_apostol_refuses_a_negative_degree_by_name(capsys):
    # n = -1 was a mismatch against a middle form value of -2/3
    point = ["--b1", "2", "--b2", "3", "--x", "0"]
    for degrees, key in ((["--m", "2", "--n", "-1"], "n"), (["--m", "-1", "--n", "2"], "m")):
        _assert_refused_by_name(capsys, ["--id", "remark-apostol", *degrees, *point], key,
                                ">= 0", -1, "is stated for degrees m, n >= 0")


def test_int_36_judges_its_hypotheses_in_the_registry(capsys):
    # a principal character was "malformed parameters" (exit 1), and n = 0
    # raised inside char_two_factor_reciprocity; rp2, lek3 and the other
    # character ids report hypothesis-not-met
    point = ["--b1", "1", "--b2", "2", "--y1", "0", "--y2", "0", "--x", "1/3"]
    code, out, err = run(capsys, "verify", "--id", "int-36", "--n", "1", "--m", "2", *point,
                         "--char1", "3:0", "--char2", "4:1")
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["verdict"] == "hypothesis-not-met" and report["lhs"] is None
    assert report["notes"] == "requires non-principal primitive characters"
    chars = ["--char1", "3:1", "--char2", "4:1"]
    for degrees, key in ((["--n", "0", "--m", "2"], "n"), (["--n", "2", "--m", "0"], "m")):
        _assert_refused_by_name(capsys, ["--id", "int-36", *degrees, *point, *chars], key,
                                ">= 1", 0, "is stated for degrees n, m >= 1")


def test_zero_slopes_are_refused_by_name(capsys):
    # each raised ZeroDivisionError inside its checker
    two_factor = ["--n", "1", "--m", "2", "--y1", "0", "--y2", "1/3", "--x", "1/2"]
    chars = ["--char1", "3:1", "--char2", "4:1"]
    further = ["--char1", "5:1", "--char2", "5:2", "--p", "3", "--l", "0"]
    for rid, rest, slopes in (("int-24", two_factor, ("b1", "b2")),
                              ("int-36", two_factor + chars, ("b1", "b2")),
                              ("further-eq20", further, ("b", "c")),
                              ("further-weighted", further, ("b", "c"))):
        for key in slopes:
            given = {slope: "0" if slope == key else "1" for slope in slopes}
            argv = ["--id", rid, *rest, *(f for slope, v in given.items()
                                          for f in (f"--{slope}", v))]
            _assert_refused_by_name(capsys, argv, key, "nonzero", 0,
                                    f"is stated for nonzero slopes {', '.join(slopes)}")


def test_refusals_name_the_key_given(capsys):
    # remark-apostol's b1 < 1 was worded as apostol_sum's "c", raabe's p < 0
    # as periodic_bernoulli's "n"
    for b1 in ("0", "-1"):
        _assert_refused_by_name(capsys, ["--id", "remark-apostol", "--m", "2", "--n", "1",
                                         "--b1", b1, "--b2", "3", "--x", "0"],
                                "b1", ">= 1", b1, "evaluates its sums at (b1, b2) and (b2, b1)")
    _assert_refused_by_name(capsys, ["--id", "raabe", "--p", "-1", "--c", "3", "--x", "1/3"],
                            "p", ">= 0", -1, "sums periodic_B_{p+1}")
