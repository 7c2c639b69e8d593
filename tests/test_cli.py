"""CLI: JSON output, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dedsums
from dedsums.cli import main
from dedsums.exactnum import scalar_from_json


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
                 ["verify", "--id", "int-24", "--n", "1", "--m", "1", "--b1", "0",
                  "--b2", "1", "--y1", "0", "--y2", "0", "--x", "1"],
                 ["verify", "--id", "lek2", "--char1", "5:1", "--char2", "5:1", "--p", "2",
                  "--b", "2", "--c", "0"],
                 # a flag the identity does not declare, on verify and on sweep
                 ["verify", "--id", "classical-dr", "--b", "2", "--c", "3", "--s", "1",
                  "--char", "3:1", "--force"],
                 ["verify", "--id", "classical-dr", "--b", "2", "--c", "3", "--force"],
                 ["sweep", "--id", "classical-dr", "--bc-max", "2", "--tolerance", "1e-3",
                  "--reports"],
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
    for argv in (["--id", "berndt-dkr", "--char", "3:0", "--b", "1", "--c", "3"],
                 ["--id", "berndt-dkr", "--char", "3:0", "--b", "1", "--c", "3", "--force"],
                 ["--id", "cck-rp", "--char", "4:0", "--p", "1", "--b", "1", "--c", "3",
                  "--force"]):
        code, out, err = run(capsys, "verify", *argv)
        report = json.loads(out)
        assert code == 0 and err == "", argv
        assert report["verdict"] == "hypothesis-not-met" and report["lhs"] is None
        assert report["notes"].endswith(" is not primitive; the twisted sums are undefined there")


def test_sweep_refuses_verify_only_flags(capsys):
    # sweep takes --id, --tolerance and its own grid, output and pool flags;
    # no abbreviation lets --b pass for --bc-max or --p for --p-range
    for extra in (["--b", "5"], ["--p", "2"], ["--char", "3:1"], ["--force"],
                  ["--series-terms", "3"]):
        code, out, err = run(capsys, "sweep", "--id", "classical-dr", "--bc-max", "3", *extra)
        assert code == 1 and out == "", extra
        assert "unrecognized arguments: " + " ".join(extra) in err, err
    code, out, _ = run(capsys, "sweep", "--id", "laplace-product", "--tolerance", "1e-6")
    assert code == 0 and json.loads(out)["within_tol"] == 10
    # refused before the grid is swept, on an id that takes no tolerance
    code, out, err = run(capsys, "sweep", "--id", "classical-dr", "--tolerance", "1e-6")
    assert code == 1 and out == ""
    assert err == "error: --tolerance is not a parameter of classical-dr\n"


def test_module_run_reaches_the_cli():
    # python -m dedsums.cli is the way to the CLI without installing the script
    env = dict(os.environ, PYTHONPATH=str(Path(dedsums.__file__).resolve().parent.parent))
    argv = [sys.executable, "-m", "dedsums.cli", "sweep", "--id", "rp1", "--k", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: "), proc.stderr
