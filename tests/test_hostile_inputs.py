"""Hostile values for every declared key.  Each id's first default point,
with one int, Fraction, float, tuple or character key set to an extreme, must
end in a report or a refusal (ValueError, BudgetError included, or KeyError)
within ALARM_S seconds: never in another exception, and never in a long run.
The same points written as verify flags, with the character texts that only
a flag can carry (a modulus over MODULUS_BUDGET, a label that is not
canonical), and extreme values of the other subcommands' flags, must end in
a report or one error line through cli.main, within the same alarm."""

import json
import math
import signal
from fractions import Fraction
from typing import get_origin

import pytest

from dedsums.bernoulli import Polynomial
from dedsums.cli import main
from dedsums.dirichlet import DirichletCharacter, character_from_label, enumerate_characters
from dedsums.verify import (IDENTITY_IDS, PARAMETERS, VerificationReport, default_grid,
                            verify_identity)

ALARM_S = 1.0
HUGE = 10 ** 900
_SCALARS = {int: (0, -1, 2 ** 31, HUGE), Fraction: (0, -1, 2 ** 31, HUGE, "1/0"),
            float: (0.0, -1.0, math.inf, math.nan, HUGE, Fraction(-HUGE, 7))}
# the modulus-1 and the mod-2 character (both principal), an imprimitive one,
# and at the largest modulus MODULUS_BUDGET admits the first and the last
# non-principal primitive character and the principal one
_WIDE = enumerate_characters(1000, "nonprincipal_primitive")
_CHARACTERS = (character_from_label(1, "0"), character_from_label(2, "0"),
               character_from_label(6, "1"), _WIDE[0], _WIDE[-1],
               enumerate_characters(1000)[0])
# character flags that name no character: over MODULUS_BUDGET, not canonical
_CLI_CHARACTERS = ("1001:1", "5:9")


def _probes(rid):
    """(key, value) for every extreme of every int, Fraction, float, tuple and
    character key of rid's first default point; a tuple key is emptied,
    repeated 8 times, and filled with 2^31, with 10^900 and, for Fraction
    elements, with "1/0"; a character key takes each of _CHARACTERS."""
    point = default_grid(rid)[0]
    for key, typ in PARAMETERS[rid].items():
        if typ in _SCALARS:
            values = _SCALARS[typ]
        elif typ is DirichletCharacter:
            values = _CHARACTERS
        elif get_origin(typ) is tuple:
            default = tuple(point[key])
            values = ((), default * 8, (2 ** 31,) * len(default), (HUGE,) * len(default))
            if typ.__args__[0] is Fraction:
                values += (("1/0",) * len(default),)
        else:
            continue
        for value in values:
            yield point, key, value


class _OverTime(Exception):
    """Raised by the alarm in the call it interrupts."""


def _on_alarm(signum, frame):
    raise _OverTime


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


# the character keys of all ids: char of berndt-dkr, cck-rp, em-theorem and
# laplace-char, char1 and char2 of the other ten character ids
_CHARACTER_KEYS = 4 + 2 * 10


def test_every_id_is_probed():
    assert sum(1 for rid in IDENTITY_IDS for _ in _probes(rid)) == \
        371 + _CHARACTER_KEYS * len(_CHARACTERS)


@pytest.mark.parametrize("rid", IDENTITY_IDS)
def test_an_extreme_key_is_a_report_or_a_refusal_within_the_alarm(alarm, rid):
    faults = []
    for point, key, value in _probes(rid):
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            result = verify_identity(rid, {**point, key: value})
        except (ValueError, KeyError):
            continue
        except _OverTime:
            faults.append((key, value, f"still running after {ALARM_S} s"))
            continue
        except Exception as exc:  # any other exception is a fault
            faults.append((key, value, repr(exc)))
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not isinstance(result, VerificationReport):
            faults.append((key, value, f"returned {result!r}"))
    assert not faults, [(key, str(value)[:40], what) for key, value, what in faults]


def _flag_text(value):
    if isinstance(value, DirichletCharacter):
        return f"{value.modulus}:{value.label}"
    if isinstance(value, Polynomial):
        value = value.coeffs
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _verify_argv(rid, point):
    # "--key=value", so that a negative value is not read as a flag
    return ["verify", "--id", rid] + [f"--{key.replace('_', '-')}={_flag_text(value)}"
                                      for key, value in point.items()]


# a valid argv of each other subcommand; every "--flag=value" of it but the
# family is set in turn to each extreme, once per entry of a comma list, a
# character flag to each character of the verify probes and _CLI_CHARACTERS
_OTHER_ARGVS = [
    ["bernoulli", "--number=4"],
    ["bernoulli", "--poly=4"],
    ["bernoulli", "--periodic=4", "--x=1/3"],
    ["char", "list", "--modulus=5"],
    ["char", "show", "--modulus=5", "--label=1", "--eval=2"],
    *(["sum", f"--family={family}", "--p=2", "--b=1", "--c=3", *chars]
      for family, chars in (("classical", []), ("apostol", []), ("char_single", ["--char1=5:1"]),
                            ("char_pair", ["--char1=5:1", "--char2=5:2"]),
                            ("hat", ["--char1=3:1", "--char2=4:1"]),
                            ("tilde", ["--char1=3:1", "--char2=4:1"]))),
    *(["integral", mode, "--degrees=2,3", "--slopes=1,2", "--offsets=0,1/3", "--x=1/2"]
      for mode in ("direct", "formula")),
]

# each leaves nothing to sweep
_EMPTY_SWEEP_FLAGS = [["sweep", "--id", "rp1", flag] for flag in ("--k=", "--k-pairs=",
                                                                   "--p-range=")]


def _cli_probes():
    """Every argv of the CLI probe: each id's probed points as verify flags,
    its character keys set to _CLI_CHARACTERS too, each extreme of each other
    subcommand's flags, and the empty sweep flags."""
    for rid in IDENTITY_IDS:
        point = default_grid(rid)[0]
        for _, key, value in _probes(rid):
            yield _verify_argv(rid, {**point, key: value})
        for key, typ in PARAMETERS[rid].items():
            if typ is DirichletCharacter:
                for text in _CLI_CHARACTERS:
                    yield _verify_argv(rid, {**point, key: text})
    character_texts = [_flag_text(chi) for chi in _CHARACTERS] + list(_CLI_CHARACTERS)
    for argv in _OTHER_ARGVS:
        for i, token in enumerate(argv):
            flag, _, text = token.partition("=")
            if not text or flag == "--family":
                continue
            if flag in ("--char1", "--char2"):
                values = character_texts
            else:
                values = [",".join([str(value)] * len(text.split(","))) for value in _SCALARS[int]]
            for value in values:
                yield argv[:i] + [f"{flag}={value}"] + argv[i + 1:]
    yield from _EMPTY_SWEEP_FLAGS


def _cli_fault(code, out, err):
    """What is wrong with an exit code and its output, or None: exit 0 or 2
    prints JSON lines and no error, exit 1 nothing on stdout and one
    "error:" line, or argparse's usage block ending in one."""
    if code in (0, 2):
        try:
            reports = [json.loads(line) for line in out.splitlines()]
        except ValueError:
            reports = []
        ok = bool(reports) and not err
    else:
        lines = err.splitlines()
        one_error = len(lines) == 1 and lines[0].startswith("error: ")
        usage = bool(lines) and lines[0].startswith("usage: ") and sum(
            "error:" in line for line in lines) == 1
        ok = code == 1 and not out and (one_error or usage)
    return None if ok else f"exit {code!r}, stdout {out[:80]!r}, stderr {err[-200:]!r}"


def test_every_cli_argv_is_probed():
    # the sum families take 7 character flags: 1 of char_single, 2 of each other
    characters = len(_CHARACTERS) + len(_CLI_CHARACTERS)
    assert sum(1 for _ in _cli_probes()) == \
        371 + _CHARACTER_KEYS * characters + 4 * (1 + 1 + 2 + 1 + 3 + 6 * 3 + 2 * 4) \
        + 7 * characters + 3


def test_the_modulus_1_character_sum_is_one_error_line(capsys):
    # char_single at the modulus-1 character is apostol_sum; the twisted kernel
    # refuses its principal chi2
    assert main(["sum", "--family", "char_single", "--char1", "1:0", "--b", "1", "--c", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == ("error: character 1:0 is principal; the twisted sums "
                                         "need a non-principal chi2 (at modulus 1, apostol_sum)\n")


def test_an_extreme_flag_is_a_report_or_one_error_line_within_the_alarm(alarm, capsys):
    faults = []
    for argv in _cli_probes():
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            code = main(argv)
        except _OverTime:
            faults.append((argv, f"still running after {ALARM_S} s"))
            continue
        except Exception as exc:  # main returns an exit code for every argv
            faults.append((argv, repr(exc)))
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            out = capsys.readouterr()
        fault = _cli_fault(code, out.out, out.err)
        if fault:
            faults.append((argv, fault))
    assert not faults, [([arg[:40] for arg in argv], what) for argv, what in faults]
