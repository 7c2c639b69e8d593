"""Command-line front end.

Every successful invocation prints JSON on stdout (one object, or JSON lines
for sweep reports followed by one aggregate object); diagnostics go to
stderr.  Exit codes: 0 success with no mismatch, 1 usage/parse error, 2 when
any verification reports a mismatch verdict.  main prints every error as one
"error:" line: a ValueError from the library is worded as its message, and
verify and sweep word a point over a budget as "over budget for <id>", any
other bad point as "malformed parameters for <id>".

Rationals on the command line are "p/q" strings; characters are "k:label"
with the canonical dot-joined exponent label ("0" is the principal
character).  verify's parameter flags are the keys the identities declare
(verify.PARAMETERS); each value is parsed by the type that the chosen
identity declares for its key, and a flag it does not declare is a usage
error.  sweep takes --id and its own grid, output and pool flags, spelled
out in full; a grid flag that the id's grid does not take is a usage error,
and no sweep flag writes into the points.  Sweep grids expand
deterministically from the flags; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .bernoulli import Polynomial, bernoulli_number, bernoulli_poly, periodic_bernoulli
from .budget import BudgetError
from .dedekind import (apostol_sum, char_pair_sum, classical_dedekind_sum, hat_sum,
                       tilde_sum)
from .dirichlet import DirichletCharacter, character_from_label, enumerate_characters
from .exactnum import scalar_to_json
from .integrals import (ProductIntegralSpec, product_integral_direct,
                        product_integral_formula)
from .verify import (IDENTITY_IDS, PARAMETERS, aggregate, default_grid, sweep,
                     verify_identity)

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad rational literal {text!r}: {exc}")


def _char(text: str):
    try:
        k_str, _, label = text.partition(":")
        k = int(k_str)
        return character_from_label(k, label or "0")
    except ValueError as exc:
        raise _UsageError(f"bad character spec {text!r} (want k:label): {exc}")


def _frac_list(text: str) -> list[Fraction]:
    return [_frac(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad integer list {text!r}: {exc}")


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True))


def _parse_range(text: str) -> list[int]:
    """"2..6" -> [2,3,4,5,6]; "1,3,5" -> [1,3,5]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise _UsageError(f"bad range {text!r} (want lo..hi): {exc}")
    return _int_list(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so a subparser's default cannot clobber a pre-subcommand flag
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                        help="indent JSON output")
    ap = argparse.ArgumentParser(
        prog="dedsums",
        parents=[common],
        description="Exact Dedekind sums, Bernoulli-polynomial integrals, and "
                    "reciprocity-identity verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("bernoulli", help="Bernoulli numbers / polynomials / periodic values")
    p.add_argument("--number", type=int, help="print B_n")
    p.add_argument("--poly", type=int, help="print coefficients of B_n(x)")
    p.add_argument("--periodic", type=int, help="degree of the periodic function")
    p.add_argument("--x", help="evaluation point p/q for --periodic")

    p = add_parser("char", help="Dirichlet characters")
    csub = p.add_subparsers(dest="char_command", required=True)
    cl = csub.add_parser("list", parents=[common], help="enumerate characters mod k")
    cl.add_argument("--modulus", type=int, required=True)
    cl.add_argument("--filter", default="all",
                    choices=["all", "primitive", "nonprincipal_primitive"])
    cs = csub.add_parser("show", parents=[common], help="one character, optionally evaluated")
    cs.add_argument("--modulus", type=int, required=True)
    cs.add_argument("--label", required=True)
    cs.add_argument("--eval", type=int, dest="eval_at")

    p = add_parser("sum", help="Dedekind-type sums by direct summation")
    p.add_argument("--family", required=True, choices=_SUMS)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--char1", help="k:label")
    p.add_argument("--char2", help="k:label")

    p = add_parser("integral", help="product integrals of Bernoulli polynomials")
    p.add_argument("mode", choices=["direct", "formula"])
    p.add_argument("--degrees", required=True)
    p.add_argument("--slopes", required=True)
    p.add_argument("--offsets", required=True)
    p.add_argument("--x", required=True)

    p = add_parser("verify", help="verify one identity instance")
    _add_id_flag(p)
    for key in _FLAGS:
        p.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key))

    # no abbreviations: a verify-only flag such as --b must not pass for --bc-max
    p = add_parser("sweep", help="verify an identity over a parameter grid", allow_abbrev=False)
    _add_id_flag(p)
    p.add_argument("--k", help="comma list of moduli, e.g. 3,4,5,7")
    p.add_argument("--k-pairs", help="modulus pairs, e.g. 3:4,3:5,4:5")
    p.add_argument("--p-range", help="e.g. 2..6 or 1,3,5")
    p.add_argument("--bc-max", type=int)
    p.add_argument("--count", type=int, help="random spec count (int-32-oracle, int-17)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--reports", action="store_true",
                   help="emit every report line, not only mismatches")
    return ap


def _add_id_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--id", required=True, help="identity id, one of: " + ", ".join(IDENTITY_IDS))


# verify's flags: every key an identity declares (its flag is --key with "-"
# for "_"), in declaration order
_FLAGS = tuple(dict.fromkeys(key for keys in PARAMETERS.values() for key in keys))

_HELP = {
    **{key: "k:label" for key in ("char", "char1", "char2")},
    "f": "polynomial coefficients, ascending, e.g. 0,0,1",
}

# the text parser of each declared type
_PARSE = {
    int: int,
    float: float,
    Fraction: _frac,
    DirichletCharacter: _char,
    Polynomial: lambda text: Polynomial(_frac_list(text)),
    tuple[int, ...]: lambda text: tuple(_int_list(text)),
    tuple[Fraction, ...]: lambda text: tuple(_frac_list(text)),
}


def _collect_params(args) -> dict:
    """The parameter point of the given verify flags, each parsed by the type
    that the chosen identity declares for it.  A flag it does not declare is
    passed on as given, for verify_identity to refuse."""
    keys = PARAMETERS.get(args.id, {})
    given = {key: getattr(args, key) for key in _FLAGS if getattr(args, key) is not None}
    return {key: _PARSE[keys[key]](value) if key in keys else value
            for key, value in given.items()}


def _cmd_bernoulli(args) -> int:
    if args.number is not None:
        payload = {"n": args.number, "value": scalar_to_json(bernoulli_number(args.number))}
    elif args.poly is not None:
        payload = {"n": args.poly,
                   "coeffs": [scalar_to_json(c) for c in bernoulli_poly(args.poly).coeffs]}
    elif args.periodic is not None:
        if args.x is None:
            raise _UsageError("--periodic needs --x")
        payload = {"n": args.periodic, "x": args.x,
                   "value": scalar_to_json(periodic_bernoulli(args.periodic, _frac(args.x)))}
    else:
        raise _UsageError("bernoulli needs one of --number / --poly / --periodic")
    _emit(payload, args.pretty)
    return 0


def _cmd_char(args) -> int:
    if args.char_command == "list":
        _emit([c.to_json() for c in enumerate_characters(args.modulus, args.filter)],
              args.pretty)
    else:
        chi = _char(f"{args.modulus}:{args.label}")
        payload = chi.to_json()
        if args.eval_at is not None:
            payload["value_at"] = {"n": args.eval_at,
                                   "value": scalar_to_json(chi(args.eval_at))}
        _emit(payload, args.pretty)
    return 0


# sum family -> (the number of characters it takes, --char1 first; its sum
# of (p, b, c, *characters))
_SUMS = {
    "classical": (0, lambda p, b, c: classical_dedekind_sum(b, c)),
    "apostol": (0, apostol_sum),
    "char_single": (1, lambda p, b, c, chi: char_pair_sum(p, b, c, chi, chi)),
    "char_pair": (2, char_pair_sum),
    "hat": (2, hat_sum),
    "tilde": (2, tilde_sum),
}

_TAKES = ("no characters", "one character, --char1", "two characters, --char1 and --char2")


def _cmd_sum(args) -> int:
    chars = [_char(text) for text in (args.char1, args.char2) if text]
    taken, fn = _SUMS[args.family]
    if args.c < 1:
        raise _UsageError("c must be >= 1")
    if args.p < 1:
        raise _UsageError("p must be >= 1")
    if (bool(args.char1), bool(args.char2)) != (taken > 0, taken > 1):
        raise _UsageError(f"family {args.family!r} takes {_TAKES[taken]}")
    value = fn(args.p, args.b, args.c, *chars)
    payload = {"family": args.family, "p": args.p, "b": args.b, "c": args.c,
               "q": math.gcd(args.b, args.c),
               "chars": [f"{chi.modulus}:{chi.label}" for chi in chars],
               "value": scalar_to_json(value)}
    _emit(payload, args.pretty)
    return 0


def _cmd_integral(args) -> int:
    degrees = tuple(_int_list(args.degrees))
    slopes = tuple(_frac_list(args.slopes))
    offsets = tuple(_frac_list(args.offsets))
    spec = ProductIntegralSpec(degrees, slopes, offsets, _frac(args.x))
    fn = product_integral_direct if args.mode == "direct" else product_integral_formula
    value = fn(spec)
    _emit({"mode": args.mode, "spec": spec.to_json(), "value": scalar_to_json(value)},
          args.pretty)
    return 0


def _refused(rid: str, call, bare: bool = False):
    """call(), with verify's and sweep's wording of a refused point: a
    KeyError (an unknown id or a missing parameter) as its message, a
    BudgetError as over budget for rid, and any other ValueError as
    malformed parameters for rid, or as its bare message when bare."""
    try:
        return call()
    except KeyError as exc:
        raise _UsageError(exc.args[0])
    except BudgetError as exc:
        raise _UsageError(f"over budget for {rid}: {exc}")
    except ValueError as exc:
        raise _UsageError(exc.args[0] if bare else f"malformed parameters for {rid}: {exc}")


def _cmd_verify(args) -> int:
    report = _refused(args.id, lambda: verify_identity(args.id, _collect_params(args)))
    _emit(report.to_json_dict(), args.pretty)
    return 2 if report.verdict == "mismatch" else 0


def _cmd_sweep(args) -> int:
    options = {}
    if args.k is not None:
        options["ks"] = tuple(_int_list(args.k))
    if args.k_pairs is not None:
        pairs = []
        for tok in args.k_pairs.split(","):
            a, _, b = tok.partition(":")
            try:
                pairs.append((int(a), int(b)))
            except ValueError:
                raise _UsageError(f"bad modulus pair {tok!r} in --k-pairs (want k1:k2)")
        options["k_pairs"] = tuple(pairs)
    if args.p_range is not None:
        options["p_values"] = tuple(_parse_range(args.p_range))
    if args.bc_max is not None:
        options["bc_max"] = args.bc_max
    if args.count is not None:
        options["count"] = args.count
    options["seed"] = args.seed
    # the grid's refusals are worded bare, as default_grid words them
    grid = _refused(args.id, lambda: default_grid(args.id, **options), bare=True)
    reports = _refused(args.id, lambda: sweep(args.id, grid, jobs=args.jobs))
    for report in reports:
        if args.reports or report.verdict == "mismatch":
            print(report.to_json())
    summary = aggregate(args.id, reports)
    _emit(summary, args.pretty)
    return 2 if summary["mismatch"] else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not hasattr(args, "pretty"):
        args.pretty = False
    handlers = {
        "bernoulli": _cmd_bernoulli,
        "char": _cmd_char,
        "sum": _cmd_sum,
        "integral": _cmd_integral,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    # the one place that prints an error line: a handler raises _UsageError,
    # or lets a ValueError from the library through, worded as its message
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        message = str(exc)
    except ValueError as exc:
        message = str(exc)
        if "integer string conversion" in message:  # str() of a result's int
            message = (f"a result has an integer of more than {sys.get_int_max_str_digits()} "
                       "digits, the most Python converts to text")
    except BrokenPipeError:
        return 1
    print(f"error: {message}", file=sys.stderr)
    return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
