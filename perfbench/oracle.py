"""Correctness oracle for benchmark runs.

Two checks, applied to every report:

* the verdict check holds for any seed.  A point must come out exact-equal,
  vacuous-zero or equal-within-tol, except the 20 rp3 points where the
  displayed cross-modulus corollary is false (all at k2 | b and k1 | c; see
  criterion 6 of the acceptance suite).  Those must be mismatches whose notes
  say the correction term explains the gap exactly.
* the reference check compares a digest of each report's canonical JSON
  (``VerificationReport.to_json``) with the committed per-point reference in
  ``reference/<workload>.json``.  That file holds the default-seed sample of a
  nominal run, so on the default seed every point must be found in it; on
  other seeds the points that happen to be in it are compared too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GOOD_VERDICTS = frozenset({"exact-equal", "vacuous-zero", "equal-within-tol"})
RED_NOTE = "explains the gap exactly"

# rp3 points (k1:label, k2:label, p, b, c) at which the displayed corollary is
# false.  The other 24 grid points with k2 | b and k1 | c are vacuous (sign
# condition -1) or have a vanishing correction term.
KNOWN_RED = frozenset([
    ("3:1", "4:1", 3, 4, 3), ("3:1", "4:1", 5, 4, 3),
    ("3:1", "5:1", 3, 5, 3), ("3:1", "5:1", 3, 5, 6),
    ("3:1", "5:1", 5, 5, 3), ("3:1", "5:1", 5, 5, 6),
    ("3:1", "5:2", 2, 5, 3), ("3:1", "5:2", 2, 5, 6),
    ("3:1", "5:2", 4, 5, 3), ("3:1", "5:2", 4, 5, 6),
    ("3:1", "5:3", 3, 5, 3), ("3:1", "5:3", 3, 5, 6),
    ("3:1", "5:3", 5, 5, 3), ("3:1", "5:3", 5, 5, 6),
    ("4:1", "5:1", 3, 5, 4), ("4:1", "5:1", 5, 5, 4),
    ("4:1", "5:2", 2, 5, 4), ("4:1", "5:2", 4, 5, 4),
    ("4:1", "5:3", 3, 5, 4), ("4:1", "5:3", 5, 5, 4),
])


def red_key(rid: str, params: dict):
    """The KNOWN_RED key of an rp3 point, or None for any other point."""
    if rid != "rp3":
        return None
    c1, c2 = params["char1"], params["char2"]
    return (f"{c1.modulus}:{c1.label}", f"{c2.modulus}:{c2.label}",
            int(params["p"]), int(params["b"]), int(params["c"]))


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()[:20]


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["points"]


class Oracle:
    """Judges each report and keeps the tallies a run prints."""

    def __init__(self, reference: dict, require_reference: bool):
        self.reference = reference
        self.require_reference = require_reference
        self.failures: list[str] = []
        self.red_seen = 0
        self.referenced = 0

    def check(self, rid: str, params: dict, key: str, report) -> bool:
        """True when the report is what the seed commit produced; a failure
        is recorded with its reason otherwise.  ``report`` may be the
        exception a point raised."""
        problem = self._problem(rid, params, key, report)
        if problem:
            self.failures.append(f"{rid} {key}: {problem}")
        return problem is None

    def _problem(self, rid, params, key, report):
        if isinstance(report, BaseException):
            return f"raised {type(report).__name__}: {report}"
        if red_key(rid, params) in KNOWN_RED:
            self.red_seen += 1
            if report.verdict != "mismatch" or RED_NOTE not in report.notes:
                return f"known-red point gave {report.verdict!r}: {report.notes!r}"
        elif report.verdict not in GOOD_VERDICTS:
            return f"verdict {report.verdict!r}: {report.notes!r}"
        expected = self.reference.get(key)
        if expected is None:
            return "not in the reference" if self.require_reference else None
        self.referenced += 1
        if report_digest(report) != expected:
            return "canonical JSON differs from the reference"
        return None
