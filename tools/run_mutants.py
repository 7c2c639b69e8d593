"""Negative controls: each mutant of mutants.json, applied to a copy of the
tree, must make the tests it names fail.

    python3 tools/run_mutants.py                         # every mutant
    python3 tools/run_mutants.py NAME [NAME]             # the named mutants
    python3 tools/run_mutants.py --verdicts [NAME ...]   # the verdict survey

Run it from anywhere; it reads the checkout it sits in.  A mutant names a
file under src/, an exact old snippet that occurs there once, the new
snippet, and the pytest node ids that must fail with it applied (an id
without a parameter list stands for each of its parametrized cases).  For
each mutant the tree is copied into a temporary directory, the snippet is
replaced in the copy, and the named tests run there; the checkout is never
changed.  Prints one line per mutant and exits 1 when a snippet is missing
or a named test passed.  It takes minutes, so it is not part of the test
suite, which checks only that every old snippet still occurs once.

With --verdicts no test runs: every identity id is swept over the grids
that perfbench/digest.py registry sweeps (its ACCEPTANCE_OPTIONS), in the
checkout and in each mutated copy, and the verdicts of each id are tallied.
An id shows a mismatch when a mutant raises its count of mismatch verdicts
or makes its sweep raise.  The survey prints, per mutant, the ids whose
tally is unchanged, those whose tally changed with no more mismatches (a
fault no verdict shows), and those that show a mismatch, with their
tallies.  A mutant's optional "verdicts" field lists the ids that must show
a mismatch, and the survey exits 1 when one does not.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 1200

# Run in a tree: the verdict tally of every id over the registry digest's
# grids, as one JSON line; a sweep that raises is tallied as its exception.
SURVEY = """
import json, sys
from collections import Counter
sys.path.insert(0, "perfbench")
from digest import ACCEPTANCE_OPTIONS
from dedsums.verify import IDENTITY_IDS, default_grid, sweep
tallies = {}
for rid in IDENTITY_IDS:
    try:
        grid = default_grid(rid, **ACCEPTANCE_OPTIONS.get(rid, {}))
        tallies[rid] = dict(Counter(report.verdict for report in sweep(rid, grid)))
    except Exception as exc:
        tallies[rid] = {"raised " + type(exc).__name__: 1}
print(json.dumps(tallies, sort_keys=True))
"""


@contextmanager
def mutated_tree(mutant: dict):
    """A temporary copy of the checkout with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        path = tree / mutant["file"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            raise SystemExit(f"{mutant['name']}: the old snippet does not occur once in "
                             f"{mutant['file']}")
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        yield tree


def run_python(tree: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def failed_tests(mutant: dict) -> tuple[set[str], str]:
    """The ids pytest reports as failed with the mutant applied, and its
    summary line."""
    with mutated_tree(mutant) as tree:
        proc = run_python(tree, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          *mutant["tests"])
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE))
    lines = proc.stdout.strip().splitlines()
    return failed, lines[-1] if lines else proc.stderr.strip()


def tallies(tree: Path) -> dict[str, dict[str, int]]:
    """id -> {verdict: count} over the registry digest's grids in tree."""
    proc = run_python(tree, "-c", SURVEY)
    if proc.returncode:
        raise SystemExit(f"the verdict survey failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def survey(mutants: list[dict]) -> int:
    base = tallies(ROOT)
    status = 0
    for mutant in mutants:
        with mutated_tree(mutant) as tree:
            seen = tallies(tree)
        changed = [rid for rid in base if seen[rid] != base[rid]]
        shown = [rid for rid in changed if any(v.startswith("raised") for v in seen[rid])
                 or seen[rid].get("mismatch", 0) > base[rid].get("mismatch", 0)]
        missed = [rid for rid in mutant.get("verdicts", ()) if rid not in shown]
        status |= bool(missed)
        for label, ids in (("unchanged", [rid for rid in base if rid not in changed]),
                           ("changed, no mismatch", [r for r in changed if r not in shown]),
                           ("mismatch", shown)):
            detail = ids if label == "unchanged" else [f"{r} {base[r]} -> {seen[r]}" for r in ids]
            print(f"{mutant['name']}: {label}: {'; '.join(detail) or '-'}", flush=True)
        if missed:
            print(f"{mutant['name']}: MISSED, no mismatch at: {', '.join(missed)}")
    return status


def main(args: list[str]) -> int:
    verdicts = "--verdicts" in args
    names = [a for a in args if a != "--verdicts"]
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in mutants if not names or m["name"] in names]
    if verdicts:
        return survey(chosen)
    status = 0
    for mutant in chosen:
        failed, summary = failed_tests(mutant)
        passed = [t for t in mutant["tests"]
                  if not any(f == t or f.startswith(t + "[") for f in failed)]
        status |= bool(passed)
        print(f"{mutant['name']}: {'LIVE, passed: ' + ', '.join(passed) if passed else 'killed'}"
              f" ({summary})", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
