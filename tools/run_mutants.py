"""Negative controls: each mutant of mutants.json, applied to a copy of the
tree, must make the tests it names fail.

    python3 tools/run_mutants.py              # every mutant
    python3 tools/run_mutants.py NAME [NAME]  # the named mutants

Run it from anywhere; it reads the checkout it sits in.  A mutant names a
file under src/, an exact old snippet that occurs there once, the new
snippet, and the pytest node ids that must fail with it applied (an id
without a parameter list stands for each of its parametrized cases).  For
each mutant the tree is copied into a temporary directory, the snippet is
replaced in the copy, and the named tests run there; the checkout is never
changed.  Prints one line per mutant and exits 1 when a snippet is missing
or a named test passed.  It takes minutes, so it is not part of the test
suite, which checks only that every old snippet still occurs once.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 1200


def failed_tests(mutant: dict) -> tuple[set[str], str]:
    """The ids pytest reports as failed with the mutant applied, and its
    summary line."""
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
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant["tests"]], cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True, timeout=TIMEOUT_S)
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE))
    lines = proc.stdout.strip().splitlines()
    return failed, lines[-1] if lines else proc.stderr.strip()


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    status = 0
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        failed, summary = failed_tests(mutant)
        passed = [t for t in mutant["tests"]
                  if not any(f == t or f.startswith(t + "[") for f in failed)]
        status |= bool(passed)
        print(f"{mutant['name']}: {'LIVE, passed: ' + ', '.join(passed) if passed else 'killed'}"
              f" ({summary})", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
