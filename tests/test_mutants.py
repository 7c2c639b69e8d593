"""The committed negative controls (tools/mutants.json) stay applicable:
each old snippet occurs exactly once under src/, in the file it names, and
each id a mutant lists under "verdicts" is registered.  Whether each mutant
is still killed, and shows a mismatch at those ids, is checked by
tools/run_mutants.py, outside the test suite."""

import json
from pathlib import Path

from dedsums.verify import IDENTITY_IDS

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_snippet_occurs_once_under_src():
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text())
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for path in (ROOT / "src").rglob("*.py")}
    assert len({m["name"] for m in mutants}) == len(mutants)
    for mutant in mutants:
        assert mutant["old"] != mutant["new"] and mutant["tests"], mutant["name"]
        where = {name: text.count(mutant["old"]) for name, text in sources.items()
                 if mutant["old"] in text}
        assert where == {mutant["file"]: 1}, (mutant["name"], where)


def test_every_mutant_verdict_id_is_registered():
    for mutant in json.loads((ROOT / "tools" / "mutants.json").read_text()):
        assert set(mutant.get("verdicts", ())) <= set(IDENTITY_IDS), mutant["name"]
