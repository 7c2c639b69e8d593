"""Behaviour references: write them, or check the library against them.

    python3 perfbench/digest.py registry [--check]
    python3 perfbench/digest.py points   [--check]

``registry`` sweeps all 25 identities over their acceptance grids, called
as tests/test_acceptance.py calls them, and records a sha256 of each canonical
report stream (the ``to_json`` lines of the sorted sweep).  A refactor that
must keep behaviour keeps these digests.  It takes minutes; it is a one-off
command, not a workload.

``points`` records, per workload, a digest of every report of the default-seed
sample of a nominal run, keyed by point.  run.py compares against it.  A point
whose verdict fails the oracle's verdict check is refused, not recorded.

With ``--check`` nothing is written; any difference exits with status 1.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from oracle import REFERENCE_DIR, Oracle, report_digest  # noqa: E402
from workloads import (DEFAULT_SEED, NOMINAL_SECONDS, WORKLOADS, build_sample,  # noqa: E402
                       encode_point, point_key)

# Keyword options the acceptance tests pass to default_grid.
ACCEPTANCE_OPTIONS = {"lek2": {"ks": (3, 4, 5, 7), "coprime": False}}


def registry() -> dict:
    from dedsums.verify import IDENTITY_IDS, default_grid, sweep

    out = {}
    for rid in IDENTITY_IDS:
        reports = sweep(rid, default_grid(rid, **ACCEPTANCE_OPTIONS.get(rid, {})))
        stream = "\n".join(r.to_json() for r in reports)
        out[rid] = {"points": len(reports),
                    "sha256": hashlib.sha256(stream.encode()).hexdigest()}
        print(f"{rid:18s} {len(reports):6d} {out[rid]['sha256']}", file=sys.stderr)
    return {"options": {k: {kk: list(vv) if isinstance(vv, tuple) else vv
                            for kk, vv in v.items()} for k, v in ACCEPTANCE_OPTIONS.items()},
            "ids": out}


def points(workload: str) -> dict:
    from dedsums.verify import verify_identity

    oracle = Oracle({}, require_reference=False)
    table = {}
    for rid, params in build_sample(workload, DEFAULT_SEED, NOMINAL_SECONDS):
        key = point_key(encode_point(rid, params))
        report = verify_identity(rid, params)
        if not oracle.check(rid, params, key, report):
            raise SystemExit(f"refusing to record a failing point: {oracle.failures[-1]}")
        table[key] = report_digest(report)
    return {"workload": workload, "seed": DEFAULT_SEED, "seconds": NOMINAL_SECONDS,
            "points": table}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("registry", "points"):
        print(__doc__, file=sys.stderr)
        return 2
    check = "--check" in argv[1:]
    if argv[0] == "registry":
        targets = {"registry": registry}
    else:
        targets = {w: (lambda w=w: points(w)) for w in WORKLOADS}
    status = 0
    for name, build in targets.items():
        path = REFERENCE_DIR / f"{name}.json"
        fresh = build()
        if check:
            same = path.exists() and json.loads(path.read_text()) == fresh
            print(f"{name}: {'matches' if same else 'DIFFERS from'} {path.name}")
            status |= not same
        else:
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(HERE.parent)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
