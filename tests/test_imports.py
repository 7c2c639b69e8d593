"""What `import dedsums` loads: the standard library and dedsums itself.
dedsums.laplace, the one user of mpmath, is registered in sys.modules and on
the package with its body deferred to the first attribute access, which only
the three Laplace checkers make.  Each check runs in a fresh interpreter, so
that no module a test imported earlier hides a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dedsums

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

_LAPLACE_16_FIRST = (
    '{"id": "laplace-16", "lhs": -0.08298816507359648, "notes": "relative comparison", '
    '"params": {"n": 1, "s": 0.5, "t": "1", "y": "0"}, "residual": 1.0033566445654406e-15, '
    '"rhs": -0.08298816507359656, "verdict": "equal-within-tol"}')


def _run(code: str, *args: str):
    """The JSON that `code`, run by a fresh interpreter on this checkout's
    dedsums, prints last."""
    env = dict(os.environ, PYTHONPATH=str(Path(dedsums.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_dedsums_loads_only_the_standard_library_and_dedsums():
    # a top-level import of a third-party package (mpmath, once) shows here
    loaded = _run("import json, sys\n"
                  "before = set(sys.modules)\n"
                  "import dedsums\n"
                  "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert "dedsums.verify" in loaded
    assert [name for name in loaded if name.partition(".")[0] not in
            sys.stdlib_module_names | {"dedsums"}] == []


def test_import_registers_laplace_without_running_it():
    state = _run("import json, sys\n"
                 "import dedsums\n"
                 "state = ['mpmath' in sys.modules, 'dedsums.laplace' in sys.modules,\n"
                 "         sys.modules['dedsums.laplace'] is dedsums.laplace]\n"
                 "import dedsums.laplace\n"
                 "state.append(callable(dedsums.laplace.periodic_laplace_numeric))\n"
                 "print(json.dumps(state + ['mpmath' in sys.modules]))")
    assert state == [False, True, True, True, True]


def test_points_of_the_exact_ids_leave_mpmath_unloaded():
    checked = _run("import json, sys\n"
                   "from dedsums import verify\n"
                   "rids = [rid for rid in verify.IDENTITY_IDS if not rid.startswith('laplace')]\n"
                   "for rid in rids:\n"
                   "    verify.verify_identity(rid, verify.default_grid(rid)[0])\n"
                   "print(json.dumps([len(rids), 'mpmath' in sys.modules]))")
    assert checked == [22, False]


def test_the_cli_verifies_rp1_without_mpmath():
    # the CLI as `python -m dedsums.cli` runs it, then the modules it left
    loaded = _run("import json, runpy, sys\n"
                  "sys.argv = ['dedsums.cli', 'verify', '--id', 'rp1', '--char1', '5:1',\n"
                  "            '--char2', '5:2', '--p', '3', '--b', '2', '--c', '3']\n"
                  "try:\n"
                  "    runpy.run_module('dedsums.cli', run_name='__main__', alter_sys=True)\n"
                  "except SystemExit as done:\n"
                  "    code = done.code\n"
                  "print(json.dumps([code, 'mpmath' in sys.modules]))")
    assert loaded == [0, False]


def test_a_laplace_point_loads_mpmath_and_keeps_its_report():
    state = _run("import json, sys\n"
                 "from dedsums import verify\n"
                 "before = 'mpmath' in sys.modules\n"
                 "point = verify.default_grid('laplace-16')[0]\n"
                 "report = verify.verify_identity('laplace-16', point).to_json()\n"
                 "print(json.dumps([before, 'mpmath' in sys.modules, report]))")
    assert state == [False, True, _LAPLACE_16_FIRST]


def test_the_tracer_hooks_the_deferred_laplace_module():
    # Tracer.install() reads sys.modules["dedsums.laplace"] before any Laplace
    # point; its hooks then count the transforms the checker calls
    point = ("from dedsums import verify\n"
             "point = verify.default_grid('laplace-char')[0]\n")
    traced = _run("import importlib.util, json, sys\n"
                  "spec = importlib.util.spec_from_file_location('perfbench_tracer', sys.argv[1])\n"
                  "module = importlib.util.module_from_spec(spec)\n"
                  "sys.modules[spec.name] = module\n"
                  "spec.loader.exec_module(module)\n"
                  + point +
                  "tracer = module.Tracer.install()\n"
                  "report = verify.verify_identity('laplace-char', point).to_json()\n"
                  "print(json.dumps([report, tracer.stats['laplace.calls']]))", str(_TRACER))
    untraced = _run("import json\n" + point +
                    "print(json.dumps(verify.verify_identity('laplace-char', point).to_json()))")
    assert traced[0] == untraced and traced[1] > 0


def test_a_laplace_sweep_in_workers_gives_the_serial_reports():
    # the pool's workers start with the module still deferred
    pooled, serial = _run("import json\n"
                          "from dedsums import verify\n"
                          "grid = verify.default_grid('laplace-16')\n"
                          "print(json.dumps([[r.to_json() for r in\n"
                          "                   verify.sweep('laplace-16', grid, jobs=jobs)]\n"
                          "                  for jobs in (2, 1)]))")
    assert len(pooled) == 108 and pooled == serial
