"""The names that perfbench's tracer hooks must exist in the library, and a
traced run must give the untraced reports, so a refactor that drops a hooked
name, or turns a hooked property into a slot, fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import dedsums.exactnum
from dedsums import bernoulli, charbernoulli, verify
from dedsums.dirichlet import enumerate_characters

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Tracer.install() patches module globals for good, so the traced run has a
# process of its own; it prints the reports and the points the tracer counted.
_TRACED_RUN = """
import importlib.util, json, sys
from dedsums import verify
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = module
spec.loader.exec_module(module)
tracer = module.Tracer.install()
reports = [verify.verify_identity(rid, verify.default_grid(rid)[0]).to_json()
           for rid in verify.IDENTITY_IDS]
print(json.dumps({"reports": reports, "points": tracer.stats["verify.points"]}))
"""


def _tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves(monkeypatch):
    hooks = _tracer(monkeypatch)._hooks(dedsums.exactnum)
    assert hooks
    for hook in hooks:
        modname, _, attr = hook.target.partition(":")
        owner = importlib.import_module(f"dedsums.{modname}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            assert attr in vars(getattr(owner, cls_name)), hook.target
        else:
            assert callable(getattr(owner, attr, None)), hook.target


def test_the_traced_worker_cache_probes_resolve(monkeypatch):
    # perfbench/worker.py probes these two tables by their private names
    probe = _tracer(monkeypatch).CacheProbe
    gen_function = probe(charbernoulli._gen_bernoulli_function_reduced)
    poly_value = probe(bernoulli._POLY_VALUE_CACHE)
    chi = enumerate_characters(7, "nonprincipal_primitive")[0]
    charbernoulli.gen_bernoulli_function(chi, 3, Fraction(1, 999983))
    bernoulli.bernoulli_poly_value(3, Fraction(2, 999983))
    assert gen_function.misses() == gen_function.start_misses + 1
    assert poly_value.misses() == poly_value.start_misses + 1


def test_a_traced_run_gives_the_untraced_reports():
    env = dict(os.environ, PYTHONPATH=str(Path(dedsums.exactnum.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(_TRACER)], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    traced = json.loads(proc.stdout)
    untraced = [verify.verify_identity(rid, verify.default_grid(rid)[0]).to_json()
                for rid in verify.IDENTITY_IDS]
    assert len(verify.IDENTITY_IDS) == 25 and traced["points"] == 25
    assert traced["reports"] == untraced
