"""The names that perfbench's tracer hooks must exist in the library, so a
refactor that drops one fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import dedsums.exactnum


def _tracer(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
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
