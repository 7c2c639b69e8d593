"""Each identity declares its point keys once, as its checker's keyword-only
parameters, none with a default, and its grid overrides once, as its grid
builder's parameters.  The traffic carries exactly those keys: every point
of the default grids, of the pinned grid cases and of the benchmark pools,
built with the overrides they pass (default_grid refuses one a grid does not
take).  The README's parameter column is the declaration."""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from dedsums.cli import _PARSE
from dedsums.verify import IDENTITY_IDS, PARAMETERS, _REGISTRY, _convert, default_grid
from test_pins import GRID_CASES

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_pools():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(rid, options) for pools in workloads.WORKLOADS.values()
            for rid, options, _ in pools]


CASES = GRID_CASES + _benchmark_pools()


@pytest.mark.parametrize("rid, options", CASES,
                         ids=[f"{rid}-{i}" for i, (rid, _) in enumerate(CASES)])
def test_grid_points_carry_only_declared_keys_of_their_types(rid, options):
    keys = PARAMETERS[rid]
    for point in default_grid(rid, **options):
        assert point.keys() == keys.keys(), (rid, point)
        for key, value in point.items():
            _convert(keys[key], value)


def test_no_checker_parameter_has_a_default():
    # every declared key is required: a point takes one path, with no
    # optional key that changes how it is judged
    for rid in IDENTITY_IDS:
        for parameter in inspect.signature(_REGISTRY[rid].check).parameters.values():
            assert parameter.default is parameter.empty, (rid, parameter.name)


def test_the_cli_parses_every_declared_type():
    assert {typ for keys in PARAMETERS.values() for typ in keys.values()} <= _PARSE.keys()


def test_readme_parameter_column_is_the_declaration():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| .* \| `([^`]*)` \|$",
                      (ROOT / "README.md").read_text(), re.M)
    assert dict(rows) == {rid: " ".join(PARAMETERS[rid]) for rid in IDENTITY_IDS}
