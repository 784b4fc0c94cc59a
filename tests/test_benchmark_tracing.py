"""The traced benchmark's hooks, checked against the package as it stands.

``benchmarks/tracing.py`` wraps the functions its ``LAYERS`` table names, and
``benchmarks/run.py --trace 1`` reports one ``solver.branch.<name>.count``
metric per ``solver.BRANCH_*`` value, each declared in ``BENCHMARK.json``.
A renamed function or a new branch would break the traced run without any
other test failing. Both files are only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from distcolor import solver

ROOT = Path(__file__).resolve().parent.parent


def _layers():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize(
    "module_name, function",
    [(module_name, function) for module_name, functions in LAYERS.items() for function in functions],
)
def test_every_traced_name_resolves(module_name, function):
    owner = importlib.import_module(f"distcolor.{module_name}")
    for attr in function.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_every_solver_branch_has_a_declared_count():
    declared = {
        metric["name"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    branches = [value for name, value in vars(solver).items() if name.startswith("BRANCH_")]
    assert branches
    missing = [b for b in branches if f"solver.branch.{b}.count" not in declared]
    assert missing == []
