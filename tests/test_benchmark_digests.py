"""The benchmark's seed-0 outputs, checked against its recorded digests.

Each workload of ``benchmarks/workloads.py`` is built from seed 0 and run
once, every output through the workload's own check; the sha256 of the
joined rendered outputs must equal the one in ``benchmarks/digests.json``.
This makes "byte-identical output" a test. Both files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
DIGESTS = json.loads((BENCHMARKS / "digests.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", BENCHMARKS / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


def test_every_workload_has_a_recorded_digest():
    assert set(WORKLOADS) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_output_matches_the_recorded_digest(name):
    texts = [op.check(op.run()) for op in WORKLOADS[name](0).ops]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == DIGESTS[name]
