"""One round of the benchmark's library workloads, run in-process through
their own oracles.

perfbench/phase_space.py and perfbench/exact_build.py are imported
read-only, so a library change that would fail one of the benchmark's
checks fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload_module(monkeypatch, name: str):
    # the workloads import their shared helpers as the top-level module "common"
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "common", raising=False)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.modules.pop("common", None)
    return mod


@pytest.mark.parametrize("name, count", [("phase_space", 45), ("exact_build", 35)])
def test_round_zero_passes_its_oracles(monkeypatch, name, count):
    ops = _workload_module(monkeypatch, name).Workload(seed=0).round(0)
    failed = [(op.kind, op.sizes) for op in ops if not op.check(op.call())]
    assert len(ops) == count and failed == []
