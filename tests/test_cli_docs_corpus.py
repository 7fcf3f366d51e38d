"""The benchmark's cli_docs corpus, run in-process through its own oracles.

perfbench/cli_docs.py is imported read-only, so a command-line change that
would fail one of the benchmark's checks fails here first.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _cli_docs_module(monkeypatch):
    # cli_docs imports its shared helpers as the top-level module "common"
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "common", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_cli_docs", PERFBENCH / "cli_docs.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.modules.pop("common", None)
    return mod


def test_every_cli_docs_entry_passes_its_oracle(monkeypatch):
    workload = _cli_docs_module(monkeypatch).Workload(seed=0)
    workload.warm_up()
    ops = workload.round(0)
    failed = [op.sizes["entry"] for op in ops if not op.check(op.call())]
    assert len(ops) == 35 and failed == []
