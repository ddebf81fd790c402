"""The benchmark checks every exact op against log p values stored once in
perfbench/reference.json; an exact engine that drifts from them must fail
here, not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_exact_ops_match_the_stored_references(monkeypatch):
    monkeypatch.chdir(ROOT)  # ops load scenarios by path relative to the root
    workloads = _workloads(monkeypatch)
    ops = workloads.lab_ops("exact-lattice", 1, True, workloads.load_references())
    assert ops
    assert [(op.name, op.check(op.run())) for op in ops] == [(op.name, "ok") for op in ops]
