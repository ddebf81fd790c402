"""The benchmark checks every exact op against log p values stored once in
perfbench/reference.json; an exact engine that drifts from them must fail
here, not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("smoke", [True, False])
def test_exact_ops_match_the_stored_references(monkeypatch, smoke):
    # the full size runs the T = 120 lattice the benchmark times
    monkeypatch.chdir(ROOT)  # ops load scenarios by path relative to the root
    workloads = _workloads(monkeypatch)
    ops = workloads.lab_ops("exact-lattice", 1, smoke, workloads.load_references())
    assert ops
    assert [(op.name, op.check(op.run())) for op in ops] == [(op.name, "ok") for op in ops]


@pytest.mark.parametrize("smoke", [True, False])
def test_sampled_ops_pass_their_checks(monkeypatch, smoke):
    # seed 1, as the smoke run; the deep-tail op may only report its
    # recorded known defect, never a wrong answer; the full size runs the
    # 1e6-sample ops the benchmark times
    monkeypatch.chdir(ROOT)
    workloads = _workloads(monkeypatch)
    references = workloads.load_references()
    for workload in ("sampled-kl", "sampled-large"):
        ops = workloads.lab_ops(workload, 1, smoke, references)
        assert ops
        results = [(op.name, op.check(op.run())) for op in ops]
        assert [r for r in results if r[1].startswith("fail")] == [], workload


def test_cli_ops_match_the_golden_files(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)  # configs name their scenarios relative to the root
    workloads = _workloads(monkeypatch)
    ops = workloads.cli_ops(str(tmp_path / "out"))
    assert ops
    assert [(op.name, op.check(op.run())) for op in ops] == [(op.name, "ok") for op in ops]
