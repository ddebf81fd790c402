"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 perfbench/smoke.py

For each workload it runs run.py --smoke untraced and traced, and asserts
that every metric named in BENCHMARK.json is emitted with its unit, that
every output check passed, that the traced self-times of the layers sum to
the op wall time within the reported tracing overhead, and that layers a
workload bypasses record no work.  It also checks that the benchmark fails
without printing a result in a directory that holds only the benchmark.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")
GLUE_PER_OP_S = 1e-4  # benchmark code inside an op's timer but outside every layer

# counts that must be zero on a workload that bypasses the layer, and
# positive on the workload that exercises it
WORK = {
    "simplex.lattice_points": {"exact-lattice", "cli-configs"},
    "predictors.kl_solves": {"sampled-kl", "cli-configs"},
    "deviation.distinct_rows": {"sampled-kl", "sampled-large"},
    "predictors.scalar_calls": {"cli-configs"},
    "cli.bytes_out": {"cli-configs"},
}


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc, spec_metrics, label: str):
    assert proc.returncode == 0, "%s: exit %d\n%s" % (label, proc.returncode, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec_metrics}
    assert got == want, "%s: metrics %s, expected %s" % (label, sorted(got), sorted(want))
    ops_per_round = sum(1 for line in lines if line.startswith("op "))
    return result["metrics"], ops_per_round


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        metrics, _ = _result(_run(ROOT, workload, 0), spec["end_to_end"], workload)
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)

        layers, ops = _result(_run(ROOT, workload, 1), spec["per_layer"], workload + " traced")
        value = {name: m["value"] for name, m in layers.items()}
        wall = value["trace.op_wall_s"]
        unattributed = wall * (1.0 - value["trace.attributed_share"])
        allowed = abs(value["trace.overhead_s"]) + GLUE_PER_OP_S * ops
        assert -1e-9 <= unattributed <= allowed, (workload, unattributed, allowed)
        assert value["trace.attributed_share"] >= 0.8, (workload, value["trace.attributed_share"])
        for name, users in WORK.items():
            assert (value[name] > 0) == (workload in users), (workload, name, value[name])
        print("ok  %-14s  untraced + traced, layers cover %.4f of %.4f s op wall"
              % (workload, value["trace.attributed_share"], wall))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  without the sources the benchmark exits %d and prints no result"
              % proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
