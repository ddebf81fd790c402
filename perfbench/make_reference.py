"""Regenerate the benchmark's stored references from the library as it is.

Writes perfbench/reference.json (exact log-probabilities for every
laboratory op, full and smoke sizes) and perfbench/golden/ (the output of
every shipped CLI config).  Run it from the repository root, only when the
references are meant to move:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ddlab  # noqa: E402
import ddlab.cli  # noqa: E402

import workloads  # noqa: E402


def exact_references() -> dict:
    refs = {}
    problems = {}
    for op in workloads.all_lab_ops():
        if op.reference_key not in refs:
            rep = ddlab.disappointment_exact(*workloads.lab_args(op, problems))
            refs[op.reference_key] = rep.log_probability
            print("%s  log p = %r" % (op.reference_key, rep.log_probability), flush=True)
    return refs


def write_goldens() -> None:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out = os.path.join(tmp, "out")
        for command, config in workloads.cli_configs():
            rc = ddlab.cli.main([command, "--config", config, "--out", out])
            if rc != 0:
                raise SystemExit("%s exited with %d" % (config, rc))
            with open(out, "rb") as src, open(workloads.golden_path(config), "wb") as dst:
                dst.write(src.read())
            print("golden  %s" % workloads.golden_path(config), flush=True)


def main() -> None:
    os.chdir(ROOT)
    refs = exact_references()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"exact_log_probability": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    write_goldens()


if __name__ == "__main__":
    main()
