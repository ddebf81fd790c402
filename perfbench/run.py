"""ddlab benchmark: one workload per process, closed loop, single-threaded.

    python3 perfbench/run.py --workload exact-lattice --seed 1 --seconds 20 --trace 0

Runs the workload's ops in rounds (every op once per round, in a fixed
order) until another round would overrun --seconds, checks every output,
and prints a header line, one line per op, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced rounds
alternate and the metrics are the per-layer ones from the traced rounds,
plus the tracing overhead.  --smoke shrinks every op for a quick check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-lattice", "sampled-kl", "sampled-large", "cli-configs")
SETUP_PROBES = 5  # fresh processes timing set-up, besides this one
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op sizes")
    parser.add_argument("--probe-setup", action="store_true",
                        help="time set-up only and print the seconds")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run header


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, else the env setting."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found or {"env": os.environ[BLAS_ENV[0]]}


def _header(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Record:
    op: object  # workloads.Op
    wall: float
    result: object
    status: str
    counts: dict


def _run_round(ops, tracer=None):
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
            tracer.counts = {}
            tracer.last_multiplicity = None
        start = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.call("bench.op", op.run, (), {})
        except Exception as exc:  # an op that raises counts as failed
            wall = perf_counter() - start
            records.append(Record(op, wall, None, "fail: %s: %s" % (type(exc).__name__, exc), {}))
            continue
        wall = perf_counter() - start
        counts = dict(tracer.counts) if tracer is not None else {}
        records.append(Record(op, wall, result, op.check(result), counts))
    return records


def _fits(started: float, units_done: int, seconds: float) -> bool:
    """Whether one more unit (a round, or an untraced+traced pair) fits."""
    elapsed = perf_counter() - started
    return elapsed + elapsed / units_done <= seconds


def _setup_seconds(args, own: float) -> float:
    times = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _rel_err(rec) -> float:
    rep = rec.result
    return rep.method.std_err / rep.probability


def _passing_importance(records):
    return [r for r in records if r.op.kind == "importance" and r.status == "ok"
            and r.result.probability > 0.0]


def _seconds_to_1pct(records) -> float:
    """Seconds to a disappointment probability with 1% relative error: an
    exact op needs its own wall time, an importance-sampling op its wall
    time scaled by (relative standard error / 1%)^2."""
    total = sum(r.wall for r in records if r.op.kind == "exact" and r.status == "ok")
    for r in _passing_importance(records):
        total += r.wall * (_rel_err(r) / 0.01) ** 2
    return total


def end_to_end(rounds, setup_s: float) -> dict:
    records = [r for rnd in rounds for r in rnd]
    walls = [r.wall for r in records]
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0]
    # the median of each op's median: a pooled median of a round of unequal
    # ops would fall on the boundary between two ops' latencies
    p50 = statistics.median(statistics.median(r.wall for r in records if r.op is first.op)
                            for first in rounds[0])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(sum(r.op.items for r in rnd) / sum(r.wall for r in rnd)
                                         for rnd in rounds),
        "op_p50_s": p50,
        "op_p90_s": p90,
        "s_to_1pct": statistics.median(_seconds_to_1pct(rnd) for rnd in rounds),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _layer_round(tracer, span_range, records, untraced_wall: float) -> dict:
    inclusive, self_s = tracer.span_totals(*span_range)
    counts = {}
    for r in records:
        for key, val in r.counts.items():
            counts[key] = counts.get(key, 0) + val
    passing_is = _passing_importance(records)
    op_wall = sum(r.wall for r in records)
    kl_solves = counts.get("predictors.kl_solves", 0)
    drawn = counts.get("deviation.drawn_rows", 0)
    inc = lambda name: inclusive.get(name, 0.0)  # noqa: E731
    return {
        "simplex.lattice_s": inc("simplex.lattice"),
        "simplex.lattice_points": counts.get("simplex.lattice_points", 0),
        "simplex.lattice_bytes": counts.get("simplex.lattice_bytes", 0),
        "deviation.logpmf_s": inc("deviation.logpmf"),
        "predictors.matrix_s": inc("predictors.matrix"),
        "predictors.variance_matrix_s": inc("predictors.variance_matrix"),
        "prescriptors.select_s": inc("prescriptors.select"),
        "predictors.kl_solves": kl_solves,
        "predictors.kl_solve_s": inc("predictors.kl_solve"),
        "predictors.kl_s_per_solve": inc("predictors.kl_solve") / kl_solves if kl_solves else 0.0,
        "deviation.is_ess": (statistics.fmean(r.result.method.ess for r in passing_is)
                             if passing_is else 0.0),
        "deviation.is_rel_err": (statistics.fmean(_rel_err(r) for r in passing_is)
                                 if passing_is else 0.0),
        "deviation.is_hits": sum(r.counts.get("deviation.is_hits", 0) for r in passing_is),
        "deviation.sample_s": inc("deviation.sample"),
        "deviation.dedup_s": inc("deviation.dedup"),
        "deviation.distinct_rows": counts.get("deviation.distinct_rows", 0),
        "deviation.dedup_ratio": counts.get("deviation.distinct_rows", 0) / drawn if drawn else 0.0,
        "decisions.load_s": inc("decisions.load"),
        "cli.config_s": inc("cli.config"),
        "cli.emit_s": inc("cli.emit"),
        "cli.bytes_out": counts.get("cli.bytes_out", 0),
        "predictors.scalar_calls": counts.get("predictors.scalar_calls", 0),
        "predictors.scalar_s": inc("predictors.scalar"),
        "prescriptors.prescribe_s": inc("prescriptors.prescribe"),
        "prescriptors.convexity_s": inc("prescriptors.convexity"),
        **{"%s.self_s" % layer: self_s.get(layer, 0.0) for layer in LAYERS},
        "trace.op_wall_s": op_wall,
        "trace.overhead_s": op_wall - untraced_wall,
        "trace.attributed_share": sum(self_s.get(layer, 0.0) for layer in LAYERS) / op_wall,
    }


def per_layer(tracer, traced_rounds) -> dict:
    rows = [_layer_round(tracer, span_range, records, untraced)
            for span_range, records, untraced in traced_rounds]
    return {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ddlab", "__init__.py")):
        sys.stderr.write("perfbench: no ddlab sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    for var in BLAS_ENV:  # one BLAS thread: each workload is single-threaded
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        started = perf_counter()  # set-up: before `import ddlab` to the first op
        import workloads

        ops = workloads.build(args.workload, args.seed, args.smoke, os.path.join(tmp, "out"))
        own_setup = perf_counter() - started
        if not os.path.dirname(sys.modules["ddlab"].__file__).startswith(os.path.join(ROOT, "src")):
            sys.stderr.write("perfbench: ddlab was not imported from this checkout\n")
            return 2
        if args.probe_setup:
            print(repr(own_setup))
            return 0

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        print("header " + json.dumps(_header(args), sort_keys=True), flush=True)
        rounds = []
        traced_rounds = []
        tracer = None
        measure_start = perf_counter()
        if args.trace:
            tracer = Tracer()
            while True:
                untraced = _run_round(ops)
                first = len(tracer.spans)
                tracer.install()
                try:
                    traced = _run_round(ops, tracer)
                finally:
                    tracer.uninstall()
                rounds += [untraced, traced]
                traced_rounds.append(((first, len(tracer.spans)), traced,
                                      sum(r.wall for r in untraced)))
                if not _fits(measure_start, len(traced_rounds), args.seconds):
                    break
        else:
            while True:
                rounds.append(_run_round(ops))
                if not _fits(measure_start, len(rounds), args.seconds):
                    break

        records = [r for rnd in rounds for r in rnd]
        for op in ops:
            mine = [r for r in records if r.op is op]
            statuses = sorted(set(r.status for r in mine))
            print("op %-28s runs %4d  median %.6f s  %s" % (
                op.name, len(mine), statistics.median(r.wall for r in mine), "; ".join(statuses)))
        failed = sum(1 for r in records if r.status.startswith("fail"))
        if args.trace:
            metrics = per_layer(tracer, traced_rounds)
            tracer.write(os.path.join(ROOT, ".perfbench-out",
                                      "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
        else:
            metrics = end_to_end(rounds, _setup_seconds(args, own_setup))
        result = {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
