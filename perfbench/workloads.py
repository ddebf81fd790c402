"""Workload definitions: the operations each benchmark workload runs, the
inputs they take, and the check each output must pass.

Every laboratory operation is described by a `LabOp` record, so the
reference generator and the benchmark share one table.  Sampler seeds are
derived from the workload seed; the library only sees the generated inputs.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import ddlab
import ddlab.cli
from ddlab import deviation

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
GOLDEN_DIR = os.path.join(HERE, "golden")
CONFIG_DIR = os.path.join("scenarios", "configs")

EXACT_LOG_RTOL = 1e-9  # exact ops: log p against the stored reference
DEEP_LOG_ATOL = 0.05  # log-space check where p itself underflows
SIGMAS = 4.0  # sampled ops: the yardstick of acceptance criterion 04


@dataclass(frozen=True)
class LabOp:
    """One call into the disappointment laboratory."""

    name: str
    scenario: str  # file name under scenarios/
    predictor: str
    radius: Optional[float]
    decision: Optional[int]  # None selects prescription mode
    T: int
    rate: float  # ExponentialRate(rate), so a_T / T = rate
    method: str  # exact | mc | importance
    n_samples: int = 0
    known_defect: str = ""  # a recorded seed defect: expected -inf log p

    @property
    def reference_key(self) -> str:
        mode = "prescription" if self.decision is None else "prediction:%d" % self.decision
        return "%s|%s|%r|%s|T=%d|rate=%r" % (
            self.scenario, self.predictor, self.radius, mode, self.T, self.rate,
        )


def _exact_lattice(smoke: bool) -> List[LabOp]:
    T = 12 if smoke else 120
    ops = []
    for kind in ("svp", "saa"):
        ops.append(LabOp("%s-prescription" % kind, "newsvendor.json", kind, None, None, T, 0.02, "exact"))
        ops.append(LabOp("%s-prediction" % kind, "newsvendor.json", kind, None, 4, T, 0.02, "exact"))
    return ops


def _sampled_kl(smoke: bool) -> List[LabOp]:
    n = 2_000 if smoke else 100_000
    deep_n = 2_000 if smoke else 20_000
    ops = []
    for T, decision in ((50, 4), (12, None)):
        tag = "prediction" if decision is not None else "prescription"
        for method in ("mc", "importance"):
            ops.append(LabOp(
                "kl-%s-%s" % (tag, method), "newsvendor.json", "kl", 0.02,
                decision, T, 0.02, method, n,
            ))
    ops.append(LabOp(
        "kl-deep-tail-importance", "coin.json", "kl", 0.1, 1, 8000, 0.1,
        "importance", deep_n,
        known_defect="importance weights underflow: log p is -inf, exact is -804.7",
    ))
    return ops


def _sampled_large(smoke: bool) -> List[LabOp]:
    n = 5_000 if smoke else 1_000_000
    return [
        LabOp("svp-prescription-mc", "newsvendor.json", "svp", None, None, 200, 0.02, "mc", n),
        LabOp("saa-prediction-importance", "newsvendor.json", "saa", None, 4, 200, 0.02, "importance", n),
    ]


LAB_WORKLOADS = {
    "exact-lattice": _exact_lattice,
    "sampled-kl": _sampled_kl,
    "sampled-large": _sampled_large,
}
CLI_WORKLOAD = "cli-configs"


def all_lab_ops() -> List[LabOp]:
    """Every laboratory op at both sizes (the reference generator's list)."""
    return [op for build in LAB_WORKLOADS.values() for smoke in (False, True) for op in build(smoke)]


def cli_configs() -> List[Tuple[str, str]]:
    """(subcommand, config path) for every shipped config, in name order."""
    names = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))
    return [(name.split("_")[0], os.path.join(CONFIG_DIR, name)) for name in names]


def golden_path(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return os.path.join(GOLDEN_DIR, stem + ".out")


# ---------------------------------------------------------------------------
# runnable ops


@dataclass
class Op:
    """A timed operation: `run` makes the call, `check` classifies its result
    as "ok", "fail: ..." or "known-defect: ...".  `items` is the work the op
    does in the workload's throughput unit."""

    name: str
    kind: str  # exact | mc | importance | cli
    items: int
    run: Callable[[], object]
    check: Callable[[object], str]


def _seed_for(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0])


def lab_args(spec: LabOp, problems: Dict[str, ddlab.Problem]) -> tuple:
    """(problem, predictor, mode, p, T, schedule): the arguments every
    laboratory entry point takes first.  `problems` caches loaded scenarios."""
    if spec.scenario not in problems:
        problems[spec.scenario] = ddlab.load_scenario(os.path.join("scenarios", spec.scenario))
    problem = problems[spec.scenario]
    mode = (ddlab.Mode.prescription() if spec.decision is None
            else ddlab.Mode.prediction(spec.decision))
    return (problem, ddlab.PredictorSpec(spec.predictor, spec.radius), mode,
            problem.true_dist, spec.T, ddlab.ExponentialRate(spec.rate))


def _check_exact(ref: float) -> Callable[[object], str]:
    def check(rep) -> str:
        if abs(rep.log_probability - ref) <= EXACT_LOG_RTOL * max(1.0, abs(ref)):
            return "ok"
        return "fail: log p %r, reference %r" % (rep.log_probability, ref)
    return check


def _check_sampled(spec: LabOp, ref: float) -> Callable[[object], str]:
    pe = math.exp(ref)
    sigma = math.sqrt(max(pe * (1.0 - pe), 0.0) / spec.n_samples)

    def check(rep) -> str:
        if pe > 0.0:
            se = rep.method.std_err if spec.method == "importance" else 0.0
            yard = SIGMAS * max(se, sigma)
            ok = abs(rep.probability - pe) <= yard
            detail = "p %r, reference %r, allowed %r" % (rep.probability, pe, yard)
        else:  # the reference itself underflows: compare in log space
            ok = abs(rep.log_probability - ref) <= DEEP_LOG_ATOL
            detail = "log p %r, reference %r" % (rep.log_probability, ref)
        if ok:
            return "ok"
        if spec.known_defect and rep.log_probability == -math.inf:
            return "known-defect: " + spec.known_defect
        return "fail: " + detail
    return check


def lab_ops(workload: str, seed: int, smoke: bool, references: Dict[str, float]) -> List[Op]:
    problems: Dict[str, ddlab.Problem] = {}
    ops = []
    for index, spec in enumerate(LAB_WORKLOADS[workload](smoke)):
        args = lab_args(spec, problems)
        ref = references[spec.reference_key]
        n, s = spec.n_samples, _seed_for(seed, index)
        # entry points are looked up at call time, so traced rounds call the wrappers
        if spec.method == "exact":
            def run(args=args):
                return deviation.disappointment_exact(*args)
            check = _check_exact(ref)
            items = ddlab.lattice_size(spec.T, args[0].n_scenarios)
        elif spec.method == "mc":
            def run(args=args, n=n, s=s):
                return deviation.disappointment_mc(*args, n, s)
            check, items = _check_sampled(spec, ref), n
        else:
            def run(args=args, n=n, s=s, ratio=spec.rate):
                problem, _, mode, p = args[:4]
                shift = deviation.importance_shift(problem, mode, p, ratio)
                return deviation.disappointment_importance(*args, shift, n, s)
            check, items = _check_sampled(spec, ref), n
        ops.append(Op(spec.name, spec.method, items, run, check))
    return ops


def cli_ops(out_path: str) -> List[Op]:
    ops = []
    for command, config in cli_configs():
        with open(golden_path(config), "rb") as fh:
            golden = fh.read()
        argv = [command, "--config", config, "--out", out_path]

        def run(argv=argv):
            return ddlab.cli.main(argv)

        def check(rc, golden=golden) -> str:
            if rc != 0:
                return "fail: exit code %r" % rc
            with open(out_path, "rb") as fh:
                if fh.read() != golden:
                    return "fail: output differs from the golden file"
            return "ok"

        kind = "exact" if command == "disappoint" else "cli"
        ops.append(Op(os.path.basename(config), kind, 1, run, check))
    return ops


def load_references() -> Dict[str, float]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {key: float(val) for key, val in doc["exact_log_probability"].items()}


def build(workload: str, seed: int, smoke: bool, out_path: str) -> List[Op]:
    """The workload's ops in round order (rotated by the seed)."""
    if workload == CLI_WORKLOAD:
        ops = cli_ops(out_path)
    else:
        ops = lab_ops(workload, seed, smoke, load_references())
    shift = seed % len(ops)
    return ops[shift:] + ops[:shift]
