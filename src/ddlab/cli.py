"""Batch command-line front end.

Four subcommands over a scenario file: `predict` tabulates every predictor
at every decision, `prescribe` runs the argmin per predictor, `disappoint`
measures disappointment probabilities over sample sizes, and `convexity`
sweeps the certificate over penalty ratios.  Output is CSV or JSON with a
fixed column order, float repr round-tripping, "inf"/"-inf" sentinels, and
byte-identical reruns for identical config and seed.

Exit codes: 0 success, 1 runtime failure, 2 invalid input.  Failures print
a one-line JSON error record to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence

from .decisions import SCHEMA_VERSION, Problem, _read_json, load_scenario
from .deviation import (
    Mode,
    disappointment_exact,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
)
from .errors import ValidationError
from .predictors import (
    CustomTable,
    ExponentialRate,
    Logarithmic,
    PowerLaw,
    PredictorSpec,
    RegimeSchedule,
    predict_kl_dual,
    predict_robust,
    predict_saa,
    predict_svp,
    speed_ratio,
)
from .prescriptors import convexity_certificate, prescribe
from .simplex import DEFAULT_LATTICE_CAP, Distribution, EmpiricalDistribution, _real

_DEFAULT_PREDICTORS = (
    {"kind": "saa"}, {"kind": "robust"}, {"kind": "kl"}, {"kind": "svp"},
)


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("config %s: top level must be an object" % path)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            "config %s: schema_version must be %d, got %r"
            % (path, SCHEMA_VERSION, version)
        )
    return doc


def _merged_config(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config) if args.config else {"schema_version": 1}
    for key, value in vars(args).items():  # the parser's flags override file fields
        if key not in ("command", "config") and value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, key: str, why: str):
    if key not in cfg or cfg[key] is None:
        raise ValidationError("missing %r: %s" % (key, why))
    return cfg[key]


def _problem_from(cfg: dict) -> Problem:
    path = _require(cfg, "scenario", "give --scenario or a config scenario path")
    return load_scenario(path)


def _schedule_from(cfg: dict) -> RegimeSchedule:
    doc = cfg.get("schedule", {"kind": "exponential", "rate": 0.1})
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("schedule must be an object with a 'kind'")
    kind = doc["kind"]
    try:
        if kind == "exponential":
            return ExponentialRate(doc["rate"])
        if kind == "power":
            return PowerLaw(doc["coeff"], doc["exponent"])
        if kind == "log":
            return Logarithmic(doc["coeff"])
        if kind == "table":
            return CustomTable(doc["points"])
    except KeyError as exc:
        raise ValidationError("schedule %r missing field %s" % (kind, exc)) from exc
    raise ValidationError("unknown schedule kind %r" % (kind,))


def _specs_from(cfg: dict) -> List[PredictorSpec]:
    docs = cfg.get("predictors", list(_DEFAULT_PREDICTORS))
    if not isinstance(docs, list) or not docs:
        raise ValidationError("predictors must be a nonempty list")
    specs = []
    for doc in docs:
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValidationError("each predictor needs a 'kind'")
        specs.append(PredictorSpec(doc["kind"], doc.get("radius")))
    return specs


def _mode_from(cfg: dict) -> Mode:
    doc = _require(cfg, "mode", "prediction(decision) or prescription")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("mode must be an object with a 'kind'")
    return Mode(doc["kind"], doc.get("decision"))


def _empirical_from(cfg: dict) -> EmpiricalDistribution:
    counts = _require(cfg, "counts", "empirical scenario counts")
    return EmpiricalDistribution(counts)


# ---------------------------------------------------------------------------
# serialization

_INF = {math.inf: "inf", -math.inf: "-inf"}  # the sentinels of both formats


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Distribution):
        return ";".join(repr(float(w)) for w in v.weights)
    if isinstance(v, float):
        return _INF.get(v, repr(float(v)))
    return str(v)


def _json_cell(v):
    if isinstance(v, Distribution):
        return [float(w) for w in v.weights]
    if isinstance(v, float):
        return _INF.get(v, float(v))
    return v


def _emit(command: str, rows: List[tuple], cfg: dict) -> None:
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValidationError("format must be csv or json")
    cols = _COMMANDS[command][2]
    rows = [(SCHEMA_VERSION,) + row for row in rows]
    if fmt == "csv":
        lines = [",".join(cols)] + [",".join(map(_csv_cell, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = [{c: _json_cell(v) for c, v in zip(cols, row)} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_predict(cfg: dict) -> List[tuple]:
    problem = _problem_from(cfg)
    emp = _empirical_from(cfg)
    schedule = _schedule_from(cfg)
    specs = [s.resolved(schedule) for s in _specs_from(cfg)]
    a_T = schedule.a(emp.sample_size)
    rows = []
    for x in range(problem.n_decisions):
        for spec in specs:
            if spec.kind == "saa":
                res = predict_saa(problem, x, emp)
            elif spec.kind == "robust":
                res = predict_robust(problem, x)
            elif spec.kind == "kl":
                res = predict_kl_dual(problem, x, emp.distribution, spec.radius)
            else:
                res = predict_svp(problem, x, emp, schedule)
            rows.append((x, spec.label, res.value, a_T, res.condition_ok, res.worst_case))
    return rows


def cmd_prescribe(cfg: dict) -> List[tuple]:
    problem = _problem_from(cfg)
    emp = _empirical_from(cfg)
    schedule = _schedule_from(cfg)
    specs = _specs_from(cfg)
    a_T = schedule.a(emp.sample_size)
    rows = []
    for spec in specs:
        res = prescribe(problem, spec, emp, schedule)
        rows.append((
            res.predictor_kind, res.decision, res.value, res.gap_lower, res.gap_upper, a_T
        ))
    return rows


def cmd_disappoint(cfg: dict) -> List[tuple]:
    problem = _problem_from(cfg)
    if problem.true_dist is None:
        raise ValidationError(
            "scenario carries no true_dist; disappointment experiments need one"
        )
    p = problem.true_dist
    schedule = _schedule_from(cfg)
    specs = [s.resolved(schedule) for s in _specs_from(cfg)]
    mode = _mode_from(cfg)
    T_list = _require(cfg, "T_list", "sample sizes to sweep")
    if not isinstance(T_list, list) or not T_list:
        raise ValidationError("T_list must be a nonempty list")
    method = cfg.get("method", "exact")
    cap = cfg.get("cap", DEFAULT_LATTICE_CAP)
    n_samples = cfg.get("n_samples", 100_000)
    seed = cfg.get("seed")
    if method in ("mc", "importance") and seed is None:
        raise ValidationError("stochastic methods need a seed")
    shift = cfg.get("shift")
    shift = None if shift is None else Distribution(shift)
    rows = []
    for T in sorted(T_list):
        for spec in specs:
            if method == "exact":
                rep = disappointment_exact(problem, spec, mode, p, T, schedule, cap=cap)
            elif method == "mc":
                rep = disappointment_mc(
                    problem, spec, mode, p, T, schedule, n_samples, seed
                )
            elif method == "importance":
                q = shift if shift is not None else importance_shift(
                    problem, mode, p, speed_ratio(schedule, T))
                rep = disappointment_importance(
                    problem, spec, mode, p, T, schedule, q, n_samples, seed
                )
            else:
                raise ValidationError("method must be exact, mc, or importance")
            rows.append((
                rep.T, schedule.a(rep.T), spec.label, rep.probability, rep.rate,
                rep.method.name, rep.method.std_err,
            ))
    return rows


def cmd_convexity(cfg: dict) -> List[tuple]:
    problem = _problem_from(cfg)
    emp = _empirical_from(cfg)
    ratios = _require(cfg, "ratios", "penalty ratios a_T/T to sweep")
    if not isinstance(ratios, list) or not ratios:
        raise ValidationError("ratios must be a nonempty list")
    T = emp.sample_size
    rows = []
    for ratio in ratios:
        ratio = _real(ratio, "ratios", 0, strict=True)
        schedule = CustomTable(((T, ratio * T),))
        ok, violations = convexity_certificate(problem.loss, emp, schedule)
        rows.append((ratio, ratio * T, ok, violations))
    return rows


# name: (handler, help text, output columns), for the parser and _emit; each
# handler returns tuples in column order, and _emit prepends schema_version
_COMMANDS = {
    "predict": (cmd_predict, "tabulate every predictor at every decision", [
        "schema_version", "decision", "predictor", "value", "a_T",
        "condition_ok", "worst_case"]),
    "prescribe": (cmd_prescribe, "argmin each predictor over the decision set", [
        "schema_version", "predictor", "decision", "value", "gap_lower",
        "gap_upper", "a_T"]),
    "disappoint": (cmd_disappoint, "measure disappointment probabilities over T", [
        "schema_version", "T", "a_T", "predictor", "probability", "rate",
        "method", "std_err"]),
    "convexity": (cmd_convexity, "sweep the convexity certificate over ratios", [
        "schema_version", "ratio", "a_T", "threshold_ok", "midpoint_violations"]),
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="Data-driven predictors, prescriptors, and the "
        "disappointment laboratory over finite scenario sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", help="scenario JSON path")
        p.add_argument("--config", help="experiment config JSON path")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", type=int)
        p.add_argument("--method", choices=("exact", "mc", "importance"))
        p.add_argument("--cap", type=int)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None  # built by the first main call


def _error_record(exc: Exception, exit_code: int) -> str:
    record = {
        "schema_version": SCHEMA_VERSION,
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code,
    }
    for attr in ("field", "line", "size", "cap", "bracket", "lhs", "rhs"):
        val = getattr(exc, attr, None)
        if val is not None:
            record[attr] = val if not isinstance(val, tuple) else list(val)
    return json.dumps(record)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and return its exit code, without raising
    `SystemExit`: 2 for bad arguments (argparse's usage text on stderr) and
    for invalid input, 1 for runtime failures, 0 on success and for
    `--help`.  The parser is built on the first call and reused (parse_args
    leaves it as it was), so repeated calls in one process pay for it once."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits after usage errors and --help
        return exc.code
    try:
        cfg = _merged_config(args)
        rows = _COMMANDS[args.command][0](cfg)
        _emit(args.command, rows, cfg)
        return 0
    except (ValueError, TypeError, LookupError) as exc:  # any malformed value
        sys.stderr.write(_error_record(exc, 2) + "\n")
        return 2
    except Exception as exc:  # runtime failures: cap, convergence, IO
        sys.stderr.write(_error_record(exc, 1) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
