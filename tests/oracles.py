"""Independent references and fixtures for the tests: a composition
generator, the `scipy.special.gammaln` multinomial log-pmf, the per-point
exact disappointment and a scenario writer.  Acceptance criteria 05 and 11
sum and run through them."""
import json
import math
from typing import Iterator

import numpy as np
from scipy.special import gammaln, logsumexp

from ddlab import (
    SCHEMA_VERSION,
    Distribution,
    EmpiricalDistribution,
    Problem,
    cost,
    predictor_value_matrix,
    predictor_value_rows,
    speed_ratio,
    variance_matrix,
)
from ddlab import deviation, simplex
from ddlab.decisions import select_decisions


def _compositions(T: int, d: int) -> Iterator[tuple]:
    if d == 1:
        yield (T,)
        return
    for c in range(T + 1):
        for rest in _compositions(T - c, d - 1):
            yield (c,) + rest


def enumerate_lattice(T: int, d: int) -> Iterator[EmpiricalDistribution]:
    """Every composition of T into d counts, once: counts ascend on the
    first coordinate, then recursively on the rest, e.g. (T=2, d=2) gives
    (0,2), (1,1), (2,0), the rank order of `simplex._lattice_counts`."""
    for counts in _compositions(T, d):
        yield EmpiricalDistribution(counts, T)


def multinomial_log_prob(e: EmpiricalDistribution, p: Distribution) -> float:
    """log T! - sum_i log c_i! + sum_i c_i log p_i over `gammaln`, -inf for
    counts outside support(p): the bits of the library's log-pmf rows."""
    c = e.counts
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.where(p.weights > 0.0, np.log(p.weights), -np.inf)
        contrib = np.where(c > 0, c * logw, 0.0)
    return float((gammaln(c.sum() + 1.0) - gammaln(c + 1.0)[None, :].sum(axis=1)
                  + contrib[None, :].sum(axis=1))[0])


def exact_log_p(problem, spec, mode, p, T, schedule) -> float:
    """`disappointment_exact`'s log p, point by point: the scenarios merged
    as the engine merges them, then every point of the merged lattice valued
    by the public batch predictors, a prescription's pick made by
    `select_decisions` over every decision, and the hits' log-pmf reduced
    by `scipy.special.logsumexp`, in rank order."""
    problem, spec, mode, p, _ = deviation._prepare(problem, spec, mode, p, schedule)
    ratio = speed_ratio(schedule, T)
    C = simplex._lattice_counts(T, problem.n_scenarios)
    Q = deviation._normalized_rows(C, T)
    tie = problem.loss.tie_window
    if mode.kind == "prediction":
        x = mode.decision
        hit = cost(problem, x, p) > predictor_value_rows(problem, x, spec, Q, ratio=ratio) + tie
    else:
        V = predictor_value_matrix(problem, spec, Q, ratio=ratio)
        pick = select_decisions(problem, V, variance_matrix(problem, Q))
        truth = np.array([cost(problem, x, p) for x in range(problem.n_decisions)])
        hit = truth[pick] > V[np.arange(C.shape[0]), pick] + tie
    if not hit.any():
        return -math.inf
    return min(float(logsumexp(simplex._log_pmf_rows(C[hit], p, T))), 0.0)


def save_scenario(problem: Problem, path: str) -> None:
    """Write a problem to the scenario JSON format that `ddlab.load_scenario` reads."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario_labels": list(problem.loss.scenario_labels),
        "decision_labels": list(problem.loss.decision_labels),
        "loss": [[float(v) for v in row] for row in problem.loss.values],
        "true_dist": None
        if problem.true_dist is None
        else [float(w) for w in problem.true_dist.weights],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
