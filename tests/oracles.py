"""Independent references and fixtures for the tests: a composition
generator, the `scipy.special.gammaln` multinomial log-pmf and a scenario
writer.  Acceptance criteria 05 and 11 sum and run through them."""
import json
from typing import Iterator

import numpy as np
from scipy.special import gammaln

from ddlab import SCHEMA_VERSION, Distribution, EmpiricalDistribution, Problem


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
