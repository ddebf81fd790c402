"""From predictors to decisions.

A prescriptor minimizes a predictor over the finite decision set.  This
module also provides the two desk-scale certificates attached to the
variance-penalized prescriptor: the gap sandwich pinning its optimal value
to the true optimum, and the grid convexity check for 1-D decision
families.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .decisions import LossMatrix, Problem, _pick_decisions, select_decisions
from .errors import ValidationError
from .predictors import (
    PredictorSpec,
    RegimeSchedule,
    _predictor_values,
    dro_condition_holds,
    predictor_value_matrix,
    speed_ratio,
)
# perfbench/tracing.py wraps this name in this module; nothing here calls it
from .predictors import variance_matrix  # noqa: F401
from .simplex import Distribution, EmpiricalDistribution


@dataclass(frozen=True, slots=True)
class PrescriptionResult:
    decision: int
    value: float
    predictor_kind: str
    gap_lower: Optional[float] = None
    gap_upper: Optional[float] = None


def prescribe(
    problem: Problem,
    spec: PredictorSpec,
    emp: EmpiricalDistribution,
    schedule: Optional[RegimeSchedule] = None,
) -> PrescriptionResult:
    """Minimize the chosen predictor over all decisions.

    Values within problem.loss.tie_window of the minimum tie; ties go to
    the decision with the smaller loss variance under emp, then to the
    lowest index.  A kl spec solves its dual only for the decisions that a
    Pinsker bound leaves within the tie window of the minimum (see
    predictors._predictor_values); the others cannot be picked.  For the
    variance-penalized predictor on an interior empirical distribution the
    result carries the gap sandwich of prescription_gap_bound.
    """
    spec = spec.resolved(schedule)
    if spec.kind == "svp" and schedule is None:
        raise ValidationError("svp prescription needs a schedule")
    ratio = speed_ratio(schedule, emp.sample_size) if schedule is not None else None
    p = emp.distribution
    W = p.weights[None, :]
    values, costs, variances = _predictor_values(
        spec, problem.loss.values, W, ratio, tie=problem.loss.tie_window
    )
    pick, value = (v[0].item() for v in _pick_decisions(problem, values.T, W, var=variances))
    gap_lower = gap_upper = None
    if spec.kind == "svp" and p.is_interior:  # from the moments of the values
        gap_lower, gap_upper = _gap_sandwich(problem, values, costs, variances)
    return PrescriptionResult(
        decision=pick,
        value=value,
        predictor_kind=spec.label,
        gap_lower=gap_lower,
        gap_upper=gap_upper,
    )


def prescription_gap_bound(
    problem: Problem, p: Distribution, T: int, schedule: RegimeSchedule
) -> Tuple[float, float]:
    """Sandwich for the variance-penalized optimal value at p.

    With ratio = a_T/T, the optimal penalized value c*_V exceeds the true
    optimum c* by at least the penalty sqrt(2*ratio*Var) of the picked
    decision and at most that of x*, the cost minimizer of least variance
    (min_variance_minimizer).  Penalties are read off the svp values, as
    value - cost, so the sandwich and the prescription see the same
    rounding of Var; it is re-checked on every call, up to
    problem.loss.tie_window.
    """
    if not p.is_interior:
        raise ValidationError("gap bound needs an interior distribution")
    ratio = speed_ratio(schedule, T)
    return _gap_sandwich(problem, *_predictor_values(
        PredictorSpec("svp"), problem.loss.values, p.weights[None, :], ratio
    ))


def _gap_sandwich(problem, values, costs, variances) -> Tuple[float, float]:
    """prescription_gap_bound from the svp values, costs and variances (1, n)."""
    pick = int(select_decisions(problem, values, variances)[0])
    x_star = int(select_decisions(problem, costs, variances)[0])
    lower = float(values[0, pick] - costs[0, pick])
    upper = float(values[0, x_star] - costs[0, x_star])
    gap = float(values[0].min()) - float(costs[0].min())
    tie = problem.loss.tie_window
    if not (lower - tie <= gap <= upper + tie):
        raise RuntimeError(
            "gap sandwich violated: %r <= %r <= %r" % (lower, gap, upper)
        )
    return lower, upper


def convexity_certificate(
    loss: LossMatrix,
    emp: EmpiricalDistribution,
    schedule: RegimeSchedule,
) -> Tuple[bool, int]:
    """Convexity diagnostics for a 1-D decision grid.

    threshold_ok reports the interiority condition under which the
    variance-penalized objective is convex whenever the underlying loss
    family is.  midpoint_violations counts grid triples (i, (i+k)/2, k)
    with even spacing whose penalized value at the midpoint exceeds the
    chord by more than 1e-9; only exact grid midpoints are tested, since a
    rounded midpoint falsely flags piecewise-linear segments.  Every such
    triple is tested in one elementwise comparison over index arrays; it
    runs the float64 operations of a pairwise loop, so the count is the
    same as that loop's on any input.
    """
    if loss.n_decisions < 3:
        raise ValidationError("decision grid too small: need >= 3 points")
    problem = Problem(loss)
    T = emp.sample_size
    ratio = speed_ratio(schedule, T)
    p = emp.distribution
    threshold_ok = dro_condition_holds(p, ratio)
    W = p.weights[None, :]
    v = predictor_value_matrix(problem, PredictorSpec("svp"), W, ratio=ratio)[0]
    i, k = np.triu_indices(v.size, 2)  # every pair with k - i >= 2
    even = (k - i) % 2 == 0
    i, k = i[even], k[even]
    violations = np.count_nonzero(v[(i + k) // 2] > 0.5 * (v[i] + v[k]) + 1e-9)
    return threshold_ok, int(violations)
