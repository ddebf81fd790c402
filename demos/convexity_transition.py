"""The penalized objective stays convex only for gentle penalties.

On a grid of decisions x with loss |x - xi| the plug-in average is convex
in x, but adding sqrt(2 (a_T/T) Var(x)) can bend it: the standard
deviation term is not convex.  Sweeping the penalty ratio shows midpoint
convexity violations appear, grow, then vanish below a certified cutoff.
"""
from pathlib import Path

import numpy as np

from ddlab import (
    CustomTable,
    EmpiricalDistribution,
    PredictorSpec,
    convexity_certificate,
    load_scenario,
    predictor_value_matrix,
    prescribe,
)

ROOT = Path(__file__).resolve().parents[1]


def main():
    problem = load_scenario(str(ROOT / "scenarios" / "absolute_loss_grid.json"))
    loss = problem.loss
    emp = EmpiricalDistribution((1, 1, 1, 1, 1), 5)
    print("101 decisions on [-3, 3], loss |x - xi|, xi uniform on {-2..2}")
    print()
    print("%-10s %-14s %s" % ("ratio", "sqrt(2 a_T/T)", "midpoint violations"))
    for ratio in (2.0, 0.5, 0.1, 0.02, 0.005, 0.0008, 0.0005):
        schedule = CustomTable(((5, 5.0 * ratio),))
        ok, violations = convexity_certificate(loss, emp, schedule)
        tag = "certified convex" if ok else ""
        print("%-10g %-14.4f %-6d %s" % (ratio, np.sqrt(2 * ratio), violations, tag))
    print()

    # where the bending happens: near the flanks the deviation term kinks
    W = emp.distribution.weights[None, :]
    values = predictor_value_matrix(problem, PredictorSpec("svp"), W, ratio=0.5)[0]
    xs = np.linspace(-3.0, 3.0, 101)
    i, m, j = 5, 15, 25
    chord = 0.5 * (values[i] + values[j])
    print("ratio 0.5, worst violated triple x = %g, %g, %g:" % (xs[i], xs[m], xs[j]))
    print("value at midpoint %.4f sits %.4f ABOVE the chord %.4f"
          % (values[m], values[m] - chord, chord))
    best = prescribe(problem, PredictorSpec("svp"), emp, CustomTable(((5, 2.5),)))
    print("minimum of the bent profile is still near x=%.2f" % xs[best.decision])


if __name__ == "__main__":
    main()
