"""The bits of exact disappointment, and of sampled prescriptions.

`disappointment_exact` streams the lattice through normalisation, the
moments pass, the predictor values, decision selection and the hit
log-pmf; `disappointment_mc` and `disappointment_importance` share the
indicator of the prescription branch.  A golden of `float.hex` strings pins
what they report:
  - exact `log p` of saa, svp and robust, in prescription mode and for two
    predictions, under an ExponentialRate and a PowerLaw schedule;
  - MC and IS saa and svp prescriptions: `log p`, std_err and ESS;
on newsvendor (five lattice blocks), the grid, coin, and 30 seeded problems
with d from 2 to 12 (so rows of 8 or more weights are summed by NumPy's
eight interleaved accumulators), exact ties, constant rows, zero weights,
losses scaled by 10^-3 .. 10^3 and shifted by 1e6.

The golden is re-recorded (only when a change is meant to move these bits)
with

    PYTHONPATH=src python tests/test_exact_bits.py --record
"""
import json
from pathlib import Path

import numpy as np
from conftest import assert_bits, record_bits

from ddlab import (
    Distribution,
    ExponentialRate,
    LossMatrix,
    Mode,
    PowerLaw,
    PredictorSpec,
    Problem,
    disappointment_exact,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
    lattice_size,
    load_scenario,
    speed_ratio,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "exact_bits.json"
SCHEDULES = {"exp": ExponentialRate(0.05), "pow": PowerLaw(1.0, 0.5)}
MAX_POINTS = 12_000  # lattice points per seeded exact case


def _random_problem(seed):
    """n decisions over d = 2 + seed % 11 scenarios.  Integer losses make
    exact ties common and noise on some rows breaks them; row 0 tells every
    scenario apart, row 1 repeats it (an exact tie, variances included),
    row 2 is constant on even seeds and row 3 sits 1e-14 of the loss scale
    above row 0 (a near tie inside the tie window).  Every fifth seed, the
    last scenario copies the first one's losses, so the two merge."""
    rng = np.random.default_rng(2000 + seed)
    d, n = 2 + seed % 11, int(rng.integers(4, 8))
    noise = rng.choice([0.0, 0.1], size=(n, 1)) * rng.normal(size=(n, d))
    L = rng.integers(-3, 4, size=(n, d)) + noise
    L[0] = rng.permutation(d) + 0.5 * rng.random(d)
    L[1] = L[0]
    if seed % 2 == 0:
        L[2] = L[2, 0]
    L[3] = L[0] + 1e-14 * np.abs(L).max()
    if seed % 5 == 4:
        L[:, -1] = L[:, 0]
    L *= 10.0 ** (seed % 7 - 3)
    if seed % 6 == 5:
        L += 1e6
    w = rng.dirichlet(np.ones(d))
    if seed % 3 == 0:
        w[int(rng.integers(d))] = 0.0
    return Problem(LossMatrix(L), Distribution(w / w.sum()))


def _problems():
    """(name, problem, T of its exact cases)."""
    for name, T in (("newsvendor", 60), ("absolute_loss_grid", 12), ("coin", 200)):
        yield name, load_scenario(str(ROOT / "scenarios" / (name + ".json"))), T
    for seed in range(30):
        problem = _random_problem(seed)
        T = 1
        while lattice_size(T + 1, problem.n_scenarios) <= MAX_POINTS:
            T += 1
        yield "random%d" % seed, problem, T


def exact_bits():
    out = {}
    for name, problem, T in _problems():
        p, n = problem.true_dist, problem.n_decisions
        modes = {
            "prescription": Mode.prescription(),
            "x=0": Mode.prediction(0),
            "x=%d" % (n - 1): Mode.prediction(n - 1),
        }
        for sname, schedule in SCHEDULES.items():
            for kind in ("saa", "svp", "robust"):
                spec = PredictorSpec(kind)
                for mname, mode in modes.items():
                    rep = disappointment_exact(problem, spec, mode, p, T, schedule)
                    key = "%s|%s|%s|%s|exact|log_p" % (name, sname, kind, mname)
                    out[key] = rep.log_probability.hex()
            mode = Mode.prescription()
            shift = importance_shift(problem, mode, p, speed_ratio(schedule, 12))
            for kind in ("saa", "svp"):
                spec = PredictorSpec(kind)
                key = "%s|%s|%s|prescription|" % (name, sname, kind)
                rep = disappointment_mc(problem, spec, mode, p, 12, schedule, 2000, 3)
                out[key + "mc|log_p"] = rep.log_probability.hex()
                out[key + "mc|std_err"] = rep.method.std_err.hex()
                rep = disappointment_importance(
                    problem, spec, mode, p, 12, schedule, shift, 2000, 5
                )
                out[key + "is|log_p"] = rep.log_probability.hex()
                out[key + "is|std_err"] = rep.method.std_err.hex()
                out[key + "is|ess"] = rep.method.ess.hex()
    return out


def test_exact_and_sampled_reports_reproduce_the_recorded_bits():
    assert_bits(GOLDEN, exact_bits())


def test_seeded_problems_cover_the_interleaved_sums_and_the_ties():
    """Some seeded problems keep 8 or more scenarios after merging, some
    merge, and the exact prescriptions see probabilities strictly between
    0 and 1 on most of them."""
    from ddlab import deviation

    kept, merged = set(), 0
    for name, problem, _ in _problems():
        if not name.startswith("random"):
            continue
        if deviation._merged_columns(problem.loss.values) is None:
            kept.add(problem.n_scenarios)
        else:
            merged += 1
    assert set(range(8, 13)) <= kept and merged > 0
    recorded = json.loads(GOLDEN.read_text())
    inside = [
        k for k, v in recorded.items()
        if "|prescription|exact" in k and float.fromhex(v) not in (0.0, float("-inf"))
    ]
    assert len(inside) >= 60


if __name__ == "__main__":
    record_bits(GOLDEN, exact_bits)
