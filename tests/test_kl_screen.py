"""KL prescriptions solve the 1-D dual only for the decisions that can win.

`predictors._predictor_values` screens the (weight row, decision) pairs of
a kl prescription with a Pinsker bound before the dual kernel runs.  The
picks and picked values must not move by a bit: a golden of `float.hex`
values recorded before the screen existed guards that, a count of the
pairs the kernel receives shows the screen working, and a property test
checks that every skipped pair's full value lies outside the tie window.

The golden is re-recorded (only when a change is meant to move these bits)
with

    PYTHONPATH=src python tests/test_kl_screen.py --record
"""
from pathlib import Path

import numpy as np
from conftest import assert_bits, record_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (
    Distribution,
    EmpiricalDistribution,
    ExponentialRate,
    LossMatrix,
    Mode,
    PredictorSpec,
    Problem,
    disappointment_exact,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
    load_scenario,
    prescribe,
    variance_matrix,
)
from ddlab import deviation, predictors
from ddlab.decisions import select_decisions

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "kl_prescription_bits.json"
RADII = (0.001, 0.02, 0.1, 0.5, 3.0)


def _random_problem(seed):
    """A small problem with an exact tie, a near tie inside the tie window,
    a constant row, losses scaled by 10^-3 .. 10^3 and, every third seed, a
    true distribution on the boundary of the simplex."""
    rng = np.random.default_rng(1000 + seed)
    n, d = int(rng.integers(4, 8)), int(rng.integers(2, 5))
    L = rng.normal(size=(n, d))
    L[1] = L[0]
    L[2] = 0.3
    L[3] = L[0] + 1e-14 * np.abs(L).max()
    L *= 10.0 ** (seed % 7 - 3)
    w = rng.dirichlet(np.ones(d))
    if seed % 3 == 0:
        w[int(rng.integers(d))] = 0.0
    return Problem(LossMatrix(L), Distribution(w / w.sum()))


def _problems():
    named = {
        name: load_scenario(str(ROOT / "scenarios" / (name + ".json")))
        for name in ("newsvendor", "coin", "absolute_loss_grid")
    }
    named.update(("random%d" % s, _random_problem(s)) for s in range(12))
    return named


def _laboratory_bits():
    """float.hex of the exact, MC and IS kl prescriptions over the sweep."""
    out = {}
    for name, problem in _problems().items():
        p, mode = problem.true_dist, Mode.prescription()
        T_exact = 6 if problem.n_scenarios > 4 else 10
        for r in RADII:
            spec, schedule = PredictorSpec("kl", r), ExponentialRate(r)
            key = "%s|r=%r|" % (name, r)
            rep = disappointment_exact(problem, spec, mode, p, T_exact, schedule)
            out[key + "exact|log_p"] = rep.log_probability.hex()
            rep = disappointment_mc(problem, spec, mode, p, 12, schedule, 2000, 7)
            out[key + "mc|log_p"] = rep.log_probability.hex()
            out[key + "mc|std_err"] = rep.method.std_err.hex()
            shift = importance_shift(problem, mode, p, r)
            rep = disappointment_importance(
                problem, spec, mode, p, 12, schedule, shift, 2000, 11
            )
            out[key + "is|log_p"] = rep.log_probability.hex()
            out[key + "is|std_err"] = rep.method.std_err.hex()
            out[key + "is|ess"] = rep.method.ess.hex()
    return out


def _prescribe_bits():
    """float.hex of prescribe(kl) on 200 seeded one-sample problems."""
    out = {}
    for k in range(200):
        rng = np.random.default_rng(5000 + k)
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        L = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        if n > 2 and k % 2:
            L[1] = L[0]  # an exact tie
        if n > 2 and k % 5 == 0:
            L[-1] = L[-1, 0]  # a constant row
        if k % 7 == 0:
            L += 1e6
        T = int(rng.integers(1, 30))
        emp = EmpiricalDistribution(rng.multinomial(T, rng.dirichlet(np.ones(d))))
        r = RADII[k % len(RADII)] if k % 4 else float(rng.uniform(1e-4, 5.0))
        res = prescribe(Problem(LossMatrix(L)), PredictorSpec("kl", r), emp)
        out["prescribe%d|decision" % k] = str(res.decision)
        out["prescribe%d|value" % k] = res.value.hex()
    return out


def kl_prescription_bits():
    return {**_laboratory_bits(), **_prescribe_bits()}


def test_kl_prescriptions_reproduce_the_recorded_bits():
    assert_bits(GOLDEN, kl_prescription_bits())


def _count_kernel_pairs(monkeypatch, run):
    """(pairs per kernel call, rows per indicator call) while `run` runs."""
    pairs, rows = [], []
    kernel, indicator = predictors._kl_dual_solve, deviation._disappointment_indicator

    def counting_kernel(L, W, r):
        pairs.append(L.shape[0])
        return kernel(L, W, r)

    def counting_indicator(problem, spec, mode, Q, *args, **kwargs):
        rows.append(Q.shape[0])
        return indicator(problem, spec, mode, Q, *args, **kwargs)

    monkeypatch.setattr(predictors, "_kl_dual_solve", counting_kernel)
    monkeypatch.setattr(deviation, "_disappointment_indicator", counting_indicator)
    run()
    return pairs, rows


class TestScreenCounts:
    """Without the screen the kernel gets 6 pairs per distinct row here: one
    per nonconstant newsvendor decision."""

    def setup_method(self):
        self.problem = load_scenario(str(ROOT / "scenarios" / "newsvendor.json"))
        self.args = (
            self.problem, PredictorSpec("kl", 0.02), Mode.prescription(),
            self.problem.true_dist, 12, ExponentialRate(0.02),
        )

    def test_histogram_sends_few_pairs_per_distinct_row(self, monkeypatch):
        pairs, rows = _count_kernel_pairs(
            monkeypatch, lambda: disappointment_mc(*self.args, 100_000, 1)
        )
        assert len(pairs) == len(rows) == 1  # one kernel call per block
        assert rows[0] > 300
        assert pairs[0] <= 3.5 * rows[0]

    def test_lattice_sends_few_pairs_per_point(self, monkeypatch):
        pairs, rows = _count_kernel_pairs(
            monkeypatch, lambda: disappointment_exact(*self.args)
        )
        assert rows == [455]  # comb(15, 3) lattice points in one block
        assert len(pairs) == 1 and pairs[0] <= 3.5 * rows[0]


_weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    r=st.one_of(st.floats(1e-4, 5.0), st.floats(3.0, 5.0)),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_every_skipped_pair_is_out_of_the_tie_window(data, seed, r, scale, offset):
    n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
    row = st.lists(_weight, min_size=d, max_size=d).filter(lambda w: sum(w) > 0.0)
    W = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
    W /= W.sum(axis=1, keepdims=True)  # zeros stay: the simplex boundary
    rng = np.random.default_rng(seed)
    # integer losses make exact ties common; noise on some rows breaks them
    noise = rng.choice([0.0, 0.1], size=(n, 1)) * rng.normal(size=(n, d))
    L = (rng.integers(-2, 3, size=(n, d)) + noise) * scale + offset
    problem = Problem(LossMatrix(L))
    tie, spec = problem.loss.tie_window, PredictorSpec("kl", r)
    full = predictors._predictor_values(spec, L, W, None)[0]
    screened = predictors._predictor_values(spec, L, W, None, tie=tie)[0]
    var = variance_matrix(problem, W)
    skipped = np.isinf(screened)
    assert np.array_equal(screened[~skipped], full[~skipped])
    assert (full > full.min(axis=1, keepdims=True) + tie)[skipped].all()
    picks = select_decisions(problem, screened, var)
    assert np.array_equal(picks, select_decisions(problem, full, var))


if __name__ == "__main__":
    record_bits(GOLDEN, kl_prescription_bits)
