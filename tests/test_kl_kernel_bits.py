"""The KL dual kernel's bits, and those of every KL path built on it.

`predictors._kl_dual_solve` is the one kernel behind every KL value: the
scalar `predict_kl_dual`, `predictor_value_rows`/`_matrix`, `prescribe` and
the laboratory.  Its bits are pinned by a golden of `float.hex` strings:
  - the kernel's values and alphas on seeded blocks: d from 2 to 12, one-row
    and multi-row blocks, a block larger than `_KL_BLOCK`, rows pinned at
    the left edge, rows whose bracket is doubled, zero weights, exact ties,
    losses scaled by 1e-3 .. 1e3 or shifted by 1e6;
  - `predict_kl_dual` on the shipped scenarios: value, alpha, worst case;
  - MC and IS reports of kl predictions (`tests/test_kl_screen.py` pins
    the prescriptions).

The golden is re-recorded (only when a change is meant to move these bits)
with

    PYTHONPATH=src python tests/test_kl_kernel_bits.py --record
"""
import hashlib
from pathlib import Path

import numpy as np
from conftest import assert_bits, record_bits

from ddlab import (
    Distribution,
    ExponentialRate,
    Mode,
    PredictorSpec,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
    load_scenario,
    predict_kl_dual,
)
from ddlab import predictors

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "kl_kernel_bits.json"
RADII = (1e-4, 0.02, 0.1, 0.5, 3.0, 5.0)


def _block(seed, n, d):
    """n nonconstant rows of d losses with their weight rows.

    Integer losses make exact ties common and noise on some rows breaks
    them; every row has its own scale in 10^-3 .. 10^3, some are shifted by
    1e6, some weights are zero, and every fourth row puts no weight on its
    costliest scenario, which (with large radii) pins many minima at the
    left edge."""
    rng = np.random.default_rng(seed)
    noise = rng.choice([0.0, 0.1], size=(n, 1)) * rng.normal(size=(n, d))
    L = rng.integers(-2, 3, size=(n, d)) + noise
    flat = L.max(axis=1) == L.min(axis=1)
    L[flat, -1] += 1.0
    L *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
    L += np.where(rng.random((n, 1)) < 0.2, 1e6, 0.0)
    W = rng.dirichlet(np.full(d, 0.8), n)
    W[rng.random((n, d)) < 0.15] = 0.0
    W[np.arange(0, n, 4), L[::4].argmax(axis=1)] = 0.0
    empty = W.sum(axis=1) == 0.0
    W[empty, L[empty].argmin(axis=1)] = 1.0
    return L, W / W.sum(axis=1, keepdims=True)


def _blocks():
    """(name, L, W): a multi-row block and three one-row blocks per d."""
    for d in range(2, 13):
        L, W = _block(100 + d, 24, d)
        yield "d=%d|rows=24" % d, L, W
        for i in (0, 1, 3):  # row 0 has no weight on its costliest scenario
            yield "d=%d|row=%d" % (d, i), L[i:i + 1], W[i:i + 1]


def _kernel_bits():
    out = {}
    for name, L, W in _blocks():
        for r in RADII:
            values, alphas = predictors._kl_dual_solve(L, W, r)
            for i in range(L.shape[0]):
                key = "kernel|%s|r=%r|%d|" % (name, r, i)
                out[key + "value"] = float(values[i]).hex()
                out[key + "alpha"] = float(alphas[i]).hex()
    # more rows than one pass of the kernel takes: digests of the whole
    # block, and the rows on either side of the first pass boundary
    n = predictors._KL_BLOCK + 300
    L, W = _block(7, n, 3)
    for r in (0.02, 3.0):
        values, alphas = predictors._kl_dual_solve(L, W, r)
        key = "kernel|large|rows=%d|r=%r|" % (n, r)
        out[key + "values_sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
        out[key + "alphas_sha256"] = hashlib.sha256(alphas.tobytes()).hexdigest()
        for i in range(predictors._KL_BLOCK - 3, predictors._KL_BLOCK + 3):
            out[key + "%d|value" % i] = float(values[i]).hex()
            out[key + "%d|alpha" % i] = float(alphas[i]).hex()
    return out


def _scenarios():
    return {
        name: load_scenario(str(ROOT / "scenarios" / (name + ".json")))
        for name in ("coin", "newsvendor", "absolute_loss_grid")
    }


def _scalar_bits():
    """predict_kl_dual at the true distribution and at two seeded points,
    one of them on the boundary of the simplex, for up to 9 decisions."""
    out = {}
    for name, problem in _scenarios().items():
        rng = np.random.default_rng(len(name))
        d = problem.n_scenarios
        boundary = rng.dirichlet(np.ones(d))
        boundary[int(rng.integers(d))] = 0.0
        points = {
            "true": problem.true_dist,
            "interior": Distribution(rng.dirichlet(np.ones(d))),
            "boundary": Distribution(boundary / boundary.sum()),
        }
        for pname, p in points.items():
            for r in RADII:
                for x in range(0, problem.n_decisions, -(-problem.n_decisions // 9)):
                    res = predict_kl_dual(problem, x, p, r)
                    key = "scalar|%s|%s|r=%r|x=%d|" % (name, pname, r, x)
                    out[key + "value"] = res.value.hex()
                    out[key + "alpha"] = res.dual_alpha.hex()
                    for i, q in enumerate(res.worst_case.weights):
                        out[key + "worst_case|%d" % i] = float(q).hex()
    return out


def _laboratory_bits():
    """MC and IS reports of kl predictions, two decisions per scenario."""
    out = {}
    for name, problem in _scenarios().items():
        p = problem.true_dist
        for x in (0, problem.n_decisions // 2):
            mode = Mode.prediction(x)
            for r in (0.02, 0.1, 0.5):
                spec, schedule = PredictorSpec("kl", r), ExponentialRate(r)
                key = "lab|%s|x=%d|r=%r|" % (name, x, r)
                rep = disappointment_mc(problem, spec, mode, p, 12, schedule, 2000, 3)
                out[key + "mc|log_p"] = rep.log_probability.hex()
                out[key + "mc|std_err"] = rep.method.std_err.hex()
                shift = importance_shift(problem, mode, p, r)
                rep = disappointment_importance(
                    problem, spec, mode, p, 12, schedule, shift, 2000, 5
                )
                out[key + "is|log_p"] = rep.log_probability.hex()
                out[key + "is|std_err"] = rep.method.std_err.hex()
                out[key + "is|ess"] = rep.method.ess.hex()
    return out


def kl_kernel_bits():
    return {**_kernel_bits(), **_scalar_bits(), **_laboratory_bits()}


def test_kl_paths_reproduce_the_recorded_bits():
    assert_bits(GOLDEN, kl_kernel_bits())


def test_blocks_reach_every_branch_of_the_kernel():
    """Some rows are pinned at the left edge, some bisect inside the first
    bracket and some need it doubled."""
    kinds = set()
    for r in RADII:
        for _, L, W in _blocks():
            _, alphas = predictors._kl_dual_solve(L, W, r)
            # the kernel's own units: rows centered on their first loss and
            # divided by a power of two, alphas measured from the first loss
            sc = np.exp2(np.round(np.log2(L.max(axis=1) - L.min(axis=1))))
            C = (L - L[:, :1]) / sc[:, None]
            top, span = C.max(axis=1), C.max(axis=1) - C.min(axis=1)
            a = alphas / sc
            kinds.update(np.where(
                a == top + 1e-12 * span, "pinned",
                np.where(a > top + span, "doubled", "inside"),
            ))
    assert kinds == {"pinned", "inside", "doubled"}


if __name__ == "__main__":
    record_bits(GOLDEN, kl_kernel_bits)
