"""Oracles for the KL-ball predictor: the extended-value KL divergence that
tests membership of the ball, and a grid search for d <= 3 that the tests
check `ddlab.predict_kl_dual` against (acceptance criterion 01)."""
import math

import numpy as np

from ddlab import Distribution, Problem, ValidationError, cost
from ddlab.decisions import _check_decision


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Relative entropy sum_i p_i log(p_i/q_i), extended-valued.

    Conventions: 0*log(0/q) = 0 and p*log(p/0) = +inf, so the value is
    finite iff support(p) is contained in support(q).  Infinity is returned
    as math.inf rather than raised, because ambiguity-set membership tests
    compare it against finite radii.
    """
    pw, qw = p.weights, q.weights
    if pw.size != qw.size:
        raise ValidationError("dimension mismatch: %d vs %d" % (pw.size, qw.size))
    mask = pw > 0.0
    if np.any(qw[mask] == 0.0):
        return math.inf
    return float(np.sum(pw[mask] * np.log(pw[mask] / qw[mask])))


def predict_kl_primal_grid(
    problem: Problem, x: int, p: Distribution, r: float, grid_step: float
) -> float:
    """Verification oracle: maximize cost over simplex grid points inside
    the KL ball (plus the exact center, so r=0 returns cost(x, p)).

    Exact maximum over the grid-point feasible set.  For d=3 the grid is
    scanned row by row: along a row the divergence is convex and the cost
    affine, so the feasible grid points form an interval whose endpoints
    are found by binary search and carry the row maximum.
    """
    x = _check_decision(problem, x)
    if not grid_step > 0:  # NaN fails too
        raise ValidationError("grid_step must be > 0")
    if not r >= 0:
        raise ValidationError("r must be >= 0")
    d = p.dim
    if d > 3:
        raise ValidationError("grid oracle supports d <= 3 only")
    row = problem.loss.values[x]
    best = cost(problem, x, p)  # center always feasible
    s = float(grid_step)
    K = int(math.floor(1.0 / s + 1e-9))
    w = p.weights

    def _terms(pi: float, qi: np.ndarray) -> np.ndarray:
        if pi == 0.0:
            return np.zeros_like(qi)
        with np.errstate(divide="ignore"):
            return np.where(qi > 0.0, pi * (np.log(pi) - np.log(qi)), np.inf)

    if d == 2:
        q1 = s * np.arange(K + 1)
        q2 = np.maximum(1.0 - q1, 0.0)
        div = _terms(w[0], q1) + _terms(w[1], q2)
        feas = div <= r
        if feas.any():
            vals = row[0] * q1[feas] + row[1] * q2[feas]
            best = max(best, float(vals.max()))
        return best

    # d == 3: rows indexed by q1; q2 on the grid, q3 the remainder
    q1 = s * np.arange(K + 1)
    rem = np.maximum(1.0 - q1, 0.0)
    K2 = np.floor(rem / s + 1e-9).astype(np.int64)
    t1 = _terms(w[0], q1)

    def row_div(rows: np.ndarray, k2: np.ndarray) -> np.ndarray:
        q2 = s * k2
        q3 = np.maximum(rem[rows] - q2, 0.0)
        return t1[rows] + _terms(w[1], q2) + _terms(w[2], q3)

    # grid point nearest the row-wise divergence minimizer
    frac = w[1] / (w[1] + w[2]) if (w[1] + w[2]) > 0 else 0.0
    k2c = np.clip(np.round(rem * frac / s).astype(np.int64), 0, K2)
    rows = np.arange(K + 1)
    dc = row_div(rows, k2c)
    for shift in (-1, 1):  # the convex minimum may sit one cell over
        k2s = np.clip(k2c + shift, 0, K2)
        ds = row_div(rows, k2s)
        better = ds < dc
        k2c = np.where(better, k2s, k2c)
        dc = np.where(better, ds, dc)
    alive = dc <= r
    if not alive.any():
        return best
    rows = rows[alive]
    k2c = k2c[alive]

    # smallest feasible k2 in [0, k2c]: divergence decreasing on this side
    lo = np.zeros(rows.size, dtype=np.int64)
    hi = k2c.copy()
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        ok = row_div(rows, mid) <= r
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    k2_low = lo
    # largest feasible k2 in [k2c, K2]
    lo = k2c.copy()
    hi = K2[rows]
    while np.any(lo < hi):
        mid = (lo + hi + 1) // 2
        ok = row_div(rows, mid) <= r
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1)
    k2_high = lo

    for k2 in (k2_low, k2_high):
        q2 = s * k2
        q3 = np.maximum(rem[rows] - q2, 0.0)
        vals = row[0] * q1[rows] + row[1] * q2 + row[2] * q3
        best = max(best, float(vals.max()))
    return best
