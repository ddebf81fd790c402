"""The disappointment laboratory.

A predictor disappoints when the true cost of a decision strictly exceeds
the predicted value; a prescriptor disappoints when the decision it picks
from data costs more under the truth than its advertised optimal value.
This module measures those probabilities three ways, exactly by lattice
enumeration, by plain Monte Carlo, and by exponential change of measure,
and converts them into guarantee rates against a speed schedule a_T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from .decisions import Problem, cost, _check_decision
from .errors import LatticeCapError, ValidationError
from .predictors import (
    PredictorSpec,
    RegimeSchedule,
    predictor_value_matrix,
    predictor_value_rows,
    speed_ratio,
    variance_matrix,
)
from .prescriptors import select_decisions
from .simplex import (
    DEFAULT_LATTICE_CAP,
    Distribution,
    _LATTICE_BLOCK,
    _capped_size,
    _lattice_counts,
    _log_pmf_rows,
    _philox,
    _rank_tables,
)

_GUARD = 1e-12  # ties at lattice symmetry points count as non-disappointment
_MC_BLOCK = 1 << 16


@dataclass(frozen=True)
class Mode:
    """What is being tested: one decision's prediction, or the full
    data-driven prescription (whose decision varies with the sample)."""

    kind: str
    decision: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("prediction", "prescription"):
            raise ValidationError("mode kind must be prediction or prescription")
        if self.kind == "prediction" and self.decision is None:
            raise ValidationError("prediction mode needs a decision index")
        if self.kind == "prescription" and self.decision is not None:
            raise ValidationError("prescription mode takes no decision index")

    @staticmethod
    def prediction(decision: int) -> "Mode":
        return Mode("prediction", int(decision))

    @staticmethod
    def prescription() -> "Mode":
        return Mode("prescription")


@dataclass(frozen=True)
class MethodInfo:
    name: str  # exact | monte_carlo | importance
    n_samples: Optional[int] = None
    std_err: Optional[float] = None
    shift: Optional[Distribution] = None
    ess: Optional[float] = None


@dataclass(frozen=True)
class DisappointmentReport:
    probability: float
    log_probability: float  # -inf when the probability is exactly 0
    rate: float  # log(probability)/a_T, so feasible guarantees sit near -1
    method: MethodInfo
    T: int
    mode: Mode


def _rate(log_probability: float, a_T: float) -> float:
    if log_probability == -math.inf:
        return -math.inf
    return log_probability / a_T


# ---------------------------------------------------------------------------
# shared evaluation pieces


def _normalized_rows(C: np.ndarray, T: int) -> np.ndarray:
    # Mirrors Distribution construction bit for bit: divide counts by T,
    # then renormalize each row by its own sum.
    Q = C / T
    Q = Q / Q.sum(axis=1, keepdims=True)
    return Q


def _disappointment_indicator(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    Q: np.ndarray,
    p: Distribution,
    ratio: Optional[float],
    kl_tol: float,
) -> np.ndarray:
    if mode.kind == "prediction":
        x = _check_decision(problem, mode.decision)
        vals = predictor_value_rows(problem, x, spec, Q, ratio=ratio, kl_tol=kl_tol)
        c_true = cost(problem, x, p)
        return c_true > vals + _GUARD
    V = predictor_value_matrix(problem, spec, Q, ratio=ratio, kl_tol=kl_tol)
    VarM = variance_matrix(problem, Q)
    pick = select_decisions(V, VarM)
    rows = np.arange(Q.shape[0])
    v_hat = V[rows, pick]
    true_costs = problem.loss.values @ p.weights
    return true_costs[pick] > v_hat + _GUARD


def _prepare(problem, spec, mode, p, schedule):
    if p.dim != problem.n_scenarios:
        raise ValidationError("dimension mismatch")
    return spec.resolved(schedule)


# ---------------------------------------------------------------------------
# exact enumeration


def disappointment_exact(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    p: Distribution,
    T: int,
    schedule: RegimeSchedule,
    cap: int = DEFAULT_LATTICE_CAP,
    kl_tol: float = 1e-10,
) -> DisappointmentReport:
    """Exact disappointment probability: the multinomial mass of the lattice
    points where the event holds.  Within the cap this is a ground truth the
    sampling estimators are tested against.

    The lattice is streamed in rank blocks of B = `_LATTICE_BLOCK` rows,
    keeping only the disappointing points' log-pmf values in rank order:
    memory is O(B (d + n_decisions) + d T) plus 8 bytes per disappointing
    point, not O(lattice).  A row's indicator and log-pmf do not depend on
    its block, and the kept values meet one `logsumexp`, so the result
    equals the single-pass reduction bit for bit.
    """
    spec = _prepare(problem, spec, mode, p, schedule)
    d = problem.n_scenarios
    size = _capped_size(T, d, cap)  # raises LatticeCapError when too big
    ratio = speed_ratio(schedule, T)
    below = _rank_tables(T, d)
    hits = []
    for lo in range(0, size, _LATTICE_BLOCK):
        C = _lattice_counts(T, d, cap, lo, min(lo + _LATTICE_BLOCK, size), below)
        Q = _normalized_rows(C, T)
        ind = _disappointment_indicator(problem, spec, mode, Q, p, ratio, kl_tol)
        hits.append(_log_pmf_rows(C[ind], p, T))
    logpmf = np.concatenate(hits)
    if logpmf.size == 0:
        log_p = -math.inf
    else:
        log_p = float(logsumexp(logpmf))
        log_p = min(log_p, 0.0)  # clamp float dust above certainty
    prob = math.exp(log_p) if log_p != -math.inf else 0.0
    return DisappointmentReport(
        probability=prob,
        log_probability=log_p,
        rate=_rate(log_p, schedule.a(T)),
        method=MethodInfo(name="exact"),
        T=T,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# sampling estimators


def _sample_count_rows(
    p_weights: np.ndarray, T: int, n_samples: int, seed: int
) -> np.ndarray:
    """n_samples multinomial count vectors in fixed block order.

    Each 2^16-sample block draws from its own counter-based stream keyed by
    (seed, block index), so results are reproducible and independent of how
    blocks would be scheduled.
    """
    blocks = []
    remaining = n_samples
    block_index = 0
    while remaining > 0:
        m = min(_MC_BLOCK, remaining)
        rng = _philox(seed, stream=block_index)
        blocks.append(rng.multinomial(T, p_weights, size=m).astype(np.int64))
        remaining -= m
        block_index += 1
    return np.vstack(blocks)


def _unique_rows(C: np.ndarray, T: int):
    """(uniq, inverse, mult) of count rows that each sum to T, with uniq in
    the lexicographic order of np.unique(C, axis=0).

    Memoization over repeated empirical distributions: the expensive per-row
    predictor work runs once per distinct count vector.  A row is keyed as
    an int64 number in radix T+1 over its first d-1 counts (the last one is
    T minus the others), which sorts in the same order and decodes back;
    np.unique over whole rows stays only where such keys overflow int64.
    """
    d = C.shape[1]
    if (T + 1) ** (d - 1) >= 2**63:
        uniq, inverse, mult = np.unique(
            C, axis=0, return_inverse=True, return_counts=True
        )
        return uniq, inverse.reshape(-1), mult
    keys = np.zeros(C.shape[0], dtype=np.int64)
    for j in range(d - 1):
        keys *= T + 1
        keys += C[:, j]
    keys, inverse, mult = np.unique(keys, return_inverse=True, return_counts=True)
    uniq = np.empty((keys.size, d), dtype=C.dtype)
    for j in range(d - 2, -1, -1):
        keys, uniq[:, j] = np.divmod(keys, T + 1)
    uniq[:, -1] = T - uniq[:, :-1].sum(axis=1)
    return uniq, inverse.reshape(-1), mult


def disappointment_mc(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    p: Distribution,
    T: int,
    schedule: RegimeSchedule,
    n_samples: int,
    seed: int,
    kl_tol: float = 1e-10,
) -> DisappointmentReport:
    """Plain Monte Carlo frequency estimate with binomial standard error."""
    spec = _prepare(problem, spec, mode, p, schedule)
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    C = _sample_count_rows(p.weights, T, n_samples, seed)
    uniq, inverse, mult = _unique_rows(C, T)
    Q = _normalized_rows(uniq, T)
    ratio = speed_ratio(schedule, T)
    ind = _disappointment_indicator(problem, spec, mode, Q, p, ratio, kl_tol)
    hits = int(mult[ind].sum())
    prob = hits / n_samples
    se = math.sqrt(prob * (1.0 - prob) / n_samples)
    log_p = math.log(prob) if prob > 0.0 else -math.inf
    return DisappointmentReport(
        probability=prob,
        log_probability=log_p,
        rate=_rate(log_p, schedule.a(T)),
        method=MethodInfo(name="monte_carlo", n_samples=n_samples, std_err=se),
        T=T,
        mode=mode,
    )


def disappointment_importance(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    p: Distribution,
    T: int,
    schedule: RegimeSchedule,
    shift_q: Distribution,
    n_samples: int,
    seed: int,
    kl_tol: float = 1e-10,
) -> DisappointmentReport:
    """Change-of-measure estimate: sample counts from shift_q, weight each
    sample by prod_i (p_i/q_i)^counts_i computed in log space.

    Unbiased for the same probability; with a shift near where the
    disappointment mass concentrates, far fewer samples reach the tail.
    Reports the effective sample size (sum w)^2 / sum w^2.
    """
    spec = _prepare(problem, spec, mode, p, schedule)
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    if shift_q.dim != p.dim:
        raise ValidationError("dimension mismatch")
    if not shift_q.is_interior:
        raise ValidationError("shift distribution must have full support")
    C = _sample_count_rows(shift_q.weights, T, n_samples, seed)
    uniq, inverse, mult = _unique_rows(C, T)
    Q = _normalized_rows(uniq, T)
    ratio = speed_ratio(schedule, T)
    ind = _disappointment_indicator(problem, spec, mode, Q, p, ratio, kl_tol)

    w = p.weights
    qw = shift_q.weights
    diff = np.where(w > 0.0, np.log(np.maximum(w, 1e-300)) - np.log(qw), -np.inf)
    with np.errstate(invalid="ignore"):
        terms = np.where(uniq > 0, uniq * diff, 0.0)
    log_w = terms.sum(axis=1)
    weights = np.exp(log_w)  # 0 when counts land outside support(p)

    y = weights * ind
    total = float(mult @ y)
    est = total / n_samples
    mean_sq = float(mult @ (y * y)) / n_samples
    if n_samples > 1:
        var = max(mean_sq - est * est, 0.0) * n_samples / (n_samples - 1)
        se = math.sqrt(var / n_samples)
    else:
        se = 0.0
    wsum = float(mult @ weights)
    wsq = float(mult @ (weights * weights))
    ess = (wsum * wsum / wsq) if wsq > 0.0 else 0.0
    prob = min(max(est, 0.0), 1.0)
    log_p = math.log(prob) if prob > 0.0 else -math.inf
    return DisappointmentReport(
        probability=prob,
        log_probability=log_p,
        rate=_rate(log_p, schedule.a(T)),
        method=MethodInfo(
            name="importance", n_samples=n_samples, std_err=se, shift=shift_q, ess=ess
        ),
        T=T,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# rate curves and the theoretical benchmark


def importance_shift(
    problem: Problem, mode: Mode, p: Distribution, ratio: float
) -> Distribution:
    """Default change-of-measure shift: the ellipsoid point at radius
    ratio = a_T/T around p tilted toward the tested decision's cheap
    scenarios, clamped into the interior of the simplex.

    Disappointment happens when the empirical distribution underestimates
    the cost, so its mass concentrates at the reflection of the
    variance-penalized worst case through p.  For prescription mode the
    tested decision is the one prescribed at p itself.
    """
    if mode.kind == "prediction":
        x = _check_decision(problem, mode.decision)
    else:
        W = p.weights[None, :]
        V = predictor_value_matrix(problem, PredictorSpec("svp"), W, ratio=ratio)
        x = int(select_decisions(V, variance_matrix(problem, W))[0])
    row = problem.loss.values[x]
    w = p.weights
    c = float(row @ w)
    var = max(float((row * row) @ w) - c * c, 0.0)
    if var > 0.0:
        q = w - math.sqrt(2.0 * ratio) * (row * w - c * w) / math.sqrt(var)
    else:
        q = w.copy()
    q = np.maximum(q, 1e-9)
    q = q / q.sum()
    # defensive mixture: keep every p-typical region reachable so weights
    # cannot all collapse onto a single count vector
    q = 0.95 * q + 0.05 * w
    q = np.maximum(q, 1e-12)
    return Distribution(q / q.sum())


def rate_curve(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    p: Distribution,
    schedule: RegimeSchedule,
    T_list: Sequence[int],
    cap: int = DEFAULT_LATTICE_CAP,
    n_samples: int = 100_000,
    seed: Optional[int] = None,
    kl_tol: float = 1e-10,
) -> List[Tuple[int, float]]:
    """Guarantee rate log(p_T)/a_T for each T, in ascending T order.

    Uses exact enumeration whenever the lattice fits the cap (never past
    2**63 - 1 points), otherwise importance sampling around the default
    shift (which then requires a seed).  A feasible guarantee shows rates
    at or below -1 + o(1).
    """
    out: List[Tuple[int, float]] = []
    for T in sorted(int(t) for t in T_list):
        try:  # the cap is checked before any enumeration work
            rep = disappointment_exact(
                problem, spec, mode, p, T, schedule, cap=cap, kl_tol=kl_tol
            )
        except LatticeCapError:
            if seed is None:
                raise ValidationError(
                    "lattice too large for exact enumeration; sampling needs a seed"
                ) from None
            shift = importance_shift(problem, mode, p, speed_ratio(schedule, T))
            rep = disappointment_importance(
                problem, spec, mode, p, T, schedule, shift, n_samples, seed,
                kl_tol=kl_tol,
            )
        out.append((T, rep.rate))
    return out


def theoretical_rate_saa(
    problem: Problem, x: int, p: Distribution, m: Optional[float] = None
) -> float:
    """Large-deviations rate of the empirical cost of decision x crossing
    level m (default: its true cost, where the rate is 0).

    Legendre transform of the log moment generating function of the loss
    under p: sup_lambda [lambda*m - log sum_i p_i exp(lambda*l_i)], found by
    bisection on the concave objective's derivative to tolerance 1e-10.
    Levels outside the support range cost +inf; hitting the extreme support
    value costs -log(its mass); for two-valued losses this is a binary KL
    divergence.
    """
    x = _check_decision(problem, x)
    if p.dim != problem.n_scenarios:
        raise ValidationError("dimension mismatch")
    row = problem.loss.values[x]
    mask = p.weights > 0.0
    ls = row[mask]
    ws = p.weights[mask]
    logws = np.log(ws)
    mean = float(ls @ ws)
    if m is None:
        m = mean
    m = float(m)
    lmin = float(ls.min())
    lmax = float(ls.max())
    if m < lmin or m > lmax:
        return math.inf
    if m == mean:
        return 0.0
    if m == lmin:
        return -math.log(float(ws[ls == lmin].sum()))
    if m == lmax:
        return -math.log(float(ws[ls == lmax].sum()))

    def tilted_mean(lam: float) -> float:
        z = lam * ls + logws
        z = z - z.max()
        e = np.exp(z)
        return float((ls * e).sum() / e.sum())

    def objective(lam: float) -> float:
        return lam * m - float(logsumexp(lam * ls + logws))

    # h'(lam) = m - tilted_mean(lam) is decreasing; root-bracket then bisect
    if m < mean:
        hi = 0.0
        lo = -1.0
        while tilted_mean(lo) > m:
            lo *= 2.0
            if lo < -1e12:
                break
    else:
        lo = 0.0
        hi = 1.0
        while tilted_mean(hi) < m:
            hi *= 2.0
            if hi > 1e12:
                break
    while hi - lo > 1e-10 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if tilted_mean(mid) < m:
            lo = mid
        else:
            hi = mid
    return max(objective(0.5 * (lo + hi)), 0.0)
