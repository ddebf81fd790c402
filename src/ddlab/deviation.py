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

from .decisions import Problem, _check_decision, _moments, _pick_buffers, _pick_decisions
from .errors import LatticeCapError, ValidationError
from .predictors import (
    PredictorSpec,
    RegimeSchedule,
    _predictor_values,
    _svp_direction,
    _kl_error,
    _value_bounds,
    predictor_value_rows,
    speed_ratio,
)
# perfbench/tracing.py wraps these names in this module; nothing here calls them
from .predictors import predictor_value_matrix, variance_matrix  # noqa: F401
from .prescriptors import select_decisions
from .simplex import (
    DEFAULT_LATTICE_CAP,
    Distribution,
    _LATTICE_BLOCK,
    _capped_size,
    _lattice_counts,
    _log_factorials,
    _log_pmf_rows,
    _philox,
    _rank_tables,
    _row_sums,
    _real,
    _scratch,
    _whole,
)


@dataclass(frozen=True, slots=True)
class Mode:
    """What is being tested: one decision's prediction, or the full
    data-driven prescription (whose decision varies with the sample).  The
    decision of a prediction is a whole number, kept as an int."""

    kind: str
    decision: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("prediction", "prescription"):
            raise ValidationError("mode kind must be prediction or prescription")
        if (self.decision is None) != (self.kind == "prescription"):
            raise ValidationError("a mode takes a decision index iff it is a prediction")
        if self.decision is not None:
            object.__setattr__(self, "decision", _whole(self.decision, "decision index"))

    @staticmethod
    def prediction(decision: int) -> "Mode":
        return Mode("prediction", decision)

    @staticmethod
    def prescription() -> "Mode":
        return Mode("prescription")


@dataclass(frozen=True, slots=True)
class MethodInfo:
    name: str  # exact | monte_carlo | importance
    n_samples: Optional[int] = None
    std_err: Optional[float] = None
    shift: Optional[Distribution] = None
    ess: Optional[float] = None


@dataclass(frozen=True, slots=True)
class DisappointmentReport:
    probability: float
    log_probability: float  # -inf when the probability is exactly 0
    rate: float  # log(probability)/a_T, so feasible guarantees sit near -1
    method: MethodInfo
    T: int
    mode: Mode


def _report(prob, log_p, method, T, schedule, mode) -> DisappointmentReport:
    a_T = schedule.a(T)
    rate = -math.inf if log_p == -math.inf else log_p / a_T
    return DisappointmentReport(prob, log_p, rate, method, T, mode)


# ---------------------------------------------------------------------------
# shared evaluation pieces


def _normalized_rows(C: np.ndarray, T: int, work: Optional[dict] = None) -> np.ndarray:
    """The weight rows (N, d) of the count rows C, with the bits of
    Distribution: counts divided by T, then each row by its own sum.  The
    transposed view of a (d, N) array from `_scratch(work, ...)`."""
    QT = np.divide(C.T, T, out=_scratch(work, "Q", C.shape[::-1]))
    QT /= _row_sums(QT)
    return QT.T


def _true_costs(problem: Problem, p: Distribution) -> np.ndarray:
    """(n_decisions,) expected losses under p, as decisions.cost gives them."""
    return _moments(problem.loss.values, p.weights[None, :])[0][0]


def _screen(costs: np.ndarray, lower: np.ndarray, upper: np.ndarray, tie: float, margin):
    """(keep, every, none): the screen of value bounds (n, ...) of n decisions
    over a set of weight rows, per trailing index.  With U the least upper
    bound, only the decisions with lower <= U + tie + margin can be picked
    (`keep`); every row disappoints when each kept decision's true cost
    exceeds U + 2 tie + margin (a pick is within tie of the least value), no
    row when each is at most its lower bound + tie - margin.  NaN bounds
    decide nothing."""
    costs = costs.reshape(costs.shape + (1,) * (lower.ndim - 1))
    U = upper.min(axis=0)
    keep = ~(lower > U + tie + margin)
    every = np.where(keep, costs, np.inf).min(axis=0) > U + 2.0 * tie + margin
    none = (~keep | (costs <= lower + tie - margin)).all(axis=0)
    return keep, every, none


def _box_screen(problem, spec, rows, lo, hi, true_costs, ratio):
    """`_screen` of the decisions `rows` over the weight rows w with
    lo <= w <= hi, from `_value_bounds`, and its margin: 32 (d + 2) ulps of
    k_half plus the widest bound, which exceeds twice the rounding of the
    normalisation, the moments, svp's penalty and the bounds (each within d
    ulps of that scale)."""
    L, tie = problem.loss.values[rows], problem.loss.tie_window
    lower, upper = _value_bounds(spec, L, lo, hi, ratio, tie)
    margin = 32 * (L.shape[1] + 2) * np.spacing(problem.loss.k_half + (upper - lower).max())
    return _screen(true_costs[rows], lower, upper, tie, margin) + (margin,)


def _picked(problem, spec, rows, Q, true_costs, ratio, work):
    """(values, event) at the weight rows Q (N, d): the values (n, N) of the
    decisions `rows` (an index array) and whether the true cost of their
    pick (`_pick_decisions`, in index order, so ties break as over all)
    exceeds its value plus the tie window.  kl solves only the duals its
    Pinsker screen keeps; svp's variances break ties."""
    tie = problem.loss.tie_window
    V, _, Var = _predictor_values(spec, problem.loss.values[rows], Q, ratio, work, tie)
    pick, v_hat = _pick_decisions(problem, V.T, Q, work, rows, Var)
    return V.T, true_costs[rows[pick]] > v_hat + tie


def _reserve(work, problem, spec, n, N):
    """Size the buffers of `work` for n decisions over N rows: the moments
    and values, and the (N,) roles of the pick (`_pick_decisions`), so
    later passes over fewer decisions or rows reuse them."""
    if work is not None:
        for role in ("mean", "t") + (("var", "values") if spec.kind == "svp" else ()):
            _scratch(work, role, (n, N))
        _pick_buffers(problem, work, N)


def _disappointment_indicator(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    Q: np.ndarray,
    true_costs: np.ndarray,
    ratio: Optional[float],
    work: Optional[dict] = None,
) -> np.ndarray:
    """The event per weight row of Q.  A true cost that ties the prediction
    (within the tie window, as at lattice symmetry points) is no
    disappointment.

    A prescription block is screened first (`_box_screen` over the box of
    Q's columnwise min and max): it may settle every row, all hits or none,
    and otherwise the decisions it keeps alone are valued and picked in one
    pass (`_picked`, in `_scratch(work, ...)`).  The bits are the
    unscreened ones."""
    tie = problem.loss.tie_window
    if mode.kind == "prediction":
        x = _check_decision(problem, mode.decision)
        vals = predictor_value_rows(problem, x, spec, Q, ratio=ratio)
        return true_costs[x] > vals + tie
    QT, n = Q.T, problem.n_decisions
    keep, every, none, _ = _box_screen(
        problem, spec, np.arange(n), QT.min(axis=1), QT.max(axis=1), true_costs, ratio
    )
    if every or none:
        return np.full(Q.shape[0], bool(every))
    _reserve(work, problem, spec, n, Q.shape[0])  # sized for every decision
    return _picked(problem, spec, np.flatnonzero(keep), Q, true_costs, ratio, work)[1]


def _merged_columns(L: np.ndarray):
    """(columns, labels): the distinct columns (n, d') of L and each
    scenario's column index (d,), or None when every column differs.  When
    all columns are equal they fold into two groups, the first scenario and
    the rest, since a loss matrix needs two scenarios; None when d = 2."""
    S = np.sort(L, axis=1)
    if (S[:, 1:] != S[:, :-1]).all(axis=1).any():
        return None  # a row of distinct losses tells every column apart
    columns, labels = np.unique(L, axis=1, return_inverse=True)
    labels = labels.reshape(-1)
    if columns.shape[1] == 1:
        columns, labels = L[:, :2], np.minimum(np.arange(L.shape[1]), 1)
    if columns.shape[1] == L.shape[1]:
        return None
    return columns, labels


def _prepare(problem, spec, mode, p, schedule, draw=None):
    """Validate, resolve the spec and merge the scenarios that the tested
    losses cannot tell apart (see `disappointment_exact`).  Predictors see
    an empirical distribution only through the law of the loss (kl by the
    data-processing inequality) and group sums of multinomial counts are
    multinomial, so the event and its probability do not change.  Returns
    (problem, spec, mode, p, draw), merged and with p and draw summed over
    the groups; the inputs themselves when nothing merges."""
    if p.dim != problem.n_scenarios:
        raise ValidationError("dimension mismatch")
    spec = spec.resolved(schedule)
    L = problem.loss.values
    if mode.kind == "prediction":
        L = L[_check_decision(problem, mode.decision)][None, :]
    found = _merged_columns(L)
    if found is None:
        return problem, spec, mode, p, draw
    columns, labels = found

    def fold(dist):
        return dist if dist is None else Distribution(np.bincount(labels, dist.weights))

    if mode.kind == "prediction":
        mode = Mode.prediction(0)
    merged = Problem(problem.loss._merged(columns))
    return merged, spec, mode, fold(p), fold(draw)


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
) -> DisappointmentReport:
    """Exact disappointment probability: the multinomial mass of the lattice
    points where the event holds.  Within the cap this is a ground truth the
    sampling estimators are tested against.

    Scenarios the tested losses cannot tell apart are merged first: equal
    losses of the tested row in prediction mode (the problem becomes that
    row), equal columns of the loss matrix in prescription mode.  The
    lattice then has comb(T + d' - 1, d' - 1) points for the merged
    dimension d', and `cap` bounds that lattice.  Losses that cannot tell
    any scenarios apart fold into two groups, the first scenario and the
    rest: T + 1 points, where the probability is 0.  The probability is the
    same, up to its last bits; a problem that does not merge gives the
    bits of the unmerged enumeration.

    The lattice is walked by lines: the points (prefix, k, R - k), k = 0..R,
    that share their first d' - 2 counts, whose prefix rows are the lattice
    of dimension d' - 1 (`_lattice_counts`, in rank order, so the lines tile
    the lattice in rank order).  Every predictor is concave along a line
    (the variance is concave in the weights, and kl by the joint convexity
    of relative entropy), so the lines are walked in groups of B / 8
    consecutive lines, B = `_LATTICE_BLOCK`.  A group of at most B points
    is valued in full, as one rank range of the lattice, by
    `_disappointment_indicator`; a larger one by `_walk`, which values the
    lines' ends and middles and settles the rest by concavity bounds,
    splitting what they leave open.  Either way a point's event is the one
    that valuing it would give, so `log p` keeps the bits of the per-point
    enumeration.  The hits are gathered in rank order: log-pmf values of the
    full groups, runs of the walked ones.  The walk's buffers are released
    before one buffer of exactly the hit count takes their log-pmf values,
    formed in slices of B by `_log_pmf_rows` (`_gathered`), and
    `_log_sum_exp` reduces it in place with the bits of
    `scipy.special.logsumexp`.  Memory is O(B (d' + n_decisions) + d' T)
    plus 8 bytes per disappointing point of the walked groups (16 of the
    groups valued in full, whose log-pmf values are copied into the
    buffer) and a few words per run, not O(lattice).  Every pass writes into one
    workspace per call (`simplex._scratch`), so the time does not depend on
    the allocator; true costs are formed once per call, log-factorials read
    from the process's table (`_log_factorials`)."""
    T = _whole(T, "sample size T", 1)
    merged, spec, tested, p, _ = _prepare(problem, spec, mode, p, schedule)
    d = merged.n_scenarios
    ratio = speed_ratio(schedule, T)
    size = _capped_size(T, d, cap)  # raises LatticeCapError when too big
    below = _rank_tables(T, d)
    true_costs = _true_costs(merged, p)
    parts, work, start, hits = [], {}, 0, 0
    for first, P in _line_groups(T, d, cap, below, size):
        points = size if P is None else int(P[:, -1].sum()) + P.shape[0]
        if points <= _LATTICE_BLOCK:  # one rank range, valued in full
            C = _lattice_counts(T, d, cap, start, start + points, below, work)
            Q = _normalized_rows(C, T, work)
            ind = _disappointment_indicator(merged, spec, tested, Q, true_costs, ratio, work)
            hit = np.flatnonzero(ind)
            counts = _scratch(work, "hit counts", (d, hit.size), np.int64)
            np.take(C.T, hit, axis=1, out=counts, mode="clip")
            parts.append(_log_pmf_rows(counts.T, p, T, work))
            hits += hit.size
        else:
            runs = _walk(merged, spec, tested, P, T, true_costs, ratio, work)
            parts.append((first, P.shape[0], runs))
            hits += int(runs[2].sum())
        start += points
    work.clear()  # before the hit buffer is allocated
    log_pmf = _gathered(parts, hits, T, d, cap, below, p, work)
    log_p = min(_log_sum_exp(log_pmf), 0.0)  # clamp float dust above certainty
    prob = math.exp(log_p) if log_p != -math.inf else 0.0
    return _report(prob, log_p, MethodInfo(name="exact"), T, schedule, mode)


def _gathered(parts: list, hits: int, T: int, d: int, cap: int, below: list,
              p: Distribution, work: dict) -> np.ndarray:
    """The log-pmf values of the hits, in rank order, in one buffer of the
    hit count: the parts are the log-pmf values of a group valued in full
    or (first, m, runs), the runs (`_walk`) on the m lines from rank first
    on, whose prefix rows are built again."""
    log_pmf, at = np.empty(hits), 0
    for part in parts:
        if isinstance(part, np.ndarray):
            slices = (part,)
        else:
            first, m, runs = part
            P = _lattice_counts(T, d - 1, cap, first, first + m, below[:-1])
            slices = _runs_log_pmf(P, runs, p, T, work)
        for values in slices:
            log_pmf[at:at + values.size] = values
            at += values.size
    return log_pmf


def _line_groups(T: int, d: int, cap: int, below: list, size: int):
    """(first, P): the lines of the lattice of T into d parts in groups of
    B / 8 consecutive lines, B = `_LATTICE_BLOCK`, in rank order: the rank
    of the group's first line and its prefix rows P (m, d - 1), the rank
    range [first, first + m) of the lattice of T into d - 1 parts.  A
    lattice of at most B points is one group without prefix rows, (0, None)."""
    if size <= _LATTICE_BLOCK:
        yield 0, None
        return
    step = max(1, _LATTICE_BLOCK // 8)
    for first in range(0, math.comb(T + d - 2, d - 2), step):
        yield first, _lattice_counts(T, d - 1, cap, first, first + step, below[:-1])


def _line_points(P: np.ndarray, line: np.ndarray, k: np.ndarray, count=None,
                 work: Optional[dict] = None) -> np.ndarray:
    """The count rows (N, d) of the points (prefix, k, R - k) of the lines
    `line` of the prefix rows P (m, d - 1), R a line's last count; given
    `count`, the runs of count points from k on.  The transposed view of a
    (d, N) array from `_scratch(work, ...)`."""
    if count is not None:
        line = np.repeat(line, count)
        k = np.repeat(k - (np.cumsum(count) - count), count) + np.arange(line.size)
    PT = P.T
    CT = _scratch(work, "counts", (PT.shape[0] + 1, line.size), np.int64)
    for j in range(PT.shape[0] - 1):
        np.take(PT[j], line, out=CT[j])
    CT[-2] = k
    np.subtract(PT[-1][line], k, out=CT[-1])
    return CT.T


def _runs_log_pmf(P: np.ndarray, runs, p: Distribution, T: int, work: dict):
    """The log-pmf values of the points of the runs (line, k, count) on the
    lines of the prefix rows P, in order, in slices of `_LATTICE_BLOCK`."""
    line, k, count = runs
    for role, dtype in (("counts", np.int64), ("log-pmf terms", np.float64)):
        _scratch(work, role, (P.shape[1] + 1, _LATTICE_BLOCK), dtype)  # every slice fits
    for lo in range(0, int(count.sum()), _LATTICE_BLOCK):
        C = _line_points(P, *_runs_slice(line, k, count, lo, lo + _LATTICE_BLOCK), work=work)
        yield _log_pmf_rows(C, p, T, work)


def _runs_slice(line: np.ndarray, k: np.ndarray, count: np.ndarray, lo: int, hi: int):
    """(line, k, count) of the points lo..hi - 1 of the runs of count points
    from k on along `line`, counted in order: the runs they meet, the first
    and the last one cut."""
    end = np.cumsum(count)
    hi = min(hi, int(end[-1]))
    r0, r1 = np.searchsorted(end, (lo, hi - 1), side="right")
    k, count = k[r0:r1 + 1].copy(), count[r0:r1 + 1].copy()
    cut = lo - (end[r0] - count[0])  # points of the first run before lo
    k[0] += cut
    count[0] -= cut
    count[-1] -= end[r1] - hi
    return line[r0:r1 + 1], k, count


def _walk(problem, spec, mode, P, T, true_costs, ratio, work):
    """The disappointing points of the lines of the prefix rows P (m, d - 1),
    as runs (line, k, count): count points from (prefix, k, R - k) on, in
    rank order.

    The lines' box of weights, widened past the rounding of
    `_normalized_rows`, is screened first (`_box_screen`): that may settle
    every point, and it drops the tested decisions that cannot be picked.
    Then the ends and the middle of each line are valued (`_picked`, which
    gives the per-point event), and each segment [a, b] between valued
    points of a line is bounded per decision by concavity (`_chords`):
    below by min(V(a), V(b)), above by the chords through the nearest
    valued points outside it, extended over it.  The bounds go through
    `_screen`; a segment whose interior is all hits or none is settled, the
    others are split at their middles, which are valued, until the
    interior points left open fit in one slice of B = `_LATTICE_BLOCK`,
    which is valued in full.  A point is kept as its key, line (T + 1) + k,
    and its values once, in `_scratch(work, ...)`, by slot."""
    d, tie, B = problem.n_scenarios, problem.loss.tie_window, _LATTICE_BLOCK
    R, stride = P[:, -1], T + 1
    rows = (np.arange(problem.n_decisions) if mode.kind == "prescription"
            else np.array([mode.decision]))
    box = _line_box(P, T)
    keep, every, none, margin = _box_screen(problem, spec, rows, *box, true_costs, ratio)
    if every or none:
        lines = np.arange(R.size if every else 0)
        return lines, np.zeros_like(lines), R[lines] + 1
    _reserve(work, problem, spec, rows.size, B)
    for role, dtype in (("counts", np.int64), ("Q", np.float64)):  # every slice fits
        _scratch(work, role, (d, B), dtype)
    rows = rows[keep]
    pad = _pad(spec, problem.loss.values[rows], margin)

    def value(keys, out=None):  # the events at keys; their values into out
        event = np.empty(keys.size, dtype=bool)
        for s in range(0, keys.size, B):
            C = _line_points(P, *np.divmod(keys[s:s + B], stride), work=work)
            V, event[s:s + B] = _picked(
                problem, spec, rows, _normalized_rows(C, T, work), true_costs, ratio, work
            )
            if out is not None:
                out[:, s:s + B] = V
        return event

    # each line's ends and middle, ascending
    keys = (np.arange(R.size) * stride)[:, None] + np.stack([0 * R, R // 2, R], axis=1)
    keys = keys.reshape(-1)
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    store = _scratch(work, "walk values", (rows.size, 2 * keys.size + 1))
    store[:, 0] = np.nan  # the value of a missing outside point
    slot = np.arange(1, keys.size + 1)
    hit = value(keys, store[:, 1:keys.size + 1])
    used = keys.size + 1
    # is_open[j]: the segment from point j to point j + 1 is not settled
    is_open = np.append((np.diff(keys) > 1) & (np.diff(keys // stride) == 0), False)
    starts, stops = [], []
    while is_open.any():
        j = np.flatnonzero(is_open)
        a, b = keys[j], keys[j + 1]
        # the valued points before a and after b, where on the same line
        pad_keys = np.concatenate(([-stride], keys, [-stride]))
        pad_slot = np.concatenate(([0], slot, [0]))
        o, q = pad_keys[j], pad_keys[j + 3]
        same_o, same_q = o // stride == a // stride, q // stride == a // stride
        lower, upper = _chords(
            store[:, np.where(same_o, pad_slot[j], 0)], store[:, slot[j]],
            store[:, slot[j + 1]], store[:, np.where(same_q, pad_slot[j + 3], 0)],
            b - a, np.where(same_o, a - o, 1), np.where(same_q, q - b, 1), pad,
        )
        _, every, none = _screen(true_costs[rows], lower, upper, tie, margin)
        starts.append(a[every] + 1)
        stops.append(b[every])
        settled = every | none
        is_open[j[settled]] = False
        j, a, b = j[~settled], a[~settled], b[~settled]
        inner = b - a - 1
        if inner.sum() <= B:  # the rest in one slice
            inner = np.repeat(a + 1 - np.cumsum(inner) + inner, inner) + np.arange(inner.sum())
            inner = inner[value(inner)]
            starts.append(inner)
            stops.append(inner + 1)
            break
        mid = (a + b) // 2
        if used + mid.size > store.shape[1]:
            old = store[:, :used].copy()
            store = _scratch(work, "walk values", (rows.size, 2 * (used + mid.size)))
            store[:, :used] = old
        event = value(mid, store[:, used:used + mid.size])
        is_open[j] = mid - a > 1
        keys, slot, hit, is_open = (
            np.insert(x, j + 1, new) for x, new in (
                (keys, mid), (slot, np.arange(used, used + mid.size)), (hit, event),
                (is_open, b - mid > 1),
            )
        )
        used += mid.size
    starts.append(keys[hit])
    stops.append(keys[hit] + 1)
    start, stop = np.concatenate(starts), np.concatenate(stops)
    order = np.argsort(start, kind="stable")
    start, stop = start[order], stop[order]
    line = start // stride
    # a run goes on where a piece starts at the stop of the last on its line
    new = np.ones(start.size + 1, dtype=bool)
    new[1:-1] = (start[1:] != stop[:-1]) | (line[1:] != line[:-1])
    start, stop, line = start[new[:-1]], stop[new[1:]], line[new[:-1]]
    return line, start - line * stride, stop - start


def _line_box(P: np.ndarray, T: int):
    """(lo, hi), each (d,): a box that holds the weight rows
    (`_normalized_rows`) of every point on the lines of the prefix rows P
    (m, d - 1): the counts' columnwise min and max over T, widened by 4 d
    units of rounding, past the d + 1 that the normalisation may add."""
    widen = 1.0 + 2 * (P.shape[1] + 1) * np.finfo(float).eps
    top = P[:, -1].max()
    return (np.append(P[:, :-1].min(axis=0), [0, 0]) / T / widen,
            np.append(P[:, :-1].max(axis=0), [top, top]) / T * widen)


def _pad(spec: PredictorSpec, L: np.ndarray, margin: float) -> np.ndarray:
    """(n, 1): at least twice how far a value of the loss rows L (n, d) may
    stray from a concave function of the weights, which `_chords` needs:
    the screen's margin (twice the rounding), plus twice the kernel's error
    for a kl dual (`_kl_error`, which grows like 1/sqrt(r))."""
    pad = np.full((L.shape[0], 1), margin)
    if spec.kind == "kl" and spec.radius > 0.0:
        pad += 2.0 * _kl_error(np.ptp(L, axis=1)[:, None], L.shape[1], spec.radius)
    return pad


def _chords(Vo, Va, Vb, Vq, span, to_a, to_q, pad):
    """(lower, upper), each (n, S): bounds on the values at the interior
    points of S segments [a, b] of span b - a, from the values (n, S) at a
    and b and at the valued points o = a - to_a and q = b + to_q outside
    them.  A concave value is at least min(V(a), V(b)) inside and at most
    the chord through (o, a) or through (b, q) extended; the rounding
    margin pad (n, 1) widens a chord's bound by 1 + 2 span / to_a (to_q),
    its lever.  A bound that reads a value that is not finite (a missing
    outside point reads NaN, a kl pair the screen skips +inf) decides
    nothing."""
    with np.errstate(invalid="ignore", over="ignore"):
        s = (Va - Vo) / to_a
        up_o = Va + np.maximum(s, s * (span - 1)) + pad * (1 + 2 * span / to_a)
        s = (Vq - Vb) / to_q
        up_q = Vb - np.minimum(s, s * (span - 1)) + pad * (1 + 2 * span / to_q)
    upper = np.minimum(np.where(np.isfinite(Vo), up_o, np.inf),
                       np.where(np.isfinite(Vq), up_q, np.inf))
    ends = np.isfinite(Va) & np.isfinite(Vb)
    return (np.where(ends, np.minimum(Va, Vb) - pad, -np.inf),
            np.where(ends, upper, np.inf))


def _log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float array, overwriting a: the steps of
    `scipy.special.logsumexp` (SciPy 1.17) and its bits, without importing
    SciPy and without its temporaries of about five times the input.  The
    k entries equal to the maximum m are kept out of the sum s of
    exp(a - m) over the others, and the result is log1p(s / k) + log(k) + m;
    -inf when a is empty or all -inf (counts outside support(p)).  It
    reduces the exact engine's hits and `theoretical_rate_saa`'s log moment
    generating function."""
    m = a.max(initial=-math.inf)
    if m == -math.inf:
        return -math.inf
    top = a == m
    k = np.count_nonzero(top)
    a -= m
    a[top] = -math.inf
    np.exp(a, out=a)
    s = a.sum()
    if s != 0:
        s = s / k
    return float(np.log1p(s) + np.log(k) + m)


# ---------------------------------------------------------------------------
# sampling estimators


def _sample_count_rows(
    p_weights: np.ndarray, totals: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One multinomial count row per entry of `totals`, in order: row i
    places totals[i] draws over the cells of p_weights (which sum to 1)."""
    return rng.multinomial(totals, p_weights)


def _binomial_pmf_rows(t: np.ndarray, w: float, rest: float):
    """(len(t), max(t) + 1) rows: the pmf of Binomial(t_i, w / (w + rest))
    over 0..max(t), from the log-factorial table of `_log_pmf_rows`.
    rest > 0; w may be 0."""
    c = np.arange(t.max() + 1)
    log_fact = _log_factorials(int(c[-1]))
    k = t[:, None] - c  # draws left to the later cells
    # c log(pi) + k log(1 - pi) = t log(rest / (w + rest)) + c log(w / rest)
    log_odds = (math.log(w) if w > 0.0 else -math.inf) - math.log(rest)
    with np.errstate(invalid="ignore"):
        log_pmf = (
            (log_fact[t] + t * (math.log(rest) - math.log(w + rest)))[:, None]
            - log_fact[c]
            - log_fact[np.maximum(k, 0)]
            + np.where(c > 0, c * log_odds, 0.0)
        )
    log_pmf[k < 0] = -np.inf
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum(axis=1, keepdims=True)


def _sample_histogram(
    weights: np.ndarray, T: int, n_samples: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(uniq, mult): the distinct rows, in lexicographic order, and the
    multiplicities of n_samples i.i.d. Multinomial(T, weights) count rows;
    mult sums to n_samples.

    The histogram is drawn directly, one cell per level (the conditional
    binomial method; Davis 1993, "The computer generation of multinomial
    random variates").  Given a distinct prefix (c_0..c_{j-1}) of
    multiplicity m with t draws left, c_j ~ Binomial(t, w_j / sum_{k>=j}
    w_k) for each of its m samples, so its children's multiplicities are
    one Multinomial(m, that pmf) draw; children of multiplicity 0 are
    dropped.  A level draws its prefixes x (T + 1) cells while that is at
    most n_samples, in 2-D `Generator.multinomial` calls over consecutive
    runs of prefixes of at most `_LATTICE_BLOCK` cells (one prefix at
    least).  The generator draws the rows of a call one after another, so
    the runs give the bits of one call over the level.  Past that (always
    when T >= n_samples) the remaining cells are drawn once per sample by
    `_sample_count_rows` and merged by `_unique_rows`.  Where the histogram
    runs to the last cell, memory is the distinct rows, one run of cells
    and a pmf row per distinct t, not n_samples rows.  One counter-based
    stream keyed by seed feeds every level: reproducible, with the law of
    n_samples independent draws but not the bits of a per-sample draw.
    """
    w = np.asarray(weights, dtype=float)
    d = w.size
    tail = np.cumsum(w[::-1])[::-1]  # tail[j] = sum of w[j:]
    last = int(np.flatnonzero(w)[-1])  # takes what is left; later cells get 0
    rng = _philox(seed)
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([T], dtype=np.int64)
    mult = np.array([n_samples], dtype=np.int64)
    for j in range(last):
        if rows.shape[0] * (T + 1) > n_samples:
            C = np.empty((n_samples, d), dtype=np.int64)
            C[:, :j] = np.repeat(rows, mult, axis=0)
            C[:, j:] = _sample_count_rows(w[j:] / tail[j], np.repeat(left, mult), rng)
            uniq, _, mult = _unique_rows(C, T)
            return uniq, mult
        # the pmf depends on a prefix only through t: one row per distinct t;
        # levels run only while T < n_samples, which bounds the log-factorial
        # table they grow
        t, t_row = np.unique(left, return_inverse=True)
        pmf = _binomial_pmf_rows(t, w[j], tail[j + 1])
        step = max(1, _LATTICE_BLOCK // pmf.shape[1])  # prefixes per call
        runs = []
        for lo in range(0, mult.size, step):
            children = rng.multinomial(mult[lo : lo + step], pmf[t_row[lo : lo + step]])
            parent, c = np.nonzero(children)
            runs.append((parent + lo, c, children[parent, c]))
        parent, c, mult = (np.concatenate(parts) for parts in zip(*runs))
        rows = np.column_stack([rows[parent], c])
        left = left[parent] - c
    uniq = np.zeros((rows.shape[0], d), dtype=np.int64)
    uniq[:, :last] = rows
    uniq[:, last] = left
    return uniq, mult


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


def _sampled_indicator(problem, spec, mode, p, T, schedule, draw, n_samples, seed):
    """Merge the problem as `_prepare` does, draw the histogram of n_samples
    count rows of the merged scenarios from the merged `draw` and evaluate
    the indicator once per distinct row: (merged p, merged draw, distinct
    rows, multiplicities, indicator), the rows evaluated in slices of
    `_LATTICE_BLOCK` through one reused workspace, as the exact blocks.
    The seed is a whole number (`_whole`); its low 64 bits key the stream."""
    seed = _whole(seed, "seed")
    problem, spec, mode, p, draw = _prepare(problem, spec, mode, p, schedule, draw)
    ratio = speed_ratio(schedule, T)
    uniq, mult = _sample_histogram(draw.weights, T, n_samples, seed)
    true_costs = _true_costs(problem, p)
    ind, work = np.empty(mult.size, dtype=bool), {}
    for lo in range(0, mult.size, _LATTICE_BLOCK):
        Q = _normalized_rows(uniq[lo : lo + _LATTICE_BLOCK], T, work)
        ind[lo : lo + _LATTICE_BLOCK] = _disappointment_indicator(
            problem, spec, mode, Q, true_costs, ratio, work
        )
    work.clear()
    return p, draw, uniq, mult, ind


def disappointment_mc(
    problem: Problem,
    spec: PredictorSpec,
    mode: Mode,
    p: Distribution,
    T: int,
    schedule: RegimeSchedule,
    n_samples: int,
    seed: int,
) -> DisappointmentReport:
    """Plain Monte Carlo frequency estimate with binomial standard error.

    The n_samples count rows are drawn as their histogram: the distinct
    rows and their multiplicities (`_sample_histogram`), so the predictors
    run once per distinct row rather than per sample, and memory follows
    the distinct rows: levels are drawn and rows evaluated in blocks of
    `_LATTICE_BLOCK` cells or rows, as the exact engine's.  The law is
    that of n_samples independent draws; a seed reproduces its bits, which
    differ from those of a per-sample draw.  Samples are drawn over the
    merged scenarios of `disappointment_exact`, so on a problem that merges
    the random stream differs from an unmerged draw with the same seed; the
    estimate agrees within its error."""
    T, n_samples = _whole(T, "sample size T", 1), _whole(n_samples, "n_samples", 1)
    *_, mult, ind = _sampled_indicator(
        problem, spec, mode, p, T, schedule, p, n_samples, seed
    )
    hits = int(mult[ind].sum())
    prob = hits / n_samples
    se = math.sqrt(prob * (1.0 - prob) / n_samples)
    log_p = math.log(prob) if prob > 0.0 else -math.inf
    method = MethodInfo(name="monte_carlo", n_samples=n_samples, std_err=se)
    return _report(prob, log_p, method, T, schedule, mode)


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
) -> DisappointmentReport:
    """Change-of-measure estimate: sample counts from shift_q, weight each
    sample by prod_i (p_i/q_i)^counts_i, exponentiated from log space.

    Unbiased for the same probability; with a shift near where the
    disappointment mass concentrates, far fewer samples reach the tail.
    Reports the effective sample size (sum w)^2 / sum w^2.  The samples are
    drawn as a histogram, as in `disappointment_mc`: weights, indicator
    and every sum run once per distinct count row, times its multiplicity.

    Scenarios are merged as in `disappointment_exact`: both p and shift_q
    are summed over each merged group, counts are drawn over the groups
    from the summed shift, and the weights and the effective sample size
    are those of the merged draws.  The report's `method.shift` is the
    caller's shift_q.
    """
    if shift_q.dim != p.dim:
        raise ValidationError("dimension mismatch")
    if not shift_q.is_interior:
        raise ValidationError("shift distribution must have full support")
    T, n_samples = _whole(T, "sample size T", 1), _whole(n_samples, "n_samples", 1)
    p_m, q_m, uniq, mult, ind = _sampled_indicator(
        problem, spec, mode, p, T, schedule, shift_q, n_samples, seed
    )

    w = p_m.weights
    qw = q_m.weights
    diff = np.where(w > 0.0, np.log(np.maximum(w, 1e-300)) - np.log(qw), -np.inf)
    with np.errstate(invalid="ignore"):
        terms = np.where(uniq > 0, uniq * diff, 0.0)
    log_w = terms.sum(axis=1)
    weights = np.exp(log_w)  # 0 when counts land outside support(p)

    y = weights * ind
    est = float(mult @ y) / n_samples
    if n_samples > 1:  # two passes about the mean, as decisions._moments
        var = float(mult @ (y - est) ** 2) / (n_samples - 1)
        se = math.sqrt(var / n_samples)
    else:
        se = 0.0
    wsum = float(mult @ weights)
    wsq = float(mult @ (weights * weights))
    ess = (wsum * wsum / wsq) if wsq > 0.0 else 0.0
    prob = min(max(est, 0.0), 1.0)
    log_p = math.log(prob) if prob > 0.0 else -math.inf
    method = MethodInfo(
        name="importance", n_samples=n_samples, std_err=se, shift=shift_q, ess=ess
    )
    return _report(prob, log_p, method, T, schedule, mode)


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
    w = p.weights
    V, M, VarM = _predictor_values(
        PredictorSpec("svp"), problem.loss.values, w[None, :], ratio
    )
    if mode.kind == "prediction":
        x = _check_decision(problem, mode.decision)
    else:
        x = int(select_decisions(problem, V, VarM)[0])
    q = w  # a zero-variance decision has no direction to tilt along
    if VarM[0, x] > 0.0:  # svp_direction(problem, x, p), from the moments above
        phi = _svp_direction(problem.loss.values[x], w, M[0, x], VarM[0, x])
        q = w - math.sqrt(2.0 * ratio) * phi
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
) -> List[Tuple[int, float]]:
    """Guarantee rate log(p_T)/a_T for each T, in ascending T order.

    Uses exact enumeration whenever the merged lattice of
    `disappointment_exact` fits the cap (never past 2**63 - 1 points),
    otherwise importance sampling around the default shift (which then
    requires a seed).  A feasible guarantee shows rates at or below
    -1 + o(1).
    """
    out: List[Tuple[int, float]] = []
    for T in sorted(_whole(t, "sample size T", 1) for t in T_list):
        try:  # the cap is checked before any enumeration work
            rep = disappointment_exact(problem, spec, mode, p, T, schedule, cap=cap)
        except LatticeCapError:
            if seed is None:
                raise ValidationError(
                    "lattice too large for exact enumeration; sampling needs a seed"
                ) from None
            shift = importance_shift(problem, mode, p, speed_ratio(schedule, T))
            rep = disappointment_importance(
                problem, spec, mode, p, T, schedule, shift, n_samples, seed
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
    m = mean if m is None else _real(m, "level m", -math.inf)
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
        return lam * m - _log_sum_exp(lam * ls + logws)

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
