"""Cost predictors over finite scenario sets.

Four predictors of the out-of-sample cost of a fixed decision:

* plug-in (SAA): the empirical expected loss;
* robust: the worst scenario loss, data-free;
* KL ball: the worst expected loss over all distributions within relative
  entropy r of the empirical one, computed through its 1-D convex dual by
  one batched kernel that every caller shares (a single prediction is a
  one-row batch).  Per row, in units of its span, it bisects a doubled
  bracket down to width max(1e-10, 1e-12*(1 + |hi|)) and polishes with
  guarded Newton steps; a row's result does not depend on its batch;
* variance-penalized (SVP): empirical cost plus sqrt(2 a_T/T * variance),
  which under an interiority condition equals the worst expected loss over
  a local ellipsoid around the empirical distribution.

Also here: the guarantee-speed schedules a_T, the exact maximizer of a
linear function over ellipsoid-intersect-simplex, and the worst-case
distribution attaining the SVP value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .decisions import Problem, _check_decision, _moments
from .errors import (
    ConvergenceError,
    EllipsoidConditionError,
    ValidationError,
)
from .simplex import (
    HARD_REJECT_TOL, Distribution, EmpiricalDistribution, _real, _real_array, _scratch, _whole,
)

# ---------------------------------------------------------------------------
# guarantee-speed schedules: each real parameter is stored as the float that
# simplex._real makes of it, so a bool, a string or NaN is a ValidationError


@dataclass(frozen=True)
class ExponentialRate:
    """a_T = rate * T; the regime where the KL predictor is the right tool."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _real(self.rate, "rate", 0, strict=True))

    def a(self, T: int) -> float:
        return self.rate * T


@dataclass(frozen=True)
class PowerLaw:
    """a_T = coeff * T**exponent with 0 < exponent < 1, so a_T/T -> 0."""

    coeff: float
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "coeff", _real(self.coeff, "coeff", 0, strict=True))
        object.__setattr__(self, "exponent", _real(self.exponent, "exponent", 0, strict=True))
        if not self.exponent < 1:
            raise ValidationError("exponent must lie in (0, 1)")

    def a(self, T: int) -> float:
        return self.coeff * float(T) ** self.exponent


@dataclass(frozen=True)
class Logarithmic:
    """a_T = coeff * log(1 + T); the 1+ keeps a_1 positive."""

    coeff: float

    def __post_init__(self):
        object.__setattr__(self, "coeff", _real(self.coeff, "coeff", 0, strict=True))

    def a(self, T: int) -> float:
        return self.coeff * math.log1p(T)


@dataclass(frozen=True)
class CustomTable:
    """Explicit (T, a_T) pairs: T whole, a_T real, > 0 and nondecreasing in T."""

    points: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        pts = tuple(sorted(
            (_whole(t, "table T"), _real(a, "a_T", 0, strict=True)) for t, a in self.points))
        if not pts:
            raise ValidationError("table must not be empty")
        last = 0.0
        for t, a in pts:
            if a < last:
                raise ValidationError("a_T must be nondecreasing (T=%d)" % t)
            last = a
        object.__setattr__(self, "points", pts)

    def a(self, T: int) -> float:
        for t, a in self.points:
            if t == T:
                return a
        raise ValidationError("no table entry for T=%d" % T)


RegimeSchedule = Union[ExponentialRate, PowerLaw, Logarithmic, CustomTable]


def speed_ratio(schedule: RegimeSchedule, T: int) -> float:
    """a_T / T for the given schedule; T is a whole number >= 1 (`_whole`)."""
    T = _whole(T, "sample size T", 1)
    return schedule.a(T) / T


# ---------------------------------------------------------------------------
# predictor choice, kind plus radius (used by prescriptors, the lab, and the CLI)

_KINDS = ("saa", "robust", "kl", "svp")


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor to run; `radius` is the KL ball radius, a real
    number >= 0 (`simplex._real`) stored as a float.

    A KL spec without an explicit radius takes it from an ExponentialRate
    schedule (the matching guarantee speed a_T = r*T).
    """

    kind: str
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError("unknown predictor kind %r" % (self.kind,))
        if self.radius is not None:
            object.__setattr__(self, "radius", _real(self.radius, "radius", 0))

    def resolved(self, schedule: Optional[RegimeSchedule]) -> "PredictorSpec":
        """This spec with its KL radius pinned down, so its label is
        concrete: an explicit radius wins, else an ExponentialRate schedule
        gives its rate.  Other kinds come back unchanged."""
        if self.kind != "kl" or self.radius is not None:
            return self
        if isinstance(schedule, ExponentialRate):
            return PredictorSpec("kl", schedule.rate)
        raise ValidationError(
            "KL predictor needs a radius: give one explicitly or use an "
            "ExponentialRate schedule"
        )

    @property
    def label(self) -> str:
        if self.kind == "kl" and self.radius is not None:
            return "kl(r=%r)" % self.radius
        return self.kind


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True, slots=True)
class PredictionResult:
    value: float
    worst_case: Optional[Distribution] = None
    dual_alpha: Optional[float] = None
    condition_ok: Optional[bool] = None


# ---------------------------------------------------------------------------
# plug-in and robust


def predict_saa(problem: Problem, x: int, emp: EmpiricalDistribution) -> PredictionResult:
    """Plug-in predictor: expected loss under the empirical distribution."""
    W = emp.distribution.weights[None, :]
    value = predictor_value_rows(problem, x, PredictorSpec("saa"), W)[0]
    return PredictionResult(value=float(value))


def predict_robust(problem: Problem, x: int) -> PredictionResult:
    """Worst-scenario predictor; ignores data entirely."""
    x = _check_decision(problem, x)
    row = problem.loss.values[x]
    i = int(np.argmax(row))  # lowest index on ties
    vertex = np.zeros(row.size)
    vertex[i] = 1.0
    return PredictionResult(value=float(row[i]), worst_case=Distribution(vertex))


# ---------------------------------------------------------------------------
# KL-ball predictor: one batched dual kernel that every KL caller goes through

_KL_BLOCK = 1 << 16  # rows per pass, which bounds the kernel's working memory
_KL_TOL = 1e-10  # floor of the final dual bracket width, in units of the span
_KL_MAX_DOUBLINGS = 200
_KL_MAX_BISECTIONS = 300
_KL_NEWTON_STEPS = 5


def _column_sum(X: np.ndarray) -> np.ndarray:
    # top to bottom over a column's own entries, whatever the batch around
    # it: X.sum(axis=0) would sum pairwise when the batch is one column wide
    acc = X[0].copy()
    for x in X[1:]:
        acc += x
    return acc


def _kl_dual_solve(
    L: np.ndarray, W: np.ndarray, r: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize f(a) = a - exp(-r + sum_i w_i log(a - l_i)) over a >= max(l)
    for every row pair (l, w) of the (M, d) arrays L and W; returns
    (values, alphas), each alpha measured from its row's first loss.  Rows
    must not be constant and r must be positive.

    Per row: the minimum sits at the left edge max(l) + 1e-12*span when
    f' >= 0 there; otherwise the bracket [edge, max(l) + span] is doubled
    until f' changes sign (at most 200 times), bisected to width
    max(_KL_TOL, 1e-12*(1 + |hi|)) (at most 300 steps), and polished by up to 5
    Newton steps kept inside it.  Values are clamped to [plug-in, max(l)];
    the plug-in sums w_i (l_i - l_1) left to right, as decisions._moments
    does, and the power-of-two scaling below is exact, so a clamped value
    equals the saa value bit for bit.
    All of this runs on the row centered on its first loss and divided by
    the power of two nearest its span, so it moves with l -> a l + b.  A row
    that exceeds a cap raises ConvergenceError with its bracket in loss units;
    of several, the lowest-index one.
    Layout: a block of rows is transposed once into contiguous (d, M)
    arrays, and the k rows the left-edge test leaves are gathered once into
    (d, k) arrays.  Each step evaluates f' on all k columns and masks say
    which it moves; a rejected Newton step retires its column.  The sums
    over scenarios loop down the d rows (_column_sum), left to right.
    """
    values, alphas = np.empty(W.shape[0]), np.empty(W.shape[0])
    for s in range(0, W.shape[0], _KL_BLOCK):
        b = slice(s, s + _KL_BLOCK)
        values[b], alphas[b] = _kl_dual_block(L[b], W[b], r)
    return values, alphas


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _kl_dual_block(L, W, r):
    # in the units and layout _kl_dual_solve describes; results in loss units
    ref = L[:, 0]
    sc = np.exp2(np.round(np.log2(L.max(axis=1) - L.min(axis=1))))
    L = ((L - ref[:, None]) / sc[:, None]).T.copy()
    W = W.T.copy()
    gamma = L.max(axis=0)
    span = gamma - L.min(axis=0)
    plug_in = _column_sum(L * W)
    # the sums below run over the support of W only, while a stays above the
    # full-row maximum: a zero weight adds exactly zero once its loss is
    # parked below the row minimum, where every log stays finite
    L = np.where(W > 0.0, L, gamma - 2.0 * span)

    def sums(a, L, W, second=False):
        # exp(-r + sum_i w_i log(a - l_i)), sum_i w_i / (a - l_i) and, when
        # `second`, sum_i w_i / (a - l_i)^2, per column
        gap = a - L
        e = np.exp(-r + _column_sum(W * np.log(gap)))
        if not second:
            return e, _column_sum(W / gap)
        return e, _column_sum(W / gap), _column_sum(W / gap**2)

    alpha = gamma + 1e-12 * span
    e, D = sums(alpha, L, W)
    # the minimum is pinned at the left edge when the max-loss scenario
    # carries no empirical weight, or when r is huge
    rows = np.flatnonzero(~(1.0 - e * D >= 0.0))
    Ls, Ws, top = L.take(rows, axis=1), W.take(rows, axis=1), gamma[rows]
    lo, hi = alpha[rows], top + span[rows]

    def g(a):  # f'(a) on the solved rows
        e, D = sums(a, Ls, Ws)
        return 1.0 - e * D

    def fail(message, j):  # solved row j's error, its bracket back in loss units
        i = rows[j]
        lo_i, hi_i = (float(a[j] * sc[i] + ref[i]) for a in (lo, hi))
        return ConvergenceError(message, bracket=(lo_i, hi_i))

    live = np.ones(rows.size, dtype=bool)
    for _ in range(_KL_MAX_DOUBLINGS + 1):
        live &= g(hi) < 0.0
        if not live.any():
            break
        hi = np.where(live, top + 2.0 * (hi - top), hi)
    else:
        raise fail("no sign change while expanding the dual bracket", np.argmax(live))
    goal = np.maximum(_KL_TOL, 1e-12 * (1.0 + np.abs(hi)))
    live[:] = True
    for _ in range(_KL_MAX_BISECTIONS + 1):
        live &= hi - lo > goal
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        neg = g(mid) < 0.0
        lo = np.where(live & neg, mid, lo)
        hi = np.where(live & ~neg, mid, hi)
    else:
        j = np.argmax(live)
        width = float(goal[j] * sc[rows[j]])
        raise fail("dual bisection failed to reach width %r" % width, j)
    a = 0.5 * (lo + hi)
    live[:] = True
    for _ in range(_KL_NEWTON_STEPS):  # g is increasing and smooth here
        ea, Da, D2 = sums(a, Ls, Ws, second=True)
        gp = ea * (D2 - Da * Da)
        nxt = a - (1.0 - ea * Da) / gp
        live &= (gp > 0.0) & (lo <= nxt) & (nxt <= hi)
        a = np.where(live, nxt, a)
    alpha[rows] = a
    e[rows] = sums(a, Ls, Ws)[0]
    # alpha grows like sqrt(Var/r) for tiny r and the subtraction then loses
    # ulps; the true supremum always lies between the plug-in cost and gamma
    value = np.minimum(np.maximum(alpha - e, plug_in), gamma)
    return value * sc + ref, alpha * sc


def predict_kl_dual(
    problem: Problem, x: int, p: Distribution, r: float
) -> PredictionResult:
    """Worst expected loss over the relative-entropy ball of radius r at p.

    The ball is {q : KL(p, q) <= r} with p (typically the empirical
    distribution) as the first argument.  Solved through the equivalent 1-D
    strictly convex dual, as a one-row call of the batched kernel.
    """
    x = _check_decision(problem, x)
    r = _real(r, "radius", 0)
    if p.dim != problem.n_scenarios:
        raise ValidationError("dimension mismatch")
    row, W = problem.loss.values[x], p.weights[None, :]
    if r == 0.0 or row.max() == row.min():  # the ball is {p}, or the cost is flat
        value = _predictor_values(PredictorSpec("kl", r), row[None, :], W, None)[0][0, 0]
        alpha = None if r == 0.0 else float(row[0])
        return PredictionResult(value=float(value), worst_case=p, dual_alpha=alpha)
    values, alphas = _kl_dual_solve(row[None, :], W, r)
    alpha = float(alphas[0])  # measured from row[0], so the gaps below are exact
    # attaining distribution: q_i proportional to w_i/(alpha - l_i) on the
    # support; at an edge minimum the leftover mass sits on the worst scenario.
    # The dual optimum has gm <= 1/sum_i w_i/(alpha - l_i), with equality at
    # an interior minimum; the cap keeps q's sum at most 1 under rounding
    sup = p.weights > 0.0
    ls, ws = row[sup] - row[0], p.weights[sup]
    gap = alpha - ls
    gm = min(
        math.exp(-r + float(np.sum(ws * np.log(gap)))),
        1.0 / float(np.sum(ws / gap)),
    )
    q = np.zeros(row.size)
    q[sup] = gm * ws / gap
    residual = 1.0 - float(q.sum())
    if residual > 0.0:
        q[int(np.argmax(row))] += residual
    return PredictionResult(
        value=float(values[0]), worst_case=Distribution(q), dual_alpha=alpha + float(row[0])
    )


# ---------------------------------------------------------------------------
# variance-penalized predictor and its ellipsoid geometry


def dro_condition_holds(p: Distribution, ratio: float) -> bool:
    """Interiority condition under which the SVP value is an exact
    worst case over the local ellipsoid of radius ratio = a_T/T:
    sqrt(2*ratio) <= min_i p_i * min_i min(p_i, 1-p_i)."""
    w = p.weights
    rhs = float(w.min()) * float(np.minimum(w, 1.0 - w).min())
    return bool(math.sqrt(2.0 * _real(ratio, "ratio", 0)) <= rhs)


def svp_direction(problem: Problem, x: int, p: Distribution) -> np.ndarray:
    """The unit direction phi with p + sqrt(2 a_T/T) * phi attaining the
    SVP worst case: (l .* p - c(x,p) * p) / sqrt(Var).

    Returned as a raw zero-sum vector (a signed measure).  Satisfies
    2*||phi||_p^2 = 1 and sum_i l_i phi_i = sqrt(Var).  Requires Var > 0.
    """
    row = problem.loss.values[_check_decision(problem, x)]
    mean, var = (float(m[0, 0]) for m in _moments(row[None, :], p.weights[None, :]))
    return _svp_direction(row, p.weights, mean, var)


def _svp_direction(row, w, mean, var) -> np.ndarray:
    """svp_direction from the mean and variance of the loss row under w."""
    if var <= 0.0:
        raise ValidationError("zero variance: direction undefined")
    return (row - mean) * w / math.sqrt(var)


def _svp_worst_case(row, w, ratio, mean, var) -> Optional[Distribution]:
    """The point q = w + sqrt(2 ratio) * `svp_direction` of the ellipsoid
    boundary, whose cost is the svp value, for interior w and Var > 0; None
    if q is no distribution: off the simplex, or its sum off 1 as sd << |mean|."""
    q = w + math.sqrt(2.0 * ratio) * _svp_direction(row, w, mean, var)
    fits = q.min() >= -1e-12 and abs(np.maximum(q, 0.0).sum() - 1.0) <= HARD_REJECT_TOL
    return Distribution(np.maximum(q, 0.0)) if fits else None


def predict_svp(
    problem: Problem,
    x: int,
    emp: EmpiricalDistribution,
    schedule: RegimeSchedule,
) -> PredictionResult:
    """Variance-penalized predictor: cost + sqrt(2 a_T/T * variance).

    The formula is always evaluated; condition_ok only reports whether the
    ellipsoid worst-case interpretation is certified at this empirical
    distribution.  worst_case is filled in when that distribution is
    interior, the variance is positive and the attaining point exists
    inside the simplex.
    """
    ratio = speed_ratio(schedule, emp.sample_size)
    p = emp.distribution
    row, w = problem.loss.values[_check_decision(problem, x)], p.weights
    V = _predictor_values(PredictorSpec("svp"), row[None, :], w[None, :], ratio)
    worst = None
    if p.is_interior and V[2][0, 0] > 0.0:  # from the moments of the value: one pass
        worst = _svp_worst_case(row, w, ratio, V[1][0, 0], V[2][0, 0])
    return PredictionResult(
        value=float(V[0][0, 0]),
        worst_case=worst,
        condition_ok=dro_condition_holds(p, ratio),
    )


# ---------------------------------------------------------------------------
# batch evaluation over many empirical distributions at once
#
# The disappointment laboratory and the prescriptor both run through these,
# so a decision made on a single sample and the same point of an enumerated
# lattice are evaluated by literally the same code path.


def _predictor_values(
    spec: PredictorSpec,
    L: np.ndarray,
    W: np.ndarray,
    ratio: Optional[float],
    work: Optional[dict] = None,
    tie: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """(values, mean, var), each (N, n): the predictor values of the loss
    rows L (n, d) over the weight rows W (N, d), and the centered moments of
    one decisions._moments call.  saa, svp and kl at radius 0 read the
    means, svp the variances; for a kl spec with a positive radius, the
    (weight row, nonconstant loss row) pairs go through one call of the
    batched dual kernel.  mean is None unless the kind reads it or the tie
    window `tie` is given, var unless the kind is svp (prescriptions form
    tie-break variances for tied rows only: decisions._pick_decisions).  An
    entry does not depend on the rows beside it.  Each array is the
    transposed view of an (n, N) one; the moments and svp values live in
    `_scratch(work, ...)`.

    Given `tie` (every prescription), a kl spec solves only the pairs that
    can come within `tie` of their row's minimum; the others read +inf, so
    select_decisions makes the same picks at the same values.  The screen
    bounds a value below by its mean, which the kernel's clamp makes the
    plug-in bit for bit, and above by min(max l, mean + span*sqrt(r/2))
    (Pinsker: TV <= sqrt(KL/2)) plus the kernel's error (`_kl_error`) and
    `tie`; it skips a pair whose mean exceeds the row's least upper
    bound plus `tie`."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != L.shape[1]:
        raise ValidationError("W must be (N, %d)" % L.shape[1])
    kind, r = spec.kind, spec.radius
    # past _real's None, NaN and < 0: a ratio above about 9e307, where 2 ratio overflows
    if kind == "svp" and not 2.0 * _real(ratio, "svp ratio a_T/T", 0) < math.inf:
        raise ValidationError("svp needs a finite ratio a_T/T, got %r" % (ratio,))
    if kind == "kl" and r is None:
        raise ValidationError("kl spec must carry a resolved radius")
    mean = var = None
    if kind == "svp":
        mean, var = _moments(L, W, work)
    elif tie is not None or kind == "saa" or (kind == "kl" and r == 0.0):
        mean = _moments(L, W, work, var=False)[0]
    N = W.shape[0]
    if kind == "robust":
        values = np.repeat(L.max(axis=1)[:, None], N, axis=1).T
    elif kind == "kl" and r > 0.0:
        # a constant row costs its value under every distribution, a first
        # loss of -0.0 read as 0.0, as decisions._moments reads it
        values = np.repeat(L[:, :1] + 0.0, N, axis=1)
        span = np.ptp(L, axis=1)[:, None]
        solve = np.broadcast_to(span > 0.0, values.shape)
        if tie is not None:
            upper = _kl_upper(mean.T, span, L.max(axis=1)[:, None], r, L.shape[1], tie)
            skip = solve & (mean.T > upper.min(axis=0) + tie)
            values[skip] = np.inf
            solve = solve & ~skip
        cols, rows = np.nonzero(solve)
        values[cols, rows] = _kl_dual_solve(L[cols], W[rows], r)[0]
        values = values.T
    elif kind == "svp":  # mean + sqrt(2 ratio var), laid out as mean
        values = _scratch(work, "values", var.shape[::-1]).T
        np.multiply(2.0 * ratio, var, out=values)
        np.add(mean, np.sqrt(values, out=values), out=values)
    else:
        values = mean  # saa, and kl at radius 0
    return values, mean, var


def _value_bounds(spec, L, lo, hi, ratio, tie):
    """(lower, upper), each (n,): bounds, up to rounding, on the
    `_predictor_values` of the loss rows L (n, d) at any weight row with
    lo <= w <= hi (d,) and sum 1.  The least and greatest means over that
    box are exact: the mass left over lo fills the scenarios of a centred
    row (decisions._moments) cheapest (costliest) first, each up to hi.
    saa and kl at radius 0 lie between them; svp adds at most sqrt(2 ratio)
    span/2 to the greatest (Popoviciu: Var <= span^2/4, clear of the 0
    where sqrt blows rounding up); kl is below `_kl_upper` of the greatest;
    robust is max l.  ratio must be finite."""
    top = L.max(axis=1)
    if spec.kind == "robust":
        return top, top
    D = L - L[:, :1]
    up, S = np.argsort(D, axis=1), np.sort(D, axis=1)
    order = np.stack([up, up[:, ::-1]])  # cheapest first, costliest first
    cap = (hi - lo)[order]
    fill = np.cumsum(cap, axis=2)  # the mass left for each scenario, capped
    np.subtract(1.0 - lo.sum() + cap, fill, out=fill)
    np.minimum(np.maximum(fill, 0.0, out=fill), cap, out=fill)
    fill *= np.stack([S, S[:, ::-1]])
    lower, upper = fill.sum(axis=2) + (D @ lo + L[:, 0])
    span = top - L.min(axis=1)
    if spec.kind == "svp":
        upper += math.sqrt(2.0 * ratio) * span / 2.0
    elif spec.kind == "kl" and spec.radius > 0.0:
        upper = _kl_upper(upper, span, top, spec.radius, L.shape[1], tie)
    return lower, upper


def _kl_upper(mean, span, top, r, d, tie):
    """min(top, mean + span sqrt(r/2)) (Pinsker) plus the kernel's error
    (`_kl_error`) and tie."""
    return np.minimum(mean + span * math.sqrt(r / 2.0), top) + (_kl_error(span, d, r) + tie)


def _kl_error(span, d, r):
    """A bound on how far the kernel's value of a loss row of d entries and
    the given span strays from the dual's: 10 _KL_TOL spans for the
    bracket, plus the rounding of alpha - e, some (d + 2) ulps of alpha.
    At the optimum r = log(G/H), G and H the weighted geometric and
    harmonic means of the gaps alpha - l_i; that is at most
    Var (t + span)^2 / (2 t^4) at a distance t above the largest loss, and
    Var <= span^2/4, so alpha lies within span (2 + 1/sqrt(2 r)) of the
    row and the error grows like 1/sqrt(r).  Against duals solved to 120
    digits (1e-14 <= r <= 0.5, d <= 8) the error stayed below 1/20 of
    this bound plus the screen's rounding margin."""
    eps = np.finfo(float).eps
    return span * (10.0 * _KL_TOL + 16 * (d + 2) * eps * (3.0 + r ** -0.5))


def predictor_value_rows(
    problem: Problem,
    x: int,
    spec: PredictorSpec,
    W: np.ndarray,
    ratio: Optional[float] = None,
) -> np.ndarray:
    """Predictor values of decision x over a batch of weight rows.

    W has shape (N, d), each row a normalized distribution of real numbers
    (`simplex._real_array`).  `ratio` is a_T/T (needed by svp); a kl spec
    must carry an explicit radius.  A kl row gives bit for bit what
    predict_kl_dual gives for it alone.
    """
    x = _check_decision(problem, x)
    W = _real_array(W, "weights")
    return _predictor_values(spec, problem.loss.values[x:x + 1], W, ratio)[0][:, 0]


def predictor_value_matrix(
    problem: Problem,
    spec: PredictorSpec,
    W: np.ndarray,
    ratio: Optional[float] = None,
) -> np.ndarray:
    """(N, n_decisions) matrix of predictor values over weight rows W of
    real numbers; column x equals predictor_value_rows(..., x, ...) bit for
    bit."""
    return _predictor_values(spec, problem.loss.values, _real_array(W, "weights"), ratio)[0]


def variance_matrix(problem: Problem, W: np.ndarray) -> np.ndarray:
    """(N, n_decisions) loss variances over weight rows W of real numbers."""
    return _moments(problem.loss.values, _real_array(W, "weights"))[1]


def ellipsoid_linear_max(
    loss_row, p: Distribution, a_matrix, radius: float
) -> Tuple[float, Distribution]:
    """Maximize sum_i l_i q_i over {q : (q-p)' A (q-p) <= radius} inside the
    simplex, for a loss row and a matrix A of real numbers
    (`simplex._real_array`), assuming the ellipsoid slice is certified to fit:
    sqrt(radius) < sigma_min(A) * min_i min(p_i, 1-p_i).

    Closed form: with u = A^-1 l, v = A^-1 e and
    gamma = l'u - (e'u)^2 / (e'v), the maximum is cost(p) + sqrt(radius*gamma)
    at q = p + sqrt(radius/gamma) * (u - (e'u/e'v) v).
    """
    row = _real_array(loss_row, "loss row").reshape(-1)
    A = _real_array(a_matrix, "a_matrix")
    d = p.dim
    if row.size != d or A.shape != (d, d):
        raise ValidationError("dimension mismatch")
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
        raise ValidationError("a_matrix must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs.min() <= 0.0:
        raise ValidationError("a_matrix must be positive definite")
    radius = _real(radius, "radius", 0)
    base = float(row @ p.weights)
    if radius == 0.0 or row.max() == row.min():
        return base, p
    lhs = math.sqrt(radius)
    rhs = float(eigs.min()) * float(np.minimum(p.weights, 1.0 - p.weights).min())
    if not lhs < rhs:
        raise EllipsoidConditionError(lhs, rhs)
    e = np.ones(d)
    u = np.linalg.solve(A, row)
    v = np.linalg.solve(A, e)
    beta = float(e @ u) / float(e @ v)
    gamma = float(row @ u) - float(e @ u) ** 2 / float(e @ v)
    if gamma <= 1e-15 * max(1.0, float(row @ row)):
        # loss row proportional to the all-ones vector in A-geometry
        return base, p
    direction = u - beta * v
    q = p.weights + math.sqrt(radius / gamma) * direction
    value = base + math.sqrt(radius * gamma)
    if q.min() < -1e-9:
        raise EllipsoidConditionError(lhs, rhs)
    return value, Distribution(np.maximum(q, 0.0))
