"""Finite decision problems: loss matrices, moments, and scenario files.

A problem is a finite set of decisions (rows) against a finite set of
scenarios (columns).  The expected cost of a decision under a distribution,
its variance, and the minimal-variance cost minimizer are the primitives
every predictor and prescriptor builds on.
"""
from __future__ import annotations

import json
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ScenarioFormatError, ValidationError
from .simplex import Distribution, _Frozen, _real_array, _scratch, _whole

SCHEMA_VERSION = 1


class LossMatrix(_Frozen):
    """Losses l(x, i): rows are decisions, columns are scenarios.  The
    losses are real numbers (`simplex._real_array`) and finite."""

    __slots__ = ("values", "decision_labels", "scenario_labels", "k_half",
                 "tie_window", "var_window")

    def __init__(
        self,
        values,
        decision_labels: Optional[Sequence[str]] = None,
        scenario_labels: Optional[Sequence[str]] = None,
    ) -> None:
        v = _real_array(values, "loss")
        if v.ndim != 2:
            raise ValidationError("loss matrix must be 2-D")
        n, d = v.shape
        if n < 1 or d < 2:
            raise ValidationError("need at least 1 decision and 2 scenarios")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ValidationError(
                "non-finite loss at decision %d, scenario %d" % (bad[0], bad[1])
            )
        if decision_labels is None:
            decision_labels = ["x%d" % i for i in range(n)]
        if scenario_labels is None:
            scenario_labels = ["s%d" % i for i in range(d)]
        if len(decision_labels) != n:
            raise ValidationError("decision_labels length mismatch")
        if len(scenario_labels) != d:
            raise ValidationError("scenario_labels length mismatch")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "decision_labels", tuple(decision_labels))
        object.__setattr__(self, "scenario_labels", tuple(scenario_labels))
        # cached sup-norm; the two-sided bound used by finite-sample
        # guarantees is K = 2 * k_half
        object.__setattr__(self, "k_half", float(np.abs(v).max()))
        # costs and predictor values closer than this are equal: relative to
        # the loss scale, so ties do not depend on the units of the losses
        object.__setattr__(self, "tie_window", 1e-12 * self.k_half)
        # variances closer than this are equal; a shift does not move a span
        object.__setattr__(self, "var_window", 1e-12 * float(v.max() - v.min()) ** 2)

    def _merged(self, values) -> "LossMatrix":
        """The loss matrix `values` of some of this one's rows over its
        merged scenarios, with this one's tie windows: ties stay in the
        units of the full matrix, whose k_half a single row may not reach."""
        out = LossMatrix(values)
        object.__setattr__(out, "tie_window", self.tie_window)
        object.__setattr__(out, "var_window", self.var_window)
        return out

    @property
    def n_decisions(self) -> int:
        return self.values.shape[0]

    @property
    def n_scenarios(self) -> int:
        return self.values.shape[1]


class Problem(_Frozen):
    """A loss matrix plus, in experiment mode, the true distribution."""

    __slots__ = ("loss", "true_dist")

    def __init__(self, loss: LossMatrix, true_dist: Optional[Distribution] = None):
        if true_dist is not None and true_dist.dim != loss.n_scenarios:
            raise ValidationError(
                "true_dist has %d weights for %d scenarios"
                % (true_dist.dim, loss.n_scenarios)
            )
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "true_dist", true_dist)

    @property
    def n_decisions(self) -> int:
        return self.loss.n_decisions

    @property
    def n_scenarios(self) -> int:
        return self.loss.n_scenarios


def _check_decision(problem: Problem, x: int) -> int:
    x = _whole(x, "decision index")
    if not 0 <= x < problem.n_decisions:
        raise IndexError("decision index %d out of range" % x)
    return x


def cost(problem: Problem, x: int, p: Distribution) -> float:
    """Expected loss of decision x under p; linear in p."""
    x = _check_decision(problem, x)
    return float(_moments(problem.loss.values[x:x + 1], p.weights[None, :])[0][0, 0])


def _moments(
    L: np.ndarray, W: np.ndarray, work: Optional[dict] = None, var: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """(mean, var), each (N, n), of the loss rows L (n, d) under the weight
    rows W (N, d): two-pass sums about the mean of D = L - L[:, :1] (Chan,
    Golub & LeVeque 1983), so a constant row has variance exactly 0 and a
    shift of the losses moves the mean up to rounding.  Sums run left to
    right over a weight row's own entries (the first mean term, exactly 0,
    is left out): no entry depends on its batch.  W is read as the rows of
    W.T, without a copy when W is laid out in columns.  var is None unless
    `var`.  mean and var are transposed views of (n, N) arrays from
    `_scratch(work, ...)`."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != L.shape[1]:
        raise ValidationError("W must be (N, %d)" % L.shape[1])
    D = L - L[:, :1]
    WT = W.T  # one scenario's weights per row
    n, N = D.shape[0], W.shape[0]
    M = np.multiply(D[:, 1, None], WT[1], out=_scratch(work, "mean", (n, N)))
    t = _scratch(work, "t", (n, N))
    for i in range(2, L.shape[1]):  # in place: fresh temporaries cost 3x here
        M += np.multiply(D[:, i, None], WT[i], out=t)
    V = None
    if var:
        V = _scratch(work, "var", (n, N))
        for i in range(L.shape[1]):
            u = V if i == 0 else t  # the first term goes straight into V
            np.subtract(D[:, i, None], M, out=u)
            u *= u
            np.multiply(u, WT[i], out=u)
            if i:
                V += t
    M += L[:, :1] + 0.0  # a first loss of -0.0 adds as the dropped +0.0 term did
    return M.T, None if V is None else V.T


def variance(problem: Problem, x: int, p: Distribution) -> float:
    """Variance of the loss of decision x under p."""
    x = _check_decision(problem, x)
    return float(_moments(problem.loss.values[x:x + 1], p.weights[None, :])[1][0, 0])


def select_decisions(
    problem: Problem, values: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Row-wise argmin with the prescriptor tie-break, the package's one.

    values, variances: (N, n_decisions).  Within each row, decisions whose
    value is within problem.loss.tie_window of the row minimum are
    candidates; candidates whose variance is within var_window of the least
    one tie, and ties go to the lowest index.  Returns (N,) int indices.
    A row with one candidate picks it whatever the variances, which
    `_pick_decisions` forms only for rows with two or more.
    """
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if values.shape != variances.shape or values.ndim != 2:
        raise ValidationError("values and variances must share shape (N, n)")
    vmin = values.min(axis=1, keepdims=True)
    masked_var = np.where(values <= vmin + problem.loss.tie_window, variances, np.inf)
    wmin = masked_var.min(axis=1, keepdims=True)
    # argmax returns the first index where the winning mask is True
    pick = np.argmax(masked_var <= wmin + problem.loss.var_window, axis=1)
    return pick.astype(np.int64)


def _pick_decisions(
    problem: Problem, values: np.ndarray, W: np.ndarray, work: Optional[dict] = None,
    rows=slice(None), var: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(pick, value), each (N,): the `select_decisions` pick (an index into
    values) of each weight row of W (N, d) and its value, from values (n, N)
    of the loss rows `rows`, all by default.  One pass down the decisions
    marks each row's candidates (within the tie window of its minimum) and
    counts the decisions before the first one: its first argmin, the pick
    of a row with one candidate.  Only rows with two or more go to
    `select_decisions`, with the variances of those rows alone: read from
    var (N, n) when the caller formed them (svp), else formed here."""
    n, N = values.shape
    best, window, inside, both, seen, tied, ahead, pick = _pick_buffers(problem, work, N)
    np.min(values, axis=0, out=best)
    np.add(best, problem.loss.tie_window, out=window)
    seen[:] = tied[:] = False
    ahead.fill(0)  # the decisions before each row's first candidate
    for x in range(n):
        np.less_equal(values[x], window, out=inside)
        np.logical_or(tied, np.logical_and(inside, seen, out=both), out=tied)
        np.logical_or(seen, inside, out=seen)
        np.add(ahead, np.logical_not(seen, out=both).view(np.uint8), out=ahead)
    np.add(ahead, 0, out=pick)
    tied = np.flatnonzero(tied)
    if tied.size:
        var = _moments(problem.loss.values[rows], W[tied])[1] if var is None else var[tied]
        pick[tied] = select_decisions(problem, values[:, tied].T, var)
        best[tied] = values[pick[tied], tied]
    return pick, best


def _pick_buffers(problem: Problem, work: Optional[dict], N: int) -> list:
    """The (N,) arrays of `_pick_decisions` from `_scratch(work, ...)`:
    best, window, inside, both, seen, tied, ahead and pick.  A caller that
    asks once for its largest pass sizes them for every later one."""
    roles = (("best", np.float64), ("window", np.float64), ("inside", np.bool_),
             ("both", np.bool_), ("seen", np.bool_), ("tied", np.bool_),
             ("ahead", np.min_scalar_type(problem.n_decisions)), ("pick", np.int64))
    return [_scratch(work, role, (N,), dtype) for role, dtype in roles]


def min_variance_minimizer(problem: Problem, p: Distribution) -> int:
    """The cost minimizer under p by the select_decisions rule: among
    decisions whose cost ties the minimum, the one with the smallest
    variance, then the lowest index."""
    costs, variances = _moments(problem.loss.values, p.weights[None, :])
    return int(select_decisions(problem, costs, variances)[0])


def _problem_from_dict(doc: dict, where: str) -> Problem:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("%s: top level must be an object" % where)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            "%s: schema_version must be %d, got %r" % (where, SCHEMA_VERSION, version),
            field="schema_version",
        )
    for key in ("scenario_labels", "decision_labels", "loss"):
        if key not in doc:
            raise ScenarioFormatError("%s: missing field %r" % (where, key), field=key)
    loss_rows = doc["loss"]
    if not isinstance(loss_rows, list) or not all(
        isinstance(r, list) for r in loss_rows
    ):
        raise ScenarioFormatError(
            "%s: loss must be a row-major list of lists" % where, field="loss"
        )
    try:
        loss = LossMatrix(
            loss_rows,
            decision_labels=doc["decision_labels"],
            scenario_labels=doc["scenario_labels"],
        )
    except (ValidationError, ValueError) as exc:
        raise ScenarioFormatError("%s: %s" % (where, exc), field="loss") from exc
    true_dist = None
    if doc.get("true_dist") is not None:
        try:
            true_dist = Distribution(doc["true_dist"])
        except ValidationError as exc:
            raise ScenarioFormatError(
                "%s: true_dist invalid: %s" % (where, exc), field="true_dist"
            ) from exc
    try:
        return Problem(loss, true_dist)
    except ValidationError as exc:
        raise ScenarioFormatError("%s: %s" % (where, exc)) from exc


def _read_json(path: str):
    """The JSON document at path, or ScenarioFormatError (with the line of
    a parse error): the one reader of scenario and CLI config files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            "%s: parse error at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg),
            line=exc.lineno,
        ) from exc


def load_scenario(path: str) -> Problem:
    """Load and validate a scenario JSON file.

    Schema (version 1): an object with `schema_version`, `scenario_labels`,
    `decision_labels`, `loss` (row-major, decisions x scenarios), and an
    optional `true_dist` over the scenarios.
    """
    return _problem_from_dict(_read_json(path), path)
