"""Tests for the four cost predictors, the schedules, and the batch engine."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ddlab import (
    ConvergenceError,
    CustomTable,
    Distribution,
    EllipsoidConditionError,
    EmpiricalDistribution,
    ExponentialRate,
    Logarithmic,
    LossMatrix,
    PowerLaw,
    PredictorSpec,
    Problem,
    SimplexDelta,
    ValidationError,
    cost,
    dro_condition_holds,
    ellipsoid_linear_max,
    ellipsoid_norm_sq,
    predict_kl_dual,
    predict_robust,
    predict_saa,
    predict_svp,
    predictor_value_matrix,
    predictor_value_rows,
    prescribe,
    speed_ratio,
    svp_direction,
    theoretical_rate_saa,
    variance,
    variance_matrix,
)
from ddlab import predictors
from kl_oracle import kl_divergence, predict_kl_primal_grid


def make_problem(loss, true_dist=None):
    td = None if true_dist is None else Distribution(true_dist)
    return Problem(LossMatrix(np.array(loss, dtype=float)), td)


COIN = make_problem([[0.5, 0.5], [0.0, 1.0]], true_dist=(0.5, 0.5))
HALF = Distribution((0.5, 0.5))


# ---------------------------------------------------------------------------
# schedules


class TestSchedules:
    def test_exponential(self):
        s = ExponentialRate(0.02)
        assert s.a(500) == pytest.approx(10.0)
        assert speed_ratio(s, 500) == pytest.approx(0.02)

    def test_exponential_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            ExponentialRate(0.0)
        with pytest.raises(ValidationError):
            ExponentialRate(-1.0)

    def test_power_law(self):
        s = PowerLaw(1.0, 0.5)
        assert s.a(100) == pytest.approx(10.0)
        assert speed_ratio(s, 100) == pytest.approx(0.1)

    def test_power_law_exponent_range(self):
        with pytest.raises(ValidationError):
            PowerLaw(1.0, 0.0)
        with pytest.raises(ValidationError):
            PowerLaw(1.0, 1.0)
        with pytest.raises(ValidationError):
            PowerLaw(0.0, 0.5)

    def test_logarithmic(self):
        s = Logarithmic(2.0)
        assert s.a(99) == pytest.approx(2.0 * math.log(100.0))
        with pytest.raises(ValidationError):
            Logarithmic(0.0)

    def test_custom_table_sorted_and_lookup(self):
        s = CustomTable(((100, 2.0), (50, 1.0)))
        assert s.points == ((50, 1.0), (100, 2.0))
        assert s.a(50) == 1.0
        assert s.a(100) == 2.0

    def test_custom_table_missing_entry(self):
        s = CustomTable(((50, 1.0),))
        with pytest.raises(ValidationError):
            s.a(51)

    def test_custom_table_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            CustomTable(())
        with pytest.raises(ValidationError):
            CustomTable(((10, 0.0),))
        with pytest.raises(ValidationError):
            CustomTable(((10, 2.0), (20, 1.0)))  # decreasing
        with pytest.raises(ValidationError):
            CustomTable(((10, math.nan),))  # predict_svp read nan from it


# ---------------------------------------------------------------------------
# predictor specs


class TestPredictorSpec:
    def test_kinds(self):
        for kind in ("saa", "robust", "kl", "svp"):
            assert PredictorSpec(kind).kind == kind
        with pytest.raises(ValidationError):
            PredictorSpec("dro")

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            PredictorSpec("kl", radius=-0.1)
        # a NaN radius raised TypeError in exact prediction and labelled
        # prescribe's saa pick kl(r=nan)
        with pytest.raises(ValidationError):
            PredictorSpec("kl", radius=math.nan)

    def test_labels(self):
        assert PredictorSpec("saa").label == "saa"
        assert PredictorSpec("kl", radius=0.1).label == "kl(r=0.1)"

    def test_resolve_radius_explicit_wins(self):
        spec = PredictorSpec("kl", radius=0.3)
        assert spec.resolved(ExponentialRate(0.1)) == spec

    def test_resolve_radius_from_exponential_schedule(self):
        spec = PredictorSpec("kl").resolved(ExponentialRate(0.07))
        assert spec == PredictorSpec("kl", 0.07)
        assert spec.label == "kl(r=0.07)"

    def test_resolve_radius_requires_a_source(self):
        with pytest.raises(ValidationError):
            PredictorSpec("kl").resolved(PowerLaw(1.0, 0.5))
        with pytest.raises(ValidationError):
            PredictorSpec("kl").resolved(None)

    def test_resolved_leaves_other_kinds_unchanged(self):
        for kind in ("saa", "robust", "svp"):
            spec = PredictorSpec(kind)
            assert spec.resolved(None) is spec
            assert spec.resolved(ExponentialRate(0.1)) is spec


# ---------------------------------------------------------------------------
# plug-in and robust


class TestSaaAndRobust:
    def test_saa_is_empirical_mean(self):
        emp = EmpiricalDistribution((30, 70))
        res = predict_saa(COIN, 1, emp)
        assert res.value == pytest.approx(0.7)
        assert res.worst_case is None

    def test_robust_is_row_max(self):
        res = predict_robust(COIN, 1)
        assert res.value == 1.0
        assert res.worst_case == Distribution((0.0, 1.0))

    def test_robust_tie_takes_lowest_index(self):
        prob = make_problem([[0.0, 5.0, 3.0, 5.0]])
        res = predict_robust(prob, 0)
        assert res.value == 5.0
        assert res.worst_case == Distribution((0.0, 1.0, 0.0, 0.0))

    def test_robust_ignores_out_of_range_decision(self):
        with pytest.raises(IndexError):
            predict_robust(COIN, 2)


# ---------------------------------------------------------------------------
# KL-ball predictor


class TestKlDual:
    def test_zero_radius_is_plug_in(self):
        res = predict_kl_dual(COIN, 1, HALF, 0.0)
        assert res.value == 0.5
        assert res.worst_case == HALF

    def test_binary_closed_form(self):
        # losses (0, 1), even weights, r = 0.1: the dual has an analytic
        # solution and this value was frozen from it
        res = predict_kl_dual(COIN, 1, HALF, 0.1)
        assert res.value == pytest.approx(0.712878631455824, abs=1e-9)
        assert res.dual_alpha is not None and res.dual_alpha >= 1.0

    def test_worst_case_attains_value_on_the_ball(self):
        res = predict_kl_dual(COIN, 1, HALF, 0.1)
        q = res.worst_case
        assert cost(COIN, 1, q) == pytest.approx(res.value, abs=1e-9)
        assert kl_divergence(HALF, q) == pytest.approx(0.1, abs=1e-7)

    def test_huge_radius_approaches_robust(self):
        res = predict_kl_dual(COIN, 1, HALF, 50.0)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_constant_row(self):
        res = predict_kl_dual(COIN, 0, HALF, 0.3)
        assert res.value == 0.5
        assert res.dual_alpha == 0.5
        assert res.worst_case == HALF

    def test_vertex_center_unseen_worst_scenario(self):
        # all mass on the zero-loss scenario: the adversary can move
        # e^{-r} -> 1-e^{-r} of it onto the unseen loss-1 scenario
        p = Distribution((1.0, 0.0))
        r = 0.1
        res = predict_kl_dual(COIN, 1, p, r)
        assert res.value == pytest.approx(1.0 - math.exp(-r), abs=1e-9)
        q = res.worst_case
        assert q.weights[0] == pytest.approx(math.exp(-r), abs=1e-9)
        assert kl_divergence(p, q) == pytest.approx(r, abs=1e-9)

    def test_vertex_center_on_the_worst_scenario(self):
        # all mass already on the max-loss scenario: nothing to gain
        prob = make_problem([[1.0, 0.0]])
        p = Distribution((1.0, 0.0))
        res = predict_kl_dual(prob, 0, p, 0.1)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            predict_kl_dual(COIN, 1, HALF, -0.1)
        with pytest.raises(ValidationError):
            predict_kl_dual(COIN, 1, Distribution((0.2, 0.3, 0.5)), 0.1)

    def test_worst_case_near_1e6_is_a_distribution(self):
        # alpha - l_i cancels near 1e6: the worst case rebuilt from the dual
        # normaliser summed to 1.0043 and 1.00001 here and raised
        cases = [
            ([1000000.9367104138, 999999.1283525809],
             [0.8283670693389734, 0.1716329306610267], 2.5838379133685394),
            ([1000000.0920912208, 1000000.6406282306, 1000000.9116128096],
             [0.027866421853148242, 0.08759876125365981, 0.884534816893192],
             1.5374776175079312),
        ]
        for row, w, r in cases:
            p = Distribution(w)
            res = predict_kl_dual(make_problem([row]), 0, p, r)
            near_0 = predict_kl_dual(make_problem([np.subtract(row, 1e6)]), 0, p, r)
            assert res.value == pytest.approx(near_0.value + 1e6, abs=1e-8)
            assert np.allclose(res.worst_case.weights, near_0.worst_case.weights, atol=1e-9)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            prob = make_problem([rng.uniform(-1.0, 2.0, d)])
            p = Distribution(rng.dirichlet(np.full(d, 1.2)))
            radii = np.sort(rng.uniform(0.0, 2.0, 4))
            vals = [predict_kl_dual(prob, 0, p, r).value for r in radii]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-12

    def test_between_plug_in_and_robust(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            prob = make_problem([rng.uniform(-2.0, 3.0, d)])
            p = Distribution(rng.dirichlet(np.full(d, 0.9)))
            r = float(rng.uniform(0.0, 1.5))
            lo = cost(prob, 0, p)
            hi = predict_robust(prob, 0).value
            mid = predict_kl_dual(prob, 0, p, r).value
            assert lo - 1e-9 <= mid <= hi + 1e-9

    def test_shift_covariance(self):
        # adding a constant to the loss row shifts the value by exactly that
        rng = np.random.default_rng(5)
        row = rng.uniform(0.0, 1.0, 3)
        p = Distribution(rng.dirichlet(np.ones(3)))
        c0 = 7.25
        base = predict_kl_dual(make_problem([row]), 0, p, 0.2).value
        shifted = predict_kl_dual(make_problem([row + c0]), 0, p, 0.2).value
        assert shifted == pytest.approx(base + c0, abs=1e-9)

    def test_dual_alpha_dominates_row(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            row = rng.uniform(-1.0, 1.0, 3)
            if row.max() == row.min():
                continue
            p = Distribution(rng.dirichlet(np.ones(3)))
            res = predict_kl_dual(make_problem([row]), 0, p, 0.4)
            assert res.dual_alpha >= row.max()


# ---------------------------------------------------------------------------
# the batched KL dual kernel

KL_TOL = 1e-10  # the kernel's fixed bracket floor; a looser kernel fails here


def _kl_reference(row, w, r):
    """Independent KL value: brentq on the derivative of the dual
    f(a) = a - exp(-r + sum_i w_i log(a - l_i)) over a > max(l), clamped
    to [plug-in, max(l)] like the kernel."""
    row = np.asarray(row, dtype=float)
    w = np.asarray(w, dtype=float)
    gamma = float(row.max())
    if r == 0.0 or row.min() == gamma:
        return float(row @ w)
    sup = w > 0.0
    ls, ws = row[sup], w[sup]

    def gm(a):
        return math.exp(-r + float(np.sum(ws * np.log(a - ls))))

    def fprime(a):
        return 1.0 - gm(a) * float(np.sum(ws / (a - ls)))

    # f' -> -inf at max(l) when the max-loss scenario carries weight
    lower = gamma if w[row == gamma].sum() == 0.0 else np.nextafter(gamma, np.inf)
    if fprime(lower) >= 0.0:
        a = lower
    else:
        hi = gamma + (gamma - float(row.min()))
        while fprime(hi) < 0.0:
            hi = gamma + 2.0 * (hi - gamma)
        a = brentq(fprime, lower, hi, xtol=1e-14, maxiter=500)
    return min(max(a - gm(a), float(row @ w)), gamma)


def _random_rows(rng, n, d):
    L = rng.uniform(-1.0, 2.0, (n, d))
    W = rng.dirichlet(np.full(d, 0.8), n)
    W[rng.random((n, d)) < 0.15] = 0.0  # boundary weights
    W[W.sum(axis=1) == 0.0, 0] = 1.0
    return L, W / W.sum(axis=1, keepdims=True)


def _edge_cases():
    """(loss row, weights, radius) triples at the kernel's edges."""
    return [
        ([0.0, 0.5, 1.0], [0.5, 0.5, 0.0], 0.1),  # max loss unseen
        ([0.0, 0.5, 1.0], [0.5, 0.5, 0.0], 3.0),  # ... and a huge ball
        ([0.0, 1.0], [1.0, 0.0], 0.1),  # left-edge minimum, closed form
        ([0.3, 0.3, 0.3], [0.2, 0.5, 0.3], 0.4),  # constant row
        ([0.0, 1.0, 2.0], [0.2, 0.5, 0.3], 0.0),  # r = 0
        ([0.0, 1.0, 2.0], [0.2, 0.5, 0.3], 50.0),  # r = 50
        ([2.0, 0.0, 1.0], [1.0, 0.0, 0.0], 0.2),  # vertex on the max loss
        ([2.0, 0.0, 1.0], [0.0, 0.0, 1.0], 0.2),  # vertex below it
        ([2.0, 0.0, 1.0, 1.5], [0.0, 0.6, 0.4, 0.0], 0.5),  # boundary
        ([1e3, 1e3 + 0.5, 1e3 + 1.0], [0.3, 0.3, 0.4], 0.05),  # shifted
        ([1e3 - 2.0, 1e3, 1e3 + 1.0], [0.5, 0.5, 0.0], 0.3),  # shifted, unseen
    ]


class TestKlKernel:
    def test_random_rows_agree_with_reference(self):
        rng = np.random.default_rng(11)
        for d in range(2, 9):
            L, W = _random_rows(rng, 30, d)
            r = float(rng.uniform(1e-3, 3.0))
            vals, _ = predictors._kl_dual_solve(L, W, r)
            for i in range(L.shape[0]):
                assert abs(vals[i] - _kl_reference(L[i], W[i], r)) <= KL_TOL

    def test_edge_cases_agree_with_reference(self):
        for row, w, r in _edge_cases():
            prob = make_problem([row])
            want = _kl_reference(row, w, r)
            spec = PredictorSpec("kl", r)
            got = predictor_value_rows(prob, 0, spec, np.array([w]))
            assert abs(got[0] - want) <= KL_TOL, (row, w, r)
            scalar = predict_kl_dual(prob, 0, Distribution(w), r)
            assert scalar.value == got[0]

    def test_a_constant_row_of_minus_zero_costs_plus_zero_everywhere(self):
        # predict_kl_dual gave 0.0 while the batch rows and prescribe gave -0.0
        prob = Problem(LossMatrix([[-0.0, -0.0], [0.0, 1.0]]))
        emp, spec = EmpiricalDistribution((3, 7)), PredictorSpec("kl", 0.1)
        W = emp.distribution.weights[None, :]
        got = [
            predict_kl_dual(prob, 0, emp.distribution, 0.1).value,
            predictor_value_rows(prob, 0, spec, W)[0],
            predictor_value_matrix(prob, spec, W)[0, 0],
            prescribe(prob, spec, emp).value,
            cost(prob, 0, emp.distribution),
        ]
        assert [math.copysign(1.0, v) for v in got] == [1.0] * 5

    def test_left_edge_minimum_stays_at_the_edge(self):
        row, w = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
        vals, alphas = predictors._kl_dual_solve(row, w, 0.1)
        assert alphas[0] == 1.0 + 1e-12
        assert vals[0] == pytest.approx(1.0 - math.exp(-0.1), abs=KL_TOL)

    def test_row_result_does_not_depend_on_its_batch(self, monkeypatch):
        rng = np.random.default_rng(12)
        # the 3-scenario edge cases, without the constant row the kernel never gets
        edges = [(r, w) for r, w, _ in _edge_cases() if len(r) == 3 and max(r) > min(r)]
        L3, W3 = (np.array(col) for col in zip(*edges))
        batches = [_random_rows(rng, 40, 5), _random_rows(rng, 40, 9), (L3, W3)]
        # a one-row batch whose d scenarios NumPy would sum pairwise
        batches += [_random_rows(rng, 40, 8), _random_rows(rng, 40, 11)]
        for L, W in batches:
            vals, alphas = predictors._kl_dual_solve(L, W, 0.07)
            for i in range(L.shape[0]):
                v, a = predictors._kl_dual_solve(L[i:i + 1], W[i:i + 1], 0.07)
                assert v[0] == vals[i] and a[0] == alphas[i]
            with monkeypatch.context() as m:
                m.setattr(predictors, "_KL_BLOCK", 3)
                v, a = predictors._kl_dual_solve(L, W, 0.07)
            assert np.array_equal(v, vals) and np.array_equal(a, alphas)

    def test_matrix_columns_equal_rows(self):
        rng = np.random.default_rng(13)
        losses = rng.uniform(0.0, 1.0, (4, 5))
        losses[2] = 0.25  # a constant decision
        prob = make_problem(losses)
        _, W = _random_rows(rng, 60, 5)
        for r in (0.0, 0.08, 2.0):
            spec = PredictorSpec("kl", r)
            M = predictor_value_matrix(prob, spec, W)
            assert M.shape == (60, 4)
            for x in range(4):
                assert np.array_equal(M[:, x], predictor_value_rows(prob, x, spec, W))

    def test_bisection_cap_reports_the_failing_rows_bracket(self, monkeypatch):
        # row 0 sits at the left edge and never bisects; row 1 fails
        L = np.array([[0.0, 1.0], [100.0, 101.0]])
        W = np.array([[1.0, 0.0], [0.4, 0.6]])
        _, alphas = predictors._kl_dual_solve(L, W, 0.1)
        alpha = L[1, 0] + alphas[1]  # alphas are measured from a row's first loss
        monkeypatch.setattr(predictors, "_KL_MAX_BISECTIONS", 3)
        with pytest.raises(ConvergenceError) as info:
            predictors._kl_dual_solve(L, W, 0.1)
        lo, hi = info.value.bracket
        assert 101.0 < lo <= alpha <= hi <= 102.0
        # the cap allows 3 halvings of the width-1 bracket; the 4th raises
        assert hi - lo == pytest.approx(1.0 / 16.0, rel=1e-6)

    def test_bisection_cap_reports_the_lowest_failing_row(self, monkeypatch):
        # at this cap rows 0 and 2 both fail and row 1 converges; the error
        # carries row 0's bracket, which lies 100 below row 2's
        L = np.array([[0.0, 1.0], [10.0, 11.0], [100.0, 101.0]])
        W = np.array([[0.5, 0.5], [0.99, 0.01], [0.5, 0.5]])
        _, alphas = predictors._kl_dual_solve(L, W, 0.001)
        monkeypatch.setattr(predictors, "_KL_MAX_BISECTIONS", 36)
        for i in range(3):
            if i == 1:
                predictors._kl_dual_solve(L[i:i + 1], W[i:i + 1], 0.001)
                continue
            with pytest.raises(ConvergenceError):
                predictors._kl_dual_solve(L[i:i + 1], W[i:i + 1], 0.001)
        with pytest.raises(ConvergenceError) as info:
            predictors._kl_dual_solve(L, W, 0.001)
        lo, hi = info.value.bracket
        assert 1.0 < lo <= alphas[0] <= hi < 100.0

    def test_bisection_cap_reports_the_bracket_in_loss_units_at_1e6(self, monkeypatch):
        # the rows above shifted by 1e6: the kernel solves them centered, and
        # the failing row's bracket still comes back in loss units
        L = np.array([[0.0, 1.0], [100.0, 101.0]]) + 1e6
        W = np.array([[1.0, 0.0], [0.4, 0.6]])
        _, alphas = predictors._kl_dual_solve(L, W, 0.1)
        alpha = L[1, 0] + alphas[1]
        monkeypatch.setattr(predictors, "_KL_MAX_BISECTIONS", 3)
        with pytest.raises(ConvergenceError) as info:
            predictors._kl_dual_solve(L, W, 0.1)
        lo, hi = info.value.bracket
        assert 1e6 + 101.0 < lo <= alpha <= hi <= 1e6 + 102.0
        assert hi - lo == pytest.approx(1.0 / 16.0, rel=1e-6)
        # the scalar is a one-row call: same units there
        with pytest.raises(ConvergenceError) as info:
            predict_kl_dual(make_problem(L[1:]), 0, Distribution(W[1]), 0.1)
        lo, hi = info.value.bracket
        assert 1e6 + 101.0 < lo <= alpha <= hi <= 1e6 + 102.0

    def test_values_near_1e6_match_a_centered_reference(self):
        # `alpha - l_i` cancelled near 1e6 before the kernel centered its
        # rows: errors up to about 240 ulps of 1e6; now within 2
        rng = np.random.default_rng(0)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            row = rng.uniform(1e6 - 1.0, 1e6 + 1.0, d)
            p = Distribution(rng.dirichlet(np.ones(d)))
            r = float(rng.uniform(1e-3, 3.0))
            with np.errstate(over="ignore"):  # the reference's edge at 0
                want = _kl_reference(row - row[0], p.weights, r) + row[0]
            got = predict_kl_dual(make_problem([row]), 0, p, r).value
            assert abs(got - want) <= 2 * np.spacing(1e6), (row, p.weights, r)

    def test_doubling_cap_reports_the_failing_rows_bracket(self, monkeypatch):
        # a tiny radius puts row 1's minimum far right of max(l) + span
        L = np.array([[0.0, 1.0], [0.0, 2.0]])
        W = np.array([[1.0, 0.0], [0.5, 0.5]])
        monkeypatch.setattr(predictors, "_KL_MAX_DOUBLINGS", 0)
        with pytest.raises(ConvergenceError) as info:
            predictors._kl_dual_solve(L, W, 1e-6)
        assert info.value.bracket == (2.0 + 2e-12, 6.0)


def _kl_term(pi, qi):
    if pi == 0.0:
        return 0.0
    if qi <= 0.0:
        return math.inf
    return pi * (math.log(pi) - math.log(qi))


def _brute_grid_max_d3(row, w, r, s):
    K = int(math.floor(1.0 / s + 1e-9))
    best = float(row @ w)
    for k1 in range(K + 1):
        q1 = s * k1
        rem = max(1.0 - q1, 0.0)
        K2 = int(math.floor(rem / s + 1e-9))
        for k2 in range(K2 + 1):
            q2 = s * k2
            q3 = max(rem - q2, 0.0)
            div = _kl_term(w[0], q1) + _kl_term(w[1], q2) + _kl_term(w[2], q3)
            if div <= r:
                best = max(best, row[0] * q1 + row[1] * q2 + row[2] * q3)
    return best


class TestKlGridOracle:
    def test_zero_radius_returns_center_cost(self):
        p = Distribution((0.3, 0.7))
        assert predict_kl_primal_grid(COIN, 1, p, 0.0, 0.01) == cost(COIN, 1, p)

    def test_lower_bound_on_dual(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            prob = make_problem([rng.uniform(-2.0, 3.0, d)])
            p = Distribution(rng.dirichlet(rng.uniform(0.3, 3.0, d)))
            r = float(rng.uniform(0.0, 2.0))
            dual = predict_kl_dual(prob, 0, p, r).value
            grid = predict_kl_primal_grid(prob, 0, p, r, 0.01)
            assert grid <= dual + 1e-9

    def test_grid_gap_bounded_by_step(self):
        # nonnegative rows: the cost Lipschitz constant is then at most
        # the row maximum, and the gap to the best grid point below it
        rng = np.random.default_rng(12)
        for _ in range(15):
            d = int(rng.integers(2, 4))
            row = rng.uniform(0.0, 3.0, d)
            prob = make_problem([row])
            p = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, d)))
            r = float(rng.uniform(0.05, 1.0))
            step = 0.005
            dual = predict_kl_dual(prob, 0, p, r).value
            grid = predict_kl_primal_grid(prob, 0, p, r, step)
            assert dual - grid <= step * float(np.abs(row).max()) + 1e-8

    def test_halving_the_step_never_loses_points(self):
        # the 0.02 grid is a subset of the 0.01 grid, exactly, in floats
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            prob = make_problem([rng.uniform(-1.0, 2.0, d)])
            p = Distribution(rng.dirichlet(np.full(d, 2.0)))
            r = float(rng.uniform(0.01, 0.8))
            coarse = predict_kl_primal_grid(prob, 0, p, r, 0.02)
            fine = predict_kl_primal_grid(prob, 0, p, r, 0.01)
            assert fine >= coarse

    def test_d3_interval_scan_matches_brute_force(self):
        rng = np.random.default_rng(14)
        s = 0.05
        for _ in range(30):
            row = rng.uniform(-1.0, 2.0, 3)
            prob = make_problem([row])
            w = rng.dirichlet(np.full(3, 1.5))
            p = Distribution(w)
            r = float(rng.uniform(0.005, 0.8))
            got = predict_kl_primal_grid(prob, 0, p, r, s)
            want = _brute_grid_max_d3(row, p.weights, r, s)
            assert got == pytest.approx(want, abs=1e-12)

    def test_d2_matches_brute_force(self):
        rng = np.random.default_rng(15)
        s = 0.02
        K = int(math.floor(1.0 / s + 1e-9))
        for _ in range(10):
            row = rng.uniform(-1.0, 2.0, 2)
            prob = make_problem([row])
            w = rng.dirichlet(np.ones(2))
            p = Distribution(w)
            r = float(rng.uniform(0.01, 0.5))
            best = float(row @ w)
            for k in range(K + 1):
                q1 = s * k
                q2 = max(1.0 - q1, 0.0)
                if _kl_term(w[0], q1) + _kl_term(w[1], q2) <= r:
                    best = max(best, row[0] * q1 + row[1] * q2)
            assert predict_kl_primal_grid(prob, 0, p, r, s) == pytest.approx(
                best, abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            predict_kl_primal_grid(COIN, 1, HALF, 0.1, 0.0)
        with pytest.raises(ValidationError):
            predict_kl_primal_grid(COIN, 1, HALF, -0.1, 0.01)
        prob4 = make_problem([[0.0, 1.0, 2.0, 3.0]])
        p4 = Distribution(np.full(4, 0.25))
        with pytest.raises(ValidationError):
            predict_kl_primal_grid(prob4, 0, p4, 0.1, 0.01)


# ---------------------------------------------------------------------------
# variance-penalized predictor


class TestSvp:
    def test_hand_value(self):
        # cost 0.5, variance 0.25, ratio 0.02: 0.5 + sqrt(2*0.02*0.25) = 0.6
        emp = EmpiricalDistribution((50, 50))
        res = predict_svp(COIN, 1, emp, ExponentialRate(0.02))
        assert res.value == pytest.approx(0.6, abs=1e-12)
        assert res.condition_ok is True
        assert res.worst_case == Distribution((0.4, 0.6))

    def test_zero_variance_row(self):
        emp = EmpiricalDistribution((50, 50))
        res = predict_svp(COIN, 0, emp, ExponentialRate(0.02))
        assert res.value == 0.5
        assert res.worst_case is None

    def test_monotone_in_ratio(self):
        emp = EmpiricalDistribution((50, 50))
        vals = [
            predict_svp(COIN, 1, emp, CustomTable(((100, a),))).value
            for a in (0.5, 1.0, 2.0, 4.0)
        ]
        assert vals == sorted(vals)

    def test_dominates_plug_in_strictly_iff_variance_positive(self):
        emp = EmpiricalDistribution((30, 70))
        sched = ExponentialRate(0.02)
        saa0 = predict_saa(COIN, 0, emp).value
        saa1 = predict_saa(COIN, 1, emp).value
        assert predict_svp(COIN, 0, emp, sched).value == saa0
        assert predict_svp(COIN, 1, emp, sched).value > saa1

    def test_worst_case_attains_value(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            prob = make_problem([rng.uniform(0.0, 1.0, d)])
            counts = rng.integers(5, 40, d)
            emp = EmpiricalDistribution(counts)
            res = predict_svp(prob, 0, emp, ExponentialRate(0.001))
            if res.worst_case is None:
                continue
            assert cost(prob, 0, res.worst_case) == pytest.approx(
                res.value, abs=1e-9
            )

    def test_big_ratio_drops_worst_case_but_not_value(self):
        emp = EmpiricalDistribution((5, 5))
        res = predict_svp(COIN, 1, emp, CustomTable(((10, 20.0),)))
        assert res.value == pytest.approx(1.5, abs=1e-12)
        assert res.worst_case is None
        assert res.condition_ok is False

    def test_boundary_empirical_no_worst_case(self):
        emp = EmpiricalDistribution((10, 0))
        res = predict_svp(COIN, 1, emp, ExponentialRate(0.02))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.worst_case is None

    def test_one_moments_pass_per_call(self, monkeypatch):
        calls = []
        original = predictors._moments

        def counting(L, W, work=None, var=True):
            calls.append(L.shape[0])
            return original(L, W, work, var)

        monkeypatch.setattr(predictors, "_moments", counting)
        emp = EmpiricalDistribution((30, 70))
        res = predict_svp(COIN, 1, emp, ExponentialRate(0.02))
        assert calls == [1]  # the value and the worst case
        p = emp.distribution
        step = math.sqrt(2.0 * 0.02) * svp_direction(COIN, 1, p)
        assert res.worst_case == Distribution(p.weights + step)
        assert res.value == predictor_value_rows(
            COIN, 1, PredictorSpec("svp"), emp.distribution.weights[None, :], 0.02)[0]


class TestSvpGeometry:
    def test_direction_hand_value(self):
        phi = svp_direction(COIN, 1, HALF)
        assert np.allclose(phi, [-0.5, 0.5], atol=1e-12)

    def test_direction_identities(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            row = rng.uniform(-1.0, 2.0, d)
            prob = make_problem([row])
            p = Distribution(rng.dirichlet(np.full(d, 2.0)))
            if variance(prob, 0, p) <= 1e-12:
                continue
            phi = svp_direction(prob, 0, p)
            # 2 * ||phi||_p^2 = 1 and l' phi = sqrt(Var)
            nrm = ellipsoid_norm_sq(SimplexDelta(phi), p)
            assert 2.0 * nrm == pytest.approx(1.0, abs=1e-10)
            assert float(row @ phi) == pytest.approx(
                math.sqrt(variance(prob, 0, p)), abs=1e-10
            )

    def test_direction_requires_positive_variance(self):
        with pytest.raises(ValidationError):
            svp_direction(COIN, 0, HALF)

    def test_worst_case_hand_value(self):
        q = predict_svp(COIN, 1, EmpiricalDistribution((50, 50)), ExponentialRate(0.02)).worst_case
        assert np.allclose(q.weights, [0.4, 0.6], atol=1e-12)

    def test_worst_case_sits_on_the_ellipsoid_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            prob = make_problem([rng.uniform(0.0, 1.0, d)])
            emp = EmpiricalDistribution(rng.integers(1, 40, d))
            p = emp.distribution
            ratio = 1e-4
            q = predict_svp(prob, 0, emp, ExponentialRate(ratio)).worst_case
            delta = SimplexDelta(q.weights - p.weights)
            assert ellipsoid_norm_sq(delta, p) == pytest.approx(ratio, abs=1e-12)

    def test_constant_row_has_no_worst_case(self):
        # the variance is 0, so no direction is steepest and no point is named
        res = predict_svp(COIN, 0, EmpiricalDistribution((50, 50)), ExponentialRate(0.02))
        assert res.worst_case is None
        assert res.value == 0.5

    def test_a_sum_the_mean_rounds_off_1_has_no_worst_case(self):
        # the mean of [1000, 1000 + ulp] rounds to 1000, so the direction is
        # [0, 1] and q = [0.5, 0.7]; the value is still returned
        row = [1000.0, float(np.nextafter(1000.0, 2000.0))]
        res = predict_svp(make_problem([row]), 0, EmpiricalDistribution((1, 1)),
                          ExponentialRate(0.02))
        assert res.worst_case is None
        assert res.value == pytest.approx(1000.0)

    def test_worst_case_needs_interior_center(self):
        res = predict_svp(COIN, 1, EmpiricalDistribution((10, 0)), ExponentialRate(0.01))
        assert res.worst_case is None

    def test_worst_case_rejects_escaping_radius(self):
        res = predict_svp(COIN, 1, EmpiricalDistribution((50, 50)), ExponentialRate(2.0))
        assert res.worst_case is None

    def test_condition_flag(self):
        # rhs at (1/2, 1/2) is 0.25, so the cutoff ratio is exactly 0.03125
        assert dro_condition_holds(HALF, 0.02)
        assert dro_condition_holds(HALF, 0.03125)
        assert not dro_condition_holds(HALF, 0.0313)
        assert not dro_condition_holds(Distribution((1.0, 0.0)), 0.01)
        with pytest.raises(ValidationError):
            dro_condition_holds(HALF, -0.5)
        with pytest.raises(ValidationError):
            dro_condition_holds(HALF, math.nan)


# ---------------------------------------------------------------------------
# exact linear maximization over ellipsoid-intersect-simplex


def _numeric_ellipsoid_max(row, p, A, radius):
    # independent check: constrained numeric maximization from several starts
    from scipy.optimize import minimize

    d = p.dim
    w = p.weights

    def neg_obj(q):
        return -float(row @ q)

    cons = (
        {"type": "eq", "fun": lambda q: float(q.sum()) - 1.0},
        {"type": "ineq", "fun": lambda q: radius - float((q - w) @ A @ (q - w))},
    )
    rng = np.random.default_rng(99)
    starts = [w] + [
        w + 0.5 * math.sqrt(radius) * rng.standard_normal(d) / math.sqrt(d)
        for _ in range(4)
    ]
    best = -math.inf
    for q0 in starts:
        res = minimize(
            neg_obj,
            np.clip(q0, 1e-9, 1.0),
            method="SLSQP",
            bounds=[(0.0, 1.0)] * d,
            constraints=cons,
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if res.success:
            best = max(best, -float(res.fun))
    return best


class TestEllipsoidLinearMax:
    def test_constant_row_stays_at_center(self):
        value, q = ellipsoid_linear_max((2.0, 2.0), HALF, np.eye(2), 0.01)
        assert value == 2.0
        assert q == HALF

    def test_zero_radius_stays_at_center(self):
        value, q = ellipsoid_linear_max((0.0, 1.0), HALF, np.eye(2), 0.0)
        assert value == 0.5
        assert q == HALF

    def test_matches_svp_with_local_metric(self):
        # A = diag(1/(2 p_i)) turns the ellipsoid into the SVP ball and the
        # closed form into cost + sqrt(2 * radius * Var)
        rng = np.random.default_rng(31)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            row = rng.uniform(-1.0, 2.0, d)
            prob = make_problem([row])
            w = rng.uniform(0.2, 0.8, d)
            w = w / w.sum()
            p = Distribution(w)
            A = np.diag(1.0 / (2.0 * w))
            sigma_min = float(np.linalg.eigvalsh(A).min())
            rhs = sigma_min * float(np.minimum(w, 1.0 - w).min())
            radius = (0.5 * rhs) ** 2
            value, q = ellipsoid_linear_max(row, p, A, radius)
            var = variance(prob, 0, p)
            want = float(row @ w) + math.sqrt(2.0 * radius * var)
            assert value == pytest.approx(want, rel=1e-9)
            assert cost(prob, 0, q) == pytest.approx(value, abs=1e-10)

    def test_boundary_norm_equals_radius(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            row = rng.uniform(0.0, 1.0, d)
            if row.max() == row.min():
                continue
            w = rng.uniform(0.25, 0.75, d)
            w = w / w.sum()
            p = Distribution(w)
            M = rng.uniform(-0.5, 0.5, (d, d))
            A = M @ M.T + 2.0 * np.eye(d)
            sigma_min = float(np.linalg.eigvalsh(A).min())
            radius = (0.4 * sigma_min * float(np.minimum(w, 1.0 - w).min())) ** 2
            value, q = ellipsoid_linear_max(row, p, A, radius)
            delta = q.weights - w
            assert float(delta @ A @ delta) == pytest.approx(radius, rel=1e-10)
            assert value >= float(row @ w)

    def test_against_numeric_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(12):
            d = int(rng.integers(2, 7))
            row = rng.uniform(-1.0, 2.0, d)
            if row.max() - row.min() < 1e-6:
                continue
            w = rng.uniform(0.2, 0.8, d)
            w = w / w.sum()
            p = Distribution(w)
            M = rng.uniform(-0.5, 0.5, (d, d))
            A = M @ M.T + np.eye(d)
            sigma_min = float(np.linalg.eigvalsh(A).min())
            radius = (0.5 * sigma_min * float(np.minimum(w, 1.0 - w).min())) ** 2
            value, _ = ellipsoid_linear_max(row, p, A, radius)
            numeric = _numeric_ellipsoid_max(row, p, A, radius)
            assert numeric <= value + 1e-9
            assert value - numeric <= 1e-7 * (1.0 + abs(value))

    def test_condition_violation_carries_sides(self):
        with pytest.raises(EllipsoidConditionError) as exc:
            ellipsoid_linear_max((0.0, 1.0), HALF, np.eye(2), 1.0)
        assert exc.value.lhs == pytest.approx(1.0)
        assert exc.value.rhs == pytest.approx(0.5)

    def test_matrix_validation(self):
        bad_sym = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            ellipsoid_linear_max((0.0, 1.0), HALF, bad_sym, 0.01)
        not_pd = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValidationError):
            ellipsoid_linear_max((0.0, 1.0), HALF, not_pd, 0.01)
        with pytest.raises(ValidationError):
            ellipsoid_linear_max((0.0, 1.0, 2.0), HALF, np.eye(2), 0.01)
        with pytest.raises(ValidationError):
            ellipsoid_linear_max((0.0, 1.0), HALF, np.eye(2), -0.01)

    def test_takes_only_real_numbers(self):
        # np.asarray(..., dtype=float) read "0.0" and True as numbers
        for row, A, what in ((["0.0", True], np.eye(2), "loss row"),
                             ([0.0, 1.0], [["1", 0.0], [0.0, 1.0]], "a_matrix"),
                             ([0.0, 1.0], np.eye(2) > 0, "a_matrix")):
            with pytest.raises(ValidationError, match=what):
                ellipsoid_linear_max(row, HALF, A, 0.01)


# ---------------------------------------------------------------------------
# batch engine


class TestBatchEngine:
    @pytest.mark.parametrize("call", [
        lambda prob, W: predictor_value_rows(prob, 0, PredictorSpec("saa"), W),
        lambda prob, W: predictor_value_matrix(prob, PredictorSpec("saa"), W),
        lambda prob, W: variance_matrix(prob, W),
    ], ids=["rows", "matrix", "variances"])
    def test_weight_rows_take_only_real_numbers(self, call):
        # np.asarray(W, dtype=float) read strings and booleans as weights
        prob = make_problem([[0.0, 1.0], [1.0, 0.0]])
        for W in ([["0.5", "0.5"]], [[True, False]], np.array([[True, False]]),
                  [np.array([True, False])]):
            with pytest.raises(ValidationError, match="weights"):
                call(prob, W)
        assert np.isfinite(call(prob, [[0.5, np.float32(0.5)]])).all()

    def setup_method(self):
        rng = np.random.default_rng(41)
        self.prob = make_problem(rng.uniform(0.0, 1.0, (3, 4)))
        counts = rng.integers(1, 25, (20, 4))
        self.counts = counts
        self.W = counts / counts.sum(axis=1, keepdims=True)
        # the scalars' own weight rows: a scalar is a one-row view of the
        # batch, so on these it must agree bit for bit
        self.emps = [EmpiricalDistribution(c) for c in counts]
        self.W_emp = np.array([e.distribution.weights for e in self.emps])

    def test_saa_rows_match_scalar(self):
        vals = predictor_value_rows(self.prob, 1, PredictorSpec("saa"), self.W_emp)
        for i, emp in enumerate(self.emps):
            assert vals[i] == predict_saa(self.prob, 1, emp).value

    def test_robust_rows_match_scalar(self):
        vals = predictor_value_rows(self.prob, 2, PredictorSpec("robust"), self.W)
        want = predict_robust(self.prob, 2).value
        assert np.all(vals == want)

    def test_svp_rows_match_scalar(self):
        for i, emp in enumerate(self.emps):
            T = emp.sample_size
            sched = CustomTable(((T, 0.015 * T),))
            ratio = speed_ratio(sched, T)
            vals = predictor_value_rows(
                self.prob, 0, PredictorSpec("svp"), self.W_emp, ratio=ratio
            )
            assert vals[i] == predict_svp(self.prob, 0, emp, sched).value

    def test_kl_rows_match_scalar(self):
        spec = PredictorSpec("kl", radius=0.08)
        vals = predictor_value_rows(self.prob, 1, spec, self.W_emp)
        for i, emp in enumerate(self.emps):
            want = predict_kl_dual(self.prob, 1, emp.distribution, 0.08).value
            assert vals[i] == want

    def test_kl_zero_radius_rows(self):
        spec = PredictorSpec("kl", radius=0.0)
        vals = predictor_value_rows(self.prob, 1, spec, self.W)
        assert np.allclose(vals, self.W @ self.prob.loss.values[1], atol=0)

    def test_matrix_stacks_decisions(self):
        M = predictor_value_matrix(self.prob, PredictorSpec("saa"), self.W)
        assert M.shape == (20, 3)
        for x in range(3):
            col = predictor_value_rows(self.prob, x, PredictorSpec("saa"), self.W)
            assert np.array_equal(M[:, x], col)

    def test_variance_matrix_matches_scalar(self):
        V = variance_matrix(self.prob, self.W_emp)
        assert V.shape == (20, 3)
        for i, emp in enumerate(self.emps):
            for x in range(3):
                assert V[i, x] == variance(self.prob, x, emp.distribution)
        assert np.all(V >= 0.0)

    def test_error_paths(self):
        with pytest.raises(ValidationError):
            predictor_value_rows(self.prob, 0, PredictorSpec("svp"), self.W)
        with pytest.raises(ValidationError):
            predictor_value_rows(self.prob, 0, PredictorSpec("kl"), self.W)
        with pytest.raises(ValidationError):
            predictor_value_rows(
                self.prob, 0, PredictorSpec("saa"), self.W[:, :3]
            )

    @pytest.mark.parametrize("ratio", [-0.5, -1e-300, math.nan, math.inf])
    def test_svp_rejects_a_ratio_that_is_negative_nan_or_infinite(self, ratio):
        # each gave NaN (or inf) values instead of an error
        prob = make_problem([[1.0, 1.0], [0.0, 2.0]])
        for x in range(2):
            with pytest.raises(ValidationError, match="ratio"):
                predictor_value_rows(prob, x, PredictorSpec("svp"), [[0.5, 0.5]], ratio=ratio)

    @pytest.mark.parametrize("x", [0, 1], ids=["constant", "nonconstant"])
    def test_svp_rejects_a_ratio_whose_double_overflows(self, x):
        # 2 * 1e308 is inf: the constant row read NaN, the other inf
        prob = make_problem([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValidationError, match="ratio"):
            predictor_value_rows(prob, x, PredictorSpec("svp"), [[0.5, 0.5]], ratio=1e308)
        for rate in (1e308, math.inf):  # the worst case left the simplex at -inf
            with pytest.raises(ValidationError, match="ratio"):
                predict_svp(prob, x, EmpiricalDistribution((1, 1)), ExponentialRate(rate))
        got = predictor_value_rows(prob, x, PredictorSpec("svp"), [[0.5, 0.5]], ratio=1e300)
        assert got[0] == 1.0 + x * math.sqrt(2e300)


# each of these NaN arguments slipped through: a NaN rate, a later error
# that blamed the weights, an EllipsoidConditionError, the centre cost of
# the grid oracle, or a bare ValueError
NAN_ARGUMENTS = {
    "theoretical_rate_saa-m": (
        lambda: theoretical_rate_saa(COIN, 1, HALF, m=math.nan), "level m"),
    "predict_kl_dual-r": (lambda: predict_kl_dual(COIN, 1, HALF, math.nan), "radius"),
    "ellipsoid_linear_max-radius": (
        lambda: ellipsoid_linear_max([0.0, 1.0], HALF, np.eye(2), math.nan), "radius"),
    "grid_oracle-r": (lambda: predict_kl_primal_grid(COIN, 1, HALF, math.nan, 0.01), "r must"),
    "grid_oracle-grid_step": (
        lambda: predict_kl_primal_grid(COIN, 1, HALF, 0.1, math.nan), "grid_step"),
}


@pytest.mark.parametrize("call, match", NAN_ARGUMENTS.values(), ids=list(NAN_ARGUMENTS))
def test_a_nan_argument_is_rejected_up_front(call, match):
    with pytest.raises(ValidationError, match=match) as info:
        call()
    assert type(info.value) is ValidationError


# every real-number argument the library takes, as a call with the value
# and the name its ValidationError gives
REAL_ARGUMENTS = {
    "ExponentialRate-rate": (lambda v: ExponentialRate(v), "rate"),
    "PowerLaw-coeff": (lambda v: PowerLaw(v, 0.5), "coeff"),
    "PowerLaw-exponent": (lambda v: PowerLaw(1.0, v), "exponent"),
    "Logarithmic-coeff": (lambda v: Logarithmic(v), "coeff"),
    "CustomTable-a_T": (lambda v: CustomTable(((10, v),)), "a_T"),
    "PredictorSpec-radius": (lambda v: PredictorSpec("kl", v), "radius"),
    "theoretical_rate_saa-m": (lambda v: theoretical_rate_saa(COIN, 1, HALF, m=v), "level m"),
    "predict_kl_dual-r": (lambda v: predict_kl_dual(COIN, 1, HALF, v), "radius"),
    "predictor_value_rows-ratio": (
        lambda v: predictor_value_rows(COIN, 1, PredictorSpec("svp"), [[0.5, 0.5]], v), "ratio"),
    "dro_condition_holds-ratio": (lambda v: dro_condition_holds(HALF, v), "ratio"),
    "ellipsoid_linear_max-radius": (
        lambda v: ellipsoid_linear_max([0.0, 1.0], HALF, np.eye(2), v), "radius"),
}
# arguments where None means the default: a radius resolved from the
# schedule, the level at the true cost
NONE_IS_THE_DEFAULT = ("PredictorSpec-radius", "theoretical_rate_saa-m")


@pytest.mark.parametrize("name", list(REAL_ARGUMENTS))
def test_a_real_argument_must_be_a_real_number(name):
    # True ran as 1.0 everywhere; "0.1" and None raised a bare TypeError, or
    # ran as 0.1 where a float() read them; 10**400 raised an OverflowError
    call, match = REAL_ARGUMENTS[name]
    bad = (True, "0.1", math.nan, 10**400) + (() if name in NONE_IS_THE_DEFAULT else (None,))
    for value in bad:
        with pytest.raises(ValidationError, match=match) as info:
            call(value)
        assert type(info.value) is ValidationError, value


def test_reals_are_stored_as_floats():
    # an int rate gave the int a_T 10, and each stored the number it was given
    assert type(ExponentialRate(1).a(10)) is float and ExponentialRate(1).a(10) == 10.0
    law, log = PowerLaw(np.int64(2), np.float64(0.5)), Logarithmic(np.float32(0.25))
    stored = (ExponentialRate(np.int32(3)).rate, law.coeff, law.exponent, log.coeff,
              PredictorSpec("kl", 0).radius, CustomTable(((10, 1),)).points[0][1])
    assert stored == (3.0, 2.0, 0.5, 0.25, 0.0, 1.0)
    assert all(type(v) is float for v in stored)
    assert PredictorSpec("kl", np.float64(0.1)) == PredictorSpec("kl", 0.1)
    assert PredictorSpec("kl", np.float64(0.1)).label == "kl(r=0.1)"
    assert predict_kl_dual(COIN, 1, HALF, np.float64(0.1)) == predict_kl_dual(COIN, 1, HALF, 0.1)
    assert theoretical_rate_saa(COIN, 1, HALF, m=1) == theoretical_rate_saa(COIN, 1, HALF, m=1.0)


# ---------------------------------------------------------------------------
# cross-predictor properties


@st.composite
def weights_and_radius(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=d,
            max_size=d,
        )
    )
    r = draw(st.floats(min_value=0.0, max_value=1.5))
    return raw, r


@given(weights_and_radius())
@settings(max_examples=60, deadline=None)
def test_predictor_ordering_property(case):
    raw, r = case
    w = np.array(raw) / np.sum(raw)
    d = w.size
    row = np.linspace(0.0, 1.0, d)
    prob = make_problem([row])
    p = Distribution(w)
    saa = float(row @ w)
    kl = predict_kl_dual(prob, 0, p, r).value
    robust = predict_robust(prob, 0).value
    assert saa - 1e-9 <= kl <= robust + 1e-9


@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
    st.floats(min_value=1e-4, max_value=0.05),
)
@settings(max_examples=60, deadline=None)
def test_svp_never_below_plug_in_property(raw, ratio):
    w = np.array(raw) / np.sum(raw)
    row = np.array([0.0, 0.5, 1.0])
    prob = make_problem([row])
    counts = np.round(w * 1000).astype(int)
    counts[0] += 1000 - counts.sum()
    emp = EmpiricalDistribution(counts)
    T = emp.sample_size
    res = predict_svp(prob, 0, emp, CustomTable(((T, ratio * T),)))
    base = predict_saa(prob, 0, emp).value
    assert res.value >= base


# the affine maps L -> a L + b of the equivariance tests
SCALES = (1e-3, 1.0, 1e3)
SHIFTS = (0.0, 1e6, -1e6)
# kl at a moderate radius: at r <= 0.05 the documented `alpha - e`
# cancellation and at r >= 3 the left-edge pin max(l) + 1e-12*span move
# kl values by more than 4 ulps under a rescaling
EQUIVARIANT_SPECS = (
    (PredictorSpec("saa"), None),
    (PredictorSpec("robust"), None),
    (PredictorSpec("kl", 0.1), None),
    (PredictorSpec("kl", 1.0), None),
    (PredictorSpec("svp"), 0.05),
)


class TestAffineEquivariance:
    def test_values_move_with_the_losses(self):
        # a v + b within 4 ulps of a k_half + |b|; before the moments were
        # centered svp was off by up to 5e7 such ulps at b = 1e6
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            L = rng.uniform(-1.0, 2.0, (3, d))
            W = np.array([
                EmpiricalDistribution(rng.integers(1, 20, d)).distribution.weights
                for _ in range(4)
            ])
            k_half = make_problem(L).loss.k_half
            for spec, ratio in EQUIVARIANT_SPECS:
                v = predictor_value_matrix(make_problem(L), spec, W, ratio=ratio)
                for a in SCALES:
                    for b in SHIFTS:
                        prob = make_problem(a * L + b)
                        got = predictor_value_matrix(prob, spec, W, ratio=ratio)
                        err = np.abs(got - (a * v + b)).max()
                        assert err <= 4 * np.spacing(a * k_half + abs(b)), (spec, a, b)

    def test_shift_probe(self):
        # svp - b was 0.303363806446 at b = 0 and 0.303412591922 at b = 1e6
        emp = EmpiricalDistribution((19, 14, 13, 11, 11))
        sched = CustomTable(((68, 0.05 * 68),))
        row = [1.0, 0.0, -1.0, 0.0, 0.0]
        base = predict_svp(make_problem([row]), 0, emp, sched).value
        for b in SHIFTS:
            row = [b + 1.0, b, b - 1.0, b, b]
            got = predict_svp(make_problem([row]), 0, emp, sched).value
            assert abs(got - (base + b)) <= 4 * np.spacing(1.0 + abs(b))

    def test_constant_rows_carry_no_penalty(self):
        # before the moments were centered, 60 of these rows had a nonzero
        # variance and an svp penalty of up to 0.006
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = float(rng.uniform(1e5, 1e6))
            emp = EmpiricalDistribution(rng.integers(1, 15, 5))
            T = emp.sample_size
            prob = make_problem([[c] * 5])
            W = emp.distribution.weights[None, :]
            assert variance(prob, 0, emp.distribution) == 0.0
            assert variance_matrix(prob, W)[0, 0] == 0.0
            svp = predict_svp(prob, 0, emp, CustomTable(((T, 0.05 * T),))).value
            assert svp == predict_saa(prob, 0, emp).value == c
