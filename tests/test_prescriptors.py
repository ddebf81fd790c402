"""Tests for prescriptors: argmin with tie-breaks, gap sandwich, convexity."""
import itertools
import math

import numpy as np
import pytest

from ddlab import (
    CustomTable,
    Distribution,
    EmpiricalDistribution,
    ExponentialRate,
    LossMatrix,
    PowerLaw,
    PredictorSpec,
    Problem,
    ValidationError,
    convexity_certificate,
    cost,
    min_variance_minimizer,
    predictor_value_matrix,
    prescribe,
    prescription_gap_bound,
    speed_ratio,
    variance,
    variance_matrix,
)
from ddlab import decisions, predictors
from ddlab.prescriptors import select_decisions


def make_problem(loss, true_dist=None):
    td = None if true_dist is None else Distribution(true_dist)
    return Problem(LossMatrix(np.array(loss, dtype=float)), td)


COIN = make_problem([[0.5, 0.5], [0.0, 1.0]])
HALF_EMP = EmpiricalDistribution((50, 50))


def abs_grid_problem():
    # 1-D decision grid against the five integer scenarios -2..2
    xs = np.linspace(-3.0, 3.0, 101)
    xi = np.arange(-2.0, 3.0)
    return LossMatrix(np.abs(xs[:, None] - xi[None, :]))


def unit_problem(n):
    # n decisions whose largest |loss| is 1, so the tie window is 1e-12
    return make_problem([[0.0, 1.0]] * n)


class TestSelectDecisions:
    def test_plain_argmin(self):
        values = np.array([[3.0, 1.0, 2.0], [0.0, 5.0, -1.0]])
        variances = np.zeros_like(values)
        assert select_decisions(unit_problem(3), values, variances).tolist() == [1, 2]

    def test_value_tie_goes_to_smaller_variance(self):
        values = np.array([[1.0, 1.0 + 5e-13, 2.0]])
        variances = np.array([[3.0, 1.0, 0.0]])
        assert select_decisions(unit_problem(3), values, variances).tolist() == [1]

    def test_full_tie_goes_to_lowest_index(self):
        values = np.ones((2, 3))
        variances = np.full((2, 3), 2.0)
        assert select_decisions(unit_problem(3), values, variances).tolist() == [0, 0]

    def test_tie_window_is_tight(self):
        # a value 2e-12 above the minimum is no candidate at largest |loss|
        # 1, and ties it at largest |loss| 4 (window 4e-12)
        values = np.array([[1.0, 1.0 + 2e-12]])
        variances = np.array([[5.0, 0.0]])
        assert unit_problem(2).loss.tie_window == 1e-12
        assert select_decisions(unit_problem(2), values, variances).tolist() == [0]
        wide = make_problem([[0.0, 4.0], [1.0, 1.0]])
        assert select_decisions(wide, values, variances).tolist() == [1]

    def test_variance_tie_window_is_squared_loss_units(self):
        # candidates whose variances differ by less than var_window = 1e-12 *
        # span**2 tie and go to the lowest index; at span 2 that is 4e-12
        values = np.ones((1, 2))
        close, apart = [[0.25 + 5e-13, 0.25]], [[0.25 + 2e-12, 0.25]]
        assert select_decisions(unit_problem(2), values, close).tolist() == [0]
        assert select_decisions(unit_problem(2), values, apart).tolist() == [1]
        wide = make_problem([[0.0, 2.0], [1.0, 1.0]])
        assert select_decisions(wide, values, apart).tolist() == [0]
        shifted = make_problem([[1e6, 1e6 + 1.0], [1e6 + 0.5, 1e6 + 0.5]])
        assert select_decisions(shifted, values, apart).tolist() == [1]

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            select_decisions(unit_problem(3), np.ones(3), np.ones(3))
        with pytest.raises(ValidationError):
            select_decisions(unit_problem(3), np.ones((2, 3)), np.ones((2, 2)))


class TestPrescribe:
    def test_saa_tie_picks_low_variance_decision(self):
        res = prescribe(COIN, PredictorSpec("saa"), HALF_EMP)
        assert res.decision == 0
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.predictor_kind == "saa"

    def test_svp_separates_the_tie(self):
        res = prescribe(
            COIN, PredictorSpec("svp"), HALF_EMP, ExponentialRate(0.02)
        )
        assert res.decision == 0
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.gap_lower == pytest.approx(0.0, abs=1e-15)
        assert res.gap_upper == pytest.approx(0.0, abs=1e-15)

    def test_single_decision(self):
        prob = make_problem([[0.3, 0.9]])
        res = prescribe(prob, PredictorSpec("robust"), HALF_EMP)
        assert res.decision == 0
        assert res.value == 0.9

    def test_minimality(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            prob = make_problem(rng.uniform(0.0, 1.0, (n, d)))
            counts = rng.integers(1, 20, d)
            emp = EmpiricalDistribution(counts)
            sched = ExponentialRate(0.05)
            for kind in ("saa", "robust", "kl", "svp"):
                res = prescribe(prob, PredictorSpec(kind), emp, sched)
                W = emp.distribution.weights[None, :]
                spec = PredictorSpec(kind, 0.05 if kind == "kl" else None)
                vals = predictor_value_matrix(
                    prob, spec, W, ratio=0.05 if kind == "svp" else None
                )[0]
                assert res.value <= vals.min() + 1e-12
                assert res.value == pytest.approx(vals[res.decision], abs=1e-12)

    def test_robust_ignores_data(self):
        prob = make_problem([[0.2, 0.9, 0.1], [0.5, 0.4, 0.6]])
        a = prescribe(prob, PredictorSpec("robust"), EmpiricalDistribution((9, 1, 0)))
        b = prescribe(prob, PredictorSpec("robust"), EmpiricalDistribution((1, 5, 14)))
        assert a.decision == b.decision
        assert a.value == b.value

    def test_kl_ignores_sample_size_at_fixed_radius(self):
        prob = make_problem([[0.1, 0.8], [0.4, 0.5]])
        spec = PredictorSpec("kl", radius=0.2)
        a = prescribe(prob, spec, EmpiricalDistribution((3, 7)))
        b = prescribe(prob, spec, EmpiricalDistribution((30, 70)))
        assert a.decision == b.decision
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_kl_radius_resolution(self):
        spec = PredictorSpec("kl")
        res = prescribe(COIN, spec, HALF_EMP, ExponentialRate(0.1))
        assert res.predictor_kind == "kl(r=0.1)"
        with pytest.raises(ValidationError):
            prescribe(COIN, spec, HALF_EMP)
        with pytest.raises(ValidationError):
            prescribe(COIN, spec, HALF_EMP, PowerLaw(1.0, 0.5))

    def test_svp_needs_schedule(self):
        with pytest.raises(ValidationError):
            prescribe(COIN, PredictorSpec("svp"), HALF_EMP)

    def test_full_tie_lowest_index(self):
        prob = make_problem([[0.5, 0.5], [0.5, 0.5]])
        res = prescribe(prob, PredictorSpec("saa"), HALF_EMP)
        assert res.decision == 0

    def test_no_gap_fields_on_boundary_empirical(self):
        res = prescribe(
            COIN,
            PredictorSpec("svp"),
            EmpiricalDistribution((10, 0)),
            ExponentialRate(0.02),
        )
        assert res.gap_lower is None and res.gap_upper is None

    def test_tiny_penalty_recovers_cost_minimizer(self):
        rng = np.random.default_rng(52)
        tried = 0
        for _ in range(40):
            prob = make_problem(rng.uniform(0.0, 1.0, (4, 3)))
            counts = rng.integers(2, 15, 3)
            emp = EmpiricalDistribution(counts)
            p = emp.distribution
            costs = [cost(prob, x, p) for x in range(4)]
            order = np.sort(costs)
            if order[1] - order[0] < 1e-6:
                continue
            tried += 1
            T = emp.sample_size
            res = prescribe(
                prob,
                PredictorSpec("svp"),
                emp,
                CustomTable(((T, 1e-20 * T),)),
            )
            assert res.decision == int(np.argmin(costs))
        assert tried >= 20


class TestGapBound:
    def test_zero_variance_minimizer_collapses_the_sandwich(self):
        half = Distribution((0.5, 0.5))
        lo, hi = prescription_gap_bound(COIN, half, 100, ExponentialRate(0.02))
        assert lo == 0.0 and hi == 0.0

    def test_needs_interior(self):
        with pytest.raises(ValidationError):
            prescription_gap_bound(
                COIN, Distribution((1.0, 0.0)), 100, ExponentialRate(0.02)
            )

    def test_sandwich_holds_on_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            prob = make_problem(rng.uniform(0.0, 1.0, (n, d)))
            w = rng.uniform(0.1, 1.0, d)
            p = Distribution(w / w.sum())
            T = int(rng.integers(5, 200))
            ratio = float(rng.uniform(0.001, 0.2))
            sched = CustomTable(((T, ratio * T),))
            lo, hi = prescription_gap_bound(prob, p, T, sched)
            assert 0.0 <= lo <= hi + 1e-12

    def test_upper_bound_uses_cost_minimizer_variance(self):
        prob = make_problem([[0.2, 0.8], [0.6, 0.6]])
        p = Distribution((0.5, 0.5))
        ratio = 0.02
        lo, hi = prescription_gap_bound(prob, p, 100, ExponentialRate(ratio))
        # cost minimizer is decision 0 (0.5 vs 0.6) with variance 0.09
        assert hi == pytest.approx(math.sqrt(2 * ratio * 0.09), abs=1e-12)
        # svp values: 0.5 + sqrt(0.04*0.09) = 0.56 vs 0.6 -> picks decision 0
        assert lo == pytest.approx(hi, abs=1e-15)

    def test_upper_bound_takes_the_least_variance_cost_minimizer(self):
        # both decisions cost 0.5; the constant one makes the sandwich tight
        prob = make_problem([[0.0, 1.0], [0.5, 0.5]])
        p = Distribution((0.5, 0.5))
        assert prescription_gap_bound(prob, p, 100, ExponentialRate(0.02)) == (0.0, 0.0)


# L -> a L + b: unit, mega, micro, shifted, far shifted
TRANSFORMS = ((1.0, 0.0), (1e6, 0.0), (1e-6, 0.0), (1.0, 1e3), (1.0, 1e6))


def equal_cost_instances(n):
    """(losses, emp) with two decisions of equal cost under emp: a random
    row and the constant row at its cost, which the tie rule prefers."""
    rng = np.random.default_rng(0)
    for _ in range(n):
        d = int(rng.integers(2, 6))
        emp = EmpiricalDistribution(rng.integers(1, 20, d))
        row = rng.uniform(0.0, 1.0, d)
        yield np.array([np.full(d, float(row @ emp.distribution.weights)), row]), emp


def permuted(emp, perm):
    return EmpiricalDistribution(np.asarray(emp.counts)[perm])


class TestOneMomentsPass:
    """prescribe reads its values and its gap bound's costs and variances
    off one moments pass, with the bits of the separate public views."""

    def test_svp_prescription_takes_one_moments_pass(self, monkeypatch):
        calls = []
        original = predictors._moments

        def counting(L, W, var=True):
            calls.append(W.shape[0])
            return original(L, W, var)

        monkeypatch.setattr(predictors, "_moments", counting)
        prob = Problem(abs_grid_problem())
        emp = EmpiricalDistribution((3, 1, 2, 4, 5))
        res = prescribe(prob, PredictorSpec("svp"), emp, ExponentialRate(0.02))
        assert res.gap_lower is not None
        assert calls == [1]  # the prescription and its gap bound

    def test_svp_tie_break_reads_the_variances_of_the_values(self, monkeypatch):
        # decisions 0 and 1 tie, and their tie-break formed the variances again
        calls = []
        original = decisions._moments

        def counting(L, W, var=True):
            calls.append(L.shape[0])
            return original(L, W, var)

        monkeypatch.setattr(predictors, "_moments", counting)
        monkeypatch.setattr(decisions, "_moments", counting)
        prob = Problem(LossMatrix([[0, 1], [0, 1], [2, 2]]))
        res = prescribe(prob, PredictorSpec("svp"), EmpiricalDistribution((7, 3)),
                        ExponentialRate(0.02))
        assert calls == [3]
        assert res.decision == 0 and res.gap_lower == res.gap_upper

    def test_gap_bound_matches_the_public_views_bit_for_bit(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            d, n = (int(v) for v in rng.integers(2, 6, size=2))
            prob = make_problem(rng.integers(0, 4, (n, d)) / 4.0)
            w = rng.uniform(0.1, 1.0, d)
            p = Distribution(w / w.sum())
            sched = ExponentialRate(float(rng.uniform(0.001, 0.2)))
            W = p.weights[None, :]
            svp = PredictorSpec("svp")
            values = predictor_value_matrix(prob, svp, W, ratio=sched.rate)
            costs = predictor_value_matrix(prob, PredictorSpec("saa"), W)
            variances = variance_matrix(prob, W)
            pick = int(select_decisions(prob, values, variances)[0])
            x_star = int(select_decisions(prob, costs, variances)[0])
            want = (
                float(values[0, pick] - costs[0, pick]),
                float(values[0, x_star] - costs[0, x_star]),
            )
            assert prescription_gap_bound(prob, p, 1, sched) == want


class TestTieRuleIsUnitFree:
    def test_equal_costs_tie_in_any_units_and_scenario_order(self):
        perm_rng = np.random.default_rng(1)
        for L, emp in equal_cost_instances(400):
            perm = perm_rng.permutation(L.shape[1])
            variants = [(a * L + b, emp) for a, b in TRANSFORMS]
            variants.append((L[:, perm], permuted(emp, perm)))
            for losses, e in variants:
                assert prescribe(make_problem(losses), PredictorSpec("saa"), e).decision == 0

    def test_least_variance_minimizer_wins_at_any_offset(self):
        # both decisions cost b + 0.5, with variances 0.25 and 0; a variance
        # window that grew with |b| (1e-12 * max|l|**2) let index 0 win at 1e6
        p = Distribution((0.5, 0.5))
        for b in (0.0, 1e6, -1e6):
            prob = make_problem([[b, b + 1.0], [b + 0.5, b + 0.5]])
            assert min_variance_minimizer(prob, p) == 1, b
            assert prescribe(prob, PredictorSpec("saa"), HALF_EMP).decision == 1, b
            sched = ExponentialRate(0.02)
            assert prescription_gap_bound(prob, p, 100, sched) == (0.0, 0.0), b

    def test_every_kind_prescribes_the_same_in_any_units_and_scenario_order(self):
        rng = np.random.default_rng(57)
        sched = ExponentialRate(0.05)
        ties = list(equal_cost_instances(20))
        for i in range(40):
            if i < len(ties):
                L, emp = ties[i]
            else:
                d = int(rng.integers(2, 5))
                L = rng.uniform(0.0, 1.0, (int(rng.integers(2, 6)), d))
                emp = EmpiricalDistribution(rng.integers(1, 20, d))
            perm = rng.permutation(L.shape[1])
            for kind in ("saa", "robust", "kl", "svp"):
                spec = PredictorSpec(kind)
                want = prescribe(make_problem(L), spec, emp, sched).decision
                for a, b in TRANSFORMS[1:]:
                    got = prescribe(make_problem(a * L + b), spec, emp, sched)
                    assert got.decision == want, (i, kind, a, b)
                got = prescribe(make_problem(L[:, perm]), spec, permuted(emp, perm), sched)
                assert got.decision == want, (i, kind, "permuted")


class TestScenarioPermutations:
    SPECS = (PredictorSpec("saa"), PredictorSpec("robust"), PredictorSpec("kl", 0.1),
             PredictorSpec("svp"))

    def test_grid_prescription_is_the_same_in_every_scenario_order(self):
        # x = -0.12 and x = +0.12 tie in svp value, and in variance up to an
        # ulp that follows the scenario order: an exact variance comparison
        # picked +0.12 once the scenarios were reversed
        loss = abs_grid_problem().values
        emp = EmpiricalDistribution((1, 1, 1, 1, 1))
        sched = CustomTable(((5, 2.5),))
        for spec in self.SPECS:
            want = prescribe(Problem(LossMatrix(loss)), spec, emp, sched).decision
            if spec.kind == "svp":
                assert want == 48  # x = -0.12, the lower index of the tie
            for perm in itertools.permutations(range(5)):
                prob = Problem(LossMatrix(loss[:, list(perm)]))
                assert prescribe(prob, spec, emp, sched).decision == want, (spec, perm)

    def test_every_kind_prescribes_the_same_in_every_scenario_order(self):
        rng = np.random.default_rng(8)
        sched = ExponentialRate(0.05)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            L = rng.uniform(0.0, 1.0, (int(rng.integers(2, 6)), d))
            L[1] = L[0][::-1]  # decisions alike up to scenario order
            emp = EmpiricalDistribution(rng.integers(1, 20, d))
            for spec in self.SPECS:
                want = prescribe(make_problem(L), spec, emp, sched).decision
                for perm in map(list, itertools.permutations(range(d))):
                    prob = make_problem(L[:, perm])
                    got = prescribe(prob, spec, permuted(emp, perm), sched)
                    assert got.decision == want, (spec, perm)


class TestConvexityCertificate:
    def test_grid_too_small(self):
        with pytest.raises(ValidationError):
            convexity_certificate(
                LossMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                HALF_EMP,
                ExponentialRate(0.02),
            )

    def test_constant_losses_have_no_violations(self):
        loss = LossMatrix(np.full((11, 3), 2.5))
        emp = EmpiricalDistribution((4, 3, 3))
        ok, violations = convexity_certificate(loss, emp, ExponentialRate(2.0))
        assert violations == 0

    def test_absolute_loss_grid_transition(self):
        # |x - xi| on a 101-point grid, uniform empirical over 5 scenarios:
        # large penalties break convexity, small ones keep it
        loss = abs_grid_problem()
        emp = EmpiricalDistribution((1, 1, 1, 1, 1))
        T = emp.sample_size
        expected = {
            2.0: (False, 419),
            0.5: (False, 225),
            0.02: (False, 0),
            0.001: (False, 0),
            0.0005: (True, 0),
        }
        for ratio, (ok_want, count_want) in expected.items():
            sched = CustomTable(((T, ratio * T),))
            ok, count = convexity_certificate(loss, emp, sched)
            assert ok is ok_want, ratio
            assert count == count_want, ratio

    def test_threshold_matches_condition(self):
        # uniform over 5 scenarios: rhs = 0.2 * 0.2, so sqrt(2 ratio) <= 0.04
        emp = EmpiricalDistribution((1, 1, 1, 1, 1))
        loss = abs_grid_problem()
        T = emp.sample_size
        ok_just_below, _ = convexity_certificate(
            loss, emp, CustomTable(((T, 0.0008 * T),))
        )
        ok_just_above, _ = convexity_certificate(
            loss, emp, CustomTable(((T, 0.00081 * T),))
        )
        assert ok_just_below is True
        assert ok_just_above is False

    def test_even_span_midpoints_only(self):
        # a convex piecewise-linear value profile must never be flagged,
        # whatever the grid parity; constant rows make the value exactly |x|
        vals = np.abs(np.linspace(-1.0, 1.0, 7))
        loss = LossMatrix(np.column_stack([vals, vals]))
        emp = EmpiricalDistribution((3, 2))
        ok, violations = convexity_certificate(
            loss, emp, CustomTable(((5, 0.0005 * 5),))
        )
        assert violations == 0


def loop_midpoint_violations(v):
    """The pairwise loop the certificate's one comparison replaced: the
    oracle for its count."""
    n = v.size
    violations = 0
    for i in range(n - 2):
        for k in range(i + 2, n, 2):
            if v[(i + k) // 2] > 0.5 * (v[i] + v[k]) + 1e-9:
                violations += 1
    return violations


class TestMidpointCountMatchesTheLoop:
    def certificate_and_loop(self, loss, emp, ratio):
        T = emp.sample_size
        sched = CustomTable(((T, ratio * T),))
        W = emp.distribution.weights[None, :]
        v = predictor_value_matrix(
            Problem(loss), PredictorSpec("svp"), W, ratio=speed_ratio(sched, T)
        )[0]
        return convexity_certificate(loss, emp, sched)[1], loop_midpoint_violations(v)

    def test_random_grids_odd_and_even(self):
        rng = np.random.default_rng(23)
        counts = set()
        for n in range(3, 61):
            d = int(rng.integers(2, 6))
            if n % 2:  # noisy losses: many violations
                L = rng.uniform(-1.0, 1.0, (n, d))
            else:  # |x - xi| on a random grid: convex up to the penalty
                xs = np.linspace(-3.0, 3.0, n)
                L = np.abs(xs[:, None] - rng.uniform(-2.0, 2.0, d)[None, :])
            loss = LossMatrix(L)
            emp = EmpiricalDistribution(rng.integers(0, 6, d) + (np.arange(d) == 0))
            for ratio in (0.0005, 0.02, 0.5, 2.0):
                got, want = self.certificate_and_loop(loss, emp, ratio)
                assert got == want, (n, ratio)
                counts.add(got > 0)
        assert counts == {False, True}  # both outcomes are exercised

    def test_midpoint_exactly_at_chord_plus_tolerance_is_no_violation(self):
        # constant rows make the svp values exactly the row constants; on a
        # line of quarter steps every chord midpoint is exact, so a bump of
        # 1e-9 puts the midpoint on the threshold and one ulp more over it
        n = 11
        emp = EmpiricalDistribution((1, 1))
        for slope in (0.25, -0.5, 0.0):
            line = slope * np.arange(n)
            for m in range(1, n - 1):
                for bump, want in (
                    (line[m] + 1e-9, 0),
                    (np.nextafter(line[m] + 1e-9, np.inf), min(m, n - 1 - m)),
                ):
                    v = line.copy()
                    v[m] = bump
                    loss = LossMatrix(np.column_stack([v, v]))
                    got, oracle = self.certificate_and_loop(loss, emp, 0.02)
                    assert got == oracle == want, (slope, m)


class TestBatchConsistency:
    def test_lattice_row_and_single_prescription_agree(self):
        rng = np.random.default_rng(54)
        prob = make_problem(rng.uniform(0.0, 1.0, (3, 3)))
        ratio = 0.04
        for _ in range(20):
            counts = rng.integers(1, 12, 3)
            emp = EmpiricalDistribution(counts)
            T = emp.sample_size
            sched = CustomTable(((T, ratio * T),))
            res = prescribe(prob, PredictorSpec("svp"), emp, sched)
            W = emp.distribution.weights[None, :]
            vals = predictor_value_matrix(
                prob, PredictorSpec("svp"), W, ratio=ratio
            )
            from ddlab import variance_matrix

            pick = int(select_decisions(prob, vals, variance_matrix(prob, W))[0])
            assert pick == res.decision

    def test_prescribed_variance_reaches_minimum_for_small_ratio(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            prob = make_problem(rng.uniform(0.0, 1.0, (4, 3)))
            w = rng.uniform(0.2, 1.0, 3)
            p = Distribution(w / w.sum())
            emp = EmpiricalDistribution(np.round(p.weights * 100).astype(int))
            T = emp.sample_size
            res = prescribe(
                prob,
                PredictorSpec("svp"),
                emp,
                CustomTable(((T, 1e-20 * T),)),
            )
            best = min_variance_minimizer(prob, emp.distribution)
            assert variance(prob, res.decision, emp.distribution) == variance(
                prob, best, emp.distribution
            )
