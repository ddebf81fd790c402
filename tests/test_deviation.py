"""Tests for the disappointment laboratory: exact, Monte Carlo, importance."""
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from ddlab import (
    CustomTable,
    Distribution,
    EmpiricalDistribution,
    ExponentialRate,
    LatticeCapError,
    LossMatrix,
    Mode,
    PowerLaw,
    PredictorSpec,
    Problem,
    ValidationError,
    disappointment_exact,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
    lattice_size,
    load_scenario,
    rate_curve,
    speed_ratio,
    theoretical_rate_saa,
)
from ddlab import deviation, simplex
from ddlab.deviation import _sample_count_rows, _unique_rows


def make_problem(loss, true_dist=None):
    td = None if true_dist is None else Distribution(true_dist)
    return Problem(LossMatrix(np.array(loss, dtype=float)), td)


def scenario(name):
    return load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios" / name))


COIN = make_problem([[0.5, 0.5], [0.0, 1.0]], true_dist=(0.5, 0.5))
HALF = Distribution((0.5, 0.5))
SCHED = ExponentialRate(0.1)


class TestMode:
    def test_prediction_carries_a_decision(self):
        m = Mode.prediction(1)
        assert m.kind == "prediction" and m.decision == 1

    def test_prescription_carries_none(self):
        m = Mode.prescription()
        assert m.kind == "prescription" and m.decision is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            Mode("prediction")
        with pytest.raises(ValidationError):
            Mode("prescription", 0)
        with pytest.raises(ValidationError):
            Mode("oracle", 0)


class TestExact:
    def test_two_sample_hand_value(self):
        # T=2 over losses (0,1), even truth: only counts (2,0) underestimate
        rep = disappointment_exact(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 2, SCHED
        )
        assert rep.probability == pytest.approx(0.25, abs=1e-15)
        assert rep.log_probability == pytest.approx(math.log(0.25), abs=1e-12)
        assert rep.T == 2
        assert rep.method.name == "exact"
        assert rep.method.std_err is None

    def test_tie_counts_as_no_disappointment(self):
        # the (1,1) lattice point predicts exactly the true cost; without
        # the strict guard the probability would be 0.75
        rep = disappointment_exact(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 2, SCHED
        )
        assert rep.probability < 0.3

    def test_prescription_mode_hand_value(self):
        # (2,0): picks the risky decision at value 0, truth costs 0.5
        rep = disappointment_exact(
            COIN, PredictorSpec("saa"), Mode.prescription(), HALF, 2, SCHED
        )
        assert rep.probability == pytest.approx(0.25, abs=1e-15)

    def test_robust_never_disappoints(self):
        for T in (2, 10, 40):
            rep = disappointment_exact(
                COIN, PredictorSpec("robust"), Mode.prediction(1), HALF, T, SCHED
            )
            assert rep.probability == 0.0
            assert rep.log_probability == -math.inf
            assert rep.rate == -math.inf

    def test_constant_row_never_disappoints(self):
        rep = disappointment_exact(
            COIN, PredictorSpec("svp"), Mode.prediction(0), HALF, 25,
            CustomTable(((25, 100.0),)),
        )
        assert rep.probability == 0.0

    def test_huge_penalty_leaves_only_the_zero_variance_vertex(self):
        # with an enormous ratio every positive-variance lattice point is
        # over-predicted; the all-mass-on-the-cheap-scenario vertex still
        # disappoints, so the probability is exactly 2^-T, not 0
        T = 10
        rep = disappointment_exact(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF, T,
            CustomTable(((T, 1e6 * T),)),
        )
        assert rep.probability == pytest.approx(2.0 ** -T, rel=1e-12)

    def test_exp_log_probability_consistency(self):
        rep = disappointment_exact(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF, 30,
            PowerLaw(1.0, 0.5),
        )
        assert rep.probability == pytest.approx(
            math.exp(rep.log_probability), abs=1e-12
        )
        assert rep.rate == pytest.approx(
            rep.log_probability / PowerLaw(1.0, 0.5).a(30), abs=1e-12
        )

    def test_cap_enforced(self):
        with pytest.raises(LatticeCapError) as exc:
            disappointment_exact(
                COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 100,
                SCHED, cap=10,
            )
        assert exc.value.size == 101
        assert exc.value.cap == 10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            disappointment_exact(
                COIN, PredictorSpec("saa"), Mode.prediction(1),
                Distribution((0.2, 0.3, 0.5)), 5, SCHED,
            )


class TestExactStreaming:
    """disappointment_exact streams the lattice in rank blocks; neither its
    result nor the lattice it covers may depend on the block size."""

    # (scenario, decision tested in prediction mode, T per patched block
    # size): each lattice spans several blocks of its size
    LATTICES = (
        ("newsvendor.json", 4, {1: 8, 7: 20, 4096: 30}),
        ("absolute_loss_grid.json", 50, {1: 4, 7: 8, 4096: 16}),
    )

    @staticmethod
    def _log_ps(problem, decision, T):
        out = []
        work = lattice_size(T, problem.n_scenarios) * problem.n_decisions
        for kind in ("saa", "svp", "robust", "kl"):
            for mode in (Mode.prediction(decision), Mode.prescription()):
                if kind == "kl" and mode.kind == "prescription" and work > 10**5:
                    continue  # one KL solve per point and decision: seconds
                rep = disappointment_exact(
                    problem, PredictorSpec(kind), mode, problem.true_dist, T,
                    ExponentialRate(0.05),
                )
                out.append(rep.log_probability)
        return out

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_log_probability_does_not_depend_on_the_block(self, block, monkeypatch):
        for name, decision, sizes in self.LATTICES:
            problem = scenario(name)
            T = sizes[block]
            assert lattice_size(T, problem.n_scenarios) > block
            want = self._log_ps(problem, decision, T)
            monkeypatch.setattr(deviation, "_LATTICE_BLOCK", block)
            got = self._log_ps(problem, decision, T)
            monkeypatch.undo()
            assert got == want

    @pytest.mark.parametrize("block, T", [(7, 30), (None, 120)])  # None: default
    def test_blocks_tile_the_lattice_in_rank_order(self, block, T, monkeypatch):
        calls = []
        original = deviation._lattice_counts

        def recording(T, d, cap, start, stop, *tables):
            calls.append((start, stop))
            return original(T, d, cap, start, stop, *tables)

        problem = scenario("newsvendor.json")
        monkeypatch.setattr(deviation, "_lattice_counts", recording)
        if block is not None:
            monkeypatch.setattr(deviation, "_LATTICE_BLOCK", block)
        disappointment_exact(
            problem, PredictorSpec("saa"), Mode.prescription(), problem.true_dist,
            T, SCHED,
        )
        size = lattice_size(T, problem.n_scenarios)
        assert len(calls) > 1
        assert calls[0][0] == 0 and calls[-1][1] == size
        assert all(lo < hi for lo, hi in calls)
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))

    def test_rank_tables_are_built_once_per_call(self, monkeypatch):
        # they cost O(d T), so one build per block would make a d=2 lattice
        # quadratic in T
        calls = []
        original = deviation._rank_tables

        def counting(T, d):
            calls.append((T, d))
            return original(T, d)

        monkeypatch.setattr(deviation, "_rank_tables", counting)
        monkeypatch.setattr(simplex, "_rank_tables", counting)
        monkeypatch.setattr(deviation, "_LATTICE_BLOCK", 7)
        disappointment_exact(COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 100, SCHED)
        assert calls == [(100, 2)]

    def test_memory_follows_the_block_not_the_lattice(self):
        # 302,621 lattice points; holding them with their 9-decision value,
        # variance and mask arrays at once peaks above 100 MB
        problem = scenario("newsvendor.json")
        for kind in ("svp", "saa"):
            tracemalloc.start()
            try:
                disappointment_exact(
                    problem, PredictorSpec(kind), Mode.prescription(),
                    problem.true_dist, 120, ExponentialRate(0.02),
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24e6, (kind, peak)


class TestMonteCarlo:
    def test_matches_exact_within_three_sigma(self):
        rep = disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 2, SCHED,
            n_samples=1_000_000, seed=101,
        )
        sigma = math.sqrt(0.25 * 0.75 / 1_000_000)
        assert abs(rep.probability - 0.25) <= 3.0 * sigma
        assert rep.method.name == "monte_carlo"
        assert rep.method.n_samples == 1_000_000
        assert rep.method.std_err == pytest.approx(
            math.sqrt(rep.probability * (1 - rep.probability) / 1_000_000),
            rel=1e-12,
        )

    def test_robust_has_exactly_zero_hits(self):
        rep = disappointment_mc(
            COIN, PredictorSpec("robust"), Mode.prediction(1), HALF, 20, SCHED,
            n_samples=50_000, seed=3,
        )
        assert rep.probability == 0.0
        assert rep.rate == -math.inf

    def test_same_seed_identical_report(self):
        kw = dict(n_samples=30_000, seed=77)
        a = disappointment_mc(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF, 15,
            PowerLaw(1.0, 0.5), **kw,
        )
        b = disappointment_mc(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF, 15,
            PowerLaw(1.0, 0.5), **kw,
        )
        assert a == b

    def test_different_seeds_differ(self):
        a = disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 9, SCHED,
            n_samples=2_000, seed=1,
        )
        b = disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 9, SCHED,
            n_samples=2_000, seed=2,
        )
        assert a.probability != b.probability

    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError):
            disappointment_mc(
                COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED,
                n_samples=0, seed=1,
            )


class TestUniqueRows:
    """Keyed de-duplication returns exactly what np.unique over rows does."""

    @staticmethod
    def _check(C, T):
        want = np.unique(C, axis=0, return_inverse=True, return_counts=True)
        got = _unique_rows(C, T)
        for a, b in zip(got, (want[0], want[1].reshape(-1), want[2])):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_keyed_path(self):
        # small T puts counts at the top digit T, where a wrong radix collides
        cases = ((1, 4, 200), (2, 3, 200), (12, 4, 5000), (200, 4, 20000), (7, 2, 300))
        for T, d, n in cases:
            assert (T + 1) ** (d - 1) < 2**63
            self._check(_sample_count_rows(np.full(d, 1.0 / d), T, n, seed=T), T)

    def test_fallback_path_beyond_int64_keys(self):
        T, d = 10, 25
        assert (T + 1) ** (d - 1) >= 2**63
        w = np.random.default_rng(0).dirichlet(np.full(d, 0.3))
        self._check(_sample_count_rows(w, T, 3000, seed=4), T)


class TestImportance:
    def test_unit_shift_reduces_to_monte_carlo(self):
        mc = disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 8, SCHED,
            n_samples=20_000, seed=5,
        )
        is_ = disappointment_importance(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 8, SCHED,
            shift_q=HALF, n_samples=20_000, seed=5,
        )
        assert is_.probability == mc.probability
        assert is_.method.name == "importance"
        assert is_.method.ess == pytest.approx(20_000.0, rel=1e-12)

    def test_shifted_estimate_near_exact(self):
        shift = Distribution((0.8, 0.2))
        rep = disappointment_importance(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 2, SCHED,
            shift_q=shift, n_samples=100_000, seed=11,
        )
        sigma = max(rep.method.std_err, math.sqrt(0.25 * 0.75 / 100_000))
        assert abs(rep.probability - 0.25) <= 4.0 * sigma
        assert rep.method.shift == shift
        assert 0.0 < rep.method.ess <= 100_000.0

    def test_deep_tail_within_five_percent(self):
        # a 2e-7 event: the plain estimator would see a couple of hits at
        # best, the shifted one resolves it to a few permille
        mode = Mode.prediction(1)
        sched = PowerLaw(1.0, 0.5)
        exact = disappointment_exact(
            COIN, PredictorSpec("svp"), mode, HALF, 200, sched
        )
        assert exact.probability == pytest.approx(1.9522338899581522e-07, rel=1e-12)
        ratio = sched.a(200) / 200
        shift = importance_shift(COIN, mode, HALF, ratio)
        assert shift.weights[0] == pytest.approx(0.67862865, abs=1e-6)
        rep = disappointment_importance(
            COIN, PredictorSpec("svp"), mode, HALF, 200, sched,
            shift_q=shift, n_samples=200_000, seed=7,
        )
        rel_err = abs(rep.probability - exact.probability) / exact.probability
        assert rel_err <= 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            disappointment_importance(
                COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED,
                shift_q=Distribution((1.0, 0.0)), n_samples=100, seed=1,
            )
        with pytest.raises(ValidationError):
            disappointment_importance(
                COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED,
                shift_q=Distribution((0.2, 0.3, 0.5)), n_samples=100, seed=1,
            )
        with pytest.raises(ValidationError):
            disappointment_importance(
                COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED,
                shift_q=HALF, n_samples=0, seed=1,
            )

    def test_probability_stays_in_unit_interval(self):
        rep = disappointment_importance(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 4, SCHED,
            shift_q=Distribution((0.05, 0.95)), n_samples=500, seed=9,
        )
        assert 0.0 <= rep.probability <= 1.0


class TestImportanceShift:
    def test_prediction_tilt_mirrors_the_worst_case(self):
        q = importance_shift(COIN, Mode.prediction(1), HALF, 0.02)
        # pre-mixture point is (0.6, 0.4); the 5% mixture pulls toward p
        assert q.weights[0] == pytest.approx(0.595, abs=1e-12)
        assert q.weights[1] == pytest.approx(0.405, abs=1e-12)

    def test_zero_variance_stays_at_p(self):
        q = importance_shift(COIN, Mode.prediction(0), HALF, 0.02)
        assert q == HALF

    def test_prescription_uses_the_prescribed_decision(self):
        # the penalized prescription at p picks the flat decision, so the
        # shift has nothing to tilt
        q = importance_shift(COIN, Mode.prescription(), HALF, 0.02)
        assert q == HALF

    def test_extreme_p_keeps_interior_shift(self):
        p = Distribution((0.99, 0.01))
        q = importance_shift(COIN, Mode.prediction(1), p, 0.1)
        assert q.is_interior
        assert q.weights.min() >= 0.05 * p.weights.min() * 0.99


class TestRateCurve:
    def test_robust_all_neg_infinity(self):
        pts = rate_curve(
            COIN, PredictorSpec("robust"), Mode.prediction(1), HALF, SCHED,
            [10, 20, 40],
        )
        assert [t for t, _ in pts] == [10, 20, 40]
        assert all(r == -math.inf for _, r in pts)

    def test_emits_in_ascending_T_order(self):
        pts = rate_curve(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, SCHED,
            [200, 50, 100],
        )
        assert [t for t, _ in pts] == [50, 100, 200]

    def test_frozen_svp_sqrt_schedule(self):
        pts = rate_curve(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF,
            PowerLaw(1.0, 0.5), [50, 100, 200, 500],
        )
        want = [
            -1.0842498391708018,
            -1.1037933818602068,
            -1.0924178469584145,
            -1.0524912113787595,
        ]
        for (_, got), w in zip(pts, want):
            assert got == pytest.approx(w, rel=1e-10)

    def test_frozen_kl_exponential_schedule(self):
        pts = rate_curve(
            COIN, PredictorSpec("kl", radius=0.1), Mode.prediction(1), HALF,
            ExponentialRate(0.1), [200, 500],
        )
        assert pts[0][1] == pytest.approx(-1.1164431468223266, rel=1e-10)
        assert pts[1][1] == pytest.approx(-1.0567250585363652, rel=1e-10)

    def test_saa_is_infeasible_at_exponential_speed(self):
        # the plug-in predictor disappoints with probability ~ 1/2, so at
        # a_T = 0.1 T its rate stays far above -1
        pts = rate_curve(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF,
            ExponentialRate(0.1), [500],
        )
        assert -0.1 < pts[0][1] < 0.0

    def test_large_lattice_needs_seed(self):
        with pytest.raises(ValidationError):
            rate_curve(
                COIN, PredictorSpec("svp"), Mode.prediction(1), HALF,
                PowerLaw(1.0, 0.5), [50], cap=10,
            )

    def test_large_lattice_falls_back_to_importance(self):
        exact_pts = rate_curve(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF,
            PowerLaw(1.0, 0.5), [50],
        )
        is_pts = rate_curve(
            COIN, PredictorSpec("svp"), Mode.prediction(1), HALF,
            PowerLaw(1.0, 0.5), [50], cap=10, n_samples=400_000, seed=13,
        )
        assert is_pts[0][0] == 50
        assert is_pts[0][1] == pytest.approx(exact_pts[0][1], abs=0.05)

    def test_lattice_past_int64_ranks_falls_back_to_importance(self):
        # comb(T + 3, 3) exceeds 2**63 - 1, the ceiling on any cap, so even
        # a cap of 10**40 leaves this lattice to importance sampling
        problem = scenario("newsvendor.json")
        T, mode, spec, p = 4194304, Mode.prediction(4), PredictorSpec("saa"), problem.true_dist
        assert 2**63 - 1 < lattice_size(T, 4) < 10**40
        pts = rate_curve(
            problem, spec, mode, p, SCHED, [T], cap=10**40, n_samples=2_000, seed=1,
        )
        shift = importance_shift(problem, mode, p, speed_ratio(SCHED, T))
        want = disappointment_importance(problem, spec, mode, p, T, SCHED, shift, 2_000, 1)
        assert pts == [(T, want.rate)]


class TestTheoreticalRateSaa:
    def test_zero_at_the_mean(self):
        assert theoretical_rate_saa(COIN, 1, HALF) == 0.0
        assert theoretical_rate_saa(COIN, 1, HALF, m=0.5) == 0.0

    def test_binary_kl_hand_value(self):
        got = theoretical_rate_saa(COIN, 1, HALF, m=0.25)
        want = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(0.13081203594113694, rel=1e-12)

    def test_support_edges(self):
        assert theoretical_rate_saa(COIN, 1, HALF, m=0.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )
        assert theoretical_rate_saa(COIN, 1, HALF, m=1.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )
        assert theoretical_rate_saa(COIN, 1, HALF, m=-0.1) == math.inf
        assert theoretical_rate_saa(COIN, 1, HALF, m=1.1) == math.inf

    def test_vertex_distribution(self):
        vertex = Distribution((1.0, 0.0))
        assert theoretical_rate_saa(COIN, 1, vertex, m=-0.5) == math.inf
        assert theoretical_rate_saa(COIN, 1, vertex) == 0.0

    def test_matches_direct_legendre_maximization(self):
        from scipy.optimize import minimize_scalar

        prob = make_problem([[0.0, 0.5, 1.0]])
        p = Distribution((0.3, 0.4, 0.3))
        row = np.array([0.0, 0.5, 1.0])
        logw = np.log(p.weights)
        for m in (0.2, 0.35, 0.45):
            got = theoretical_rate_saa(prob, 0, p, m=m)
            res = minimize_scalar(
                lambda lam: -(lam * m - logsumexp(lam * row + logw)),
                bounds=(-80.0, 80.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert got == pytest.approx(-res.fun, abs=1e-8)

    def test_monotone_away_from_the_mean(self):
        rates = [
            theoretical_rate_saa(COIN, 1, HALF, m=m)
            for m in (0.45, 0.35, 0.25, 0.15)
        ]
        assert rates == sorted(rates)
