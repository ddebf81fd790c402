"""Tests for the disappointment laboratory: exact, Monte Carlo, importance."""
import copy
import dataclasses
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ddlab import (
    DEFAULT_LATTICE_CAP,
    CustomTable,
    DisappointmentReport,
    Distribution,
    EmpiricalDistribution,
    ExponentialRate,
    LatticeCapError,
    LossMatrix,
    MethodInfo,
    Mode,
    PowerLaw,
    PredictionResult,
    PredictorSpec,
    PrescriptionResult,
    Problem,
    ValidationError,
    cost,
    disappointment_exact,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
    lattice_size,
    load_scenario,
    predictor_value_matrix,
    rate_curve,
    speed_ratio,
    svp_direction,
    theoretical_rate_saa,
    variance,
    variance_matrix,
)
from ddlab import decisions, deviation, predictors, simplex
from ddlab.decisions import select_decisions
from ddlab.deviation import _sample_count_rows, _sample_histogram, _unique_rows

import oracles


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


class TestSlottedReports:
    """The report types keep their fields in slots, which takes a retained
    DisappointmentReport from about 0.81 to 0.69 KB; equality, hashing,
    deepcopy and pickling behave as for the dict-backed dataclasses.
    Checked on Python 3.11 (the project also declares 3.10)."""

    @staticmethod
    def _reports():
        method = MethodInfo(name="monte_carlo", n_samples=10, std_err=0.1)
        return [
            Mode.prediction(2),
            Mode.prescription(),
            method,
            DisappointmentReport(
                0.25, math.log(0.25), -0.5, method, 8, Mode.prescription()
            ),
            PredictionResult(value=1.5, dual_alpha=2.0, condition_ok=True),
            PrescriptionResult(decision=3, value=0.5, predictor_kind="kl(r=0.1)"),
        ]

    def test_no_instance_dict(self):
        for obj in self._reports():
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, None)
            # a new name has no slot: TypeError on Python 3.11 (CPython
            # gh-90055), FrozenInstanceError where that is fixed
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1

    def test_equality_and_hash_follow_the_fields(self):
        reports = self._reports()
        for i, (obj, twin) in enumerate(zip(reports, self._reports())):
            fields = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
            assert obj == twin and obj is not twin
            assert hash(obj) == hash(twin) == hash(fields)
            assert all(obj != other for other in reports[:i] + reports[i + 1:])

    def test_deepcopy_and_pickle_round_trip(self):
        for obj in self._reports():
            for copy_ in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert copy_ == obj and type(copy_) is type(obj)


class TestValueTypesRoundTrip:
    """Pickling and deepcopy set the slots of the immutable value types back
    as they were: a copy equals the original and stays immutable, and a
    merged LossMatrix keeps the tie windows of the matrix it came from,
    which rebuilding it from its values would recompute."""

    @staticmethod
    def _copies(obj):
        return copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))

    def test_merged_loss_matrix_keeps_its_tie_windows(self):
        full = LossMatrix([[0.0, 1.0, 100.0], [2.0, 3.0, 4.0]])
        merged = full._merged(np.array([[0.0, 1.0]]))
        assert merged.tie_window != LossMatrix(merged.values).tie_window
        for c in self._copies(merged):
            assert np.array_equal(c.values, merged.values)
            assert not c.values.flags.writeable
            for name in ("decision_labels", "scenario_labels", "k_half",
                         "tie_window", "var_window"):
                assert getattr(c, name) == getattr(merged, name), name
            with pytest.raises(AttributeError):
                c.tie_window = 0.0

    def test_problem_and_distributions(self):
        problem = scenario("newsvendor.json")
        for c in self._copies(problem):
            assert np.array_equal(c.loss.values, problem.loss.values)
            assert c.loss.tie_window == problem.loss.tie_window
            assert c.true_dist == problem.true_dist
            assert not c.true_dist.weights.flags.writeable
        emp = EmpiricalDistribution([3, 0, 2])
        assert all(c == emp for c in self._copies(emp))

    def test_importance_report(self):
        problem = scenario("coin.json")
        p, mode, spec = problem.true_dist, Mode.prediction(1), PredictorSpec("kl", 0.1)
        shift = importance_shift(problem, mode, p, 0.1)
        rep = disappointment_importance(
            problem, spec, mode, p, 40, ExponentialRate(0.1), shift, 500, 3
        )
        assert isinstance(rep.method.shift, Distribution)
        assert all(c == rep for c in self._copies(rep))

    def test_prediction_with_a_worst_case(self):
        problem = scenario("coin.json")
        res = predictors.predict_kl_dual(problem, 1, problem.true_dist, 0.1)
        assert isinstance(res.worst_case, Distribution)
        assert all(c == res for c in self._copies(res))


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
    """disappointment_exact walks the lattice by lines, in groups and slices
    of the block size; neither its result nor the hits it gathers may
    depend on that size."""

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
    def test_hits_are_gathered_in_rank_order(self, block, T, monkeypatch):
        # the reduced log-pmf values are those of the lattice's hits, each
        # once and in rank order, from groups valued in full and walked ones
        reduced = []
        original = deviation._log_sum_exp

        def recording(a):
            reduced.append(a.copy())
            return original(a)

        problem = scenario("newsvendor.json")
        spec, p = PredictorSpec("saa"), problem.true_dist
        monkeypatch.setattr(deviation, "_log_sum_exp", recording)
        if block is not None:
            monkeypatch.setattr(deviation, "_LATTICE_BLOCK", block)
        disappointment_exact(problem, spec, Mode.prescription(), p, T, SCHED)
        monkeypatch.undo()
        C = simplex._lattice_counts(T, problem.n_scenarios)
        Q = deviation._normalized_rows(C, T)
        hit = TestBlockScreen._indicator(
            problem, spec, Q, deviation._true_costs(problem, p), speed_ratio(SCHED, T)
        )
        assert len(reduced) == 1 and 0 < hit.sum() < hit.size
        assert np.array_equal(reduced[0], simplex._log_pmf_rows(C[hit], p, T))

    @pytest.mark.parametrize("kind", ["saa", "svp"])
    def test_slices_reuse_one_workspace(self, kind, monkeypatch):
        # every slice the walk values writes its counts, weights, moments,
        # values and pick into the buffers of the first, sized for a full
        # slice of every decision, and every slice of hits its counts and
        # log-pmf terms into those of the first: no workspace buffer is
        # regrown inside a pass, although the groups keep different
        # decisions and their slices differ in size
        valued, gathered, kept = [], [], set()
        picked, log_pmf = deviation._picked, deviation._log_pmf_rows

        def recording_picked(problem, spec, rows, Q, true_costs, ratio, work):
            out = picked(problem, spec, rows, Q, true_costs, ratio, work)
            valued.append(dict(work))  # the workspace, role -> buffer
            kept.add(rows.size)
            return out

        def recording_log_pmf(C, p, T, work):
            gathered.append(dict(work))
            return log_pmf(C, p, T, work)

        problem = scenario("newsvendor.json")
        monkeypatch.setattr(deviation, "_picked", recording_picked)
        monkeypatch.setattr(deviation, "_log_pmf_rows", recording_log_pmf)
        disappointment_exact(  # 302,621 points, in walked groups and one in full
            problem, PredictorSpec(kind), Mode.prescription(), problem.true_dist,
            120, SCHED,
        )
        roles = {"counts", "Q", "mean", "t"} | ({"var", "values"} if kind == "svp" else set())
        roles |= {"best", "window", "inside", "both", "seen", "tied", "ahead", "pick"}
        assert len(valued) >= 5 and len(kept) >= 2
        for later in valued[1:]:
            assert all(later[role] is valued[0][role] for role in roles)
        walked = [w for w in gathered if "walk values" not in w]  # after the walk's buffers went
        assert len(walked) >= 5
        for later in walked[1:]:
            assert all(later[role] is walked[0][role] for role in ("counts", "log-pmf terms"))

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
        # variance and mask arrays at once peaks above 100 MB.  The walk's
        # buffers go before the hit buffer (8 bytes per hit) is made
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
            assert peak < 8e6, (kind, peak)


class TestExactSinglePass:
    """Each slice of valued points takes one moments pass for its predictor
    values, with variances only where the predictor reads them; tie-break
    variances are formed for the tied rows alone.  The true costs are
    formed once per call, and the kept log-pmf values are reduced in place."""

    @pytest.mark.parametrize("kind", ["saa", "svp"])
    def test_one_moments_pass_per_valued_slice(self, kind, monkeypatch):
        problem = scenario("newsvendor.json")
        L = problem.loss.values
        slices, passes, tied, true_costs = [], [], [], []
        picked, block_moments = deviation._picked, predictors._moments
        call_moments, tie_moments = deviation._moments, decisions._moments

        def counting_picked(problem, spec, rows, Q, *args):
            slices.append((Q.shape[0], tuple(rows)))
            return picked(problem, spec, rows, Q, *args)

        def counting_block_moments(Lk, W, work=None, var=True):
            rows = [int(np.flatnonzero((L == row).all(axis=1))[0]) for row in Lk]
            passes.append((W.shape[0], tuple(rows), var))
            return block_moments(Lk, W, work, var)

        def counting_tie_moments(Lk, W, work=None, var=True):
            tied.append(W.shape[0])
            return tie_moments(Lk, W, work, var)

        def counting_call_moments(L, W):
            true_costs.append(W.shape[0])
            return call_moments(L, W)

        monkeypatch.setattr(deviation, "_picked", counting_picked)
        monkeypatch.setattr(predictors, "_moments", counting_block_moments)
        monkeypatch.setattr(decisions, "_moments", counting_tie_moments)
        monkeypatch.setattr(deviation, "_moments", counting_call_moments)
        disappointment_exact(  # 39,711 points on 1,891 lines: two walked groups
            problem, PredictorSpec(kind), Mode.prescription(), problem.true_dist,
            60, ExponentialRate(0.02),
        )
        # one pass per valued slice, over its points and the decisions kept,
        # in order; variances for svp only
        assert len(slices) >= 2 and len(passes) == len(slices)
        for (N, kept), (N_pass, rows, var) in zip(slices, passes):
            assert N_pass == N and rows == kept and var == (kind == "svp")
            assert list(rows) == sorted(set(rows)) and len(rows) < problem.n_decisions
        # the walk values a fraction of the lattice
        valued = sum(N for N, _ in slices)
        assert valued < 0.25 * lattice_size(60, problem.n_scenarios)
        # tie-break variances: one pass at most per valued slice, over its
        # tied rows (saa ties at some valued points, svp at none)
        assert len(tied) <= len(slices) and sum(tied) < 0.1 * valued
        assert (sum(tied) > 0) == (kind == "saa")
        assert true_costs == [1]

    @pytest.mark.parametrize("kind", ["saa", "svp", "robust", "kl"])
    def test_prescription_matches_the_public_composition_bit_for_bit(self, kind):
        rng = np.random.default_rng(29)
        schedule = ExponentialRate(0.05)
        spec = PredictorSpec(kind, 0.05 if kind == "kl" else None)
        positive = 0
        for case in range(8):
            n, d = (int(v) for v in rng.integers(2, 5, size=2))
            L = rng.integers(-4, 5, size=(n, d)) + rng.normal(scale=0.1, size=(n, d))
            w = rng.dirichlet(np.ones(d))
            if case % 2:
                w[rng.integers(d)] = 0.0  # hits outside support(p) weigh -inf
            p = Distribution(w / w.sum())
            problem = Problem(LossMatrix(L), p)
            assert deviation._merged_columns(L) is None  # every row is distinct
            T = int(rng.integers(3, 13))
            rep = disappointment_exact(
                problem, spec, Mode.prescription(), p, T, schedule
            )
            want = oracles.exact_log_p(problem, spec, Mode.prescription(), p, T, schedule)
            assert rep.log_probability.hex() == want.hex(), (case, kind)
            positive += rep.probability > 0.0
        assert positive >= (0 if kind == "robust" else 3)

    def test_in_place_reduction_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for i in range(600):
            n = int(rng.integers(1, 4000)) if i % 50 else 200_000
            a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n)
            a -= rng.uniform(0.0, 1000.0)
            if i % 4 == 1:
                a = np.round(a)  # integer values, many tied maxima
            elif i % 4 == 2:
                a[rng.integers(0, n, size=1 + n // 10)] = a.max()
            elif i % 4 == 3:
                a[rng.random(n) < 0.3] = -math.inf
            want = float(logsumexp(a))
            assert deviation._log_sum_exp(a.copy()).hex() == want.hex(), i

    def test_in_place_reduction_edges(self):
        assert deviation._log_sum_exp(np.full(5, -math.inf)) == -math.inf
        assert deviation._log_sum_exp(np.empty(0)) == -math.inf
        assert deviation._log_sum_exp(np.array([-3.25])) == -3.25
        assert deviation._log_sum_exp(np.log(np.full(4, 0.25))) == 0.0

    def test_reduction_adds_no_temporaries(self):
        # the saa prescription keeps about 170,000 log-pmf values; reduced by
        # scipy's logsumexp with its temporaries, the call peaks at 10.5 MB
        problem = scenario("newsvendor.json")
        tracemalloc.start()
        try:
            rep = disappointment_exact(
                problem, PredictorSpec("saa"), Mode.prescription(),
                problem.true_dist, 120, ExponentialRate(0.02),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.probability > 0.5
        assert peak < 6e6, peak


class TestLogFactorialCache:
    """The exact engine and the histogram sampler index the process's
    log-factorial table; once it covers T they build nothing."""

    def _count_builds(self, monkeypatch):
        builds = []
        original = simplex._log_factorial_entries

        def counting(c):
            builds.append(c.size)
            return original(c)

        monkeypatch.setattr(simplex, "_log_factorial_entries", counting)
        return builds

    def test_exact_builds_nothing_once_covered(self, monkeypatch):
        problem = scenario("newsvendor.json")
        args = (problem, PredictorSpec("svp"), Mode.prescription(),
                problem.true_dist, 40, ExponentialRate(0.02))
        monkeypatch.setattr(simplex, "_LOG_FACT", np.zeros(0))
        builds = self._count_builds(monkeypatch)
        first = disappointment_exact(*args)
        assert builds == [41]  # one build of log c!, c = 0..T
        for _ in range(3):
            again = disappointment_exact(*args)
            assert again.log_probability.hex() == first.log_probability.hex()
        disappointment_exact(*args[:4], 25, args[5])  # a smaller T
        assert builds == [41]

    def test_histogram_builds_nothing_once_covered(self, monkeypatch):
        w = np.array([0.2, 0.3, 0.3, 0.2])
        monkeypatch.setattr(simplex, "_LOG_FACT", np.zeros(0))
        builds = self._count_builds(monkeypatch)
        first = _sample_histogram(w, 60, 100_000, 5)
        assert builds == [61]  # grown to T = 60 at the first level
        builds.clear()
        for _ in range(3):
            again = _sample_histogram(w, 60, 100_000, 5)
            assert all(np.array_equal(a, b) for a, b in zip(first, again))
        _sample_histogram(w, 30, 100_000, 6)
        assert builds == []


class TestIndicatorIsUnitFree:
    @pytest.mark.parametrize("kind", ["saa", "svp", "robust", "kl"])
    def test_exact_indicator_survives_rescaling_shifting_and_permutation(self, kind):
        # at T=10 the truth (0.2, 0.3, 0.3, 0.2) is a lattice point, where
        # predictions tie the true cost
        prob = scenario("newsvendor.json")
        L, p, T = prob.loss.values, prob.true_dist, 10
        C = simplex._lattice_counts(T, 4, DEFAULT_LATTICE_CAP, 0, lattice_size(T, 4))
        Q = deviation._normalized_rows(C, T)
        spec = PredictorSpec(kind, 0.02 if kind == "kl" else None)
        perm = [2, 0, 3, 1]
        permuted = Problem(LossMatrix(L[:, perm]), Distribution(p.weights[perm]))
        for mode in (Mode.prediction(4), Mode.prescription()):
            costs = deviation._true_costs(prob, p)
            want = deviation._disappointment_indicator(prob, spec, mode, Q, costs, 0.02)
            for a, b in ((1e6, 0.0), (1e-6, 0.0), (1.0, 1e3)):
                moved = Problem(LossMatrix(a * L + b), p)
                costs = deviation._true_costs(moved, p)
                got = deviation._disappointment_indicator(
                    moved, spec, mode, Q, costs, 0.02
                )
                assert np.array_equal(got, want), (mode, a, b)
            costs = deviation._true_costs(permuted, permuted.true_dist)
            got = deviation._disappointment_indicator(
                permuted, spec, mode, Q[:, perm], costs, 0.02
            )
            assert np.array_equal(got, want), (mode, "permuted")


class TestBlockScreen:
    """A prescription block is screened before it is evaluated: decisions
    whose value bound cannot come within the tie window of the least upper
    bound are not valued, and a block whose outcome the bounds fix is not
    valued at all.  The indicator must not change."""

    @staticmethod
    def _indicator(problem, spec, Q, costs, ratio):
        # the unscreened prescription: every decision valued and picked
        tie = problem.loss.tie_window
        V = predictors._predictor_values(spec, problem.loss.values, Q, ratio, None, tie)[0]
        pick, v_hat = decisions._pick_decisions(problem, np.ascontiguousarray(V.T), Q)
        return costs[pick] > v_hat + tie

    @pytest.mark.parametrize("kind", ["saa", "svp", "kl", "robust"])
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        regime=st.sampled_from(["lattice", "sample", "vertex"]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 1e6]),
    )
    def test_screen_never_changes_an_indicator(self, kind, data, seed, regime, scale, offset):
        rng = np.random.default_rng(seed)
        n, d = data.draw(st.integers(1, 9)), data.draw(st.integers(2, 12))
        if regime == "vertex":  # where rounding of the shift hides a variance
            scale, offset = 1e-3, 1e6
        # integer losses tie exactly; some rows repeat another, sit a
        # fraction of the tie window off it, or are constant
        L = rng.integers(-3, 4, size=(n, d)) + rng.choice([0.0, 0.1], (n, 1)) * rng.random((n, d))
        L = L * scale + offset
        for x in range(1, n):
            how = data.draw(st.sampled_from(["free", "repeat", "near", "constant"]))
            if how == "repeat":
                L[x] = L[0]
            elif how == "near":
                L[x] = L[0] + rng.choice([-1.5, -0.5, 0.5, 1.0, 1.5]) * 1e-12 * np.abs(L).max()
            elif how == "constant":
                L[x] = L[x, 0]
        problem = Problem(LossMatrix(L))
        tie = problem.loss.tie_window
        # count rows: a rank range of a lattice, or a slice of the sorted
        # distinct rows of counts drawn at or near the simplex's faces and
        # vertices, where the sampled weights may have zeros
        length = data.draw(st.sampled_from([1, 2, 5, 50, 300]))
        if regime == "lattice":
            T = data.draw(st.integers(1, 40))
            size = lattice_size(T, d)
            start = data.draw(st.integers(0, size - 1))
            C = simplex._lattice_counts(T, d, size, start, min(size, start + length))
        else:
            T = 10**10 if regime == "vertex" else data.draw(st.sampled_from([1, 7, 60, 10**6]))
            w = rng.dirichlet(np.full(d, data.draw(st.sampled_from([0.02, 0.3, 1.0]))))
            w[rng.random(d) < 0.3] = 0.0
            w[rng.integers(d)] += 0.01
            if regime == "vertex":
                w = 3e-9 * w / w.sum() + (1.0 - 3e-9) * np.eye(d)[rng.integers(d)]
            C = np.unique(rng.multinomial(T, w / w.sum(), size=400), axis=0)
            start = data.draw(st.integers(0, len(C) - 1))
            C = C[start : start + length]
        spec = PredictorSpec(kind, data.draw(st.sampled_from([0.0, 0.02, 1.0])) if kind == "kl" else None)
        ratio = 100.0 if regime == "vertex" else data.draw(st.sampled_from([0.0, 1e-4, 0.02, 3.0]))
        p = rng.dirichlet(np.ones(d))
        p[rng.random(d) < 0.3] = 0.0
        p[rng.integers(d)] += 0.01
        truth = deviation._true_costs(problem, Distribution(p / p.sum()))
        ulps = data.draw(st.integers(-1, 1))
        # blocks: the first rows alone, where a value meets its bound, and
        # all of them; true costs at p, or for every decision alike on an
        # edge the screen tests: a value or its lower bound plus tie, or the
        # least upper bound plus two, give or take an ulp
        for rows in [slice(i, i + 1) for i in range(min(8, len(C)))] + [slice(None)]:
            Q = deviation._normalized_rows(C[rows], T)
            V = predictors._predictor_values(spec, L, Q, ratio, None, tie)[0]
            lower, upper = predictors._value_bounds(
                spec, L, Q.min(axis=0), Q.max(axis=0), ratio, tie
            )
            for edge in (None, V[rng.integers(len(Q))], lower, np.full(n, upper.min() + tie)):
                costs = truth
                if edge is not None:
                    costs = np.where(np.isinf(edge), truth, edge + tie)
                    costs = np.nextafter(costs, ulps * math.inf) if ulps else costs
                want = self._indicator(problem, spec, Q, costs, ratio)
                got = deviation._disappointment_indicator(
                    problem, spec, Mode.prescription(), Q, costs, ratio
                )
                assert np.array_equal(got, want), (rows, costs)

    @pytest.mark.parametrize("kind", ["saa", "svp"])
    def test_walk_values_few_points_and_keeps_few_decisions(self, kind, monkeypatch):
        # newsvendor at T = 120: 302,621 points on 7,381 lines, 9 decisions;
        # the screen settles whole groups of lines, the chords most segments
        boxes, valued = [], []
        screen, picked = deviation._screen, deviation._picked

        def counting_screen(costs, lower, upper, tie, margin):
            keep, every, none = screen(costs, lower, upper, tie, margin)
            if lower.ndim == 1:  # a group's or a block's box
                boxes.append(bool(every or none))
            return keep, every, none

        def counting_picked(problem, spec, rows, Q, *args):
            valued.append((Q.shape[0], rows.size))
            return picked(problem, spec, rows, Q, *args)

        monkeypatch.setattr(deviation, "_screen", counting_screen)
        monkeypatch.setattr(deviation, "_picked", counting_picked)
        disappointment_exact(
            problem := scenario("newsvendor.json"), PredictorSpec(kind),
            Mode.prescription(), problem.true_dist, 120, ExponentialRate(0.02),
        )
        points = sum(N for N, _ in valued)
        assert 0 < points <= 0.1 * lattice_size(120, 4)
        assert sum(boxes) >= 2
        assert sum(N * kept for N, kept in valued) <= 6.5 * points

    def test_robust_prescription_forms_no_moments(self, monkeypatch):
        passes = []
        block_moments, tie_moments = predictors._moments, decisions._moments

        def counting(moments):
            def count(L, W, *args, **kwargs):
                passes.append(W.shape[0])
                return moments(L, W, *args, **kwargs)
            return count

        monkeypatch.setattr(predictors, "_moments", counting(block_moments))
        monkeypatch.setattr(decisions, "_moments", counting(tie_moments))
        problem = scenario("newsvendor.json")
        rep = disappointment_exact(
            problem, PredictorSpec("robust"), Mode.prescription(), problem.true_dist,
            60, SCHED,
        )
        assert rep.probability == 0.0 and passes == []

    @pytest.mark.parametrize("block", [None, 50])  # None: default
    @pytest.mark.parametrize("kind", ["saa", "svp", "kl", "robust"])
    def test_prediction_mode_is_screened_only_when_walked(self, kind, block, monkeypatch):
        # a lattice in one slice: one predictor_value_rows call over all of
        # it and one moments pass in it, over the tested row (saa, svp and kl
        # at radius 0 read it), and no bounds.  At a 50-point slice its one
        # line is walked: the line's box is screened once, and its points
        # are valued through the walk's picks alone
        calls, passes, bounds = [], [], []
        rows, moments = deviation.predictor_value_rows, predictors._moments
        value_bounds = deviation._value_bounds

        def counting_bounds(*args):
            bounds.append(args)
            return value_bounds(*args)

        def counting_rows(problem, x, spec, Q, ratio=None):
            calls.append((x, Q.shape[0]))
            return rows(problem, x, spec, Q, ratio=ratio)

        def counting_moments(L, W, *args, **kwargs):
            passes.append((L.shape[0], W.shape[0]))
            return moments(L, W, *args, **kwargs)

        monkeypatch.setattr(deviation, "predictor_value_rows", counting_rows)
        monkeypatch.setattr(predictors, "_moments", counting_moments)
        monkeypatch.setattr(deviation, "_value_bounds", counting_bounds)
        if block is not None:
            monkeypatch.setattr(deviation, "_LATTICE_BLOCK", block)
        problem = scenario("newsvendor.json")
        spec = PredictorSpec(kind, 0.0 if kind == "kl" else None)
        disappointment_exact(  # the merged lattice of decision 4: 121 points
            problem, spec, Mode.prediction(4), problem.true_dist, 120, SCHED
        )
        if block is None:
            assert calls == [(0, 121)] and bounds == []
            assert passes == ([] if kind == "robust" else [(1, 121)])
        else:
            assert calls == [] and len(bounds) == 1
            assert all(L == 1 for L, _ in passes) and sum(N for _, N in passes) < 121


class TestLineWalk:
    """The exact engine values the ends and middles of the lattice's lines
    and settles the rest by concavity bounds (`deviation._walk`): every
    predictor stays within the walk's margin of a concave function along a
    line, and log p keeps the bits of valuing every point."""

    # T per merged dimension: lattices of up to about 2,000 points
    MAX_T = {2: 40, 3: 40, 4: 18, 5: 12, 6: 9}

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["saa", "svp", "robust", "kl"]),
        radius=st.sampled_from([1e-14, 1e-12, 0.05, 2.0]),
        block=st.sampled_from([1, 2, 7, 50]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 1e6]),
    )
    def test_log_probability_matches_the_per_point_oracle(
        self, data, seed, kind, radius, block, scale, offset
    ):
        # small blocks: lattices span several groups, and segments split
        rng = np.random.default_rng(seed)
        d, n = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 5))
        T = data.draw(st.integers(1, self.MAX_T[d]))
        # integer losses tie exactly; noise on some rows breaks the ties
        noise = rng.choice([0.0, 0.1], (n, 1)) * rng.normal(size=(n, d))
        L = rng.integers(-3, 4, size=(n, d)) + noise
        w = rng.dirichlet(np.ones(d))
        w[rng.random(d) < 0.3] = 0.0
        w[rng.integers(d)] += 0.01
        perm = rng.permutation(d)
        problem = Problem(
            LossMatrix((L * scale + offset)[:, perm]), Distribution((w / w.sum())[perm])
        )
        spec = PredictorSpec(kind, radius if kind == "kl" else None)
        schedule = data.draw(st.sampled_from([ExponentialRate(0.05), PowerLaw(1.0, 0.5)]))
        mode = data.draw(
            st.sampled_from([Mode.prescription(), Mode.prediction(int(rng.integers(n)))])
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(deviation, "_LATTICE_BLOCK", block)
            got = disappointment_exact(problem, spec, mode, problem.true_dist, T, schedule)
        want = oracles.exact_log_p(problem, spec, mode, problem.true_dist, T, schedule)
        assert got.log_probability.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["saa", "svp", "robust", "kl"]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 1e6]),
    )
    def test_values_are_concave_along_a_line_within_the_margin(
        self, data, seed, kind, scale, offset
    ):
        # the premise of the walk: a predictor that is not concave along the
        # lines fails here rather than moving exact bits
        rng = np.random.default_rng(seed)
        d, n = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 6))
        T = data.draw(st.integers(2, 80))
        R = data.draw(st.integers(2, T))
        # prefixes with zero counts: weight rows on the simplex's faces
        prefix = rng.multinomial(T - R, rng.dirichlet(np.full(d - 2, 0.3))) if d > 2 else []
        P = np.append(prefix, R)[None, :].astype(np.int64)
        k = np.arange(R + 1)
        C = np.column_stack([np.repeat(P[:, :-1], R + 1, axis=0), k, R - k])
        noise = rng.choice([0.0, 0.1], (n, 1)) * rng.normal(size=(n, d))
        L = rng.integers(-3, 4, size=(n, d)) + noise
        problem = Problem(LossMatrix(L * scale + offset))
        L = problem.loss.values
        ratio = data.draw(st.sampled_from([1e-4, 0.02, 3.0]))
        # the kl kernel's rounding grows like 1/sqrt(r) at tiny radii
        radius = data.draw(st.sampled_from([0.0, 1e-14, 1e-12, 0.02, 0.5, 3.0]))
        spec = PredictorSpec(kind, radius if kind == "kl" else None)
        V = predictors._predictor_values(spec, L, deviation._normalized_rows(C, T), ratio)[0].T
        rows = np.arange(n)
        *_, margin = deviation._box_screen(
            problem, spec, rows, *deviation._line_box(P, T), np.zeros(n), ratio
        )
        pad = deviation._pad(spec, L, margin)
        assert (np.diff(V, 2, axis=1) <= pad).all()
        # the walk's bounds on segments between valued points hold inside,
        # from the chord through each valued neighbour in turn
        for _ in range(4):
            extra = rng.choice(R + 1, size=int(rng.integers(0, R // 2 + 1)))
            valued = np.unique(np.concatenate([[0, R // 2, R], extra]))
            for i in np.flatnonzero(np.diff(valued) > 1):
                a, b = valued[i], valued[i + 1]
                sides = [(a, b, valued[i - 1])] if i > 0 else []
                sides += [(b, a, valued[i + 2])] if i + 2 < valued.size else []
                for e, f, c in sides:
                    lower, upper = deviation._chord(
                        V[:, [e]], V[:, [f]], V[:, [c]], np.array([b - a]),
                        np.array([abs(e - c)]), pad,
                    )
                    inside = V[:, a + 1:b]
                    assert (lower <= inside).all() and (inside <= upper).all(), (e, f, c)

    def test_a_tiny_kl_radius_keeps_the_bits_of_the_per_point_oracle(self, monkeypatch):
        # at r = 1e-14 the kernel's alpha - e loses about 1e-8 spans, past a
        # margin of _KL_TOL spans: a chord bound settled a segment wrongly
        # and log p moved in its last bit
        problem = Problem(
            LossMatrix([
                [983.4868548615788, -1954.5045892552632, -2898.483019006636, 1906.1560741677329],
                [-2857.835840284739, 2828.650340588138, -2990.9242147073123, 2772.594594579325],
                [-3000.0, 0.0, -2000.0, -2000.0],
            ]),
            Distribution([0.33565070356636323, 0.09506946764635603, 0.0, 0.5692798287872807]),
        )
        spec, schedule = PredictorSpec("kl", 1e-14), PowerLaw(1.0, 0.5)
        want = oracles.exact_log_p(problem, spec, Mode.prescription(), problem.true_dist, 14, schedule)
        monkeypatch.setattr(deviation, "_LATTICE_BLOCK", 2)
        got = disappointment_exact(problem, spec, Mode.prescription(), problem.true_dist, 14, schedule)
        assert got.log_probability.hex() == want.hex()

    @pytest.mark.parametrize("kind, radius", [("saa", None), ("svp", None), ("kl", 0.05)])
    def test_a_long_line_splits_at_the_default_slice(self, kind, radius, monkeypatch):
        # coin at T = 20,000 in prediction mode is one line of 20,001 points,
        # past one slice: svp and kl split a half and value the 4,999 points
        # left open in one slice; saa is linear, settled by its first three
        sizes = []
        picked = deviation._picked

        def recording(problem, spec, rows, Q, *args):
            sizes.append(Q.shape[0])
            return picked(problem, spec, rows, Q, *args)

        problem, spec = scenario("coin.json"), PredictorSpec(kind, radius)
        monkeypatch.setattr(deviation, "_picked", recording)
        args = (problem, spec, Mode.prediction(1), problem.true_dist, 20_000, SCHED)
        got = disappointment_exact(*args)
        monkeypatch.undo()
        if kind == "saa":
            assert sizes == [3]
        else:
            assert len(sizes) == 3 and sum(sizes) == 5_003
        want = oracles.exact_log_p(*args)
        assert got.log_probability.hex() == want.hex()

    @pytest.mark.parametrize("kind", ["saa", "svp"])
    @pytest.mark.parametrize("block, T", [(None, 120), (32, 20)])  # None: default
    def test_the_walk_values_no_point_twice(self, kind, block, T, monkeypatch):
        # a line's middle and ends coincide where R < 2, and the points a
        # split values lie inside open segments only
        counts, lines = [], []
        picked, walk = deviation._picked, deviation._walk

        def recording_picked(problem, spec, rows, Q, *args):
            counts.append(np.rint(Q * T).astype(np.int64))
            return picked(problem, spec, rows, Q, *args)

        def recording_walk(problem, spec, mode, P, *args):
            before = len(counts)
            runs = walk(problem, spec, mode, P, *args)
            if len(counts) > before:  # the box screen left the group open
                lines.append(P[:, -1])
            return runs

        monkeypatch.setattr(deviation, "_picked", recording_picked)
        monkeypatch.setattr(deviation, "_walk", recording_walk)
        if block is not None:
            monkeypatch.setattr(deviation, "_LATTICE_BLOCK", block)
        problem = scenario("newsvendor.json")
        disappointment_exact(
            problem, PredictorSpec(kind), Mode.prescription(), problem.true_dist, T,
            ExponentialRate(0.02),
        )
        C, R = np.concatenate(counts), np.concatenate(lines)
        assert (R == 0).any() and (R == 1).any() and (R > 2).any()
        assert np.unique(C, axis=0).shape[0] == C.shape[0]

    def test_a_bound_that_reads_a_value_that_is_not_finite_decides_nothing(self):
        # kl's Pinsker screen reads +inf for a pair it skips: a chord through
        # it would bound the segment by -inf from above
        one, inf = np.ones((1, 1)), np.full((1, 1), np.inf)
        span, step, pad = np.array([4]), np.array([1]), np.zeros((1, 1))
        lower, upper = deviation._chord(one, one, inf, span, step, pad)
        assert lower[0, 0] == 1.0 and upper[0, 0] == np.inf
        for Ve, Vf in ((inf, one), (one, inf)):
            lower, upper = deviation._chord(Ve, Vf, one, span, step, pad)
            assert lower[0, 0] == -np.inf and upper[0, 0] == np.inf

    @pytest.mark.parametrize(
        "name, mode, T",
        [("coin.json", Mode.prediction(1), 500), ("newsvendor.json", Mode.prescription(), 12)],
    )
    def test_a_lattice_in_one_slice_is_valued_in_one_pass(self, name, mode, T, monkeypatch):
        # the fixed cost of small calls, such as the 12 of the disappoint_coin
        # config: no prefix rows, one rank range, one indicator pass and one
        # log-pmf pass, as a block of the rank-block engine
        ranges, indicators, log_pmfs = [], [], []
        lattice, indicator, log_pmf = (
            deviation._lattice_counts, deviation._disappointment_indicator, deviation._log_pmf_rows
        )

        def recording_lattice(T, d, cap, start, stop, *args):
            ranges.append((d, start, stop))
            return lattice(T, d, cap, start, stop, *args)

        def recording_indicator(problem, spec, mode, Q, *args):
            indicators.append(Q.shape[0])
            return indicator(problem, spec, mode, Q, *args)

        def recording_log_pmf(C, *args):
            log_pmfs.append(C.shape[0])
            return log_pmf(C, *args)

        monkeypatch.setattr(deviation, "_lattice_counts", recording_lattice)
        monkeypatch.setattr(deviation, "_disappointment_indicator", recording_indicator)
        monkeypatch.setattr(deviation, "_log_pmf_rows", recording_log_pmf)
        problem = scenario(name)
        rep = disappointment_exact(
            problem, PredictorSpec("saa"), mode, problem.true_dist, T, PowerLaw(1.0, 0.5)
        )
        d = problem.n_scenarios
        assert ranges == [(d, 0, lattice_size(T, d))] and indicators == [lattice_size(T, d)]
        assert len(log_pmfs) == 1 and rep.probability > 0.0


class TestScenarioMerge:
    """Scenarios the tested losses cannot tell apart are merged before the
    lattice is enumerated or sampled; the probability must not move."""

    SCHEDULE = ExponentialRate(0.05)
    T = 8

    @staticmethod
    def _problem(seed):
        # d = 6 scenarios over k = 3 loss columns, so equal columns and
        # equal losses within rows; p has a zero inside the largest group
        rng = np.random.default_rng(seed)
        labels = np.concatenate([[0, 0, 1, 2], rng.integers(0, 3, size=2)])
        base = rng.integers(-2, 3, size=(4, 3)).astype(float)
        base[:, 0] += 0.5 * (np.ptp(base, axis=1) == 0)  # no constant row
        L = base[:, labels]
        w = rng.dirichlet(np.ones(6))
        w[1] = 0.0
        decision = int(np.argmax([np.unique(row).size for row in L]))
        return make_problem(L, w / w.sum()), decision

    @classmethod
    def _cases(cls):
        for seed in range(5):
            problem, decision = cls._problem(seed)
            for kind in ("saa", "svp", "robust", "kl"):
                for mode in (Mode.prediction(decision), Mode.prescription()):
                    yield seed, problem, PredictorSpec(kind), mode

    @classmethod
    def _unmerged_log_p(cls, problem, spec, mode):
        T, p = cls.T, problem.true_dist
        C = simplex._lattice_counts(T, problem.n_scenarios)
        ind = deviation._disappointment_indicator(
            problem, spec.resolved(cls.SCHEDULE), mode,
            deviation._normalized_rows(C, T), deviation._true_costs(problem, p),
            speed_ratio(cls.SCHEDULE, T),
        )
        if not ind.any():
            return -math.inf
        return min(float(logsumexp(simplex._log_pmf_rows(C[ind], p, T))), 0.0)

    def test_exact_matches_the_unmerged_lattice(self):
        merged_dims = set()
        for seed, problem, spec, mode in self._cases():
            p = problem.true_dist
            merged = deviation._prepare(problem, spec, mode, p, self.SCHEDULE)[0]
            merged_dims.add(merged.n_scenarios)
            assert merged.n_scenarios < problem.n_scenarios, (seed, mode)
            want = self._unmerged_log_p(problem, spec, mode)
            rep = disappointment_exact(problem, spec, mode, p, self.T, self.SCHEDULE)
            got = rep.log_probability
            assert (got == want) or abs(got - want) <= 1e-12 * abs(want), (
                seed, spec.kind, mode, got, want)
            assert rep.mode == mode
        assert merged_dims == {2, 3}

    def test_sampling_stays_within_four_sigma_of_exact(self):
        n = 20_000
        for seed, problem, spec, mode in self._cases():
            p = problem.true_dist
            exact = disappointment_exact(problem, spec, mode, p, self.T, self.SCHEDULE)
            pe = exact.probability
            sigma = math.sqrt(pe * (1.0 - pe) / n)
            mc = disappointment_mc(
                problem, spec, mode, p, self.T, self.SCHEDULE, n, seed
            )
            assert abs(mc.probability - pe) <= 4.0 * sigma, (seed, spec.kind, mode)
            assert mc.mode == mode
            # interior, and not proportional to p inside any merged group
            rng = np.random.default_rng(100 + seed)
            shift = Distribution(0.5 * p.weights + 0.5 * rng.dirichlet(np.ones(6)))
            is_ = disappointment_importance(
                problem, spec, mode, p, self.T, self.SCHEDULE, shift, n, seed
            )
            yard = 4.0 * max(is_.method.std_err, sigma)
            assert abs(is_.probability - pe) <= yard, (seed, spec.kind, mode)
            assert is_.mode == mode
            assert is_.method.shift is shift

    def test_problems_that_do_not_merge_are_left_as_they_are(self):
        problem = scenario("newsvendor.json")
        p, spec = problem.true_dist, PredictorSpec("saa")
        for mode in (Mode.prediction(8), Mode.prescription()):
            got = deviation._prepare(problem, spec, mode, p, SCHED, HALF)
            assert got[0] is problem and got[2] is mode
            assert got[3] is p and got[4] is HALF
        # a constant row folds to two groups, on two scenarios no merge at all
        got = deviation._prepare(COIN, spec, Mode.prediction(0), HALF, SCHED)
        assert got[0] is COIN

    def test_a_single_loss_value_folds_to_two_groups(self, monkeypatch):
        # newsvendor decision 0 loses 0 in every scenario; a problem of
        # constant rows cannot tell any scenario apart in prescription mode
        # either: both walk T + 1 points, not comb(T + 3, 3), and never
        # disappoint
        rows = []
        real = deviation._lattice_counts

        def counting(*args, **kwargs):
            C = real(*args, **kwargs)
            rows.append(C.shape[0])
            return C

        monkeypatch.setattr(deviation, "_lattice_counts", counting)
        newsvendor = scenario("newsvendor.json")
        constant = make_problem([[1.0] * 4, [0.5] * 4], newsvendor.true_dist.weights)
        T = 120
        for problem, mode in ((newsvendor, Mode.prediction(0)), (constant, Mode.prescription())):
            for kind in ("saa", "svp"):
                rows.clear()
                rep = disappointment_exact(
                    problem, PredictorSpec(kind), mode, problem.true_dist, T, SCHED
                )
                assert sum(rows) == T + 1, (mode, kind)
                assert rep.probability == 0.0 and rep.mode == mode
            merged, _, _, p, _ = deviation._prepare(
                problem, PredictorSpec("saa"), mode, problem.true_dist, SCHED
            )
            assert merged.n_scenarios == 2
            assert p.weights.tolist() == pytest.approx([0.2, 0.8])
            mc = disappointment_mc(
                problem, PredictorSpec("svp"), mode, problem.true_dist, T, SCHED, 1_000, 1
            )
            assert mc.probability == 0.0

    def test_merged_problem_keeps_the_tie_windows(self):
        problem = scenario("newsvendor.json")
        merged = deviation._prepare(
            problem, PredictorSpec("saa"), Mode.prediction(3), problem.true_dist, SCHED
        )[0]
        assert merged.loss.values.tolist() == [[-1.5, -0.5]]
        assert merged.loss.k_half == 1.5 < problem.loss.k_half
        assert merged.loss.tie_window == problem.loss.tie_window
        assert merged.loss.var_window == problem.loss.var_window


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

    # Every whole number that enters the library follows one rule.  Per
    # entry: the argument's name, a call with n in its place, and where the
    # result keeps n (None where it keeps nothing, or where the type check
    # would hold without the rule)
    RUNS = {
        "mc": ("n_samples", lambda n: disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED, n, 1),
            lambda rep: rep.method.n_samples),
        "importance": ("n_samples", lambda n: disappointment_importance(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED, HALF, n, 1),
            lambda rep: rep.method.n_samples),
        "T-speed_ratio": ("sample size T", lambda n: speed_ratio(SCHED, n), None),
        "T-exact": ("sample size T", lambda n: disappointment_exact(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, n, SCHED),
            lambda rep: rep.T),
        "T-mc": ("sample size T", lambda n: disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, n, SCHED, 100, 1),
            lambda rep: rep.T),
        "T-importance": ("sample size T", lambda n: disappointment_importance(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, n, SCHED, HALF, 100, 1),
            lambda rep: rep.T),
        "T-rate_curve": ("sample size T", lambda n: rate_curve(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, SCHED, [n]), None),
        "T-table": ("table T", lambda n: CustomTable(((n, 1.0),)), None),
        "sample_size": ("sample_size", lambda n: EmpiricalDistribution((1000, 1000), n), None),
        "decision-index": ("decision index", lambda n: cost(COIN, n, HALF), None),
        "decision-mode": ("decision index", lambda n: Mode("prediction", n),
                          lambda mode: mode.decision),
        "seed": ("seed", lambda n: disappointment_mc(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED, 100, n), None),
        "seed-importance": ("seed", lambda n: disappointment_importance(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED, HALF, 100, n), None),
        "cap": ("cap", lambda n: disappointment_exact(
            COIN, PredictorSpec("saa"), Mode.prediction(1), HALF, 5, SCHED, cap=n), None),
    }

    @pytest.mark.parametrize("n", [1000.7, 0.5, True, np.bool_(True), math.nan, "1000"])
    @pytest.mark.parametrize("path", sorted(RUNS))
    def test_rejects_a_sample_size_that_is_not_an_integer(self, path, n, monkeypatch):
        # a truncating int() ran 1000.7 as 1000 and True as 1, with no error
        def no_work(*args, **kwargs):
            raise AssertionError("sampling work with a bad whole number")

        monkeypatch.setattr(deviation, "_sample_histogram", no_work)
        what, call, _ = self.RUNS[path]
        with pytest.raises(ValidationError, match="%s must be an integer" % what):
            call(n)

    @pytest.mark.parametrize("n", [np.int32(2_000), 2e3, np.float64(2_000.0)])
    @pytest.mark.parametrize("path", sorted(k for k, run in RUNS.items() if run[2]))
    def test_integral_sample_sizes_are_ints(self, path, n):
        _, call, kept = self.RUNS[path]
        rep = call(n)
        assert rep == call(2_000)
        assert type(kept(rep)) is int


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
            rows = _sample_count_rows(np.full(d, 1.0 / d), np.full(n, T), simplex._philox(T))
            self._check(rows, T)

    def test_fallback_path_beyond_int64_keys(self):
        T, d = 10, 25
        assert (T + 1) ** (d - 1) >= 2**63
        w = np.random.default_rng(0).dirichlet(np.full(d, 0.3))
        self._check(_sample_count_rows(w, np.full(3000, T), simplex._philox(4)), T)



class TestSampleHistogram:
    """The histogram sampler draws the distinct rows and multiplicities of
    n i.i.d. multinomial rows; its law is checked against the pmf."""

    @staticmethod
    def _tally(w, T, n, seeds):
        # multiplicity per lattice point, summed over seeds; rows are
        # matched to the lattice by their radix-(T + 1) keys
        d = len(w)
        lattice = simplex._lattice_counts(T, d)
        radix = (T + 1) ** np.arange(d - 1, -1, -1)
        order = np.argsort(lattice @ radix)
        sorted_keys = (lattice @ radix)[order]
        total = np.zeros(len(lattice))
        for seed in seeds:
            uniq, mult = _sample_histogram(np.asarray(w), T, n, seed)
            assert mult.sum() == n and (mult > 0).all()
            assert (uniq.sum(axis=1) == T).all()
            keys = uniq @ radix
            assert (np.diff(keys) > 0).all()  # distinct, lexicographic
            np.add.at(total, order[np.searchsorted(sorted_keys, keys)], mult)
        return lattice, total

    @staticmethod
    def _count_per_sample_draws(monkeypatch):
        # (cells, samples) of every per-sample draw
        calls = []
        real = deviation._sample_count_rows

        def counting(weights, totals, rng):
            calls.append((len(weights), len(totals)))
            return real(weights, totals, rng)

        monkeypatch.setattr(deviation, "_sample_count_rows", counting)
        return calls

    @pytest.mark.parametrize("w, T, n", [
        ((0.3, 0.7), 24, 100),
        ((0.5, 0.3, 0.2), 8, 200),
        ((0.6, 0.4, 0.0), 8, 200),  # a trailing zero weight
        ((0.2, 0.0, 0.5, 0.3), 5, 300),  # an inner zero weight
        ((0.1, 0.2, 0.3, 0.4), 6, 400),
    ])
    def test_mean_multiplicities_match_the_multinomial_pmf(self, w, T, n):
        from scipy.stats import chi2

        seeds = range(2_000)
        assert (T + 1) ** (len(w) - 1) <= n  # every level is a histogram level
        lattice, observed = self._tally(w, T, n, seeds)
        expected = len(seeds) * n * np.exp(
            simplex._log_pmf_rows(lattice, Distribution(w), T)
        )
        assert observed[expected == 0.0].sum() == 0  # nothing off support(p)
        big = expected >= 5.0  # pool the sparse cells into one
        O = np.append(observed[big], observed[~big].sum())
        E = np.append(expected[big], expected[~big].sum())
        keep = E > 0.0
        stat = float(((O[keep] - E[keep]) ** 2 / E[keep]).sum())
        dof = int(keep.sum()) - 1
        assert stat <= chi2.ppf(1.0 - 1e-6, dof), (stat, dof)

    def test_switches_to_per_sample_draws_when_a_level_outgrows_n(self, monkeypatch):
        # T = 300, d = 3, n = 5,000: the first cell is a histogram level
        # (301 cells), the second would need (distinct prefixes) x 301 cells
        # and is drawn per sample; the answer stays within 4 sigma of exact
        calls = self._count_per_sample_draws(monkeypatch)
        T, n = 300, 5_000
        w = np.array([0.5, 0.3, 0.2])
        uniq, mult = _sample_histogram(w, T, n, 3)
        assert calls == [(2, n)]
        assert mult.sum() == n
        assert np.array_equal(uniq, np.unique(uniq, axis=0))

        problem = make_problem([[0.0, 1.0, 3.0]], true_dist=w)
        spec, mode, sched = PredictorSpec("saa"), Mode.prediction(0), SCHED
        exact = disappointment_exact(problem, spec, mode, problem.true_dist, T, sched)
        pe = exact.probability
        sigma = math.sqrt(pe * (1.0 - pe) / n)
        assert 0.1 < pe < 0.9
        for seed in range(3):
            calls.clear()
            mc = disappointment_mc(problem, spec, mode, problem.true_dist, T, sched, n, seed)
            assert calls == [(2, n)]
            assert abs(mc.probability - pe) <= 4.0 * sigma, (seed, mc.probability, pe)

    def test_draws_per_sample_when_T_reaches_n(self, monkeypatch):
        calls = self._count_per_sample_draws(monkeypatch)
        uniq, mult = _sample_histogram(np.array([0.25, 0.75]), 1_000, 1_000, 9)
        assert calls == [(2, 1_000)] and mult.sum() == 1_000

    def test_memory_follows_the_distinct_rows_not_the_samples(self):
        # 1e6 samples of the newsvendor prescription at T = 200: stacking
        # the count rows alone takes 32 MB
        problem = scenario("newsvendor.json")
        tracemalloc.start()
        try:
            disappointment_mc(
                problem, PredictorSpec("svp"), Mode.prescription(),
                problem.true_dist, 200, ExponentialRate(0.02), 1_000_000, 5,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak


class TestSampledStreaming:
    """Monte Carlo and importance sampling draw each histogram level in runs
    of at most `_LATTICE_BLOCK` cells and evaluate the distinct rows in
    slices of `_LATTICE_BLOCK`; no report may depend on the block size."""

    # (T, n_samples) per patched block size: the distinct rows, and the
    # cells of some level, outnumber the block
    SIZES = {1: (8, 2_000), 7: (20, 20_000), 4096: (60, 200_000)}

    @staticmethod
    def _reports(problem, T, n):
        sched = ExponentialRate(0.05)
        out = []
        for kind in ("saa", "svp", "kl"):
            for mode in (Mode.prediction(4), Mode.prescription()):
                spec = PredictorSpec(kind)
                shift = importance_shift(problem, mode, problem.true_dist, speed_ratio(sched, T))
                for rep in (
                    disappointment_mc(problem, spec, mode, problem.true_dist, T, sched, n, 3),
                    disappointment_importance(
                        problem, spec, mode, problem.true_dist, T, sched, shift, n, 4
                    ),
                ):
                    m = rep.method
                    out.append([
                        float(x).hex() if x is not None else None
                        for x in (rep.probability, rep.log_probability, m.std_err, m.ess)
                    ])
        return out

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_reports_do_not_depend_on_the_block(self, block, monkeypatch):
        problem = scenario("newsvendor.json")
        T, n = self.SIZES[block]
        want = self._reports(problem, T, n)
        slices, draws = [], []
        real_rows, real_philox = deviation._normalized_rows, deviation._philox

        class Recording:  # the generator, counting its 2-D multinomial calls
            def __init__(self, seed):
                self.rng = real_philox(seed)

            def multinomial(self, totals, pvals):
                draws.append(np.ndim(pvals) == 2)
                return self.rng.multinomial(totals, pvals)

        def recording(C, T, work=None):
            slices.append(C.shape[0])
            return real_rows(C, T, work)

        monkeypatch.setattr(deviation, "_normalized_rows", recording)
        monkeypatch.setattr(deviation, "_philox", Recording)
        monkeypatch.setattr(deviation, "_LATTICE_BLOCK", block)
        got = self._reports(problem, T, n)
        monkeypatch.undo()
        assert got == want
        # 12 estimates of at most d - 1 = 3 levels: more 2-D calls means
        # some level was split; more slices means some rows were
        assert sum(draws) > 12 * 3
        assert len(slices) > 12 and max(slices) == block

    @pytest.mark.parametrize("kind", ["saa", "svp"])
    @pytest.mark.parametrize("method", ["mc", "importance"])
    def test_slices_reuse_one_workspace(self, kind, method, monkeypatch):
        # as in the exact engine: nothing of block size is allocated or
        # freed after the first slice (weights) or after the first slice
        # that evaluates (moments, values and pick)
        snapshots, kept = [], {}
        indicator, values = deviation._disappointment_indicator, deviation._predictor_values

        def recording(*args):
            ind = indicator(*args)
            snapshots.append(dict(args[-1]))  # the workspace, role -> buffer
            return ind

        def evaluating(spec, L, *args):
            kept[len(snapshots)] = L.shape[0]
            return values(spec, L, *args)

        problem, sched, mode = scenario("newsvendor.json"), ExponentialRate(0.02), Mode.prescription()
        shift = importance_shift(problem, mode, problem.true_dist, speed_ratio(sched, 200))
        monkeypatch.setattr(deviation, "_disappointment_indicator", recording)
        monkeypatch.setattr(deviation, "_predictor_values", evaluating)
        args = (problem, PredictorSpec(kind), mode, problem.true_dist, 200, sched)
        if method == "mc":  # 33,412 distinct rows: five slices
            disappointment_mc(*args, 1_000_000, 5)
        else:
            disappointment_importance(*args, shift, 1_000_000, 5)
        assert len(snapshots) >= 4
        for later in snapshots[1:]:
            assert later["Q"] is snapshots[0]["Q"]
        first = min(kept)
        roles = {"mean", "t", "best", "window", "inside", "both", "seen", "tied", "ahead",
                 "pick"}
        if kind == "svp":
            roles |= {"var", "values"}
        assert roles <= snapshots[first].keys()
        for later in snapshots[first + 1:]:
            assert all(later[role] is snapshots[first][role] for role in roles)

    def test_memory_follows_the_block(self):
        # the newsvendor svp prescription at T = 200, n = 1e6 (33,412
        # distinct rows): evaluating them in one pass, and each level in
        # one multinomial call, peaked near 9 MB
        problem, sched, mode = scenario("newsvendor.json"), ExponentialRate(0.02), Mode.prescription()
        args = (problem, PredictorSpec("svp"), mode, problem.true_dist, 200, sched)
        shift = importance_shift(problem, mode, problem.true_dist, speed_ratio(sched, 200))
        for run in (
            lambda: disappointment_mc(*args, 1_000_000, 5),
            lambda: disappointment_importance(*args, shift, 1_000_000, 5),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6e6, peak


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

    @pytest.mark.parametrize("ratio", [-1.0, math.nan, math.inf])
    def test_rejects_a_ratio_that_is_negative_nan_or_infinite(self, ratio):
        # -1 raised a bare math domain error; NaN was blamed on the weights
        for mode in (Mode.prediction(1), Mode.prescription()):
            with pytest.raises(ValidationError, match="ratio"):
                importance_shift(COIN, mode, HALF, ratio)

    def test_extreme_p_keeps_interior_shift(self):
        p = Distribution((0.99, 0.01))
        q = importance_shift(COIN, Mode.prediction(1), p, 0.1)
        assert q.is_interior
        assert q.weights.min() >= 0.05 * p.weights.min() * 0.99


def shift_from_public_views(problem, mode, p, ratio):
    """importance_shift composed from the public views, one moments pass
    each: the pick from the svp values and variances, then the tilt from
    variance and svp_direction."""
    w = p.weights
    x = mode.decision
    if mode.kind == "prescription":
        W = w[None, :]
        values = predictor_value_matrix(problem, PredictorSpec("svp"), W, ratio=ratio)
        x = int(select_decisions(problem, values, variance_matrix(problem, W))[0])
    q = w
    if variance(problem, x, p) > 0.0:
        q = w - math.sqrt(2.0 * ratio) * svp_direction(problem, x, p)
    q = np.maximum(q, 1e-9)
    q = q / q.sum()
    q = np.maximum(0.95 * q + 0.05 * w, 1e-12)
    return Distribution(q / q.sum()).weights


class TestImportanceShiftMoments:
    """The shift reads the picked decision's mean and variance off the
    moments pass that picks it, with the bits of the public views."""

    @pytest.mark.parametrize(
        "mode", [Mode.prediction(3), Mode.prescription()], ids=["prediction", "prescription"]
    )
    def test_one_moments_pass_per_shift(self, monkeypatch, mode):
        calls = []
        original = decisions._moments

        def counting(L, W, work=None):
            calls.append(L.shape[0])
            return original(L, W, work)

        for module in (decisions, predictors, deviation):
            monkeypatch.setattr(module, "_moments", counting)
        problem = scenario("newsvendor.json")
        q = importance_shift(problem, mode, problem.true_dist, 0.02)
        assert q != problem.true_dist  # the picked decision has a direction
        assert len(calls) == 1

    def test_bits_match_the_public_views(self):
        rng = np.random.default_rng(5)
        problems = [COIN, scenario("newsvendor.json"), scenario("absolute_loss_grid.json")]
        cases = 0
        for problem in problems:
            d, n = problem.loss.n_scenarios, problem.n_decisions
            decisions_tested = range(n) if n < 20 else range(0, n, 10)
            modes = [Mode.prediction(x) for x in decisions_tested] + [Mode.prescription()]
            for alpha in (0.3, 1.0, 5.0, 50.0):
                p = Distribution(rng.dirichlet(np.full(d, alpha)))
                for mode in modes:
                    for ratio in (0.0005, 0.02, 0.1):
                        got = importance_shift(problem, mode, p, ratio).weights
                        want = shift_from_public_views(problem, mode, p, ratio)
                        assert [float(v).hex() for v in got] == [
                            float(v).hex() for v in want
                        ], (mode, ratio)
                        cases += 1
        assert cases == 4 * 3 * (3 + 10 + 12)


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
        # a cap of 10**40 leaves this lattice to importance sampling;
        # decision 8 has four distinct losses, so nothing merges
        problem = scenario("newsvendor.json")
        T, mode, spec, p = 4194304, Mode.prediction(8), PredictorSpec("saa"), problem.true_dist
        assert 2**63 - 1 < lattice_size(T, 4) < 10**40
        pts = rate_curve(
            problem, spec, mode, p, SCHED, [T], cap=10**40, n_samples=2_000, seed=1,
        )
        shift = importance_shift(problem, mode, p, speed_ratio(SCHED, T))
        want = disappointment_importance(problem, spec, mode, p, T, SCHED, shift, 2_000, 1)
        assert pts == [(T, want.rate)]

    def test_merged_lattice_past_int64_ranks_runs_exactly(self):
        # decision 4's losses (0, -2, -2, -2) merge to d' = 2: its T + 1
        # merged lattice points fit the cap although comb(T + 3, 3) does not
        problem = scenario("newsvendor.json")
        T, mode, spec, p = 4194304, Mode.prediction(4), PredictorSpec("saa"), problem.true_dist
        pts = rate_curve(problem, spec, mode, p, SCHED, [T], cap=10**40)
        want = disappointment_exact(problem, spec, mode, p, T, SCHED, cap=T + 1)
        assert want.method.name == "exact"
        assert pts == [(T, want.rate)]
        assert -1.0 < want.rate < 0.0


class TestSampleSizeCheck:
    """T < 1 is rejected as invalid input before any lattice or sampling
    work, on every path of the laboratory."""

    RUNS = {
        "exact": lambda mode, T: disappointment_exact(
            COIN, PredictorSpec("saa"), mode, HALF, T, SCHED),
        "mc": lambda mode, T: disappointment_mc(
            COIN, PredictorSpec("saa"), mode, HALF, T, SCHED, 100, 1),
        "importance": lambda mode, T: disappointment_importance(
            COIN, PredictorSpec("saa"), mode, HALF, T, SCHED, HALF, 100, 1),
        "rate_curve": lambda mode, T: rate_curve(
            COIN, PredictorSpec("saa"), mode, HALF, SCHED, [10, T], seed=1),
    }

    @pytest.mark.parametrize("T", [0, -3])
    @pytest.mark.parametrize("mode", [Mode.prediction(1), Mode.prescription()],
                             ids=["prediction", "prescription"])
    @pytest.mark.parametrize("path", sorted(RUNS))
    def test_rejects_T_below_one_before_any_work(self, path, mode, T, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("lattice or sampling work at T < 1")

        for name in ("_capped_size", "_lattice_counts", "_sample_histogram"):
            monkeypatch.setattr(deviation, name, no_work)
        with pytest.raises(ValidationError, match="T must be >= 1"):
            self.RUNS[path](mode, T)


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

    def test_bits_match_the_scipy_logsumexp_reference(self, monkeypatch):
        # the rate reduces its log moment generating function with
        # deviation._log_sum_exp; the reference runs the same bisection
        # with scipy.special.logsumexp
        rng = np.random.default_rng(21)
        newsvendor = scenario("newsvendor.json")
        cases = []
        for x in range(newsvendor.n_decisions):
            row = newsvendor.loss.values[x]
            for u in (0.05, 0.3, 0.6, 0.95):
                cases.append((newsvendor, x, newsvendor.true_dist,
                              row.min() + u * (row.max() - row.min())))
        cases += [(COIN, 1, HALF, m) for m in (0.01, 0.25, 0.49, 0.51, 0.9)]
        for _ in range(200):
            d = int(rng.integers(2, 7))
            row = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=d)
            p = Distribution(rng.dirichlet(np.ones(d)))
            m = row.min() + rng.uniform(0.01, 0.99) * (row.max() - row.min())
            cases.append((make_problem([row]), 0, p, m))
        got = [theoretical_rate_saa(*case) for case in cases]
        monkeypatch.setattr(deviation, "_log_sum_exp", lambda a: float(logsumexp(a)))
        want = [theoretical_rate_saa(*case) for case in cases]
        assert [g.hex() for g in got] == [w.hex() for w in want]
        assert sum(0.0 < g < math.inf for g in got) >= 200

    def test_monotone_away_from_the_mean(self):
        rates = [
            theoretical_rate_saa(COIN, 1, HALF, m=m)
            for m in (0.45, 0.35, 0.25, 0.15)
        ]
        assert rates == sorted(rates)
