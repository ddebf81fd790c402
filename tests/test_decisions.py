import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (
    Distribution,
    LossMatrix,
    Problem,
    ScenarioFormatError,
    ValidationError,
    cost,
    load_scenario,
    min_variance_minimizer,
    variance,
    variance_matrix,
)
from ddlab.decisions import _pick_decisions, select_decisions
from oracles import save_scenario


class TestLossMatrix:
    def test_basic_shape(self):
        m = LossMatrix([[0.0, 1.0], [0.5, 0.5]])
        assert m.n_decisions == 2
        assert m.n_scenarios == 2

    def test_rejects_nonfinite_and_names_cell(self):
        with pytest.raises(ValidationError) as exc:
            LossMatrix([[0.0, math.nan], [0.5, 0.5]])
        msg = str(exc.value)
        assert "0" in msg and "1" in msg

    def test_takes_only_real_numbers(self):
        # np.asarray([["0.5", True], [0, 1]], dtype=float) read 0.5 and 1.0
        for loss in ([["0.5", 1.0], [0, 1]], [[0.5, True], [0, 1]], ((0.0, None), (1, 0)),
                     [[10**400, 0], [0, 1]], np.array([[True, False]]),
                     [np.array([True, False]), [0.0, 1.0]], [np.array(["0.5", "1"]), [0, 1]],
                     np.array([["0.5", "1"]]), np.array([[0.5, 1.0]], dtype=object)):
            with pytest.raises(ValidationError, match="loss"):
                LossMatrix(loss)
        rows = ([0, 1], (np.int64(2), np.float32(0.5)), np.array([1.0, 3.0]))
        assert np.array_equal(LossMatrix(rows).values, [[0.0, 1.0], [2.0, 0.5], [1.0, 3.0]])

    def test_rejects_single_scenario(self):
        with pytest.raises(ValidationError):
            LossMatrix([[1.0], [2.0]])

    def test_default_labels(self):
        m = LossMatrix([[0.0, 1.0]])
        assert m.decision_labels == ("x0",)
        assert m.scenario_labels == ("s0", "s1")

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            LossMatrix([[0.0, 1.0]], decision_labels=["a", "b"])

    def test_k_half_is_max_abs(self):
        m = LossMatrix([[-3.0, 1.0], [0.5, 2.0]])
        assert m.k_half == 3.0


class TestCostAndVariance:
    def setup_method(self):
        self.problem = Problem(LossMatrix([[0.0, 1.0], [0.5, 0.5]]))
        self.p = Distribution([0.25, 0.75])

    def test_cost_linear(self):
        assert cost(self.problem, 0, self.p) == 0.75
        assert cost(self.problem, 1, self.p) == 0.5

    def test_a_zero_mean_keeps_its_sign_bit(self):
        # the moments pass skips the first term, D[:, 0] w_0 = +0.0; a first
        # loss of -0.0 under all the weight still gives a mean of +0.0
        problem = Problem(LossMatrix([[-0.0, -1.0, -2.0]]))
        assert cost(problem, 0, Distribution([1.0, 0.0, 0.0])).hex() == "0x0.0p+0"

    def test_variance_bernoulli(self):
        assert abs(variance(self.problem, 0, self.p) - 0.1875) <= 1e-15

    def test_variance_constant_row_is_zero(self):
        assert variance(self.problem, 1, self.p) == 0.0

    def test_variance_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            row = rng.uniform(-1, 1, size=3)
            prob = Problem(LossMatrix([row]))
            p = Distribution(rng.dirichlet([1.0, 1.0, 1.0]))
            assert variance(prob, 0, p) >= 0.0

    def test_variance_ignores_a_shift_of_the_losses(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            L = rng.uniform(-1.0, 2.0, (2, 4))
            p = Distribution(rng.dirichlet(np.ones(4)))
            base = variance(Problem(LossMatrix(L)), 0, p)
            for b in (1e6, -1e6):
                shifted = variance(Problem(LossMatrix(L + b)), 0, p)
                assert abs(shifted - base) <= 1e-9

    def test_decision_index_checked(self):
        with pytest.raises(IndexError):
            cost(self.problem, 5, self.p)

    def test_dimension_checked(self):
        with pytest.raises(ValidationError):
            cost(self.problem, 0, Distribution([0.2, 0.3, 0.5]))


class TestMinVarianceMinimizer:
    def test_tie_prefers_lower_variance(self):
        prob = Problem(LossMatrix([[0.5, 0.5], [0.0, 1.0]]))
        assert min_variance_minimizer(prob, Distribution([0.5, 0.5])) == 0

    def test_strict_minimum_wins(self):
        prob = Problem(LossMatrix([[0.4, 0.4], [0.0, 1.0]]))
        assert min_variance_minimizer(prob, Distribution([0.5, 0.5])) == 0
        prob2 = Problem(LossMatrix([[0.6, 0.6], [0.0, 1.0]]))
        assert min_variance_minimizer(prob2, Distribution([0.5, 0.5])) == 1

    def test_tie_window_follows_the_loss_scale(self):
        # decision 1 is cheaper by 1e-10 of the largest loss at every scale:
        # a real difference, 100 times the tie window
        for a in (1e-6, 1.0, 1e6):
            prob = Problem(LossMatrix(a * np.array([[0.5, 0.5], [0.0, 1.0 - 2e-10]])))
            assert min_variance_minimizer(prob, Distribution([0.5, 0.5])) == 1


class TestProblem:
    def test_true_dist_dimension_checked(self):
        with pytest.raises(ValidationError):
            Problem(LossMatrix([[0.0, 1.0]]), true_dist=Distribution([1 / 3] * 3))


class TestScenarioIO:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "s.json"
        prob = Problem(
            LossMatrix(
                [[0.1, 0.9], [1 / 3, 2 / 3]],
                decision_labels=["a", "b"],
                scenario_labels=["lo", "hi"],
            ),
            true_dist=Distribution([0.25, 0.75]),
        )
        save_scenario(prob, str(path))
        back = load_scenario(str(path))
        assert np.array_equal(back.loss.values, prob.loss.values)
        assert back.loss.decision_labels == ("a", "b")
        assert back.loss.scenario_labels == ("lo", "hi")
        assert back.true_dist == prob.true_dist

    def test_roundtrip_without_true_dist(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(Problem(LossMatrix([[0.0, 1.0]])), str(path))
        assert load_scenario(str(path)).true_dist is None

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(ScenarioFormatError) as exc:
            load_scenario(str(path))
        assert "line" in str(exc.value)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
        with pytest.raises(ScenarioFormatError) as exc:
            load_scenario(str(path))
        assert exc.value.field == "schema_version"

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"schema_version": 1, "scenario_labels": ["a", "b"]}),
            encoding="utf-8",
        )
        with pytest.raises(ScenarioFormatError) as exc:
            load_scenario(str(path))
        assert exc.value.field is not None

    def test_ragged_loss_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        doc = {
            "schema_version": 1,
            "scenario_labels": ["a", "b"],
            "decision_labels": ["x"],
            "loss": [[0.0, 1.0, 2.0]],
            "true_dist": None,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioFormatError):
            load_scenario(str(path))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_pick_is_select_decisions_on_full_variances(data, seed, scale, offset):
    """The one-pass pick, which forms variances for tied rows only, makes
    the picks of select_decisions on full variances, at the same values.
    Values tie exactly, or within or just past the tie window, or read +inf
    (as kl pairs the Pinsker screen skips); variances tie exactly (a
    repeated row, a constant row) or within the variance window (a shifted
    row)."""
    rng = np.random.default_rng(seed)
    n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
    N = data.draw(st.integers(1, 8))
    L = rng.integers(-2, 3, size=(n, d)) + rng.choice([0.0, 0.1], (n, 1)) * rng.random((n, d))
    for x in range(1, n):
        kind = data.draw(st.sampled_from(["free", "repeat", "shift", "constant"]))
        if kind == "repeat":
            L[x] = L[0]
        elif kind == "shift":
            L[x] = L[0] + 1.0
        elif kind == "constant":
            L[x] = L[x, 0]
    problem = Problem(LossMatrix(L * scale + offset))
    W = rng.dirichlet(np.ones(d), N)
    W[rng.random((N, d)) < 0.3] = 0.0
    W[np.arange(N), rng.integers(d, size=N)] += 0.1  # no empty row
    W = np.ascontiguousarray((W / W.sum(axis=1, keepdims=True)).T).T  # in columns
    windows = rng.choice([0.0, 0.5, 1.0, 1.5, 3.0], (N, n))
    values = (rng.integers(0, 3, (N, n)) * scale + offset) + windows * problem.loss.tie_window
    values[(rng.random((N, n)) < 0.2) & (values > values.min(axis=1, keepdims=True))] = np.inf
    want = select_decisions(problem, values, variance_matrix(problem, W))
    pick, value = _pick_decisions(problem, np.ascontiguousarray(values.T), W)
    assert np.array_equal(pick, want)
    assert value.tobytes() == values[np.arange(N), want].tobytes()


@pytest.mark.parametrize("first", [0, 255, 256, 280, 299])
def test_pick_counts_past_255_decisions(first):
    """With 300 decisions the one-pass pick counts the decisions before a
    row's first candidate past 255: a first candidate at index 280 is
    picked at 280, where a count in one byte would wrap to 24.  Row 0 has
    one candidate, row 1 two (picked by select_decisions), row 2 one among
    values that tie no other."""
    n, N = 300, 3
    rng = np.random.default_rng(first)
    problem = Problem(LossMatrix(rng.random((n, 3))))
    W = rng.dirichlet(np.ones(3), N)
    values = np.full((N, n), 2.0)
    values[2] += np.arange(n)
    values[:, first] = 1.0
    values[1, (first + 7) % n] = 1.0
    want = select_decisions(problem, values, variance_matrix(problem, W))
    pick, value = _pick_decisions(problem, np.ascontiguousarray(values.T), W)
    assert want[0] == want[2] == first
    assert np.array_equal(pick, want)
    assert value.tobytes() == values[np.arange(N), want].tobytes()
