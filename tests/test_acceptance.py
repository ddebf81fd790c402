"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
margins next to their tolerances.  Every test is self-contained and
seeds its own generator, so the numbers are reproducible bit for bit.
"""
import json
import math
import time

import numpy as np

from ddlab import (
    CustomTable,
    Distribution,
    EmpiricalDistribution,
    ExponentialRate,
    LossMatrix,
    Mode,
    PowerLaw,
    PredictorSpec,
    Problem,
    SimplexDelta,
    disappointment_exact,
    dro_condition_holds,
    cost,
    convexity_certificate,
    ellipsoid_linear_max,
    ellipsoid_norm_sq,
    enumerate_lattice,
    importance_shift,
    disappointment_importance,
    disappointment_mc,
    multinomial_log_prob,
    predict_kl_dual,
    predict_svp,
    predictor_value_matrix,
    prescribe,
    prescription_gap_bound,
    rate_curve,
    save_scenario,
    speed_ratio,
    svp_direction,
    theoretical_rate_saa,
    variance_matrix,
)
from ddlab.cli import main as cli_main
from kl_oracle import predict_kl_primal_grid

COIN = Problem(
    LossMatrix(np.array([[0.5, 0.5], [0.0, 1.0]])), Distribution((0.5, 0.5))
)


def _passline(num, text):
    print("criterion %02d PASS: %s" % (num, text))


def _interior_svp_instances(n=1000, seed=42):
    """Random interior instances with the DRO fitting condition certified."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        d = int(rng.integers(2, 7))
        row = rng.uniform(-1.0, 2.0, size=d)
        counts = rng.integers(1, 30, size=d)
        T = int(counts.sum())
        w = counts / T
        rhs = float(w.min() * np.minimum(w, 1.0 - w).min())
        u = float(rng.uniform(0.1, 1.0))
        ratio = (u * rhs) ** 2 / 2.0
        out.append((row, counts, T, ratio))
    return out


def test_criterion_01_kl_dual_vs_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        row = rng.uniform(-2.0, 3.0, size=d)
        prob = Problem(LossMatrix(row[None, :]))
        p = Distribution(rng.dirichlet(rng.uniform(0.3, 3.0, size=d)))
        r = float(rng.uniform(0.0, 2.0))
        dual = predict_kl_dual(prob, 0, p, r).value
        grid = predict_kl_primal_grid(prob, 0, p, r, grid_step=1e-4)
        worst = max(worst, abs(dual - grid))
    assert worst <= 1e-3
    binary = predict_kl_dual(COIN, 1, Distribution((0.5, 0.5)), 0.1).value
    assert abs(binary - 0.712879) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(
        1,
        "max |dual - grid| = %.3e (tol 1e-3), binary dev %.2e (tol 1e-6), "
        "%.1fs (< 60s)" % (worst, abs(binary - 0.712879), elapsed),
    )


def test_criterion_02_svp_equals_ellipsoid_max():
    start = time.perf_counter()
    worst_val = worst_cost = worst_norm = 0.0
    for row, counts, T, ratio in _interior_svp_instances():
        prob = Problem(LossMatrix(row[None, :]))
        emp = EmpiricalDistribution(counts, T)
        center = emp.distribution
        assert dro_condition_holds(center, ratio)
        sched = CustomTable(((T, ratio * T),))
        res = predict_svp(prob, 0, emp, sched)
        assert res.condition_ok and res.worst_case is not None
        A = np.diag(1.0 / (2.0 * center.weights))
        ell_val, _ = ellipsoid_linear_max(row, center, A, ratio)
        worst_val = max(
            worst_val, abs(res.value - ell_val) / max(1.0, abs(ell_val))
        )
        q = res.worst_case
        worst_cost = max(worst_cost, abs(cost(prob, 0, q) - res.value))
        norm = ellipsoid_norm_sq(
            SimplexDelta(q.weights - center.weights), center
        )
        worst_norm = max(worst_norm, abs(norm - ratio))
    assert worst_val <= 1e-9
    assert worst_cost <= 1e-10
    assert worst_norm <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(
        2,
        "1000 instances: value rel %.1e (1e-9), cost-at-worst %.1e (1e-10), "
        "norm-vs-ratio %.1e (1e-12), %.1fs (< 10s)"
        % (worst_val, worst_cost, worst_norm, elapsed),
    )


def test_criterion_03_direction_identities():
    worst_norm = worst_inner = 0.0
    for row, counts, T, _ in _interior_svp_instances():
        prob = Problem(LossMatrix(row[None, :]))
        center = EmpiricalDistribution(counts, T).distribution
        phi = svp_direction(prob, 0, center)
        worst_norm = max(
            worst_norm,
            abs(2.0 * ellipsoid_norm_sq(SimplexDelta(phi), center) - 1.0),
        )
        mean = float(row @ center.weights)
        std = math.sqrt(float(center.weights @ (row - mean) ** 2))
        worst_inner = max(worst_inner, abs(float(row @ phi) - std))
    assert worst_norm <= 1e-10
    assert worst_inner <= 1e-10
    _passline(
        3,
        "unit-norm dev %.1e, inner-product dev %.1e (both tol 1e-10)"
        % (worst_norm, worst_inner),
    )


def test_criterion_04_exact_vs_mc_vs_importance():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    n = 100_000
    worst_mc = worst_is = 0.0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        T = int(rng.integers(10, 61))
        n_dec = int(rng.integers(1, 4))
        L = rng.uniform(0.0, 1.0, size=(n_dec, d))
        p = Distribution(rng.dirichlet(np.full(d, 2.0)))
        prob = Problem(LossMatrix(L), p)
        kind = ("saa", "svp", "kl")[i % 3]
        spec = PredictorSpec(kind, radius=0.005 if kind == "kl" else None)
        sched = CustomTable(((T, 0.01 * T),))
        mode = Mode.prediction(0) if i % 2 == 0 else Mode.prescription()
        exact = disappointment_exact(prob, spec, mode, p, T, sched)
        pe = exact.probability
        sigma = math.sqrt(max(pe * (1.0 - pe), 1e-300) / n)
        mc = disappointment_mc(prob, spec, mode, p, T, sched, n, seed=1000 + i)
        worst_mc = max(worst_mc, abs(mc.probability - pe) / (4.0 * sigma))
        shift = importance_shift(prob, mode, p, 0.01)
        is_rep = disappointment_importance(
            prob, spec, mode, p, T, sched, shift, n, seed=2000 + i
        )
        yard = 4.0 * max(is_rep.method.std_err, sigma)
        worst_is = max(worst_is, abs(is_rep.probability - pe) / yard)
    assert worst_mc <= 1.0  # i.e. every deviation within 4 sigma
    assert worst_is <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passline(
        4,
        "50 instances, n=1e5: worst MC dev %.2f of 4-sigma, worst IS dev "
        "%.2f of 4-sigma, %.1fs (< 120s)" % (worst_mc, worst_is, elapsed),
    )


def test_criterion_05_finite_sample_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    instances = []
    for _ in range(3):
        row = rng.uniform(0.0, 1.0, size=2)
        w = rng.uniform(0.2, 0.8, size=2)
        instances.append((row, w / w.sum()))
    violations = 0
    min_margin = math.inf
    for row, w in instances:
        prob = Problem(LossMatrix(row[None, :]))
        p = Distribution(w)
        k_const = 2.0 * float(np.abs(row).max())
        c_true = float(row @ w)
        var_true = float(w @ (row - c_true) ** 2)
        for T in (10, 25, 50, 100, 200):
            for a in (1.0, 2.0, 4.0):
                ratio = a / T
                sched = CustomTable(((T, a),))
                slack = (7.0 * k_const / 3.0) * ratio
                p_upper = p_lower = 0.0
                for e in enumerate_lattice(T, 2):
                    weight = math.exp(multinomial_log_prob(e, p))
                    chat = predict_svp(prob, 0, e, sched).value
                    if c_true <= chat + slack:
                        p_upper += weight
                    if c_true >= chat - math.sqrt(8.0 * ratio * var_true) - slack:
                        p_lower += weight
                floor = 1.0 - 2.0 * math.exp(-a)
                for event_p in (p_upper, p_lower):
                    min_margin = min(min_margin, event_p - floor)
                    if event_p < floor:
                        violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passline(
        5,
        "45 (T, a_T) cells x 2 events: zero violations, min margin %.4f, "
        "%.1fs (< 300s)" % (min_margin, elapsed),
    )


def test_criterion_06_rate_trends():
    start = time.perf_counter()
    p = Distribution((0.5, 0.5))
    mode = Mode.prediction(1)
    t_list = (50, 100, 200, 500)
    svp_curve = rate_curve(COIN, PredictorSpec("svp"), mode, p, PowerLaw(1.0, 0.5), t_list)
    kl_curve = rate_curve(COIN, PredictorSpec("kl"), mode, p, ExponentialRate(0.1), t_list)
    for name, curve in (("svp", svp_curve), ("kl", kl_curve)):
        rates = [r for _, r in curve]
        assert rates[-1] <= -0.85, (name, rates)
        # the decay speed -rate settles from above; allow a 0.05 wobble
        for a, b in zip(rates, rates[1:]):
            assert -b <= -a + 0.05, (name, rates)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _passline(
        6,
        "rate(500): svp %.4f, kl %.4f (<= -0.85); decay speeds settle "
        "within 0.05 band, %.1fs (< 600s)"
        % (svp_curve[-1][1], kl_curve[-1][1], elapsed),
    )


def test_criterion_07_robust_never_disappoints():
    rng = np.random.default_rng(7)
    L = rng.uniform(-1.0, 2.0, size=(3, 3))
    other = Problem(
        LossMatrix(L), Distribution(rng.dirichlet(np.ones(3)))
    )
    checked = 0
    for prob in (COIN, other):
        modes = [Mode.prescription()] + [
            Mode.prediction(x) for x in range(prob.loss.n_decisions)
        ]
        for mode in modes:
            for T in (5, 50, 200):
                rep = disappointment_exact(
                    prob, PredictorSpec("robust"), mode, prob.true_dist, T,
                    ExponentialRate(0.1),
                )
                assert rep.probability == 0.0
                assert rep.rate == -math.inf
                checked += 1
    _passline(
        7,
        "%d (instance, mode, T) cells: probability identically 0, "
        "rate -inf" % checked,
    )


def test_criterion_08_saa_rate_matches_cramer():
    prob = Problem(
        LossMatrix(np.array([[0.25, 0.25], [0.0, 1.0]])),
        Distribution((0.5, 0.5)),
    )
    p = Distribution((0.5, 0.5))
    T = 500
    rep = disappointment_exact(
        prob, PredictorSpec("saa"), Mode.prescription(), p, T,
        ExponentialRate(1.0),
    )
    empirical = -rep.log_probability / T
    theoretical = theoretical_rate_saa(prob, 1, p, m=0.25)
    rel = abs(empirical - theoretical) / theoretical
    assert rel < 0.10
    _passline(
        8,
        "T=500: -(1/T) log p_T = %.6f vs large-deviation rate %.6f, "
        "rel diff %.2f%% (< 10%%)" % (empirical, theoretical, 100 * rel),
    )


def test_criterion_09_convexity_threshold():
    xs = np.linspace(-3.0, 3.0, 101)
    xi = np.arange(-2.0, 3.0)
    loss = LossMatrix(np.abs(xs[:, None] - xi[None, :]))
    emp = EmpiricalDistribution((1, 1, 1, 1, 1), 5)
    below = {}
    above = {}
    for ratio in (0.0008, 0.0005, 0.0001):
        ok, count = convexity_certificate(
            loss, emp, CustomTable(((5, 5.0 * ratio),))
        )
        assert ok and count == 0, ratio
        below[ratio] = count
    for ratio in (0.5, 1.0, 2.0):
        ok, count = convexity_certificate(
            loss, emp, CustomTable(((5, 5.0 * ratio),))
        )
        assert not ok and count > 0, ratio
        above[ratio] = count
    _passline(
        9,
        "violations %s at sqrt(2 a_T/T) <= 0.04; %s for ratios >= 0.5"
        % (sorted(below.values()), sorted(above.values(), reverse=True)),
    )


def test_criterion_10_prescription_sandwich():
    rng = np.random.default_rng(42)
    sched = ExponentialRate(0.05)
    tiny = ExponentialRate(1e-20)
    worst_slack = -math.inf
    converged = 0
    generic = 0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        n_dec = int(rng.integers(2, 7))
        L = rng.uniform(0.0, 2.0, size=(n_dec, d))
        counts = rng.integers(1, 20, size=d)
        T = int(counts.sum())
        emp = EmpiricalDistribution(counts, T)
        center = emp.distribution
        prob = Problem(LossMatrix(L))
        lower, upper = prescription_gap_bound(prob, center, T, sched)
        ratio = speed_ratio(sched, T)
        W = center.weights[None, :]
        values = predictor_value_matrix(prob, PredictorSpec("svp"), W, ratio=ratio)
        costs = predictor_value_matrix(prob, PredictorSpec("saa"), W)
        gap = float(values.min()) - float(costs.min())
        assert lower - 1e-12 <= gap <= upper + 1e-12
        worst_slack = max(
            worst_slack, lower - gap, gap - upper
        )
        # vanishing penalty: the prescription lands on the cost minimizer
        order = np.sort(costs[0])
        if order[1] - order[0] > 1e-6:
            generic += 1
            pick = prescribe(prob, PredictorSpec("svp"), emp, schedule=tiny)
            x_star = int(np.argmin(costs[0]))
            variances = variance_matrix(prob, W)
            if variances[0, pick.decision] == variances[0, x_star]:
                converged += 1
    assert worst_slack <= 1e-12
    assert generic >= 900
    assert converged == generic
    _passline(
        10,
        "1000 problems: sandwich slack %.1e (tol 1e-12); tiny-ratio "
        "prescription matched the plug-in minimizer's variance on all "
        "%d generic instances" % (worst_slack, generic),
    )


def test_criterion_11_cli_reproducibility(tmp_path, capsys):
    scen = tmp_path / "coin.json"
    save_scenario(COIN, str(scen))
    runs = {
        "predict": {
            "schema_version": 1,
            "scenario": str(scen),
            "counts": [50, 50],
            "schedule": {"kind": "exponential", "rate": 0.02},
        },
        "disappoint": {
            "schema_version": 1,
            "scenario": str(scen),
            "mode": {"kind": "prediction", "decision": 1},
            "T_list": [12, 30],
            "schedule": {"kind": "power", "coeff": 1.0, "exponent": 0.5},
            "predictors": [
                {"kind": "saa"},
                {"kind": "svp"},
                {"kind": "kl", "radius": 0.1},
            ],
            "method": "importance",
            "shift": [0.65, 0.35],
            "n_samples": 40000,
            "seed": 314,
            "format": "json",
        },
    }
    compared = []
    for cmd, doc in runs.items():
        cfg = tmp_path / (cmd + "_cfg.json")
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / ("%s_%s.out" % (cmd, tag))
            rc = cli_main([cmd, "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        compared.append("%s (%d bytes)" % (cmd, len(blobs[0])))
    capsys.readouterr()
    _passline(11, "byte-identical reruns: " + ", ".join(compared))
