"""The library's run-time imports: NumPy only.  SciPy stays a declared
dependency (the tests use it), but importing ddlab and running the
laboratory and the CLI must not load it."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, glob, io, sys
import ddlab, ddlab.cli
from ddlab import (
    Mode, PredictorSpec, PowerLaw, disappointment_exact, disappointment_importance,
    disappointment_mc, importance_shift, load_scenario, rate_curve, theoretical_rate_saa,
)
from ddlab.deviation import speed_ratio

problem = load_scenario("scenarios/newsvendor.json")
p = problem.true_dist
spec, mode, schedule = PredictorSpec("svp"), Mode.prediction(4), PowerLaw(1.0, 0.5)
disappointment_exact(problem, spec, Mode.prescription(), p, 30, schedule)
disappointment_mc(problem, spec, mode, p, 40, schedule, 2000, seed=1)
shift = importance_shift(problem, mode, p, speed_ratio(schedule, 40))
disappointment_importance(problem, spec, mode, p, 40, schedule, shift, 2000, seed=2)
# the second T passes the cap, so rate_curve falls back to importance sampling
rate_curve(problem, spec, Mode.prescription(), p, schedule, [5, 400],
           cap=2000, n_samples=2000, seed=3)
theoretical_rate_saa(problem, 4, p, m=0.9 * float(problem.loss.values[4] @ p.weights))
for config in sorted(glob.glob("scenarios/configs/*.json")):
    command = config.split("/")[-1].split("_")[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert ddlab.cli.main([command, "--config", config]) == 0, config
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_library_and_cli_run_without_scipy(src_env):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=src_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the public names of `ddlab`, which its __all__ collects from its imports
EXPORTS = {
    "ConvergenceError", "CustomTable", "DEFAULT_LATTICE_CAP", "DisappointmentReport",
    "Distribution", "EllipsoidConditionError", "EmpiricalDistribution",
    "ExponentialRate", "LatticeCapError", "Logarithmic", "LossMatrix", "MethodInfo",
    "Mode", "PowerLaw", "PredictionResult", "PredictorSpec", "PrescriptionResult",
    "Problem", "RegimeSchedule", "SCHEMA_VERSION", "ScenarioFormatError",
    "SimplexDelta", "ValidationError", "__version__", "convexity_certificate",
    "cost", "disappointment_exact", "disappointment_importance",
    "disappointment_mc", "dro_condition_holds", "ellipsoid_linear_max",
    "ellipsoid_norm_sq", "importance_shift", "lattice_size", "load_scenario",
    "min_variance_minimizer", "predict_kl_dual", "predict_robust", "predict_saa",
    "predict_svp", "predictor_value_matrix", "predictor_value_rows", "prescribe",
    "prescription_gap_bound", "rate_curve", "speed_ratio", "svp_direction",
    "theoretical_rate_saa", "variance", "variance_matrix",
}


def test_star_import_gives_the_public_names():
    import ddlab

    assert len(EXPORTS) == 50
    assert len(ddlab.__all__) == len(set(ddlab.__all__))
    assert set(ddlab.__all__) == EXPORTS
    namespace = {}
    exec("from ddlab import *", namespace)
    assert namespace.keys() - {"__builtins__"} == EXPORTS
