"""End-to-end tests of the command-line front end: in-process through
`main`, and once per shipped config through `python -m ddlab`."""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddlab import Distribution, LossMatrix, Problem, cli
from ddlab.cli import main
from oracles import save_scenario

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "scenarios" / "configs"  # scenario paths relative to ROOT


def golden(config):
    return (ROOT / "perfbench" / "golden" / (config.stem + ".out")).read_bytes()

PREDICT_COIN_EXPECTED = """\
schema_version,decision,predictor,value,a_T,condition_ok,worst_case
1,0,saa,0.5,2.0,,
1,0,robust,0.5,2.0,,1.0;0.0
1,0,kl(r=0.1),0.5,2.0,,0.5;0.5
1,0,svp,0.5,2.0,true,
1,1,saa,0.5,2.0,,
1,1,robust,1.0,2.0,,0.0;1.0
1,1,kl(r=0.1),0.712878631455824,2.0,,0.287121368544176;0.7128786314558241
1,1,svp,0.6,2.0,true,0.4;0.6
"""

PRESCRIBE_COIN_EXPECTED = """\
schema_version,predictor,decision,value,gap_lower,gap_upper,a_T
1,saa,0,0.5,,,2.0
1,robust,0,0.5,,,2.0
1,kl(r=0.1),0,0.5,,,2.0
1,svp,0,0.5,0.0,0.0,2.0
"""

CONVEXITY_EXPECTED = """\
schema_version,ratio,a_T,threshold_ok,midpoint_violations
1,2.0,10.0,false,419
1,0.5,2.5,false,225
1,0.02,0.1,false,0
1,0.0005,0.0025,true,0
"""


def write_coin(tmp_path, true_dist=(0.5, 0.5)):
    loss = LossMatrix(
        np.array([[0.5, 0.5], [0.0, 1.0]]),
        decision_labels=("safe", "risky"),
        scenario_labels=("tails", "heads"),
    )
    td = None if true_dist is None else Distribution(true_dist)
    path = tmp_path / "coin.json"
    save_scenario(Problem(loss, td), str(path))
    return str(path)


def write_coin_with(tmp_path, **fields):
    # the coin scenario with some fields replaced by values written as given
    doc = json.loads(Path(write_coin(tmp_path)).read_text(encoding="utf-8"))
    doc.update(fields)
    path = tmp_path / "coin-edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_grid(tmp_path):
    xs = np.linspace(-3.0, 3.0, 101)
    xi = np.arange(-2.0, 3.0)
    loss = LossMatrix(np.abs(xs[:, None] - xi[None, :]))
    path = tmp_path / "grid.json"
    save_scenario(Problem(loss), str(path))
    return str(path)


def write_config(tmp_path, name, doc):
    body = {"schema_version": 1}
    body.update(doc)
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def predict_coin_config(tmp_path, **extra):
    doc = {
        "scenario": write_coin(tmp_path),
        "counts": [50, 50],
        "schedule": {"kind": "exponential", "rate": 0.02},
        "predictors": [
            {"kind": "saa"},
            {"kind": "robust"},
            {"kind": "kl", "radius": 0.1},
            {"kind": "svp"},
        ],
        "format": "csv",
    }
    doc.update(extra)
    return write_config(tmp_path, "predict.json", doc)


class TestPredict:
    def test_csv_table(self, tmp_path, capsys):
        rc = main(["predict", "--config", predict_coin_config(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert captured.out == PREDICT_COIN_EXPECTED

    def test_json_mirrors_csv_rows(self, tmp_path, capsys):
        rc = main(
            ["predict", "--config", predict_coin_config(tmp_path), "--format", "json"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 8
        assert list(rows[0].keys()) == [
            "schema_version", "decision", "predictor", "value", "a_T",
            "condition_ok", "worst_case",
        ]
        svp_risky = rows[-1]
        assert svp_risky["predictor"] == "svp"
        assert svp_risky["value"] == 0.6
        assert svp_risky["condition_ok"] is True
        assert svp_risky["worst_case"] == [0.4, 0.6]
        robust_safe = rows[1]
        assert robust_safe["worst_case"] == [1.0, 0.0]
        assert robust_safe["condition_ok"] is None

    def test_out_file_and_rerun_identical(self, tmp_path, capsys):
        cfg = predict_coin_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["predict", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["predict", "--config", cfg, "--out", str(out2)]) == 0
        blob = out1.read_bytes()
        assert blob == out2.read_bytes()
        assert blob == PREDICT_COIN_EXPECTED.encode()
        assert b"\r" not in blob
        assert capsys.readouterr().out == ""

    def test_missing_counts(self, tmp_path, capsys):
        cfg = predict_coin_config(tmp_path)
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        del doc["counts"]
        cfg2 = write_config(tmp_path, "nocounts.json", doc)
        rc = main(["predict", "--config", cfg2])
        err = capsys.readouterr().err
        assert rc == 2
        record = json.loads(err)
        assert record["exit_code"] == 2
        assert "counts" in record["message"]

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        cfg = predict_coin_config(tmp_path, scenario=str(bad))
        rc = main(["predict", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        record = json.loads(err)
        assert record["error"] == "ScenarioFormatError"
        assert record["line"] == 1

    def test_wrong_scenario_schema_version(self, tmp_path, capsys):
        coin = json.loads(Path(write_coin(tmp_path)).read_text(encoding="utf-8"))
        coin["schema_version"] = 99
        bad = tmp_path / "v99.json"
        bad.write_text(json.dumps(coin), encoding="utf-8")
        cfg = predict_coin_config(tmp_path, scenario=str(bad))
        rc = main(["predict", "--config", cfg])
        record = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert record["field"] == "schema_version"

    def test_unknown_schedule_kind(self, tmp_path, capsys):
        cfg = predict_coin_config(tmp_path, schedule={"kind": "geometric"})
        assert main(["predict", "--config", cfg]) == 2
        capsys.readouterr()

    def test_bad_format_value(self, tmp_path, capsys):
        cfg = predict_coin_config(tmp_path, format="tsv")
        assert main(["predict", "--config", cfg]) == 2
        capsys.readouterr()


class TestPrescribe:
    def test_csv_table(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "prescribe.json",
            {
                "scenario": write_coin(tmp_path),
                "counts": [50, 50],
                "schedule": {"kind": "exponential", "rate": 0.02},
                "predictors": [
                    {"kind": "saa"},
                    {"kind": "robust"},
                    {"kind": "kl", "radius": 0.1},
                    {"kind": "svp"},
                ],
            },
        )
        rc = main(["prescribe", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == PRESCRIBE_COIN_EXPECTED

    def test_kl_zero_radius_matches_saa(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "klzero.json",
            {
                "scenario": write_coin(tmp_path),
                "counts": [30, 70],
                "predictors": [{"kind": "kl", "radius": 0.0}, {"kind": "saa"}],
            },
        )
        rc = main(["prescribe", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        kl_decision = lines[1].split(",")[2]
        saa_decision = lines[2].split(",")[2]
        assert kl_decision == saa_decision == "0"

    def test_robust_prescription_ignores_counts(self, tmp_path, capsys):
        decisions = []
        for counts in ([90, 10], [5, 45]):
            cfg = write_config(
                tmp_path,
                "robust%d.json" % counts[0],
                {
                    "scenario": write_coin(tmp_path),
                    "counts": counts,
                    "predictors": [{"kind": "robust"}],
                },
            )
            assert main(["prescribe", "--config", cfg]) == 0
            out = capsys.readouterr().out
            decisions.append(out.strip().splitlines()[1].split(",")[2])
        assert decisions[0] == decisions[1]


class TestDisappoint:
    def base_config(self, tmp_path, **extra):
        doc = {
            "scenario": write_coin(tmp_path),
            "mode": {"kind": "prediction", "decision": 1},
            "T_list": [2],
            "schedule": {"kind": "exponential", "rate": 0.1},
            "predictors": [{"kind": "saa"}, {"kind": "robust"}],
            "method": "exact",
        }
        doc.update(extra)
        return write_config(tmp_path, "disappoint.json", doc)

    def test_exact_hand_rows(self, tmp_path, capsys):
        rc = main(["disappoint", "--config", self.base_config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "schema_version,T,a_T,predictor,probability,rate,method,std_err"
        )
        saa = lines[1].split(",")
        assert saa[1] == "2" and saa[3] == "saa" and saa[6] == "exact"
        assert float(saa[4]) == pytest.approx(0.25, abs=1e-15)
        assert float(saa[5]) == pytest.approx(math.log(0.25) / 0.2, rel=1e-12)
        assert saa[7] == ""
        assert lines[2] == "1,2,0.2,robust,0.0,-inf,exact,"

    def test_rows_sorted_by_T(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, T_list=[10, 5])
        assert main(["disappoint", "--config", cfg]) == 0
        out = capsys.readouterr().out
        ts = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert ts == ["5", "5", "10", "10"]

    def test_requires_true_dist(self, tmp_path, capsys):
        cfg = self.base_config(
            tmp_path, scenario=write_grid(tmp_path)
        )
        rc = main(["disappoint", "--config", cfg])
        record = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert "true_dist" in record["message"]

    def test_stochastic_method_needs_seed(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, method="mc")
        assert main(["disappoint", "--config", cfg]) == 2
        capsys.readouterr()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg_seed1 = self.base_config(tmp_path, method="mc", seed=1, n_samples=5000)
        assert main(["disappoint", "--config", cfg_seed1, "--seed", "99"]) == 0
        flagged = capsys.readouterr().out
        cfg_seed99 = self.base_config(tmp_path, method="mc", seed=99, n_samples=5000)
        assert main(["disappoint", "--config", cfg_seed99]) == 0
        direct = capsys.readouterr().out
        assert flagged == direct

    def test_mc_rerun_byte_identical(self, tmp_path):
        cfg = self.base_config(
            tmp_path, method="mc", seed=42, n_samples=20000, T_list=[6]
        )
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["disappoint", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["disappoint", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_rerun_byte_identical(self, tmp_path):
        cfg = self.base_config(
            tmp_path, method="importance", seed=8, n_samples=10000,
            format="json", shift=[0.7, 0.3],
        )
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["disappoint", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["disappoint", "--config", cfg, "--out", str(out2)]) == 0
        blob = out1.read_bytes()
        assert blob == out2.read_bytes()
        rows = json.loads(blob)
        assert rows[1]["rate"] == "-inf"  # robust row, serialized sentinel
        saa = rows[0]
        assert saa["method"] == "importance"
        sigma = max(float(saa["std_err"]), math.sqrt(0.25 * 0.75 / 10000))
        assert abs(saa["probability"] - 0.25) <= 4.0 * sigma

    def test_tiny_cap_is_a_runtime_error(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, T_list=[100])
        rc = main(["disappoint", "--config", cfg, "--cap", "10"])
        record = json.loads(capsys.readouterr().err)
        assert rc == 1
        assert record["error"] == "LatticeCapError"
        assert record["size"] == 101
        assert record["cap"] == 10
        assert record["exit_code"] == 1

    def test_method_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.base_config(tmp_path, method="exact")
        rc = main(
            ["disappoint", "--config", cfg, "--method", "mc", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "monte_carlo" in out


class TestConvexity:
    def test_grid_sweep_frozen_table(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "convexity.json",
            {
                "scenario": write_grid(tmp_path),
                "counts": [1, 1, 1, 1, 1],
                "ratios": [2.0, 0.5, 0.02, 0.0005],
            },
        )
        rc = main(["convexity", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == CONVEXITY_EXPECTED

    def test_empty_ratios(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "empty.json",
            {
                "scenario": write_grid(tmp_path),
                "counts": [1, 1, 1, 1, 1],
                "ratios": [],
            },
        )
        assert main(["convexity", "--config", cfg]) == 2
        capsys.readouterr()

    def test_nonpositive_ratio(self, tmp_path, capsys):
        # a NaN ratio exited 0 and printed the row 1,nan,nan,false,0
        for bad in (-1.0, math.nan):
            cfg = write_config(
                tmp_path,
                "negratio.json",
                {
                    "scenario": write_grid(tmp_path),
                    "counts": [1, 1, 1, 1, 1],
                    "ratios": [0.5, bad],
                },
            )
            assert main(["convexity", "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["message"] == "ratios must be > 0"


class TestConfigPlumbing:
    def test_scenario_flag_without_config(self, tmp_path, capsys):
        # flags alone are a complete configuration for predict
        scenario = write_coin(tmp_path)
        rc = main(["predict", "--scenario", scenario])
        out = capsys.readouterr()
        # counts are still required, so this is an input error
        assert rc == 2

    def test_config_must_be_versioned(self, tmp_path, capsys):
        path = tmp_path / "unversioned.json"
        path.write_text(json.dumps({"scenario": "x"}), encoding="utf-8")
        assert main(["predict", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_config_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[1,", encoding="utf-8")
        assert main(["predict", "--config", str(path)]) == 2
        capsys.readouterr()


def disappoint_coin_config(tmp_path, **extra):
    return TestDisappoint().base_config(tmp_path, **extra)


class TestMalformedInputExits2:
    """A bad value anywhere in a config is an input error: exit 2 and one
    JSON error record on stderr, whichever exception the value raises."""

    @pytest.mark.parametrize(
        "command, make",
        [
            ("predict", lambda tmp: predict_coin_config(
                tmp, predictors=[{"kind": "kl", "radius": "abc"}])),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "exponential", "rate": "fast"})),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "table", "points": 5})),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, mode={"kind": "prediction", "decision": 7})),
            ("predict", lambda tmp: str(tmp / "missing.json")),
            ("disappoint", lambda tmp: disappoint_coin_config(tmp, T_list=[0])),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, T_list=[0], method="importance", seed=1)),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, method="mc", seed=1, n_samples=1000.7)),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, method="importance", seed=1, n_samples=True)),
            # each of these ran with a truncated number and exited 0
            ("disappoint", lambda tmp: disappoint_coin_config(tmp, T_list=[10.7])),
            ("disappoint", lambda tmp: disappoint_coin_config(tmp, T_list=[True])),
            ("disappoint", lambda tmp: disappoint_coin_config(tmp, cap=3.9)),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, method="mc", seed=1.5, n_samples=100)),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, mode={"kind": "prediction", "decision": 1.5})),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, mode={"kind": "prediction", "decision": True})),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, mode={"kind": "prescription", "decision": 0})),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "table", "points": [[100.5, 2.0]]})),
            # each of these ran with float() of the value and exited 0, but
            # for the exponent, whose true read as 1.0 was out of range
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "exponential", "rate": True})),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "exponential", "rate": "0.02"})),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "log", "coeff": True})),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "power", "coeff": 1.0, "exponent": True})),
            ("predict", lambda tmp: predict_coin_config(
                tmp, predictors=[{"kind": "kl", "radius": True}])),
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "table", "points": [[100, True]]})),
            ("convexity", lambda tmp: write_config(tmp, "convexity.json", {
                "scenario": write_grid(tmp), "counts": [1, 1, 1, 1, 1], "ratios": [True]})),
            ("predict", lambda tmp: predict_coin_config(tmp, counts=[True, True])),
            ("predict", lambda tmp: predict_coin_config(tmp, counts=["50", "50"])),
            # a rate of 401 digits exited 1 with an OverflowError
            ("predict", lambda tmp: predict_coin_config(
                tmp, schedule={"kind": "exponential", "rate": 10**400})),
            # NumPy read these strings and bools as floats, and each ran and exited 0
            ("predict", lambda tmp: predict_coin_config(
                tmp, scenario=write_coin_with(tmp, loss=[["0.5", 0.5], [0, 1]]))),
            ("predict", lambda tmp: predict_coin_config(
                tmp, scenario=write_coin_with(tmp, loss=[[0.5, True], [0, 1]]))),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, scenario=write_coin_with(tmp, true_dist=["0.5", "0.5"]))),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, scenario=write_coin_with(tmp, true_dist=[True, False]))),
            # a loss of 401 digits exited 1 with an OverflowError
            ("predict", lambda tmp: predict_coin_config(
                tmp, scenario=write_coin_with(tmp, loss=[[10**400, 0.5], [0, 1]]))),
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, method="importance", seed=1, n_samples=100, shift=["0.5", "0.5"])),
            # blamed on the support of the shift, not on its type
            ("disappoint", lambda tmp: disappoint_coin_config(
                tmp, method="importance", seed=1, n_samples=100, shift=[True, False])),
        ],
        ids=["radius", "rate", "table-points", "decision", "missing-config",
             "T-0-exact", "T-0-importance", "fractional-n-samples", "bool-n-samples",
             "fractional-T", "bool-T", "fractional-cap", "fractional-seed",
             "fractional-decision", "bool-decision", "prescription-decision",
             "fractional-table-T", "bool-rate", "string-rate", "bool-coeff",
             "bool-exponent", "bool-radius", "bool-table-a_T", "bool-ratio",
             "bool-counts", "string-counts", "huge-rate", "string-loss", "bool-loss",
             "string-true_dist", "bool-true_dist", "huge-loss", "string-shift", "bool-shift"],
    )
    def test_exit_2_with_one_error_record(self, tmp_path, capsys, command, make):
        assert main([command, "--config", make(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_code"] == 2


def test_nan_radius_is_blamed_on_the_radius(tmp_path, capsys):
    # it exited 2 blaming "distribution weights must be finite"
    cfg = predict_coin_config(tmp_path, predictors=[{"kind": "kl", "radius": math.nan}])
    assert main(["predict", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "radius must be >= 0"


def test_bool_exponent_is_blamed_on_its_type(tmp_path, capsys):
    # true read as 1.0 and was blamed on the range (0, 1)
    schedule = {"kind": "power", "coeff": 1.0, "exponent": True}
    assert main(["predict", "--config", predict_coin_config(tmp_path, schedule=schedule)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == "exponent must be a real number, got True"


class TestParserCache:
    """main builds its parser on the first call and reuses it."""

    def test_three_calls_build_one_parser(self, monkeypatch, tmp_path, capsys):
        builds = []
        original = cli._build_parser

        def counting():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "_build_parser", counting)
        cfg = predict_coin_config(tmp_path)
        for _ in range(3):
            assert main(["predict", "--config", cfg]) == 0
            assert capsys.readouterr().out == PREDICT_COIN_EXPECTED
        assert builds == [1]

    def test_flags_do_not_leak_into_the_next_call(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        config = CONFIG_DIR / "predict_coin.json"
        assert main(["predict", "--config", str(config), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)
        assert main(["predict", "--config", str(config)]) == 0
        assert capsys.readouterr().out.encode() == golden(config)
        config = CONFIG_DIR / "disappoint_coin.json"
        assert main(["disappoint", "--config", str(config), "--cap", "1"]) == 1
        assert "LatticeCapError" in capsys.readouterr().err
        assert main(["disappoint", "--config", str(config)]) == 0
        assert capsys.readouterr().out.encode() == golden(config)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
            (["predict", "--format", "xml"], "invalid choice: 'xml'"),
        ],
    )
    def test_bad_arguments_exit_2_with_usage_on_every_call(
        self, monkeypatch, tmp_path, capsys, argv, message
    ):
        monkeypatch.setattr(cli, "_PARSER", None)
        for _ in range(2):  # the call that builds the parser, then a reuse
            assert main(argv) == 2  # returned, not raised as SystemExit
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: ddlab")
            assert message in captured.err
        assert main(["predict", "--config", predict_coin_config(tmp_path)]) == 0
        assert capsys.readouterr().out == PREDICT_COIN_EXPECTED

    @pytest.mark.parametrize("argv", [["--help"], ["convexity", "--help"]])
    def test_help_matches_a_fresh_parser(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "_PARSER", None)
        assert main(argv) == 0  # this call builds a fresh parser
        fresh = capsys.readouterr().out
        assert fresh.startswith("usage: ddlab")
        if argv == ["--help"]:
            assert fresh == cli._build_parser().format_help()
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().out == fresh


@pytest.mark.parametrize(
    "config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_module_entry_point_prints_the_golden_output(config, src_env):
    # a fresh interpreter: python -m ddlab, with the output on stdout
    command = config.stem.split("_")[0]
    proc = subprocess.run(
        [sys.executable, "-m", "ddlab", command, "--config", str(config)],
        cwd=ROOT, env=src_env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden(config)


def test_module_entry_point_exits_2_on_a_bad_flag(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "ddlab", "predict", "--bogus"],
        cwd=ROOT, env=src_env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage: ddlab")
    assert b"unrecognized arguments: --bogus" in proc.stderr
