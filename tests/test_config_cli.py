import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import poscocycle
from poscocycle.config import load_config, validate_config, build_model, build_driver
from poscocycle.errors import ConfigError, EstimationError
from poscocycle.pipelines import run_command
from poscocycle.reporting import (emit_plot_data, format_result, results_schema,
                                  validate_result)


def base_cfg(**over):
    cfg = {
        "seed": 3,
        "model": {"kind": "uniform-entries", "n": 3, "lo": 0.5, "hi": 2.0},
        "estimator": {"horizon": 200, "warmup": 30, "n_samples": 20},
        "output": {"series": True},
    }
    cfg.update(over)
    return cfg


class TestConfigValidation:
    def test_missing_model(self):
        with pytest.raises(ConfigError, match="config.model"):
            validate_config({"seed": 1})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            validate_config(base_cfg(bogus=1))

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model.kind"):
            validate_config({"model": {"kind": "wat"}})

    def test_driver_model_time_consistency(self):
        cfg = base_cfg(driver={"kind": "iid-shift", "time": "continuous"})
        with pytest.raises(ConfigError, match="discrete"):
            validate_config(cfg)
        cfg2 = {"model": {"kind": "ode-constant", "matrix": [[0.0]]},
                "driver": {"kind": "iid-shift", "time": "discrete"}}
        with pytest.raises(ConfigError, match="continuous"):
            validate_config(cfg2)

    def test_torus_model_needs_torus_driver(self):
        cfg = {"model": {"kind": "torus-example"},
               "driver": {"kind": "iid-shift", "time": "continuous"}}
        with pytest.raises(ConfigError, match="torus-rotation"):
            validate_config(cfg)

    def test_default_driver_inferred(self):
        cfg = validate_config({"model": {"kind": "torus-example"}})
        assert cfg["driver"]["kind"] == "torus-rotation"
        cfg2 = validate_config({"model": {"kind": "constant", "matrix": [[1.0]]}})
        assert cfg2["driver"]["time"] == "discrete"

    def test_leslie_dist_validation(self):
        cfg = {"model": {"kind": "leslie", "n": 2,
                         "m": {"dist": "uniform", "lo": 0.0, "hi": 1.0},
                         "b": {"dist": "uniform", "lo": 0.5, "hi": 1.0}}}
        with pytest.raises(ConfigError, match="model.m"):
            validate_config(cfg)

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    def test_markov_config_builds(self):
        cfg = validate_config({
            "model": {"kind": "markov-list", "matrices": [[[2.0]], [[0.5]]]},
            "driver": {"kind": "markov-shift", "transition": [[0.5, 0.5], [0.5, 0.5]]},
        })
        kind, model = build_model(cfg)
        driver = build_driver(cfg)
        st = driver.initial(0)
        assert kind == "matrix" and model.emit(st).shape == (1, 1)


class TestSerialization:
    def test_seventeen_digits_and_sorted_keys(self):
        s = format_result({"b": 1 / 3, "a": [1.0, 2, None, True]})
        assert s == '{"a":[1,2,null,true],"b":0.33333333333333331}\n'

    def test_nonfinite_floats(self):
        s = format_result({"x": math.inf, "y": -math.inf, "z": math.nan})
        assert json.loads(s) == {"x": "inf", "y": "-inf", "z": "nan"}

    def test_numpy_scrubbed(self):
        s = format_result({"v": np.array([1.5, 2.5]), "n": np.int64(3), "f": np.float64(0.5)})
        assert json.loads(s) == {"v": [1.5, 2.5], "n": 3, "f": 0.5}


class TestPipelines:
    def test_estimate_run_and_schema(self, tmp_path):
        cfg = validate_config(base_cfg())
        doc = run_command("estimate", cfg, out_dir=tmp_path)
        validate_result(doc)
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "series-seed3.csv").exists()
        assert (tmp_path / "plot-seed3.csv").exists()
        lam = doc["results"]["lambda1"]
        assert lam["horizon"] == 200 and lam["seed"] == 3

    def test_series_schema_stable_across_seeds(self, tmp_path):
        for seed in (1, 2):
            cfg = validate_config(base_cfg(seed=seed))
            run_command("estimate", cfg, out_dir=tmp_path)
        h1 = (tmp_path / "series-seed1.csv").read_text().splitlines()[0]
        h2 = (tmp_path / "series-seed2.csv").read_text().splitlines()[0]
        assert h1 == h2 == "t,ln_rho,w_1,w_2,w_3,ln_proj_norm"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = validate_config(base_cfg())
        run_command("estimate", cfg, out_dir=tmp_path / "a")
        run_command("estimate", cfg, out_dir=tmp_path / "b")
        da = json.loads((tmp_path / "a" / "results.json").read_text())
        db = json.loads((tmp_path / "b" / "results.json").read_text())
        da.pop("timing"), db.pop("timing")
        assert format_result(da) == format_result(db)

    def test_separate_run(self, tmp_path):
        cfg = validate_config(base_cfg())
        doc = run_command("separate", cfg, out_dir=tmp_path)
        res = doc["results"]
        assert res["sigma"]["value"] == pytest.approx(
            res["lambda1"]["value"] - res["lambda2"]["value"])
        validate_result(doc)

    def test_orbit_and_oseledets(self, tmp_path):
        cfg = validate_config(base_cfg())
        orb = run_command("orbit", cfg, out_dir=tmp_path)["results"]
        assert orb["ns"][0] == -20 and orb["ns"][-1] == 0
        assert orb["convergence_distance"] <= 1e-8
        osl = run_command("oseledets", cfg, out_dir=tmp_path)["results"]
        exps = list(osl["exponents"])
        assert len(exps) == 3
        assert exps == sorted(exps, reverse=True)

    def test_ode_estimate_pipeline(self, tmp_path):
        cfg = validate_config({
            "seed": 2,
            "model": {"kind": "ode-piecewise-uniform", "n": 2,
                      "diag": [-0.5, 0.5], "offdiag": [0.1, 1.0]},
            "estimator": {"horizon": 30, "dt": 0.1, "warmup": 40},
        })
        doc = run_command("estimate", cfg, out_dir=tmp_path)
        res = doc["results"]
        # the quadratic-form route must agree with the growth-rate route
        assert abs(res["lambda1_kappa_route"]["value"] - res["lambda1"]["value"]) < 5e-3
        validate_result(doc)
        chk = run_command("check", cfg, out_dir=tmp_path)["results"]["assumption_reports"]
        assert {r["condition"] for r in chk} == {"O1", "O2"}
        assert next(r for r in chk if r["condition"] == "O1")["verdict"] == "holds"

    def test_torus_estimate_pipeline(self, tmp_path):
        cfg = validate_config({
            "seed": 4,
            "model": {"kind": "torus-example"},
            "estimator": {"horizon": 10, "dt": 0.25, "warmup": 40, "rtol": 1e-8},
        })
        doc = run_command("estimate", cfg, out_dir=tmp_path)
        w = np.asarray(doc["results"]["w"], dtype=float)
        assert np.linalg.norm(w - np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-6

    def test_emit_plot_data_requires_history(self, tmp_path):
        with pytest.raises(EstimationError, match="history"):
            emit_plot_data({"results": {}}, tmp_path / "x.csv")

    def test_check_names_nonfinite_sample(self, tmp_path):
        cfg = validate_config({"model": {"kind": "constant", "matrix": [[1.0, 2.0], [math.nan, 1.0]]},
                               "estimator": {"n_samples": 5}})
        with pytest.raises(EstimationError, match=r"sampled map 0 \(lag 1\) has the non-finite entry \(1, 0\)"):
            run_command("check", cfg, out_dir=tmp_path)

    def test_schema_is_wellformed(self):
        schema = results_schema()
        assert schema["properties"]["command"]["enum"]


def run_python(*args):
    """A child interpreter that imports the package from where this process
    does, so the suite runs the same from an install or a bare checkout."""
    src = os.path.dirname(os.path.dirname(poscocycle.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestCliProcess:
    def run_cli(self, *args):
        return run_python("-m", "poscocycle.cli", *args)

    def test_config_error_exit_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"model": {"kind": "unknown"}}))
        r = self.run_cli("estimate", "--config", str(p))
        assert r.returncode == 1
        assert "model.kind" in r.stderr

    def test_missing_config_exit_1(self):
        r = self.run_cli("estimate")
        assert r.returncode == 1 and "config" in r.stderr

    def test_positivity_failure_exit_2(self, tmp_path):
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({
            "model": {"kind": "constant", "matrix": [[1.0, -2.0], [0.5, 1.0]]},
            "estimator": {"horizon": 10, "warmup": 0},
        }))
        r = self.run_cli("estimate", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({
            "model": {"kind": "constant", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
            "estimator": {"depth": 5},
        }))
        r = self.run_cli("orbit", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 3
        assert "annihilated" in r.stderr

    def test_nonfinite_coefficient_exit_3(self, tmp_path):
        p = tmp_path / "inf.json"
        # Python's json reads the bare token Infinity
        p.write_text('{"model": {"kind": "ode-constant", "matrix": [[-1.0, Infinity], [1.0, -1.0]]},'
                     ' "estimator": {"horizon": 1, "warmup": 0}}')
        r = self.run_cli("estimate", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 3
        assert "non-finite coefficient on the piece (0, 0.1)" in r.stderr

    @pytest.mark.parametrize("command", ["estimate", "orbit", "oseledets", "separate", "check"])
    def test_nan_matrix_exit_3(self, tmp_path, command, capsys):
        # in process; Python's json reads the bare token NaN
        p = tmp_path / "nan.json"
        p.write_text('{"model": {"kind": "constant", "matrix": [[1.0, NaN], [0.5, 1.0]]},'
                     ' "estimator": {"horizon": 50, "warmup": 10}}')
        from poscocycle import cli
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_cli_import_leaves_out_slow_scipy_modules(self):
        # scipy.stats would be most of the CLI's start-up time, and
        # scipy.integrate would add about 0.25 s of it
        r = run_python("-c", "import sys, poscocycle.cli; "
                       "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_separate_without_warmup(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg(estimator={"horizon": 50, "warmup": 0})))
        r = self.run_cli("separate", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "results.json").read_text())
        assert math.isfinite(doc["results"]["sigma"]["value"])

    def test_torus_flags(self, tmp_path):
        r = self.run_cli("example-torus", "--seed", "1", "--sigma-lo", "1.8",
                         "--sigma-hi", "2.2", "--out", str(tmp_path))
        assert r.returncode == 0
        doc = json.loads((tmp_path / "results.json").read_text())
        items = {i["name"]: i["passed"] for i in doc["results"]["items"]}
        assert items["separation-rate"]
        assert doc["results"]["passed"]

    def test_failed_torus_item_exit_3(self, tmp_path, monkeypatch, capsys):
        # in process, with the battery replaced by a report that fails one item
        from poscocycle import cli, torus
        from poscocycle.estimators import DivergenceDiagnostic

        def failing_battery(**kwargs):
            rep = torus.TorusValidationReport(rho=0.5, kappa_bound=torus.FOCUSING_RATIO_BOUND)
            rep.add("propagator-agreement", True, "ok")
            rep.add("separation-rate", False, "sigma outside the window")
            rep.divergence = DivergenceDiagnostic.from_means([1.0, 2.0], [0.0, -1.0], -10.0)
            return rep

        monkeypatch.setattr(torus, "validate_against_closed_form", failing_battery)
        assert cli.main(["example-torus", "--out", str(tmp_path)]) == 3
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["results"]["passed"] is False
        captured = capsys.readouterr()
        assert "[FAIL] separation-rate" in captured.out
        assert "numerical failure" in captured.err

    def test_leslie_demo_defaults(self, tmp_path):
        r = self.run_cli("leslie-demo", "--out", str(tmp_path))
        assert r.returncode == 0
        doc = json.loads((tmp_path / "results.json").read_text())
        phi = (1 + math.sqrt(5)) / 2
        assert abs(doc["results"]["lambda1"]["value"] - math.log(phi)) < 1e-9

    def test_process_level_determinism(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg()))
        for d in ("x", "y"):
            r = self.run_cli("estimate", "--config", str(p), "--out", str(tmp_path / d))
            assert r.returncode == 0
        a = json.loads((tmp_path / "x" / "results.json").read_text())
        b = json.loads((tmp_path / "y" / "results.json").read_text())
        a.pop("timing"), b.pop("timing")
        from poscocycle.reporting import format_result
        assert format_result(a).encode() == format_result(b).encode()
        sa = (tmp_path / "x" / "series-seed3.csv").read_bytes()
        sb = (tmp_path / "y" / "series-seed3.csv").read_bytes()
        assert sa == sb

    def test_seed_and_horizon_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg()))
        r = self.run_cli("estimate", "--config", str(p), "--seed", "9",
                         "--horizon", "50", "--out", str(tmp_path))
        assert r.returncode == 0
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["seed"] == 9 and doc["results"]["lambda1"]["horizon"] == 50
