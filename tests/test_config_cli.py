import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import poscocycle
from poscocycle import drivers, estimators, odes
from poscocycle.config import DRIVERS, MODELS, load_config, validate_config, build_model, build_driver
from poscocycle.errors import ConfigError, EstimationError
from poscocycle.matrices import MatrixModel
from poscocycle.odes import OdeModel
from poscocycle.pipelines import COMMANDS, run_command
from poscocycle.reporting import _array, _json, format_result, results_schema, validate_result


def written(out_dir):
    """The results.json document as written to ``out_dir``."""
    return json.loads((out_dir / "results.json").read_text())


def base_cfg(**over):
    cfg = {
        "seed": 3,
        "model": {"kind": "uniform-entries", "n": 3, "lo": 0.5, "hi": 2.0},
        "estimator": {"horizon": 200, "warmup": 30, "n_samples": 20},
        "output": {"series": True},
    }
    cfg.update(over)
    return cfg


MINIMAL_MODELS = {
    "constant": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
    "iid-list": {"matrices": [[[1.0, 0.5], [0.5, 1.0]], [[2.0, 1.0], [0.1, 1.0]]]},
    "markov-list": {"matrices": [[[1.0, 0.5], [0.5, 1.0]], [[2.0, 1.0], [0.1, 1.0]]]},
    "uniform-entries": {"n": 2, "lo": 0.5, "hi": 2.0},
    "leslie": {"n": 2, "m": {"dist": "uniform", "lo": 0.5, "hi": 1.5}, "b": {"dist": "constant", "values": [0.5]}},
    "csv": {},  # the test writes the file and sets its path
    "ode-constant": {"matrix": [[-1.0, 1.0], [1.0, -1.0]]},
    "ode-piecewise-uniform": {"n": 2, "diag": [-0.5, 0.5], "offdiag": [0.1, 1.0]},
    "torus-example": {},
}


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

    @pytest.mark.parametrize("kind", MODELS)
    def test_every_model_kind_builds_and_checks(self, tmp_path, kind, capsys):
        # a minimal config of each kind in the table validates, builds a
        # model of the kind's family and passes through `check`
        model = {"kind": kind, **MINIMAL_MODELS[kind]}
        if kind == "csv":
            (tmp_path / "m.csv").write_text("N\n2\n1.0,0.5\n0.5,1.0\n")
            model["path"] = str(tmp_path / "m.csv")
        cfg = {"model": model, "estimator": {"n_samples": 5}}
        if kind == "markov-list":
            cfg["driver"] = {"kind": "markov-shift", "transition": [[0.5, 0.5], [0.25, 0.75]]}
        family, built = build_model(validate_config(cfg))
        assert family == MODELS[kind][0]
        assert isinstance(built, MatrixModel if family == "matrix" else OdeModel)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        from poscocycle import cli
        assert cli.main(["check", "--config", str(p), "--out", str(tmp_path)]) == 0, capsys.readouterr().err

    def test_minimal_models_cover_the_table(self):
        assert set(MINIMAL_MODELS) == set(MODELS)

    def test_readme_names_the_kinds_of_the_table(self):
        # the driver and model tables of README's config section list
        # exactly the kinds of config.DRIVERS and config.MODELS, and each
        # model kind's drivers in the table's order (the first is the default)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Config file\n")[1].split("\n## ")[0]
        rows = [[re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| `")]
        assert {row[0][0] for row in rows if len(row) == 2} == set(DRIVERS)
        assert ({row[0][0]: tuple(row[1]) for row in rows if len(row) == 3}
                == {kind: entry[1] for kind, entry in MODELS.items()})

    def test_readme_names_the_cli_flags(self):
        # README's CLI and config sections name exactly the flags that the
        # parser defines, so a removed flag cannot linger in the docs
        import argparse
        from poscocycle import cli
        sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {opt for sp in sub.choices.values() for action in sp._actions for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sections = [readme.split(f"\n## {name}\n")[1].split("\n## ")[0] for name in ("CLI", "Config file")]
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(sections))) == flags

    def test_readme_names_the_commands(self):
        # README's "Commands:" paragraph names each command of
        # pipelines.COMMANDS, in order, as `name` (description)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        para = " ".join(readme.split("\nCommands: ")[1].split("\n\n")[0].split())
        assert re.findall(r"`([a-z-]+)` \(", para) == list(COMMANDS)

    def test_torus_rotation_is_the_drivers(self):
        # a torus-example model takes no keys; its rotation is driver.rho
        cfg = validate_config({"model": {"kind": "torus-example"}, "driver": {"kind": "torus-rotation", "rho": 0.3}})
        assert cfg["model"] == {"kind": "torus-example"} and build_driver(cfg).rho == 0.3
        with pytest.raises(ConfigError, match="'model.rho'"):
            validate_config({"model": {"kind": "torus-example", "rho": 0.3}})

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

    def test_mixed_containers_exact_bytes(self):
        s = format_result({"t": (1, 2.5), "b": np.bool_(True), 3: "é", "c": "a\x01b", "e": [], "d": {}})
        assert s == '{"3":"\\u00e9","b":true,"c":"a\\u0001b","d":{},"e":[],"t":[1,2.5]}\n'

    # a finite float64 array is written in one format; its text is that of
    # its elements written one by one, as the .tolist() path writes them
    EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 3.0, -1e16, 2.0 ** 70, 0.1]

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                      elements=st.floats(allow_nan=False, allow_infinity=False)
                      | st.sampled_from(EDGE_FLOATS) | st.integers(-10**6, 10**6).map(float)))
    @example(np.empty(0))
    @example(np.empty((2, 0, 3)))
    @example(np.array(EDGE_FLOATS))
    @example(np.array(-0.0))
    def test_float_array_matches_per_float_text(self, a):
        assert format_result({"a": a}) == format_result({"a": a.tolist()})

    # an integer array of any width or sign is written in one %d format,
    # byte for byte its elements written one by one; a bool array is not
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(),
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)))
    @example(np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]))
    @example(np.array([np.iinfo(np.uint64).max], dtype=np.uint64))
    @example(np.empty((2, 0), dtype=np.int64))
    @example(np.array(-7))
    def test_integer_array_matches_per_int_text(self, a):
        assert _array(a) == _json(a.tolist())

    def test_bool_array_is_no_integer_array(self):
        assert _array(np.array([[True], [False]])) == "[[true],[false]]"

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                   elements=st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
        .filter(lambda a: not np.isfinite(a).all()),
        hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
        hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                   elements=st.floats(width=32))))
    def test_other_arrays_written_as_lists(self, a):
        assert format_result({"a": a}) == format_result({"a": a.tolist()})

    def test_other_arrays_exact_bytes(self):
        s = format_result({"f": np.array([[0.5, math.inf], [math.nan, -0.0]]), "i": np.array([3, -1]),
                           "b": np.array([True, False]), "h": np.array([0.1, 2.0], dtype=np.float32)})
        assert s == '{"b":[true,false],"f":[[0.5,"inf"],["nan",-0]],"h":[0.10000000149011612,2],"i":[3,-1]}\n'


class TestPipelines:
    def test_estimate_run_and_schema(self, tmp_path):
        cfg = validate_config(base_cfg())
        doc = run_command("estimate", cfg, out_dir=tmp_path)
        validate_result(written(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]
        lam = doc["results"]["lambda1"]
        assert lam["horizon"] == 200 and lam["seed"] == 3

    def test_series_schema_stable_across_seeds(self, tmp_path):
        for seed in (1, 2):
            cfg = validate_config(base_cfg(seed=seed))
            run_command("estimate", cfg, out_dir=tmp_path)
            history = written(tmp_path)["results"]["history"]
            assert sorted(history) == ["direction_distance", "lambda1_running", "ln_rho", "t", "w"]
            assert {len(row) for row in history["w"]} == {3}

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
        validate_result(written(tmp_path))

    def test_orbit_and_oseledets(self, tmp_path):
        cfg = validate_config(base_cfg())
        orb = run_command("orbit", cfg, out_dir=tmp_path)["results"]
        assert orb["ns"][0] == -20 and orb["ns"][-1] == 0
        assert orb["convergence_distance"] <= 1e-8
        osl = run_command("oseledets", cfg, out_dir=tmp_path)["results"]
        exps = list(osl["exponents"])
        assert len(exps) == 3
        assert exps == sorted(exps, reverse=True)

    def test_record_every_keeps_rates(self, tmp_path):
        # a row every 4 steps carries the log growth of all 4: the
        # divergence means and the running exponent match a row per step
        runs = []
        for every in (1, 4):
            cfg = validate_config(base_cfg(estimator={
                "horizon": 2000, "record_every": every, "divergence_horizons": [125, 256, 1000, 2000]}))
            runs.append(run_command("estimate", cfg, out_dir=tmp_path / str(every))["results"])
        a, b = runs
        ha, hb = a["history"], b["history"]
        assert len(hb["t"]) == len(ha["t"]) // 4 == 500
        assert np.allclose(b["divergence"]["means"][1:], a["divergence"]["means"][1:], rtol=0, atol=1e-12)
        # at 125, between rows, the mean runs to the last row, at 124
        assert abs(b["divergence"]["means"][0] - ha["lambda1_running"][123]) <= 1e-12
        assert abs(hb["lambda1_running"][-1] - ha["lambda1_running"][-1]) <= 1e-12
        assert abs(ha["lambda1_running"][-1] - a["lambda1"]["value"]) <= 1e-12

    @pytest.mark.parametrize("every", [1, 4])
    def test_history_columns_are_the_tracked_probe(self, tmp_path, every):
        # results.json holds the tracked probe's rows exactly; series off
        # leaves out the history and nothing else
        cfg = validate_config(base_cfg(estimator={"horizon": 200, "warmup": 30, "record_every": every}))
        run_command("estimate", cfg, out_dir=tmp_path / "on")
        res = written(tmp_path / "on")["results"]
        cocycle = estimators.MatrixCocycle(build_model(cfg)[1])
        omega = build_driver(cfg).initial(3)
        w0 = estimators.warmup_direction(cocycle, omega, 30)
        track, _ = estimators.forward_floquet(cocycle, omega, np.column_stack([w0, np.eye(3)[0]]), 200,
                                              record_every=every)
        history = res.pop("history")
        assert len(history["t"]) == 200 // every
        for column, rows in (("t", track.times), ("ln_rho", track.log_rho), ("w", track.directions)):
            assert np.array_equal(np.array(history[column]), rows), column
        running, value = history["lambda1_running"][-1], res["lambda1"]["value"]
        if every == 1:
            assert running == value
        else:
            # rows sum their 4 steps before the running sum: the same 200
            # terms regrouped, at most 200 roundings of the log growth apart
            assert abs(running - value) <= 200 * np.finfo(float).eps * abs(value)
        run_command("estimate", validate_config({**cfg, "output": {"series": False}}), out_dir=tmp_path / "off")
        assert format_result(written(tmp_path / "off")["results"]) == format_result(res)

    def test_divergence_horizon_before_first_row(self, tmp_path):
        # rows come every 4 steps, so there is no mean over [0, 2]; it used
        # to read row -1, the whole-run mean
        est = {"horizon": 2000, "record_every": 4, "divergence_horizons": [2, 1000, 2000]}
        cfg = validate_config(base_cfg(estimator=est))
        with pytest.raises(ConfigError, match=r"divergence horizon 2 precedes the first history "
                                              r"row at t = 4 \(record_every 4 x dt 1\)"):
            run_command("estimate", cfg, out_dir=tmp_path)
        # a horizon on the first row is a mean over that row
        cfg = validate_config(base_cfg(estimator={**est, "divergence_horizons": [4, 1000, 2000]}))
        res = run_command("estimate", cfg, out_dir=tmp_path)["results"]
        assert res["divergence"]["means"][0] == res["history"]["lambda1_running"][0]

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
        validate_result(written(tmp_path))
        chk = run_command("check", cfg, out_dir=tmp_path)["results"]["assumption_reports"]
        assert {r["condition"] for r in chk} == {"O1", "O2"}
        assert next(r for r in chk if r["condition"] == "O1")["verdict"] == "holds"

    def test_ode_estimate_one_pass(self, tmp_path, monkeypatch):
        # the warm-up, then the warmed and raw probes as one block; the kappa
        # route reads the warmed probe's rows: 50 + 1000 flow maps, not 3100.
        # A unit cell holds 10 steps, which share one expm per chunk and
        # need no DOP853 batch: 105 cells for the estimate, and 110 for
        # separate's 50 + 1000 + 50 steps, each map built once, in one
        # stacked expm call per chunk (stacks holds their sizes).  A cell
        # that a chunk cut splits takes one expm in each chunk: the cuts at
        # steps 256, 512 and 768 of the estimate's 1000, and at 256, 512,
        # 768 and 1024 of separate's 1050, add 3 and 4.  The cells come in
        # blocks of BLOCK_CELLS, one draw each and no per-cell Generator:
        # the estimate reads cells -5..99 and separate -5..104: blocks -1 and
        # 0, one draw each
        maps, stacks, calls, draws = [], [], {"_dop853": 0}, {"_prf": 0, "cell_uniforms": 0}
        walk, expm = odes._walk, odes.expm

        def counted_walk(model, first, k, dt):
            maps.append(k)  # the steps of each chunk walked
            return walk(model, first, k, dt)

        def counted(name, module=odes, tally=calls):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_draw(name):
            return counted(name, drivers, draws)

        def counted_expm(A):
            stacks.append(len(A))
            return expm(A)

        monkeypatch.setattr(odes, "_walk", counted_walk)
        monkeypatch.setattr(odes, "expm", counted_expm)
        for name in calls:
            monkeypatch.setattr(odes, name, counted(name))
        for name in draws:
            monkeypatch.setattr(drivers, name, counted_draw(name))
        cfg = validate_config({"seed": 100,
                               "model": {"kind": "ode-piecewise-uniform", "n": 3,
                                         "diag": [-1.0, 0.5], "offdiag": [0.0, 1.0]},
                               "estimator": {"horizon": 100.0, "dt": 0.1}})
        res = run_command("estimate", cfg, out_dir=tmp_path)["results"]
        assert sum(maps) == 50 + 1000 and sum(stacks) == 108 and len(stacks) == len(maps)
        assert calls == {"_dop853": 0}
        assert draws == {"_prf": 0, "cell_uniforms": 2}
        assert abs(res["lambda1_kappa_route"]["value"] - res["lambda1"]["value"]) < 5e-3
        maps.clear()
        stacks.clear()
        draws.update(cell_uniforms=0)
        run_command("separate", cfg, out_dir=tmp_path)
        assert sum(maps) == 50 + 1000 + 50 and sum(stacks) == 114 and len(stacks) == len(maps)
        assert calls == {"_dop853": 0}
        assert draws == {"_prf": 0, "cell_uniforms": 2}

    def test_only_oseledets_runs_a_qr_per_step(self, tmp_path, monkeypatch):
        # separate carries its complement frame unorthonormalised: no QR
        # on matrix or ODE maps; oseledets still takes one per step
        calls = []
        qr = estimators._qr

        def counted(V):
            calls.append(V.shape)
            return qr(V)

        monkeypatch.setattr(estimators, "_qr", counted)
        ode = {"seed": 100, "model": {"kind": "ode-piecewise-uniform", "n": 3,
                                      "diag": [-1.0, 0.5], "offdiag": [0.0, 1.0]},
               "estimator": {"horizon": 10.0, "dt": 0.1}}
        for cfg, steps in ((base_cfg(), 200), (ode, 100)):
            cfg = validate_config(cfg)
            run_command("separate", cfg, out_dir=tmp_path)
            assert calls == []
            run_command("oseledets", cfg, out_dir=tmp_path)
            assert calls == [(3, 3)] * steps
            calls.clear()

    def test_torus_estimate_pipeline(self, tmp_path):
        cfg = validate_config({
            "seed": 4,
            "model": {"kind": "torus-example"},
            "estimator": {"horizon": 10, "dt": 0.25, "warmup": 40, "rtol": 1e-8},
        })
        doc = run_command("estimate", cfg, out_dir=tmp_path)
        w = np.asarray(doc["results"]["w"], dtype=float)
        assert np.linalg.norm(w - np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-6

    def test_short_ode_estimate_has_no_ci(self, tmp_path):
        # 4 steps, fewer than the 8 batches: both routes report a value and
        # no interval, where the kappa route used to stop the command
        cfg = validate_config({"model": {"kind": "torus-example"},
                               "estimator": {"horizon": 1.0, "warmup": 10}})
        res = run_command("estimate", cfg, out_dir=tmp_path)["results"]
        assert math.isnan(res["lambda1"]["ci"]) and math.isnan(res["lambda1_kappa_route"]["ci"])
        assert math.isfinite(res["lambda1_kappa_route"]["value"])

    @pytest.mark.parametrize("est", [{}, {"horizon": 20.0, "dt": 0.5}], ids=["defaults", "set"])
    def test_torus_echo_is_what_the_battery_ran(self, tmp_path, monkeypatch, est):
        from poscocycle import torus
        from poscocycle.estimators import DivergenceDiagnostic
        ran = {}

        def recording_battery(**kwargs):
            ran.update(kwargs)
            rep = torus.TorusValidationReport(rho=0.5, kappa_bound=torus.FOCUSING_RATIO_BOUND)
            rep.divergence = DivergenceDiagnostic.from_means([1.0, 2.0], [0.0, -1.0], -10.0)
            return rep

        monkeypatch.setattr(torus, "validate_against_closed_form", recording_battery)
        cfg = validate_config({"model": {"kind": "torus-example"}, "estimator": est})
        echo = run_command("example-torus", cfg, out_dir=tmp_path)["config"]["estimator"]
        assert (echo["horizon"], echo["dt"]) == (ran["horizon"], ran["dt"])
        assert (ran["horizon"], ran["dt"]) == (est.get("horizon", 50.0), est.get("dt", 0.25))

    def test_check_names_nonfinite_sample(self, tmp_path):
        cfg = validate_config({"model": {"kind": "constant", "matrix": [[1.0, 2.0], [math.nan, 1.0]]},
                               "estimator": {"n_samples": 5}})
        with pytest.raises(EstimationError, match=r"sampled map 0 \(lag 1\) has the non-finite entry \(1, 0\)"):
            run_command("check", cfg, out_dir=tmp_path)

    def test_schema_is_wellformed(self):
        schema = results_schema()
        assert schema["properties"]["command"]["enum"] == list(COMMANDS)

    def test_validate_rejects_what_the_schema_rejects(self):
        import jsonschema
        doc = {"tool": {"name": "poscocycle", "version": "0"}, "command": "check", "seed": 1,
               "config": {}, "results": {}, "timing": {"wall_seconds": "nan"}}
        validate_result(doc)
        with pytest.raises(jsonschema.ValidationError, match="'fast' is not valid"):
            validate_result({**doc, "timing": {"wall_seconds": "fast"}})


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

    @pytest.mark.parametrize("args, message", [
        (("leslie-demo",), "invalid choice: 'leslie-demo'"),
        (("estimate", "--seed", "abc"), "argument --seed: invalid int value: 'abc'"),
    ])
    def test_parse_error_exit_1(self, args, message):
        # exit 2 is a model assumption failure, not argparse's usage error
        r = self.run_cli(*args)
        assert r.returncode == 1 and message in r.stderr

    def test_help_exit_0(self):
        r = self.run_cli("--help")
        assert r.returncode == 0 and "example-torus" in r.stdout

    def test_check_prints_first_witness(self, tmp_path):
        # the flip's square is diagonal: every window of two steps has zero
        # off-diagonal entries, and the summary names the first; a failing
        # report leaves the exit code at 0
        p = tmp_path / "flip.json"
        p.write_text(json.dumps({"model": {"kind": "constant", "matrix": [[0, 1], [1, 0]]},
                                 "estimator": {"lag": 2}}))
        r = self.run_cli("check", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 0
        assert "D2.i: fails (witness 1 of 5: [0, 0, 1, 0.0])" in r.stdout.splitlines()
        assert "D3.sufficient.global-min: fails (witness 1 of 1: [0, 0.0])" in r.stdout.splitlines()

    def test_positivity_failure_exit_2(self, tmp_path):
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({
            "model": {"kind": "constant", "matrix": [[1.0, -2.0], [0.5, 1.0]]},
            "estimator": {"horizon": 10, "warmup": 0},
        }))
        r = self.run_cli("estimate", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["estimate", "separate"])
    def test_warmup_leaves_cone_exit_2(self, tmp_path, command, capsys):
        # in process; the warm-up of separate used to walk unchecked and exit 0
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({"model": {"kind": "constant", "matrix": [[1.0, -0.5], [0.2, 1.0]]},
                                 "estimator": {"warmup": 50}}))
        from poscocycle import cli
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "left the cone" in capsys.readouterr().err

    @pytest.mark.parametrize("command, t", [("separate", 2), ("orbit", -38)])
    def test_unwarmed_walk_leaves_cone_exit_2(self, tmp_path, command, t, capsys):
        # in process; separation's principal sweep and the pullbacks of orbit
        # used to walk unchecked and exit 0 with directions outside the cone
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({"model": {"kind": "constant", "matrix": [[1.0, -0.5], [0.2, 1.0]]},
                                 "estimator": {"warmup": 0}}))
        from poscocycle import cli
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == 2
        assert f"left the cone at t = {t}:" in capsys.readouterr().err

    @pytest.mark.parametrize("warmup, t", [(0, 98), (50, 148)])
    def test_dual_walk_leaves_cone_exit_2(self, tmp_path, warmup, t, capsys):
        # in process; the dual orbit leaves the cone while the principal one
        # stays in it: separate used to exit 0 with w_star outside the cone
        p = tmp_path / "dual.json"
        p.write_text(json.dumps({"model": {"kind": "constant", "matrix": [[2.0, -0.5], [0.0, 1.0]]},
                                 "estimator": {"warmup": warmup}}))
        from poscocycle import cli
        assert cli.main(["separate", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert f"left the cone at t = {t}:" in capsys.readouterr().err

    def test_one_dimensional_separate_exit_1(self, tmp_path, capsys):
        # in process; it used to exit 1 with "config error: math domain error"
        p = tmp_path / "one.json"
        p.write_text(json.dumps({"model": {"kind": "constant", "matrix": [[2.0]]}}))
        from poscocycle import cli
        assert cli.main(["separate", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == ("config error: separation needs N >= 2, got N = 1: the invariant "
                                           "complement of a one-dimensional system is {0}\n")

    def test_numerical_failure_exit_3(self, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({
            "model": {"kind": "constant", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
            "estimator": {"depth": 5},
        }))
        r = self.run_cli("orbit", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 3
        assert "annihilated" in r.stderr

    @pytest.mark.parametrize("matrix, dies", [
        pytest.param([[0, 1], [0, 1]], 1, id="first-step"),
        pytest.param([[0, 0, 0], [1, 0, 0], [0, 0, 1]], 2, id="mid-run"),
    ])
    def test_annihilated_raw_probe(self, tmp_path, matrix, dies):
        # the raw probe e1 is annihilated at step ``dies``; the rows follow
        # the warmed probe, with no distance to the raw one from then on
        p = tmp_path / "kill.json"
        p.write_text(json.dumps({"model": {"kind": "constant", "matrix": matrix},
                                 "estimator": {"horizon": 20, "warmup": 5}, "output": {"series": True}}))
        r = self.run_cli("estimate", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        doc = written(tmp_path)
        validate_result(doc)
        history = doc["results"]["history"]
        distances = history["direction_distance"]
        assert len(distances) == 20
        assert all(d == "nan" for d in distances[dies - 1:])
        assert all(isinstance(d, float) for d in distances[:dies - 1])
        assert {len(column) for column in history.values()} == {20}

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

    @pytest.mark.parametrize("every", [0, -4])
    def test_record_every_must_be_positive_exit_1(self, tmp_path, every, capsys):
        # 0 used to end in a bare IndexError, -4 to divide the CI's rates by -4 dt
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg(estimator={"horizon": 200, "record_every": every})))
        from poscocycle import cli
        assert cli.main(["estimate", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "'estimator.record_every' must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("separate", "warmup", -5),  # used to die in an uncaught UnboundLocalError
        ("estimate", "warmup", -5),  # used to blame the horizon
        ("estimate", "warmup", 0.5),  # used to be truncated to 0
        ("check", "lag", 0),  # used to check identity matrices and exit 0
        ("orbit", "depth", 0),
        ("check", "n_samples", 0),
        ("estimate", "batches", 1),
        ("separate", "proj_samples", -1),
    ])
    def test_integer_keys_checked_exit_1(self, tmp_path, command, key, value, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg(estimator={"horizon": 200, key: value})))
        from poscocycle import cli
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == 1
        assert f"'estimator.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key, token", [
        ("matrix", "horizon", '"100"'),  # used to end in a bare TypeError
        ("matrix", "dt", "null"),  # likewise
        ("matrix", "divergence_horizons", "5"),  # likewise
        ("matrix", "horizon", "1e400"),  # used to exit 3: cannot convert float infinity to integer
        ("matrix", "horizon", "NaN"),  # used to name no key
        ("matrix", "horizon", "true"),
        ("matrix", "dt", "-0.5"),
        ("matrix", "rtol", '"x"'),  # used to be accepted
        ("ode", "rtol", '"x"'),  # used to fail in float()
        ("ode", "rtol", "0"),
        ("matrix", "divergence_threshold", "NaN"),
        ("matrix", "divergence_horizons", "[125, -Infinity]"),
        ("matrix", "seed", '"abc"'),  # used to fail in int()
        ("matrix", "seed", "1.5"),
        ("matrix", "horizon", "0.4"),  # used to name no key: horizon must cover at least one step
        ("ode", "horizon", "0.04"),  # likewise
    ])
    def test_numeric_keys_checked_exit_1(self, tmp_path, kind, key, token, capsys):
        ode = {"kind": "ode-piecewise-uniform", "n": 2, "diag": [-0.5, 0.5], "offdiag": [0.1, 1.0]}
        cfg = base_cfg(**({"model": ode} if kind == "ode" else {}))
        (cfg if key == "seed" else cfg["estimator"])[key] = "@"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg).replace('"@"', token))
        from poscocycle import cli
        assert cli.main(["estimate", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert f"'{key if key == 'seed' else 'estimator.' + key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, key", [
        ("estimate", ["--horizon=inf"], "estimator.horizon"),  # used to exit 3: cannot convert float infinity
        ("estimate", ["--horizon=nan"], "estimator.horizon"),  # used to name no key
        ("estimate", ["--horizon=-5"], "estimator.horizon"),  # likewise
        ("example-torus", ["--rho", "2"], "driver.rho"),  # likewise
        ("example-torus", ["--horizon=0.1"], "estimator.horizon"),  # used to name no key, after two items ran
    ])
    def test_flags_checked_exit_1(self, tmp_path, command, flags, key, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg()))
        config = ["--config", str(p)] if command == "estimate" else []
        from poscocycle import cli
        assert cli.main([command, *config, *flags, "--out", str(tmp_path)]) == 1
        assert f"'{key}' must" in capsys.readouterr().err

    @pytest.mark.parametrize("token", [
        '["a", 1, 2]', '"abc"',  # used to exit 1 with numpy's conversion message
        '[1, "nan", 1]', "[1e400, 1, 1]",  # used to exit 3: forward iterate not finite
        "[1, -1, 0]",  # used to exit 2 at t = 0
        "[0, 0, 0]",  # used to name no key
    ])
    def test_u0_checked_exit_1(self, tmp_path, token, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg(estimator={"horizon": 20, "u0": "@"})).replace('"@"', token))
        from poscocycle import cli
        assert cli.main(["estimate", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "'estimator.u0' must be null or a list" in capsys.readouterr().err

    def test_u0_length_checked_exit_1(self, tmp_path, capsys):
        # used to exit 1 with numpy's concatenation message; N is known once
        # validate_config has built the model
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg(estimator={"horizon": 20, "u0": [1, 2]})))
        from poscocycle import cli
        assert cli.main(["estimate", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "'estimator.u0' must hold 3 numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, key", [
        # each comment says what the config did before it was checked by building
        ("estimate", {"model": {"kind": "uniform-entries", "n": 0, "lo": 0.5, "hi": 2.0}},
         "model.n"),  # exit 3: float division by zero
        ("estimate", {"model": {"kind": "ode-piecewise-uniform", "n": 0, "diag": [-0.5, 0.5],
                                "offdiag": [0.1, 1.0]}}, "model.n"),  # likewise
        ("estimate", {"model": {"kind": "uniform-entries", "n": 2.7, "lo": 0.5, "hi": 2.0}},
         "model.n"),  # ran at N = 2
        ("estimate", {"model": {"kind": "leslie", "n": "3", "m": {"dist": "constant", "values": [1, 1, 1]},
                                "b": {"dist": "constant", "values": [1, 1]}}}, "model.n"),  # exit 0
        ("estimate", {"model": {"kind": "uniform-entries", "n": "x", "lo": 0.5, "hi": 2.0}},
         "model.n"),  # exit 1, no key named
        ("estimate", {"model": {"kind": "constant", "matrix": [[1, 2, 3], [4, 5, 6]]}},
         "model.matrix"),  # likewise
        ("estimate", {"model": {"kind": "iid-list", "matrices": [[[1.0]], [[2.0]]], "weights": [1, 2, 3]}},
         "model.weights"),  # likewise
        ("estimate", {"model": {"kind": "iid-list", "matrices": [[[1.0]], [[2.0]]], "weights": [math.nan, 1]}},
         "model.weights"),  # ran on NaN weights
        ("estimate", {"model": {"kind": "iid-list", "matrices": []}}, "model.matrices"),  # IndexError
        ("estimate", {"model": {"kind": "csv", "path": "no-such-dir/matrix.csv"}},
         "model.path"),  # FileNotFoundError
        ("estimate", {"model": {"kind": "csv", "path": 5}}, "model.path"),  # read file descriptor 5
        ("estimate", {"model": {"kind": "ode-piecewise-uniform", "n": 2, "diag": [-0.5, 0.5],
                                "offdiag": [0.1, 1.0]}, "driver": {"kind": "torus-rotation"}},
         "driver.kind"),  # AttributeError
        ("estimate", {"model": {"kind": "markov-list", "matrices": [[[1.0]], [[2.0]]]},
                      "driver": {"kind": "markov-shift", "transition": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                                                                        [0.25, 0.25, 0.5]]}},
         "model.matrices"),  # failed mid-run: driver chain state 2 has no matrix
        # the driver holds a torus's one rotation number; these two configs
        # were rejected for disagreeing with the model's rotation before
        ("estimate", {"model": {"kind": "torus-example"}, "driver": {"kind": "torus-rotation", "rho": 0},
                      "estimator": {"horizon": 20}}, "driver.rho"),
        ("example-torus", {"model": {"kind": "torus-example"}, "driver": {"kind": "torus-rotation", "rho": 1.5}},
         "driver.rho"),
    ])
    def test_bad_model_or_driver_value_named_exit_1(self, tmp_path, command, cfg, key, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        from poscocycle import cli
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err and "Traceback" not in err

    def test_cli_import_leaves_out_slow_scipy_modules(self):
        # any scipy import loads scipy._lib._array_api, which pulls in
        # numpy.f2py and numpy.testing: most of the CLI's start-up time
        r = run_python("-c", "import sys, poscocycle.cli; "
                       "from poscocycle import config, pipelines, reporting, torus; "
                       "print(sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'))")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    @pytest.mark.parametrize("model", [
        {"kind": "uniform-entries", "n": 3, "lo": 0.5, "hi": 2.0},
        {"kind": "ode-piecewise-uniform", "n": 2, "diag": [-0.5, 0.5], "offdiag": [0.1, 1.0]},
    ], ids=["uniform-entries", "ode-piecewise-uniform"])
    def test_estimate_loads_no_scipy(self, tmp_path, model):
        # the exact flow of a constant ODE piece is numpy's own expm: no
        # scipy module is loaded after one estimate run, matrix or ODE
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": model, "estimator": {"horizon": 5, "warmup": 5}}))
        r = run_python("-c", "import sys; from poscocycle import cli; "
                       f"code = cli.main(['estimate', '--config', {str(p)!r}, '--out', {str(tmp_path)!r}]); "
                       "print(code, sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'))")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "0 []"

    def test_separate_without_warmup(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg(estimator={"horizon": 50, "warmup": 0})))
        r = self.run_cli("separate", "--config", str(p), "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "results.json").read_text())
        assert math.isfinite(doc["results"]["sigma"]["value"])

    def test_torus_flags(self, tmp_path):
        # --rho with no config rotates the driver, and the battery runs on it
        r = self.run_cli("example-torus", "--seed", "1", "--rho", "0.3", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "results.json").read_text())
        assert r.returncode == (0 if doc["results"]["passed"] else 3), r.stderr
        assert doc["config"]["driver"] == {"kind": "torus-rotation", "rho": 0.3, "time": "continuous"}
        assert doc["results"]["rho"] == 0.3 and doc["results"]["seed"] == 1
        items = {i["name"]: i["passed"] for i in doc["results"]["items"]}
        assert items["separation-rate"]
        # the worst propagator error of each of the 5 base points, next to the other per-base-point lists
        errors = doc["results"]["propagator_errors"]
        assert len(errors) == len(doc["results"]["direction_errors"]) == 5
        assert items["propagator-agreement"] == (max(errors) <= 1e-8)

    def test_torus_battery_needs_torus_model_exit_1(self, tmp_path, monkeypatch, capsys):
        # used to run the battery on the default torus, exit 0 and echo the
        # uniform-entries model
        from poscocycle import cli, torus
        ran = []
        monkeypatch.setattr(torus, "validate_against_closed_form", lambda **kwargs: ran.append(kwargs))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg()))
        assert cli.main(["example-torus", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'model.kind'" in err
        assert ran == [] and not (tmp_path / "results.json").exists()

    def test_empty_divergence_horizons_exit_1(self, tmp_path, monkeypatch, capsys):
        # used to run the whole battery, then die in
        # DivergenceDiagnostic.from_means with an IndexError traceback
        from poscocycle import cli, odes
        integrated = []
        monkeypatch.setattr(odes, "_dop853", lambda *args: integrated.append(args))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": {"kind": "torus-example"}, "driver": {"kind": "torus-rotation"},
                                 "estimator": {"divergence_horizons": []}}))
        assert cli.main(["example-torus", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "divergence_horizons" in err
        assert integrated == [] and not (tmp_path / "results.json").exists()

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

    def test_fibonacci_leslie_estimate(self, tmp_path):
        p = tmp_path / "fib.json"
        p.write_text(json.dumps({"model": {"kind": "leslie", "n": 2,
                                           "m": {"dist": "constant", "values": [1.0, 1.0]},
                                           "b": {"dist": "constant", "values": [1.0]}},
                                 "estimator": {"horizon": 200, "warmup": 60, "lag": 2}}))
        r = self.run_cli("estimate", "--config", str(p), "--out", str(tmp_path))
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

    def test_seed_and_horizon_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(base_cfg()))
        r = self.run_cli("estimate", "--config", str(p), "--seed", "9",
                         "--horizon", "50", "--out", str(tmp_path))
        assert r.returncode == 0
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["seed"] == 9 and doc["results"]["lambda1"]["horizon"] == 50
