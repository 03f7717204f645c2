"""Command-line interface tests: determinism, argument handling, exit codes."""

import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from difftwin.cli import _load_run_config, _read_sweep, build_parser, main
from difftwin.facility import FacilityParams
from difftwin.facility.probe import magsorter_sweep
from difftwin.models import mlp_train
from difftwin.oracle import oracle_optimum
from difftwin.runner import RunConfig


class TestSweepAndTraining:
    def test_sweep_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--out", str(a), "--seed", "5"]) == 0
        assert main(["sweep", "--out", str(b), "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_file_reads_back_exactly(self, tmp_path):
        # train-mlp on the file then trains on the same data as prepare_models.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out), "--seed", "5"]) == 0
        x, y = magsorter_sweep(FacilityParams(), seed=5)
        got_x, got_y = _read_sweep(str(out))
        assert np.array_equal(got_x, x) and np.array_equal(got_y, y)

    def test_train_mlp_deterministic_model_file(self, tmp_path):
        data = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(data), "--seed", "9"]) == 0
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            code = main(
                ["train-mlp", "--dataset", str(data), "--out", str(out),
                 "--seed", "9", "--epochs", "300"]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_train_mlp_epochs_default_matches_prepare_models(self):
        # One default: the CLI trains as long as prepare_models (via mlp_train).
        args = build_parser().parse_args(["train-mlp", "--dataset", "d.csv", "--out", "m.json"])
        assert args.epochs == 4000
        assert inspect.signature(mlp_train).parameters["epochs"].default == 4000

    def test_missing_dataset_is_config_error(self, tmp_path):
        code = main(
            ["train-mlp", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 1

    def test_empty_dataset_is_config_error(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("in_fm,in_nfm,height,tp_fm,fp_fm,tp_nfm,fp_nfm\n")
        code = main(["train-mlp", "--dataset", str(data), "--out", str(tmp_path / "m.json")])
        assert code == 1


class TestOracle:
    def test_static_reference_value(self, tmp_path):
        res = oracle_optimum(FacilityParams(), "static")
        assert res.speed == 21.0
        assert res.height == pytest.approx(11.2, abs=0.3)

    def test_degenerate_grid_returns_single_point(self):
        res = oracle_optimum(FacilityParams(), "static", speed_step=1e3, height_step=1e3)
        assert res.speed == 5.0 and res.height == 8.0

    def test_cli_writes_curves(self, tmp_path):
        code = main(["oracle", "--scenario", "dynamic", "--out", str(tmp_path)])
        assert code == 0
        for phase in ("dyn_a", "dyn_b"):
            path = tmp_path / f"oracle_{phase}.csv"
            header = path.read_text().splitlines()[0]
            assert header == "height,expected_loss"


class TestFitSiever:
    def test_writes_fit_document(self, tmp_path, prepared_models):
        out = tmp_path / "siever.json"
        assert main(["fit-siever", "--out", str(out), "--seed", "124"]) == 0
        doc = json.loads(out.read_text())
        # One drum recipe: seed 124 writes what `run` fits for itself.
        assert doc == prepared_models[1]
        assert doc["kind"] == "siever_fit"
        assert set(doc["kernels"]) == {"S", "M", "L"}
        # kernels recovered within 10% of the configured residence parameters
        truth = FacilityParams().residence
        for o, k in doc["kernels"].items():
            dead, tau = truth[o]
            assert k["dead_time"] == pytest.approx(dead, rel=0.15, abs=2.0)

    def test_fitted_splits_match_truth_within_5_percent(self, prepared_models):
        from difftwin.models.io import siever_fit_from_dict
        from difftwin.models.siever import split_fractions
        from difftwin.facility.truth import siever_split

        _, fit_doc = prepared_models
        _, splits = siever_fit_from_dict(fit_doc)
        params = FacilityParams()
        for speed in (6.0, 12.0, 18.0, 21.0):
            fitted, _ = split_fractions(splits, speed)
            truth = siever_split(params, speed)
            for key, frac in truth.items():
                assert abs(fitted[key] - frac) <= 0.05, (key, speed)
                assert 0.0 <= fitted[key] <= 1.0


class TestTrainedNetwork:
    def test_capture_monotone_in_height_on_sweep_model(self, prepared_models):
        from difftwin.models.io import mlp_from_dict
        from difftwin.models.mlp import mlp_forward

        mlp_doc, _ = prepared_models
        mlp = mlp_from_dict(mlp_doc)
        heights = np.linspace(8.5, 15.5, 15)
        captures = [
            float(mlp_forward(mlp, np.array([0.02, 0.015, h]))[0]) for h in heights
        ]
        ranks_h = np.argsort(np.argsort(heights))
        ranks_c = np.argsort(np.argsort(captures))
        rho = np.corrcoef(ranks_h, ranks_c)[0, 1]
        assert rho < -0.9  # capture falls as the magnet moves up


class TestRunCommand:
    def test_run_with_models_and_no_optimize(self, prepared_models, tmp_path):
        mlp_doc, fit_doc = prepared_models
        from difftwin.models.io import save_json

        mlp_path = tmp_path / "mlp.json"
        fit_path = tmp_path / "fit.json"
        save_json(mlp_doc, mlp_path)
        save_json(fit_doc, fit_path)
        out = tmp_path / "run"
        code = main(
            [
                "run", "--scenario", "static", "--seed", "3", "--duration", "120",
                "--no-optimize", "--out", str(out),
                "--mlp", str(mlp_path), "--siever-fit", str(fit_path),
            ]
        )
        assert code == 0
        assert (out / "run.csv").exists() and (out / "states.csv").exists()

    def test_bad_config_file_is_config_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    def load(self, tmp_path, doc, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return _load_run_config(build_parser().parse_args(["run", "--config", str(path), *flags]))

    def test_empty_document_keeps_every_dataclass_default(self, tmp_path):
        cfg = self.load(tmp_path, {})
        for f in dataclasses.fields(RunConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) == f.default, f.name
        spec = cfg.scenario
        assert (spec.name, spec.seed, spec.duration_s, spec.phase_period_s) == ("static", 7, 2400.0, 600.0)
        assert cfg.out_dir == "runs/latest"

    def test_document_overrides_defaults_and_flags_override_document(self, tmp_path):
        doc = {"activation_delay_s": 60, "phase_period_s": 120, "seed": 5, "transport": "tcp"}
        cfg = self.load(tmp_path, doc)
        assert (cfg.activation_delay, cfg.scenario.phase_period_s) == (60.0, 120.0)
        assert (cfg.scenario.seed, cfg.transport, cfg.optimize) == (5, "tcp", True)
        cfg = self.load(tmp_path, doc, "--seed", "9", "--transport", "memory", "--no-optimize")
        assert (cfg.scenario.seed, cfg.transport, cfg.optimize) == (9, "memory", False)

    @pytest.mark.parametrize("key", ["activation_delay", "switch_interval_s"])
    def test_unknown_setting_is_config_error(self, tmp_path, capsys, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 60}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert key in capsys.readouterr().err
