"""Runner integration tests: determinism, flags, configs, transports."""

import json
import logging
import os

import numpy as np
import pytest

from difftwin import fusion
from difftwin.configs import build_node, demo_configs
from difftwin.errors import ConfigError
from difftwin.facility import ScenarioSpec
from difftwin.models import magsorter_layout, siever_layout
from difftwin.models.io import mlp_from_dict, siever_fit_from_dict
from difftwin.runner import RunConfig, run


def short_config(prepared_models, out_dir, **kw):
    mlp_doc, fit_doc = prepared_models
    defaults = dict(
        scenario=ScenarioSpec("static", duration_s=150.0, seed=11),
        out_dir=str(out_dir),
        optimize=True,
        activation_delay=60.0,
        mlp_doc=mlp_doc,
        siever_fit_doc=fit_doc,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestDeterminism:
    def test_identical_runs_bitwise_identical(self, prepared_models, tmp_path):
        paths = []
        for sub in ("a", "b"):
            cfg = short_config(prepared_models, tmp_path / sub)
            run(cfg)
            paths.append(tmp_path / sub)
        for name in ("run.csv", "states.csv"):
            a = (paths[0] / name).read_bytes()
            b = (paths[1] / name).read_bytes()
            assert a == b, name


class TestFlags:
    def test_no_optimize_keeps_setpoints_constant(self, prepared_models, tmp_path):
        cfg = short_config(prepared_models, tmp_path, optimize=False)
        res = run(cfg)
        speeds = {r.speed for r in res.rows}
        heights = {r.height for r in res.rows}
        assert speeds == {cfg.initial_speed}
        assert heights == {cfg.initial_height}
        assert all(r.grad_msgs == 0 for r in res.rows)

    def test_optimized_run_moves_setpoints(self, prepared_models, tmp_path):
        cfg = short_config(prepared_models, tmp_path)
        res = run(cfg)
        assert res.final_setpoints["height"] != cfg.initial_height


class TestSolveBudget:
    def test_model_evaluations_per_solve_on_real_models(
        self, prepared_models, tmp_path, monkeypatch
    ):
        # Points at which solve_map evaluates the model rows, by node
        # dimension, on a static run with optimization: the magsorter's
        # network rows need real damping, the siever's split rows a few
        # iterations. Each of these nodes has one model source, so a point
        # is one model-row evaluation.
        per_dim = {}
        current = []
        source_rows, solve = fusion.FusionProblem._source_rows, fusion.solve_map

        def counting_rows(problem, src, L, x):
            if current:
                current[-1] += 1
            return source_rows(problem, src, L, x)

        def counting_solve(problem, x0):
            current.append(0)
            try:
                return solve(problem, x0)
            finally:
                per_dim.setdefault(problem.dim, []).append(current.pop())

        monkeypatch.setattr(fusion.FusionProblem, "_source_rows", counting_rows)
        monkeypatch.setattr(fusion, "solve_map", counting_solve)
        run(short_config(prepared_models, tmp_path))
        mag = per_dim[magsorter_layout().dim]
        siever = per_dim[siever_layout().dim]
        assert min(mag) >= 1 and min(siever) >= 1
        assert np.mean(mag) <= 15.0
        assert max(mag) <= 60
        assert np.mean(siever) <= 6.0


class TestContainment:
    def test_numpy_failure_in_fusion_keeps_the_run_going(
        self, prepared_models, tmp_path, monkeypatch, caplog
    ):
        # Every fifth CI Newton direction raises numpy's LinAlgError: each
        # such fusion fails as KernelFailure, the node keeps the step's
        # previous result, and the run finishes.
        real, calls = fusion._newton_direction, [0]

        def flaky(*args):
            calls[0] += 1
            if calls[0] % 5 == 0:
                raise np.linalg.LinAlgError("injected")
            return real(*args)

        monkeypatch.setattr(fusion, "_newton_direction", flaky)
        with caplog.at_level(logging.WARNING, logger="difftwin.node"):
            res = run(short_config(prepared_models, tmp_path))
        assert len(res.rows) == 5
        assert calls[0] >= 5
        assert "linear-algebra kernel failed: injected" in caplog.text


class TestCsvSchema:
    def test_golden_headers(self, prepared_models, tmp_path):
        cfg = short_config(prepared_models, tmp_path, optimize=False)
        res = run(cfg)
        with open(res.run_path) as fh:
            assert fh.readline().strip() == (
                "window,time_s,phase,speed,height,loss,info_msgs,info_rounds,"
                "grad_msgs,grad_rounds,max_info_per_pair_step,max_info_per_step,siever_grad"
            )
        with open(res.states_path) as fh:
            assert fh.readline().strip() == "window,time_s,node,coord,mean,std,truth"


class TestConfigs:
    def test_node_config_json_round_trip(self, prepared_models):
        mlp_doc, fit_doc = prepared_models
        cfgs = demo_configs(mlp_doc, fit_doc)
        for name, cfg in cfgs.items():
            doc = json.loads(json.dumps(cfg))
            node = build_node(doc)
            assert node.name == name
            assert node.layout.dim == node.initial_prior.dim * 2

    @pytest.mark.parametrize(
        "entry, key",
        [(None, "horizon"), ("neighbors", "weight"), ("sensors", "effective_mass"),
         ("parameters", "eta_plus")],
    )
    def test_unknown_field_rejected(self, prepared_models, entry, key):
        mlp_doc, fit_doc = prepared_models
        doc = json.loads(json.dumps(demo_configs(mlp_doc, fit_doc)["siever"]))
        (doc if entry is None else doc[entry][0])[key] = 4
        with pytest.raises(ConfigError, match=key):
            build_node(doc)

    @pytest.mark.parametrize("key", ["id", "machine", "models"])
    def test_missing_field_named(self, prepared_models, key):
        mlp_doc, fit_doc = prepared_models
        doc = json.loads(json.dumps(demo_configs(mlp_doc, fit_doc)["siever"]))
        del doc[key]
        with pytest.raises(ConfigError, match=f"missing field.*{key}"):
            build_node(doc)

    def test_unknown_machine_kind_rejected(self, prepared_models):
        mlp_doc, fit_doc = prepared_models
        doc = json.loads(json.dumps(demo_configs(mlp_doc, fit_doc)["siever"]))
        doc["machine"] = "shredder"
        with pytest.raises(ConfigError, match="unknown machine kind 'shredder'"):
            build_node(doc)

    def test_model_docs_round_trip(self, prepared_models):
        mlp_doc, fit_doc = prepared_models
        mlp = mlp_from_dict(json.loads(json.dumps(mlp_doc)))
        assert mlp.residual_cov.shape == (4, 4)
        kernels, splits = siever_fit_from_dict(json.loads(json.dumps(fit_doc)))
        assert set(kernels) == {"S", "M", "L"}
        assert len(splits) == 9


class TestTcpTransport:
    def test_tiny_tcp_run_matches_memory(self, prepared_models, tmp_path):
        cfg_mem = short_config(
            prepared_models, tmp_path / "mem", optimize=False,
            scenario=ScenarioSpec("static", duration_s=90.0, seed=5),
            write_states=False,
        )
        res_mem = run(cfg_mem)
        cfg_tcp = short_config(
            prepared_models, tmp_path / "tcp", optimize=False, transport="tcp",
            scenario=ScenarioSpec("static", duration_s=90.0, seed=5),
            write_states=False,
        )
        res_tcp = run(cfg_tcp)
        with open(res_mem.run_path, "rb") as a, open(res_tcp.run_path, "rb") as b:
            assert a.read() == b.read()
        for key in res_mem.final_setpoints:
            assert res_tcp.final_setpoints[key] == pytest.approx(
                res_mem.final_setpoints[key], abs=1e-9
            )
