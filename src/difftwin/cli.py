"""Command-line entry points: run, sweep, train-mlp, fit-siever, oracle.

Exit codes: 0 success, 1 configuration error, 2 runtime error. All
commands are deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import ConfigError, DifftwinError
from .facility import FacilityParams, ScenarioSpec
from .facility.probe import magsorter_sweep
from .models.io import load_json, mlp_to_dict, save_json
from .models.mlp import MLP_EPOCHS, mlp_forward, mlp_train
from .oracle import oracle_for_scenario
from .runner import RunConfig, fit_drum, run

SWEEP_HEADER = ["in_fm", "in_nfm", "height", "tp_fm", "fp_fm", "tp_nfm", "fp_nfm"]


# Where each key of a run document goes: (ScenarioSpec or RunConfig, field,
# converter). A key the document leaves out keeps the dataclass default.
_RUN_DOC_KEYS = {
    "scenario": (ScenarioSpec, "name", str),
    "seed": (ScenarioSpec, "seed", int),
    "duration_s": (ScenarioSpec, "duration_s", float),
    "phase_period_s": (ScenarioSpec, "phase_period_s", float),
    "out": (RunConfig, "out_dir", str),
    "transport": (RunConfig, "transport", str),
    "optimize": (RunConfig, "optimize", bool),
    "activation_delay_s": (RunConfig, "activation_delay", float),
    "initial_speed": (RunConfig, "initial_speed", float),
    "initial_height": (RunConfig, "initial_height", float),
    "model_seed": (RunConfig, "model_seed", int),
}
# The CLI's own values for the fields the dataclasses require.
_RUN_DOC_REQUIRED = {"scenario": "static", "seed": 7, "duration_s": 2400.0, "out": "runs/latest"}
# Document key -> the `run` flag that overrides it.
_RUN_FLAGS = {
    "scenario": "scenario",
    "seed": "seed",
    "duration_s": "duration",
    "transport": "transport",
    "out": "out",
}


def _load_run_config(args) -> RunConfig:
    doc = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"run config {args.config} must be a JSON object")
    unknown = sorted(set(doc) - set(_RUN_DOC_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown run settings {unknown} in {args.config}; known: {sorted(_RUN_DOC_KEYS)}"
        )
    values = {**_RUN_DOC_REQUIRED, **doc}
    for key, flag in _RUN_FLAGS.items():
        if getattr(args, flag) is not None:
            values[key] = getattr(args, flag)
    if args.no_optimize:
        values["optimize"] = False
    kwargs = {ScenarioSpec: {}, RunConfig: {}}
    for key, value in values.items():
        owner, name, convert = _RUN_DOC_KEYS[key]
        try:
            kwargs[owner][name] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"run setting {key!r}: {exc}") from exc
    cfg = RunConfig(scenario=ScenarioSpec(**kwargs[ScenarioSpec]), **kwargs[RunConfig])
    if args.mlp:
        cfg.mlp_doc = load_json(args.mlp)
    if args.siever_fit:
        cfg.siever_fit_doc = load_json(args.siever_fit)
    return cfg


def cmd_run(args) -> int:
    cfg = _load_run_config(args)
    result = run(cfg)
    print(f"run complete: {len(result.rows)} windows -> {result.run_path}")
    print(
        "final setpoints: "
        + ", ".join(f"{k}={v:.3f}" for k, v in sorted(result.final_setpoints.items()))
    )
    return 0


def cmd_sweep(args) -> int:
    params = FacilityParams()
    x, y = magsorter_sweep(params, seed=args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(v)) for v in (*xi, *yi)])
    print(f"sweep dataset: {len(x)} rows -> {args.out}")
    return 0


def _read_sweep(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SWEEP_HEADER:
            raise ConfigError(f"unexpected sweep header {header}")
        rows = [[float(v) for v in row] for row in reader]
    if not rows:
        raise ConfigError(f"sweep dataset {path} is empty")
    data = np.asarray(rows)
    return data[:, :3], data[:, 3:]


def cmd_train_mlp(args) -> int:
    x, y = _read_sweep(args.dataset)
    mlp = mlp_train((x, y), epochs=args.epochs, seed=args.seed)
    residuals = np.array([mlp_forward(mlp, xi) for xi in x]) - y
    rmse = float(np.sqrt(np.mean(residuals**2)))
    save_json(mlp_to_dict(mlp), args.out)
    print(f"trained network -> {args.out}; dataset RMSE {rmse:.3e} kg/s")
    return 0


def cmd_fit_siever(args) -> int:
    doc = fit_drum(FacilityParams(), args.seed)
    save_json(doc, args.out)
    for outlet, k in sorted(doc["kernels"].items()):
        print(f"outlet {outlet}: dead_time {k['dead_time']:.1f}s tau {k['tau']:.1f}s")
    print(f"siever fit -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    params = FacilityParams()
    results = oracle_for_scenario(
        params, args.scenario, speed_step=args.speed_step, height_step=args.height_step
    )
    os.makedirs(args.out, exist_ok=True)
    for res in results:
        path = os.path.join(args.out, f"oracle_{res.phase}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["height", "expected_loss"])
            for h, val in res.height_curve:
                writer.writerow([f"{h:.9g}", f"{val:.9g}"])
        print(
            f"{res.phase}: optimum speed {res.speed:.1f} rpm, height {res.height:.2f} cm, "
            f"expected loss {res.loss:.6f} -> {path}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difftwin",
        description="Decentralized digital-twin demo: run scenarios, fit models, compute oracle optima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run facility + nodes + loss node")
    p_run.add_argument("--config", help="RunConfig JSON (flags override)")
    p_run.add_argument("--scenario", choices=["static", "dynamic"])
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--duration", type=float, help="simulated seconds")
    p_run.add_argument("--transport", choices=["memory", "tcp"])
    p_run.add_argument("--no-optimize", action="store_true")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--mlp", help="trained network JSON")
    p_run.add_argument("--siever-fit", help="siever fit JSON")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="generate the sorter training dataset")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=123)
    p_sweep.set_defaults(func=cmd_sweep)

    p_train = sub.add_parser("train-mlp", help="train the sorter network on a sweep dataset")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=123)
    p_train.add_argument("--epochs", type=int, default=MLP_EPOCHS)
    p_train.set_defaults(func=cmd_train_mlp)

    p_fit = sub.add_parser("fit-siever", help="fit drum kernels and split curves")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--seed", type=int, default=124)
    p_fit.set_defaults(func=cmd_fit_siever)

    p_oracle = sub.add_parser("oracle", help="grid-search expected-loss optima")
    p_oracle.add_argument("--scenario", choices=["static", "dynamic"], default="static")
    p_oracle.add_argument("--out", default="runs/oracle")
    p_oracle.add_argument("--speed-step", type=float, default=1.0)
    p_oracle.add_argument("--height-step", type=float, default=0.05)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DifftwinError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
