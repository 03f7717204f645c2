"""Scenario runner: wires facility, process nodes and the loss node.

The runner owns the simulated clock. Each 30 s window: at the step
boundary switch the network back to the information period (applying
parameter updates), ingest the previous window's sensor readings, exchange
information to quiescence, push setpoints and advance the facility, then
at the step's midpoint switch to the backpropagation period. Both
transports route through one ``InMemoryBus``: with ``transport="tcp"``
its nodes are proxies of node processes. Deterministic round-robin
delivery makes identical (seed, config) runs bitwise identical, and a
TCP run writes the same run.csv as a memory run.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields

from .configs import build_node, demo_configs
from .facility import Facility, FacilityParams, ScenarioSpec
from .facility.articles import article_class
from .facility.probe import STEP_WINDOW, magsorter_sweep, siever_speed_sweep, siever_step_response
from .lossnode import HALF_STEP, LossNode
from .models.io import mlp_to_dict, siever_fit_to_dict
from .models.layouts import MATERIALS, MID_LINE, SIZES, STEP_SECONDS
from .models.mlp import mlp_train
from .models.siever import fit_splits, fit_step_response
from .protocol import TYPE_GRADIENT, TYPE_INFORMATION
from .transport import InMemoryBus, TcpHub


def fit_drum(params: FacilityParams, seed: int) -> dict:
    """Fit the drum's residence kernels (step-response probe, seed) and
    split curves (speed sweep, seed + 1); returns the siever fit document."""
    kernels = fit_step_response(siever_step_response(params, seed), step_index=STEP_WINDOW)
    splits = fit_splits(siever_speed_sweep(params, seed + 1))
    return siever_fit_to_dict(kernels, splits)


def prepare_models(params: FacilityParams, seed: int) -> tuple:
    """Train the sorter network and fit the drum; returns (mlp_doc,
    siever_fit_doc)."""
    mlp = mlp_train(magsorter_sweep(params, seed), seed=seed)
    return mlp_to_dict(mlp), fit_drum(params, seed + 1)


@dataclass
class RunConfig:
    scenario: ScenarioSpec
    out_dir: str
    transport: str = "memory"
    optimize: bool = True
    activation_delay: float = 300.0
    initial_speed: float = 12.0
    initial_height: float = 14.0
    model_seed: int = 123
    mlp_doc: dict | None = None
    siever_fit_doc: dict | None = None
    write_states: bool = True


@dataclass
class WindowRow:
    window: int
    time_s: float
    phase: str
    speed: float
    height: float
    loss: float | None
    info_msgs: int
    info_rounds: int
    grad_msgs: int
    grad_rounds: int
    max_info_per_pair_step: int
    max_info_per_step: int
    siever_grad: float


def _csv_cell(value) -> str | int:
    """One run.csv cell: floats as .9g, None as empty, the rest as is."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return value


@dataclass
class RunResult:
    rows: list
    final_setpoints: dict
    states_path: str | None
    run_path: str
    max_grad_rounds: int = 0


# -- truth mapping for state logging ------------------------------------------


def _truth_map(machine: str):
    """coord -> (sensor location, article filter) for ground-truth joins."""
    mapping = {}
    if machine == "siever":
        for p in SIZES:
            mapping[f"hist.{p}.0"] = ("siever_in", lambda a, p=p: a.size == p)
            for o in SIZES:
                mapping[f"out.{o}.{p}"] = (f"siever_out_{o}", lambda a, p=p: a.size == p)
    elif machine == "conveyor":
        for p in SIZES:
            mapping[f"hist.{p}.0"] = (f"siever_out_{MID_LINE}", lambda a, p=p: a.size == p)
            mapping[f"out.{p}"] = ("mag_in", lambda a, p=p: a.size == p)
    elif machine == "magsorter":
        for m in MATERIALS:
            for p in SIZES:
                mapping[f"in.{m}.{p}"] = (
                    "mag_in",
                    lambda a, m=m, p=p: a.ferromagnetic == m and a.size == p,
                )
                for o in MATERIALS:
                    mapping[f"out.{m}.{o}.{p}"] = (
                        f"mag_out_{o}",
                        lambda a, m=m, p=p: a.ferromagnetic == m and a.size == p,
                    )
    return mapping


def _truth_flow(readings, location, article_filter) -> float:
    reading = readings[location]
    total = 0.0
    for name, mass in reading.class_masses.items():
        if article_filter(article_class(name)):
            total += mass
    return total / STEP_SECONDS


def _setpoints(nodes) -> dict:
    return {(name, p): v for name in sorted(nodes) for p, v in nodes[name].setpoints().items()}


def run(config: RunConfig) -> RunResult:
    os.makedirs(config.out_dir, exist_ok=True)
    params = FacilityParams()
    mlp_doc = config.mlp_doc
    fit_doc = config.siever_fit_doc
    if mlp_doc is None or fit_doc is None:
        mlp_doc, fit_doc = prepare_models(params, config.model_seed)

    node_cfgs = demo_configs(
        mlp_doc,
        fit_doc,
        initial_speed=config.initial_speed,
        initial_height=config.initial_height,
    )
    activation = config.activation_delay if config.optimize else math.inf
    loss_node = LossNode("magsorter", list(node_cfgs), activation_delay=activation)
    hub = TcpHub(node_cfgs) if config.transport == "tcp" else None
    states_file = None
    try:
        nodes = hub.nodes if hub else {name: build_node(node_cfgs[name]) for name in sorted(node_cfgs)}
        bus = InMemoryBus()
        for name in sorted([*nodes, loss_node.name]):
            bus.register(name, nodes.get(name, loss_node))
        facility = Facility(config.scenario, params)
        truth_maps = {name: _truth_map(cfg["machine"]) for name, cfg in node_cfgs.items()}

        windows = int(config.scenario.duration_s // STEP_SECONDS)
        rows = []
        states_path = os.path.join(config.out_dir, "states.csv") if config.write_states else None
        run_path = os.path.join(config.out_dir, "run.csv")
        states_writer = None
        if states_path:
            states_file = open(states_path, "w", newline="")
            states_writer = csv.writer(states_file)
            states_writer.writerow(
                ["window", "time_s", "node", "coord", "mean", "std", "truth"]
            )

        readings_prev = None
        max_grad_rounds = 0
        final = {"speed": config.initial_speed, "height": config.initial_height}
        for k in range(windows + 1):
            t0 = k * STEP_SECONDS
            for name in sorted(nodes):
                nodes[name].ensure_horizon(t0)

            # Phase switch back to information: apply updates, unfreeze.
            switch_msgs = loss_node.on_clock(t0) if k > 0 else []
            if switch_msgs:
                bus.post_all(switch_msgs)
                bus.run_until_quiescent(kick=False)

            # Previous window's sensor readings feed step k-1.
            if readings_prev is not None:
                for name in sorted(node_cfgs):
                    for sensor in node_cfgs[name]["sensors"]:
                        sid = sensor["id"]
                        nodes[name].observe_sensor(k - 1, sid, [readings_prev[sid].total_flow])
            info_rounds = bus.run_until_quiescent(kick=True)
            info = bus.take_stats()

            if states_writer and readings_prev is not None:
                for name in sorted(node_cfgs):
                    tm = truth_maps[name]
                    for coord, mean, std in nodes[name].state_rows(k - 1):
                        truth = ""
                        if coord in tm:
                            loc, flt = tm[coord]
                            truth = f"{_truth_flow(readings_prev, loc, flt):.9g}"
                        states_writer.writerow([
                            k - 1, t0 - STEP_SECONDS, name, coord, f"{mean:.9g}", f"{std:.9g}", truth
                        ])

            if k == windows:
                break

            # Push setpoints and simulate window k. Updates apply only at the
            # next boundary's switch to information, so the row reuses them.
            sp = _setpoints(nodes)
            for (name, pname), value in sorted(sp.items()):
                facility.set_setpoint(pname, value)
            readings_prev = facility.advance_window()

            # Backpropagation period from the middle of the window.
            grad_rounds = 0
            back_msgs = loss_node.on_clock(t0 + HALF_STEP)
            if back_msgs:
                bus.post_all(back_msgs)
                grad_rounds = bus.run_until_quiescent(kick=False)
                max_grad_rounds = max(max_grad_rounds, grad_rounds)
            grad = bus.take_stats()

            rows.append(
                WindowRow(
                    window=k,
                    time_s=t0,
                    phase=config.scenario.phase_at(t0),
                    speed=sp.get(("siever", "speed"), float("nan")),
                    height=sp.get(("magsorter", "height"), float("nan")),
                    loss=loss_node.last_loss,
                    info_msgs=info.by_type[TYPE_INFORMATION],
                    info_rounds=info_rounds,
                    grad_msgs=grad.by_type[TYPE_GRADIENT],
                    grad_rounds=grad_rounds,
                    max_info_per_pair_step=max(info.info_per_pair_step.values(), default=0),
                    max_info_per_step=max(info.info_per_step.values(), default=0),
                    siever_grad=nodes["siever"].max_param_grad() if back_msgs else 0.0,
                )
            )
        for (name, pname), value in _setpoints(nodes).items():
            final[pname] = value
    finally:
        if states_file:
            states_file.close()
        if hub is not None:
            hub.close()

    with open(run_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(WindowRow)])
        for r in rows:
            writer.writerow([_csv_cell(getattr(r, f.name)) for f in fields(WindowRow)])

    return RunResult(
        rows=rows,
        final_setpoints=final,
        states_path=states_path,
        run_path=run_path,
        max_grad_rounds=max_grad_rounds,
    )
