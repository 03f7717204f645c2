"""Node configuration documents and builders.

A node config is a plain JSON-serializable dict: identity, machine layout,
neighbor registrations (exchange rows as coordinate->coefficient maps over
the current-block state), sensor bindings, parameter bounds, inline model
documents and thresholds. `build_node` turns a document into a live Node.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .gaussian import GaussianEstimate
from .models import (
    conveyor_layout,
    conveyor_model,
    history_prediction,
    lowpass_prediction,
    magsorter_layout,
    magsorter_model,
    siever_layout,
    siever_model,
)
from .models.io import FORMAT_VERSION, mlp_from_dict, siever_fit_from_dict
from .models.layouts import MATERIALS, SIZES, StateLayout
from .lossnode import LOSS_COORDS
from .node import (
    DEFAULT_DELTA_GRAD,
    DEFAULT_DELTA_INFO_BITS,
    DEFAULT_HORIZON,
    DEFAULT_RETENTION,
    NeighborRegistration,
    Node,
    ParameterSpec,
    SensorBinding,
)

SENSOR_EFFECTIVE_MASS = 0.015  # kg; shot-noise scale for total-flow sensors
FLOW_PRIOR_MEAN = 0.01
FLOW_PRIOR_VAR = 1.0
PARAM_PRIOR_VAR = 25.0

LOSS_NODE_NAME = "loss"
EXCHANGE_SIZES = SIZES


def _layout_for(machine: str, history_len: int) -> StateLayout:
    if machine == "siever":
        return siever_layout(history_len)
    if machine == "conveyor":
        return conveyor_layout(history_len)
    if machine == "magsorter":
        return magsorter_layout()
    raise ConfigError(f"unknown machine kind {machine!r}")


def row_matrix(layout: StateLayout, rows) -> np.ndarray:
    """Rows of coordinate->coefficient maps over current-block names."""
    m = np.zeros((len(rows), layout.dim))
    for r, row in enumerate(rows):
        for coord, coef in row.items():
            m[r, layout.cur(coord)] = float(coef)
    return m


def _build_models(machine: str, layout: StateLayout, models_doc: dict):
    if machine == "conveyor":
        doc = models_doc["conveyor"]
        model = conveyor_model(layout.history_len, float(doc["delay"]), layout=layout)
        return None, model
    if machine == "siever":
        kernels, splits = siever_fit_from_dict(models_doc["siever_fit"])
        process = siever_model(kernels, splits, layout=layout)
        return process, history_prediction(layout)
    if machine == "magsorter":
        mlp = mlp_from_dict(models_doc["mlp"])
        return magsorter_model(mlp, layout=layout), lowpass_prediction(layout)
    raise ConfigError(f"unknown machine kind {machine!r}")


def _build_prior(layout: StateLayout, doc: dict, parameters) -> GaussianEstimate:
    mean = np.full(layout.n, float(doc.get("flow_mean", FLOW_PRIOR_MEAN)))
    var = np.full(layout.n, float(doc.get("flow_var", FLOW_PRIOR_VAR)))
    for p in parameters:
        ix = layout.index(p["coord"])
        mean[ix] = float(p["initial"])
        var[ix] = float(doc.get("param_var", PARAM_PRIOR_VAR))
    return GaussianEstimate(mean, np.diag(var))


def build_node(config: dict) -> Node:
    if config.get("kind") != "node_config" or config.get("format_version") != FORMAT_VERSION:
        raise ConfigError("not a supported node_config document")
    machine = config["machine"]
    layout = _layout_for(machine, int(config.get("history_len", 8)))
    process, prediction = _build_models(machine, layout, config["models"])
    neighbors = [
        NeighborRegistration(nb["name"], row_matrix(layout, nb["rows"]))
        for nb in config.get("neighbors", [])
    ]
    sensors = [
        SensorBinding(
            s["id"],
            row_matrix(layout, [s["row"]]),
            float(s.get("effective_mass", SENSOR_EFFECTIVE_MASS)),
            dt=float(config.get("dt", 30.0)),
        )
        for s in config.get("sensors", [])
    ]
    parameters = [
        ParameterSpec(
            name=p["name"],
            coord=p["coord"],
            lower=float(p["lower"]),
            upper=float(p["upper"]),
            initial=float(p["initial"]),
        )
        for p in config.get("parameters", [])
    ]
    return Node(
        name=config["id"],
        layout=layout,
        prediction_model=prediction,
        process_model=process,
        neighbors=neighbors,
        sensors=sensors,
        parameters=parameters,
        initial_prior=_build_prior(layout, config.get("prior", {}), config.get("parameters", [])),
        dt=float(config.get("dt", 30.0)),
        horizon=int(config.get("horizon", DEFAULT_HORIZON)),
        retention=int(config.get("retention", DEFAULT_RETENTION)),
        delta_info_bits=float(config.get("delta_info_bits", DEFAULT_DELTA_INFO_BITS)),
        delta_grad=float(config.get("delta_grad", DEFAULT_DELTA_GRAD)),
    )


# -- demo chain wiring ---------------------------------------------------------


def _siever_exchange_rows():
    return [{f"out.M.{p}": 1.0} for p in EXCHANGE_SIZES]


def _conveyor_in_rows():
    return [{f"hist.{p}.0": 1.0} for p in EXCHANGE_SIZES]


def _conveyor_out_rows():
    return [{f"out.{p}": 1.0} for p in EXCHANGE_SIZES]


def _mag_in_rows():
    return [{f"in.NFM.{p}": 1.0, f"in.FM.{p}": 1.0} for p in EXCHANGE_SIZES]


def _loss_rows():
    return [{coord: 1.0} for coord in LOSS_COORDS]


def demo_configs(
    mlp_doc: dict,
    siever_fit_doc: dict,
    initial_speed: float = 12.0,
    initial_height: float = 14.0,
) -> dict:
    """Configs for the three-node demo chain plus the loss registration."""
    common = {
        "format_version": FORMAT_VERSION,
        "kind": "node_config",
        "dt": 30.0,
        "horizon": DEFAULT_HORIZON,
        "retention": DEFAULT_RETENTION,
        "delta_info_bits": DEFAULT_DELTA_INFO_BITS,
        "delta_grad": DEFAULT_DELTA_GRAD,
        "history_len": 8,
    }
    siever = {
        **common,
        "id": "siever",
        "machine": "siever",
        "neighbors": [{"name": "conveyor", "rows": _siever_exchange_rows()}],
        "sensors": [
            {
                "id": "siever_in",
                "row": {f"hist.{p}.0": 1.0 for p in SIZES},
                "effective_mass": SENSOR_EFFECTIVE_MASS,
            },
            *[
                {
                    "id": f"siever_out_{o}",
                    "row": {f"out.{o}.{p}": 1.0 for p in SIZES},
                    "effective_mass": SENSOR_EFFECTIVE_MASS,
                }
                for o in SIZES
            ],
        ],
        "parameters": [
            {"name": "speed", "coord": "speed", "lower": 5.0, "upper": 21.0, "initial": initial_speed}
        ],
        "prior": {},
        "models": {"siever_fit": siever_fit_doc},
    }
    conveyor = {
        **common,
        "id": "conveyor",
        "machine": "conveyor",
        "neighbors": [
            {"name": "siever", "rows": _conveyor_in_rows()},
            {"name": "magsorter", "rows": _conveyor_out_rows()},
        ],
        "sensors": [],
        "parameters": [],
        "prior": {},
        "models": {"conveyor": {"delay": 32.0}},
    }
    magsorter = {
        **common,
        "id": "magsorter",
        "machine": "magsorter",
        "neighbors": [
            {"name": "conveyor", "rows": _mag_in_rows()},
            {"name": LOSS_NODE_NAME, "rows": _loss_rows()},
        ],
        "sensors": [
            {
                "id": "mag_in",
                "row": {f"in.{m}.{p}": 1.0 for m in MATERIALS for p in SIZES},
                "effective_mass": SENSOR_EFFECTIVE_MASS,
            },
            {
                "id": "mag_out_FM",
                "row": {f"out.{m}.FM.{p}": 1.0 for m in MATERIALS for p in SIZES},
                "effective_mass": SENSOR_EFFECTIVE_MASS,
            },
            {
                "id": "mag_out_NFM",
                "row": {f"out.{m}.NFM.{p}": 1.0 for m in MATERIALS for p in SIZES},
                "effective_mass": SENSOR_EFFECTIVE_MASS,
            },
        ],
        "parameters": [
            {"name": "height", "coord": "height", "lower": 8.0, "upper": 16.0, "initial": initial_height}
        ],
        "prior": {},
        "models": {"mlp": mlp_doc},
    }
    return {"siever": siever, "conveyor": conveyor, "magsorter": magsorter}
