"""Node configuration documents and builders.

A node config is a plain JSON-serializable dict: identity, machine kind,
neighbor registrations (exchange rows as coordinate->coefficient maps over
the current-block state), sensor rows, parameter bounds, inline model
documents and the information-message threshold `delta_info_bits`. Step
length, horizon, history length, sensor noise, priors and the gradient
threshold are constants of the node layer. `build_node` turns a document
into a live Node; it rejects a document that lacks a required field or
carries one it does not know.
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
from .models.layouts import MATERIALS, MID_LINE, SIZES, StateLayout
from .lossnode import LOSS_COORDS, LOSS_NODE_NAME
from .node import (
    DEFAULT_DELTA_INFO_BITS,
    NeighborRegistration,
    Node,
    ParameterSpec,
    SensorBinding,
)

FLOW_PRIOR_MEAN = 0.01
FLOW_PRIOR_VAR = 1.0
PARAM_PRIOR_VAR = 25.0

# The top-level fields a node document must carry; the fields it may carry,
# at the top level and per entry.
REQUIRED_FIELDS = ("id", "machine", "models")
DOCUMENT_FIELDS = frozenset(
    {"format_version", "kind", "id", "machine", "models", "delta_info_bits",
     "neighbors", "sensors", "parameters"}
)
ENTRY_FIELDS = {
    "neighbors": frozenset({"name", "rows"}),
    "sensors": frozenset({"id", "row"}),
    "parameters": frozenset({"name", "coord", "lower", "upper", "initial"}),
}


def _reject_unknown(where: str, doc: dict, known: frozenset):
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(unknown)}")


def _check_fields(config: dict):
    missing = [f for f in REQUIRED_FIELDS if f not in config]
    if missing:
        raise ConfigError(f"missing field(s) in node_config: {', '.join(missing)}")
    _reject_unknown("node_config", config, DOCUMENT_FIELDS)
    for key, known in ENTRY_FIELDS.items():
        for i, entry in enumerate(config.get(key, [])):
            _reject_unknown(f"{key}[{i}]", entry, known)


def row_matrix(layout: StateLayout, rows) -> np.ndarray:
    """Rows of coordinate->coefficient maps over current-block names."""
    m = np.zeros((len(rows), layout.dim))
    for r, row in enumerate(rows):
        for coord, coef in row.items():
            m[r, layout.cur(coord)] = float(coef)
    return m


def _build_machine(machine: str, models_doc: dict):
    """(layout, process model, prediction model) of one machine kind."""
    if machine == "siever":
        layout = siever_layout()
        kernels, splits = siever_fit_from_dict(models_doc["siever_fit"])
        return layout, siever_model(kernels, splits, layout=layout), history_prediction(layout)
    if machine == "conveyor":
        layout = conveyor_layout()
        delay = float(models_doc["conveyor"]["delay"])
        return layout, None, conveyor_model(layout.history_len, delay, layout=layout)
    if machine == "magsorter":
        layout = magsorter_layout()
        mlp = mlp_from_dict(models_doc["mlp"])
        return layout, magsorter_model(mlp, layout=layout), lowpass_prediction(layout)
    raise ConfigError(f"unknown machine kind {machine!r}")


def _build_prior(layout: StateLayout, parameters) -> GaussianEstimate:
    mean = np.full(layout.n, FLOW_PRIOR_MEAN)
    var = np.full(layout.n, FLOW_PRIOR_VAR)
    for p in parameters:
        ix = layout.index(p.coord)
        mean[ix] = p.initial
        var[ix] = PARAM_PRIOR_VAR
    return GaussianEstimate(mean, np.diag(var))


def build_node(config: dict) -> Node:
    if config.get("kind") != "node_config" or config.get("format_version") != FORMAT_VERSION:
        raise ConfigError("not a supported node_config document")
    _check_fields(config)
    layout, process, prediction = _build_machine(config["machine"], config["models"])
    neighbors = [
        NeighborRegistration(nb["name"], row_matrix(layout, nb["rows"]))
        for nb in config.get("neighbors", [])
    ]
    sensors = [
        SensorBinding(s["id"], row_matrix(layout, [s["row"]]))
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
        initial_prior=_build_prior(layout, parameters),
        delta_info_bits=float(config.get("delta_info_bits", DEFAULT_DELTA_INFO_BITS)),
    )


# -- demo chain wiring ---------------------------------------------------------


def _siever_exchange_rows():
    return [{f"out.{MID_LINE}.{p}": 1.0} for p in SIZES]


def _conveyor_in_rows():
    return [{f"hist.{p}.0": 1.0} for p in SIZES]


def _conveyor_out_rows():
    return [{f"out.{p}": 1.0} for p in SIZES]


def _mag_in_rows():
    return [{f"in.{m}.{p}": 1.0 for m in MATERIALS} for p in SIZES]


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
        "delta_info_bits": DEFAULT_DELTA_INFO_BITS,
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
            },
            *[
                {
                    "id": f"siever_out_{o}",
                    "row": {f"out.{o}.{p}": 1.0 for p in SIZES},
                }
                for o in SIZES
            ],
        ],
        "parameters": [
            {"name": "speed", "coord": "speed", "lower": 5.0, "upper": 21.0, "initial": initial_speed}
        ],
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
            },
            *[
                {
                    "id": f"mag_out_{o}",
                    "row": {f"out.{m}.{o}.{p}": 1.0 for m in MATERIALS for p in SIZES},
                }
                for o in MATERIALS
            ],
        ],
        "parameters": [
            {"name": "height", "coord": "height", "lower": 8.0, "upper": 16.0, "initial": initial_height}
        ],
        "models": {"mlp": mlp_doc},
    }
    return {"siever": siever, "conveyor": conveyor, "magsorter": magsorter}
