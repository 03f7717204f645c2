"""JSON serialization of model parameter files.

Every document carries a format_version field and explicit shape metadata;
loading rejects unknown versions.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ConfigError
from .layouts import HISTORY_SLOTS
from .mlp import MlpModel
from .siever import ResidenceKernel

FORMAT_VERSION = 1


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def mlp_to_dict(mlp: MlpModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "mlp",
        "widths": [mlp.in_dim, *mlp.hidden_widths(), mlp.out_dim],
        "weights": [_arr(w) for w in mlp.weights],
        "biases": [_arr(b) for b in mlp.biases],
        "in_offset": _arr(mlp.in_offset),
        "in_scale": _arr(mlp.in_scale),
        "out_offset": _arr(mlp.out_offset),
        "out_scale": _arr(mlp.out_scale),
        "residual_cov": _arr(mlp.residual_cov),
    }


def mlp_from_dict(doc: dict) -> MlpModel:
    _check_version(doc, "mlp")
    mlp = MlpModel(
        weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
        in_offset=np.asarray(doc["in_offset"], dtype=float),
        in_scale=np.asarray(doc["in_scale"], dtype=float),
        out_offset=np.asarray(doc["out_offset"], dtype=float),
        out_scale=np.asarray(doc["out_scale"], dtype=float),
        residual_cov=np.asarray(doc["residual_cov"], dtype=float),
    )
    widths = [mlp.in_dim, *mlp.hidden_widths(), mlp.out_dim]
    if widths != list(doc["widths"]):
        raise ConfigError(f"widths {doc['widths']} disagree with weight shapes {widths}")
    return mlp


def siever_fit_to_dict(kernels: dict, split_coeffs: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "siever_fit",
        "slots": HISTORY_SLOTS,
        "kernels": {
            o: {"dead_time": k.dead_time, "tau": k.tau, "weights": _arr(k.weights)}
            for o, k in kernels.items()
        },
        "splits": {f"{o}|{p}": list(c) for (o, p), c in split_coeffs.items()},
    }


def siever_fit_from_dict(doc: dict):
    _check_version(doc, "siever_fit")
    kernels = {
        o: ResidenceKernel(
            dead_time=float(k["dead_time"]),
            tau=float(k["tau"]),
            weights=np.asarray(k["weights"], dtype=float),
        )
        for o, k in doc["kernels"].items()
    }
    splits = {}
    for key, coeff in doc["splits"].items():
        o, p = key.split("|")
        splits[(o, p)] = (float(coeff[0]), float(coeff[1]))
    return kernels, splits


def save_json(doc: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_version(doc: dict, kind: str):
    if doc.get("kind") != kind:
        raise ConfigError(f"expected a {kind!r} document, got {doc.get('kind')!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {doc.get('format_version')!r}")
