"""Setpoint oracle: grid search of the expected loss over ground truth.

Computes the stationary expected loss from the facility's routing curves
(no article noise, no fitted-model error) over a setpoint grid and reports
the minimizer. Used to judge what the decentralized optimization should
converge to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .facility.articles import phase_flows
from .facility.truth import FacilityParams, expected_chain_outputs
from .lossnode import LOSS_COORDS, loss_evaluate


def expected_loss(params: FacilityParams, flows: dict, speed: float, height: float) -> float:
    out = expected_chain_outputs(params, flows, speed, height)
    vec = [out[tuple(coord.split(".")[1:])] for coord in LOSS_COORDS]
    return loss_evaluate(vec)


@dataclass(frozen=True)
class OracleResult:
    phase: str
    speed: float
    height: float
    loss: float
    height_curve: list  # (height, loss) at the optimal speed


def oracle_optimum(
    params: FacilityParams,
    phase: str,
    speed_step: float = 1.0,
    height_step: float = 0.05,
) -> OracleResult:
    """Joint grid argmin of the expected loss for one scenario phase."""
    flows = phase_flows(phase)
    lo_s, hi_s = params.speed_range
    lo_h, hi_h = params.height_range
    speeds = np.arange(lo_s, hi_s + 1e-9, speed_step)
    heights = np.arange(lo_h, hi_h + 1e-9, height_step)
    if len(speeds) == 0 or len(heights) == 0:
        raise ValueError("empty setpoint grid")
    best = None
    for s in speeds:
        for h in heights:
            val = expected_loss(params, flows, float(s), float(h))
            if best is None or val < best[0]:
                best = (val, float(s), float(h))
    loss, speed, height = best
    curve = [
        (float(h), expected_loss(params, flows, speed, float(h))) for h in heights
    ]
    return OracleResult(phase=phase, speed=speed, height=height, loss=loss, height_curve=curve)


def oracle_for_scenario(params: FacilityParams, scenario_name: str, **grid) -> list:
    phases = ["static"] if scenario_name == "static" else ["dyn_a", "dyn_b"]
    return [oracle_optimum(params, ph, **grid) for ph in phases]
