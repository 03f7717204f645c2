"""White-box conveyor model: pure dead time over an input-flow history."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import linear_rows, stack_rows
from .layouts import STEP_SECONDS, StateLayout, conveyor_layout, hist_name
from .lowpass import lowpass_prediction, shift_register_rows

OUTPUT_ROW_STD = 1e-3  # slack absorbing window-discretization effects, kg/s


def delay_interpolation_weights(delay: float, history_len: int):
    """Per-slot weights of the delayed output on the input history.

    Mass entering uniformly over one 30 s window and delayed by `delay`
    lands in slots floor(delay/30 s) and the one after, split linearly by
    the fractional part: weight 1 - frac on the earlier slot, frac on the
    later.
    """
    if delay < 0:
        raise ConfigError(f"delay must be non-negative, got {delay}")
    if delay > history_len * STEP_SECONDS:
        raise ConfigError(
            f"delay {delay}s exceeds representable history {history_len * STEP_SECONDS}s"
        )
    k0 = int(delay // STEP_SECONDS)
    frac = delay / STEP_SECONDS - k0
    weights = np.zeros(history_len)
    weights[k0] = 1.0 - frac
    if frac > 0.0:
        if k0 + 1 >= history_len:
            raise ConfigError(
                f"delay {delay}s needs history slot {k0 + 1}, history has {history_len}"
            )
        weights[k0 + 1] = frac
    return weights


def conveyor_model(history_len: int, delay: float, layout: StateLayout | None = None):
    """Complete conveyor dynamics as one block of linear rows.

    Rows: per size class, the shift-register relation between adjacent
    steps, the output as the delay-interpolated history of the current
    step, and low-pass restraints on the newest history slot and the
    outputs of the next step.
    """
    layout = layout or conveyor_layout(history_len)
    if layout.history_len != history_len:
        raise ConfigError("history_len disagrees with layout")
    weights = delay_interpolation_weights(delay, history_len)

    n_cls = len(layout.hist_classes)
    interp = np.zeros((n_cls, layout.dim))
    for r, cls in enumerate(layout.hist_classes):
        interp[r, layout.cur(f"out.{cls}")] = 1.0
        for h in range(history_len):
            if weights[h] != 0.0:
                interp[r, layout.cur(hist_name(cls, h))] = -weights[h]

    return stack_rows(
        [
            shift_register_rows(layout),
            linear_rows(interp, OUTPUT_ROW_STD**2 * np.eye(n_cls)),
            lowpass_prediction(layout),
        ]
    )
