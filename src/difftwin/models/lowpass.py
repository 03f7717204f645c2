"""Prediction rows: low-pass restraints and shift-register history rows."""

from __future__ import annotations

import numpy as np

from .base import linear_rows, stack_rows
from .layouts import StateLayout, hist_name

SHIFT_STD = 1e-4  # history bookkeeping noise, kg/s
INPUT_STD = 1e-2  # change restraint on input flows, kg/s
REST_STD = 1.0  # change restraint on all other flows, kg/s


def lowpass_prediction(layout: StateLayout, std_inputs=INPUT_STD):
    """Rows x_next - x_cur for every flow coordinate: a weak change
    restraint, tight on inputs and loose elsewhere. Parameters are not
    constrained by prediction."""
    coords = list(layout.input_coords) + list(layout.output_coords)
    stds = [std_inputs] * len(layout.input_coords) + [REST_STD] * len(layout.output_coords)
    rows = np.zeros((len(coords), layout.dim))
    for r, name in enumerate(coords):
        rows[r, layout.nxt(name)] = 1.0
        rows[r, layout.cur(name)] = -1.0
    return linear_rows(rows, np.diag(np.square(stds)))


def shift_register_rows(layout: StateLayout):
    """Rows next.hist[h+1] - cur.hist[h]: the history moves one slot per
    step, leaving only the newest slot to the low-pass restraint."""
    if not layout.hist_classes:
        raise ValueError(f"layout {layout.machine} has no history coordinates")
    n_rows = len(layout.hist_classes) * (layout.history_len - 1)
    rows = np.zeros((n_rows, layout.dim))
    r = 0
    for cls in layout.hist_classes:
        for h in range(layout.history_len - 1):
            rows[r, layout.nxt(hist_name(cls, h + 1))] = 1.0
            rows[r, layout.cur(hist_name(cls, h))] = -1.0
            r += 1
    return linear_rows(rows, SHIFT_STD**2 * np.eye(n_rows))


def history_prediction(layout: StateLayout):
    """Complete prediction rows for a machine with input history: shift
    register plus low-pass restraints on the newest slot and the outputs."""
    return stack_rows([shift_register_rows(layout), lowpass_prediction(layout)])
