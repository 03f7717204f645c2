"""Loss node: period schedule, objective evaluation, seed gradients.

The facility is optimized for purity-weighted profit at one sorter: each
outlet contributes minus squared-purity times its correctly sorted mass
flow, where purity is the correctly sorted fraction of the outlet's total
flow. Only size class TARGET_SIZE counts as correctly sorted. The loss
node, named LOSS_NODE_NAME, receives information messages from the target
node in the LOSS_COORDS exchange format, switches the chain between
periods on a fixed schedule, and seeds the gradient avalanche for the
current step. The information period starts at every step boundary and the
backpropagation period at every step's midpoint, HALF_STEP. The loss format
is the sorter's output block: LOSS_COORDS is the magsorter layout's
output_coords, the flows out.{material}.{outlet}.{size}.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .models.layouts import MATERIALS, SIZES, STEP_SECONDS, magsorter_layout
from .protocol import (
    ACTION_TO_BACKPROPAGATION,
    ACTION_TO_INFORMATION,
    TYPE_INFORMATION,
    Message,
    control_message,
    gradient_message,
)

EPS_FLOW = 1e-9  # kg/s; totals at or below this contribute nothing
LOSS_NODE_NAME = "loss"
TARGET_SIZE = "M"  # the size class a sorter outlet is paid for
HALF_STEP = STEP_SECONDS / 2  # offset of the backpropagation period in a step

LOSS_COORDS = magsorter_layout().output_coords
# Per outlet: the index of its correctly sorted flow and of all its flows.
_OUTLET_TERMS = tuple(
    (
        LOSS_COORDS.index(f"out.{o}.{o}.{TARGET_SIZE}"),
        [LOSS_COORDS.index(f"out.{m}.{o}.{p}") for m in MATERIALS for p in SIZES],
    )
    for o in MATERIALS
)


def loss_evaluate(values) -> float:
    """Purity-weighted profit, negated: per outlet -(tp/total)^2 * tp.

    Outlets whose total flow is at or below EPS_FLOW contribute zero
    (guard against division by vanishing totals).
    """
    v = np.asarray(values, dtype=float)
    total_loss = 0.0
    for tp_ix, tot_ix in _OUTLET_TERMS:
        tp = v[tp_ix]
        total = float(np.sum(v[tot_ix]))
        if total <= EPS_FLOW:
            continue
        total_loss -= (tp / total) ** 2 * tp
    return total_loss


def loss_gradients(values) -> np.ndarray:
    """Analytic gradient of loss_evaluate with respect to the exchange
    coordinates; zero inside the guarded region."""
    v = np.asarray(values, dtype=float)
    grad = np.zeros(len(LOSS_COORDS))
    for tp_ix, tot_ix in _OUTLET_TERMS:
        tp = v[tp_ix]
        total = float(np.sum(v[tot_ix]))
        if total <= EPS_FLOW:
            continue
        # term = -tp^3 / total^2
        for ix in tot_ix:
            grad[ix] += 2.0 * tp**3 / total**3
        grad[tp_ix] += -3.0 * tp**2 / total**2
    return grad


class LossNode:
    """Single-threaded pseudo-neighbor owning the phase clock.

    Registered at the target node like any neighbor; consumes information
    messages, never sends any, and seeds gradients after each switch to
    the backpropagation period.
    """

    def __init__(self, target: str, node_names, activation_delay: float = 300.0):
        self.name = LOSS_NODE_NAME
        self.target = target
        self.node_names = sorted(node_names)
        if target not in self.node_names:
            raise ConfigError(f"loss target {target!r} not among nodes")
        self.activation_delay = activation_delay
        self.estimates: dict[int, np.ndarray] = {}
        self.last_loss: float | None = None

    # -- message-side behavior -------------------------------------------

    def handle_message(self, msg: Message):
        if msg.type == TYPE_INFORMATION and msg.sender == self.target:
            if len(msg.mean) != len(LOSS_COORDS):
                raise ConfigError(
                    f"information dim {len(msg.mean)} vs loss format {len(LOSS_COORDS)}"
                )
            self.estimates[msg.time_stamp] = np.asarray(msg.mean, dtype=float)

    def pump(self, inbox) -> list:
        for msg in inbox:
            self.handle_message(msg)
        return []

    # -- scheduling ---------------------------------------------------------

    def on_clock(self, now: float) -> list:
        """Control and gradient messages due at a period switch.

        Call at each step boundary and each step's midpoint. Before the
        activation delay nothing is emitted; afterwards a midpoint switches
        every node to backpropagation and seeds the gradients of the current
        step, and a boundary switches every node back to information.
        """
        if now < self.activation_delay:
            return []
        to_backprop = now % STEP_SECONDS == HALF_STEP
        action = ACTION_TO_BACKPROPAGATION if to_backprop else ACTION_TO_INFORMATION
        out = [control_message(self.name, nb, action) for nb in self.node_names]
        step = int(now // STEP_SECONDS)
        if to_backprop:
            out.extend(self.seed_gradients(step))
        self._prune(step)
        return out

    def seed_gradients(self, step: int) -> list:
        est = self.estimates.get(step)
        if est is None:
            return []
        self.last_loss = loss_evaluate(est)
        grad = loss_gradients(est)
        if not np.any(grad):
            return []
        return [gradient_message(self.name, self.target, step, grad)]

    def _prune(self, current: int):
        for k in [k for k in self.estimates if k < current - 2]:
            del self.estimates[k]
