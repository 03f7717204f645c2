"""Ground-truth routing curves and their stationary expectations.

Routing behavior is configuration, not code: FacilityParams carries the
drum split curves, per-outlet residence parameters and the magnet capture
curves. The same parameters drive the article-level simulator and the
closed-form expectations used by the setpoint oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..models.layouts import MATERIALS, MID_LINE, SIZES
from ..models.siever import split_fractions
from .articles import CATALOG


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


# Truth split curves: per (outlet, size), fraction of that size's input
# leaving through the outlet, linear in drum speed. Sums stay below one;
# the remainder is material lost inside the machine. Higher speed sends
# more mid-size material to its matched outlet, so the profit objective
# keeps pushing the drum toward its upper bound.
DEFAULT_SPLITS = {
    ("S", "S"): (0.870, -0.0060),
    ("M", "S"): (0.035, 0.0055),
    ("L", "S"): (0.020, 0.0004),
    ("S", "M"): (0.300, -0.0125),
    ("M", "M"): (0.380, 0.0120),
    ("L", "M"): (0.290, 0.0004),
    ("S", "L"): (0.060, -0.0020),
    ("M", "L"): (0.300, -0.0110),
    ("L", "L"): (0.620, 0.0129),
}

# Per-outlet drum residence: dead time and mixing constant, seconds.
DEFAULT_RESIDENCE = {"S": (10.0, 8.0), "M": (14.0, 10.0), "L": (18.0, 12.0)}


@dataclass(frozen=True)
class MagnetCurves:
    """Logistic capture/drag probabilities versus magnet height (cm).

    Lowering the magnet captures more ferromagnetic articles but starts
    dragging non-ferromagnetic ones into the upper outlet.
    """

    capture_mid: float = 13.5
    capture_width: float = 0.8
    drag_mid: float = 12.2
    drag_width: float = 1.0
    drag_max: float = 0.55

    def p_capture(self, height: float) -> float:
        return float(_sigmoid((self.capture_mid - height) / self.capture_width))

    def p_drag(self, height: float) -> float:
        return self.drag_max * float(
            _sigmoid((self.drag_mid - height) / self.drag_width)
        )


@dataclass(frozen=True)
class FacilityParams:
    splits: dict = field(default_factory=lambda: dict(DEFAULT_SPLITS))
    residence: dict = field(default_factory=lambda: dict(DEFAULT_RESIDENCE))
    magnet: MagnetCurves = field(default_factory=MagnetCurves)
    mag_loss_prob: float = 0.01
    speed_range: tuple = (5.0, 21.0)
    height_range: tuple = (8.0, 16.0)
    conveyor_delay: float = 32.0


def siever_split(params: FacilityParams, speed: float) -> dict:
    """Per-(outlet, size) routing fractions at a drum speed."""
    frac, _ = split_fractions(params.splits, speed)
    return frac


def expected_mag_inputs(params: FacilityParams, flows: dict, speed: float) -> dict:
    """Stationary mid-size-line sorter input flows per (material, size)."""
    frac = siever_split(params, speed)
    inputs = {(m, p): 0.0 for m in MATERIALS for p in SIZES}
    for art in CATALOG:
        f = flows.get(art.name, 0.0)
        inputs[(art.ferromagnetic, art.size)] += f * frac[(MID_LINE, art.size)]
    return inputs


def expected_mag_outputs(params: FacilityParams, mag_inputs: dict, height: float) -> dict:
    """Stationary sorter outlet flows per (material, outlet, size)."""
    keep = 1.0 - params.mag_loss_prob
    pc = params.magnet.p_capture(height)
    pd = params.magnet.p_drag(height)
    nfm, fm = MATERIALS
    out = {}
    for p in SIZES:
        # Ferromagnetic articles are captured to the FM outlet, the others
        # dragged there.
        for m, to_fm in ((fm, pc), (nfm, pd)):
            kept = mag_inputs[(m, p)] * keep
            out[(m, fm, p)] = kept * to_fm
            out[(m, nfm, p)] = kept * (1.0 - to_fm)
    return out


def expected_chain_outputs(
    params: FacilityParams, flows: dict, speed: float, height: float
) -> dict:
    """Loss-relevant sorter outlet flows for stationary input flows."""
    return expected_mag_outputs(
        params, expected_mag_inputs(params, flows, speed), height
    )
