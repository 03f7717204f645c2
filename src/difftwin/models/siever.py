"""Gray-box sieving drum model.

Outlet flows are speed-dependent split fractions of the input history
convolved with a per-outlet residence-time kernel (dead time plus
exponential mixing). Split fractions are linear in drum speed, passed
through a smooth clamp to [0, 1] and smoothly renormalized so they sum to
at most one. Fit helpers recover kernels from step responses and split
coefficients from speed sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, FitIllConditioned
from .base import DifferentiableModel
from .layouts import HISTORY_SLOTS, SIZES, STEP_SECONDS, StateLayout, hist_name, siever_layout

OUTLET_ROW_STD = 2e-3  # model slack on each outlet-flow relation, kg/s
_CLAMP_SHARPNESS = 2000.0
_RENORM_EPS = 1e-4


@dataclass(frozen=True)
class ResidenceKernel:
    """Discretized residence-time distribution over history slots.

    The continuous residence time is dead_time + Exp(tau); the slot weights
    account for uniform entry phase within a window and are renormalized so
    they sum to one (mass preservation).
    """

    dead_time: float
    tau: float
    weights: np.ndarray

    @staticmethod
    def from_parameters(dead_time: float, tau: float, slots: int) -> "ResidenceKernel":
        dt = STEP_SECONDS
        if dead_time < 0 or tau < 0:
            raise ConfigError("dead_time and tau must be non-negative")
        if dead_time > slots * dt:
            raise ConfigError(
                f"dead time {dead_time}s not representable in {slots} slots of {dt}s"
            )

        def phi(v):
            # Antiderivative of the residence CDF, zero at the dead time.
            z = np.maximum(np.asarray(v, dtype=float) - dead_time, 0.0)
            if tau <= 1e-9:
                return z
            return z + tau * (np.exp(-z / tau) - 1.0)

        # w_h averages the CDF mass of slot h over the uniform entry phase:
        # w_h = G((h+1) dt) - G(h dt) with G(c) = (phi(c) - phi(c - dt)) / dt.
        edges = np.arange(slots + 1) * dt
        g = (phi(edges) - phi(edges - dt)) / dt
        weights = np.diff(g)
        weights = np.maximum(weights, 0.0)
        total = weights.sum()
        if total <= 0:
            raise ConfigError("kernel has no mass within the history horizon")
        weights = weights / total
        weights.setflags(write=False)
        return ResidenceKernel(dead_time=float(dead_time), tau=float(tau), weights=weights)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-15):
            raise ConfigError("kernel weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ConfigError("kernel weights must sum to one")


def smooth_clamp(u):
    """Smooth clamp of u to (0, 1): identity away from the edges, logistic
    saturation near them. Returns (value, derivative)."""
    k = _CLAMP_SHARPNESS
    # (softplus(k u) - softplus(k (u - 1))) / k, stable for large |u|
    a = np.logaddexp(0.0, k * np.asarray(u, dtype=float))
    b = np.logaddexp(0.0, k * (np.asarray(u, dtype=float) - 1.0))
    val = (a - b) / k
    dval = _sigmoid(k * np.asarray(u)) - _sigmoid(k * (np.asarray(u) - 1.0))
    return val, dval


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _smoothmax1(s):
    """Smooth max(1, s) with derivative; keeps renormalization differentiable."""
    eps = _RENORM_EPS
    root = math.sqrt((s - 1.0) ** 2 + eps**2)
    val = 0.5 * (1.0 + s + root)
    dval = 0.5 * (1.0 + (s - 1.0) / root)
    return val, dval


def _split_arrays(intercepts, slopes, speed):
    """Split fractions and their speed derivatives as (outlet x size) arrays,
    for (outlet x size) arrays of split intercepts and slopes."""
    raw, draw = smooth_clamp(intercepts + slopes * speed)
    draw = draw * slopes
    s, ds = raw.sum(axis=0), draw.sum(axis=0)
    # Renormalization per size class in scalar arithmetic: numpy's array
    # power may round (s - 1) ** 2 differently from Python's.
    denom, ddenom, denom2 = (np.empty_like(s) for _ in range(3))
    for p in range(s.size):
        d, dd = _smoothmax1(float(s[p]))
        denom[p], ddenom[p], denom2[p] = d, dd, d**2
    fractions = raw / denom
    derivs = (draw * denom - raw * ddenom * ds) / denom2
    return fractions, derivs


def _split_coeff_arrays(coeffs: dict):
    """(outlet x size) arrays of intercepts and slopes from a coefficient dict."""
    table = np.array([[coeffs[(o, p)] for p in SIZES] for o in SIZES], dtype=float)
    return table[..., 0], table[..., 1]


def split_fractions(coeffs: dict, speed: float):
    """Per-(outlet, size) split fractions at a drum speed.

    coeffs maps (outlet, size) -> (intercept, slope); outlets are named by
    the size class they collect, so both run over SIZES. Linear values are
    smooth-clamped to [0, 1] and renormalized per size class so the outlet
    fractions sum to at most one. Returns (fractions, d/d_speed), both as
    dicts keyed by (outlet, size).
    """
    frac, dfrac = _split_arrays(*_split_coeff_arrays(coeffs), speed)
    keys = [(o, p) for o in SIZES for p in SIZES]
    return (
        dict(zip(keys, frac.ravel().tolist())),
        dict(zip(keys, dfrac.ravel().tolist())),
    )


class SieverModel(DifferentiableModel):
    """Within-step outlet rows: out[o][p] = split(speed) * (kernel * history).

    Rows run over (outlet, size) pairs, outlet-major; outlets are named by
    the size class they collect.
    """

    def __init__(self, layout: StateLayout, kernels: dict, split_coeffs: dict):
        self.layout = layout
        for o in SIZES:
            if o not in kernels:
                raise ConfigError(f"missing residence kernel for outlet {o!r}")
            if len(kernels[o].weights) != layout.history_len:
                raise ConfigError("kernel length disagrees with history length")
        self.out_dim = len(SIZES) ** 2
        self.noise_cov = OUTLET_ROW_STD**2 * np.eye(self.out_dim)
        self._intercepts, self._slopes = _split_coeff_arrays(split_coeffs)
        # (outlet x history) kernel weights and (size x history) indices.
        self._kernel_w = np.stack([kernels[o].weights for o in SIZES])
        self._speed_ix = layout.cur("speed")
        self._hist_ix = np.array(
            [[layout.cur(hist_name(p, h)) for h in range(layout.history_len)] for p in SIZES]
        )
        self._out_ix = np.array([layout.cur(f"out.{o}.{p}") for o in SIZES for p in SIZES])
        # Per row: the outlet's kernel weights and the size class's history.
        self._row_kernel_w = np.repeat(self._kernel_w, len(SIZES), axis=0)
        self._row_hist_ix = np.tile(self._hist_ix, (len(SIZES), 1))

    def _split_and_conv(self, x):
        frac, dfrac = _split_arrays(self._intercepts, self._slopes, x[self._speed_ix])
        conv = self._kernel_w @ x[self._hist_ix].T
        return frac, dfrac, conv

    def evaluate(self, x):
        frac, _, conv = self._split_and_conv(x)
        return x[self._out_ix] - (frac * conv).ravel()

    def jacobian(self, x):
        frac, dfrac, conv = self._split_and_conv(x)
        rows = np.arange(self.out_dim)
        jac = np.zeros((self.out_dim, self.layout.dim))
        jac[rows, self._out_ix] = 1.0
        jac[rows[:, None], self._row_hist_ix] = -frac.reshape(-1, 1) * self._row_kernel_w
        jac[rows, self._speed_ix] = -(dfrac * conv).ravel()
        return jac


def siever_model(
    kernels: dict, split_coeffs: dict, layout: StateLayout | None = None
) -> SieverModel:
    """Gray-box process model relating outlet flows to split(speed) times
    the kernel-convolved input history, per size class and outlet."""
    layout = layout or siever_layout()
    return SieverModel(layout, kernels, split_coeffs)


def _step_response_sse(response, step_index, dead_time, tau):
    kernel = ResidenceKernel.from_parameters(dead_time, tau, HISTORY_SLOTS)
    cum = np.cumsum(kernel.weights)
    predicted = np.zeros_like(response)
    for k in range(len(response)):
        lag = k - step_index
        if lag < 0:
            predicted[k] = 0.0
        elif lag < HISTORY_SLOTS:
            predicted[k] = cum[lag]
        else:
            predicted[k] = 1.0
    return float(np.sum((response - predicted) ** 2))


def fit_step_response(responses: dict, step_index: int) -> dict:
    """Recover (dead_time, tau) per outlet from normalized step responses,
    as kernels over HISTORY_SLOTS slots.

    responses maps outlet -> flow series for a 0-to-plateau input step at
    window `step_index`; each series is normalized by its final plateau.
    Least-squares over a coarse grid with two local refinement passes.
    """
    max_dead = (HISTORY_SLOTS - 1) * STEP_SECONDS
    fitted = {}
    for outlet, series in responses.items():
        y = np.asarray(series, dtype=float)
        plateau = float(np.mean(y[-max(2, len(y) // 4) :]))
        if plateau <= 0:
            raise FitIllConditioned(f"outlet {outlet!r} step response has no plateau")
        y = y / plateau

        lo_d, hi_d = 0.0, max_dead
        lo_t, hi_t = 0.1, 2.0 * STEP_SECONDS
        best = None
        for refine in range(3):
            ds = np.linspace(lo_d, hi_d, 25)
            ts = np.linspace(lo_t, hi_t, 25)
            for d in ds:
                for t in ts:
                    sse = _step_response_sse(y, step_index, d, t)
                    if best is None or sse < best[0]:
                        best = (sse, d, t)
            _, d0, t0 = best
            span_d = (hi_d - lo_d) / 8.0
            span_t = (hi_t - lo_t) / 8.0
            lo_d, hi_d = max(0.0, d0 - span_d), min(max_dead, d0 + span_d)
            lo_t, hi_t = max(0.01, t0 - span_t), t0 + span_t
        _, d0, t0 = best
        fitted[outlet] = ResidenceKernel.from_parameters(d0, t0, HISTORY_SLOTS)
    return fitted


def fit_splits(records) -> dict:
    """Linear split coefficients from a speed sweep.

    records is an iterable of (speed, size, outlet, fraction) rows; returns
    (outlet, size) -> (intercept, slope) by least squares per pair. Raises
    FitIllConditioned when a pair has fewer than two distinct speeds.
    """
    grouped = {}
    for speed, size, outlet, fraction in records:
        grouped.setdefault((outlet, size), []).append((float(speed), float(fraction)))
    coeffs = {}
    for key, rows in grouped.items():
        speeds = np.array([r[0] for r in rows])
        fracs = np.array([r[1] for r in rows])
        design = np.column_stack([np.ones_like(speeds), speeds])
        if np.linalg.matrix_rank(design) < 2:
            raise FitIllConditioned(
                f"split fit for {key} needs at least two distinct speeds"
            )
        sol, *_ = np.linalg.lstsq(design, fracs, rcond=None)
        coeffs[key] = (float(sol[0]), float(sol[1]))
    return coeffs
