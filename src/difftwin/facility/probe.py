"""Calibration probes: isolated-machine experiments for model fitting.

These drive the same routing math as the full simulator but on isolated
machines, producing the sorter training dataset, drum step responses and
the speed-sweep split measurements. All deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from ..models.layouts import SIZES, STEP_SECONDS
from .articles import CATALOG
from .truth import FacilityParams, siever_split

FM_MIX = ("fm_can", "fm_cap")
NFM_MIX = ("plastic_bottle", "coffee_cup", "paper_ball", "nfm_cap")

SWEEP_DRAWS = 20  # random input flows per sorter sweep height
SWEEP_WINDOWS = 4  # windows each sweep draw is integrated over
STEP_FLOW = 0.08  # kg/s after the drum input step
STEP_WINDOWS = 16  # windows per drum step-response series
STEP_WINDOW = 4  # the window of the input step, for the probe and the fit
STEP_REPEATS = 60  # step responses averaged per outlet
SPLIT_SPEEDS = (5.0, 9.0, 13.0, 17.0, 21.0)  # rpm of the drum speed sweep
SPLIT_WINDOWS = 60  # static-mix windows per sweep speed


def magsorter_sweep(params: FacilityParams, seed: int):
    """Training dataset for the sorter network.

    Rows: (realized FM input flow, realized NFM input flow, height) ->
    (TP at FM outlet, FP at FM outlet, TP at NFM outlet, FP at NFM outlet),
    all kg/s, realized by article-level Bernoulli routing integrated over
    several windows per sample to tame counting noise.
    """
    rng = np.random.default_rng(seed)
    lo, hi = params.height_range
    heights = np.arange(lo, hi + 1e-9, 0.5)
    x_rows, y_rows = [], []
    masses = {a.name: a.mass for a in CATALOG}
    span = STEP_SECONDS * SWEEP_WINDOWS
    for h in heights:
        pc = params.magnet.p_capture(float(h))
        pd = params.magnet.p_drag(float(h))
        for _ in range(SWEEP_DRAWS):
            fm_flow = rng.uniform(0.002, 0.045)
            nfm_flow = rng.uniform(0.002, 0.045)
            in_fm = in_nfm = 0.0
            tp_fm = fp_fm = tp_nfm = fp_nfm = 0.0
            for names, flow, is_fm in ((FM_MIX, fm_flow, True), (NFM_MIX, nfm_flow, False)):
                share = flow / len(names)
                for n in names:
                    k = int(rng.poisson(share / masses[n] * span))
                    if not k:
                        continue
                    mass = k * masses[n]
                    kept = k - int(rng.binomial(k, params.mag_loss_prob))
                    to_fm = int(rng.binomial(kept, pc if is_fm else pd))
                    at_fm = to_fm * masses[n]
                    at_nfm = (kept - to_fm) * masses[n]
                    if is_fm:
                        in_fm += mass
                        tp_fm += at_fm
                        fp_nfm += at_nfm
                    else:
                        in_nfm += mass
                        fp_fm += at_fm
                        tp_nfm += at_nfm
            x_rows.append([in_fm / span, in_nfm / span, float(h)])
            y_rows.append([tp_fm / span, fp_fm / span, tp_nfm / span, fp_nfm / span])
    return np.asarray(x_rows), np.asarray(y_rows)


def siever_step_response(params: FacilityParams, seed: int):
    """Averaged per-outlet responses to 0-to-STEP_FLOW input steps.

    Each outlet is probed with its matching size class (where its split
    fraction, and therefore the signal, is largest). Returns dict
    outlet -> flow series (kg/s per window, averaged over repeats), for
    fitting the per-outlet residence kernels.
    """
    rng = np.random.default_rng(seed)
    frac = siever_split(params, 12.0)
    responses = {}
    for size in SIZES:
        art = next(a for a in CATALOG if a.size == size and a.name != "fm_can")
        series = np.zeros(STEP_WINDOWS)
        p_match = frac[(size, size)]
        for _ in range(STEP_REPEATS):
            for w in range(STEP_WINDOW, STEP_WINDOWS):
                t0 = w * STEP_SECONDS
                k = int(rng.poisson(STEP_FLOW / art.mass * STEP_SECONDS))
                if not k:
                    continue
                n_match = int(rng.binomial(k, p_match))
                if not n_match:
                    continue
                times = t0 + rng.uniform(0.0, STEP_SECONDS, n_match)
                dead, tau = params.residence[size]
                exits = times + dead + rng.exponential(tau, n_match)
                for te in exits:
                    wi = int(te // STEP_SECONDS)
                    if wi < STEP_WINDOWS:
                        series[wi] += art.mass
        responses[size] = series / STEP_REPEATS / STEP_SECONDS
    return responses


def siever_speed_sweep(params: FacilityParams, seed: int):
    """Long-run outlet mass fractions per (speed, size, outlet).

    Returns records (speed, size, outlet, fraction) for fit_splits. Flows
    use the static scenario mix; fractions are outlet mass over input mass
    per size class after discarding a warm-up margin.
    """
    rng = np.random.default_rng(seed)
    records = []
    for speed in SPLIT_SPEEDS:
        frac = siever_split(params, float(speed))
        in_mass = {p: 0.0 for p in SIZES}
        out_mass = {(o, p): 0.0 for o in SIZES for p in SIZES}
        for _ in range(SPLIT_WINDOWS):
            for art in CATALOG:
                lam = art.flow_static / art.mass * STEP_SECONDS
                k = int(rng.poisson(lam))
                if not k:
                    continue
                in_mass[art.size] += k * art.mass
                p_out = [frac[(o, art.size)] for o in SIZES]
                draws = rng.random(k)
                cum = np.cumsum(p_out)
                outlet_ix = (draws[:, None] > cum[None, :]).sum(axis=1)
                for oi, o in enumerate(SIZES):
                    n_out = int(np.sum(outlet_ix == oi))
                    out_mass[(o, art.size)] += n_out * art.mass
        for p in SIZES:
            for o in SIZES:
                if in_mass[p] > 0:
                    records.append((float(speed), p, o, out_mass[(o, p)] / in_mass[p]))
    return records
