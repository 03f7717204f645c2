"""Article-level facility simulator.

Articles are instantiated by per-class Poisson processes, routed through
the sieving drum (speed-dependent splits, per-outlet residence times),
the mid-size conveyor (fixed dead time, order preserving) and the
magnetic sorter (height-dependent Bernoulli routing). Mass-counting
sensors integrate over 30 s windows; no synthetic noise is added beyond
the article statistics. Fully deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..models.layouts import MATERIALS, MID_LINE, SIZES, STEP_SECONDS
from .articles import CATALOG, phase_flows
from .truth import FacilityParams, siever_split

log = logging.getLogger(__name__)

SENSOR_LOCATIONS = (
    "siever_in",
    *(f"siever_out_{o}" for o in SIZES),
    "mag_in",
    *(f"mag_out_{o}" for o in MATERIALS),
)
LOSS_LOCATIONS = ("siever_lost", "mag_lost")


@dataclass(frozen=True)
class ScenarioSpec:
    """Input-stream scenario: static flows or rectangular phase switching."""

    name: str
    duration_s: float
    seed: int
    phase_period_s: float = 600.0

    def __post_init__(self):
        if self.name not in ("static", "dynamic"):
            raise ConfigError(f"unknown scenario {self.name!r}")

    def flows_at(self, t: float) -> dict:
        return phase_flows(self.phase_at(t))

    def phase_at(self, t: float) -> str:
        if self.name == "static":
            return "static"
        return "dyn_a" if int(t // self.phase_period_s) % 2 == 0 else "dyn_b"


@dataclass
class SensorReading:
    """Mass counted at one location over one integration window."""

    location: str
    window: int
    class_masses: dict

    @property
    def total_mass(self) -> float:
        return float(sum(self.class_masses.values()))

    @property
    def total_flow(self) -> float:
        return self.total_mass / STEP_SECONDS

    def class_flows(self) -> dict:
        return {k: v / STEP_SECONDS for k, v in self.class_masses.items()}


def poisson_instantiate(flows: dict, dt: float, rng, t0: float = 0.0):
    """Sample one window's article arrivals: per class, count ~
    Poisson(flow / mass * dt) with uniform entry phases.

    Returns (times, classes, counts) with times sorted, classes as catalog
    indices, and counts per catalog class.
    """
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    entry_times, entry_classes = [], []
    counts = np.zeros(len(CATALOG), dtype=int)
    for ci, art in enumerate(CATALOG):
        lam = flows.get(art.name, 0.0) / art.mass * dt
        n = int(rng.poisson(lam)) if lam > 0 else 0
        counts[ci] = n
        if n:
            entry_times.append(t0 + rng.uniform(0.0, dt, n))
            entry_classes.append(np.full(n, ci, dtype=int))
    if entry_times:
        times = np.concatenate(entry_times)
        classes = np.concatenate(entry_classes)
        order = np.lexsort((classes, times))
        return times[order], classes[order], counts
    return np.zeros(0), np.zeros(0, dtype=int), counts


class _Pending:
    """Per-stage buffer of articles waiting for their due time, with the
    siever outlet each article took."""

    def __init__(self):
        self.times = np.zeros(0)
        self.classes = np.zeros(0, dtype=int)
        self.outlets = np.zeros(0, dtype=int)

    def push(self, times, classes, outlets):
        self.times = np.concatenate([self.times, times])
        self.classes = np.concatenate([self.classes, classes])
        self.outlets = np.concatenate([self.outlets, outlets])

    def pop_due(self, t_end):
        """(times, classes, outlets) due before t_end, ordered by due time,
        then class."""
        due = self.times < t_end
        out = tuple(c[due] for c in (self.times, self.classes, self.outlets))
        self.times, self.classes, self.outlets = (
            c[~due] for c in (self.times, self.classes, self.outlets)
        )
        order = np.lexsort((out[1], out[0]))
        return tuple(c[order] for c in out)

    def __len__(self):
        return len(self.times)


class Facility:
    """Simulated sorting chain with a single simulated clock."""

    def __init__(self, scenario: ScenarioSpec, params: FacilityParams | None = None):
        self.scenario = scenario
        self.params = params or FacilityParams()
        self.rng = np.random.default_rng(scenario.seed)
        self.window = 0
        self.setpoints = {"speed": 12.0, "height": 14.0}
        self._siever_pending = _Pending()  # due at drum exit
        self._mag_pending = _Pending()  # due at sorter arrival, all from outlet M
        self._instantiated_mass = 0.0
        self._outlet_mass = 0.0

    # -- setpoint interface -------------------------------------------------

    def set_setpoint(self, name: str, value: float):
        lo, hi = (
            self.params.speed_range if name == "speed" else self.params.height_range
        )
        if not lo <= value <= hi:
            log.warning("setpoint %s=%.3f outside [%g, %g]; clamped", name, value, lo, hi)
            value = min(max(value, lo), hi)
        self.setpoints[name] = float(value)

    # -- one window ---------------------------------------------------------

    def advance_window(self) -> dict:
        """Simulate one 30 s window; returns readings per sensor location."""
        t0 = self.window * STEP_SECONDS
        t_end = t0 + STEP_SECONDS
        flows = self.scenario.flows_at(t0)
        speed = self.setpoints["speed"]
        height = self.setpoints["height"]
        counts = {
            loc: np.zeros(len(CATALOG), dtype=int)
            for loc in SENSOR_LOCATIONS + LOSS_LOCATIONS
        }

        # 1. Poisson instantiation per class, uniform entry phases.
        times, classes, created = poisson_instantiate(flows, STEP_SECONDS, self.rng, t0=t0)
        counts["siever_in"] += created
        self._instantiated_mass += float(
            sum(created[ci] * CATALOG[ci].mass for ci in range(len(CATALOG)))
        )

        # 2. Drum routing at entry: outlet draw plus residence-time draw.
        if len(times):
            frac = siever_split(self.params, speed)
            size_of = [art.size for art in CATALOG]
            probs = np.zeros((len(times), len(SIZES) + 1))
            for i, ci in enumerate(classes):
                p = [frac[(o, size_of[ci])] for o in SIZES]
                probs[i, : len(SIZES)] = p
                probs[i, len(SIZES)] = max(0.0, 1.0 - sum(p))
            draws = self.rng.random(len(times))
            cum = np.cumsum(probs, axis=1)
            outlet_ix = (draws[:, None] > cum).sum(axis=1)
            lost = outlet_ix >= len(SIZES)
            for ci in classes[lost]:
                counts["siever_lost"][ci] += 1
                self._outlet_mass += CATALOG[ci].mass
            keep = ~lost
            k_times, k_classes, k_out = times[keep], classes[keep], outlet_ix[keep]
            residence = np.zeros(len(k_times))
            for oi, o in enumerate(SIZES):
                sel = k_out == oi
                if np.any(sel):
                    dead, tau = self.params.residence[o]
                    residence[sel] = dead + self.rng.exponential(tau, int(sel.sum()))
            self._siever_pending.push(k_times + residence, k_classes, k_out)

        # 3. Drum exits due in this window: outlet sensors, M line feeds on.
        exit_times, exit_classes, exit_outlets = self._siever_pending.pop_due(t_end)
        for et, ci, oi in zip(exit_times, exit_classes, exit_outlets):
            counts[f"siever_out_{SIZES[oi]}"][ci] += 1
        m_line = exit_outlets == SIZES.index(MID_LINE)
        if np.any(m_line):
            self._mag_pending.push(
                exit_times[m_line] + self.params.conveyor_delay,
                exit_classes[m_line],
                exit_outlets[m_line],
            )
        done = ~m_line
        self._outlet_mass += sum(CATALOG[ci].mass for ci in exit_classes[done])

        # 4. Sorter arrivals due in this window.
        at, ac, _ = self._mag_pending.pop_due(t_end)
        if len(at):
            for ci in ac:
                counts["mag_in"][ci] += 1
            pc = self.params.magnet.p_capture(height)
            pd = self.params.magnet.p_drag(height)
            nfm, fm = MATERIALS
            lost_draw = self.rng.random(len(at)) < self.params.mag_loss_prob
            route_draw = self.rng.random(len(at))
            for i, ci in enumerate(ac):
                if lost_draw[i]:
                    counts["mag_lost"][ci] += 1
                    self._outlet_mass += CATALOG[ci].mass
                    continue
                is_fm = CATALOG[ci].ferromagnetic == fm
                to_fm_outlet = route_draw[i] < (pc if is_fm else pd)
                counts[f"mag_out_{fm if to_fm_outlet else nfm}"][ci] += 1
                self._outlet_mass += CATALOG[ci].mass

        readings = {}
        for loc in SENSOR_LOCATIONS + LOSS_LOCATIONS:
            masses = {
                CATALOG[ci].name: counts[loc][ci] * CATALOG[ci].mass
                for ci in range(len(CATALOG))
            }
            readings[loc] = SensorReading(location=loc, window=self.window, class_masses=masses)
        self.window += 1
        return readings

    # -- accounting -----------------------------------------------------------

    def mass_balance(self) -> tuple:
        """(instantiated, exited, in-flight) masses in kg; conservation says
        instantiated = exited + in-flight exactly at article granularity."""
        pending_mass = sum(
            CATALOG[ci].mass for ci in self._siever_pending.classes
        ) + sum(CATALOG[ci].mass for ci in self._mag_pending.classes)
        return self._instantiated_mass, self._outlet_mass, pending_mass
