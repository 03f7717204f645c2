"""Process-node state machine.

Each node keeps a rolling window of 30 s time steps (RETENTION past steps
plus a HORIZON-step finite horizon), one record per step holding its
sources, its fusion result and its planned setpoints. It fuses every
step's information sources into a state estimate, exchanges projected
estimates with registered neighbors, and, during backpropagation periods,
relays loss gradients through the fusion Jacobians into parameter and
neighbor gradient storages and back through time to earlier steps. While
a backpropagation period lasts, every step is frozen. Parameter updates
use RProp sign-based adaptive steps (Riedmiller & Braun 1993) within hard
bounds.

A node is a single-threaded inbox consumer: handle one message at a time,
then resolve and generate. All cross-node interaction is message passing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DifftwinError,
    DimensionMismatch,
    FrozenStep,
    GradientOutsidePeriod,
    UnknownAction,
    UnknownNeighbor,
)
from .fusion import (
    KIND_COMMUNICATION,
    KIND_PARAMETER,
    KIND_PREDICTION,
    KIND_PRIOR,
    KIND_PROCESS,
    KIND_SENSOR,
    FusionProblem,
    FusionResult,
    InformationSource,
    fuse,
)
from .gaussian import GaussianEstimate, LinearObservation, kl_divergence_bits, project
from .models.base import linear_rows
from .models.layouts import STEP_SECONDS, StateLayout
from .protocol import (
    ACTION_TO_BACKPROPAGATION,
    ACTION_TO_INFORMATION,
    TYPE_CONTROL,
    TYPE_GRADIENT,
    TYPE_INFORMATION,
    Message,
    gradient_message,
    information_message,
)

log = logging.getLogger(__name__)

PERIOD_INFORMATION = "information"
PERIOD_BACKPROPAGATION = "backpropagation"

HORIZON = 8  # steps planned ahead of the current one
RETENTION = 4  # past steps kept behind the current one
DEFAULT_DELTA_INFO_BITS = 1e-6
DELTA_GRAD = 1e-6  # relative threshold on re-sending a neighbor gradient
PARAM_OBS_STD = 1e-4
SENSOR_FLOW_FLOOR = 1e-3  # kg/s floor in the sensor variance model
SENSOR_EFFECTIVE_MASS = 0.015  # kg; shot-noise scale for total-flow sensors

# RProp step adaptation; step sizes are fractions of the parameter's span.
ETA_PLUS = 1.2
ETA_MINUS = 0.5
DELTA_INIT_FRAC = 0.02
DELTA_MIN_FRAC = 0.001
DELTA_MAX_FRAC = 0.10


@dataclass(frozen=True)
class NeighborRegistration:
    """Neighbor name plus the observation matrix mapping the local
    concatenated state onto the agreed exchange format."""

    name: str
    obs_matrix: np.ndarray
    # The exchange rows as an observation, rank-checked once; each received
    # estimate takes its place as the value.
    rows: LinearObservation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _checked_rows(self.obs_matrix, f"exchange matrix for neighbor {self.name!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "obs_matrix", rows.matrix)


def _checked_rows(matrix, what: str) -> LinearObservation:
    """The rows observed as zero with unit noise: a template whose full row
    rank is checked here, once, for `with_value`."""
    m = np.asarray(matrix, dtype=float)
    try:
        return linear_rows(m, np.eye(m.shape[0]))
    except DimensionMismatch:
        raise DimensionMismatch(f"{what} is rank deficient") from None


@dataclass(frozen=True)
class SensorBinding:
    """Static observation rows for one flow sensor plus its noise model.

    The variance assigned to a reading is max(flow, floor) * mass / 30 s:
    the shot-noise variance of counting articles of effective mass
    SENSOR_EFFECTIVE_MASS over one integration window.
    """

    sensor_id: str
    rows: np.ndarray
    template: LinearObservation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        template = _checked_rows(self.rows, f"rows of sensor {self.sensor_id!r}")
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "rows", template.matrix)

    def observation(self, values) -> LinearObservation:
        values = np.atleast_1d(np.asarray(values, dtype=float))
        var = np.maximum(values, SENSOR_FLOW_FLOOR) * SENSOR_EFFECTIVE_MASS / STEP_SECONDS
        return self.template.with_value(GaussianEstimate(values, np.diag(var)))


@dataclass
class ParameterSpec:
    name: str
    coord: str
    lower: float
    upper: float
    initial: float

    @property
    def span(self) -> float:
        return self.upper - self.lower


@dataclass
class OptimizerState:
    """Sign-based adaptive step state per parameter."""

    spec: ParameterSpec
    delta: float = field(init=False)
    prev_sign: float = 0.0

    def __post_init__(self):
        self.delta = DELTA_INIT_FRAC * self.spec.span

    def update(self, value: float, grad: float) -> float:
        """One minimization step: returns the new, bound-clamped value."""
        sign = math.copysign(1.0, grad) if grad != 0.0 else 0.0
        if sign == 0.0:
            self.prev_sign = 0.0
            return value
        if sign * self.prev_sign > 0:
            self.delta = min(self.delta * ETA_PLUS, DELTA_MAX_FRAC * self.spec.span)
        elif sign * self.prev_sign < 0:
            self.delta = max(self.delta * ETA_MINUS, DELTA_MIN_FRAC * self.spec.span)
        self.prev_sign = sign
        new = value - sign * self.delta
        return min(max(new, self.spec.lower), self.spec.upper)


@dataclass
class TimeStepRecord:
    """One node's bookkeeping for one discrete time step, including the
    setpoint planned for it per parameter name."""

    index: int
    prior: GaussianEstimate
    params: dict = field(default_factory=dict)
    sensors: dict = field(default_factory=dict)
    comms: dict = field(default_factory=dict)
    result: FusionResult | None = None
    dirty: bool = True
    # The information gate has tested this result against sent_cache.
    gated: bool = False
    sent_cache: dict = field(default_factory=dict)
    sent_grad_max: dict = field(default_factory=dict)
    grad_out: dict = field(default_factory=dict)
    grad_params: dict = field(default_factory=dict)

    def zero_gradients(self):
        self.sent_grad_max.clear()
        self.grad_out.clear()
        self.grad_params.clear()


class Node:
    """State machine for one process step's digital twin."""

    def __init__(
        self,
        name: str,
        layout: StateLayout,
        prediction_model,
        process_model=None,
        neighbors=(),
        sensors=(),
        parameters=(),
        initial_prior: GaussianEstimate | None = None,
        delta_info_bits: float = DEFAULT_DELTA_INFO_BITS,
    ):
        self.name = name
        self.layout = layout
        self.prediction_model = prediction_model
        self.process_model = process_model
        self.neighbors = {}
        for reg in neighbors:
            self.register_neighbor(reg)
        self.sensors = {s.sensor_id: s for s in sensors}
        self.parameters = list(parameters)
        self.optimizers = {p.name: OptimizerState(p) for p in self.parameters}
        self.delta_info_bits = delta_info_bits
        self.period = PERIOD_INFORMATION
        self.steps: dict[int, TimeStepRecord] = {}
        self.current_index: int | None = None
        n = layout.n
        if initial_prior is None:
            initial_prior = GaussianEstimate(np.zeros(n), np.eye(n))
        if initial_prior.dim != n:
            raise DimensionMismatch("initial prior dimension disagrees with layout")
        self.initial_prior = initial_prior
        self._m_pred = np.hstack([np.eye(n), np.zeros((n, n))])
        # Rank-checked once here: each fusion puts the step's prior and
        # setpoints in as the values.
        self._prior_obs = LinearObservation(np.hstack([np.zeros((n, n)), np.eye(n)]), initial_prior)
        self._param_obs, self._param_row_names = self._build_param_rows()

    # -- registration and wiring ----------------------------------------

    def register_neighbor(self, reg: NeighborRegistration):
        if reg.obs_matrix.shape[1] != self.layout.dim:
            raise DimensionMismatch(
                f"exchange matrix for {reg.name!r} has {reg.obs_matrix.shape[1]} "
                f"columns, state dim is {self.layout.dim}"
            )
        self.neighbors[reg.name] = reg

    def _build_param_rows(self):
        """Parameter rows (current and next value of each setpoint) observed
        at the initial setpoints, and the parameter name of each row."""
        if not self.parameters:
            return None, []
        rows = np.zeros((2 * len(self.parameters), self.layout.dim))
        names, values = [], []
        for i, p in enumerate(self.parameters):
            rows[2 * i, self.layout.cur(p.coord)] = 1.0
            rows[2 * i + 1, self.layout.nxt(p.coord)] = 1.0
            names.extend([p.name, p.name])
            values.extend([p.initial, p.initial])
        cov = PARAM_OBS_STD**2 * np.eye(len(values))
        return LinearObservation(rows, GaussianEstimate(values, cov)), names

    # -- horizon bookkeeping ---------------------------------------------

    def ensure_horizon(self, now: float):
        """Create records up to now + HORIZON steps; discard old history.
        A new record inherits its predecessor's setpoints."""
        current = int(now // STEP_SECONDS)
        self.current_index = current
        created = []
        if not self.steps:
            initial = {p.name: p.initial for p in self.parameters}
            rec = TimeStepRecord(index=current, prior=self.initial_prior, params=initial)
            self.steps[current] = rec
            created.append(rec)
        newest = max(self.steps)
        for k in range(newest + 1, current + HORIZON + 1):
            pred = self.steps[k - 1]
            prior = pred.prior if pred.result is None else self._next_prior(pred.result)
            rec = TimeStepRecord(index=k, prior=prior, params=dict(pred.params))
            self.steps[k] = rec
            created.append(rec)
        cutoff = current - RETENTION
        for k in [k for k in self.steps if k < cutoff]:
            del self.steps[k]
        return created

    def _next_prior(self, result: FusionResult) -> GaussianEstimate:
        """Prior of the following step: a posterior's prediction block."""
        return project(GaussianEstimate(result.map, result.post_cov), self._m_pred)

    def _next_params(self, rec: TimeStepRecord) -> dict:
        """Setpoints of the step after rec; the newest step plans its own."""
        return self.steps.get(rec.index + 1, rec).params

    def setpoints(self) -> dict:
        """Setpoints planned for the current step."""
        rec = self.steps.get(self.current_index)
        if rec is None:
            return {p.name: p.initial for p in self.parameters}
        return dict(rec.params)

    def parameter_value(self, name: str) -> float:
        return self.setpoints()[name]

    # -- source ingestion --------------------------------------------------

    def ingest_sensor(self, step: int, sensor_id: str, observation: LinearObservation):
        rec = self._open_step(step)
        rec.sensors[sensor_id] = observation
        rec.dirty = True

    def observe_sensor(self, step: int, sensor_id: str, values):
        """Convenience: build the observation from the sensor binding."""
        binding = self.sensors[sensor_id]
        self.ingest_sensor(step, sensor_id, binding.observation(values))

    def _require_step(self, step: int) -> TimeStepRecord:
        if step not in self.steps:
            raise KeyError(f"node {self.name} has no record for step {step}")
        return self.steps[step]

    def _open_step(self, step: int) -> TimeStepRecord:
        """The step's record, unless a backpropagation period freezes it."""
        rec = self._require_step(step)
        if self.period == PERIOD_BACKPROPAGATION:
            raise FrozenStep(f"step {step} is frozen")
        return rec

    # -- message handling --------------------------------------------------

    def handle_message(self, msg: Message):
        if msg.type == TYPE_INFORMATION:
            self.handle_information(msg)
        elif msg.type == TYPE_GRADIENT:
            self.handle_gradient(msg)
        elif msg.type == TYPE_CONTROL:
            self.handle_control(msg)
        else:
            raise UnknownAction(f"unhandled message type {msg.type!r}")

    def handle_information(self, msg: Message):
        if msg.sender not in self.neighbors:
            raise UnknownNeighbor(f"information from unregistered {msg.sender!r}")
        if msg.time_stamp not in self.steps:
            return  # outside the retained window
        reg = self.neighbors[msg.sender]
        rec = self.steps[msg.time_stamp]
        rec.comms[msg.sender] = reg.rows.with_value(GaussianEstimate(msg.mean, msg.cov))
        rec.dirty = True

    def handle_control(self, msg: Message):
        if msg.action == ACTION_TO_BACKPROPAGATION:
            if self.period == PERIOD_BACKPROPAGATION:
                return
            self.period = PERIOD_BACKPROPAGATION
            for rec in self.steps.values():
                rec.zero_gradients()
        elif msg.action == ACTION_TO_INFORMATION:
            if self.period == PERIOD_INFORMATION:
                return
            self.apply_update()
            self.period = PERIOD_INFORMATION
            self.resolve_all()
        else:
            raise UnknownAction(f"unknown control action {msg.action!r}")

    # -- fusion -------------------------------------------------------------

    def _build_problem(self, rec: TimeStepRecord) -> FusionProblem:
        lay = self.layout
        sources = [
            InformationSource("prior", KIND_PRIOR, self._prior_obs.with_value(rec.prior)),
        ]
        if self.process_model is not None:
            sources.append(InformationSource("proc", KIND_PROCESS, self.process_model))
        sources.append(InformationSource("pred", KIND_PREDICTION, self.prediction_model))
        if self.parameters:
            nxt = self._next_params(rec)
            values = []
            for p in self.parameters:
                values.append(rec.params[p.name])
                values.append(nxt[p.name])
            # The parameter covariance never changes, so every step shares
            # the initial estimate's whitening.
            value = self._param_obs.value.with_mean(values)
            sources.append(
                InformationSource("param", KIND_PARAMETER, self._param_obs.with_value(value))
            )
        for sid in sorted(rec.sensors):
            sources.append(InformationSource(f"s:{sid}", KIND_SENSOR, rec.sensors[sid]))
        for nb in sorted(rec.comms):
            sources.append(InformationSource(f"c:{nb}", KIND_COMMUNICATION, rec.comms[nb]))
        return FusionProblem(lay.dim, sources, coord_names=lay.concat_names())

    def resolve_step(self, step: int) -> FusionResult | None:
        rec = self._open_step(step)
        if not rec.dirty:
            return rec.result
        if rec.result is not None:
            x0, ci_start = rec.result.map, rec.result.ci_weights
        else:
            x0, ci_start = np.concatenate([rec.prior.mean, rec.prior.mean]), None
            nxt = self._next_params(rec)
            for p in self.parameters:
                x0[self.layout.nxt(p.coord)] = nxt[p.name]
                x0[self.layout.cur(p.coord)] = rec.params[p.name]
        try:
            result = fuse(self._build_problem(rec), x0, ci_start)
        except DifftwinError as exc:
            rec.dirty = False
            log.warning("node %s step %d fusion failed, keeping stale result: %s",
                        self.name, step, exc)
            return rec.result
        rec.result = result
        rec.dirty = False
        rec.gated = False
        succ = self.steps.get(step + 1)
        if succ is not None:
            new_prior = self._next_prior(result)
            if succ.prior != new_prior:
                succ.prior = new_prior
                succ.dirty = True
        return result

    def resolve_all(self):
        if self.period == PERIOD_BACKPROPAGATION:
            return
        for step in sorted(self.steps):
            if self.steps[step].dirty:
                self.resolve_step(step)

    # -- information messages ------------------------------------------------

    def generate_info_messages(self) -> list:
        if self.period != PERIOD_INFORMATION:
            return []
        out = []
        for step in sorted(self.steps):
            rec = self.steps[step]
            # sent_cache changes only on a send, so a result gated before
            # would be sent or suppressed exactly as it was then.
            if rec.result is None or rec.gated:
                continue
            rec.gated = True
            est = GaussianEstimate(rec.result.map, rec.result.post_cov)
            for nb in sorted(self.neighbors):
                reg = self.neighbors[nb]
                projected = project(est, reg.obs_matrix)
                cached = rec.sent_cache.get(nb)
                if cached is not None:
                    if kl_divergence_bits(projected, cached) <= self.delta_info_bits:
                        continue
                rec.sent_cache[nb] = projected
                out.append(
                    information_message(self.name, nb, step, projected.mean, projected.cov)
                )
        return out

    # -- gradients -------------------------------------------------------------

    def handle_gradient(self, msg: Message):
        if self.period != PERIOD_BACKPROPAGATION:
            raise GradientOutsidePeriod(
                f"node {self.name} received a gradient in the information period"
            )
        if msg.sender not in self.neighbors:
            raise UnknownNeighbor(f"gradient from unregistered {msg.sender!r}")
        if msg.time_stamp not in self.steps:
            return
        rec = self.steps[msg.time_stamp]
        if rec.result is None:
            log.warning("node %s step %d was never fused, dropping gradient from %s",
                        self.name, msg.time_stamp, msg.sender)
            return
        reg = self.neighbors[msg.sender]
        if len(msg.gradient) != reg.obs_matrix.shape[0]:
            raise DimensionMismatch(
                f"gradient dim {len(msg.gradient)} vs exchange dim {reg.obs_matrix.shape[0]}"
            )
        lifted = reg.obs_matrix.T @ msg.gradient
        self._backprop_into_step(msg.time_stamp, lifted)

    def _backprop_into_step(self, step: int, grad_x: np.ndarray):
        rec = self.steps[step]
        if not np.any(grad_x):
            return
        # Only the prior, parameter and communication chunks are solved:
        # sensor and model gradients would serve model fine-tuning, which
        # this node does not do.
        for sid, chunk in rec.result.jac_chunks.items():
            g = chunk.T @ grad_x
            if not np.any(g):
                continue
            if sid == "prior":
                # Through time: the prior came from the previous step's
                # prediction. Setpoint gradients stop at the current step.
                prev = step - 1
                if (
                    step > (self.current_index or step)
                    and prev in self.steps
                    and self.steps[prev].result is not None
                ):
                    self._backprop_into_step(prev, self._m_pred.T @ g)
            elif sid == "param":
                for row, pname in enumerate(self._param_row_names):
                    rec.grad_params[pname] = rec.grad_params.get(pname, 0.0) + float(g[row])
            else:
                nb = sid[2:]
                acc = rec.grad_out.get(nb)
                rec.grad_out[nb] = g if acc is None else acc + g

    def generate_gradient_messages(self) -> list:
        if self.period != PERIOD_BACKPROPAGATION:
            return []
        out = []
        for step in sorted(self.steps):
            rec = self.steps[step]
            for nb in sorted(rec.grad_out):
                pending = rec.grad_out[nb]
                magnitude = float(np.max(np.abs(pending)))
                if magnitude == 0.0:
                    continue
                sent_max = rec.sent_grad_max.get(nb)
                if sent_max is not None and magnitude <= DELTA_GRAD * sent_max:
                    continue
                rec.sent_grad_max[nb] = max(sent_max or 0.0, magnitude)
                out.append(gradient_message(self.name, nb, step, pending))
                rec.grad_out[nb] = np.zeros_like(pending)
        return out

    # -- parameter update ---------------------------------------------------

    def accumulated_parameter_gradients(self) -> dict:
        totals = {p.name: 0.0 for p in self.parameters}
        for rec in self.steps.values():
            for name, g in rec.grad_params.items():
                totals[name] += g
        return totals

    def max_param_grad(self) -> float:
        """Largest magnitude among the accumulated parameter gradients."""
        return max((abs(v) for v in self.accumulated_parameter_gradients().values()), default=0.0)

    def apply_update(self) -> dict:
        """Sign-based update from the summed parameter gradients; the new
        value is planned for the current and all future steps."""
        deltas = {}
        if not self.parameters or self.current_index is None:
            return deltas
        totals = self.accumulated_parameter_gradients()
        for p in self.parameters:
            value = self.parameter_value(p.name)
            new = self.optimizers[p.name].update(value, totals[p.name])
            deltas[p.name] = new - value
            if new != value:
                for rec in self.steps.values():
                    if rec.index >= self.current_index:
                        rec.params[p.name] = new
                    if rec.index >= self.current_index - 1:
                        rec.dirty = True
        return deltas

    # -- driver interface -----------------------------------------------------

    def pump(self, inbox) -> list:
        """Drain an inbox, resolve, and emit generated messages."""
        for msg in inbox:
            self.handle_message(msg)
        if self.period == PERIOD_INFORMATION:
            self.resolve_all()
            return self.generate_info_messages()
        return self.generate_gradient_messages()

    def state_rows(self, step: int) -> list:
        """(coord, mean, std) of each current-step coordinate fused at
        step; empty while the step has no fusion result."""
        rec = self.steps.get(step)
        if rec is None or rec.result is None:
            return []
        rows = []
        for coord in self.layout.names:
            ix = self.layout.cur(coord)
            std = math.sqrt(max(float(rec.result.post_cov[ix, ix]), 0.0))
            rows.append((coord, float(rec.result.map[ix]), std))
        return rows
