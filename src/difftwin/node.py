"""Process-node state machine.

Each node keeps a rolling window of time steps (a short past plus an
eight-step finite horizon), fuses every step's information sources into a
state estimate, exchanges projected estimates with registered neighbors,
and, during backpropagation periods, relays loss gradients through the
fusion Jacobians into parameter and neighbor gradient storages and back
through time to earlier steps. Parameter updates use sign-based adaptive
steps within hard bounds.

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
from .models.layouts import StateLayout
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

DEFAULT_HORIZON = 8
DEFAULT_RETENTION = 4
DEFAULT_DELTA_INFO_BITS = 1e-6
DEFAULT_DELTA_GRAD = 1e-6
PARAM_OBS_STD = 1e-4
SENSOR_FLOW_FLOOR = 1e-3  # kg/s floor in the sensor variance model


@dataclass(frozen=True)
class NeighborRegistration:
    """Neighbor name plus the observation matrix mapping the local
    concatenated state onto the agreed exchange format."""

    name: str
    obs_matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.obs_matrix, dtype=float)
        if np.linalg.matrix_rank(m) < m.shape[0]:
            raise DimensionMismatch(
                f"exchange matrix for neighbor {self.name!r} is rank deficient"
            )
        object.__setattr__(self, "obs_matrix", m)


@dataclass(frozen=True)
class SensorBinding:
    """Static observation rows for one flow sensor plus its noise model.

    The variance assigned to a reading is max(flow, floor) * mass / dt:
    the shot-noise variance of counting articles of effective mass `mass`
    over one integration window.
    """

    sensor_id: str
    rows: np.ndarray
    effective_mass: float
    dt: float = 30.0

    def observation(self, values) -> LinearObservation:
        values = np.atleast_1d(np.asarray(values, dtype=float))
        var = np.maximum(values, SENSOR_FLOW_FLOOR) * self.effective_mass / self.dt
        return LinearObservation(
            self.rows, GaussianEstimate(values, np.diag(var))
        )


@dataclass
class ParameterSpec:
    name: str
    coord: str
    lower: float
    upper: float
    initial: float
    eta_plus: float = 1.2
    eta_minus: float = 0.5
    delta_init_frac: float = 0.02
    delta_min_frac: float = 0.001
    delta_max_frac: float = 0.10

    @property
    def span(self) -> float:
        return self.upper - self.lower


@dataclass
class OptimizerState:
    """Sign-based adaptive step state per parameter."""

    spec: ParameterSpec
    delta: float = 0.0
    prev_sign: float = 0.0

    def __post_init__(self):
        if self.delta == 0.0:
            self.delta = self.spec.delta_init_frac * self.spec.span

    def update(self, value: float, grad: float) -> float:
        """One minimization step: returns the new, bound-clamped value."""
        sign = math.copysign(1.0, grad) if grad != 0.0 else 0.0
        if sign == 0.0:
            self.prev_sign = 0.0
            return value
        if sign * self.prev_sign > 0:
            self.delta = min(self.delta * self.spec.eta_plus, self.spec.delta_max_frac * self.spec.span)
        elif sign * self.prev_sign < 0:
            self.delta = max(self.delta * self.spec.eta_minus, self.spec.delta_min_frac * self.spec.span)
        self.prev_sign = sign
        new = value - sign * self.delta
        return min(max(new, self.spec.lower), self.spec.upper)


@dataclass
class TimeStepRecord:
    """One node's bookkeeping for one discrete time step."""

    index: int
    prior: GaussianEstimate
    sensors: dict = field(default_factory=dict)
    comms: dict = field(default_factory=dict)
    result: FusionResult | None = None
    stale: bool = False
    dirty: bool = True
    frozen: bool = False
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
        dt: float = 30.0,
        horizon: int = DEFAULT_HORIZON,
        retention: int = DEFAULT_RETENTION,
        delta_info_bits: float = DEFAULT_DELTA_INFO_BITS,
        delta_grad: float = DEFAULT_DELTA_GRAD,
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
        self.dt = dt
        self.horizon = horizon
        self.retention = retention
        self.delta_info_bits = delta_info_bits
        self.delta_grad = delta_grad
        self.period = PERIOD_INFORMATION
        self.steps: dict[int, TimeStepRecord] = {}
        self.current_index: int | None = None
        # Per-step parameter plans; values persist for past steps.
        self.param_plan: dict[str, dict[int, float]] = {
            p.name: {} for p in self.parameters
        }
        n = layout.n
        if initial_prior is None:
            initial_prior = GaussianEstimate(np.zeros(n), np.eye(n))
        if initial_prior.dim != n:
            raise DimensionMismatch("initial prior dimension disagrees with layout")
        self.initial_prior = initial_prior
        self._m_pred = np.hstack([np.eye(n), np.zeros((n, n))])
        self._m_prior = np.hstack([np.zeros((n, n)), np.eye(n)])
        self._param_rows, self._param_row_names = self._build_param_rows()

    # -- registration and wiring ----------------------------------------

    def register_neighbor(self, reg: NeighborRegistration):
        if reg.obs_matrix.shape[1] != self.layout.dim:
            raise DimensionMismatch(
                f"exchange matrix for {reg.name!r} has {reg.obs_matrix.shape[1]} "
                f"columns, state dim is {self.layout.dim}"
            )
        self.neighbors[reg.name] = reg

    def _build_param_rows(self):
        if not self.parameters:
            return None, []
        rows = np.zeros((2 * len(self.parameters), self.layout.dim))
        names = []
        for i, p in enumerate(self.parameters):
            rows[2 * i, self.layout.cur(p.coord)] = 1.0
            rows[2 * i + 1, self.layout.nxt(p.coord)] = 1.0
            names.extend([p.name, p.name])
        return rows, names

    # -- horizon bookkeeping ---------------------------------------------

    def step_of_time(self, now: float) -> int:
        return int(now // self.dt)

    def ensure_horizon(self, now: float):
        """Create records up to now + horizon steps; discard old history."""
        current = self.step_of_time(now)
        self.current_index = current
        created = []
        if not self.steps:
            rec = TimeStepRecord(index=current, prior=self.initial_prior)
            self.steps[current] = rec
            created.append(rec)
            for p in self.parameters:
                self.param_plan[p.name][current] = p.initial
        newest = max(self.steps)
        for k in range(newest + 1, current + self.horizon + 1):
            pred = self.steps[k - 1]
            if pred.result is not None:
                prior = project(
                    GaussianEstimate(pred.result.map, pred.result.post_cov),
                    self._m_pred,
                )
            else:
                prior = pred.prior
            rec = TimeStepRecord(index=k, prior=prior)
            self.steps[k] = rec
            created.append(rec)
            for p in self.parameters:
                plan = self.param_plan[p.name]
                plan[k] = plan.get(k - 1, p.initial)
        cutoff = current - self.retention
        for k in [k for k in self.steps if k < cutoff]:
            del self.steps[k]
            for p in self.parameters:
                self.param_plan[p.name].pop(k, None)
        return created

    def parameter_value(self, name: str, step: int | None = None) -> float:
        step = self.current_index if step is None else step
        plan = self.param_plan[name]
        if step in plan:
            return plan[step]
        return plan[max(plan)] if plan else self._param_spec(name).initial

    def _param_spec(self, name) -> ParameterSpec:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    def setpoints(self) -> dict:
        return {p.name: self.parameter_value(p.name) for p in self.parameters}

    # -- source ingestion --------------------------------------------------

    def ingest_sensor(self, step: int, sensor_id: str, observation: LinearObservation):
        rec = self._require_step(step)
        if rec.frozen:
            raise FrozenStep(f"step {step} is frozen")
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
        obs = LinearObservation(
            reg.obs_matrix, GaussianEstimate(msg.mean, msg.cov)
        )
        rec.comms[msg.sender] = obs
        rec.dirty = True

    def handle_control(self, msg: Message):
        if msg.action == ACTION_TO_BACKPROPAGATION:
            if self.period == PERIOD_BACKPROPAGATION:
                return
            self.period = PERIOD_BACKPROPAGATION
            for rec in self.steps.values():
                rec.frozen = True
                rec.zero_gradients()
        elif msg.action == ACTION_TO_INFORMATION:
            if self.period == PERIOD_INFORMATION:
                return
            self.apply_update()
            for rec in self.steps.values():
                rec.frozen = False
            self.period = PERIOD_INFORMATION
            self.resolve_all()
        else:
            raise UnknownAction(f"unknown control action {msg.action!r}")

    # -- fusion -------------------------------------------------------------

    def _build_problem(self, rec: TimeStepRecord) -> FusionProblem:
        lay = self.layout
        sources = [
            InformationSource("prior", KIND_PRIOR, LinearObservation(self._m_prior, rec.prior)),
        ]
        if self.process_model is not None:
            sources.append(InformationSource("proc", KIND_PROCESS, self.process_model))
        sources.append(InformationSource("pred", KIND_PREDICTION, self.prediction_model))
        if self.parameters:
            values = []
            for p in self.parameters:
                values.append(self.parameter_value(p.name, rec.index))
                values.append(self.parameter_value(p.name, rec.index + 1))
            cov = PARAM_OBS_STD**2 * np.eye(len(values))
            sources.append(
                InformationSource(
                    "param",
                    KIND_PARAMETER,
                    LinearObservation(self._param_rows, GaussianEstimate(values, cov)),
                )
            )
        for sid in sorted(rec.sensors):
            sources.append(InformationSource(f"s:{sid}", KIND_SENSOR, rec.sensors[sid]))
        for nb in sorted(rec.comms):
            sources.append(InformationSource(f"c:{nb}", KIND_COMMUNICATION, rec.comms[nb]))
        return FusionProblem(lay.dim, sources, coord_names=lay.concat_names())

    def resolve_step(self, step: int) -> FusionResult | None:
        rec = self._require_step(step)
        if rec.frozen:
            raise FrozenStep(f"step {step} is frozen")
        if not rec.dirty:
            return rec.result
        problem = self._build_problem(rec)
        if rec.result is not None:
            x0 = rec.result.map
        else:
            x0 = np.concatenate([rec.prior.mean, rec.prior.mean])
            for p in self.parameters:
                x0[self.layout.nxt(p.coord)] = self.parameter_value(p.name, step + 1)
                x0[self.layout.cur(p.coord)] = self.parameter_value(p.name, step)
        try:
            result = fuse(problem, x0)
        except DifftwinError as exc:
            rec.stale = True
            rec.dirty = False
            log.warning("node %s step %d fusion failed, keeping stale result: %s",
                        self.name, step, exc)
            return rec.result
        rec.result = result
        rec.stale = False
        rec.dirty = False
        succ = self.steps.get(step + 1)
        if succ is not None and not succ.frozen:
            new_prior = project(
                GaussianEstimate(result.map, result.post_cov), self._m_pred
            )
            if succ.prior != new_prior:
                succ.prior = new_prior
                succ.dirty = True
        return result

    def resolve_all(self):
        for step in sorted(self.steps):
            rec = self.steps[step]
            if rec.dirty and not rec.frozen:
                self.resolve_step(step)

    # -- information messages ------------------------------------------------

    def generate_info_messages(self) -> list:
        if self.period != PERIOD_INFORMATION:
            return []
        out = []
        for step in sorted(self.steps):
            rec = self.steps[step]
            if rec.result is None:
                continue
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
        for sid, chunk in rec.result.jac_chunks.items():
            # Sensor and model chunks feed no storage: their gradients would
            # serve model fine-tuning, which this node does not do.
            if sid not in ("prior", "param") and not sid.startswith("c:"):
                continue
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
                if sent_max is not None and magnitude <= self.delta_grad * sent_max:
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
            value = self.parameter_value(p.name, self.current_index)
            new = self.optimizers[p.name].update(value, totals[p.name])
            deltas[p.name] = new - value
            if new != value:
                plan = self.param_plan[p.name]
                for k in self.steps:
                    if k >= self.current_index:
                        plan[k] = new
                for rec in self.steps.values():
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
