"""Node state machine tests: horizon, ingestion, fusion, gradients, updates."""

import logging

import numpy as np
import pytest

from difftwin.errors import (
    DimensionMismatch,
    FrozenStep,
    GradientOutsidePeriod,
    UnknownAction,
    UnknownNeighbor,
)
from difftwin.gaussian import GaussianEstimate, LinearObservation, kl_divergence_bits
from difftwin.models.base import DifferentiableModel
from difftwin.models.layouts import StateLayout
from difftwin.models.lowpass import lowpass_prediction
from difftwin.node import (
    DELTA_MAX_FRAC,
    PERIOD_BACKPROPAGATION,
    RETENTION,
    NeighborRegistration,
    Node,
    OptimizerState,
    ParameterSpec,
    SensorBinding,
)
from difftwin.protocol import (
    ACTION_TO_BACKPROPAGATION,
    ACTION_TO_INFORMATION,
    control_message,
    gradient_message,
    information_message,
)


def tank_layout(with_param=False):
    names = ("flow", "knob") if with_param else ("flow",)
    return StateLayout(
        machine="tank",
        names=names,
        input_coords=("flow",),
        output_coords=(),
        param_coords=("knob",) if with_param else (),
    )


def exchange_row(layout):
    m = np.zeros((1, layout.dim))
    m[0, layout.cur("flow")] = 1.0
    return m


def make_node(name="a", neighbor_names=(), with_param=False, prior_mean=1.0, process_model=None):
    lay = tank_layout(with_param)
    neighbors = [
        NeighborRegistration(nb, exchange_row(lay)) for nb in neighbor_names
    ]
    params = []
    if with_param:
        params = [ParameterSpec(name="knob", coord="knob", lower=5.0, upper=21.0, initial=11.0)]
    mean = np.full(lay.n, prior_mean)
    cov = np.eye(lay.n)
    return Node(
        name=name,
        layout=lay,
        prediction_model=lowpass_prediction(lay, std_inputs=0.5),
        process_model=process_model,
        neighbors=neighbors,
        parameters=params,
        initial_prior=GaussianEstimate(mean, cov),
    )


def flow_obs(layout, value, var=1.0):
    m = np.zeros((1, layout.dim))
    m[0, layout.cur("flow")] = 1.0
    return LinearObservation(m, GaussianEstimate([value], [[var]]))


class TestHorizon:
    def test_fresh_node_creates_eight_future_steps(self):
        node = make_node()
        created = node.ensure_horizon(0.0)
        assert len(created) == 9  # current plus eight ahead
        assert max(node.steps) - node.current_index == 8

    def test_idempotent_at_same_time(self):
        node = make_node()
        node.ensure_horizon(0.0)
        assert node.ensure_horizon(0.0) == []

    def test_advancing_30s_appends_exactly_one(self):
        node = make_node()
        node.ensure_horizon(0.0)
        created = node.ensure_horizon(30.0)
        assert len(created) == 1 and created[0].index == 9

    def test_old_steps_discarded(self):
        node = make_node()
        node.ensure_horizon(0.0)
        for t in range(1, 12):
            node.ensure_horizon(30.0 * t)
        assert min(node.steps) == node.current_index - RETENTION


class TestIngest:
    def test_sensor_sets_dirty(self):
        node = make_node()
        node.ensure_horizon(0.0)
        node.resolve_all()
        assert not node.steps[0].dirty
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 2.0))
        assert node.steps[0].dirty

    def test_overwrite_same_sensor_id(self):
        node = make_node()
        node.ensure_horizon(0.0)
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 2.0))
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 3.0))
        assert len(node.steps[0].sensors) == 1
        assert node.steps[0].sensors["s1"].value.mean[0] == 3.0

    def test_frozen_step_rejects_sensor(self):
        node = make_node()
        node.ensure_horizon(0.0)
        node.resolve_all()
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        with pytest.raises(FrozenStep):
            node.ingest_sensor(0, "s1", flow_obs(node.layout, 2.0))

    def test_binding_builds_shot_noise_observation(self):
        lay = tank_layout()
        row = np.zeros((1, lay.dim))
        row[0, lay.cur("flow")] = 1.0
        binding = SensorBinding("s1", row)
        obs = binding.observation([0.06])
        assert obs.value.cov[0, 0] == pytest.approx(0.06 * 0.015 / 30.0)


class TestInformationHandling:
    def test_new_source_added(self):
        node = make_node(neighbor_names=("b",))
        node.ensure_horizon(0.0)
        node.handle_message(information_message("b", "a", 0, [2.0], [[0.5]]))
        assert len(node.steps[0].comms) == 1

    def test_duplicate_overwrites(self):
        node = make_node(neighbor_names=("b",))
        node.ensure_horizon(0.0)
        node.handle_message(information_message("b", "a", 0, [2.0], [[0.5]]))
        node.handle_message(information_message("b", "a", 0, [2.5], [[0.5]]))
        assert len(node.steps[0].comms) == 1
        assert node.steps[0].comms["b"].value.mean[0] == 2.5

    def test_rows_rank_checked_once(self, monkeypatch):
        # Exchange, sensor, prior and parameter rows are checked when the
        # node is built; messages, readings and fusions reuse them.
        lay = tank_layout(with_param=True)
        binding = SensorBinding("s1", exchange_row(lay))
        node = make_node(neighbor_names=("b",), with_param=True)
        node.sensors = {"s1": binding}
        ranks = []
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda *a, **k: ranks.append(a))
        node.ensure_horizon(0.0)
        node.handle_message(information_message("b", "a", 0, [2.0], [[0.5]]))
        node.observe_sensor(0, "s1", [0.06])
        node.pump([])
        assert node.steps[0].result is not None and not ranks

    def test_rank_deficient_exchange_rows_rejected(self):
        lay = tank_layout()
        with pytest.raises(DimensionMismatch, match="neighbor 'b' is rank deficient"):
            NeighborRegistration("b", np.vstack([exchange_row(lay)] * 2))

    def test_unregistered_sender_rejected(self):
        node = make_node(neighbor_names=("b",))
        node.ensure_horizon(0.0)
        with pytest.raises(UnknownNeighbor):
            node.handle_message(information_message("zz", "a", 0, [2.0], [[0.5]]))


class TestResolve:
    def test_posterior_between_prior_and_sensor(self):
        node = make_node(prior_mean=1.0)
        node.ensure_horizon(0.0)
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 3.0, var=1.0))
        res = node.resolve_step(0)
        mean = res.map[node.layout.cur("flow")]
        assert 1.0 < mean < 3.0

    def test_updated_step_changes_successor_prior(self):
        node = make_node(prior_mean=1.0)
        node.ensure_horizon(0.0)
        node.resolve_all()
        before = node.steps[1].prior
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 3.0, var=0.1))
        node.resolve_step(0)
        after = node.steps[1].prior
        assert kl_divergence_bits(after, before) > 0.0
        assert node.steps[1].dirty

    def test_failed_fusion_keeps_previous_result(self, caplog):
        class FlakyModel(DifferentiableModel):
            """Holds the flow at twice the next step's flow; raises on demand."""

            out_dim = 1
            noise_cov = np.eye(1)
            fail = False

            def __init__(self, layout):
                self.row = np.zeros(layout.dim)
                self.row[layout.cur("flow")], self.row[layout.nxt("flow")] = 1.0, -2.0

            def evaluate(self, x):
                if self.fail:
                    raise RuntimeError("model down")
                return np.array([self.row @ x])

            def jacobian(self, x):
                return self.row[None, :]

        model = FlakyModel(tank_layout())
        node = make_node(process_model=model)
        node.ensure_horizon(0.0)
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 2.0))
        node.pump([])
        good = node.steps[0].result
        assert good is not None

        model.fail = True
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 3.0))
        with caplog.at_level(logging.WARNING, logger="difftwin.node"):
            node.pump([])
        assert node.steps[0].result is good
        assert "fusion failed" in caplog.text

        model.fail = False
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 3.0))
        node.pump([])
        fused = node.steps[0].result
        assert fused is not good
        assert fused.map[node.layout.cur("flow")] > good.map[node.layout.cur("flow")]

    def test_clean_step_resolve_is_noop(self):
        node = make_node()
        node.ensure_horizon(0.0)
        node.resolve_all()
        res = node.steps[0].result
        assert node.resolve_step(0) is res


class TestInfoMessages:
    def test_first_pass_sends_per_neighbor_per_step(self):
        node = make_node(neighbor_names=("b", "c"))
        node.ensure_horizon(0.0)
        node.resolve_all()
        msgs = node.generate_info_messages()
        assert len(msgs) == 2 * len(node.steps)

    def test_unchanged_state_sends_nothing(self):
        node = make_node(neighbor_names=("b",))
        node.ensure_horizon(0.0)
        node.resolve_all()
        node.generate_info_messages()
        assert node.generate_info_messages() == []

    def test_gate_skips_steps_not_fused_since_last_gate(self, monkeypatch):
        import difftwin.node as node_module

        gated = []

        def counting_kl(p, q):
            gated.append((p, q))
            return kl_divergence_bits(p, q)

        monkeypatch.setattr(node_module, "kl_divergence_bits", counting_kl)
        node = make_node(neighbor_names=("b", "c"))
        node.ensure_horizon(0.0)
        node.resolve_all()
        assert len(node.generate_info_messages()) == 2 * len(node.steps)
        assert gated == []  # first sends compare against nothing
        assert node.generate_info_messages() == []
        assert gated == []
        node.ingest_sensor(0, "s1", flow_obs(node.layout, 3.0, var=0.1))
        node.resolve_all()
        fused_again = [s for s, rec in node.steps.items() if not rec.gated]
        msgs = node.generate_info_messages()
        assert 0 in fused_again
        assert len(gated) == 2 * len(fused_again)
        assert {(m.recipient, m.time_stamp) for m in msgs} >= {("b", 0), ("c", 0)}
        gated.clear()
        assert node.generate_info_messages() == []
        assert gated == []


class TestGradients:
    def _backprop_ready_node(self, neighbor_names=("b",), with_param=False):
        node = make_node(neighbor_names=("loss",) + neighbor_names, with_param=with_param)
        node.ensure_horizon(0.0)
        for nb in neighbor_names:
            node.handle_message(information_message(nb, "a", 0, [2.0], [[0.5]]))
        node.resolve_all()
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        return node

    def test_gradient_outside_period_rejected(self):
        node = make_node(neighbor_names=("b",))
        node.ensure_horizon(0.0)
        node.resolve_all()
        with pytest.raises(GradientOutsidePeriod):
            node.handle_message(gradient_message("b", "a", 0, [1.0]))

    def test_zero_gradient_propagates_nothing(self):
        node = self._backprop_ready_node()
        node.handle_message(gradient_message("loss", "a", 0, [0.0]))
        assert node.steps[0].grad_out == {}
        assert node.generate_gradient_messages() == []

    def test_two_gradients_sum(self):
        node = self._backprop_ready_node()
        node.handle_message(gradient_message("loss", "a", 0, [1.0]))
        g1 = dict(node.steps[0].grad_out)["b"].copy()
        node.handle_message(gradient_message("loss", "a", 0, [1.0]))
        g2 = node.steps[0].grad_out["b"]
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_accumulation_order_independent(self):
        gradients = [[0.3], [-1.7], [0.9]]
        stored = []
        for order in ([0, 1, 2], [2, 0, 1]):
            node = self._backprop_ready_node()
            for i in order:
                node.handle_message(gradient_message("loss", "a", 0, gradients[i]))
            stored.append(node.steps[0].grad_out["b"].copy())
        np.testing.assert_allclose(stored[0], stored[1], atol=1e-12)

    def test_first_gradient_always_sent_then_threshold(self):
        node = self._backprop_ready_node()
        node.handle_message(gradient_message("loss", "a", 0, [1.0]))
        first = node.generate_gradient_messages()
        assert len(first) == 1 and first[0].recipient == "b"
        # tiny new accumulation is suppressed by the relative threshold
        node.handle_message(gradient_message("loss", "a", 0, [1e-9]))
        assert node.generate_gradient_messages() == []

    def test_anti_parallel_targets_only(self):
        # registered neighbors b and c, but information came only from b
        node = make_node(neighbor_names=("loss", "b", "c"))
        node.ensure_horizon(0.0)
        node.handle_message(information_message("b", "a", 0, [2.0], [[0.5]]))
        node.resolve_all()
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        node.handle_message(gradient_message("loss", "a", 0, [1.0]))
        msgs = node.generate_gradient_messages()
        assert {m.recipient for m in msgs} == {"b"}

    def test_gradient_for_never_fused_step_is_dropped(self, caplog):
        node = make_node(neighbor_names=("loss", "b"))
        node.ensure_horizon(0.0)
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        assert node.steps[0].result is None
        with caplog.at_level("WARNING"):
            out = node.pump([gradient_message("loss", "a", 0, [1.0])])
        assert out == []
        assert node.steps[0].grad_out == {}
        assert any("never fused" in rec.message for rec in caplog.records)

    def test_frozen_map_bitwise_stable(self):
        node = self._backprop_ready_node()
        frozen_map = node.steps[0].result.map.copy()
        node.handle_message(gradient_message("loss", "a", 0, [1.0]))
        node.generate_gradient_messages()
        np.testing.assert_array_equal(node.steps[0].result.map, frozen_map)


class TestControl:
    def test_to_backpropagation_freezes_and_zeroes(self):
        node = make_node(neighbor_names=("loss",))
        node.ensure_horizon(0.0)
        node.resolve_all()
        node.steps[0].grad_params["x"] = 1.0
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        assert node.period == PERIOD_BACKPROPAGATION
        assert node.steps[0].grad_params == {}

    def test_repeated_command_idempotent(self):
        node = make_node(neighbor_names=("loss",))
        node.ensure_horizon(0.0)
        node.resolve_all()
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        node.handle_control(control_message("loss", "a", ACTION_TO_INFORMATION))
        maps = {k: rec.result.map.copy() for k, rec in node.steps.items()}
        node.handle_control(control_message("loss", "a", ACTION_TO_INFORMATION))
        for k, rec in node.steps.items():
            np.testing.assert_array_equal(rec.result.map, maps[k])

    def test_unknown_action_rejected(self):
        node = make_node(neighbor_names=("loss",))
        node.ensure_horizon(0.0)
        msg = control_message("loss", "a", ACTION_TO_INFORMATION)
        msg.action = "explode"
        with pytest.raises(UnknownAction):
            node.handle_control(msg)

    def test_update_then_refusion_on_unfreeze(self):
        node = make_node(neighbor_names=("loss",), with_param=True)
        node.ensure_horizon(0.0)
        node.resolve_all()
        node.handle_control(control_message("loss", "a", ACTION_TO_BACKPROPAGATION))
        node.steps[0].grad_params["knob"] = 2.5  # positive: push value down
        before = node.parameter_value("knob")
        node.handle_control(control_message("loss", "a", ACTION_TO_INFORMATION))
        after = node.parameter_value("knob")
        assert after < before
        assert not node.steps[0].dirty  # re-resolved after unfreeze


class TestRProp:
    def spec(self):
        return ParameterSpec(name="knob", coord="knob", lower=5.0, upper=21.0, initial=11.0)

    def test_zero_gradient_zero_delta(self):
        opt = OptimizerState(self.spec())
        assert opt.update(11.0, 0.0) == 11.0

    def test_constant_sign_grows_to_delta_max(self):
        spec = self.spec()
        opt = OptimizerState(spec)
        value = 11.0
        deltas = []
        for _ in range(30):
            new = opt.update(value, -1.0)  # negative gradient pushes up
            deltas.append(new - value)
            value = new
            if value >= spec.upper:
                break
        assert deltas[1] == pytest.approx(deltas[0] * 1.2)
        assert max(deltas) <= DELTA_MAX_FRAC * spec.span + 1e-12

    def test_bound_clamped_exactly(self):
        spec = self.spec()
        opt = OptimizerState(spec)
        value = 20.5
        for _ in range(10):
            value = opt.update(value, -1.0)
        assert value == 21.0

    def test_bounds_invariant_under_random_gradients(self):
        spec = self.spec()
        opt = OptimizerState(spec)
        rng = np.random.default_rng(3)
        value = 11.0
        for _ in range(500):
            value = opt.update(value, float(rng.standard_normal()))
            assert spec.lower <= value <= spec.upper

    def test_apply_update_zero_gradient_no_delta(self):
        node = make_node(with_param=True)
        node.ensure_horizon(0.0)
        node.resolve_all()
        deltas = node.apply_update()
        assert deltas == {"knob": 0.0}


class TestPlannedSetpoints:
    def _updated_node(self):
        # Records 0..9 with step 1 current; a positive gradient pushes knob down.
        node = make_node(neighbor_names=("loss",), with_param=True)
        node.ensure_horizon(0.0)
        node.ensure_horizon(30.0)
        node.resolve_all()
        node.steps[1].grad_params["knob"] = 2.5
        deltas = node.apply_update()
        assert deltas["knob"] < 0.0
        return node, 11.0 + deltas["knob"]

    @staticmethod
    def _param_values(node, rec):
        (src,) = [s for s in node._build_problem(rec).sources if s.id == "param"]
        return list(src.payload.value.mean)

    def test_update_rewrites_current_and_later_records_only(self):
        node, new = self._updated_node()
        assert node.current_index == 1
        assert node.steps[0].params == {"knob": 11.0}
        for k in range(1, max(node.steps) + 1):
            assert node.steps[k].params == {"knob": new}
        assert node.parameter_value("knob") == new

    def test_new_record_inherits_updated_value(self):
        node, new = self._updated_node()
        created = node.ensure_horizon(60.0)
        assert [rec.index for rec in created] == [10]
        assert created[0].params == {"knob": new}

    def test_param_source_reads_own_and_successor_records(self):
        node, new = self._updated_node()
        assert self._param_values(node, node.steps[0]) == [11.0, new]
        newest = node.steps[max(node.steps)]
        newest.params["knob"] = 12.5
        assert self._param_values(node, newest) == [12.5, 12.5]
        assert self._param_values(node, node.steps[newest.index - 1]) == [new, 12.5]
