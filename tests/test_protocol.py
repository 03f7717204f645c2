"""Codec, schema validation, loss evaluation, and scheduler tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from difftwin.errors import MalformedMessage
from difftwin.lossnode import (
    LOSS_COORDS,
    LossNode,
    loss_evaluate,
    loss_gradients,
)
from difftwin.protocol import (
    ACTION_TO_BACKPROPAGATION,
    ACTION_TO_INFORMATION,
    TYPE_CONTROL,
    TYPE_GRADIENT,
    TYPE_INFORMATION,
    Message,
    control_message,
    decode,
    encode,
    gradient_message,
    information_message,
)


def random_message(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        cov = a @ a.T
        return information_message("a", "b", int(rng.integers(0, 1000)), rng.standard_normal(n), cov)
    if kind == 1:
        n = int(rng.integers(1, 6))
        return gradient_message("a", "b", int(rng.integers(0, 1000)), rng.standard_normal(n))
    action = ACTION_TO_INFORMATION if rng.integers(0, 2) else ACTION_TO_BACKPROPAGATION
    return control_message("a", "b", action)


# Names and array entries are valid about three times in four, so that a
# fair share of the drawn messages encodes.
_NAME = st.text(min_size=1, max_size=3)
NAMES = st.one_of(_NAME, _NAME, _NAME, st.sampled_from(["", 7, None]))
STEPS = st.one_of(st.integers(-3, 10**9), st.booleans())
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def arrays_near(shape):
    """Float arrays, mostly of ``shape`` with finite entries, sometimes
    empty, 2-D or with NaN or infinite entries."""
    shapes = st.sampled_from([shape] * 6 + [(0,), (1, 2)])
    return hnp.arrays(np.float64, shapes, elements=st.one_of(_FINITE, _FINITE, _FINITE, st.floats()))


@st.composite
def drawn_messages(draw):
    """Constructor inputs with every kind of fault the schema forbids, and
    raw ``Message``s with any fields set."""
    sender, recipient, n = draw(NAMES), draw(NAMES), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["information", "gradient", "control", "raw"]))
    if kind == "information":
        return information_message(
            sender, recipient, draw(STEPS), draw(arrays_near((n,))), draw(arrays_near((n, n)))
        )
    if kind == "gradient":
        return gradient_message(sender, recipient, draw(STEPS), draw(arrays_near((n,))))
    actions = st.sampled_from([ACTION_TO_INFORMATION, ACTION_TO_BACKPROPAGATION, "to_lunch"])
    if kind == "control":
        return control_message(sender, recipient, draw(actions))
    maybe = st.none() | arrays_near((n,))
    return Message(
        sender,
        recipient,
        draw(st.sampled_from([TYPE_INFORMATION, TYPE_GRADIENT, TYPE_CONTROL, "telemetry"])),
        time_stamp=draw(st.none() | STEPS),
        mean=draw(maybe),
        cov=draw(st.none() | arrays_near((n, n))),
        gradient=draw(maybe),
        action=draw(st.none() | actions),
    )


class TestCodec:
    def test_control_round_trip(self):
        msg = control_message("loss", "mag", ACTION_TO_BACKPROPAGATION)
        assert decode(encode(msg)) == msg

    def test_information_shape(self):
        msg = information_message("a", "b", 7, [1.0, 2.0, 3.0], np.eye(3))
        doc = json.loads(encode(msg))
        assert len(doc["cov"]) == 3 and all(len(r) == 3 for r in doc["cov"])
        assert set(doc) == {"sender", "recipient", "type", "time_stamp", "mean", "cov"}

    def test_round_trip_randomized_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            msg = random_message(rng)
            again = decode(encode(msg))
            assert again == msg

    def test_truncated_line_malformed_with_offset(self):
        raw = encode(information_message("a", "b", 1, [1.0], [[1.0]]))
        with pytest.raises(MalformedMessage) as err:
            decode(raw[: len(raw) // 2])
        assert err.value.offset >= 0

    @pytest.mark.parametrize(
        "msg",
        [
            gradient_message("a", "b", 1, []),
            gradient_message("a", "b", 1, [[1.0, 2.0]]),
            information_message("a", "b", 1, [], np.zeros((0, 0))),
            information_message("a", "b", 1, [[1.0]], [[1.0]]),
            control_message("", "b", ACTION_TO_INFORMATION),
            control_message("a", 5, ACTION_TO_INFORMATION),
            Message("a", "b", TYPE_GRADIENT, time_stamp=True, gradient=np.ones(2)),
        ],
        ids=[
            "empty-gradient",
            "2d-gradient",
            "empty-mean",
            "2d-mean",
            "empty-sender",
            "non-string-recipient",
            "bool-time-stamp",
        ],
    )
    def test_encode_rejects_what_decode_rejects(self, msg):
        with pytest.raises(MalformedMessage):
            encode(msg)

    @settings(max_examples=300, deadline=None)
    @given(msg=drawn_messages())
    def test_encode_writes_only_lines_decode_accepts(self, msg):
        try:
            line = encode(msg)
        except MalformedMessage:
            return
        assert decode(line) == msg


class TestSchema:
    def base(self, mtype):
        docs = {
            "information": {
                "sender": "a",
                "recipient": "b",
                "type": "information",
                "time_stamp": 3,
                "mean": [1.0, 2.0],
                "cov": [[1.0, 0.0], [0.0, 1.0]],
            },
            "gradient": {
                "sender": "a",
                "recipient": "b",
                "type": "gradient",
                "time_stamp": 3,
                "gradient": [0.5],
            },
            "control": {
                "sender": "a",
                "recipient": "b",
                "type": "control",
                "action": "to_information",
            },
        }
        return docs[mtype]

    def line(self, doc):
        return json.dumps(doc).encode()

    def test_valid_bases_accepted(self):
        for mtype in ("information", "gradient", "control"):
            decode(self.line(self.base(mtype)))

    @pytest.mark.parametrize("mtype", ["information", "gradient", "control"])
    def test_missing_fields_rejected(self, mtype):
        for key in set(self.base(mtype)) - {"type"}:
            doc = dict(self.base(mtype))
            del doc[key]
            with pytest.raises(MalformedMessage):
                decode(self.line(doc))

    @pytest.mark.parametrize(
        "mtype,foreign",
        [
            ("information", "action"),
            ("information", "gradient"),
            ("gradient", "mean"),
            ("gradient", "cov"),
            ("gradient", "action"),
            ("control", "time_stamp"),
            ("control", "mean"),
            ("control", "gradient"),
        ],
    )
    def test_foreign_fields_rejected(self, mtype, foreign):
        doc = dict(self.base(mtype))
        doc[foreign] = [0.0] if foreign != "action" else "to_information"
        if foreign == "time_stamp":
            doc[foreign] = 1
        with pytest.raises(MalformedMessage):
            decode(self.line(doc))

    def test_wrong_value_types_rejected(self):
        doc = dict(self.base("gradient"))
        doc["time_stamp"] = 1.5
        with pytest.raises(MalformedMessage):
            decode(self.line(doc))
        doc = dict(self.base("information"))
        doc["cov"] = [[1.0, 0.0]]
        with pytest.raises(MalformedMessage):
            decode(self.line(doc))
        doc = dict(self.base("control"))
        doc["action"] = "to_lunch"
        with pytest.raises(MalformedMessage):
            decode(self.line(doc))
        doc = dict(self.base("gradient"))
        doc["gradient"] = [float("nan")]
        with pytest.raises(MalformedMessage):
            decode(self.line(json.loads(json.dumps(doc).replace("NaN", "null"))))

    def test_unknown_type_rejected(self):
        doc = {"sender": "a", "recipient": "b", "type": "telemetry"}
        with pytest.raises(MalformedMessage):
            decode(self.line(doc))


def loss_values(**overrides):
    v = np.zeros(len(LOSS_COORDS))
    for name, val in overrides.items():
        v[LOSS_COORDS.index(name)] = val
    return v


class TestLoss:
    def test_pure_outputs(self):
        # purity one at both outlets: loss is minus the sum of correct flows
        v = loss_values(**{"out.NFM.NFM.M": 0.02, "out.FM.FM.M": 0.03})
        assert loss_evaluate(v) == pytest.approx(-0.05)

    def test_half_purity_quarter_term(self):
        # correct flow 1 with purity 1/2 contributes -(1/2)^2 * 1 = -0.25
        v = loss_values(**{"out.NFM.NFM.M": 1.0, "out.FM.NFM.S": 1.0})
        assert loss_evaluate(v) == pytest.approx(-0.25)

    def test_all_zero_guarded(self):
        v = loss_values()
        assert loss_evaluate(v) == 0.0
        np.testing.assert_array_equal(loss_gradients(v), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            v = rng.uniform(0.001, 0.05, len(LOSS_COORDS))
            grad = loss_gradients(v)
            h = 1e-7
            for k in range(len(v)):
                vp, vm = v.copy(), v.copy()
                vp[k] += h
                vm[k] -= h
                fd = (loss_evaluate(vp) - loss_evaluate(vm)) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_gradient_references_target_coords_only(self):
        v = loss_values(**{"out.NFM.NFM.M": 0.02, "out.FM.FM.M": 0.03})
        grad = loss_gradients(v)
        assert grad.shape == (len(LOSS_COORDS),)
        assert np.any(grad != 0.0)


class TestScheduler:
    def make_loss(self, activation=300.0):
        return LossNode("mag", ["siever", "conveyor", "mag"], activation_delay=activation)

    def test_disabled_emits_nothing(self):
        ln = self.make_loss(activation=1e9)
        for t in (0.0, 15.0, 30.0, 45.0):
            assert ln.on_clock(t) == []

    def test_full_cycle_order(self):
        ln = self.make_loss(activation=0.0)
        ln.handle_message(
            information_message("mag", "loss", 0, 0.01 + np.zeros(12), np.eye(12) * 1e-4)
        )
        msgs = ln.on_clock(15.0)
        kinds = [(m.type, m.recipient) for m in msgs]
        assert kinds[:3] == [("control", "conveyor"), ("control", "mag"), ("control", "siever")]
        assert kinds[3] == ("gradient", "mag")
        msgs = ln.on_clock(30.0)
        assert all(m.type == "control" and m.action == ACTION_TO_INFORMATION for m in msgs)
