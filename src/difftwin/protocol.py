"""Wire messages: schema, newline-delimited JSON codec, validation.

Three message types travel between nodes: information (mean + covariance
for one time step), gradient (loss gradient vector for one time step) and
control (period-switch action). Field presence is validated exactly per
type; unknown or missing fields reject the message.

One check serves both directions: ``encode`` runs the wire document it
builds through the same schema check as ``decode``, so a message that
would fail at the receiver raises ``MalformedMessage`` at the sender.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import MalformedMessage

TYPE_INFORMATION = "information"
TYPE_GRADIENT = "gradient"
TYPE_CONTROL = "control"

ACTION_TO_INFORMATION = "to_information"
ACTION_TO_BACKPROPAGATION = "to_backpropagation"
_ACTIONS = (ACTION_TO_INFORMATION, ACTION_TO_BACKPROPAGATION)

_HEADER = ("sender", "recipient", "type")
_FIELDS_BY_TYPE = {
    TYPE_INFORMATION: ("time_stamp", "mean", "cov"),
    TYPE_GRADIENT: ("time_stamp", "gradient"),
    TYPE_CONTROL: ("action",),
}


@dataclass
class Message:
    """One wire message; unused fields stay None per the type's schema."""

    sender: str
    recipient: str
    type: str
    time_stamp: int | None = None
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    gradient: np.ndarray | None = None
    action: str | None = None

    def __eq__(self, other):
        if not isinstance(other, Message):
            return NotImplemented
        if (self.sender, self.recipient, self.type, self.time_stamp, self.action) != (
            other.sender,
            other.recipient,
            other.type,
            other.time_stamp,
            other.action,
        ):
            return False
        for a, b in ((self.mean, other.mean), (self.cov, other.cov), (self.gradient, other.gradient)):
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True


def information_message(sender, recipient, step, mean, cov) -> Message:
    return Message(
        sender=sender,
        recipient=recipient,
        type=TYPE_INFORMATION,
        time_stamp=int(step),
        mean=np.asarray(mean, dtype=float),
        cov=np.asarray(cov, dtype=float),
    )


def gradient_message(sender, recipient, step, gradient) -> Message:
    return Message(
        sender=sender,
        recipient=recipient,
        type=TYPE_GRADIENT,
        time_stamp=int(step),
        gradient=np.asarray(gradient, dtype=float),
    )


def control_message(sender, recipient, action) -> Message:
    return Message(sender=sender, recipient=recipient, type=TYPE_CONTROL, action=action)


# Message's field order is the key order on the wire.
_WIRE_ORDER = tuple(f.name for f in fields(Message))


def encode(msg: Message) -> bytes:
    """One JSON object per message, newline terminated. Matrices are
    row-major nested arrays; floats round-trip bit exactly. Every field the
    message sets goes into the document, which must pass ``decode``'s
    schema check before it is written."""
    doc = {}
    for key in _WIRE_ORDER:
        value = getattr(msg, key)
        if value is not None:
            doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
    _from_dict(doc)
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def decode(data) -> Message:
    """Parse one message line. For invalid JSON, ``MalformedMessage.offset``
    is the position of the syntax error within the line."""
    if isinstance(data, (bytes, bytearray)):
        text = bytes(data).decode("utf-8", errors="replace")
    else:
        text = str(data)
    text = text.strip("\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedMessage(f"invalid JSON: {exc.msg}", offset=exc.pos) from exc
    return _from_dict(doc)


def _finite_array(value, name, ndim) -> np.ndarray:
    """``value`` as a non-empty float array of ``ndim`` dimensions with
    finite entries."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise MalformedMessage(f"{name} must be an array of numbers") from None
    if arr.dtype.kind not in "iuf":
        raise MalformedMessage(f"{name} must be an array of numbers")
    arr = arr.astype(float, copy=False)
    if arr.ndim != ndim or not arr.size or not np.all(np.isfinite(arr)):
        raise MalformedMessage(f"{name} must be a non-empty {ndim}-D array of finite numbers")
    return arr


def _from_dict(doc) -> Message:
    """The message a wire document holds; raises ``MalformedMessage`` on
    the first schema rule it breaks."""
    if not isinstance(doc, dict):
        raise MalformedMessage("message must be a JSON object")
    mtype = doc.get("type")
    if not isinstance(mtype, str) or mtype not in _FIELDS_BY_TYPE:
        raise MalformedMessage(f"unknown message type {mtype!r}")
    expected, got = set(_HEADER + _FIELDS_BY_TYPE[mtype]), set(doc)
    if got != expected:
        raise MalformedMessage(
            f"{mtype} message fields mismatch: missing {sorted(expected - got)}, "
            f"unexpected {sorted(got - expected)}"
        )
    for key in ("sender", "recipient"):
        if not isinstance(doc[key], str) or not doc[key]:
            raise MalformedMessage(f"{key} must be a non-empty string")

    msg = Message(sender=doc["sender"], recipient=doc["recipient"], type=mtype)
    if mtype == TYPE_CONTROL:
        if doc["action"] not in _ACTIONS:
            raise MalformedMessage(f"unknown control action {doc['action']!r}")
        msg.action = doc["action"]
        return msg

    ts = doc["time_stamp"]
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise MalformedMessage("time_stamp must be an integer step index")
    msg.time_stamp = ts

    if mtype == TYPE_GRADIENT:
        msg.gradient = _finite_array(doc["gradient"], "gradient", 1)
        return msg

    msg.mean = _finite_array(doc["mean"], "mean", 1)
    msg.cov = _finite_array(doc["cov"], "cov", 2)
    n = len(msg.mean)
    if msg.cov.shape != (n, n):
        raise MalformedMessage(f"cov must be a {n}x{n} nested array")
    return msg
