"""Subprocess entry point for one node behind the TCP transport.

Connects to the hub, receives its configuration, and serves lockstep
rounds plus the node's driver methods (horizon, sensor ingestion,
setpoints, diagnostics) as newline-delimited JSON frames. A round or call
that raises is answered with an error frame; the process keeps serving.
"""

from __future__ import annotations

import argparse
import socket
import sys
import traceback

from .configs import build_node
from .protocol import decode, encode
from .transport import _recv_frame, _send_frame

# The node methods a hub may call; no other attribute is reachable.
CALLS = frozenset({"ensure_horizon", "observe_sensor", "setpoints", "state_rows", "max_param_grad"})


def _answer(node, frame: dict) -> dict:
    kind = frame.get("kind")
    if kind == "round":
        out = node.pump([decode(m) for m in frame["msgs"]])
        return {"kind": "out", "msgs": [encode(m).decode().rstrip("\n") for m in out]}
    if kind == "call" and frame.get("method") in CALLS:
        value = getattr(node, frame["method"])(**frame.get("args", {}))
        if frame["method"] == "ensure_horizon":
            value = len(value)  # the created step records stay in this process
        return {"kind": "ret", "value": value}
    return {"kind": "error", "error": f"unknown frame {kind!r} or method {frame.get('method')!r}"}


def serve(host: str, port: int, name: str) -> int:
    sock = socket.create_connection((host, port))
    fh = sock.makefile("rw", encoding="utf-8", newline="\n")
    try:
        _send_frame(fh, {"kind": "hello", "name": name})
        init = _recv_frame(fh)
        if init.get("kind") != "init":
            return 2
        node = build_node(init["config"])
        while True:
            frame = _recv_frame(fh)
            if frame.get("kind") == "shutdown":
                return 0
            try:
                reply = _answer(node, frame)
            except Exception as exc:  # noqa: BLE001 - reported to the hub
                traceback.print_exc()
                reply = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}
            _send_frame(fh, reply)
    except ConnectionError:  # the hub closed the connection
        return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--name", required=True)
    args = parser.parse_args()
    return serve(args.host, args.port, args.name)


if __name__ == "__main__":
    sys.exit(main())
