"""Message transports: one lockstep router, and a hub for node processes.

``InMemoryBus`` is the only exchange loop. It pumps its nodes in
registration order, round after round, until no messages remain. A
message to a node later in the order is handled in the same round, one to
an earlier node in the next round (a Gauss-Seidel sweep). The bus drives
local node objects or the ``RemoteNode`` proxies that ``TcpHub`` hands out
for node subprocesses speaking newline-delimited JSON frames, so both
transports run the same rounds and write identical run logs.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from collections import Counter

from .errors import ConfigError, MalformedMessage, NodeError
from .protocol import TYPE_INFORMATION, Message, decode, encode

MAX_ROUNDS = 1000
_ACCEPT_POLL_S = 0.2  # how often the hub checks node processes while it waits


class MessageStats:
    """Messages routed since the bus last handed its counts out: by type,
    and information messages per (sender, recipient, step) and per step."""

    def __init__(self):
        self.by_type = Counter()
        self.info_per_pair_step = Counter()
        self.info_per_step = Counter()

    def note(self, msg: Message):
        self.by_type[msg.type] += 1
        if msg.type == TYPE_INFORMATION:
            self.info_per_pair_step[(msg.sender, msg.recipient, msg.time_stamp)] += 1
            self.info_per_step[msg.time_stamp] += 1


class InMemoryBus:
    """Deterministic lockstep router over node objects or node proxies."""

    def __init__(self):
        self.nodes = {}
        self.order = []
        self.queues = {}
        self.stats = MessageStats()

    def register(self, name: str, node):
        if name in self.nodes:
            raise ConfigError(f"duplicate node name {name!r}")
        self.nodes[name] = node
        self.order.append(name)
        self.queues[name] = []

    def post(self, msg: Message):
        if msg.recipient not in self.queues:
            raise ConfigError(f"message to unknown recipient {msg.recipient!r}")
        self.stats.note(msg)
        self.queues[msg.recipient].append(msg)

    def post_all(self, msgs):
        for m in msgs:
            self.post(m)

    def take_stats(self) -> MessageStats:
        """Counts of the messages posted since the last call."""
        stats, self.stats = self.stats, MessageStats()
        return stats

    def run_until_quiescent(self, kick=True, max_rounds: int = MAX_ROUNDS) -> int:
        """Pump nodes in registration order until no messages remain.

        With kick=True every node is pumped once even with an empty inbox,
        letting locally dirtied state (sensor ingest, updates) generate the
        first messages. Returns the number of rounds run; raises NodeError,
        naming the first node still due, when max_rounds do not settle it.
        """
        rounds = 0
        pending = set(self.order) if kick else set()
        while pending or any(self.queues.values()):
            if rounds == max_rounds:
                due = next(n for n in self.order if self.queues[n] or n in pending)
                raise NodeError(due, f"message exchange did not settle in {max_rounds} rounds")
            rounds += 1
            for name in self.order:
                inbox = self.queues[name]
                if not inbox and name not in pending:
                    continue
                self.queues[name] = []
                self.post_all(self.nodes[name].pump(inbox))
            pending = set()
        return rounds


# -- TCP transport -----------------------------------------------------------


def _send_frame(sock_file, doc: dict):
    sock_file.write(json.dumps(doc, separators=(",", ":")) + "\n")
    sock_file.flush()


def _recv_frame(sock_file) -> dict:
    line = sock_file.readline()
    if not line:
        raise ConnectionError("peer closed the connection")
    return json.loads(line)


class RemoteNode:
    """A node process seen through the hub, with the driver methods of
    ``Node``. Each call waits for the process's reply."""

    def __init__(self, hub: TcpHub, name: str):
        self.hub = hub
        self.name = name

    def pump(self, inbox) -> list:
        msgs = [encode(m).decode("utf-8").rstrip("\n") for m in inbox]
        reply = self.hub._request(self.name, {"kind": "round", "msgs": msgs}, "out")
        return [decode(line) for line in reply["msgs"]]

    def ensure_horizon(self, now: float):
        self.hub.call(self.name, "ensure_horizon", now=now)

    def observe_sensor(self, step: int, sensor_id: str, values):
        self.hub.call(self.name, "observe_sensor", step=step, sensor_id=sensor_id, values=values)

    def setpoints(self) -> dict:
        return self.hub.call(self.name, "setpoints")

    def state_rows(self, step: int) -> list:
        return [tuple(row) for row in self.hub.call(self.name, "state_rows", step=step)]

    def max_param_grad(self) -> float:
        return self.hub.call(self.name, "max_param_grad")


class TcpHub:
    """Star-topology hub: one subprocess per node, one request at a time.

    Frames are single JSON lines. Wire messages between nodes use the
    exact information/gradient/control schema; hub frames {"kind": ...}
    carry initialization, round batches, calls, and shutdown. ``nodes``
    holds one ``RemoteNode`` per process, for an ``InMemoryBus`` to route.
    """

    def __init__(self, node_configs: dict, host: str = "127.0.0.1"):
        self._procs = {}
        self._files = {}
        server = socket.create_server((host, 0))
        server.settimeout(_ACCEPT_POLL_S)
        port = server.getsockname()[1]
        try:
            for name in sorted(node_configs):
                self._procs[name] = subprocess.Popen(
                    [sys.executable, "-m", "difftwin.nodeproc", "--host", host, "--port", str(port), "--name", name],
                    stdout=subprocess.DEVNULL,
                )
            pending = set(node_configs)
            while pending:
                try:
                    conn, _ = server.accept()
                except TimeoutError:
                    for name in sorted(pending):
                        code = self._procs[name].poll()
                        if code is not None:
                            raise NodeError(name, f"process exited with code {code} before connecting")
                    continue
                fh = conn.makefile("rw", encoding="utf-8", newline="\n")
                hello = _recv_frame(fh)
                name = hello["name"]
                if name not in pending:
                    raise ConfigError(f"unexpected hello from {name!r}")
                pending.discard(name)
                self._files[name] = fh
                _send_frame(fh, {"kind": "init", "config": node_configs[name]})
        except BaseException:
            self.close()
            raise
        finally:
            server.close()
        self.nodes = {name: RemoteNode(self, name) for name in sorted(node_configs)}

    def _request(self, name: str, frame: dict, reply_kind: str) -> dict:
        fh = self._files[name]
        try:
            _send_frame(fh, frame)
            reply = _recv_frame(fh)
        except (OSError, ValueError) as exc:
            raise NodeError(name, f"connection lost: {exc}") from exc
        if reply.get("kind") == "error":
            raise NodeError(name, reply["error"])
        if reply.get("kind") != reply_kind:
            raise MalformedMessage(f"unexpected reply from {name}: {reply!r}")
        return reply

    def call(self, name: str, method: str, **kwargs):
        """Call one of the node's driver methods in its process."""
        frame = {"kind": "call", "method": method, "args": kwargs}
        return self._request(name, frame, "ret").get("value")

    def close(self):
        for fh in self._files.values():
            try:
                _send_frame(fh, {"kind": "shutdown"})
            except (OSError, ValueError):
                pass
        for name, proc in self._procs.items():
            if name not in self._files:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        for fh in self._files.values():
            try:
                fh.close()
            except OSError:
                pass
