"""Transport tests: the lockstep router's delivery rule, its round limit and
message counts, and the TCP hub's typed errors."""

import json
import socket
import threading

import pytest

from difftwin.cli import main
from difftwin.configs import demo_configs
from difftwin.errors import DifftwinError, NodeError
from difftwin.nodeproc import serve
from difftwin.protocol import (
    ACTION_TO_INFORMATION,
    control_message,
    gradient_message,
    information_message,
)
from difftwin.transport import InMemoryBus, TcpHub


class Relay:
    """Fake node: answers each message with one to ``peer`` (if any) and
    records every inbox it is pumped with."""

    def __init__(self, name, peer=None):
        self.name = name
        self.peer = peer
        self.inboxes = []

    def pump(self, inbox):
        self.inboxes.append(list(inbox))
        if self.peer is None:
            return []
        return [control_message(self.name, self.peer, ACTION_TO_INFORMATION) for _ in inbox]


def make_bus(*specs):
    bus, nodes = InMemoryBus(), {}
    for name, peer in specs:
        nodes[name] = Relay(name, peer)
        bus.register(name, nodes[name])
    return bus, nodes


def poke(recipient):
    return control_message("driver", recipient, ACTION_TO_INFORMATION)


class TestDeliveryRule:
    def test_message_to_later_node_is_handled_in_the_same_round(self):
        bus, nodes = make_bus(("a", None), ("b", "c"), ("c", None))
        bus.post(poke("b"))
        assert bus.run_until_quiescent(kick=False) == 1
        assert [[m.sender for m in inbox] for inbox in nodes["c"].inboxes] == [["b"]]
        assert nodes["a"].inboxes == []

    def test_message_to_earlier_node_is_handled_in_the_next_round(self):
        bus, nodes = make_bus(("a", None), ("b", "a"), ("c", None))
        bus.post(poke("b"))
        assert bus.run_until_quiescent(kick=False) == 2
        assert [[m.sender for m in inbox] for inbox in nodes["a"].inboxes] == [["b"]]
        assert nodes["c"].inboxes == []


class TestKick:
    def test_kick_pumps_every_node_once_with_an_empty_inbox(self):
        bus, nodes = make_bus(("a", None), ("b", None))
        assert bus.run_until_quiescent(kick=True) == 1
        assert nodes["a"].inboxes == [[]] and nodes["b"].inboxes == [[]]

    def test_without_kick_only_nodes_with_mail_are_pumped(self):
        bus, nodes = make_bus(("a", None), ("b", None))
        assert bus.run_until_quiescent(kick=False) == 0
        bus.post(poke("b"))
        assert bus.run_until_quiescent(kick=False) == 1
        assert nodes["a"].inboxes == [] and len(nodes["b"].inboxes) == 1


class TestRoundLimit:
    def test_echoing_nodes_raise_a_node_error(self):
        bus, _ = make_bus(("a", "b"), ("b", "a"))
        bus.post(poke("a"))
        with pytest.raises(NodeError, match="did not settle in 5 rounds") as info:
            bus.run_until_quiescent(kick=False, max_rounds=5)
        assert isinstance(info.value, DifftwinError)
        assert info.value.node == "a"


class TestMessageStats:
    def test_counts_since_the_last_take(self):
        bus, _ = make_bus(("a", None), ("b", None))
        for step in (3, 3, 4):
            bus.post(information_message("a", "b", step, [0.0], [[1.0]]))
        bus.post(information_message("b", "a", 3, [0.0], [[1.0]]))
        bus.post(poke("a"))
        stats = bus.take_stats()
        assert stats.by_type == {"information": 4, "control": 1}
        assert max(stats.info_per_pair_step.values()) == 2
        assert max(stats.info_per_step.values()) == 3
        assert bus.take_stats().by_type == {}


# -- TCP hub: one node process each ----------------------------------------------


@pytest.fixture
def conveyor_config():
    return demo_configs(None, None)["conveyor"]


@pytest.fixture
def broken_node_path(tmp_path, monkeypatch):
    """Node processes started from here exit at import, before their hello."""
    pkg = tmp_path / "difftwin"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("raise SystemExit(3)\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))


class TestTcpHub:
    def test_failing_call_and_round_raise_node_errors(self, conveyor_config):
        hub = TcpHub({"conveyor": conveyor_config})
        try:
            with pytest.raises(NodeError, match="KeyError") as info:
                hub.call("conveyor", "observe_sensor", step=99, sensor_id="mag_in", values=[1.0])
            assert info.value.node == "conveyor"
            with pytest.raises(NodeError, match="unknown"):
                hub.call("conveyor", "apply_update")

            proxy = hub.nodes["conveyor"]
            proxy.ensure_horizon(0.0)
            with pytest.raises(NodeError, match="GradientOutsidePeriod") as info:
                proxy.pump([gradient_message("siever", "conveyor", 0, [1.0])])
            assert info.value.node == "conveyor"
            # The process survived the failed round and keeps serving.
            assert proxy.setpoints() == {}
        finally:
            hub.close()

    def test_node_exiting_before_its_hello_raises(self, conveyor_config, broken_node_path):
        with pytest.raises(NodeError, match="exited with code 3 before connecting") as info:
            TcpHub({"conveyor": conveyor_config})
        assert info.value.node == "conveyor"

    def test_cli_run_exits_2(self, tmp_path, broken_node_path, capsys):
        docs = tmp_path / "model.json"
        docs.write_text(json.dumps({}))
        code = main(
            ["run", "--transport", "tcp", "--duration", "30", "--out", str(tmp_path / "run"),
             "--mlp", str(docs), "--siever-fit", str(docs)]
        )
        assert code == 2
        assert "before connecting" in capsys.readouterr().err


class TestNodeProcess:
    def test_hub_closing_before_init_ends_the_node_with_code_0(self):
        with socket.create_server(("127.0.0.1", 0)) as server:

            def hub():
                conn, _ = server.accept()
                conn.close()

            thread = threading.Thread(target=hub)
            thread.start()
            try:
                assert serve("127.0.0.1", server.getsockname()[1], "conveyor") == 0
            finally:
                thread.join()
