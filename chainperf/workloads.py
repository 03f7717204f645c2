"""The benchmark's workloads: fixed scenario make-up, seeded article streams.

The ``--seed`` argument becomes the facility's scenario seed (the article
stream). The machine models always come from ``prepare_models`` with seed
123, so every workload fuses with the same trained sorter network and the
same fitted drum.
"""

from __future__ import annotations

from dataclasses import dataclass

MODEL_SEED = 123
DT = 30.0
COVERAGE_AFTER_S = 300.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    duration_s: float
    transport: str
    optimize: bool
    activation_delay: float = 300.0
    phase_period_s: float = 600.0
    write_states: bool = False
    # Per-layer metrics that must read exactly 0 on this workload: the
    # layer does not run here, so a change to it is predicted not to move it.
    zero_layers: tuple = ()

    @property
    def windows(self) -> int:
        return int(self.duration_s // DT)


_NO_TCP = (
    "protocol.encode_n",
    "protocol.encode_s",
    "protocol.decode_s",
    "protocol.bytes",
    "transport.call_n",
    "transport.call_s",
    "transport.wait_s",
    "transport.spawn_s",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="static-opt",
            why=(
                "static scenario, memory transport, optimization from 60 s: every layer "
                "runs, including gradient relay and the re-fusions setpoint changes cause"
            ),
            scenario="static",
            duration_s=300.0,
            transport="memory",
            optimize=True,
            activation_delay=60.0,
            zero_layers=_NO_TCP,
        ),
        Workload(
            name="dynamic-infer",
            why=(
                "dynamic scenario with a phase switch every 120 s, inference only, states.csv "
                "written: no gradient path, and priors shift at every phase switch"
            ),
            scenario="dynamic",
            duration_s=480.0,
            transport="memory",
            optimize=False,
            phase_period_s=120.0,
            write_states=True,
            zero_layers=_NO_TCP
            + ("fusion.implicit_jacobian_n", "fusion.implicit_jacobian_s", "node.grad_sent"),
        ),
        Workload(
            name="tcp-opt",
            why=(
                "static scenario over the TCP hub with three node processes, optimization "
                "from 120 s: the only workload that runs the NDJSON codec and the hub"
            ),
            scenario="static",
            duration_s=300.0,
            transport="tcp",
            optimize=True,
            activation_delay=120.0,
        ),
    )
}
