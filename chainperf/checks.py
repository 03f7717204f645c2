"""Correctness checks on a run's outputs.

Each check takes plain data (``run.csv`` rows as read by ``csv.DictReader``,
numbers, ``states.csv`` rows) and returns a list of failure messages, empty
when the output is correct. The reference values come from outside the
twin: the facility's own mass accounting and counted truth, the oracle on
the true routing curves, and the message bounds of the acceptance suite.
"""

from __future__ import annotations

MAX_INFO_PER_PAIR_STEP = 10
MAX_INFO_PER_STEP = 30
MAX_GRAD_ROUNDS = 1000
COVERAGE_FLOOR = 0.85
COVERAGE_MIN_PAIRS = 100


def run_rows(rows, windows: int) -> list:
    """run.csv has one row per simulated window, in order."""
    got = [int(r["window"]) for r in rows]
    if got != list(range(windows)):
        return [f"run.csv windows {got} != 0..{windows - 1}"]
    return []


def mass_balance(instantiated: float, exited: float, in_flight: float, rtol=1e-9) -> list:
    """Instantiated mass equals exited mass plus in-flight mass."""
    if not instantiated > 0.0:
        return [f"no mass instantiated ({instantiated})"]
    gap = instantiated - (exited + in_flight)
    if abs(gap) > rtol * instantiated:
        return [
            f"mass balance off by {gap:.3e} kg: instantiated {instantiated:.9g}, "
            f"exited {exited:.9g}, in flight {in_flight:.9g}"
        ]
    return []


def message_bounds(rows) -> list:
    """At most 10 information messages per neighbor-step, 30 per step, and
    every gradient avalanche settles in fewer than 1000 rounds."""
    out = []
    pair = max((int(r["max_info_per_pair_step"]) for r in rows), default=0)
    step = max((int(r["max_info_per_step"]) for r in rows), default=0)
    grad_rounds = max((int(r["grad_rounds"]) for r in rows), default=0)
    if pair > MAX_INFO_PER_PAIR_STEP:
        out.append(f"{pair} information messages per neighbor-step (> {MAX_INFO_PER_PAIR_STEP})")
    if step > MAX_INFO_PER_STEP:
        out.append(f"{step} information messages per step (> {MAX_INFO_PER_STEP})")
    if grad_rounds >= MAX_GRAD_ROUNDS:
        out.append(f"gradient exchange took {grad_rounds} rounds (>= {MAX_GRAD_ROUNDS})")
    return out


def optimization(rows, initial: dict, final: dict, optimum: dict, bounds: dict, true_loss) -> list:
    """The setpoints stay in bounds in every window, each moves toward the
    oracle optimum, and the true expected loss falls.

    ``initial``, ``final`` and ``optimum`` map setpoint name to value,
    ``bounds`` maps it to (low, high), and ``true_loss(setpoints)`` is the
    expected loss on the facility's true routing curves.
    """
    out = []
    for name, (lo, hi) in bounds.items():
        values = [float(r[name]) for r in rows] + [final[name]]
        bad = [v for v in values if not lo <= v <= hi]
        if bad:
            out.append(f"{name} left [{lo}, {hi}]: {bad[:3]}")
        if not abs(final[name] - optimum[name]) < abs(initial[name] - optimum[name]):
            out.append(
                f"{name} did not move toward the optimum {optimum[name]:.4g}: "
                f"{initial[name]:.6g} -> {final[name]:.6g}"
            )
    before, after = true_loss(initial), true_loss(final)
    if not after < before:
        out.append(f"true expected loss did not fall: {before:.6g} -> {after:.6g}")
    return out


def coverage(states_rows, after_s: float) -> tuple:
    """2-sigma coverage of inferred flows against the facility's counted
    truth, over the (step, coordinate) pairs from ``after_s`` on."""
    total = hit = 0
    for row in states_rows:
        if row["truth"] == "" or float(row["time_s"]) < after_s:
            continue
        total += 1
        hit += abs(float(row["truth"]) - float(row["mean"])) <= 2.0 * float(row["std"])
    value = hit / total if total else 0.0
    out = []
    if total < COVERAGE_MIN_PAIRS:
        out.append(f"only {total} truth pairs after {after_s:g} s (< {COVERAGE_MIN_PAIRS})")
    if value < COVERAGE_FLOOR:
        out.append(f"2-sigma coverage {value:.3f} over {total} pairs (< {COVERAGE_FLOOR})")
    return out, value


def routed_totals(rows, routed: int) -> list:
    """run.csv's information plus gradient messages equal those the
    benchmark saw routed before the closing exchange."""
    logged = sum(int(r["info_msgs"]) + int(r["grad_msgs"]) for r in rows)
    if logged != routed:
        return [f"run.csv counts {logged} messages, {routed} were routed"]
    return []


def traced_matches(untraced: dict, traced: dict) -> list:
    """A traced episode repeats the untraced one exactly: same run.csv
    bytes, same fusion and message counts."""
    out = []
    for key in sorted(set(untraced) | set(traced)):
        if untraced.get(key) != traced.get(key):
            out.append(f"traced {key} differs from untraced")
    return out


def node_messages(sent: int, from_nodes: int) -> list:
    """Messages counted in the nodes' pumps equal the node messages routed."""
    if sent != from_nodes:
        return [f"nodes sent {sent} messages, {from_nodes} were routed from nodes"]
    return []
