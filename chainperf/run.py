"""Chain benchmark: seconds per simulated window of the three-node twin.

Usage (from the repository root):

    python3 chainperf/run.py --workload static-opt --seed 1 --seconds 30 --trace 0

One run prepares the machine models (seed 123), then drives
``difftwin.runner.run`` through whole episodes of its workload, all on the
same inputs, for as many episodes as fit in ``--seconds`` (at least one).
It checks every episode's outputs and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with ``window_s`` and
``setup_s`` at the reference speed of ``pace.py``. ``--trace 1`` first runs one
untraced episode, then traced ones, and reports the per-layer metrics
(counts and busy seconds per window) plus the tracing overhead. Run files
go to ``chainperf-out/`` and span dumps to ``chainperf-trace/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, "chainperf-out")
TRACE_ROOT = os.path.join(ROOT, "chainperf-trace")
NODE_HOOK = os.path.join(HERE, "nodehook")

# One BLAS thread per process: the node processes of the TCP workload would
# otherwise compete for the same cores, and the 38-68 dimensional problems
# gain nothing from more threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, HERE)
import checks  # noqa: E402
import spans  # noqa: E402
from pace import Pace  # noqa: E402
from workloads import COVERAGE_AFTER_S, MODEL_SEED, WORKLOADS, Workload  # noqa: E402

INITIAL = {"speed": 12.0, "height": 14.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_twin():
    """Put the checkout's ``src`` first for this process and the node
    processes it spawns, then import the twin."""
    if not os.path.isfile(os.path.join(SRC, "difftwin", "runner.py")):
        raise SystemExit(f"chainperf: no difftwin sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import difftwin.runner  # noqa: F401


def child_pids() -> list[int]:
    """Processes whose parent is this one, from ``/proc``."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the parent pid is the second field after the command name's ")"
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


class Hooks:
    """What every episode observes, traced or not: fusions attempted and
    failed, the start of the first window, and each message routed.

    The first window starts when ``run`` constructs the facility, after the
    nodes (and on TCP their processes) exist. With a ``pace``, the reference
    load is sampled there, after ``run`` returns, and in between before a
    fusion or after a decoded node message, at most every
    ``pace.PERIOD_S``. The TCP hub waits for each node's reply before it
    decodes, so no node process runs beside the load.
    """

    def __init__(self, tracer=None, pace=None, pin_cpu=None):
        self.tracer = tracer
        self.pace = pace
        self.pin_cpu = pin_cpu
        self.fusions = 0
        self.failed = 0
        self.t_first_window = None
        self.setup_totals = None
        self.facility = None
        self.routed = []
        self.from_nodes = 0
        self.clock_marks = []

    def install(self, patcher):
        from difftwin.errors import DifftwinError
        from difftwin.facility.sim import Facility
        from difftwin.lossnode import LossNode
        from difftwin.node import Node

        def count_fusions(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.tick()
                self.fusions += 1
                try:
                    return fn(*args, **kwargs)
                except DifftwinError:
                    self.failed += 1
                    raise

            return wrapper

        patcher.function("difftwin.fusion", "fuse", count_fusions)
        patcher.attribute(Facility, "__init__", spans.observed(lambda _, a: self.first_window(a[0])))
        # Memory bus: node pumps return what the bus routes. TCP hub: the hub
        # decodes what the node processes emit.
        patcher.attribute(Node, "pump", spans.observed(lambda out, _: self.note_from_node(out)))
        patcher.function(
            "difftwin.protocol",
            "decode",
            spans.observed(lambda msg, _: self.note_from_node([msg])),
            outside_only=True,
        )
        patcher.attribute(LossNode, "on_clock", spans.observed(lambda out, _: self.note_clock(out)))

    def first_window(self, facility):
        self.facility = facility
        if self.pin_cpu is not None:
            for pid in [0] + child_pids():
                os.sched_setaffinity(pid, {self.pin_cpu})
        if self.pace is not None:
            self.pace.sample()
        self.t_first_window = time.perf_counter()
        if self.tracer is not None and self.tracer.top() == "runner.setup":
            self.tracer.pop()
            self.setup_totals = self.tracer.snapshot()
            self.tracer.push("runner.run")

    def note_clock(self, msgs):
        self.clock_marks.append(len(self.routed))
        self.routed.extend(msgs)

    def note_from_node(self, msgs):
        self.routed.extend(msgs)
        self.from_nodes += len(msgs)
        self.tick()

    def tick(self):
        if self.pace is not None:
            self.pace.sample_if_due()

    def logged_messages(self) -> int:
        """Information and gradient messages routed before the closing
        exchange, which run.csv does not log."""
        end = self.clock_marks[-1] if self.clock_marks else len(self.routed)
        return sum(m.type in ("information", "gradient") for m in self.routed[:end])


@dataclass
class Episode:
    traced: bool
    t_first_window: float
    window_wall_s: float
    window_s: float
    fusions: int
    failed: int
    rows: list
    run_csv: bytes
    final: dict
    wire_bytes: int
    failures: list = field(default_factory=list)
    totals: dict | None = None
    spawn_s: float = 0.0
    node_sent: int = 0
    from_nodes: int = 0
    spans: dict | None = None


def run_episode(wl: Workload, seed: int, docs, out_dir: str, tracer=None, pace=None) -> Episode:
    from difftwin.facility import ScenarioSpec
    from difftwin.protocol import encode
    from difftwin.runner import RunConfig, run

    shutil.rmtree(out_dir, ignore_errors=True)
    node_trace = os.path.join(out_dir, "node-trace")
    env_before = dict(os.environ)
    if tracer is not None and wl.transport == "tcp":
        os.makedirs(node_trace)
        os.environ[spans.NODE_TRACE_ENV] = node_trace
        os.environ["PYTHONPATH"] = os.pathsep.join([NODE_HOOK, os.environ["PYTHONPATH"]])

    patcher = spans.Patcher()
    if tracer is not None:
        spans.install(tracer, patcher)
    # The hub waits for each node's reply in turn, so hub and node processes
    # never run at once. From the first window on they share one CPU, so
    # the reference samples the hub takes measure the CPU the nodes run on.
    cpus = os.sched_getaffinity(0)
    hooks = Hooks(tracer, pace, min(cpus) if wl.transport == "tcp" else None)
    hooks.install(patcher)
    cfg = RunConfig(
        scenario=ScenarioSpec(
            wl.scenario, duration_s=wl.duration_s, seed=seed, phase_period_s=wl.phase_period_s
        ),
        out_dir=out_dir,
        transport=wl.transport,
        optimize=wl.optimize,
        activation_delay=wl.activation_delay,
        initial_speed=INITIAL["speed"],
        initial_height=INITIAL["height"],
        model_seed=MODEL_SEED,
        mlp_doc=docs[0],
        siever_fit_doc=docs[1],
        write_states=wl.write_states,
    )
    before = None
    if tracer is not None:
        before = tracer.snapshot()
        tracer.push("runner.setup")
    try:
        result = run(cfg)
    finally:
        t_end = time.perf_counter()
        if tracer is not None:
            tracer.pop()
        patcher.undo()
        os.sched_setaffinity(0, cpus)
        os.environ.clear()
        os.environ.update(env_before)
    if pace is not None:
        pace.sample()

    with open(result.run_path, "rb") as fh:
        run_csv = fh.read()
    rows = list(csv.DictReader(run_csv.decode().splitlines()))
    if hooks.t_first_window is None or (tracer is not None and hooks.setup_totals is None):
        raise RuntimeError("run() built no Facility at its top level: no first window to time")
    t0 = hooks.t_first_window
    wall_s = t_end - t0
    if pace is not None:
        wall_s -= pace.paced_s(t0, t_end)
    ep = Episode(
        traced=tracer is not None,
        t_first_window=t0,
        window_wall_s=wall_s / wl.windows,
        window_s=(pace.scaled_s(t0, t_end) if pace is not None else wall_s) / wl.windows,
        fusions=hooks.fusions,
        failed=hooks.failed,
        rows=rows,
        run_csv=run_csv,
        final=dict(result.final_setpoints),
        wire_bytes=sum(len(encode(m)) for m in hooks.routed),
        from_nodes=hooks.from_nodes,
    )
    ep.failures += checks.run_rows(rows, wl.windows)
    ep.failures += checks.mass_balance(*hooks.facility.mass_balance())
    ep.failures += checks.message_bounds(rows)
    ep.failures += checks.routed_totals(rows, hooks.logged_messages())
    if wl.write_states:
        with open(result.states_path) as fh:
            failures, _ = checks.coverage(csv.DictReader(fh), COVERAGE_AFTER_S)
        ep.failures += failures

    if tracer is not None:
        end = tracer.snapshot()
        ep.spawn_s = spans.diff(hooks.setup_totals, before)["ns"].get("transport.spawn", 0) / 1e9
        ep.totals = spans.diff(end, hooks.setup_totals)
        ep.spans = {"hub": tracer.spans_doc(), "nodes": []}
        if wl.transport == "tcp":
            dumps = sorted(os.listdir(node_trace))
            if len(dumps) != 3:
                ep.failures.append(f"{len(dumps)} node trace dumps, expected 3")
            for name in dumps:
                with open(os.path.join(node_trace, name)) as fh:
                    doc = json.load(fh)
                ep.totals = spans.merge(ep.totals, doc["totals"])
                ep.spans["nodes"].append({"argv": doc["argv"], **doc["spans"]})
        counts = ep.totals["counts"]
        ep.node_sent = counts.get("node.info_sent", 0) + counts.get("node.grad_sent", 0)
        ep.failures += checks.node_messages(ep.node_sent, ep.from_nodes)
    return ep


def true_loss_fn(phases):
    """Expected loss on the facility's true routing curves, averaged over
    the scenario phases of the run."""
    from difftwin.facility import FacilityParams, phase_flows
    from difftwin.oracle import expected_loss

    params = FacilityParams()
    flows = [phase_flows(p) for p in phases]

    def true_loss(setpoints):
        return statistics.fmean(
            expected_loss(params, f, setpoints["speed"], setpoints["height"]) for f in flows
        )

    return true_loss


def optimization_check(true_loss):
    """The optimization check against the oracle optimum of the static
    scenario, which all optimizing workloads run."""
    from difftwin.facility import FacilityParams
    from difftwin.oracle import oracle_optimum

    params = FacilityParams()
    best = oracle_optimum(params, "static")
    optimum = {"speed": best.speed, "height": best.height}
    bounds = {"speed": params.speed_range, "height": params.height_range}

    def check(rows, final):
        return checks.optimization(rows, INITIAL, final, optimum, bounds, true_loss)

    return check


def episode_counts(ep: Episode) -> dict:
    return {
        "run_csv_sha256": hashlib.sha256(ep.run_csv).hexdigest(),
        "fusions": ep.fusions,
        "failed": ep.failed,
        "from_nodes": ep.from_nodes,
        "wire_bytes": ep.wire_bytes,
    }


def peak_rss_mb(transport: str) -> float:
    who = resource.RUSAGE_CHILDREN if transport == "tcp" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(totals: dict, windows: int) -> dict:
    """Per-window counts and busy seconds from merged span totals."""
    n = totals["n"]
    ns = totals["ns"]
    counts = totals["counts"]
    self_ns = totals["self_ns"]

    def secs(name):
        return ns.get(name, 0) / 1e9

    def layer_self(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9

    raw = {
        "fusion.fuse_n": n.get("fusion.fuse", 0),
        "fusion.fuse_s": secs("fusion.fuse"),
        "fusion.fuse_s.siever": counts.get("fusion.fuse_ns.siever", 0) / 1e9,
        "fusion.fuse_s.conveyor": counts.get("fusion.fuse_ns.conveyor", 0) / 1e9,
        "fusion.fuse_s.magsorter": counts.get("fusion.fuse_ns.magsorter", 0) / 1e9,
        "fusion.fuse_failed": counts.get("fusion.fuse_failed", 0),
        "fusion.solve_map_n": n.get("fusion.solve_map", 0),
        "fusion.solve_map_s": secs("fusion.solve_map"),
        "fusion.assemble_n": counts.get("fusion.assemble_n", 0),
        "fusion.ci_weights_n": n.get("fusion.ci_weights", 0),
        "fusion.ci_weights_s": secs("fusion.ci_weights"),
        "fusion.logdet_n": counts.get("fusion.logdet_n", 0),
        "fusion.posterior_cov_s": secs("fusion.posterior_cov"),
        "fusion.cholesky_n": counts.get("fusion.cholesky_n", 0),
        "fusion.implicit_jacobian_n": n.get("fusion.implicit_jacobian", 0),
        "fusion.implicit_jacobian_s": secs("fusion.implicit_jacobian"),
        "fusion.self_s": layer_self("fusion"),
        "gaussian.estimate_n": n.get("gaussian.estimate", 0),
        "gaussian.estimate_s": secs("gaussian.estimate"),
        "gaussian.kl_n": n.get("gaussian.kl", 0),
        "gaussian.kl_s": secs("gaussian.kl"),
        "gaussian.project_s": secs("gaussian.project"),
        "gaussian.whiten_n": n.get("gaussian.whiten", 0),
        "gaussian.whiten_s": secs("gaussian.whiten"),
        "node.pump_n": n.get("node.pump", 0),
        "node.pump_s": secs("node.pump"),
        "node.self_s": layer_self("node"),
        "node.info_sent": counts.get("node.info_sent", 0),
        "node.info_suppressed": counts.get("node.info_suppressed", 0),
        "node.grad_sent": counts.get("node.grad_sent", 0),
        "models.eval_n": n.get("models.eval", 0),
        "models.eval_s": secs("models.eval"),
        "protocol.encode_n": n.get("protocol.encode", 0),
        "protocol.encode_s": secs("protocol.encode"),
        "protocol.decode_s": secs("protocol.decode"),
        "protocol.bytes": counts.get("protocol.bytes", 0),
        "transport.quiesce_n": n.get("transport.quiesce", 0),
        "transport.quiesce_s": secs("transport.quiesce"),
        "transport.rounds": counts.get("transport.rounds", 0),
        "transport.call_n": n.get("transport.call", 0),
        "transport.call_s": secs("transport.call"),
        "transport.wait_s": secs("transport.wait"),
        "facility.advance_s": secs("facility.advance"),
        "facility.articles": counts.get("facility.articles", 0),
        "runner.self_s": self_ns.get("runner.run", 0) / 1e9,
    }
    out = {}
    for name, value in raw.items():
        if name.endswith("_s") or ".fuse_s." in name:
            unit = "s/window"
        elif name == "protocol.bytes":
            unit = "bytes/window"
        else:
            unit = "count/window"
        out[name] = {"value": value / windows, "unit": unit}
    return out


def run_episodes(wl, seed, docs, out_dir, budget_s, traced, prefix, pace):
    """Whole episodes until the next one would overrun ``budget_s``."""
    episodes = []
    t0 = time.perf_counter()
    while True:
        tracer = spans.Tracer() if traced else None
        path = os.path.join(out_dir, f"{prefix}{len(episodes)}")
        episodes.append(run_episode(wl, seed, docs, path, tracer, pace))
        spent = time.perf_counter() - t0
        if spent + spent / len(episodes) > budget_s:
            return episodes


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    # One reference sample each at the start, after model preparation and
    # at the first window scale the set-up like the windows.
    pace = Pace()
    pace.sample()
    import_twin()
    from difftwin.facility import FacilityParams
    from difftwin.runner import prepare_models

    out_dir = os.path.join(OUT_ROOT, wl.name, f"seed{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    prepare_tracer = None
    if args.trace:
        prepare_tracer, patcher = spans.Tracer(), spans.Patcher()
        spans.install(prepare_tracer, patcher)
        prepare_tracer.push("models.prepare")
    try:
        docs = prepare_models(FacilityParams(), MODEL_SEED)
    finally:
        if prepare_tracer is not None:
            prepare_tracer.pop()
            patcher.undo()
    pace.sample()

    t_measure = time.perf_counter()
    if args.trace:
        plain = run_episodes(wl, args.seed, docs, out_dir, 0.0, False, "plain", pace)
        left = args.seconds - (time.perf_counter() - t_measure)
        # Reference samples would show up in the traced spans, so traced
        # episodes report wall time alone.
        traced = run_episodes(wl, args.seed, docs, out_dir, left, True, "traced", None)
    else:
        plain = run_episodes(wl, args.seed, docs, out_dir, args.seconds, False, "plain", pace)
        traced = []
    episodes = plain + traced
    first = plain[0]

    failures = []
    phases = sorted({r["phase"] for r in first.rows})
    true_loss = true_loss_fn(phases)
    optimized = optimization_check(true_loss) if wl.optimize else None
    for i, ep in enumerate(episodes):
        tag = f"{'traced' if ep.traced else 'plain'} episode {i}"
        if optimized is not None:
            ep.failures += optimized(ep.rows, ep.final)
        if ep.traced:
            ep.failures += checks.traced_matches(episode_counts(first), episode_counts(ep))
        elif ep.run_csv != first.run_csv:
            ep.failures.append("run.csv differs between episodes on the same inputs")
        failures += [f"{tag}: {f}" for f in ep.failures]

    if wl.transport == "tcp":
        attempted = wl.windows * len(episodes)
        failed = 0
    else:
        attempted = sum(ep.fusions for ep in episodes)
        failed = sum(ep.failed for ep in episodes)

    windows = wl.windows
    plain_window_s = statistics.median(ep.window_s for ep in plain)
    if args.trace:
        totals = {"n": {}, "ns": {}, "self_ns": {}, "counts": {}}
        for ep in traced:
            totals = spans.merge(totals, ep.totals)
        metrics = layer_metrics(totals, windows * len(traced))
        prep = prepare_tracer.snapshot()["ns"]
        for name in ("models.prepare", "models.mlp_train"):
            metrics[name + "_s"] = {"value": prep.get(name, 0) / 1e9, "unit": "s"}
        metrics["transport.spawn_s"] = {
            "value": statistics.fmean(ep.spawn_s for ep in traced),
            "unit": "s",
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(ep.window_wall_s for ep in traced)
            - statistics.median(ep.window_wall_s for ep in plain),
            "unit": "s/window",
        }
        os.makedirs(TRACE_ROOT, exist_ok=True)
        with open(os.path.join(TRACE_ROOT, f"{wl.name}.json"), "w") as fh:
            doc = {"workload": wl.name, "seed": args.seed, "episodes": [ep.spans for ep in traced]}
            json.dump(doc, fh)
    else:
        rows = first.rows
        setup_s = pace.scaled_s(T_START, first.t_first_window)
        msgs = sum(int(r["info_msgs"]) + int(r["grad_msgs"]) for r in rows)
        rounds = sum(int(r["info_rounds"]) + int(r["grad_rounds"]) for r in rows)
        metrics = {
            "window_s": {"value": plain_window_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "msgs_per_window": {"value": msgs / windows, "unit": "count"},
            "rounds_per_window": {"value": rounds / windows, "unit": "count"},
            "wire_bytes_per_window": {"value": first.wire_bytes / windows, "unit": "bytes"},
            "profit_kg_s": {"value": -true_loss(first.final), "unit": "kg/s"},
            "peak_rss_mb": {"value": peak_rss_mb(wl.transport), "unit": "MB"},
        }

    setup_wall_s = first.t_first_window - T_START - pace.paced_s(T_START, first.t_first_window)
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_wall_s": setup_wall_s,
        "episodes": [
            {**episode_counts(ep), "traced": ep.traced, "window_s": ep.window_s,
             "window_wall_s": ep.window_wall_s,
             "final": ep.final, "node_sent": ep.node_sent}
            for ep in episodes
        ],
        "failures": failures,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for f in failures:
        print(f"chainperf: check failed: {f}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
