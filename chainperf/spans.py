"""Spans and counters at difftwin's module boundaries, from outside the package.

Nothing under ``src/`` knows about this module. ``Patcher`` rebinds a
function in every loaded difftwin module that holds it (or a method on its
class) and puts the originals back on ``undo``. ``Tracer`` keeps one span
stack per process: a span's self time is its duration minus the time its
child spans cover. Every span stays in memory (four integer arrays) until
the run ends and is then written out.

The innermost calls (numpy Cholesky factorizations, CI log-det
evaluations, residual assembly) get counters, not spans: a span on each of
them costs a sizeable share of the call itself.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
import types
from array import array
from collections import defaultdict

now_ns = time.perf_counter_ns

NODE_TRACE_ENV = "CHAINPERF_NODE_TRACE_DIR"


class Tracer:
    """Span stack, per-name totals and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        # span i: name index, parent span index (-1 at the root), start, end
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_t0 = array("q")
        self.span_t1 = array("q")
        self._stack: list[list[int]] = []  # [span index, start, child ns]
        self.n = defaultdict(int)
        self.ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self.kl_gate: float | None = None

    def push(self, name: str):
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_t0)
        t0 = now_ns()
        self.span_name.append(ix)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_t0.append(t0)
        self.span_t1.append(0)
        self._stack.append([span, t0, 0])

    def pop(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        t1 = now_ns()
        span, t0, child = self._stack.pop()
        self.span_t1[span] = t1
        dur = t1 - t0
        name = self.names[self.span_name[span]]
        self.n[name] += 1
        self.ns[name] += dur
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def top(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    def snapshot(self) -> dict:
        return {
            "n": dict(self.n),
            "ns": dict(self.ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def spans_doc(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "parent", "t0_ns", "t1_ns"],
            "spans": [
                list(row)
                for row in zip(self.span_name, self.span_parent, self.span_t0, self.span_t1)
            ],
        }


def diff(after: dict, before: dict) -> dict:
    """after - before, key by key, for two ``Tracer.snapshot`` results."""
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
        for part in after
    }


def merge(a: dict, b: dict) -> dict:
    out = {part: dict(a.get(part, {})) for part in ("n", "ns", "self_ns", "counts")}
    for part, values in b.items():
        for k, v in values.items():
            out[part][k] = out[part].get(k, 0) + v
    return out


class Patcher:
    """Rebinds functions and methods; ``undo`` restores them in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def function(self, module_name: str, attr: str, make, outside_only=False) -> bool:
        """Wrap ``module.attr`` wherever a difftwin module binds that function,
        on top of any wrapper already there.

        With ``outside_only`` the defining module keeps its binding, so only
        calls that cross into the module are seen. Returns False when the
        module has no such attribute (a later version may have removed it).
        """
        module = sys.modules.get(module_name)
        target = getattr(module, attr, None) if module is not None else None
        if not isinstance(target, types.FunctionType):
            return False
        target = _unwrapped(target)
        made = {}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "difftwin" or name.startswith("difftwin.")):
                continue
            if outside_only and name == module_name:
                continue
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and _unwrapped(value) is target:
                    if id(value) not in made:
                        made[id(value)] = make(value)
                    setattr(mod, key, made[id(value)])
                    self._undo.append((mod, key, value))
        return True

    def attribute(self, owner, attr: str, make) -> bool:
        """Wrap a method (or any attribute) set directly on ``owner``."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return False
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))
        return True

    def undo(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _unwrapped(fn):
    while isinstance(getattr(fn, "__wrapped__", None), types.FunctionType):
        fn = fn.__wrapped__
    return fn


# -- wrappers -------------------------------------------------------------------


def spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call; ``after(result, args)`` may count."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    return make


def observed(after):
    """Wrapper factory: ``after(result, args)`` once each call returns."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    return make


def counted(tracer: Tracer, key: str, gate: str | None = None):
    """Wrapper factory: a counter only, optionally only inside ``gate``."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if gate is None or tracer.depth[gate]:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def outermost(tracer: Tracer, name: str):
    """One span per outermost call: nested model blocks are not split out."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] += 1
            tracer.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop()
                tracer.depth[name] -= 1

        return wrapper

    return make


def _fuse_wrapper(tracer: Tracer, kinds: dict, error_type):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            tracer.depth["fusion.fuse"] += 1
            tracer.push("fusion.fuse")
            try:
                return fn(problem, *args, **kwargs)
            except error_type:
                tracer.counts["fusion.fuse_failed"] += 1
                raise
            finally:
                dur = tracer.pop()
                tracer.depth["fusion.fuse"] -= 1
                kind = kinds.get(getattr(problem, "dim", None), "other")
                tracer.counts[f"fusion.fuse_ns.{kind}"] += dur

        return wrapper

    return make


def install(tracer: Tracer, patcher: Patcher):
    """Install every layer wrapper into the current process."""
    import numpy as np

    import difftwin.configs  # noqa: F401 - loads every module the twin uses
    import difftwin.facility.sim as sim
    import difftwin.fusion as fusion
    import difftwin.gaussian as gaussian
    import difftwin.lossnode  # noqa: F401
    import difftwin.models as models
    import difftwin.models.base as models_base
    import difftwin.models.mlp  # noqa: F401
    import difftwin.node as node
    import difftwin.protocol  # noqa: F401
    import difftwin.runner  # noqa: F401
    import difftwin.transport as transport
    from difftwin.errors import DifftwinError

    t = tracer
    kinds = {
        models.siever_layout().dim: "siever",
        models.conveyor_layout().dim: "conveyor",
        models.magsorter_layout().dim: "magsorter",
    }

    # fusion: spans on the public steps of one fusion, counters inside them.
    patcher.function("difftwin.fusion", "fuse", _fuse_wrapper(t, kinds, DifftwinError))
    for attr, name in (
        ("solve_map", "fusion.solve_map"),
        ("ci_optimize_weights", "fusion.ci_weights"),
        ("posterior_covariance", "fusion.posterior_cov"),
        ("implicit_jacobian", "fusion.implicit_jacobian"),
    ):
        patcher.function("difftwin.fusion", attr, spanned(t, name))
    patcher.function("difftwin.fusion", "_logdet_information", counted(t, "fusion.logdet_n"))
    patcher.attribute(fusion.FusionProblem, "assemble", counted(t, "fusion.assemble_n"))
    patcher.attribute(np.linalg, "cholesky", counted(t, "fusion.cholesky_n", gate="fusion.fuse"))

    # gaussian: calls that cross into the module, plus every estimate built.
    patcher.attribute(gaussian.GaussianEstimate, "__init__", spanned(t, "gaussian.estimate"))

    def kl_after(value, args):
        if t.kl_gate is not None and value <= t.kl_gate:
            t.counts["node.info_suppressed"] += 1

    for attr, make in (
        ("kl_divergence_bits", spanned(t, "gaussian.kl", kl_after)),
        ("project", spanned(t, "gaussian.project")),
        ("whitening_from_cov_fast", spanned(t, "gaussian.whiten")),
        ("whitening_from_cov", spanned(t, "gaussian.whiten")),
    ):
        patcher.function("difftwin.gaussian", attr, make, outside_only=True)

    # node: the driver interface, with the messages each pump emits.
    def pump_after(out, args):
        for msg in out:
            if msg.type == "information":
                t.counts["node.info_sent"] += 1
            elif msg.type == "gradient":
                t.counts["node.grad_sent"] += 1

    patcher.attribute(node.Node, "pump", spanned(t, "node.pump", pump_after))
    patcher.attribute(node.Node, "ensure_horizon", spanned(t, "node.ensure_horizon"))
    patcher.attribute(node.Node, "observe_sensor", spanned(t, "node.observe"))

    def info_gate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            t.kl_gate = self.delta_info_bits
            try:
                return fn(self, *args, **kwargs)
            finally:
                t.kl_gate = None

        return wrapper

    patcher.attribute(node.Node, "generate_info_messages", info_gate)

    # models: evaluate/jacobian as fusion assembly calls them.
    classes, todo = [], [models_base.DifferentiableModel]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        for attr in ("evaluate", "jacobian"):
            if attr in cls.__dict__:
                patcher.attribute(cls, attr, outermost(t, "models.eval"))
    patcher.function("difftwin.models.mlp", "mlp_train", spanned(t, "models.mlp_train"))

    # protocol: the NDJSON codec, with the bytes it produces and consumes.
    def encoded(data, args):
        t.counts["protocol.bytes"] += len(data)

    def decoded(msg, args):
        t.counts["protocol.bytes"] += len(args[0])

    for attr, make in (
        ("encode", spanned(t, "protocol.encode", encoded)),
        ("decode", spanned(t, "protocol.decode", decoded)),
    ):
        patcher.function("difftwin.protocol", attr, make, outside_only=True)

    # transport: lockstep exchanges, hub calls, and time blocked on node replies.
    def rounds(result, args):
        t.counts["transport.rounds"] += int(result)

    for cls in (transport.InMemoryBus, transport.TcpHub):
        patcher.attribute(cls, "run_until_quiescent", spanned(t, "transport.quiesce", rounds))
    patcher.attribute(transport.TcpHub, "call", spanned(t, "transport.call"))
    patcher.attribute(transport.TcpHub, "__init__", spanned(t, "transport.spawn"))
    patcher.attribute(transport.TcpHub, "close", spanned(t, "transport.close"))
    patcher.function("difftwin.transport", "_recv_frame", spanned(t, "transport.wait"))

    # facility: one span per simulated window, articles created in it.
    def articles(result, args):
        t.counts["facility.articles"] += int(result[2].sum())

    patcher.attribute(sim.Facility, "advance_window", spanned(t, "facility.advance"))
    patcher.function("difftwin.facility.sim", "poisson_instantiate", observed(articles))


# -- node subprocesses (TCP transport) -----------------------------------------


def install_in_node_process(trace_dir: str):
    """Trace a node subprocess and write its totals when it exits.

    Totals count from the end of node construction, so they cover the
    windows only. Called from ``nodehook/sitecustomize.py``.
    """
    tracer, patcher = Tracer(), Patcher()
    install(tracer, patcher)
    marks = {}
    patcher.function(
        "difftwin.configs", "build_node", observed(lambda *_: marks.update(built=tracer.snapshot()))
    )

    def dump():
        start = marks.get("built")
        totals = tracer.snapshot()
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv[1:],
            "totals": diff(totals, start) if start else totals,
            "spans": tracer.spans_doc(),
        }
        path = os.path.join(trace_dir, f"node-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(doc, fh)
        os.replace(path + ".tmp", path)

    atexit.register(dump)
