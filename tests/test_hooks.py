"""The benchmark's layer hooks (``chainperf/spans.py``) find their targets.

The hooks wrap difftwin functions and methods by name, and a hook whose
target was renamed or deleted does nothing, so its counter silently reads
zero. This test lists every target that ``install`` did not find.
"""

import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "chainperf")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import spans

    return spans


def test_every_hook_but_the_tcp_hub_rounds_finds_its_target(spans):
    missing = []

    class RecordingPatcher(spans.Patcher):
        def function(self, module_name, attr, make, outside_only=False):
            found = super().function(module_name, attr, make, outside_only)
            if not found:
                missing.append(f"{module_name}.{attr}")
            return found

        def attribute(self, owner, attr, make):
            found = super().attribute(owner, attr, make)
            if not found:
                missing.append(f"{getattr(owner, '__qualname__', owner)}.{attr}")
            return found

    patcher = RecordingPatcher()
    try:
        spans.install(spans.Tracer(), patcher)
    finally:
        patcher.undo()
    # One router serves both transports: TCP rounds run on InMemoryBus, so
    # the hub has no exchange loop of its own to wrap.
    assert missing == ["TcpHub.run_until_quiescent"]


def test_fusion_counters_see_the_kernels_of_one_fuse(spans):
    """A kernel that binds numpy's cholesky or the fusion helpers by name
    bypasses the wrappers; one fuse with a communication source must still
    move each fusion counter."""
    import numpy as np

    import difftwin.fusion as fusion
    from difftwin.gaussian import GaussianEstimate, LinearObservation

    def source(sid, kind, matrix, mean, var):
        value = GaussianEstimate(mean, var * np.eye(len(mean)))
        return fusion.InformationSource(sid, kind, LinearObservation(matrix, value))

    problem = fusion.FusionProblem(
        2,
        [
            source("prior", fusion.KIND_PRIOR, np.eye(2), [0.0, 0.0], 1.0),
            source("s:a", fusion.KIND_SENSOR, [[1.0, 1.0]], [1.0], 0.5),
            source("c:b", fusion.KIND_COMMUNICATION, [[1.0, 0.0]], [2.0], 0.25),
        ],
    )
    tracer, patcher = spans.Tracer(), spans.Patcher()
    try:
        spans.install(tracer, patcher)
        fusion.fuse(problem, np.zeros(2))
        counts = dict(tracer.counts)
    finally:
        patcher.undo()
    for key in ("fusion.cholesky_n", "fusion.logdet_n", "fusion.assemble_n"):
        assert counts.get(key, 0) > 0, key
