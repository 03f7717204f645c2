"""End-to-end tests of the benchmark on the real twin.

They run every workload once untraced and once traced, so they take several
minutes. Run from the repository root:

    python3 -m pytest chainperf/tests -q
"""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 5
# Read, not predicted: failures should be 0 and the overhead may have either sign.
ANY_VALUE = {"fusion.fuse_failed", "trace.overhead_s"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def cli(workload, trace, seed=SEED, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("chainperf", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def run_cli(workload, trace, seed=SEED):
    proc = cli(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    out_dir = os.path.join(ROOT, "chainperf-out", workload, f"seed{seed}")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "plain0", "run.csv"), "rb") as fh:
        run_csv = fh.read()
    return json.loads(proc.stdout.strip().splitlines()[-1]), summary, run_csv


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run_cli(name, trace) for name in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_listed_metric_is_reported_and_positive(results, workload, trace):
    result, summary, _ = results[(workload, trace)]
    assert result["correct"], summary["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        if m["name"] in ANY_VALUE:
            continue
        if m["name"] in WORKLOADS[workload].zero_layers:
            assert got["value"] == 0, m["name"]
        else:
            assert got["value"] > 0, m["name"]


def test_same_seed_gives_identical_counts_and_run_csv(results):
    first, summary, run_csv = results[("static-opt", 0)]
    again, summary2, run_csv2 = run_cli("static-opt", 0)
    assert run_csv == run_csv2
    counts = ("msgs_per_window", "rounds_per_window", "wire_bytes_per_window", "profit_kg_s")
    assert {k: first["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}
    assert first["attempted"] == again["attempted"]
    timings = ("window_s", "window_wall_s")
    strip = [{k: v for k, v in ep.items() if k not in timings} for ep in summary["episodes"]]
    strip2 = [{k: v for k, v in ep.items() if k not in timings} for ep in summary2["episodes"]]
    assert strip == strip2


def test_traced_episode_repeats_untraced_counts(results):
    for name in WORKLOADS:
        _, summary, _ = results[(name, 1)]
        plain = [ep for ep in summary["episodes"] if not ep["traced"]]
        traced = [ep for ep in summary["episodes"] if ep["traced"]]
        assert plain and traced
        for ep in traced:
            for key in ("run_csv_sha256", "fusions", "from_nodes", "wire_bytes"):
                assert ep[key] == plain[0][key], (name, key)
            assert ep["node_sent"] == ep["from_nodes"] > 0


def test_tcp_final_setpoints_match_memory(results):
    import run as bench

    bench.import_twin()
    from difftwin.facility import FacilityParams
    from difftwin.runner import prepare_models

    docs = prepare_models(FacilityParams(), bench.MODEL_SEED)
    memory = dataclasses.replace(WORKLOADS["tcp-opt"], transport="memory")
    out_dir = os.path.join(ROOT, "chainperf-out", "tcp-as-memory")
    ep = bench.run_episode(memory, SEED, docs, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    assert ep.failures == []
    _, summary, _ = results[("tcp-opt", 0)]
    tcp_final = summary["episodes"][0]["final"]
    assert set(tcp_final) == set(ep.final)
    for key, value in ep.final.items():
        assert abs(tcp_final[key] - value) <= 1e-9, key


def test_checks_reject_corrupted_real_output(results):
    _, _, run_csv = results[("static-opt", 0)]
    rows = list(csv.DictReader(run_csv.decode().splitlines()))
    logged = sum(int(r["info_msgs"]) + int(r["grad_msgs"]) for r in rows)
    assert checks.routed_totals(rows, logged) == []
    assert checks.message_bounds(rows) == []
    rows[-1]["info_msgs"] = str(int(rows[-1]["info_msgs"]) + 1)
    assert checks.routed_totals(rows, logged)
    rows[-1]["max_info_per_pair_step"] = "11"
    assert checks.message_bounds(rows)
    assert checks.run_rows(rows[:-1], WORKLOADS["static-opt"].windows)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "chainperf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli("static-opt", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
