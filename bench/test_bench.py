"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import run
import tracing

run.import_library()
import workloads  # noqa: E402  (needs the checkout's src/ on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.make_inputs(name, 7)
    assert a == workloads.make_inputs(name, 7)
    assert a != workloads.make_inputs(name, 8)
    assert len(a) == workloads.PASS_SIZE[name]


def test_prescribe_targets_follow_the_rules():
    for targets in workloads.make_inputs("prescribe", 3):
        assert 2 <= len(targets) <= 4
        assert all(0.05 <= t <= 0.4 for t in targets)
        assert all(a - b >= 0.04 for a, b in zip(targets, targets[1:]))


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # d [8, 9.5] overlaps c and sticks out of root, so only 1 s of it counts.
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("b", 2.0, 3.0, 1),
        S("c", 5.0, 9.0, 0),
        S("d", 8.0, 10.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 5, 3 - 1, 1, 4, 2.5])


def _ticking_tracer() -> tracing.Tracer:
    ticks = iter(range(100))
    return tracing.Tracer(clock=lambda: float(next(ticks)))


def test_tracer_spans_and_layer_metrics():
    # Input 0 runs twice, input 1 once; each input adds the mean of its runs.
    a = _ticking_tracer()
    with a.span(tracing.ROOT_SPAN):  # 0 .. 7
        with a.span("band_solver.bands"):  # 1 .. 6
            with a.span("quasi_bergman.basis"):  # 2 .. 3
                pass
            with a.span("band_solver.eig"):  # 4 .. 5
                pass
    with a.span(tracing.ROOT_SPAN):  # 8 .. 9
        pass
    assert [s.parent for s in a.spans] == [None, 0, 1, 1, None]
    b = _ticking_tracer()
    with b.span(tracing.ROOT_SPAN):  # 0 .. 3
        with b.span("quasi_bergman.basis"):  # 1 .. 2
            pass
    m = tracing.layer_metrics([a, b], untraced_walls=[3.0, 2.5])
    assert m["trace.wall_s"] == 4.0 + 3.0
    assert m["trace.overhead_s"] == 1.5
    assert m["bench.loop_s"] == 1.5 + 2.0
    assert m["band_solver.assembly_s"] == 1.5
    assert m["quasi_bergman.basis_s"] == 0.5 + 1.0
    assert m["band_solver.eig_s"] == 0.5
    assert m["quasi_bergman.basis.calls"] == 0.5 + 1.0
    assert sum(m[x] for x in tracing.SELF_TIME) == m["trace.wall_s"]


def test_reference_kernel_samples_a_block_and_is_subtracted():
    ref = run.Reference()
    with ref.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * run.SAMPLE_INTERVAL:
            sum(range(1000))
        t1 = time.perf_counter()
    inside = [e - s for s, e in ref.samples if t0 <= s and e <= t1]
    assert ref.samples[0][1] <= t0 and len(inside) >= 3
    assert ref.split(t0, t1) == pytest.approx((t1 - t0 - sum(inside), statistics.median(inside)))
    # A block too short for a sample is measured against the last run before it.
    s, e = ref.samples[-1]
    assert ref.split(e + 1.0, e + 1.001) == pytest.approx((0.001, e - s))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_wrappers_are_removed_after_a_traced_call():
    import numpy as np
    from bergband import band_solver

    before = (band_solver.build_basis, np.linalg.eigvalsh)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert band_solver.build_basis is not before[0]
        np.linalg.eigvalsh(np.eye(2))  # not from compute_bands: no span
    assert (band_solver.build_basis, np.linalg.eigvalsh) == before
    assert tracer.spans == []


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, monkeypatch, capsys):
    """One input, run untraced and traced, through the command line."""
    monkeypatch.setitem(workloads.PASS_SIZE, name, 1)
    for trace in (0, 1):
        assert run.main(["--workload", name, "--seed", "0", "--seconds", "0.01", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1 + trace
        assert details["fail_frac"] == 0.0 and details["machine"]["nproc"] >= 1
        assert details["wall_s"] > 0 and (trace or details["ref_s.p50"] > 0)
        kind = "per_layer" if trace else "end_to_end"
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # Every span has a self-time metric, so together they make up the traced time.
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert sum(m[x] for x in tracing.SELF_TIME) == pytest.approx(m["trace.wall_s"])


def test_traced_run_covers_every_input(monkeypatch, capsys):
    """However short the run, each input runs once untraced and once traced,
    and the per-pass counts add up over all of them."""
    monkeypatch.setitem(workloads.PASS_SIZE, "h-scan", 3)
    assert run.main(["--workload", "h-scan", "--seed", "0", "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2 * 3
    m = {k: v["value"] for k, v in result["metrics"].items()}
    per_pass = 3 * len(workloads.SCAN_HS)  # one geometry per h, one fiber each
    assert m["geometry.quad.calls"] == m["quasi_bergman.basis.calls"] == per_pass
    assert m["band_solver.fibers"] == per_pass


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "h-scan", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
