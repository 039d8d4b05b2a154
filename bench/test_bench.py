"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402  (puts the library source on sys.path)

import pinvnet as pn  # noqa: E402


def test_one_pinv_is_one_svd_call_and_one_distinct_input():
    a = np.arange(15.0).reshape(5, 3)
    with tracer.Tracer() as tr:
        pn.pinv(a)
    op = tr.take_op()
    assert op["spans"]["linalg.svd"][0] == 1
    assert op["svd_distinct"] == 1
    with tr:
        pn.pinv(a)
        pn.pinv(a)
    op = tr.take_op()
    assert op["spans"]["linalg.svd"][0] == 2
    assert op["svd_distinct"] == 1


def test_self_time_is_span_minus_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    by_name, fits = tracer.aggregate(spans)
    assert by_name["a"] == pytest.approx([1, 10.0, 3.0])
    assert by_name["b"] == pytest.approx([2, 7.0, 6.0])
    assert fits == 0


def test_wrappers_record_nesting_from_the_clock():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tr = tracer.Tracer(targets=(), clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", lambda: inner())
    outer()
    spans = tr.take_op()["spans"]
    assert spans["outer"] == pytest.approx([1, 10.0, 8.0])
    assert spans["inner"] == pytest.approx([1, 2.0, 2.0])


def test_missing_name_is_reported_absent_and_reads_zero():
    original = np.linalg.svd
    targets = (
        ("linalg.svd", "numpy.linalg", "svd"),
        ("gone", "pinvnet.training", "no_such_function"),
        ("gone", "pinvnet.no_such_module", "f"),
        ("gone", "pinvnet.linalg", "NoSuchClass.__init__"),
    )
    with tracer.Tracer(targets) as tr:
        pn.pinv(np.eye(3))
    assert tr.absent == ["pinvnet.training.no_such_function",
                         "pinvnet.no_such_module.f",
                         "pinvnet.linalg.NoSuchClass.__init__"]
    assert tr.take_op()["spans"]["linalg.svd"][0] == 1
    assert np.linalg.svd is original
    empty = {"spans": {}, "fits": 0, "svd_distinct": 0, "notes": {}}
    assert all(value(empty) == 0 for _, _, value in run.PER_LAYER.values())


def test_corrupted_results_drive_error_rate_to_one(tmp_path):
    wl = workloads.make("variance_mc", 3, tmp_path)

    def corrupt(rep):
        return dataclasses.replace(
            rep, per_depth_mean=tuple(1.5 * v for v in rep.per_depth_mean))

    bad = run.run_loop(wl, 0.0, corrupt=corrupt)
    assert bad.attempted >= 1 and bad.failed == bad.attempted
    good = run.run_loop(wl, 0.0)
    assert good.failed == 0


def test_traced_counts_repeat_and_outputs_equal_untraced(tmp_path):
    wl = workloads.make("spiral_cli", 5, tmp_path / "work")
    try:
        base = run.run_loop(wl, 0.0)
        first = run.run_loop(wl, 0.0, tracer=tracer.Tracer())
        second = run.run_loop(wl, 0.0, tracer=tracer.Tracer())
    finally:
        wl.close()
    assert base.failed == first.failed == second.failed == 0
    assert first.digests[0] == second.digests[0] == base.digests[0]
    for name, (_, kind, value) in run.PER_LAYER.items():
        if kind == "count":
            assert value(first.traces[0]) == value(second.traces[0]), name
    assert first.traces[0]["spans"]["cli.main"][0] == 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER) + ["trace.overhead_s"]
    units = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    for m in spec["per_layer"][:-1]:
        assert m["unit"] == units[m["name"]]


def test_without_library_source_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "variance_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
