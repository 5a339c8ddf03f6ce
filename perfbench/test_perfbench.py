"""Tests for the benchmark itself: every workload once at tiny size, the traced
run's bytes, the tracer's handling of missing names, the host-speed pacer, the
run timeout and the compare mode."""

import json
import os
import signal
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from pacer import INTERVAL_S, Pacer  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed3-tiny-trace{trace}.json")
    with open(path) as fh:
        return out, json.load(fh)


def assert_schema(out, declared):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_and_prints_its_end_to_end_metrics(workload):
    out, res = bench(workload, 0)
    assert_schema(out, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert res["digest"] and res["reports"]


@pytest.mark.parametrize("workload", ["table1", "relocation", "dynamics"])
def test_traced_run_gives_the_untraced_canonical_bytes(workload):
    out, res = bench(workload, 1)
    assert_schema(out, SPEC["per_layer"])
    assert {r["trace"] for r in res["runs"]} == {"0", "1"}
    assert {r["digest"] for r in res["runs"]} == {res["digest"]}
    assert 0.9 <= out["metrics"]["traced_coverage"]["value"] <= 1.1
    assert res["absent"] == []


def test_tracer_skips_missing_names_and_wraps_every_binding():
    names = {}
    for mod in {m for m, _f in TRACED}:
        names[f"fakepkg.{mod}"] = types.ModuleType(f"fakepkg.{mod}")
    names["fakepkg"] = types.ModuleType("fakepkg")
    names["fakepkg.graphs"].distance_summary = lambda g: 1
    names["fakepkg"].distance_summary = names["fakepkg.graphs"].distance_summary
    tracer = Tracer()
    try:
        sys.modules.update(names)
        tracer.install("fakepkg")
    finally:
        for name in names:
            del sys.modules[name]
    assert "graphs.distance_summary" not in tracer.absent
    assert len(tracer.absent) == len(TRACED) - 1
    assert names["fakepkg"].distance_summary(None) == 1
    assert names["fakepkg.graphs"].distance_summary(None) == 1
    assert [s[0] for s in tracer.spans] == ["graphs.distance_summary"] * 2


def test_pacer_samples_during_work_and_takes_its_own_time_out():
    pacer = Pacer()
    pacer.start()
    try:
        mark = pacer.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * INTERVAL_S:
            sum(range(1000))
        raw = time.perf_counter() - t0
        wall, _cpu, speed = pacer.adjust(raw, since=mark)
    finally:
        pacer.stop()
    assert len(pacer.samples) - mark[0] >= 3
    assert speed > 0.0
    assert 0.0 < wall / speed < raw
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_run_past_its_timeout_fails():
    rec, err = run.spawn("large_graphs", 0, "full", "0", time.monotonic() + 2.0)
    assert rec is None and err.startswith("timed out")


def test_compare_reports_byte_equality_and_largest_relative_drift(tmp_path, capsys):
    body = {"cells": {"x": [1.0, 2.0], "n": 3}, "comparisons": []}
    drift = {"cells": {"x": [1.0, 2.5], "n": 3}, "comparisons": []}
    for name, report in (("a.json", body), ("b.json", body), ("c.json", drift)):
        (tmp_path / name).write_text(json.dumps({
            "workload": "w", "seed": 0, "size": "tiny",
            "reports": {"step": json.dumps(report, sort_keys=True)}}))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "c.json")) == 1
    assert "difference 0.2 at $.cells.x[1]" in capsys.readouterr().out
