"""Self-tests of the loop benchmark (smoke sizes).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.spans import Span, Tracer, exclusive_seconds, installed, targets

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_CAMPAIGNS = 5


def run_bench(workload: str, seed: int = 0, trace: int = 0, campaigns: int = SMOKE_CAMPAIGNS):
    """``bench/run.py`` at smoke size: ``(stdout, result, run details)``."""
    done = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
            "--campaigns", str(campaigns),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    details = json.loads((ROOT / ".bench_out" / f"{stem}.json").read_text())
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1]), details


bench = functools.cache(run_bench)


def assert_prints(stdout: str, result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = stdout.splitlines()[:-1]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        assert any(
            line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
            for line in table
            if line.startswith("  ")
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    stdout, result, info = bench(workload)
    assert_prints(stdout, result, SPEC["end_to_end"])
    assert info["nproc"] >= 1 and info["numpy"] and info["platform"]
    assert len(info["loadavg_start"]) == len(info["loadavg_end"]) == 3
    assert info["result"]["passes"][0]["iter_s"]


@pytest.mark.parametrize("workload", ["loop-retrain", "loop-spot-guarded"])
def test_virtual_clock_metrics_repeat_at_a_seed_and_move_with_it(workload):
    virtual = ("deadline_compliance", "cost_usd_per_campaign")

    def outcome(run) -> tuple:
        _, result, info = run
        values = tuple(result["metrics"][name]["value"] for name in virtual)
        return info["result"]["plan_digest"], values

    first = outcome(bench(workload))
    assert outcome(run_bench(workload)) == first
    assert outcome(bench(workload, seed=1)) != first


@pytest.mark.parametrize("workload,campaigns", [("loop-spot-guarded", 5), ("loop-paper-compute", 2)])
def test_traced_run_reports_layers_and_writes_a_nested_trace(workload, campaigns):
    stdout, result, _ = bench(workload, trace=1, campaigns=campaigns)
    assert_prints(stdout, result, SPEC["per_layer"])
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    self_times = sum(
        value for name, value in metrics.items()
        if name.endswith((".s", ".self_s"))
    )
    assert self_times == pytest.approx(metrics["trace.iter_s"], rel=0.05)

    trace = json.loads((ROOT / ".bench_out" / f"{workload}-seed0-trace.chrome.json").read_text())
    events = {event["args"]["id"]: event for event in trace["traceEvents"]}
    assert events
    for event in events.values():
        parent = events.get(event["args"]["parent"])
        if parent is not None:
            assert parent["ts"] <= event["ts"] + 1e-3
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-3


def test_wrappers_are_removed_even_when_the_block_raises():
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _, _ in targets()]
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert all(cls.__dict__[attr] is not original for cls, attr, original in originals)
            raise RuntimeError
    assert all(cls.__dict__[attr] is original for cls, attr, original in originals)


def test_self_times_add_up_to_the_root_and_count_parallel_ranks_once():
    def span(id, parent, name, start, end, depth, thread=0):
        s = Span(id, parent, name, start, thread, 0, depth)
        s.end = end
        return s

    spans = [
        span(1, None, "core.run_simulation", 0.0, 10.0, 0),
        span(2, 1, "disar.execute", 1.0, 9.0, 1),
        span(3, 2, "montecarlo.lsmc", 2.0, 6.0, 2, thread=1),
        span(4, 2, "montecarlo.lsmc", 3.0, 7.0, 2, thread=2),
        span(5, 1, "core.select", 9.0, 9.5, 1),
    ]
    seconds = exclusive_seconds(spans)
    assert seconds == pytest.approx(
        {"core.run_simulation": 1.5, "disar.execute": 3.0, "montecarlo.lsmc": 5.0, "core.select": 0.5}
    )
    assert sum(seconds.values()) == pytest.approx(10.0)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
