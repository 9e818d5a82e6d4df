"""Smoke tests of the benchmark itself, at a tiny scale (about 30 s in all).

Run from the repo root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import servework

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT):
    """Run the benchmark; returns (exit code, result dict or None, stdout)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def _assert_metrics(result: dict, expected) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], float)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_response_checks():
    assert servework.response_ok("peak", 200, b'{"t_peak_c": 61.5}')
    assert not servework.response_ok("peak", 200, b'{"t_peak_c": NaN}')
    assert not servework.response_ok("peak", 404, b'{"t_peak_c": 61.5}')
    assert servework.response_ok("tau", 200, b'{"t_peak_c": 60.0, "tau_s": null}')
    assert not servework.response_ok("tau", 200, b'{"t_peak_c": 60.0}')
    assert servework.response_ok("simulate", 200, b'{"sim_time_s": 0.02}')
    assert servework.response_ok("metrics", 200, b"repro_serve_batch_requests 3\n# EOF\n")
    assert not servework.response_ok("metrics", 200, b"repro_serve_batch_requests 3\n")


def test_tape_follows_the_seed():
    first = servework.build_tape(3, 2.0, 40.0)
    assert first == servework.build_tape(3, 2.0, 40.0)
    assert first != servework.build_tape(4, 2.0, 40.0)
    assert {request.kind for request in first} <= set(servework.KINDS)


def test_serve_counts_an_injected_failure():
    code, result, _ = _bench(
        "--workload", "serve-mixed", "--seed", "5", "--seconds", "2", "--trace", "0",
        "--inject-failures", "2",
    )
    assert result is not None
    _assert_metrics(result, run.END_TO_END)
    assert result["attempted"] == 2 * servework.RATE_PER_S
    assert result["failed"] == 2
    assert result["correct"] is False
    assert code == 1


def test_fig4a_runs_a_non_default_seed():
    code, result, stdout = _bench("--workload", "fig4a-sweep", "--seed", "3", "--trace", "0", "--tiny")
    assert code == 0, stdout
    _assert_metrics(result, run.END_TO_END)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    report = json.loads(stdout.strip().splitlines()[-2])["report"]
    assert report["seed"] == 3
    assert {"cpu_count", "python", "numpy", "blas", "commit", "source_sha256"} <= set(report["host"])


def test_traced_run_splits_the_wall_time_by_layer():
    code, result, stdout = _bench("--workload", "fig4b-medium", "--trace", "1", "--tiny")
    assert code == 0, stdout
    _assert_metrics(result, run.PER_LAYER)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    self_total = sum(values[f"layer.{layer}.self_s"] for layer in run.LAYERS)
    assert self_total == pytest.approx(values["trace.wall_s"], rel=1e-6)
    assert values["sched.qos.decide.calls"] > 0
    assert values["core.admit.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _bench("--workload", "fig4a-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
