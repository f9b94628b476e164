"""The benchmark's own tests: tiny runs of every workload, and a planted
wrong answer that each workload must catch.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import layer_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def test_benchmark_json_matches_the_benchmark():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert set(WORKLOADS) == {
        "map_registry", "classify_repeat", "classify_unique", "serve_mix",
    }
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in layer_names()]
    for m in SPEC["per_layer"]:
        assert m["unit"] == dict(layer_names())[m["name"]]
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    code, result, proc = run_bench(workload, trace)
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_fails_the_run(workload):
    code, result, proc = run_bench(workload, 0, "--plant-fault")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["fail_ratio"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "map_registry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _records(path: Path, workload: str, values):
    with open(path, "w") as f:
        for v in values:
            f.write(json.dumps({
                "workload": workload,
                "result": {
                    "correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"throughput_per_s": {"value": v, "unit": "1/s"}},
                },
            }) + "\n")


@pytest.mark.parametrize(
    "base, new, verdict",
    [
        ([100, 101, 99, 100, 102], [150, 151, 149, 152, 150], "better"),
        ([100, 101, 99, 100, 102], [50, 51, 49, 52, 50], "worse"),
        ([100, 101, 99, 100, 102], [99, 101, 100, 100, 98], "unchanged"),
        ([60, 140, 80, 120, 100], [95, 105, 70, 130, 100], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, base, new, verdict):
    _records(tmp_path / "base.jsonl", "classify_unique", base)
    _records(tmp_path / "new.jsonl", "classify_unique", new)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(tmp_path / "base.jsonl"),
         str(tmp_path / "new.jsonl")],
        capture_output=True, text=True, timeout=60,
    )
    row = next(l for l in proc.stdout.splitlines() if "throughput_per_s" in l)
    assert row.split()[-1] == verdict
    assert proc.returncode == (1 if verdict == "worse" else 0)
