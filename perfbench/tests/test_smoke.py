"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "synth_short": dict(entities=6, train_questions=16, test_questions=6, rounds=2,
                        warmup_steps=2, batch_size=2, eval_questions=4, timed_queries=6),
    "synth_ragged": dict(entities=6, train_questions=16, test_questions=6, rounds=2,
                         warmup_steps=2, batch_size=2, eval_questions=4, timed_queries=6),
    "retrieval_large": dict(entities=12, train_questions=40, test_questions=40, rounds=2,
                            warmup_steps=2, batch_size=2, eval_questions=4,
                            model_questions=8, timed_queries=20),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", {
        name: dataclasses.replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()})


def run_bench(capsys, workload, seed, trace):
    assert bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(workloads.REFERENCE_SECONDS),
                       "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_finite_with_unit(tiny, capsys, workload, trace):
    meta, result = run_bench(capsys, workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_seed_changes_inputs_not_metric_names(tiny, capsys):
    meta1, result1 = run_bench(capsys, "synth_ragged", 1, 0)
    meta2, result2 = run_bench(capsys, "synth_ragged", 2, 0)
    assert meta1["inputs_sha256"] != meta2["inputs_sha256"]
    assert list(result1["metrics"]) == list(result2["metrics"])


def test_same_seed_same_inputs_and_arithmetic(tiny, capsys):
    meta1, _ = run_bench(capsys, "synth_short", 3, 0)
    meta2, _ = run_bench(capsys, "synth_short", 3, 0)
    assert meta1["inputs_sha256"] == meta2["inputs_sha256"]
    assert meta1["fingerprint"] == meta2["fingerprint"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth_short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
