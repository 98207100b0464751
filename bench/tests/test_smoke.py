"""Smoke test of the benchmark: one short run of each workload.

Run from the repository root with ``python -m pytest bench/tests``; it
takes a few minutes because each workload runs its whole op list.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNTS = [name for name, _ in tracing.PER_LAYER
          if name.endswith((".calls", ".errors")) or name in ("chart.field_evals", "cli.checks_emitted")]


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """The contract line and the printed ``metric <name> <value> <unit>`` lines."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (value, unit)
    return json.loads(lines[-1]), printed


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = parse(bench(ROOT, workload, seed, trace))
        return cache[key]

    return get


def test_benchmark_json_lists_what_the_benchmark_prints():
    gated = [(name, unit) for name, unit, is_gated in run.END_TO_END if is_gated]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == gated
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric(runs):
    line, printed = runs("verify", 11, 0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert {name: unit for name, (_, unit) in printed.items()} == {
        name: unit for name, unit, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_matches_the_verdict_table(runs, workload):
    line, printed = runs(workload, 11, 1)
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(tracing.PER_LAYER)
    assert printed["verdict_changes"][0] == "0"
    # the locus scan is the only op that exits 2 at the seed commit
    expected_fail = 0.0 if workload != "verify" else 1 / len(run.WORKLOADS["verify"](11))
    assert float(printed["fail_frac"][0]) == pytest.approx(expected_fail)


def test_counts_repeat_across_seeds(runs):
    first, _ = runs("verify", 11, 1)
    second, _ = runs("verify", 12, 1)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench(tmp_path, "verify", 1, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
