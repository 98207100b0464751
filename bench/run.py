"""Closed-loop benchmark of the sasakiherm command line.

Usage, from the repository root::

    python3 bench/run.py --workload examples|verify|oracle --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

One client runs the workload's fixed op list (see ``workloads.py``)
through ``sasakiherm.cli.main(argv)`` in this process, one command at a
time: whole passes while another still fits in ``--seconds`` (at least
two), then single ops until the budget is spent (see :func:`measure`).
An op's latency is its median over its runs; ``wall_s`` is the sum of
those medians, the time of one pass over the fixed list.  The package is
imported from ``src/`` of the checkout the script sits in.

With ``--trace 0`` the last stdout line carries the gated end-to-end
metrics; with ``--trace 1`` one untraced pass is followed by one pass
with span wrappers installed (``tracing.py``) and the last line carries
the per-layer metrics.  Every end-to-end metric is also printed above
it as ``metric <name> <value> <unit>``.  Full results go to
``.bench_results/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread (<= nproc) keeps a small
# shared box steady, and every op's matrices are at most 22 x 22.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import verdicts
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

# End-to-end metrics; the ones marked gated appear in the last line with --trace 0
# and are listed in BENCHMARK.json.  The others are correctness or per-workload
# throughput figures that are 0 or undefined on some workloads.
END_TO_END = (
    ("setup_s", "s", True),
    ("wall_s", "s", True),
    ("op_p50_ms", "ms", True),
    ("op_tail_ms", "ms", True),
    ("peak_rss_mb", "MB", True),
    ("cells_per_s", "1/s", False),
    ("points_per_s", "1/s", False),
    ("fail_frac", "ratio", False),
    ("verdict_changes", "count", False),
    ("residual_margin_max", "ratio", False),
)
SETUP_REPEATS = 9
WARMUP_ARGV = ("verify-product", "--p", "1", "--q", "1")
TAIL_BEYOND = 10
MIN_PASSES = 2
SETUP_CODE = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sasakiherm.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = sasakiherm.cli.main(sys.argv[2:])
print(time.perf_counter() - start, code)
"""


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import sasakiherm.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import sasakiherm from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"sasakiherm imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> list[float]:
    """Cold import of ``sasakiherm.cli`` plus a first op, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *WARMUP_ARGV],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
            raise BenchError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        times.append(float(fields[0]))
    return times


def run_op(cli, op, tracer=None, index=-1):
    """Run one op; return ``(seconds, exit code or None if it raised, checks)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = tracer.call_op(index, cli.main, list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a failed benchmark
            code = None
        seconds = time.perf_counter() - start
    text = out.getvalue()
    checks = json.loads(text)["checks"] if code in (0, 1) and text.strip() else []
    return seconds, code, checks


def run_pass(cli, ops, tracer=None):
    return [(i, *run_op(cli, op, tracer, i)) for i, op in enumerate(ops)]


def measure(cli, ops, seconds: float, single_pass: bool):
    """Time the ops within the budget; return every run and the number of full passes.

    A run is ``(op index, seconds, exit code, checks)``.  Full passes over
    the op list repeat while another one fits in ``seconds``, and at least
    MIN_PASSES of them run, so that no op's latency is a single timing.
    The rest of the budget goes, one run at a time, to the op with the
    least ``runs * sqrt(fastest run)``: spare runs of the cheap ops cost
    little and steady their medians, and no op is starved.
    """
    runs = []
    start = time.perf_counter()
    passes = 0
    while True:
        runs += run_pass(cli, ops)
        passes += 1
        elapsed = time.perf_counter() - start
        if single_pass or (passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds):
            break
    counts = [passes] * len(ops)
    fastest = [min(s for j, s, _, _ in runs if j == i) for i in range(len(ops))]
    while not single_pass and time.perf_counter() - start < seconds:
        # the fastest run ignores one-off stalls; the square root leans the
        # spare runs towards equal counts without spending them all on one op
        i = min(range(len(ops)), key=lambda k: counts[k] * math.sqrt(fastest[k]))
        runs.append((i, *run_op(cli, ops[i])))
        counts[i] += 1
        fastest[i] = min(fastest[i], runs[-1][1])
    return runs, passes


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def is_failure(code) -> bool:
    return code is None or code == 2


class Ledger:
    """Compares every op run with the reference table and tallies failures."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.attempted = 0
        self.unexpected_failures = 0
        self.changes: dict[tuple[str, str], dict] = {}
        self.margin_max = 0.0

    def add(self, runs) -> None:
        for i, _, code, checks in runs:
            self._add(self.ops[i], code, checks)

    def _add(self, op, code, checks) -> None:
        self.attempted += 1
        ref = self.reference.get(op.id)
        if ref is None:
            self.changes[(op.id, "*")] = {"expected": "reference entry", "found": None,
                                          "known": None}
            return
        expected_exit = ref["verdicts"][verdicts.EXIT]
        if is_failure(code) and not (code == expected_exit and verdicts.EXIT in ref["known"]):
            self.unexpected_failures += 1
        found = verdicts.verdicts(op, code, checks)
        for key, want, got, known in verdicts.changes(ref, found):
            self.changes[(op.id, key)] = {"expected": want, "found": got, "known": known}
        for index, check in enumerate(checks):
            key = verdicts.check_key(op, index, check["name"])
            if ref["verdicts"].get(key) is True and check["tolerance"] > 0.0:
                self.margin_max = max(self.margin_max, check["residual"] / check["tolerance"])

    @property
    def correct(self) -> bool:
        unknown = [c for c in self.changes.values() if c["known"] is None]
        return not unknown and self.unexpected_failures == 0


def end_to_end(ops, runs, passes, setup_times, ledger, peak_rss_mb) -> tuple[dict, dict]:
    samples = [[] for _ in ops]
    for i, seconds, _, _ in runs:
        samples[i].append(seconds)
    per_op = [statistics.median(s) for s in samples]
    tail_ms, percentile, count = tail([1000.0 * s for s in per_op])
    one_pass = runs[: len(ops)]
    full_passes = runs[: passes * len(ops)]
    scan_s = sum(s for op, s in zip(ops, per_op) if op.is_scan)
    oracle_s = sum(s for op, s in zip(ops, per_op) if op.points)
    cells = sum(len(checks) for i, _, _, checks in one_pass if ops[i].is_scan)
    points = sum(op.points for op in ops)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(per_op),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "cells_per_s": cells / scan_s if scan_s else None,
        "points_per_s": points / oracle_s if oracle_s else None,
        "fail_frac": sum(is_failure(code) for _, _, code, _ in full_passes) / len(full_passes),
        "verdict_changes": len(ledger.changes),
        "residual_margin_max": ledger.margin_max,
    }
    detail = {
        "passes": passes,
        "runs": len(runs),
        "op_tail_percentile": percentile,
        "op_latency_samples": count,
        "op_median_ms": {op.id: 1000.0 * s for op, s in zip(ops, per_op)},
        "op_samples": {op.id: len(s) for op, s in zip(ops, samples)},
        "setup_s_samples": setup_times,
        "scan_cells": cells,
        "oracle_points": points,
    }
    return values, detail


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int, ops) -> dict:
    import numpy as np

    with contextlib.redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "ops": [list(op.argv) for op in ops],
    }


def benchmark(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[workload](seed)
    ledger = Ledger(ops, verdicts.load())
    setup_times = measure_setup()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(WARMUP_ARGV))

    runs, passes = measure(cli, ops, seconds, single_pass=trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.add(runs)
    values, detail = end_to_end(ops, runs, passes, setup_times, ledger, peak_rss_mb)

    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "environment": environment(seed, ops), "end_to_end": values, "detail": detail}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        ledger.add(traced)
        layers = tracing.layer_metrics(
            tracer, [op.n for op in ops], sum(op.points for op in ops),
            sum(len(checks) for _, _, _, checks in traced),
        )
        layers["trace.overhead_frac"] = sum(s for _, s, _, _ in traced) / values["wall_s"] - 1.0
        result["per_layer"] = layers
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{workload}-seed{seed}-spans.jsonl")
    result.update(attempted=ledger.attempted, failed=ledger.unexpected_failures,
                  correct=ledger.correct,
                  verdict_changes=[{"op": op, "key": key, **c}
                                   for (op, key), c in sorted(ledger.changes.items())])
    return result


def contract_line(result: dict) -> dict:
    if result["trace"]:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit, gated in END_TO_END if gated}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def record_reference(cli, seed: int) -> None:
    """Run every workload once and write the reference verdict table."""
    table = {}
    for make_ops in WORKLOADS.values():
        for op in make_ops(seed):
            _, code, checks = run_op(cli, op)
            table[op.id] = verdicts.entry(op, verdicts.verdicts(op, code, checks))
            failing = [k for k, v in table[op.id]["verdicts"].items() if v is False]
            print(f"{op.id}: exit {code}, {len(checks)} checks, failing {failing}, "
                  f"known {sorted(table[op.id]['known'])}")
    verdicts.save(table, git_commit(), seed)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", dest="record_reference")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
        if args.record_reference:
            record_reference(cli, args.seed)
            return 0
        result = benchmark(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for name, unit, _ in END_TO_END:
        print(f"metric {name} {result['end_to_end'][name]} {unit}")
    detail = result["detail"]
    print(f"op_tail_ms is the p{detail['op_tail_percentile']:.1f} of "
          f"{detail['op_latency_samples']} per-op medians; {detail['passes']} full pass(es), "
          f"{detail['runs']} op runs")
    for change in result["verdict_changes"]:
        print(f"verdict change {change}")
    print(f"results {out.relative_to(ROOT)}")
    print(json.dumps(contract_line(result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
