"""Run-to-run spread of the gated end-to-end metrics.

Usage, from the repository root::

    python3 bench/spread.py --workload verify --seeds 1-10 [--seconds S] [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, and
prints per metric the median and the interquartile range (from
``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--seconds`` defaults to
the file's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        first, last = spec.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None, help="also write every run's metrics here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": line["correct"], "failed": line["failed"],
                     **{k: v["value"] for k, v in line["metrics"].items()}})
        print(json.dumps(runs[-1]), flush=True)
    for metric in bench["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{metric['name']:>12}: median {median:.6g} {metric['unit']}, "
              f"IQR/median {(q3 - q1) / median:.4f} (bound {metric['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
