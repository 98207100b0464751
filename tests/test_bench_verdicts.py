"""Every benchmark op reproduces its reference verdicts, or the change is a known one.

Replays the benchmark's correctness ledger: the ops of ``bench/workloads.py``
run through the CLI, and ``bench/verdicts.py`` compares
their verdicts with the table in ``bench/reference.json``.  An op is
correct when every verdict it changes carries a known reason and it
neither raises nor exits 2, unless the table records that exit as known.
The ``verify`` and ``oracle`` ops, whose arguments depend on the workload
seed, run at seeds 1 and 2; the test ids of seed 2 end in ``/seed2``.  The
``examples`` ops do not depend on it and run once; those with ``q > 3`` are
left out for time, as they differ from the rest only in the size of the
deformed factor.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sasakiherm.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
verdicts = load("verdicts")
REFERENCE = verdicts.load()


def seeded_ops(seed: int):
    return [*workloads.verify_ops(seed), *workloads.oracle_ops(seed)]


CASES = [
    *((op.id, op) for op in workloads.examples_ops(1) if int(op.argv[-1]) <= 3),
    *((op.id, op) for op in seeded_ops(1)),
    *((f"{op.id}/seed2", op) for op in seeded_ops(2)),
]


def run_op(op, capsys):
    """``(exit code or None if the op raised, checks)``, as the benchmark reads them."""
    try:
        code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is a failed op
        code = None
    text = capsys.readouterr().out
    checks = json.loads(text)["checks"] if code in (0, 1) and text.strip() else []
    return code, checks


@pytest.mark.parametrize("op", [op for _, op in CASES], ids=[case_id for case_id, _ in CASES])
def test_op_reproduces_reference_verdicts(op, capsys):
    reference = REFERENCE[op.id]
    code, checks = run_op(op, capsys)
    found = verdicts.verdicts(op, code, checks)
    unknown = [change for change in verdicts.changes(reference, found) if change[3] is None]
    assert unknown == []
    if code is None or code == 2:
        assert code == reference["verdicts"][verdicts.EXIT]
        assert verdicts.EXIT in reference["known"]
