"""Reference verdict table: each op's exit status and each check's pass/fail.

The table in ``reference.json`` was recorded at the seed commit with
``run.py --record-reference``.  Verdicts are keyed by op id and check
key, both independent of the workload seed: scan checks are keyed by
cell index because their names carry the jittered ``(a, b)`` values.
Entries that the op's ``known`` list matches are marked with the reason
they are known to be wrong or out of scope; a later change to one of
them is reported in ``verdict_changes`` but does not make the run
incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
EXIT = "exit"


def check_key(op, index: int, name: str) -> str:
    return f"cell[{index}]" if op.is_scan else name


def verdicts(op, exit_code: int, checks: list[dict]) -> dict[str, object]:
    """The op's verdicts: exit status plus pass/fail per check key."""
    out: dict[str, object] = {EXIT: exit_code}
    for index, check in enumerate(checks):
        out[check_key(op, index, check["name"])] = bool(check["pass"])
    return out


def known_reason(op, key: str) -> str | None:
    for prefix, reason in op.known:
        if key.startswith(prefix):
            return reason
    return None


def entry(op, found: dict[str, object]) -> dict:
    """Reference-table entry for one op from the verdicts it produced."""
    known = {k: r for k in found if (r := known_reason(op, k)) is not None}
    return {"argv": list(op.argv), "verdicts": found, "known": known}


def load() -> dict[str, dict]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def save(ops: dict[str, dict], commit: str | None, seed: int) -> None:
    """Write the table; ``argv`` of each op is the one at workload seed ``seed``."""
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"commit": commit, "argv_seed": seed, "ops": ops}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def changes(reference: dict, found: dict[str, object]) -> list[tuple[str, object, object, str | None]]:
    """``(key, expected, found, known reason)`` for every reference verdict not reproduced.

    A key missing from ``found`` counts as changed; keys the reference
    does not have (new checks) are not compared.
    """
    out = []
    for key, expected in reference["verdicts"].items():
        got = found.get(key)
        if got != expected:
            out.append((key, expected, got, reference["known"].get(key)))
    return out
