"""Every function the benchmark tracer wraps still exists under its name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = [
    (module_name, attr) for module_name, attrs in load_targets().items() for attr in attrs
]


@pytest.mark.parametrize("module_name,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(f"sasakiherm.{module_name}")
    if "." in attr:
        # methods are patched on the class itself, so they must be defined there
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))
