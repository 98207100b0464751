"""In-memory spans around the public functions of each sasakiherm module.

The modules bind imported functions by name (``from .tensors import
require_spd``), so a wrapper replaces the function in every
``sasakiherm.*`` namespace that holds it, and is removed again by
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is modified.

A span is ``[name, start, end, parent, op, error, tag]``; ``parent`` is
the index of the enclosing span (-1 for the root span of an op) and
``tag`` is an optional sub-key such as the deformed factor's ``q``.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TARGETS = {
    "sasakian": (
        "d_homothetic_deform",
        "make_round_sphere_model",
        "make_space_form_model",
        "verify_sasakian_curvature_identities",
        "sasakian_structure_residuals",
        "classify_eta_einstein",
    ),
    "product": (
        "build_product_model",
        "build_product_curvature",
        "build_nabla_j",
        "build_product_metric",
        "build_product_ricci",
        "check_integrability",
        "check_weakly_star_einstein",
    ),
    "einstein": ("einstein_verdict", "calabi_eckmann_einstein_example"),
    "tensors": (
        "star_ricci_from_curvature",
        "contract_trace",
        "curvature_symmetry_residuals",
        "orthonormal_frame",
        "adapted_frame",
        "require_spd",
    ),
    "chart": (
        "compare_with_algebraic",
        "riemann_fd",
        "christoffels_fd",
        "partial_derivatives",
        "nijenhuis_fd",
        "FactorChart.fields",
        "FactorChart.metric_at",
    ),
    "cli": ("run", "emit_report"),
}

# tag functions receive the call's positional and keyword arguments
TAGS = {
    "sasakian.d_homothetic_deform": lambda args, kwargs: f"q{(args[0] if args else kwargs['model']).n}",
}

PER_DIMENSION = (
    "tensors.star_ricci_from_curvature",
    "product.check_integrability",
    "product.build_product_curvature",
    "sasakian.verify_sasakian_curvature_identities",
)
DIMENSIONS = (6, 10, 14, 22)
FIELD_EVALS = ("chart.FactorChart.fields", "chart.FactorChart.metric_at")
OP_SPAN = "op"


def _per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    calls_and_self = (
        "sasakian.d_homothetic_deform",
        "product.build_product_model",
        "product.build_product_metric",
        "tensors.contract_trace",
        "tensors.orthonormal_frame",
        "tensors.adapted_frame",
        "chart.compare_with_algebraic",
    )
    self_only = (
        "sasakian.make_round_sphere_model",
        "sasakian.make_space_form_model",
        "sasakian.verify_sasakian_curvature_identities",
        "sasakian.sasakian_structure_residuals",
        "sasakian.classify_eta_einstein",
        "product.build_product_curvature",
        "product.build_nabla_j",
        "product.check_integrability",
        "product.check_weakly_star_einstein",
        "einstein.calabi_eckmann_einstein_example",
        "tensors.star_ricci_from_curvature",
        "tensors.curvature_symmetry_residuals",
        "chart.riemann_fd",
        "chart.nijenhuis_fd",
        "cli.run",
        "cli.emit_report",
    )
    calls_only = (
        "product.build_product_ricci",
        "tensors.require_spd",
        "chart.christoffels_fd",
        "chart.partial_derivatives",
    )
    names = []
    for base in calls_and_self:
        names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
    names += [(f"{base}.self_s", "s") for base in self_only]
    names += [(f"{base}.calls", "count") for base in calls_only]
    names += [(f"sasakian.d_homothetic_deform.self_s.q{q}", "s") for q in range(1, 6)]
    names += [
        ("einstein.einstein_verdict.calls", "count"),
        ("einstein.einstein_verdict.self_s", "s"),
        ("einstein.einstein_verdict.errors", "count"),
        ("chart.field_evals", "count"),
        ("chart.field_evals_per_point", "evals/point"),
        ("cli.checks_emitted", "count"),
    ]
    names += [(f"{base}.self_s.N{n}", "s") for base in PER_DIMENSION for n in DIMENSIONS]
    names.append(("trace.overhead_frac", "ratio"))
    return names


PER_LAYER = _per_layer_names()


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # index of the op currently running
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag_fn=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_fn(args, kwargs) if tag_fn else None
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False, tag]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def call_op(self, index: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``index``."""
        self.op = index
        return self._wrap(OP_SPAN, fn)(*args)

    def install(self) -> None:
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "sasakiherm" or k.startswith("sasakiherm.")]
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(f"sasakiherm.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original, TAGS.get(name)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, TAGS.get(name))
                for namespace in namespaces:
                    for key in [k for k, v in vars(namespace).items() if v is original]:
                        self._patches.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_) in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines after a header naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "op", "error", "tag"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, op_dims: list[int], points: int, checks: int) -> dict[str, float]:
    """Aggregate the spans into every metric of :data:`PER_LAYER` but the overhead."""
    calls = defaultdict(int)
    errors = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, _, _, _, op, error, tag = span
        calls[name] += 1
        errors[name] += error
        self_s[name] += own
        if tag is not None:
            self_s[f"{name}.{tag}"] += own
        if name in PER_DIMENSION:
            self_s[f"{name}.N{op_dims[op]}"] += own
    field_evals = sum(calls[name] for name in FIELD_EVALS)
    values = {}
    for metric, _ in PER_LAYER:
        if metric == "chart.field_evals":
            values[metric] = field_evals
        elif metric == "chart.field_evals_per_point":
            values[metric] = field_evals / points if points else 0.0
        elif metric == "cli.checks_emitted":
            values[metric] = checks
        elif metric.endswith(".calls"):
            values[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".errors"):
            values[metric] = errors[metric[: -len(".errors")]]
        elif ".self_s" in metric:
            base, _, sub = metric.partition(".self_s")
            values[metric] = self_s[base + sub]
    return values
