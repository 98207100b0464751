"""Command-line front end.

Builds factor and product structures from flags, runs the identity
suites, Einstein verdicts, parameter scans, and oracle comparisons,
and emits machine-readable reports.

Report schema (stable keys)::

    {"config": {...},
     "checks": [{"name", "anchor", "residual", "tolerance", "pass"}, ...],
     "summary": {"pass": n, "fail": n, "wall_time_ms": t}}

``anchor`` states the mathematical identity a check verifies.  CSV
output carries the same per-check columns.  Exit status is 0 exactly
when every check passes; bad flags exit with the usage status 2.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import itertools
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .einstein import (
    calabi_eckmann_einstein_example,
    einstein_verdict,
    star_scalar_prediction,
)
from .errors import GeometryError, InvalidParameterError, SingularMetricError
from .product import (
    HermitianParams,
    build_product_model,
    check_integrability,
    check_not_kahler,
    check_weakly_star_einstein,
    integrability_residuals,
    product_metric_inverse,
)
from .sasakian import (
    SasakianPointModel,
    classify_eta_einstein,
    d_homothetic_deform,
    make_round_sphere_model,
    make_space_form_model,
    sasakian_structure_residuals,
    verify_sasakian_curvature_identities,
)
from .tensors import (
    TOLERANCES,
    contract_trace,
    curvature_symmetry_residuals,
    star_ricci_from_curvature,
)


@dataclass
class CheckRecord:
    name: str
    anchor: str
    residual: float
    tolerance: float

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


@dataclass
class Report:
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    wall_time_ms: float = 0.0
    info: dict = field(default_factory=dict)  # human summary extras; not serialized

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "summary": {
                "pass": passed,
                "fail": len(self.checks) - passed,
                "wall_time_ms": self.wall_time_ms,
            },
        }


def emit_report(report: Report, fmt: str) -> str:
    """Serialize a report; JSON and CSV both round-trip their numbers."""
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "anchor", "residual", "tolerance", "pass"])
        for check in report.checks:
            writer.writerow(
                [check.name, check.anchor, repr(float(check.residual)),
                 repr(float(check.tolerance)), check.passed]
            )
        return buf.getvalue()
    raise InvalidParameterError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# factor and grid parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorSpec:
    """A parsed factor flag: ``round``, ``space-form`` with ``value = c``, or
    ``deformed`` with ``value = alpha``.

    Calling it builds the factor model with ``size`` phi-pairs;
    :attr:`chart_alpha` is the deformation parameter of the sphere chart
    that realizes the same factor.
    """

    kind: str
    value: float = 1.0

    def __call__(self, size: int) -> SasakianPointModel:
        if self.kind == "space-form":
            return make_space_form_model(size, self.value)
        model = make_round_sphere_model(size)
        return d_homothetic_deform(model, self.value) if self.kind == "deformed" else model

    @property
    def chart_alpha(self) -> float:
        if self.kind != "space-form":
            return self.value
        if self.value <= -3.0:
            raise InvalidParameterError(
                f"space form c={self.value} has no sphere chart realization (needs c > -3)"
            )
        return 4.0 / (self.value + 3.0)


def parse_factor_spec(spec: str) -> FactorSpec:
    """Parse ``round``, ``space-form:<c>`` or ``deformed:<alpha>``."""
    if spec == "round":
        return FactorSpec("round")
    kind, sep, text = spec.partition(":")
    if not sep or kind not in ("space-form", "deformed"):
        raise InvalidParameterError(f"unknown factor spec {spec!r}")
    try:
        value = float(text)
    except ValueError:
        raise InvalidParameterError(f"factor spec {spec!r} needs a number after ':'") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"factor spec {spec!r} needs a finite number, got {text}")
    return FactorSpec(kind, value)


def _grid(spec: str) -> tuple[int, Callable[[int], float]]:
    """The size of a grid spec, ``start:stop:step`` or one value, and its ``k``-th value.

    The grid is counted and stepped exactly, in decimal arithmetic on the
    numbers as typed: its values are ``start + k * step`` for ``k = 0, 1,
    ...`` up to ``stop``, which is included only when it lies on the grid.
    Each value is rounded to a float once, at the end.
    """
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise InvalidParameterError(f"grid spec must be start:stop:step, got {spec!r}")
    try:
        numbers = [float(x) for x in parts]
    except ValueError:
        raise InvalidParameterError(f"grid spec {spec!r} needs numbers") from None
    if not all(math.isfinite(x) for x in numbers):
        raise InvalidParameterError(f"grid spec {spec!r} needs finite numbers")
    if len(numbers) == 1:
        return 1, lambda k: numbers[0]
    start, stop, step = (decimal.Decimal(x) for x in parts)
    if numbers[2] <= 0.0 or stop < start:  # a step that is 0.0 as a float too
        raise InvalidParameterError(f"bad grid spec {spec!r}")
    exact = decimal.Context(prec=decimal.MAX_PREC)  # +, * and // of finite decimals never round
    count = int(exact.divide_int(exact.subtract(stop, start), step)) + 1
    return count, lambda k: float(exact.fma(k, step, start))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check(name: str, anchor: str, residual: float, tier: str = "algebraic") -> CheckRecord:
    """A check judged against the tolerance of its tier in :data:`TOLERANCES`."""
    return CheckRecord(name, anchor, residual, TOLERANCES[tier])


def _bool_check(name: str, anchor: str, ok: bool) -> CheckRecord:
    return _check(name, anchor, 0.0 if ok else 1.0, "yes_no")


def _table_checks(table, values, name: str) -> list[CheckRecord]:
    """One check per ``(attribute, anchor, tolerance tier)`` row, read off ``values``.

    ``name.format(attribute)`` names the check.
    """
    return [_check(name.format(attr), anchor, getattr(values, attr), tier)
            for attr, anchor, tier in table]


_IDENTITY_CHECKS = (
    ("phi_exchange",
     "R(X,Y,phiZ,W) - R(phiZ,X,Y,W) = the same in the space-form curvature of "
     "c = (2A - 3n + 1)/(n + 1), where Ric = A g + B eta(x)eta (space forms only)",
     "algebraic"),
    ("traced_phi_exchange",
     "sum_i R(X,Y,phi e_i,e_i) - sum_i R(phi e_i,X,Y,e_i) = -3 Ric(X,phiY) - 3(2n-1) g(phiX,Y)",
     "algebraic"),
    ("phi_pair_trace",
     "sum_i R(X,Y,e_i,phi e_i) = 2 Ric(X,phiY) + 2(2n-1) g(phiX,Y)",
     "algebraic"),
    ("shifted_phi_pair_trace",
     "sum_i R(X,phiY,e_i,phi e_i) = -2 Ric(X,Y) + 2(2n-1) g(X,Y) + 2 eta(X)eta(Y)",
     "algebraic"),
)

# curvature-level residuals come from second-derivative stencils, the rest
# from first-derivative ones, which resolve a tighter tolerance
_ORACLE_CHECKS = (
    ("riemann", "stencil curvature vs closed form", "second"),
    ("ricci", "stencil ricci vs closed form", "second"),
    ("ricci_star", "stencil star-ricci vs closed form", "second"),
    ("connection", "product connection blocks vs factor prediction", "first"),
    ("nabla_j", "stencil nabla J vs closed form", "first"),
    ("nijenhuis", "vanishing Nijenhuis tensor", "first"),
)


def _run_verify_factor(args) -> tuple[list[CheckRecord], dict]:
    model = parse_factor_spec(args.factor)(args.p)
    checks = [
        _check(f"structure.{name}", "pointwise Sasakian structure relations", value)
        for name, value in sasakian_structure_residuals(model).items()
    ]
    checks += _table_checks(
        _IDENTITY_CHECKS, verify_sasakian_curvature_identities(model), name="identity.{}"
    )
    fit = classify_eta_einstein(model)
    anchor = f"ricci = {fit.g_coeff:.12g} g + {fit.eta_coeff:.12g} eta(x)eta"
    checks.append(_check("eta_einstein_fit", anchor, fit.residual))
    return checks, {}


def _build_factors(args) -> tuple[SasakianPointModel, SasakianPointModel]:
    factor = parse_factor_spec(args.factor)(args.p)
    factor_prime = parse_factor_spec(args.factor_prime)(args.q)
    return factor, factor_prime


def _run_verify_product(args) -> tuple[list[CheckRecord], dict]:
    factor, factor_prime = _build_factors(args)
    model = build_product_model(factor, factor_prime, HermitianParams(a=args.a, b=args.b))
    g_bar, j_bar = model.g_bar, model.j_bar
    g_inv = product_metric_inverse(factor, factor_prime, model.params)
    checks = [
        _check("hermitian_compatibility", "g(JX,JY) = g(X,Y)",
               np.abs(j_bar.T @ g_bar @ j_bar - g_bar).max()),
        _check("complex_structure_squares", "J^2 = -I",
               np.abs(j_bar @ j_bar + np.eye(model.dim)).max()),
    ]
    checks += [
        _check(f"curvature.{name}", "algebraic curvature symmetries", value)
        for name, value in curvature_symmetry_residuals(model.riemann_bar).items()
    ]
    checks += [
        _check("integrability", "g((nabla_X J)Y,Z) = g((nabla_JX J)JY,Z)",
               check_integrability(model)),
        _check("ricci_matches_curvature_trace",
               "closed-form ricci equals metric trace of closed-form curvature",
               np.abs(contract_trace(model.riemann_bar, g_inv) - model.ricci_bar).max(),
               "trace"),
        _check("ricci_star_matches_trace_definition",
               "closed-form rho* equals tr(Z -> R(X,JZ)JY)",
               np.abs(star_ricci_from_curvature(model.riemann_bar, j_bar, g_inv)
                      - model.ricci_star_bar).max(),
               "trace"),
    ]
    witness = check_not_kahler(model)
    floor = min(1.0, args.a**2 + args.b**2)
    weakly, star_residual = check_weakly_star_einstein(model)
    checks += [
        _bool_check("never_kahler",
                    f"max |nabla J| = {witness:.6g} >= min(1, a^2+b^2) = {floor:.6g}",
                    witness >= floor - TOLERANCES["algebraic"]),
        _bool_check("not_weakly_star_einstein",
                    f"max |rho* - (tau*/N) g| = {star_residual:.6g} stays positive",
                    not weakly),
    ]
    return checks, {}


def _run_einstein(args) -> tuple[list[CheckRecord], dict]:
    factor, factor_prime = _build_factors(args)
    params = HermitianParams(a=args.a, b=args.b)
    verdict = einstein_verdict(factor, factor_prime, params)
    # g(xi, xi) = 1 in the product metric, as in the first factor's standard frame
    reeb = factor.dim - 1
    reeb_value = verdict.ricci_bar[reeb, reeb]
    checks = [
        _check("einstein_residual",
               f"ricci = lambda g with lambda fitted as tau/N = {verdict.einstein_constant!r}",
               verdict.residual),
        _bool_check("verdict_agreement", "structural conditions and residual fit concur",
                    verdict.agreement),
        _check("reeb_ricci_ratio", "ricci(xi,xi)/g(xi,xi) = 2p + 2 a^2 q",
               abs(reeb_value - (2.0 * args.p + 2.0 * params.a**2 * args.q))),
    ]
    return checks, {"lambda": verdict.einstein_constant}


def _run_example(args) -> tuple[list[CheckRecord], dict]:
    spec, model = calabi_eckmann_einstein_example(args.p, args.q)
    verdict = einstein_verdict(model.factor, model.factor_prime, model.params)
    weakly, _ = check_weakly_star_einstein(model)
    checks = [
        _bool_check("einstein", "the sphere-product example is Einstein", verdict.is_einstein),
        _check("einstein_constant", "lambda = 2p", abs(verdict.einstein_constant - 2.0 * args.p)),
        _check("star_scalar", "tau* = 4q(1 - p + q)",
               abs(model.tau_star_bar - star_scalar_prediction(args.p, args.q))),
        _bool_check("not_weakly_star_einstein", "rho* never proportional to g", not weakly),
    ]
    info = {"c": spec.c, "alpha": spec.alpha, "b": spec.b, "lambda": verdict.einstein_constant}
    return checks, info


_SCAN_CHECKS = {  # --check value -> (anchor, residuals of a grid of (a, b) cells)
    "einstein": (
        "ricci = lambda g",
        lambda factor, factor_prime, cells:
            [verdict.residual for verdict in einstein_verdict(factor, factor_prime, cells)],
    ),
    "integrability": ("vanishing integrability defect", integrability_residuals),
}


MAX_SCAN_CELLS = 10**5
# Each sample point costs one oracle comparison: about 6 ms at N = 6 and
# 0.7 s at N = 22, nearly all of it in the unordered star-Ricci trace.
MAX_ORACLE_POINTS = 10**4
# At this bound one rank-4 tensor of the product (N = 42) takes 25 MB.
MAX_PHI_PAIRS = 10


def _run_scan(args) -> tuple[list[CheckRecord], dict]:
    (a_count, a_value), (b_count, b_value) = _grid(args.a), _grid(args.b)
    count = a_count * b_count
    if count > MAX_SCAN_CELLS:
        raise InvalidParameterError(
            f"scan grid has {decimal.Decimal(count):.6g} cells, more than {MAX_SCAN_CELLS}"
        )
    a_values = [a_value(k) for k in range(a_count)]
    b_values = [b for b in map(b_value, range(b_count)) if b != 0.0]
    if not b_values:
        raise InvalidParameterError("b grid contains only the excluded value 0")
    factor, factor_prime = _build_factors(args)
    anchor, residuals = _SCAN_CHECKS[args.check]
    # the cells before the first invalid or singular one are decided first,
    # so that the error raised is that of the first failing cell in grid order
    cells, invalid = [], None
    try:
        for a, b in itertools.product(a_values, b_values):
            cells.append(HermitianParams(a=a, b=b))
    except (InvalidParameterError, SingularMetricError) as exc:
        invalid = exc
    checks = [
        _check(f"{args.check}[a={_cell_text(params.a)},b={_cell_text(params.b)}]", anchor, value)
        for params, value in zip(cells, residuals(factor, factor_prime, cells))
    ]
    if invalid is not None:
        raise invalid
    return checks, {}


def _cell_text(value: float) -> str:
    """``value`` in ``:g`` format where that reads back as the same float, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _run_oracle_compare(args) -> tuple[list[CheckRecord], dict]:
    # the chart layer is imported here only, so that no other command loads it
    from .chart import (
        FactorChart,
        SphereChart,
        StencilConfig,
        compare_with_algebraic,
        sample_chart_points,
    )

    if args.points < 1:
        raise InvalidParameterError(f"need at least one sample point, got --points {args.points}")
    if args.points > MAX_ORACLE_POINTS:
        raise InvalidParameterError(
            f"--points {args.points} is more than {MAX_ORACLE_POINTS} sample points"
        )
    if args.seed < 0:
        raise InvalidParameterError(f"seed must be non-negative, got --seed {args.seed}")
    spec, spec_prime = parse_factor_spec(args.factor), parse_factor_spec(args.factor_prime)
    factor, factor_prime = spec(args.p), spec_prime(args.q)  # validates the phi-pair counts
    factor_chart = FactorChart(SphereChart(2 * args.p + 2), alpha=spec.chart_alpha)
    factor_chart_prime = FactorChart(SphereChart(2 * args.q + 2), alpha=spec_prime.chart_alpha)
    params = HermitianParams(a=args.a, b=args.b)
    model = build_product_model(factor, factor_prime, params)
    rng = np.random.default_rng(args.seed)
    dim = factor_chart.dim + factor_chart_prime.dim
    checks = []
    for index, point in enumerate(sample_chart_points(rng, dim, count=args.points)):
        comparison = compare_with_algebraic(
            factor_chart, factor_chart_prime, params, model, point, StencilConfig()
        )
        checks += _table_checks(_ORACLE_CHECKS, comparison, name=f"{{}}[{index}]")
    return checks, {}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


_FLAGS = {  # key -> (option string, add_argument keywords)
    "p": ("--p", dict(type=int, default=1, help="phi-pairs of the first factor")),
    "q": ("--q", dict(type=int, default=1, help="phi-pairs of the second factor")),
    "a": ("--a", dict(type=float, default=0.0)),
    "b": ("--b", dict(type=float, default=1.0)),
    "a-grid": ("--a", dict(default="0", help="value or start:stop:step")),
    "b-grid": ("--b", dict(default="1", help="value or start:stop:step; 0 cells are skipped")),
    "check": ("--check", dict(choices=tuple(_SCAN_CHECKS), default="einstein")),
    "factor": ("--factor", dict(default="round", help="round | space-form:<c> | deformed:<alpha>")),
    "factor-prime": ("--factor-prime", dict(default="round", dest="factor_prime")),
    "seed": ("--seed", dict(type=int, default=0)),
    "points": ("--points", dict(type=int, default=2)),
    "format": ("--format", dict(choices=("json", "csv"), default="json", dest="fmt")),
    "out": ("--out", dict(default=None, help="write the report here instead of stdout")),
}

_OUTPUT = ("format", "out")
_PRODUCT = ("p", "q", "factor", "factor-prime")

# command -> (help, the _FLAGS keys it reads, runner returning (checks, info))
COMMANDS = {
    "verify-factor": ("Sasakian structure and identity suite",
                      ("p", "factor", *_OUTPUT), _run_verify_factor),
    "verify-product": ("product structure checks",
                       (*_PRODUCT, "a", "b", *_OUTPUT), _run_verify_product),
    "einstein": ("Einstein verdict for one parameter point",
                 (*_PRODUCT, "a", "b", *_OUTPUT), _run_einstein),
    "scan": ("grid scan over (a, b)",
             (*_PRODUCT, "a-grid", "b-grid", "check", *_OUTPUT), _run_scan),
    "oracle-compare": ("finite-difference oracle comparison",
                       (*_PRODUCT, "a", "b", "seed", "points", *_OUTPUT), _run_oracle_compare),
    "example": ("build and verify a sphere-product Einstein example",
                ("p", "q", *_OUTPUT), _run_example),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sasakiherm",
        description="Verify Hermitian structures on products of Sasakian manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key in flags:
            option, keywords = _FLAGS[key]
            command.add_argument(option, **keywords)
    return parser


def _config_echo(args) -> dict:
    skip = {"out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run(args) -> Report:
    """Execute one parsed command and collect its report."""
    start = time.perf_counter()
    for key in ("p", "q"):
        size = getattr(args, key, None)
        if size is not None and size > MAX_PHI_PAIRS:
            raise InvalidParameterError(f"--{key} {size} is more than {MAX_PHI_PAIRS} phi-pairs")
    report = Report(config=_config_echo(args))
    try:
        report.checks, report.info = COMMANDS[args.command][2](args)
    except GeometryError:
        raise
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        # numerical domain failures become failed records, not crashes
        report.checks.append(_bool_check("numerical_domain", f"computation failed: {exc}", False))
    report.wall_time_ms = 1000.0 * (time.perf_counter() - start)
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    serialized = emit_report(report, args.fmt)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(serialized)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        summary = report.as_dict()["summary"]
        extras = "".join(f" {k}={v:g}" for k, v in report.info.items())
        print(
            f"{args.command}: {summary['pass']} passed, {summary['fail']} failed{extras}"
            f" -> {args.out}"
        )
    else:
        sys.stdout.write(serialized)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
