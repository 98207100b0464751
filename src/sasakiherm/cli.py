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
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .chart import (
    FactorChart,
    SphereChart,
    StencilConfig,
    compare_with_algebraic,
    sample_chart_points,
)
from .einstein import (
    calabi_eckmann_einstein_example,
    einstein_verdict,
    star_scalar_prediction,
)
from .errors import GeometryError, InvalidParameterError
from .product import (
    HermitianParams,
    build_product_metric,
    build_product_model,
    build_product_ricci,
    check_integrability,
    check_not_kahler,
    check_weakly_star_einstein,
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
    ALGEBRAIC_TOL,
    contract_trace,
    curvature_symmetry_residuals,
    star_ricci_from_curvature,
)

BOOL_TOL = 0.5  # boolean checks encode pass as residual 0.0, fail as 1.0


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


def parse_grid(spec: str) -> list[float]:
    """``start:stop:step`` inclusive of both ends (within 1e-12), or one value."""
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
        return numbers
    start, stop, step = numbers
    if step <= 0.0 or stop < start:
        raise InvalidParameterError(f"bad grid spec {spec!r}")
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 1e-12:
            break
        values.append(round(value, 12))
        k += 1
    if not values:
        raise InvalidParameterError(f"empty grid {spec!r}")
    return values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _bool_check(name: str, anchor: str, ok: bool) -> CheckRecord:
    return CheckRecord(name, anchor, 0.0 if ok else 1.0, BOOL_TOL)


def _run_verify_factor(args) -> list[CheckRecord]:
    model = parse_factor_spec(args.factor)(args.p)
    tol = args.tol_algebraic
    checks = [
        CheckRecord(f"structure.{name}", "pointwise Sasakian structure relations", value, tol)
        for name, value in sasakian_structure_residuals(model).items()
    ]
    identities = verify_sasakian_curvature_identities(model)
    checks += [
        CheckRecord(
            "identity.phi_exchange",
            "R(X,Y,phiZ,W) - R(phiZ,X,Y,W) = the same in the space-form curvature of "
            "c = (2A - 3n + 1)/(n + 1), where Ric = A g + B eta(x)eta (space forms only)",
            identities.phi_exchange,
            tol,
        ),
        CheckRecord(
            "identity.traced_phi_exchange",
            "sum_i R(X,Y,phi e_i,e_i) - sum_i R(phi e_i,X,Y,e_i) = -3 Ric(X,phiY) - 3(2n-1) g(phiX,Y)",
            identities.traced_phi_exchange,
            tol,
        ),
        CheckRecord(
            "identity.phi_pair_trace",
            "sum_i R(X,Y,e_i,phi e_i) = 2 Ric(X,phiY) + 2(2n-1) g(phiX,Y)",
            identities.phi_pair_trace,
            tol,
        ),
        CheckRecord(
            "identity.shifted_phi_pair_trace",
            "sum_i R(X,phiY,e_i,phi e_i) = -2 Ric(X,Y) + 2(2n-1) g(X,Y) + 2 eta(X)eta(Y)",
            identities.shifted_phi_pair_trace,
            tol,
        ),
    ]
    fit = classify_eta_einstein(model)
    checks.append(
        CheckRecord(
            "eta_einstein_fit",
            f"ricci = {fit.g_coeff:.12g} g + {fit.eta_coeff:.12g} eta(x)eta",
            fit.residual,
            tol,
        )
    )
    return checks


def _build_factors(args) -> tuple[SasakianPointModel, SasakianPointModel]:
    factor = parse_factor_spec(args.factor)(args.p)
    factor_prime = parse_factor_spec(args.factor_prime)(args.q)
    return factor, factor_prime


def _run_verify_product(args) -> list[CheckRecord]:
    factor, factor_prime = _build_factors(args)
    params = HermitianParams(a=args.a, b=args.b)
    model = build_product_model(factor, factor_prime, params)
    tol = args.tol_algebraic
    checks = []
    hermitian = float(
        np.abs(model.j_bar.T @ model.g_bar @ model.j_bar - model.g_bar).max()
    )
    checks.append(CheckRecord("hermitian_compatibility", "g(JX,JY) = g(X,Y)", hermitian, tol))
    j_squared = float(np.abs(model.j_bar @ model.j_bar + np.eye(model.dim)).max())
    checks.append(CheckRecord("complex_structure_squares", "J^2 = -I", j_squared, tol))
    for name, value in curvature_symmetry_residuals(model.riemann_bar).items():
        checks.append(CheckRecord(f"curvature.{name}", "algebraic curvature symmetries", value, tol))
    checks.append(
        CheckRecord(
            "integrability",
            "g((nabla_X J)Y,Z) = g((nabla_JX J)JY,Z)",
            check_integrability(model),
            tol,
        )
    )
    ricci_trace = contract_trace(model.riemann_bar, model.g_bar)
    checks.append(
        CheckRecord(
            "ricci_matches_curvature_trace",
            "closed-form ricci equals metric trace of closed-form curvature",
            float(np.abs(ricci_trace - model.ricci_bar).max()),
            max(tol, 1e-11),
        )
    )
    star_trace = star_ricci_from_curvature(model.riemann_bar, model.j_bar, model.g_bar)
    checks.append(
        CheckRecord(
            "ricci_star_matches_trace_definition",
            "closed-form rho* equals tr(Z -> R(X,JZ)JY)",
            float(np.abs(star_trace - model.ricci_star_bar).max()),
            max(tol, 1e-11),
        )
    )
    witness = check_not_kahler(model)
    floor = min(1.0, args.a**2 + args.b**2)
    checks.append(
        _bool_check(
            "never_kahler",
            f"max |nabla J| = {witness:.6g} >= min(1, a^2+b^2) = {floor:.6g}",
            witness >= floor - tol,
        )
    )
    weakly, star_residual = check_weakly_star_einstein(model, tol)
    checks.append(
        _bool_check(
            "not_weakly_star_einstein",
            f"max |rho* - (tau*/N) g| = {star_residual:.6g} stays positive",
            not weakly,
        )
    )
    return checks


def _run_einstein(args) -> tuple[list[CheckRecord], dict]:
    factor, factor_prime = _build_factors(args)
    params = HermitianParams(a=args.a, b=args.b)
    verdict = einstein_verdict(factor, factor_prime, params, tol=args.tol_algebraic)
    reeb_ratio = 2.0 * args.p + 2.0 * params.a**2 * args.q
    g_bar = build_product_metric(factor, factor_prime, params)
    ricci_bar = build_product_ricci(factor, factor_prime, params)
    reeb_index = factor.dim - 1
    reeb_value = ricci_bar[reeb_index, reeb_index] / g_bar[reeb_index, reeb_index]
    checks = [
        CheckRecord(
            "einstein_residual",
            f"ricci = lambda g with lambda fitted as tau/N = {verdict.einstein_constant!r}",
            verdict.residual,
            args.tol_algebraic,
        ),
        _bool_check(
            "verdict_agreement",
            "structural conditions and residual fit concur",
            verdict.agreement,
        ),
        CheckRecord(
            "reeb_ricci_ratio",
            "ricci(xi,xi)/g(xi,xi) = 2p + 2 a^2 q",
            abs(reeb_value - reeb_ratio),
            args.tol_algebraic,
        ),
    ]
    return checks, {"lambda": verdict.einstein_constant}


def _run_example(args) -> tuple[list[CheckRecord], dict]:
    spec, model = calabi_eckmann_einstein_example(args.p, args.q)
    verdict = einstein_verdict(
        model.factor, model.factor_prime, model.params, tol=args.tol_algebraic
    )
    tol = args.tol_algebraic
    checks = [
        _bool_check("einstein", "the sphere-product example is Einstein", verdict.is_einstein),
        CheckRecord(
            "einstein_constant",
            "lambda = 2p",
            abs(verdict.einstein_constant - 2.0 * args.p),
            tol,
        ),
        CheckRecord(
            "star_scalar",
            "tau* = 4q(1 - p + q)",
            abs(model.tau_star_bar - star_scalar_prediction(args.p, args.q)),
            tol,
        ),
    ]
    weakly, _ = check_weakly_star_einstein(model, tol)
    checks.append(
        _bool_check("not_weakly_star_einstein", "rho* never proportional to g", not weakly)
    )
    info = {"c": spec.c, "alpha": spec.alpha, "b": spec.b, "lambda": verdict.einstein_constant}
    return checks, info


def _run_scan(args) -> list[CheckRecord]:
    a_values = parse_grid(args.a)
    b_values = [b for b in parse_grid(args.b) if b != 0.0]
    if not b_values:
        raise InvalidParameterError("b grid contains only the excluded value 0")
    factor, factor_prime = _build_factors(args)
    checks = []
    for a in a_values:
        for b in b_values:
            name = f"{args.check}[a={a:g},b={b:g}]"
            params = HermitianParams(a=a, b=b)
            if args.check == "einstein":
                verdict = einstein_verdict(factor, factor_prime, params, tol=args.tol_algebraic)
                checks.append(
                    CheckRecord(
                        name, "ricci = lambda g", verdict.residual, args.tol_algebraic
                    )
                )
            elif args.check == "integrability":
                model = build_product_model(factor, factor_prime, params)
                checks.append(
                    CheckRecord(
                        name,
                        "vanishing integrability defect",
                        check_integrability(model),
                        args.tol_algebraic,
                    )
                )
            else:
                raise InvalidParameterError(f"unknown scan check {args.check!r}")
    return checks


def _run_oracle_compare(args) -> list[CheckRecord]:
    if args.points < 1:
        raise InvalidParameterError(f"need at least one sample point, got --points {args.points}")
    spec, spec_prime = parse_factor_spec(args.factor), parse_factor_spec(args.factor_prime)
    factor_chart = FactorChart(SphereChart(2 * args.p + 2), alpha=spec.chart_alpha)
    factor_chart_prime = FactorChart(SphereChart(2 * args.q + 2), alpha=spec_prime.chart_alpha)
    factor, factor_prime = spec(args.p), spec_prime(args.q)
    params = HermitianParams(a=args.a, b=args.b)
    model = build_product_model(factor, factor_prime, params)
    cfg = StencilConfig(step=args.step)
    rng = np.random.default_rng(args.seed)
    dim = factor_chart.dim + factor_chart_prime.dim
    points = sample_chart_points(rng, dim, count=args.points)
    tol_fd = args.tol_fd
    tol_first = min(tol_fd, 1e-5)
    checks = []
    for index, point in enumerate(points):
        comparison = compare_with_algebraic(
            factor_chart, factor_chart_prime, params, model, point, cfg
        )
        checks.append(
            CheckRecord(
                f"riemann[{index}]", "stencil curvature vs closed form", comparison.riemann, tol_fd
            )
        )
        checks.append(
            CheckRecord(f"ricci[{index}]", "stencil ricci vs closed form", comparison.ricci, tol_fd)
        )
        checks.append(
            CheckRecord(
                f"ricci_star[{index}]",
                "stencil star-ricci vs closed form",
                comparison.ricci_star,
                tol_fd,
            )
        )
        checks.append(
            CheckRecord(
                f"connection[{index}]",
                "product connection blocks vs factor prediction",
                comparison.connection,
                tol_first,
            )
        )
        checks.append(
            CheckRecord(
                f"nabla_j[{index}]",
                "stencil nabla J vs closed form",
                comparison.nabla_j,
                tol_first,
            )
        )
        checks.append(
            CheckRecord(
                f"nijenhuis[{index}]",
                "vanishing Nijenhuis tensor",
                comparison.nijenhuis,
                tol_first,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_params: bool = True) -> None:
    parser.add_argument("--p", type=int, default=1, help="phi-pairs of the first factor")
    parser.add_argument("--q", type=int, default=1, help="phi-pairs of the second factor")
    if with_params:
        parser.add_argument("--a", type=float, default=0.0)
        parser.add_argument("--b", type=float, default=1.0)
    parser.add_argument("--factor", default="round",
                        help="round | space-form:<c> | deformed:<alpha>")
    parser.add_argument("--factor-prime", default="round", dest="factor_prime")
    parser.add_argument("--tol-algebraic", type=float, default=ALGEBRAIC_TOL, dest="tol_algebraic")
    parser.add_argument("--tol-fd", type=float, default=1e-4, dest="tol_fd")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasakiherm",
        description="Verify Hermitian structures on products of Sasakian manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("verify-factor", help="Sasakian structure and identity suite")
    _add_common(p_factor, with_params=False)

    p_product = sub.add_parser("verify-product", help="product structure checks")
    _add_common(p_product)

    p_einstein = sub.add_parser("einstein", help="Einstein verdict for one parameter point")
    _add_common(p_einstein)

    p_scan = sub.add_parser("scan", help="grid scan over (a, b)")
    _add_common(p_scan, with_params=False)
    p_scan.add_argument("--a", default="0", help="value or start:stop:step")
    p_scan.add_argument("--b", default="1", help="value or start:stop:step; 0 cells are skipped")
    p_scan.add_argument("--check", choices=("einstein", "integrability"), default="einstein")

    p_oracle = sub.add_parser("oracle-compare", help="finite-difference oracle comparison")
    _add_common(p_oracle)
    p_oracle.add_argument("--points", type=int, default=2)
    p_oracle.add_argument("--step", type=float, default=1e-3)

    p_example = sub.add_parser("example", help="build and verify a sphere-product Einstein example")
    _add_common(p_example, with_params=False)
    return parser


def _config_echo(args) -> dict:
    skip = {"out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run(args) -> Report:
    """Execute one parsed command and collect its report."""
    for flag, tol in (("--tol-algebraic", args.tol_algebraic), ("--tol-fd", args.tol_fd)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise InvalidParameterError(f"tolerances must be positive and finite, got {flag} {tol}")
    start = time.perf_counter()
    report = Report(config=_config_echo(args))
    try:
        if args.command == "verify-factor":
            report.checks = _run_verify_factor(args)
        elif args.command == "verify-product":
            report.checks = _run_verify_product(args)
        elif args.command == "einstein":
            report.checks, report.info = _run_einstein(args)
        elif args.command == "scan":
            report.checks = _run_scan(args)
        elif args.command == "oracle-compare":
            report.checks = _run_oracle_compare(args)
        elif args.command == "example":
            report.checks, report.info = _run_example(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise InvalidParameterError(f"unknown command {args.command!r}")
    except GeometryError:
        raise
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        # numerical domain failures become failed records, not crashes
        report.checks.append(
            CheckRecord("numerical_domain", f"computation failed: {exc}", math.inf, 0.0)
        )
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
