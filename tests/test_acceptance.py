"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to
see them) and asserting at the stated tolerance.  Criterion 7's
algebraic clause covers space forms of every phi-sectional curvature c:
the identity suite's right-hand sides carry the Ricci tensor (and, for
the untraced phi-exchange identity, the space-form curvature at the c
read off the Ricci tensor), so they hold at every c, not only at c = 1
(see tests/test_sasakian.py::TestCurvatureIdentitySuite).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sasakiherm.chart import (
    FactorChart,
    SphereChart,
    StencilConfig,
    christoffels_fd,
    compare_with_algebraic,
    nijenhuis_fd,
    partial_derivatives,
    product_field_functions,
    riemann_fd,
    sample_chart_points,
)
from sasakiherm.einstein import (
    calabi_eckmann_einstein_example,
    einstein_verdict,
    required_eta_einstein_coefficients,
    star_scalar_prediction,
)
from sasakiherm.product import (
    HermitianParams,
    build_product_model,
    check_integrability,
    check_not_kahler,
    check_weakly_star_einstein,
    scalar_curvatures,
)
from sasakiherm.sasakian import (
    classify_eta_einstein,
    d_homothetic_deform,
    make_round_sphere_model,
    make_space_form_model,
    space_form_ricci_coefficients,
    space_form_ricci_exact,
    verify_sasakian_curvature_identities,
)

CFG = StencilConfig()

CRITERION_1_GRID = [
    (p, q, a, b)
    for p in (1, 2)
    for q in (1, 2)
    for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    for b in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
]


def _report(name, ok, detail=""):
    suffix = f": {detail}" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")


def _criterion_1_models():
    cache = {}
    for p, q, a, b in CRITERION_1_GRID:
        factors = cache.setdefault((p, q), (make_round_sphere_model(p), make_round_sphere_model(q)))
        yield (p, q, a, b), build_product_model(factors[0], factors[1], HermitianParams(a, b))


def test_criterion_1_integrability():
    start = time.perf_counter()
    worst_algebraic = 0.0
    for _, model in _criterion_1_models():
        worst_algebraic = max(worst_algebraic, check_integrability(model))

    worst_fd = 0.0
    rng = np.random.default_rng(101)
    for p, q in ((1, 1), (2, 1)):
        charts = (FactorChart(SphereChart(2 * p + 2)), FactorChart(SphereChart(2 * q + 2)))
        _, j_fn = product_field_functions(*charts, HermitianParams(0.5, 1.5))
        dim = charts[0].dim + charts[1].dim
        for point in sample_chart_points(rng, dim, count=20):
            worst_fd = max(worst_fd, float(np.abs(nijenhuis_fd(j_fn, point, CFG)).max()))
    elapsed = time.perf_counter() - start

    ok = worst_algebraic <= 1e-12 and worst_fd <= 1e-5 and elapsed < 60.0
    _report(
        "criterion 1 (integrability)",
        ok,
        f"algebraic {worst_algebraic:.2e} <= 1e-12, Nijenhuis FD {worst_fd:.2e} <= 1e-5, "
        f"{elapsed:.1f}s < 60s",
    )
    assert worst_algebraic <= 1e-12
    assert worst_fd <= 1e-5
    assert elapsed < 60.0


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    chart = FactorChart(SphereChart(4))
    factor = make_round_sphere_model(1)
    worst = {"riemann": 0.0, "ricci": 0.0, "ricci_star": 0.0, "connection": 0.0, "nabla_j": 0.0}
    for a in (0.0, 0.5):
        for b in (1.0, 1.5):
            params = HermitianParams(a, b)
            model = build_product_model(factor, factor, params)
            for point in sample_chart_points(rng, 6, count=2):
                comparison = compare_with_algebraic(chart, chart, params, model, point, CFG)
                for key in worst:
                    worst[key] = max(worst[key], getattr(comparison, key))
    elapsed = time.perf_counter() - start

    curvature_ok = all(worst[key] <= 1e-4 for key in ("riemann", "ricci", "ricci_star"))
    first_order_ok = all(worst[key] <= 1e-5 for key in ("connection", "nabla_j"))
    ok = curvature_ok and first_order_ok and elapsed < 120.0
    _report(
        "criterion 2 (oracle equivalence)",
        ok,
        f"curvature {max(worst[k] for k in ('riemann', 'ricci', 'ricci_star')):.2e} <= 1e-4, "
        f"first-order {max(worst[k] for k in ('connection', 'nabla_j')):.2e} <= 1e-5, "
        f"{elapsed:.1f}s < 120s",
    )
    assert curvature_ok, worst
    assert first_order_ok, worst
    assert elapsed < 120.0


def _random_factor(rng, size, q_over_p):
    kind = rng.integers(0, 4)
    if kind == 0:
        return make_round_sphere_model(size)
    if kind == 1:
        return make_space_form_model(size, float(rng.uniform(-2.0, 8.0)))
    if kind == 2:
        return d_homothetic_deform(make_round_sphere_model(size), float(rng.uniform(0.4, 2.5)))
    return d_homothetic_deform(make_round_sphere_model(size), q_over_p)


def test_criterion_3_einstein_iff():
    rng = np.random.default_rng(303)
    tol = 1e-12
    samples = 0
    einstein_samples = 0
    worst_lambda_dev = 0.0
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            b_values = (0.7, 1.0, math.sqrt(p / q), 2.0)
            for a in (0.0, 0.3, -0.3, 1.0, -1.0):
                for b in b_values:
                    for _ in range(2):
                        factor = _random_factor(rng, p, q / p)
                        factor_prime = _random_factor(rng, q, q / p)
                        params = HermitianParams(a, b)
                        verdict = einstein_verdict(factor, factor_prime, params)
                        assert verdict.agreement
                        # independent characterization of the Einstein set
                        g_req, eta_req = required_eta_einstein_coefficients(p, q)
                        prime_fit = classify_eta_einstein(factor_prime)
                        expected = (
                            a == 0.0
                            and abs(p - b * b * q) <= tol
                            and classify_eta_einstein(factor).residual <= tol
                            and abs(classify_eta_einstein(factor).g_coeff - 2 * p) <= tol
                            and prime_fit.residual <= tol
                            and abs(prime_fit.g_coeff - g_req) <= tol
                            and abs(prime_fit.eta_coeff - eta_req) <= tol
                        )
                        assert verdict.is_einstein == expected, (p, q, a, b)
                        samples += 1
                        if verdict.is_einstein:
                            einstein_samples += 1
                            worst_lambda_dev = max(
                                worst_lambda_dev, abs(verdict.einstein_constant - 2.0 * p)
                            )
                            assert verdict.residual <= tol
    # guarantee both sides of the equivalence were exercised
    for p, q in ((1, 1), (2, 1), (3, 2)):
        factor = make_round_sphere_model(p)
        factor_prime = d_homothetic_deform(make_round_sphere_model(q), q / p)
        verdict = einstein_verdict(factor, factor_prime, HermitianParams(0.0, math.sqrt(p / q)))
        assert verdict.is_einstein
        samples += 1
        einstein_samples += 1
        worst_lambda_dev = max(worst_lambda_dev, abs(verdict.einstein_constant - 2.0 * p))

    ok = samples >= 200 and einstein_samples > 0 and worst_lambda_dev <= 1e-12
    _report(
        "criterion 3 (Einstein iff)",
        ok,
        f"{samples} samples, {einstein_samples} Einstein, "
        f"max |lambda - 2p| = {worst_lambda_dev:.2e} <= 1e-12",
    )
    assert samples >= 200
    assert einstein_samples > 0
    assert worst_lambda_dev <= 1e-12


def test_criterion_4_sphere_product_examples():
    worst_residual = 0.0
    for p in range(1, 6):
        for q in range(1, 6):
            spec, model = calabi_eckmann_einstein_example(p, q)
            assert spec.c == pytest.approx(4.0 * p / q - 3.0, abs=1e-13)
            assert spec.alpha == pytest.approx(q / p, abs=1e-13)
            verdict = einstein_verdict(model.factor, model.factor_prime, model.params)
            assert verdict.is_einstein, (p, q)
            assert abs(verdict.einstein_constant - 2.0 * p) <= 1e-12
            worst_residual = max(worst_residual, verdict.residual)

    _, example21 = calabi_eckmann_einstein_example(2, 1)
    flagship = float(np.abs(example21.ricci_bar - 4.0 * example21.g_bar).max())

    ok = worst_residual <= 1e-12 and flagship <= 1e-12
    _report(
        "criterion 4 (sphere-product examples)",
        ok,
        f"25 examples Einstein, worst residual {worst_residual:.2e}, "
        f"(2,1) |ricci - 4 g| = {flagship:.2e} <= 1e-12",
    )
    assert worst_residual <= 1e-12
    assert flagship <= 1e-12


def test_criterion_5_never_weakly_star_einstein():
    failures = []
    for key, model in _criterion_1_models():
        weakly, _ = check_weakly_star_einstein(model)
        if weakly:
            failures.append(key)
        # the witness: the star-Ricci form annihilates the Reeb direction
        # while the metric does not
        reeb = model.factor.dim - 1
        assert model.ricci_star_bar[reeb, reeb] == 0.0
        assert model.g_bar[reeb, reeb] == 1.0
    for p in range(1, 6):
        for q in range(1, 6):
            _, model = calabi_eckmann_einstein_example(p, q)
            weakly, _ = check_weakly_star_einstein(model)
            if weakly:
                failures.append((p, q))

    ok = not failures
    _report(
        "criterion 5 (never weakly star-Einstein)",
        ok,
        f"{len(CRITERION_1_GRID)} grid points + 25 examples all non-weakly-star-Einstein",
    )
    assert not failures, failures


def test_criterion_6_star_scalar_curvature():
    worst = 0.0
    for p in range(1, 6):
        for q in range(1, 6):
            _, model = calabi_eckmann_einstein_example(p, q)
            _, tau_star = scalar_curvatures(model)
            worst = max(worst, abs(tau_star - star_scalar_prediction(p, q)))
    spot = {
        (2, 1): 0.0,
        (1, 1): 4.0,
        (1, 2): 16.0,
    }
    spot_ok = all(star_scalar_prediction(p, q) == value for (p, q), value in spot.items())

    ok = worst <= 1e-12 and spot_ok
    _report(
        "criterion 6 (star-scalar curvature)",
        ok,
        f"max |tau* - 4q(1-p+q)| = {worst:.2e} <= 1e-12; spot values 0/4/16 ok",
    )
    assert worst <= 1e-12
    assert spot_ok


def _factor_chart_cases():
    cases = [(f"round sphere p={p}", FactorChart(SphereChart(2 * p + 2))) for p in (1, 2, 3)]
    for q in (1, 2, 3):
        for c in (-1.0, 1.0, 3.0, 5.0, 7.0):
            cases.append(
                (f"space form q={q} c={c}", FactorChart(SphereChart(2 * q + 2), alpha=4.0 / (c + 3.0)))
            )
    return cases


def _field_identity_residual(factor_chart, rng, points=2):
    """Max residual of the first-order structure identities, stencil-differentiated."""
    worst = 0.0
    dim = factor_chart.dim
    ident = np.eye(dim)
    for point in sample_chart_points(rng, dim, count=points):
        fields = factor_chart.fields(point)
        gamma = christoffels_fd(factor_chart.metric_field(), point, CFG)
        dxi = partial_derivatives(lambda v: factor_chart.fields(v).xi, point, CFG)
        nabla_xi = np.einsum("im->mi", dxi) + np.einsum("mil,l->mi", gamma, fields.xi)
        worst = max(worst, float(np.abs(nabla_xi + fields.phi).max()))
        deta = partial_derivatives(lambda v: factor_chart.fields(v).eta, point, CFG)
        nabla_eta = deta - np.einsum("lij,l->ij", gamma, fields.eta)
        worst = max(worst, float(np.abs(nabla_eta + fields.phi.T @ fields.metric).max()))
        dphi = partial_derivatives(lambda v: factor_chart.fields(v).phi, point, CFG)
        nabla_phi = (
            np.einsum("imj->mij", dphi)
            + np.einsum("mil,lj->mij", gamma, fields.phi)
            - np.einsum("ml,lij->mij", fields.phi, gamma)
        )
        target = np.einsum("ij,m->mij", fields.metric, fields.xi) - np.einsum(
            "j,mi->mij", fields.eta, ident
        )
        worst = max(worst, float(np.abs(nabla_phi - target).max()))
    return worst


def _curvature_identity_residual(factor_chart, rng):
    """FD residuals of the Reeb curvature and Reeb Ricci identities."""
    point = sample_chart_points(rng, factor_chart.dim, count=1)[0]
    fields = factor_chart.fields(point)
    riemann = riemann_fd(factor_chart.metric_field(), point, CFG)
    reeb = np.einsum("xyzw,z->xyw", riemann, fields.xi)
    target = np.einsum("y,xw->xyw", fields.eta, fields.metric) - np.einsum(
        "x,yw->xyw", fields.eta, fields.metric
    )
    worst = float(np.abs(reeb - target).max())
    ricci = np.einsum("il,ijkl->jk", np.linalg.inv(fields.metric), riemann)
    pairs = (factor_chart.dim - 1) // 2
    worst = max(worst, float(np.abs(ricci @ fields.xi - 2.0 * pairs * fields.eta).max()))
    return worst


def test_criterion_7_sasakian_identity_suite():
    rng = np.random.default_rng(707)
    worst_field = 0.0
    for label, factor_chart in _factor_chart_cases():
        worst_field = max(worst_field, _field_identity_residual(factor_chart, rng))
    # curvature-level identities are second derivatives; checked on the
    # round spheres and one representative space form of each dimension
    worst_curv = 0.0
    for label, factor_chart in _factor_chart_cases():
        if "c=5.0" in label or "round" in label:
            worst_curv = max(worst_curv, _curvature_identity_residual(factor_chart, rng))
    fd_ok = worst_field <= 1e-6 and worst_curv <= 1e-6

    algebraic_models = [(f"round sphere p={p}", make_round_sphere_model(p)) for p in (1, 2, 3)]
    algebraic_models += [
        (f"space form q={q} c={c}", make_space_form_model(q, c))
        for q in (1, 2, 3)
        for c in (-1.0, 1.0, 3.0, 5.0, 7.0)
    ]
    failing = []
    for label, model in algebraic_models:
        residual = verify_sasakian_curvature_identities(model).max_residual()
        if residual > 1e-12:
            failing.append((label, residual))
    algebraic_ok = not failing

    _report(
        "criterion 7 (Sasakian identity suite)",
        fd_ok and algebraic_ok,
        f"field identities FD {max(worst_field, worst_curv):.2e} <= 1e-6; "
        + (
            "algebraic identities <= 1e-12 everywhere"
            if algebraic_ok
            else f"traced phi-identities fail on {len(failing)} space forms with c != 1 "
            f"(e.g. {failing[0][0]}: {failing[0][1]:.1f}); they are curvature-dependent "
            "and provably restricted to unit-sphere-type curvature"
        ),
    )
    assert fd_ok
    assert algebraic_ok, (
        "the traced curvature identities hold only for unit-sphere-type curvature; "
        f"failing cells: {failing}"
    )


def test_criterion_8_space_form_consistency():
    exact_ok = True
    for q in (1, 2, 3):
        for c in (Fraction(-1), Fraction(1), Fraction(3), Fraction(5), Fraction(7), Fraction(7, 3)):
            exact = space_form_ricci_exact(q, c)
            closed = space_form_ricci_coefficients(q, c)
            exact_ok = exact_ok and exact == closed

    worst_deform = 0.0
    for q in (1, 2):
        for c in (-1.0, 1.0, 5.0):
            base = d_homothetic_deform(make_round_sphere_model(q), 4.0 / (c + 3.0))
            for alpha in (0.5, 2.0):
                deformed = d_homothetic_deform(base, alpha)
                expected = make_space_form_model(q, (c + 3.0) / alpha - 3.0)
                worst_deform = max(
                    worst_deform, float(np.abs(deformed.riemann - expected.riemann).max())
                )

    ok = exact_ok and worst_deform <= 1e-12
    _report(
        "criterion 8 (space-form consistency)",
        ok,
        f"exact rational Ricci coefficients reproduced; deformation parameter rule "
        f"max deviation {worst_deform:.2e} <= 1e-12",
    )
    assert exact_ok
    assert worst_deform <= 1e-12


def test_criterion_9_never_kahler():
    worst_margin = np.inf
    for (p, q, a, b), model in _criterion_1_models():
        witness = check_not_kahler(model)
        floor = min(1.0, a * a + b * b)
        worst_margin = min(worst_margin, witness - floor)
    ok = worst_margin >= -1e-12
    _report(
        "criterion 9 (never Kahler)",
        ok,
        f"max |nabla J| - min(1, a^2+b^2) >= {worst_margin:.2e} on all grid points",
    )
    assert worst_margin >= -1e-12
