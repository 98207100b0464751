"""Einstein verdicts, the sphere-product examples, and the structural iff."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import sasakiherm.einstein
from sasakiherm.cli import parse_grid
from sasakiherm.einstein import (
    calabi_eckmann_einstein_example,
    einstein_verdict,
    required_eta_einstein_coefficients,
    star_scalar_prediction,
)
from sasakiherm.errors import ConsistencyError, GeometryError, SingularMetricError
from sasakiherm.product import (
    HermitianParams,
    build_product_metric,
    build_product_ricci,
    check_weakly_star_einstein,
    scalar_curvatures,
)
from sasakiherm.sasakian import (
    SasakianPointModel,
    classify_eta_einstein,
    d_homothetic_deform,
    make_round_sphere_model,
    make_space_form_model,
    space_form_ricci_coefficients,
)

from conftest import off_space_form_model


class TestRequiredCoefficients:
    def test_example_pair(self):
        assert required_eta_einstein_coefficients(2, 1) == (6.0, -4.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_equal_dimensions_force_einstein_factor(self, p):
        g_coeff, eta_coeff = required_eta_einstein_coefficients(p, p)
        assert g_coeff == pytest.approx(2.0 * p)
        assert eta_coeff == pytest.approx(0.0)

    def test_cross_check_against_space_form_coefficients(self):
        # (p, q) = (1, 2) forces (1, 3); the space form with c = 4p/q - 3 = -1
        # carries exactly those Ricci coefficients
        assert required_eta_einstein_coefficients(1, 2) == (1.0, 3.0)
        npt.assert_allclose(space_form_ricci_coefficients(2, -1.0), (1.0, 3.0), atol=0)


class TestVerdict:
    def test_einstein_case_with_space_form_factor(self):
        factor = make_round_sphere_model(2)
        factor_prime = make_space_form_model(1, 5.0)
        verdict = einstein_verdict(factor, factor_prime, HermitianParams(0.0, math.sqrt(2.0)))
        assert verdict.is_einstein
        assert verdict.agreement
        assert verdict.einstein_constant == pytest.approx(4.0, abs=1e-13)
        assert verdict.residual <= 1e-12
        assert verdict.failing_conditions() == ()

    def test_trivial_riemannian_product(self):
        factor = make_round_sphere_model(1)
        verdict = einstein_verdict(factor, factor, HermitianParams(0.0, 1.0))
        assert verdict.is_einstein
        assert verdict.einstein_constant == pytest.approx(2.0, abs=1e-13)

    def test_nonzero_coupling_fails(self):
        factor = make_round_sphere_model(1)
        verdict = einstein_verdict(factor, factor, HermitianParams(0.5, 1.0))
        assert not verdict.is_einstein
        assert "a_is_zero" in verdict.failing_conditions()

    def test_dimension_mismatch_fails(self):
        factor = make_round_sphere_model(1)
        verdict = einstein_verdict(factor, factor, HermitianParams(0.0, 2.0))
        assert not verdict.is_einstein
        assert "p_equals_b2q" in verdict.failing_conditions()

    def test_wrong_second_factor_fails(self):
        factor = make_round_sphere_model(2)
        factor_prime = make_space_form_model(1, 3.0)  # needs c = 5
        verdict = einstein_verdict(factor, factor_prime, HermitianParams(0.0, math.sqrt(2.0)))
        assert not verdict.is_einstein
        assert "factor_prime_eta_einstein" in verdict.failing_conditions()


class TestSphereProductExamples:
    def test_standard_example(self):
        spec, model = calabi_eckmann_einstein_example(2, 1)
        assert spec.c == pytest.approx(5.0)
        assert spec.alpha == pytest.approx(0.5)
        assert spec.b == pytest.approx(math.sqrt(2.0))
        verdict = einstein_verdict(model.factor, model.factor_prime, model.params)
        assert verdict.is_einstein
        assert verdict.einstein_constant == pytest.approx(4.0, abs=1e-12)

    def test_trivial_example(self):
        spec, model = calabi_eckmann_einstein_example(1, 1)
        assert spec.c == pytest.approx(1.0)
        assert spec.alpha == pytest.approx(1.0)
        assert spec.b == pytest.approx(1.0)
        npt.assert_allclose(model.g_bar, np.eye(6), atol=1e-13)

    def test_larger_example_through_residual_path(self):
        spec, model = calabi_eckmann_einstein_example(3, 2)
        assert spec.c == pytest.approx(3.0)
        assert spec.alpha == pytest.approx(2.0 / 3.0)
        verdict = einstein_verdict(model.factor, model.factor_prime, model.params)
        assert verdict.is_einstein
        assert verdict.einstein_constant == pytest.approx(6.0, abs=1e-12)

    def test_deformed_factor_matches_required_coefficients(self):
        _, model = calabi_eckmann_einstein_example(3, 1)
        fit = classify_eta_einstein(model.factor_prime)
        g_req, eta_req = required_eta_einstein_coefficients(3, 1)
        assert fit.g_coeff == pytest.approx(g_req, abs=1e-12)
        assert fit.eta_coeff == pytest.approx(eta_req, abs=1e-12)
        assert fit.residual <= 1e-12


class TestStarScalar:
    @pytest.mark.parametrize("p,q,expected", [(2, 1, 0.0), (1, 1, 4.0), (1, 2, 16.0)])
    def test_prediction_spot_values(self, p, q, expected):
        assert star_scalar_prediction(p, q) == pytest.approx(expected)

    def test_built_example_agrees(self):
        _, model = calabi_eckmann_einstein_example(1, 2)
        assert scalar_curvatures(model)[1] == pytest.approx(16.0, abs=1e-12)


def test_reeb_ricci_ratio_identity():
    # ricci(xi, xi) / g(xi, xi) = 2p + 2 a^2 q regardless of the Einstein property
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = rng.integers(1, 4, size=2)
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0.3, 2.0))
        factor = make_round_sphere_model(int(p))
        factor_prime = make_round_sphere_model(int(q))
        params = HermitianParams(a, b)
        g_bar = build_product_metric(factor, factor_prime, params)
        ricci_bar = build_product_ricci(factor, factor_prime, params)
        k = factor.dim - 1
        ratio = ricci_bar[k, k] / g_bar[k, k]
        assert ratio == pytest.approx(2.0 * p + 2.0 * a * a * q, abs=1e-12)


def test_mixed_ricci_vanishes_in_einstein_case():
    _, model = calabi_eckmann_einstein_example(2, 1)
    m = model.factor.dim
    assert np.abs(model.ricci_bar[:m, m:]).max() == 0.0


def test_einstein_examples_stay_non_weakly_star_einstein():
    for p, q in [(1, 1), (2, 1), (1, 2), (3, 2)]:
        _, model = calabi_eckmann_einstein_example(p, q)
        weakly, residual = check_weakly_star_einstein(model)
        assert not weakly
        assert residual > 0.1


def test_disagreement_between_routes_raises():
    # rig non-Sasakian Ricci data so the residual fit reports Einstein while
    # the structural conditions cannot hold (a != 0): the verdict must refuse
    # rather than return either answer
    p = q = 1
    a, b = 0.5, 1.0
    s = a * a + b * b
    lam = 2.0 * (p + q * s)
    base = make_round_sphere_model(p)
    rigged = type(base)(
        n=base.n, metric=base.metric, phi=base.phi, xi=base.xi, eta=base.eta,
        riemann=base.riemann,
        ricci=lam * base.metric - 2.0 * a * a * q * np.outer(base.eta, base.eta),
    )
    prime_ricci = (
        (lam + 2.0 * (s - 1.0)) * base.metric
        + (lam * (s - 1.0) - 2.0 * (p * a * a + s - 1.0 + q * (s - 1.0) * (s + 1.0)))
        * np.outer(base.eta, base.eta)
    )
    rigged_prime = type(base)(
        n=base.n, metric=base.metric, phi=base.phi, xi=base.xi, eta=base.eta,
        riemann=base.riemann, ricci=prime_ricci,
    )
    with pytest.raises(ConsistencyError):
        einstein_verdict(rigged, rigged_prime, HermitianParams(a, b))


def test_structural_and_residual_routes_agree_on_sample_grid():
    rng = np.random.default_rng(11)
    einstein_hits = 0
    for p in (1, 2):
        for q in (1, 2):
            factors = [
                make_round_sphere_model(q),
                make_space_form_model(q, float(rng.uniform(-2.0, 8.0))),
                d_homothetic_deform(make_round_sphere_model(q), float(rng.uniform(0.5, 2.0))),
                d_homothetic_deform(make_round_sphere_model(q), q / p),
            ]
            for factor_prime in factors:
                for a in (0.0, 0.5):
                    for b in (1.0, math.sqrt(p / q)):
                        verdict = einstein_verdict(
                            make_round_sphere_model(p), factor_prime, HermitianParams(a, b)
                        )
                        assert verdict.agreement
                        einstein_hits += verdict.is_einstein
    assert einstein_hits > 0


# cells across the Einstein locus where the two routes cannot be told apart:
# at the first, the residual 1.2e-12 fails 1e-12 while the structure holds
LOCUS_B = parse_grid("1.4142135623730:1.4142135623732:5e-14")
GRID_FACTORS = {
    "space-form": lambda: (make_round_sphere_model(2), make_space_form_model(1, 5.0)),
    "deformed": lambda: (make_round_sphere_model(2),
                         d_homothetic_deform(make_round_sphere_model(1), 0.5)),
    "off-space-form": lambda: (off_space_form_model(2), off_space_form_model(3)),
}


def outcome(decide):
    """What ``decide()`` returns, or the type and text of the error it raises."""
    try:
        return decide()
    except GeometryError as exc:
        return type(exc), str(exc)


def point_loop(factor, factor_prime, cells):
    return [einstein_verdict(factor, factor_prime, params) for params in cells]


class TestGridVerdict:
    """A grid of cells is decided as a loop of one-cell verdicts would decide it."""

    @pytest.mark.parametrize("block", [256, 5])
    @pytest.mark.parametrize("kind", sorted(GRID_FACTORS))
    def test_grid_equals_point_loop(self, monkeypatch, kind, block):
        monkeypatch.setattr(sasakiherm.einstein, "GRID_BLOCK", block)
        factor, factor_prime = GRID_FACTORS[kind]()
        cells = [HermitianParams(a, b)
                 for a in (-0.5, 0.0, 0.3) for b in (0.7, 1.0, math.sqrt(2.0), -2.0)]
        grid = einstein_verdict(factor, factor_prime, cells)
        loop = point_loop(factor, factor_prime, cells)
        # dataclass equality compares every field but ricci_bar, floats exactly
        assert grid == loop
        assert all(verdict.ricci_bar is None for verdict in grid)
        assert any(verdict.is_einstein for verdict in grid) == (kind != "off-space-form")

    def test_point_verdict_keeps_its_ricci_tensor(self):
        factor, factor_prime = GRID_FACTORS["deformed"]()
        params = HermitianParams(0.3, 1.2)
        verdict = einstein_verdict(factor, factor_prime, params)
        npt.assert_array_equal(verdict.ricci_bar,
                               build_product_ricci(factor, factor_prime, params))

    def test_empty_grid(self):
        assert einstein_verdict(*GRID_FACTORS["deformed"](), []) == []

    @pytest.mark.parametrize("block", [256, 2])
    @pytest.mark.parametrize(
        "cells,error",
        [
            ([(0.0, 1.0), (0.0, LOCUS_B[0]), (0.0, 1e-7)], ConsistencyError),
            ([(0.0, 1.0), (0.0, 1e-7), (0.0, LOCUS_B[0])], SingularMetricError),
            ([(0.5, 1.0), (1e154, 1.0), (0.0, LOCUS_B[0])], SingularMetricError),
        ],
        ids=["disagreement-first", "tiny-b-first", "large-a-first"],
    )
    def test_first_failing_cell_raises(self, monkeypatch, cells, error, block):
        monkeypatch.setattr(sasakiherm.einstein, "GRID_BLOCK", block)
        factor, factor_prime = GRID_FACTORS["deformed"]()
        cells = [HermitianParams(a, b) for a, b in cells]
        found = outcome(lambda: einstein_verdict(factor, factor_prime, cells))
        assert found == outcome(lambda: point_loop(factor, factor_prime, cells))
        assert found[0] is error

    def test_errors_name_their_cell_and_distances(self):
        factor, factor_prime = GRID_FACTORS["deformed"]()
        with pytest.raises(ConsistencyError) as excinfo:
            einstein_verdict(factor, factor_prime, [HermitianParams(0.0, b) for b in LOCUS_B])
        message = str(excinfo.value)
        assert message.startswith(
            "structural and residual Einstein verdicts disagree: structural=True residual=False "
            "(residual 1.209e-12, failing ()) at a = 0.0, b = 1.414213562373; "
            "distances against tol 1e-12: |a| = 0, |p - b^2 q| = 2.68e-13, "
        )
        assert "factor max |Ric - 2p g| = " in message
        assert "factor_prime max |Ric' - A g' - B eta' (x) eta'| = " in message
        with pytest.raises(SingularMetricError) as excinfo:
            einstein_verdict(factor, factor_prime, [HermitianParams(0.5, 1.0),
                                                    HermitianParams(0.0, 1e-7)])
        assert str(excinfo.value).startswith("product metric is singular (")
        assert str(excinfo.value).endswith(") at a = 0.0, b = 1e-07")

    def test_factor_conditions_and_certification_run_once_per_grid(self, monkeypatch):
        deviations, certified = [], []
        deviation = SasakianPointModel.ricci_deviation
        monkeypatch.setattr(
            SasakianPointModel, "ricci_deviation",
            lambda self, *args: deviations.append(self) or deviation(self, *args),
        )
        require_spd = sasakiherm.einstein.require_spd
        monkeypatch.setattr(
            sasakiherm.einstein, "require_spd",
            lambda metric, **kwargs: certified.append(metric.shape) or require_spd(metric, **kwargs),
        )
        factor, factor_prime = GRID_FACTORS["space-form"]()
        cells = [HermitianParams(a, b) for a in (-1.0, 0.0, 1.0) for b in (0.5, 1.0, 1.5, 2.0)]
        einstein_verdict(factor, factor_prime, cells)
        assert len(deviations) == 2
        assert deviations[0] is factor and deviations[1] is factor_prime
        assert certified == [(12, 8, 8)]
