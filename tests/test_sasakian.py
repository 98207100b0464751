"""Sasakian factor models: spheres, space forms, deformations, identity suites."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from sasakiherm.errors import InvalidParameterError
from sasakiherm.sasakian import (
    classify_eta_einstein,
    d_homothetic_deform,
    make_round_sphere_model,
    make_space_form_model,
    sasakian_structure_residuals,
    space_form_ricci_coefficients,
    space_form_ricci_exact,
    verify_sasakian_curvature_identities,
)
from sasakiherm.tensors import contract_trace, sectional_curvature


def phi_sectional_curvature(model):
    """Sectional curvature of the plane spanned by the first basis vector and its phi-image."""
    x = np.zeros(model.dim)
    x[0] = 1.0
    return sectional_curvature(model.riemann, model.g, x, model.phi @ x)


class TestRoundSphere:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_einstein_with_constant_two_p(self, p):
        model = make_round_sphere_model(p)
        assert model.dim == 2 * p + 1
        npt.assert_allclose(model.ricci, 2 * p * model.g, atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_structure_relations(self, p):
        residuals = sasakian_structure_residuals(make_round_sphere_model(p))
        assert max(residuals.values()) <= 1e-12, residuals

    def test_reeb_curvature_identity(self):
        model = make_round_sphere_model(2)
        reeb = np.einsum("xyzw,z->xyw", model.riemann, model.xi)
        expected = np.einsum("y,xw->xyw", model.eta, model.g) - np.einsum(
            "x,yw->xyw", model.eta, model.g
        )
        npt.assert_allclose(reeb, expected, atol=0)

    def test_zero_pairs_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_round_sphere_model(0)


class TestSpaceForm:
    def test_unit_curvature_reduces_to_round_sphere(self):
        sphere = make_round_sphere_model(2)
        space_form = make_space_form_model(2, 1.0)
        npt.assert_allclose(space_form.riemann, sphere.riemann, atol=0)
        npt.assert_allclose(space_form.ricci, sphere.ricci, atol=0)

    def test_ricci_coefficients_q1_c5(self):
        model = make_space_form_model(1, 5.0)
        expected = 6.0 * model.g - 4.0 * np.outer(model.eta, model.eta)
        npt.assert_allclose(model.ricci, expected, atol=1e-13)

    def test_ricci_coefficients_q2_c3(self):
        # oracle: trace the curvature directly; closed form gives 7g - 3 eta(x)eta
        model = make_space_form_model(2, 3.0)
        traced = contract_trace(model.riemann, model.g)
        npt.assert_allclose(model.ricci, traced, atol=1e-13)
        expected = 7.0 * model.g - 3.0 * np.outer(model.eta, model.eta)
        npt.assert_allclose(traced, expected, atol=1e-13)

    @pytest.mark.parametrize("q,c", [(1, 5.0), (2, 7.0), (2, -1.0), (3, 3.0)])
    def test_structure_relations(self, q, c):
        residuals = sasakian_structure_residuals(make_space_form_model(q, c))
        assert max(residuals.values()) <= 1e-12, residuals

    @pytest.mark.parametrize("q,c", [(1, 5.0), (2, 7.0), (3, -1.0)])
    def test_phi_sectional_curvature_is_c(self, q, c):
        assert phi_sectional_curvature(make_space_form_model(q, c)) == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("q,c", [(1, 5.0), (2, 7.0), (2, -1.0)])
    def test_curvature_phi_commutator_identity(self, q, c):
        # the genuinely general Sasakian curvature identity, derived from
        # (nabla phi): R(X,Y,phiZ,W) + R(X,Y,Z,phiW) equals an explicit
        # g/phi expression; certifies the models carry Sasakian curvature
        model = make_space_form_model(q, c)
        g, phi, riemann = model.g, model.phi, model.riemann
        gphi = phi.T @ g
        lhs = np.einsum("xyaw,az->xyzw", riemann, phi) + np.einsum(
            "xyza,aw->xyzw", riemann, phi
        )
        rhs = (
            np.einsum("xz,yw->xyzw", gphi, g)
            - np.einsum("yz,xw->xyzw", gphi, g)
            + np.einsum("xz,yw->xyzw", g, gphi)
            - np.einsum("yz,xw->xyzw", g, gphi)
        )
        npt.assert_allclose(lhs, rhs, atol=1e-12)


class TestEtaEinsteinClassification:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_round_sphere(self, p):
        fit = classify_eta_einstein(make_round_sphere_model(p))
        assert fit.g_coeff == pytest.approx(2 * p, abs=1e-13)
        assert fit.eta_coeff == pytest.approx(0.0, abs=1e-13)
        assert fit.residual <= 1e-13

    def test_space_form(self):
        fit = classify_eta_einstein(make_space_form_model(1, 5.0))
        assert fit.g_coeff == pytest.approx(6.0, abs=1e-13)
        assert fit.eta_coeff == pytest.approx(-4.0, abs=1e-13)
        assert fit.residual <= 1e-13

    def test_perturbed_ricci_reported_in_residual(self):
        model = make_round_sphere_model(1)
        ricci = model.ricci.copy()
        ricci[0, 1] += 0.1
        ricci[1, 0] += 0.1
        perturbed = type(model)(
            n=model.n, g=model.g, phi=model.phi, xi=model.xi, eta=model.eta,
            riemann=model.riemann, ricci=ricci,
        )
        assert classify_eta_einstein(perturbed).residual >= 0.1


class TestCurvatureIdentitySuite:
    def test_round_spheres_pass(self):
        for p in (1, 2, 3):
            residuals = verify_sasakian_curvature_identities(make_round_sphere_model(p))
            assert residuals.max_residual() <= 1e-13

    def test_flat_curvature_negative_control(self):
        # with R = 0 the phi-pair trace identity residual is 2 max|g(phiX, Y)| = 2
        model = make_round_sphere_model(1)
        flat = type(model)(
            n=1, g=model.g, phi=model.phi, xi=model.xi, eta=model.eta,
            riemann=np.zeros((3, 3, 3, 3)), ricci=np.zeros((3, 3)),
        )
        residuals = verify_sasakian_curvature_identities(flat)
        assert residuals.phi_pair_trace == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize(
        "q,c,expected",
        [
            # the unit-sphere (c = 1) right-hand sides miss the space-form
            # curvature by amounts linear in |c - 1|
            (1, 5.0, (8.0, 12.0, 8.0, 8.0)),
            (2, 7.0, (12.0, 27.0, 18.0, 18.0)),
            (2, -1.0, (4.0, 9.0, 6.0, 6.0)),
        ],
    )
    def test_space_form_residuals_scale_with_c(self, q, c, expected):
        # pairing the space-form curvature with the round-sphere Ricci
        # tensor makes the suite use exactly its c = 1 right-hand sides
        space_form = make_space_form_model(q, c)
        mismatched = type(space_form)(
            n=q, g=space_form.g, phi=space_form.phi, xi=space_form.xi, eta=space_form.eta,
            riemann=space_form.riemann, ricci=make_round_sphere_model(q).ricci,
        )
        residuals = verify_sasakian_curvature_identities(mismatched)
        values = (
            residuals.phi_exchange,
            residuals.traced_phi_exchange,
            residuals.phi_pair_trace,
            residuals.shifted_phi_pair_trace,
        )
        npt.assert_allclose(values, expected, atol=1e-12)
        assert verify_sasakian_curvature_identities(space_form).max_residual() <= 1e-12

    def test_space_form_residuals_vanish_at_c_one(self):
        residuals = verify_sasakian_curvature_identities(make_space_form_model(2, 1.0))
        assert residuals.max_residual() <= 1e-13

    @pytest.mark.parametrize("alpha", [0.4, 2.5])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_deformed_spheres_pass(self, q, alpha):
        deformed = d_homothetic_deform(make_round_sphere_model(q), alpha)
        assert verify_sasakian_curvature_identities(deformed).max_residual() <= 1e-12

    @pytest.mark.parametrize("q", [2, 3])
    def test_traced_identities_hold_off_space_forms(self, q):
        # a generic Sasakian curvature at a point is the unit sphere's plus
        # a Kaehler-type tensor on the contact distribution; sums of
        # omega (x) omega with omega = v ^ phi v (v orthogonal to xi) span
        # those tensors, and satisfy the first Bianchi identity because
        # each omega is decomposable
        sphere = make_round_sphere_model(q)
        rng = np.random.default_rng(q)
        riemann = sphere.riemann.copy()
        for _ in range(4):
            v = rng.normal(size=sphere.dim)
            v[-1] = 0.0
            omega = np.outer(v, sphere.phi @ v) - np.outer(sphere.phi @ v, v)
            riemann += rng.normal() * np.einsum("xy,zw->xyzw", omega, omega)
        model = type(sphere)(
            n=q, g=sphere.g, phi=sphere.phi, xi=sphere.xi, eta=sphere.eta,
            riemann=riemann, ricci=contract_trace(riemann, sphere.g),
        )
        assert max(sasakian_structure_residuals(model).values()) <= 1e-12
        residuals = verify_sasakian_curvature_identities(model)
        assert residuals.traced_phi_exchange <= 1e-12
        assert residuals.phi_pair_trace <= 1e-12
        assert residuals.shifted_phi_pair_trace <= 1e-12
        # not a space form, so the space-form-only identity must fail
        assert residuals.phi_exchange >= 1.0


class TestDHomotheticDeformation:
    def test_alpha_one_is_identity(self):
        model = make_round_sphere_model(2)
        deformed = d_homothetic_deform(model, 1.0)
        npt.assert_allclose(deformed.g, model.g, atol=1e-14)
        npt.assert_allclose(deformed.phi, model.phi, atol=1e-14)
        npt.assert_allclose(deformed.riemann, model.riemann, atol=1e-13)

    @pytest.mark.parametrize("q,alpha", [(1, 0.5), (2, 0.5), (1, 2.0), (3, 0.4)])
    def test_sphere_deforms_to_space_form(self, q, alpha):
        deformed = d_homothetic_deform(make_round_sphere_model(q), alpha)
        expected = make_space_form_model(q, 4.0 / alpha - 3.0)
        npt.assert_allclose(deformed.riemann, expected.riemann, atol=1e-12)
        npt.assert_allclose(deformed.ricci, expected.ricci, atol=1e-12)

    def test_einstein_example_parameter(self):
        # alpha = q/p with (p, q) = (2, 1) turns the unit sphere into the
        # space form with phi-sectional curvature 4p/q - 3 = 5
        deformed = d_homothetic_deform(make_round_sphere_model(1), 1.0 / 2.0)
        assert phi_sectional_curvature(deformed) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 0.75])
    def test_roundtrip(self, alpha):
        model = make_space_form_model(2, 3.0)
        back = d_homothetic_deform(d_homothetic_deform(model, alpha), 1.0 / alpha)
        npt.assert_allclose(back.riemann, model.riemann, atol=1e-12)
        npt.assert_allclose(back.ricci, model.ricci, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.4, 2.5])
    def test_output_satisfies_structure_relations(self, alpha):
        deformed = d_homothetic_deform(make_round_sphere_model(2), alpha)
        residuals = sasakian_structure_residuals(deformed)
        assert max(residuals.values()) <= 1e-12, residuals

    def test_nonpositive_alpha_rejected(self):
        for alpha in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match=f"positive and finite, got {alpha}"):
                d_homothetic_deform(make_round_sphere_model(1), alpha)


class TestExactArithmetic:
    @pytest.mark.parametrize(
        "q,c",
        [(1, Fraction(5)), (2, Fraction(7)), (2, Fraction(-1)), (3, Fraction(7, 3))],
    )
    def test_exact_trace_matches_closed_coefficients(self, q, c):
        g_coeff, eta_coeff = space_form_ricci_exact(q, c)
        g_expected, eta_expected = space_form_ricci_coefficients(q, c)
        assert g_coeff == g_expected
        assert eta_coeff == eta_expected

    def test_example_family_coefficient_identities(self):
        # with c = 4p/q - 3 the space-form Ricci coefficients reduce to the
        # eta-Einstein pair (2(p + p/q - 1), -2(p/q - 1)(q + 1)) exactly
        for p in range(1, 9):
            for q in range(1, 9):
                c = Fraction(4 * p, q) - 3
                g_coeff, eta_coeff = space_form_ricci_coefficients(q, c)
                assert g_coeff == 2 * (p + Fraction(p, q) - 1)
                assert c - 1 == 4 * (Fraction(p, q) - 1)
                assert eta_coeff == -2 * (Fraction(p, q) - 1) * (q + 1)


def test_scalar_curvature_trace_consistency():
    for model in (
        make_round_sphere_model(2),
        make_space_form_model(2, 7.0),
        d_homothetic_deform(make_round_sphere_model(1), 0.5),
    ):
        residuals = sasakian_structure_residuals(model)
        assert residuals["scalar_curvature_trace_consistency"] <= 1e-12
