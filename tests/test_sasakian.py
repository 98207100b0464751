"""Sasakian factor models: spheres, space forms, deformations, identity suites."""

import re
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from conftest import off_space_form_model, random_curvature_like, random_spd
from sasakiherm.errors import InvalidParameterError
from sasakiherm.sasakian import (
    MAX_SPACE_FORM_C,
    _space_form_curvature,
    classify_eta_einstein,
    d_homothetic_deform,
    make_round_sphere_model,
    make_space_form_model,
    sasakian_structure_residuals,
    space_form_ricci_coefficients,
    space_form_ricci_exact,
    verify_sasakian_curvature_identities,
)
from sasakiherm.tensors import contract_trace, orthonormal_frame, sectional_curvature


def space_form_curvature_einsum(g, phi, eta, c):
    """Reference space-form curvature: one rank-4 einsum per term."""
    gphi = phi.T @ g
    coeff_round = (c + 3) / 4
    coeff_phi = (c - 1) / 4
    gg = np.einsum("yz,xw->xyzw", g, g) - np.einsum("xz,yw->xyzw", g, g)
    ee = (
        np.einsum("x,z,yw->xyzw", eta, eta, g)
        - np.einsum("y,z,xw->xyzw", eta, eta, g)
        + np.einsum("xz,y,w->xyzw", g, eta, eta)
        - np.einsum("yz,x,w->xyzw", g, eta, eta)
    )
    pp = (
        np.einsum("yz,xw->xyzw", gphi, gphi)
        - np.einsum("xz,yw->xyzw", gphi, gphi)
        - 2 * np.einsum("xy,zw->xyzw", gphi, gphi)
    )
    return coeff_round * gg + coeff_phi * (ee + pp)


def identity_residuals_einsum(model):
    """Reference identity suite: the exchange and the traces as multi-operand
    einsums over the frame vectors, one trace per identity."""
    n, g, phi, riemann, ricci = model.n, model.metric, model.phi, model.riemann, model.ricci

    def exchange(curvature):
        return np.einsum("xyaw,az->xyzw", curvature, phi) - np.einsum(
            "axyw,az->xyzw", curvature, phi
        )

    c = (2.0 * classify_eta_einstein(model).g_coeff - 3.0 * n + 1.0) / (n + 1.0)
    space_form = space_form_curvature_einsum(g, phi, model.eta, c)
    frame = orthonormal_frame(g)
    phi_frame = phi @ frame
    pair_target = 2.0 * ricci @ phi + 2.0 * (2 * n - 1) * model.gphi
    tr1 = np.einsum("xyab,ai,bi->xy", riemann, phi_frame, frame) - np.einsum(
        "axyb,ai,bi->xy", riemann, phi_frame, frame
    )
    tr2 = np.einsum("xyab,ai,bi->xy", riemann, frame, phi_frame)
    tr3 = np.einsum("xmab,my,ai,bi->xy", riemann, phi, frame, phi_frame, optimize=True)
    target = -2.0 * ricci + 2.0 * (2 * n - 1) * g + 2.0 * model.eta_eta
    return (
        float(np.abs(exchange(riemann) - exchange(space_form)).max()),
        float(np.abs(tr1 + 1.5 * pair_target).max()),
        float(np.abs(tr2 - pair_target).max()),
        float(np.abs(tr3 - target).max()),
    )


def identity_values(residuals):
    return (
        residuals.phi_exchange,
        residuals.traced_phi_exchange,
        residuals.phi_pair_trace,
        residuals.shifted_phi_pair_trace,
    )


def phi_sectional_curvature(model):
    """Sectional curvature of the plane spanned by the first basis vector and its phi-image."""
    x = np.zeros(model.dim)
    x[0] = 1.0
    return sectional_curvature(model.riemann, model.metric, x, model.phi @ x)


class TestRoundSphere:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_einstein_with_constant_two_p(self, p):
        model = make_round_sphere_model(p)
        assert model.dim == 2 * p + 1
        npt.assert_allclose(model.ricci, 2 * p * model.metric, atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_structure_relations(self, p):
        residuals = sasakian_structure_residuals(make_round_sphere_model(p))
        assert max(residuals.values()) <= 1e-12, residuals

    def test_reeb_curvature_identity(self):
        model = make_round_sphere_model(2)
        reeb = np.einsum("xyzw,z->xyw", model.riemann, model.xi)
        expected = np.einsum("y,xw->xyw", model.eta, model.metric) - np.einsum(
            "x,yw->xyw", model.eta, model.metric
        )
        npt.assert_allclose(reeb, expected, atol=0)

    def test_zero_pairs_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_round_sphere_model(0)


class TestSpaceForm:
    @pytest.mark.parametrize("c", [1e308, -1e308, 8e307, np.inf, np.nan])
    def test_curvature_past_the_bound_is_rejected(self, c):
        with pytest.raises(InvalidParameterError, match=re.escape(f"c = {c!r} is outside")):
            make_space_form_model(5, c)

    @pytest.mark.parametrize("c", [MAX_SPACE_FORM_C, -MAX_SPACE_FORM_C])
    def test_curvature_at_the_bound_stays_finite(self, c):
        # RuntimeWarnings are errors under pytest, so no step overflows
        model = make_space_form_model(5, c)
        assert np.isfinite(model.riemann).all() and np.isfinite(model.ricci).all()
        assert np.isfinite(verify_sasakian_curvature_identities(model).max_residual())

    def test_unit_curvature_reduces_to_round_sphere(self):
        sphere = make_round_sphere_model(2)
        space_form = make_space_form_model(2, 1.0)
        npt.assert_allclose(space_form.riemann, sphere.riemann, atol=0)
        npt.assert_allclose(space_form.ricci, sphere.ricci, atol=0)

    def test_ricci_coefficients_q1_c5(self):
        model = make_space_form_model(1, 5.0)
        expected = 6.0 * model.metric - 4.0 * np.outer(model.eta, model.eta)
        npt.assert_allclose(model.ricci, expected, atol=1e-13)

    def test_ricci_coefficients_q2_c3(self):
        # oracle: trace the curvature directly; closed form gives 7g - 3 eta(x)eta
        model = make_space_form_model(2, 3.0)
        traced = contract_trace(model.riemann, model.metric)
        npt.assert_allclose(model.ricci, traced, atol=1e-13)
        expected = 7.0 * model.metric - 3.0 * np.outer(model.eta, model.eta)
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
        g, phi, riemann = model.metric, model.phi, model.riemann
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


class TestSpaceFormCurvatureFormula:
    """The paired outer-product form of the space-form curvature against
    the reference with one einsum per term."""

    C_VALUES = [-7.0, -3.0, -1.0, 0.3, 1.0, 5.0, 1e300, -1e300]

    @pytest.mark.parametrize("c", C_VALUES)
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_matches_einsum_form_on_non_adapted_data(self, dim, c):
        rng = np.random.default_rng(dim)
        g, phi, eta = random_spd(rng, dim), rng.normal(size=(dim, dim)), rng.normal(size=dim)
        reference = space_form_curvature_einsum(g, phi, eta, c)
        found = _space_form_curvature(g, phi, eta, c)
        assert np.abs(found - reference).max() <= 1e-15 * np.abs(reference).max()

    # values whose (c + 3)/4 and (c - 1)/4 are exact, so both forms round alike
    @pytest.mark.parametrize("c", [c for c in C_VALUES if c != 0.3])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_package_space_forms_equal_einsum_form(self, q, c):
        model = make_space_form_model(q, c)
        reference = space_form_curvature_einsum(model.metric, model.phi, model.eta, c)
        npt.assert_array_equal(model.riemann, reference)

    @pytest.mark.parametrize("c", [Fraction(-7), Fraction(1, 3), Fraction(5)])
    def test_exact_on_fraction_arrays(self, c):
        rng = np.random.default_rng(7)
        dim = 5
        to_fractions = np.vectorize(Fraction, otypes=[object])
        g = to_fractions(rng.integers(-3, 4, size=(dim, dim)))
        phi = to_fractions(rng.integers(-3, 4, size=(dim, dim)))
        eta = to_fractions(rng.integers(-3, 4, size=dim))
        found = _space_form_curvature(g, phi, eta, c)
        assert found.dtype == object
        assert all(isinstance(entry, Fraction) for entry in found.flat)
        assert (found == space_form_curvature_einsum(g, phi, eta, c)).all()


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
            n=model.n, metric=model.metric, phi=model.phi, xi=model.xi, eta=model.eta,
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
            n=1, metric=model.metric, phi=model.phi, xi=model.xi, eta=model.eta,
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
            n=q, metric=space_form.metric, phi=space_form.phi, xi=space_form.xi, eta=space_form.eta,
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
        model = off_space_form_model(q)
        assert max(sasakian_structure_residuals(model).values()) <= 1e-12
        residuals = verify_sasakian_curvature_identities(model)
        assert residuals.traced_phi_exchange <= 1e-12
        assert residuals.phi_pair_trace <= 1e-12
        assert residuals.shifted_phi_pair_trace <= 1e-12
        # not a space form, so the space-form-only identity must fail
        assert residuals.phi_exchange >= 1.0

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_einsum_traces_off_space_forms(self, q):
        # the traced residuals are roundoff here, so they agree to an absolute
        # roundoff and the space-form-only one (of order one) relatively
        model = off_space_form_model(q)
        found = identity_values(verify_sasakian_curvature_identities(model))
        reference = identity_residuals_einsum(model)
        assert found[0] == pytest.approx(reference[0], rel=1e-14)
        npt.assert_allclose(found[1:], reference[1:], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_einsum_traces_on_generic_tensors(self, q):
        # a random SPD metric, endomorphism, covector and curvature-like tensor
        # make every residual of order one, so the two forms agree relatively
        rng = np.random.default_rng(100 + q)
        dim = 2 * q + 1
        riemann = random_curvature_like(rng, dim)
        metric = random_spd(rng, dim)
        model = type(make_round_sphere_model(q))(
            n=q, metric=metric, phi=rng.normal(size=(dim, dim)), xi=rng.normal(size=dim),
            eta=rng.normal(size=dim), riemann=riemann, ricci=contract_trace(riemann, metric),
        )
        found = identity_values(verify_sasakian_curvature_identities(model))
        npt.assert_allclose(found, identity_residuals_einsum(model), rtol=1e-13)


class TestDHomotheticDeformation:
    def test_alpha_one_is_identity(self):
        model = make_round_sphere_model(2)
        deformed = d_homothetic_deform(model, 1.0)
        npt.assert_allclose(deformed.metric, model.metric, atol=1e-14)
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

    def test_alpha_whose_square_overflows_rejected(self):
        with pytest.raises(InvalidParameterError, match="1e\\+200 has a square that overflows"):
            d_homothetic_deform(make_round_sphere_model(1), 1e200)


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
