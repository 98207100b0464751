"""Product Hermitian structure: metric, complex structure, curvature, traces."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from sasakiherm.errors import InvalidParameterError
from sasakiherm.product import (
    HermitianParams,
    ParamStack,
    build_nabla_j,
    build_product_curvature,
    build_product_metric,
    build_product_model,
    build_product_ricci,
    build_product_ricci_star,
    check_integrability,
    check_not_kahler,
    check_weakly_star_einstein,
    integrability_residual,
    product_complex_structure,
    product_metric,
    scalar_curvatures,
)
from sasakiherm.sasakian import d_homothetic_deform, make_round_sphere_model, make_space_form_model
from sasakiherm.tensors import (
    contract_trace,
    curvature_symmetry_residuals,
    star_ricci_from_curvature,
)

PARAM_GRID = [(0.0, 1.0), (0.5, 1.0), (0.0, 1.5), (-0.7, 1.3), (1.5, -2.0), (2.0, 0.5)]


FIRST_FACTORS = {
    "round": make_round_sphere_model,
    "deformed:0.5": lambda p: d_homothetic_deform(make_round_sphere_model(p), 0.5),
    "space-form:5": lambda p: make_space_form_model(p, 5.0),
}


def spheres(p, q):
    return make_round_sphere_model(p), make_round_sphere_model(q)


def curvature_trace_case(first, p, q, a, b):
    prefix = "" if first == "round" else f"{first}-"
    return pytest.param(first, p, q, a, b, id=f"{prefix}{p}-{q}-{a}-{b}")


def test_b_zero_rejected():
    with pytest.raises(InvalidParameterError):
        HermitianParams(a=0.3, b=0.0)
    for a, b in ((1e200, 1.0), (0.0, -1e155), (1e154, 1e154)):
        message = re.escape(f"overflows at a = {a!r}, b = {b!r}")
        with pytest.raises(InvalidParameterError, match=message):
            HermitianParams(a=a, b=b)


class TestProductMetric:
    def test_riemannian_product_at_unit_parameters(self):
        factor, factor_prime = spheres(1, 2)
        g_bar = build_product_metric(factor, factor_prime, HermitianParams(0.0, 1.0))
        npt.assert_allclose(g_bar, np.eye(8), atol=0)

    def test_reeb_cross_term(self):
        factor, factor_prime = spheres(1, 1)
        g_bar = build_product_metric(factor, factor_prime, HermitianParams(0.5, 1.0))
        # Reeb vectors sit at index 2p and the last index
        assert g_bar[2, 5] == pytest.approx(0.5, abs=0)
        assert g_bar[5, 2] == pytest.approx(0.5, abs=0)

    def test_second_reeb_norm(self):
        factor, factor_prime = spheres(1, 1)
        g_bar = build_product_metric(factor, factor_prime, HermitianParams(1.0, 2.0))
        assert g_bar[5, 5] == pytest.approx(5.0, abs=0)

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_positive_definite(self, a, b):
        factor, factor_prime = spheres(2, 1)
        g_bar = build_product_metric(factor, factor_prime, HermitianParams(a, b))
        assert np.linalg.eigvalsh(g_bar).min() > 0.0


@pytest.mark.parametrize("build", [product_metric, build_product_ricci])
def test_cell_stack_gives_each_cell_exactly(build):
    factor, factor_prime = make_round_sphere_model(2), make_space_form_model(1, 5.0)
    cells = [HermitianParams(a, b) for a, b in PARAM_GRID]
    stacked = build(factor, factor_prime, ParamStack.of(cells))
    assert stacked.shape == (len(cells), 8, 8)
    for cell, tensor in zip(cells, stacked):
        assert np.array_equal(tensor, build(factor, factor_prime, cell))


class TestComplexStructure:
    def test_riemannian_product_case(self):
        factor, factor_prime = spheres(1, 1)
        j = product_complex_structure(factor, factor_prime, HermitianParams(0.0, 1.0))
        xi = np.zeros(6)
        xi[2] = 1.0
        xi_prime = np.zeros(6)
        xi_prime[5] = 1.0
        npt.assert_allclose(j @ xi, xi_prime, atol=0)
        npt.assert_allclose(j @ xi_prime, -xi, atol=0)
        # off the Reeb plane it acts as the factor rotations
        e1 = np.zeros(6)
        e1[0] = 1.0
        expected = np.zeros(6)
        expected[1] = 1.0
        npt.assert_allclose(j @ e1, expected, atol=0)

    def test_reeb_plane_action_at_unit_parameters(self):
        factor, factor_prime = spheres(1, 1)
        j = product_complex_structure(factor, factor_prime, HermitianParams(1.0, 1.0))
        xi = np.zeros(6)
        xi[2] = 1.0
        xi_prime = np.zeros(6)
        xi_prime[5] = 1.0
        npt.assert_allclose(j @ xi, -xi + xi_prime, atol=0)
        npt.assert_allclose(j @ xi_prime, -2.0 * xi + xi_prime, atol=0)

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_squares_to_minus_identity(self, a, b):
        factor, factor_prime = spheres(2, 1)
        j = product_complex_structure(factor, factor_prime, HermitianParams(a, b))
        npt.assert_allclose(j @ j, -np.eye(8), atol=1e-14)

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_hermitian_compatibility(self, a, b):
        factor, factor_prime = spheres(1, 2)
        params = HermitianParams(a, b)
        g_bar = build_product_metric(factor, factor_prime, params)
        j = product_complex_structure(factor, factor_prime, params)
        npt.assert_allclose(j.T @ g_bar @ j, g_bar, atol=1e-12)


class TestNablaJ:
    def test_first_factor_block(self):
        factor, factor_prime = spheres(1, 1)
        model = build_product_model(factor, factor_prime, HermitianParams(0.5, 1.5))
        e1, xi = 0, 2
        # g((nabla_X J)Y, Z) = eta(Z) g(X,Y) - eta(Y) g(X,Z) on the first factor
        assert model.nabla_j[e1, e1, e1] == pytest.approx(0.0, abs=0)
        assert model.nabla_j[e1, e1, xi] == pytest.approx(1.0, abs=0)

    def test_mixed_derivative_block_vanishes(self):
        factor, factor_prime = spheres(1, 2)
        params = HermitianParams(0.8, 1.1)
        nabla_j = build_nabla_j(factor, factor_prime, params)
        # derivative along the second factor, both arguments in the first
        assert np.abs(nabla_j[3:, :3, :3]).max() == 0.0

    def test_second_factor_block_coefficient(self):
        factor, factor_prime = spheres(1, 1)
        a, b = 0.7, 1.2
        model = build_product_model(factor, factor_prime, HermitianParams(a, b))
        e1p, xip = 3, 5
        assert model.nabla_j[e1p, e1p, xip] == pytest.approx(a * a + b * b, abs=1e-14)

    def test_antisymmetric_in_last_two_slots(self):
        factor, factor_prime = spheres(2, 1)
        nabla_j = build_nabla_j(factor, factor_prime, HermitianParams(-0.4, 0.9))
        npt.assert_allclose(nabla_j, -np.einsum("xzy->xyz", nabla_j), atol=1e-14)


class TestIntegrability:
    def test_riemannian_product(self):
        factor, factor_prime = spheres(1, 1)
        model = build_product_model(factor, factor_prime, HermitianParams(0.0, 1.0))
        assert check_integrability(model) <= 1e-13

    def test_generic_parameters(self):
        factor, factor_prime = spheres(2, 1)
        model = build_product_model(factor, factor_prime, HermitianParams(0.7, 1.3))
        assert check_integrability(model) <= 1e-12

    def test_corrupted_structure_detected(self):
        factor, factor_prime = spheres(1, 1)
        params = HermitianParams(0.5, 1.0)
        model = build_product_model(factor, factor_prime, params)
        corrupted = model.j_bar.copy()
        corrupted[:, 5] *= -1.0  # flip the second Reeb column
        assert integrability_residual(model.nabla_j, corrupted) > 0.1


class TestNotKahler:
    def test_riemannian_product_witness(self):
        factor, factor_prime = spheres(1, 1)
        model = build_product_model(factor, factor_prime, HermitianParams(0.0, 1.0))
        assert check_not_kahler(model) == pytest.approx(1.0, abs=0)

    def test_witness_equals_parameter_norm(self):
        factor, factor_prime = spheres(1, 1)
        model = build_product_model(factor, factor_prime, HermitianParams(3.0, 4.0))
        assert check_not_kahler(model) == pytest.approx(25.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_never_vanishes(self, a, b):
        factor, factor_prime = spheres(1, 2)
        model = build_product_model(factor, factor_prime, HermitianParams(a, b))
        assert check_not_kahler(model) >= min(1.0, a * a + b * b) - 1e-14


class TestProductCurvature:
    def test_riemannian_product_block_diagonal(self):
        factor, factor_prime = spheres(1, 2)
        riemann = build_product_curvature(factor, factor_prime, HermitianParams(0.0, 1.0))
        npt.assert_allclose(riemann[:3, :3, :3, :3], factor.riemann, atol=1e-13)
        npt.assert_allclose(riemann[3:, 3:, 3:, 3:], factor_prime.riemann, atol=1e-13)
        mixed = riemann.copy()
        mixed[:3, :3, :3, :3] = 0.0
        mixed[3:, 3:, 3:, 3:] = 0.0
        assert np.abs(mixed).max() == 0.0

    def test_mixed_blocks_vanish_without_reeb_coupling(self):
        factor, factor_prime = spheres(1, 1)
        riemann = build_product_curvature(factor, factor_prime, HermitianParams(0.0, 1.7))
        assert np.abs(riemann[:3, 3:, :3, :3]).max() == 0.0

    def test_specific_mixed_entry(self):
        # g(R(e1, xi') e1, xi) = -a for unit a-coupling on 3-sphere factors
        factor, factor_prime = spheres(1, 1)
        riemann = build_product_curvature(factor, factor_prime, HermitianParams(0.5, 1.0))
        assert riemann[0, 5, 0, 2] == pytest.approx(-0.5, abs=0)

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_curvature_symmetries(self, a, b):
        factor, factor_prime = spheres(2, 1)
        riemann = build_product_curvature(factor, factor_prime, HermitianParams(a, b))
        assert max(curvature_symmetry_residuals(riemann).values()) <= 1e-12


class TestProductRicci:
    def test_mixed_block_vanishes_at_zero_coupling(self):
        factor, factor_prime = spheres(1, 2)
        ricci = build_product_ricci(factor, factor_prime, HermitianParams(0.0, 1.4))
        assert np.abs(ricci[:3, 3:]).max() == 0.0

    def test_reeb_cross_entry(self):
        factor, factor_prime = spheres(2, 1)
        ricci = build_product_ricci(factor, factor_prime, HermitianParams(1.0, 1.0))
        # 2a (p + q (a^2 + b^2)) with p=2, q=1, a=b=1
        assert ricci[4, 7] == pytest.approx(8.0, abs=0)

    @pytest.mark.parametrize(
        "first,p,q,a,b",
        [
            curvature_trace_case("round", p, q, a, b)
            for p, q in [(1, 1), (2, 1), (1, 2)]
            for a, b in PARAM_GRID
        ]
        + [
            # with a != 0 the Reeb-coupled blocks must agree with the first
            # factor's curvature also when that factor is not a round sphere
            curvature_trace_case(first, p, q, a, b)
            for first in ("deformed:0.5", "space-form:5")
            for p, q in [(1, 1), (2, 1)]
            for a, b in [(0.5, 1.0), (-0.7, 1.3), (2.0, 0.5)]
        ],
    )
    def test_matches_curvature_trace(self, first, p, q, a, b):
        factor, factor_prime = FIRST_FACTORS[first](p), make_round_sphere_model(q)
        params = HermitianParams(a, b)
        g_bar = build_product_metric(factor, factor_prime, params)
        riemann = build_product_curvature(factor, factor_prime, params)
        ricci = build_product_ricci(factor, factor_prime, params)
        npt.assert_allclose(contract_trace(riemann, g_bar), ricci, atol=1e-11)


class TestProductRicciStar:
    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_reeb_directions_annihilated(self, a, b):
        factor, factor_prime = spheres(1, 1)
        star = build_product_ricci_star(factor, factor_prime, HermitianParams(a, b))
        assert abs(star[2, 2]) == 0.0
        assert abs(star[5, 5]) == 0.0

    def test_first_factor_coefficient(self):
        factor, factor_prime = spheres(1, 1)
        star = build_product_ricci_star(factor, factor_prime, HermitianParams(1.0, 1.0))
        assert star[0, 0] == pytest.approx(-1.0, abs=0)  # 1 - 2 a q

    def test_matches_trace_definition_at_unit_parameters(self):
        factor, factor_prime = spheres(1, 1)
        model = build_product_model(factor, factor_prime, HermitianParams(0.0, 1.0))
        traced = star_ricci_from_curvature(model.riemann_bar, model.j_bar, model.g_bar)
        npt.assert_allclose(traced, model.ricci_star_bar, atol=1e-11)

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2)])
    def test_matches_trace_definition_on_round_factors(self, p, q, a, b):
        # the closed form represents the trace definition exactly when both
        # factors carry unit-sphere curvature; build_product_ricci_star has
        # no curvature-dependent term, so with a space-form factor at c != 1
        # it misses the trace definition (by 4.0 at p = q = 1, c = 5)
        model = build_product_model(*spheres(p, q), HermitianParams(a, b))
        traced = star_ricci_from_curvature(model.riemann_bar, model.j_bar, model.g_bar)
        npt.assert_allclose(traced, model.ricci_star_bar, atol=1e-11)


class TestScalarCurvatures:
    def test_star_scalar_riemannian_product(self):
        model = build_product_model(*spheres(1, 1), HermitianParams(0.0, 1.0))
        tau, tau_star = scalar_curvatures(model)
        assert tau_star == pytest.approx(4.0, abs=1e-13)

    def test_star_scalar_vanishing_case(self):
        model = build_product_model(*spheres(2, 1), HermitianParams(0.0, np.sqrt(2.0)))
        assert scalar_curvatures(model)[1] == pytest.approx(0.0, abs=1e-12)

    def test_star_scalar_spot_value(self):
        model = build_product_model(*spheres(1, 2), HermitianParams(0.0, np.sqrt(0.5)))
        assert scalar_curvatures(model)[1] == pytest.approx(16.0, abs=1e-12)

    def test_tau_matches_ricci_trace(self):
        model = build_product_model(*spheres(2, 1), HermitianParams(0.6, 1.1))
        expected = float(np.einsum("ij,ij->", np.linalg.inv(model.g_bar), model.ricci_bar))
        assert model.tau_bar == pytest.approx(expected, abs=1e-11)


class TestWeaklyStarEinstein:
    def test_riemannian_product_residual(self):
        # residual is attained on the Reeb diagonal: |0 - tau*/N| = 2/3
        model = build_product_model(*spheres(1, 1), HermitianParams(0.0, 1.0))
        weakly, residual = check_weakly_star_einstein(model)
        assert not weakly
        assert residual == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_zero_star_scalar_still_fails(self):
        model = build_product_model(*spheres(2, 1), HermitianParams(0.0, np.sqrt(2.0)))
        weakly, residual = check_weakly_star_einstein(model)
        assert not weakly
        assert residual >= 1.0

    @pytest.mark.parametrize("a,b", PARAM_GRID)
    def test_never_weakly_star_einstein(self, a, b):
        model = build_product_model(*spheres(1, 2), HermitianParams(a, b))
        weakly, residual = check_weakly_star_einstein(model)
        assert not weakly
        if abs(model.tau_star_bar) > 1e-12:
            assert residual >= abs(model.tau_star_bar) / model.dim - 1e-12


def test_riemannian_product_degeneration():
    factor, factor_prime = spheres(1, 1)
    model = build_product_model(factor, factor_prime, HermitianParams(0.0, 1.0))
    npt.assert_allclose(model.g_bar, np.eye(6), atol=1e-13)
    npt.assert_allclose(model.ricci_bar[:3, :3], factor.ricci, atol=1e-13)
    npt.assert_allclose(model.ricci_bar[3:, 3:], factor_prime.ricci, atol=1e-13)
    assert np.abs(model.ricci_bar[:3, 3:]).max() == 0.0


def test_adapted_product_frame_is_the_stated_basis():
    # Gram-Schmidt on the product metric returns the factor bases together
    # with the normalized Reeb combination (xi' - a xi)/b in the last column
    from sasakiherm.tensors import orthonormal_frame

    a, b = 0.6, 1.4
    factor, factor_prime = spheres(1, 1)
    g_bar = build_product_metric(factor, factor_prime, HermitianParams(a, b))
    frame = orthonormal_frame(g_bar)
    npt.assert_allclose(frame[:, :5], np.eye(6)[:, :5], atol=1e-13)
    expected_last = np.zeros(6)
    expected_last[2] = -a / b
    expected_last[5] = 1.0 / b
    npt.assert_allclose(frame[:, 5], expected_last, atol=1e-13)


def test_model_arrays_are_immutable():
    model = build_product_model(*spheres(1, 1), HermitianParams(0.2, 1.0))
    with pytest.raises(ValueError):
        model.g_bar[0, 0] = 7.0
    with pytest.raises(ValueError):
        model.factor.riemann[0, 0, 0, 0] = 7.0
