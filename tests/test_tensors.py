"""Pointwise tensor algebra: traces, frames, frame changes, symmetry checks."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sasakiherm.errors import IndefiniteMetricError, MetricError, SingularMetricError
from sasakiherm.tensors import (
    adapted_frame,
    change_frame,
    contract_trace,
    curvature_symmetry_residuals,
    integrability_residual,
    orthonormal_frame,
    require_spd,
    star_ricci_from_curvature,
    symmetrize,
)

from conftest import (
    bianchi_residual,
    integrability_by_definition,
    random_curvature_like,
    random_spd,
    sectional_curvature,
)


def trace_by_frame_summation(tensor, metric, slots):
    """Independent oracle: explicit summation over an orthonormal frame."""
    frame = orthonormal_frame(metric)
    n = metric.shape[0]
    out_shape = tuple(n for k in range(4) if k not in slots)
    out = np.zeros(out_shape)
    for k in range(n):
        vec = frame[:, k]
        contracted = tensor
        for slot in sorted(slots, reverse=True):
            contracted = np.tensordot(contracted, vec, axes=([slot], [0]))
        out += contracted
    return out


class TestContractTrace:
    def test_identity_like_tensor_traces_to_dimension(self):
        n = 5
        g = np.eye(n)
        t = np.einsum("yz,xw->xyzw", g, g)  # T(X,Y,Z,W) = g(Y,Z) g(X,W)
        npt.assert_allclose(contract_trace(t, g), n * g, atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_constant_curvature_gives_sphere_ricci(self, p):
        n = 2 * p + 1
        g = np.eye(n)
        r = np.einsum("yz,xw->xyzw", g, g) - np.einsum("xz,yw->xyzw", g, g)
        npt.assert_allclose(contract_trace(r, g), 2 * p * g, atol=1e-14)

    @pytest.mark.parametrize("slots", [(1, 2)])
    def test_matches_frame_summation_oracle(self, rng, slots):
        n = 4
        g = random_spd(rng, n)
        t = rng.normal(size=(n, n, n, n))
        expected = trace_by_frame_summation(t, g, slots)
        npt.assert_allclose(contract_trace(t, np.linalg.inv(g)), expected, atol=1e-13)

    def test_curvature_like_tensor_traces_alike_over_outer_slots(self, rng):
        # with the curvature symmetries R(X, e, e, W) = R(e, X, W, e), so the
        # middle-slot trace is also the trace over the first and last slots
        for n in (3, 4, 6):
            g = random_spd(rng, n)
            t = random_curvature_like(rng, n)
            expected = trace_by_frame_summation(t, g, (0, 3))
            npt.assert_allclose(contract_trace(t, np.linalg.inv(g)), expected, atol=1e-12)

    def test_linear_in_tensor_argument(self, rng):
        n = 4
        ginv = np.linalg.inv(random_spd(rng, n))
        t1 = rng.normal(size=(n, n, n, n))
        t2 = rng.normal(size=(n, n, n, n))
        lhs = contract_trace(2.5 * t1 - 0.75 * t2, ginv)
        rhs = 2.5 * contract_trace(t1, ginv) - 0.75 * contract_trace(t2, ginv)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rank_three_rejected(self):
        with pytest.raises(ValueError):
            contract_trace(np.zeros((3,) * 3), np.eye(3))

    def test_rank_two_trace_is_inverse_metric_pairing(self, rng):
        g = random_spd(rng, 5)
        form = random_spd(rng, 5, scale=0.3)
        frame, ginv = orthonormal_frame(g), np.linalg.inv(g)
        npt.assert_allclose(contract_trace(g, ginv), 5.0, atol=1e-12)
        npt.assert_allclose(
            contract_trace(form, ginv), np.trace(frame.T @ form @ frame), atol=1e-12
        )


class TestRequireSpd:
    @pytest.mark.parametrize(
        "metric",
        [
            [[1.0, 1e154], [1e154, 1e308]],
            [[1.0, 0.0], [0.0, np.inf]],
            [[1.7e308, 1.7e308], [1.7e308, 1.7e308]],
        ],
        ids=["symmetrization-past-overflow", "inf-entry", "eigenvalue-overflow"],
    )
    def test_non_finite_spectrum_rejected(self, metric):
        with pytest.raises(SingularMetricError):
            require_spd(np.array(metric))

    def test_asymmetry_bound_is_inclusive(self):
        # max |m| = 1 sets the bound to 1e-10 exactly
        require_spd(np.array([[1.0, 0.0], [1e-10, 1.0]]))
        with pytest.raises(SingularMetricError, match="metric is not symmetric"):
            require_spd(np.array([[1.0, 0.0], [2e-10, 1.0]]))

    @pytest.mark.parametrize(
        "metric,error,message",
        [
            ([[4e15, 0.0], [0.0, 2.5]], SingularMetricError,
             "metric is singular (eigenvalues 2.5 to 4e+15; "
             "min over max(1, max |eigenvalue|) = 6.25e-16, at most 1e-13)"),
            ([[2.0, 0.0], [0.0, -1.0]], IndefiniteMetricError,
             "metric is indefinite (eigenvalues -1 to 2; "
             "min over max(1, max |eigenvalue|) = -0.5, below -1e-10)"),
        ],
        ids=["singular", "indefinite"],
    )
    def test_rejection_states_the_eigenvalue_ratio(self, metric, error, message):
        with pytest.raises(error) as excinfo:
            require_spd(np.array(metric))
        assert str(excinfo.value) == message

    def test_symmetrize_stays_finite_near_overflow(self):
        form = np.array([[1.0, 1e308], [1.7e308, 1e308]])
        npt.assert_array_equal(symmetrize(form), [[1.0, 1.35e308], [1.35e308, 1e308]])


class TestOrthonormalFrame:
    def test_identity_metric_gives_standard_basis(self):
        npt.assert_allclose(orthonormal_frame(np.eye(4)), np.eye(4), atol=0)

    def test_reeb_plane_frame(self):
        # the 2x2 block [[1, a], [a, a^2 + b^2]] Gram-Schmidts to
        # {first vector, (second - a*first)/b} for b > 0
        a, b = 0.7, 1.3
        g = np.array([[1.0, a], [a, a * a + b * b]])
        frame = orthonormal_frame(g)
        npt.assert_allclose(frame[:, 0], [1.0, 0.0], atol=1e-15)
        npt.assert_allclose(frame[:, 1], [-a / b, 1.0 / b], atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
    def test_gram_matrix_is_identity(self, n, seed):
        g = random_spd(np.random.default_rng(seed), n)
        frame = orthonormal_frame(g)
        npt.assert_allclose(frame.T @ g @ frame, np.eye(n), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
    @example(2, 1096)  # inverting the Cholesky factor left 5e-17 below the diagonal
    def test_upper_triangular_with_positive_diagonal(self, n, seed):
        # the one frame of this shape is the Gram-Schmidt frame of the standard
        # basis, and its zeros are exact
        frame = orthonormal_frame(random_spd(np.random.default_rng(seed), n))
        assert np.all(np.tril(frame, -1) == 0.0)
        assert np.all(np.diag(frame) > 0.0)

    def test_spans_standard_basis(self, rng):
        g = random_spd(rng, 5)
        frame = orthonormal_frame(g)
        coords = np.linalg.solve(frame, np.eye(5))
        npt.assert_allclose(frame @ coords, np.eye(5), atol=1e-12)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(MetricError):
            orthonormal_frame(np.diag([1.0, -1.0]))

    def test_singular_metric_rejected(self):
        with pytest.raises(MetricError):
            orthonormal_frame(np.ones((2, 2)))


class TestChangeFrame:
    @pytest.mark.parametrize(
        "subscripts",
        ["ia,jb,ij->ab", "ia,jb,kc,ijk->abc", "ia,jb,kc,ld,ijkl->abcd"],
        ids=["rank2", "rank3", "rank4"],
    )
    def test_matches_multi_operand_einsum(self, rng, subscripts):
        n = 5
        rank = subscripts.count(",")
        frame = rng.normal(size=(n, n))
        tensor = rng.normal(size=(n,) * rank)
        expected = np.einsum(subscripts, *([frame] * rank), tensor)
        npt.assert_allclose(change_frame(frame, tensor), expected, atol=1e-12)


class TestAdaptedFrame:
    def test_pairs_and_reeb_on_deformed_metric(self):
        n = 5
        eta = np.zeros(n)
        eta[-1] = 1.0
        alpha = 0.5
        g = alpha * np.eye(n) + alpha * (alpha - 1.0) * np.outer(eta, eta)
        phi = np.zeros((n, n))
        for k in range(2):
            phi[2 * k + 1, 2 * k] = 1.0
            phi[2 * k, 2 * k + 1] = -1.0
        xi = eta / alpha
        frame = adapted_frame(g, phi, xi)
        npt.assert_allclose(frame.T @ g @ frame, np.eye(n), atol=1e-13)
        # phi maps each even column to the next one, Reeb vector last
        for k in range(2):
            npt.assert_allclose(phi @ frame[:, 2 * k], frame[:, 2 * k + 1], atol=1e-13)
        npt.assert_allclose(frame[:, -1], xi / np.sqrt(xi @ g @ xi), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_conjugated_standard_structures(self, rng, n):
        # g = P^-T P^-1, phi = P phi0 P^-1 and xi = P xi0 form an almost
        # contact metric structure for every invertible P, with phi-planes
        # that no coordinate axis lies in
        dim = 2 * n + 1
        phi0 = np.zeros((dim, dim))
        phi0[1:-1:2, 0:-1:2] = np.eye(n)
        phi0[0:-1:2, 1:-1:2] = -np.eye(n)
        eps = np.finfo(float).eps
        for _ in range(20):
            p = rng.normal(size=(dim, dim))
            p_inv = np.linalg.inv(p)
            g = symmetrize(p_inv.T @ p_inv)
            phi, xi = p @ phi0 @ p_inv, p[:, -1]
            frame = adapted_frame(g, phi, xi)
            tol = 64 * eps * np.linalg.cond(g)
            npt.assert_allclose(frame.T @ g @ frame, np.eye(dim), rtol=0, atol=tol)
            npt.assert_allclose(phi @ frame[:, 0:-1:2], frame[:, 1:-1:2],
                                rtol=0, atol=tol * np.abs(frame).max())
            npt.assert_allclose(frame[:, -1], xi / np.sqrt(xi @ g @ xi), rtol=4 * eps, atol=0)

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            adapted_frame(np.eye(4), np.zeros((4, 4)), np.ones(4))


class TestCurvatureChecks:
    def test_sphere_curvature_passes(self):
        g = np.eye(5)
        r = np.einsum("yz,xw->xyzw", g, g) - np.einsum("xz,yw->xyzw", g, g)
        assert max(curvature_symmetry_residuals(r).values()) == 0.0

    def test_generator_produces_symmetric_tensors(self, rng):
        t = random_curvature_like(rng, 4)
        res = curvature_symmetry_residuals(t)
        assert max(res.values()) < 1e-12
        assert bianchi_residual(t) < 1e-12

    def test_detects_symmetry_violation(self, rng):
        t = random_curvature_like(rng, 3)
        t = t.copy()
        t[0, 1, 2, 1] += 0.3
        res = curvature_symmetry_residuals(t)
        assert max(res.values()) >= 0.3 - 1e-12


def symmetry_residuals_with_temporaries(t):
    """The four residuals as written before the scratch tensor: one temporary per sum."""
    return {
        "first_pair_antisymmetry": float(np.abs(t + np.einsum("yxzw->xyzw", t)).max()),
        "second_pair_antisymmetry": float(np.abs(t + np.einsum("xywz->xyzw", t)).max()),
        "pair_symmetry": float(np.abs(t - np.einsum("zwxy->xyzw", t)).max()),
        "first_bianchi": float(
            np.abs(t + np.einsum("yzxw->xyzw", t) + np.einsum("zxyw->xyzw", t)).max()
        ),
    }


class TestCurvatureSymmetryScratch:
    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_bit_identical_to_the_reference(self, rng, n):
        for t in (rng.normal(size=(n,) * 4), random_curvature_like(rng, n)):
            assert curvature_symmetry_residuals(t) == symmetry_residuals_with_temporaries(t)

    def test_peak_is_one_scratch_tensor(self, rng):
        t = rng.normal(size=(22,) * 4)
        tracemalloc.start()
        try:
            curvature_symmetry_residuals(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * t.nbytes


def random_complex_structure(rng, n):
    """An orthogonal ``J`` with ``J^2 = -I``: the standard rotation in a random orthonormal basis."""
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    rotation = np.zeros((n, n))
    k = np.arange(n // 2)
    rotation[2 * k + 1, 2 * k] = 1.0
    rotation[2 * k, 2 * k + 1] = -1.0
    return basis @ rotation @ basis.T


@pytest.mark.parametrize("n", [6, 10, 22, 42])
def test_integrability_residual_matches_the_definition(rng, n):
    j = random_complex_structure(rng, n)
    nabla_j = rng.normal(size=(n, n, n))
    assert integrability_residual(nabla_j, j) == pytest.approx(
        integrability_by_definition(nabla_j, j), rel=0, abs=1e-14 * np.abs(nabla_j).max()
    )


class TestStarRicci:
    def test_kahler_product_star_ricci_equals_ricci(self):
        # two round 2-spheres with the product rotation structure form a
        # Kahler manifold, where the star-Ricci and Ricci forms coincide
        g2 = np.eye(2)
        r2 = np.einsum("yz,xw->xyzw", g2, g2) - np.einsum("xz,yw->xyzw", g2, g2)
        j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
        g = np.eye(4)
        r = np.zeros((4, 4, 4, 4))
        r[:2, :2, :2, :2] = r2
        r[2:, 2:, 2:, 2:] = r2
        j = np.zeros((4, 4))
        j[:2, :2] = j2
        j[2:, 2:] = j2
        ricci = np.einsum("ij,aijb->ab", np.linalg.inv(g), r)
        npt.assert_allclose(star_ricci_from_curvature(r, j, g), ricci, atol=1e-14)

    def test_matches_bruteforce_trace(self, rng):
        n = 4
        t = random_curvature_like(rng, n)
        g = random_spd(rng, n)
        j = rng.normal(size=(n, n))
        ginv = np.linalg.inv(g)
        expected = np.zeros((n, n))
        for x in range(n):
            for y in range(n):
                acc = 0.0
                for k in range(n):
                    lowered = np.einsum("mnl,m,n->l", t[x], j[:, k], j[:, y])
                    acc += (ginv @ lowered)[k]
                expected[x, y] = acc
        npt.assert_allclose(star_ricci_from_curvature(t, j, ginv), expected, atol=1e-12)


def test_sectional_curvature_of_unit_sphere(rng):
    g = np.eye(5)
    r = np.einsum("yz,xw->xyzw", g, g) - np.einsum("xz,yw->xyzw", g, g)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    assert sectional_curvature(r, g, x, y) == pytest.approx(1.0, abs=1e-12)
