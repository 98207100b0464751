"""Stereographic charts, stencil differentiation, and the oracle comparison."""

import dataclasses
import inspect
from math import factorial
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sasakiherm.chart
import sasakiherm.product
import sasakiherm.sasakian
from sasakiherm.chart import (
    FactorChart,
    SphereChart,
    canonical_sasakian_fields,
    christoffels_fd,
    compare_with_algebraic,
    nijenhuis_fd,
    partial_derivatives,
    product_field_functions,
    riemann_fd,
    sample_chart_points,
    _stereographic,
    _two_jet,
)
from sasakiherm.einstein import calabi_eckmann_einstein_example
from sasakiherm.errors import ChartDomainError, InvalidParameterError
from sasakiherm.product import (
    HermitianParams,
    build_product_model,
    product_complex_structure,
    product_metric,
)
from sasakiherm.sasakian import (
    SasakianPointModel,
    SasakianStructure,
    d_homothetic_deform,
    make_round_sphere_model,
    verify_sasakian_curvature_identities,
)
from sasakiherm.tensors import adapted_frame, contract_trace

from conftest import sectional_curvature



def round_metric(chart):
    """The round metric field of a sphere chart, ``(2 / (1 + |u|^2))^2 I``."""
    return lambda u: canonical_sasakian_fields(chart, u).metric


def riemann_nested(metric_field, u):
    """Reference curvature: a stencil of the Christoffel symbols, each taken
    from a stencil of the metric at one outer stencil point."""
    gamma_field = lambda v: np.array([christoffels_fd(metric_field, w) for w in v])
    gamma = christoffels_fd(metric_field, u)
    dgamma = partial_derivatives(gamma_field, u)  # [d, m, j, k] = d_d Gamma^m_{jk}
    r_up = (
        np.einsum("imjk->mijk", dgamma)
        - np.einsum("jmik->mijk", dgamma)
        + np.einsum("mil,ljk->mijk", gamma, gamma)
        - np.einsum("mjl,lik->mijk", gamma, gamma)
    )
    return np.einsum("lm,mijk->ijkl", metric_field(u), r_up)


def test_stencil_step_is_the_documented_constant():
    assert sasakiherm.chart._STEP == 1e-3
    assert "`h` is `1e-3`" in (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_the_step_is_no_parameter():
    assert not hasattr(sasakiherm.chart, "StencilConfig")
    for fn in (
        partial_derivatives, christoffels_fd, riemann_fd, nijenhuis_fd, compare_with_algebraic
    ):
        assert not {"cfg", "step"} & set(inspect.signature(fn).parameters), fn.__name__


def _moments(stencil, order, powers):
    """``sum c d^k / k!`` of a stencil in units of the step, one entry per power tuple."""
    h = sasakiherm.chart._STEP
    displacements, coefficients = stencil
    d, c = displacements / h, coefficients * h**order
    return {k: float(c @ np.prod(d**k / [factorial(a) for a in k], axis=1)) for k in powers}


@pytest.mark.parametrize("name,order", [("_FIRST", 1), ("_PURE", 2)])
def test_folded_axis_stencils_are_order_six(name, order):
    """Richardson over the order-4 stencil at ``h`` and ``h/2`` cancels the
    ``h^4`` term too: every moment below ``order + 6`` is exact, and the next
    one is not."""
    moments = _moments(getattr(sasakiherm.chart, name), order, [(k,) for k in range(order + 7)])
    leading = moments.pop((order + 6,))
    for (k,), value in moments.items():
        assert abs(value - (k == order)) <= 1e-10, (k, value)
    assert leading == pytest.approx(order / 5040, rel=1e-6)


def test_folded_mixed_stencil_is_order_six():
    """Every moment of total degree below 8 is exact, so the ``h^4`` terms
    ``(1, 5)`` and ``(5, 1)``, which the plain order-4 product stencil keeps,
    cancel; ``(1, 7)`` does not."""
    powers = [(a, b) for a in range(8) for b in range(8) if a + b <= 7]
    moments = _moments(sasakiherm.chart._MIXED, 2, powers + [(1, 7)])
    leading = moments.pop((1, 7))
    for (a, b), value in moments.items():
        assert abs(value - ((a, b) == (1, 1))) <= 1e-10, (a, b, value)
    assert leading == pytest.approx(1 / 5040, rel=1e-6)


def test_partial_derivatives_on_polynomial():
    f = lambda u: np.stack([u[..., 0] ** 3 * u[..., 1], np.sin(u[..., 1])], axis=-1)
    u = np.array([0.3, -0.4])
    d = partial_derivatives(f, u)
    npt.assert_allclose(d[0], [3 * 0.3**2 * (-0.4), 0.0], atol=1e-11)
    npt.assert_allclose(d[1], [0.3**3, np.cos(-0.4)], atol=1e-11)


def test_second_partial_derivatives_on_polynomial():
    f = lambda u: np.stack(
        [u[..., 0] ** 3 * u[..., 1], u[..., 0] ** 2 * u[..., 1] ** 2 * u[..., 2] + u[..., 2] ** 4],
        axis=-1,
    )
    x, y, z = u = np.array([0.3, -0.4, 0.7])
    d2 = _two_jet(f, u)[1]
    expected = np.array(
        [
            [[6 * x * y, 2 * y * y * z], [3 * x * x, 4 * x * y * z], [0.0, 2 * x * y * y]],
            [[3 * x * x, 4 * x * y * z], [0.0, 2 * x * x * z], [0.0, 2 * x * x * y]],
            [[0.0, 2 * x * y * y], [0.0, 2 * x * x * y], [0.0, 12 * z * z]],
        ]
    )
    npt.assert_allclose(d2, expected, atol=1e-9)


class TestSphereChart:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SphereChart(5)
        for alpha in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match=f"positive and finite, got {alpha}"):
                FactorChart(SphereChart(4), alpha=alpha)

    def test_embedding_lands_on_sphere(self, rng):
        chart = SphereChart(6)
        for point in sample_chart_points(rng, chart.dim, count=10):
            x = _stereographic(chart, point)[0]
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_origin_maps_to_pole(self):
        # the pole is the last ambient axis
        npt.assert_array_equal(_stereographic(SphereChart(4), np.zeros(3))[0], [0.0, 0.0, 0.0, 1.0])

    def test_jacobian_matches_finite_differences(self, rng):
        chart = SphereChart(4)
        u = sample_chart_points(rng, 3, count=1)[0]
        fd = partial_derivatives(lambda v: _stereographic(chart, v)[0], u)
        npt.assert_allclose(np.einsum("ia->ai", fd), _stereographic(chart, u)[1], atol=1e-11)

    def test_domain_errors(self):
        chart = SphereChart(4)
        with pytest.raises(ChartDomainError):
            _stereographic(chart, np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ChartDomainError):
            canonical_sasakian_fields(chart, np.full(3, 1.0e7))

    @pytest.mark.parametrize(
        "factor_point,product_point",
        [
            ([np.nan, 0.0, 0.0], [0.1, 0.1, 0.1, np.nan, 0.0, 0.0]),
            ([1.0e7, 0.0, 0.0], [0.1, 0.1, 0.1, 1.0e7, 0.0, 0.0]),
            (np.zeros(2), np.zeros(5)),
            (np.zeros((3, 1)), np.zeros((6, 1))),
            ([[0.1] * 3, [0.2, np.nan, 0.0]], [[0.1] * 6, [0.2, np.nan, 0.0, 0.1, 0.1, 0.1]]),
            ([[0.1] * 3, [0.0, 1.0e7, 0.0]], [[0.1] * 6, [0.1, 0.1, 0.1, 0.0, 0.0, 1.0e7]]),
            (np.zeros((2, 4)), np.zeros((2, 7))),
        ],
        ids=["nan", "beyond-radius", "short", "column",
             "stack-nan", "stack-beyond-radius", "stack-width"],
    )
    def test_field_paths_reject_bad_coordinates(self, factor_point, product_point):
        # the factor fields and both product closures validate every point,
        # or every row of a stack, through the one stereographic map
        fc = FactorChart(SphereChart(4), alpha=0.5)
        metric_fn, j_fn = product_field_functions(fc, fc, HermitianParams(0.5, 1.0))
        for evaluate, point in (
            (fc.fields, factor_point), (metric_fn, product_point), (j_fn, product_point)
        ):
            with pytest.raises(ChartDomainError):
                evaluate(point)


class TestPullbackMetric:
    def test_conformal_factor_at_origin(self):
        metric = canonical_sasakian_fields(SphereChart(4), np.zeros(3)).metric
        npt.assert_allclose(metric, 4.0 * np.eye(3), atol=0)

    def test_conformal_factor_at_unit_radius(self):
        u = np.array([1.0, 0.0, 0.0])
        npt.assert_allclose(canonical_sasakian_fields(SphereChart(4), u).metric, np.eye(3), atol=1e-15)

    def test_matches_embedding_first_fundamental_form(self, rng):
        # oracle: differentiate the embedding itself and form J^T J
        chart = SphereChart(6)
        u = sample_chart_points(rng, 5, count=1)[0]
        fd = partial_derivatives(lambda v: _stereographic(chart, v)[0], u)
        jac = np.einsum("ia->ai", fd)
        npt.assert_allclose(jac.T @ jac, canonical_sasakian_fields(chart, u).metric, atol=1e-11)


class TestCanonicalFields:
    def test_reeb_field_is_unit(self, rng):
        chart = SphereChart(6)
        for point in sample_chart_points(rng, 5, count=50):
            fields = canonical_sasakian_fields(chart, point)
            assert fields.xi @ fields.metric @ fields.xi == pytest.approx(1.0, abs=1e-12)

    def test_almost_contact_algebra(self, rng):
        chart = SphereChart(4)
        for point in sample_chart_points(rng, 3, count=10):
            f = canonical_sasakian_fields(chart, point)
            npt.assert_allclose(
                f.phi @ f.phi, -np.eye(3) + np.outer(f.xi, f.eta), atol=1e-13
            )
            npt.assert_allclose(f.phi.T @ f.metric @ f.phi,
                                f.metric - np.outer(f.eta, f.eta), atol=1e-13)
            npt.assert_allclose(f.eta, f.metric @ f.xi, atol=1e-13)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_reeb_derivative_identity(self, rng, alpha):
        # nabla_X xi = -phi X, stencil-differentiated
        factor = FactorChart(SphereChart(4), alpha=alpha)
        for point in sample_chart_points(rng, 3, count=5):
            gamma = christoffels_fd(factor.metric_at, point)
            dxi = partial_derivatives(lambda v: factor.fields(v).xi, point)
            fields = factor.fields(point)
            nabla_xi = np.einsum("im->mi", dxi) + np.einsum("mil,l->mi", gamma, fields.xi)
            npt.assert_allclose(nabla_xi, -fields.phi, atol=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_phi_derivative_identity(self, rng, alpha):
        # (nabla_X phi) Y = g(X, Y) xi - eta(Y) X, stencil-differentiated
        factor = FactorChart(SphereChart(4), alpha=alpha)
        for point in sample_chart_points(rng, 3, count=5):
            gamma = christoffels_fd(factor.metric_at, point)
            dphi = partial_derivatives(lambda v: factor.fields(v).phi, point)
            f = factor.fields(point)
            nabla_phi = (
                np.einsum("imj->mij", dphi)
                + np.einsum("mil,lj->mij", gamma, f.phi)
                - np.einsum("ml,lij->mij", f.phi, gamma)
            )
            expected = np.einsum("ij,m->mij", f.metric, f.xi) - np.einsum(
                "j,mi->mij", f.eta, np.eye(3)
            )
            npt.assert_allclose(nabla_phi, expected, atol=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 0.4])
    def test_contact_condition(self, rng, alpha):
        # d eta(X, Y) = g(X, phi Y) with the half-factor exterior derivative
        factor = FactorChart(SphereChart(6), alpha=alpha)
        for point in sample_chart_points(rng, 5, count=5):
            deta = partial_derivatives(lambda v: factor.fields(v).eta, point)
            f = factor.fields(point)
            lhs = 0.5 * (deta - deta.T)
            npt.assert_allclose(lhs, f.metric @ f.phi, atol=1e-6)

    def test_raised_indices_match_metric_solves(self, rng):
        # the round metric is conformally flat, so xi and phi come out of a
        # division; a general linear solve against the metric is the reference
        chart = SphereChart(6)
        j0 = np.kron(np.eye(3), [[0.0, -1.0], [1.0, 0.0]])  # pairs (x_0, x_1), ...
        for point in sample_chart_points(rng, 5, count=10):
            f = canonical_sasakian_fields(chart, point)
            x, jac, _ = _stereographic(chart, point)
            # eta against the test's own J0 guards the chart's fixed J0
            npt.assert_allclose(f.eta, -jac.T @ j0 @ x, rtol=1e-14, atol=1e-15)
            npt.assert_allclose(f.xi, np.linalg.solve(f.metric, f.eta), rtol=1e-14, atol=0)
            npt.assert_allclose(
                f.phi, np.linalg.solve(f.metric, jac.T @ j0 @ jac), rtol=1e-14, atol=1e-15
            )

    def test_eta_derivative_identity(self, rng):
        # (nabla_X eta)(Y) = -g(phi X, Y)
        factor = FactorChart(SphereChart(4))
        for point in sample_chart_points(rng, 3, count=5):
            gamma = christoffels_fd(factor.metric_at, point)
            deta = partial_derivatives(lambda v: factor.fields(v).eta, point)
            f = factor.fields(point)
            nabla_eta = deta - np.einsum("lij,l->ij", gamma, f.eta)
            npt.assert_allclose(nabla_eta, -(f.phi.T @ f.metric), atol=1e-6)


def test_chart_fields_and_factor_models_share_one_record(rng):
    # a stack of chart fields and an adapted-frame model carry the same
    # derived pairings, each equal to its explicit formula
    stack = FactorChart(SphereChart(4), alpha=0.5).fields(sample_chart_points(rng, 3, count=3))
    model = d_homothetic_deform(make_round_sphere_model(2), 0.5)
    for record in (stack, model):
        assert isinstance(record, SasakianStructure)
        eta_eta = np.einsum("...x,...y->...xy", record.eta, record.eta)
        npt.assert_array_equal(record.eta_eta, eta_eta)
        npt.assert_array_equal(record.transverse, record.metric - eta_eta)
        npt.assert_allclose(
            record.gphi, np.einsum("...ax,...ay->...xy", record.phi, record.metric),
            rtol=1e-14, atol=1e-15,
        )
    assert stack.metric.shape == (3, 3, 3)


class TestChristoffels:
    def test_flat_metric_gives_zero(self):
        flat = lambda u: np.broadcast_to(np.eye(3), u.shape[:-1] + (3, 3))
        gamma = christoffels_fd(flat, np.array([0.1, 0.2, -0.3]))
        npt.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_sphere_chart_origin(self):
        # the conformal factor is critical at the origin, so all symbols vanish
        chart = SphereChart(4)
        gamma = christoffels_fd(round_metric(chart), np.zeros(3))
        npt.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_metric_compatibility(self, rng):
        chart = SphereChart(4)
        metric_field = round_metric(chart)
        point = sample_chart_points(rng, 3, count=1)[0]
        gamma = christoffels_fd(metric_field, point)
        dg = partial_derivatives(metric_field, point)
        g = metric_field(point)
        compat = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
        npt.assert_allclose(compat, 0.0, atol=1e-7)

    def test_lower_index_symmetry(self, rng):
        chart = SphereChart(6)
        point = sample_chart_points(rng, 5, count=1)[0]
        gamma = christoffels_fd(round_metric(chart), point)
        npt.assert_allclose(gamma, np.einsum("kji->kij", gamma), atol=1e-9)


class TestRiemannFD:
    def test_unit_sphere_sectional_curvature(self, rng):
        chart = SphereChart(4)
        point = sample_chart_points(rng, 3, count=1)[0]
        metric_field = round_metric(chart)
        riemann = riemann_fd(metric_field, point)
        for _ in range(5):
            x, y = rng.normal(size=(2, 3))
            assert sectional_curvature(riemann, metric_field(point), x, y) == pytest.approx(
                1.0, abs=1e-4
            )

    @pytest.mark.parametrize("q,alpha", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 0.5)])
    def test_matches_nested_christoffel_stencils(self, rng, q, alpha):
        factor_chart = FactorChart(SphereChart(2 * q + 2), alpha=alpha)
        point = sample_chart_points(rng, factor_chart.dim, count=1)[0]
        metric_field = factor_chart.metric_at
        npt.assert_allclose(
            riemann_fd(metric_field, point), riemann_nested(metric_field, point),
            rtol=0, atol=1e-8,
        )

    @pytest.mark.parametrize("dim,evaluations", [(3, 151), (5, 411)])
    def test_metric_evaluations_per_call(self, dim, evaluations):
        # points, counted as stack rows: the point, 18 distinct points per
        # axis (its pure second partial, which also holds the 8 of its first
        # partial) and 32 per mixed pair: 1 + 18 n + 16 n (n - 1)
        rows = []

        def metric_field(u):
            rows.append(u.reshape(-1, dim).shape[0])
            return np.eye(dim) + u[..., :, None] * u[..., None, :]

        riemann_fd(metric_field, np.full(dim, 0.1))
        assert sum(rows) == evaluations

    def test_flat_chart_curvature_vanishes(self):
        flat = lambda u: np.broadcast_to(np.eye(4), u.shape[:-1] + (4, 4))
        riemann = riemann_fd(flat, np.full(4, 0.2))
        npt.assert_allclose(riemann, 0.0, atol=1e-8)

    def test_five_sphere_is_einstein(self, rng):
        chart = SphereChart(6)
        point = sample_chart_points(rng, 5, count=1)[0]
        metric_field = round_metric(chart)
        ricci = contract_trace(
            riemann_fd(metric_field, point), np.linalg.inv(metric_field(point))
        )
        npt.assert_allclose(ricci, 4.0 * metric_field(point), atol=1e-4)

    @pytest.mark.parametrize("q,alpha", [(1, 0.5), (2, 2.0), (2, 0.5)])
    def test_identity_suite_on_deformed_chart(self, rng, q, alpha):
        # the identity suite, fed the stencil curvature of a deformed sphere
        # (c = 4 / alpha - 3 != 1) in its adapted frame, holds at FD accuracy
        factor_chart = FactorChart(SphereChart(2 * q + 2), alpha=alpha)
        point = sample_chart_points(rng, factor_chart.dim, count=1)[0]
        fields = factor_chart.fields(point)
        riemann = riemann_fd(factor_chart.metric_at, point)
        frame = adapted_frame(fields.metric, fields.phi, fields.xi)
        riemann = np.einsum("ia,jb,kc,ld,ijkl->abcd", frame, frame, frame, frame, riemann)
        model = SasakianPointModel(
            n=q, riemann=riemann,
            ricci=contract_trace(riemann, np.linalg.inv(frame.T @ fields.metric @ frame)),
        )
        assert verify_sasakian_curvature_identities(model).max_residual() <= 1e-6


class TestProductFields:
    def test_block_diagonal_at_unit_parameters(self, rng):
        fc = FactorChart(SphereChart(4))
        point = sample_chart_points(rng, 6, count=1)[0]
        metric_fn, _ = product_field_functions(fc, fc, HermitianParams(0.0, 1.0))
        g_bar = metric_fn(point)
        assert np.abs(g_bar[:3, 3:]).max() == 0.0
        npt.assert_allclose(g_bar[:3, :3], fc.metric_at(point[:3]), atol=1e-14)

    def test_complex_structure_squares_to_minus_identity(self, rng):
        fc = FactorChart(SphereChart(4))
        _, j_fn = product_field_functions(fc, fc, HermitianParams(0.7, 1.4))
        for point in sample_chart_points(rng, 6, count=50):
            j_bar = j_fn(point)
            npt.assert_allclose(j_bar @ j_bar, -np.eye(6), atol=1e-12)

    def test_metric_compatibility(self, rng):
        fc = FactorChart(SphereChart(4))
        metric_fn, j_fn = product_field_functions(fc, fc, HermitianParams(-0.5, 0.8))
        for point in sample_chart_points(rng, 6, count=50):
            g_bar, j_bar = metric_fn(point), j_fn(point)
            npt.assert_allclose(j_bar.T @ g_bar @ j_bar, g_bar, atol=1e-12)


@pytest.fixture
def field_calls(monkeypatch):
    """Coordinates passed to ``FactorChart.fields``, one entry per call."""
    calls = []
    fields = FactorChart.fields
    monkeypatch.setattr(FactorChart, "fields", lambda self, u: calls.append(u) or fields(self, u))
    return calls


def _rows(u):
    """Number of chart points in one point or a ``(k, n)`` stack."""
    return 1 if np.ndim(u) == 1 else len(u)


class TestStencilBatches:
    def test_batch_matches_row_by_row(self, rng):
        params = HermitianParams(-0.7, 1.3)
        charts = (SphereChart(4), SphereChart(6))
        for alpha in (1.0, 0.5, 2.5):
            fc1, fc2 = FactorChart(charts[0], alpha=alpha), FactorChart(charts[1], alpha=alpha)
            stack = sample_chart_points(rng, 3, count=6)
            sphere_point = lambda u: _stereographic(charts[0], u)[0]
            npt.assert_allclose(
                sphere_point(stack), [sphere_point(u) for u in stack], rtol=1e-14
            )
            for evaluate in (lambda u: canonical_sasakian_fields(charts[0], u), fc1.fields):
                batch, rows = evaluate(stack), [evaluate(u) for u in stack]
                for name in ("metric", "xi", "eta", "phi"):
                    npt.assert_allclose(
                        getattr(batch, name), [getattr(f, name) for f in rows], rtol=1e-14
                    )
            stack = sample_chart_points(rng, 8, count=6)
            metric_fn, j_fn = product_field_functions(fc1, fc2, params)
            for evaluate in (metric_fn, j_fn):
                npt.assert_allclose(evaluate(stack), [evaluate(u) for u in stack], rtol=1e-14)
            # each row is the shared block formula of the factor fields
            f1, f2 = fc1.fields(stack[0, :3]), fc2.fields(stack[0, 3:])
            assert np.array_equal(metric_fn(stack[0]), product_metric(f1, f2, params))
            assert np.array_equal(j_fn(stack[0]), product_complex_structure(f1, f2, params))

    def test_one_call_per_axis_and_per_pair(self):
        # the chunk sizes bound the memory of a stencil: one axis or one pair
        rows = []

        def field(u):
            rows.append(_rows(u))
            return np.sin(u)

        partial_derivatives(field, np.full(4, 0.1))
        assert rows == [8] * 4
        rows.clear()
        _two_jet(field, np.full(3, 0.1))
        assert rows == [18, 32, 32, 18, 32, 18]

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_axis_points_give_both_derivative_orders(self, rng, alpha):
        # one call on an axis's 18 points gives its first partial bit for bit
        # as the 8-point stencil, for the field and for every further stack
        fc1, fc2 = FactorChart(SphereChart(4), alpha=alpha), FactorChart(SphereChart(6), alpha)
        point = sample_chart_points(rng, 8, count=1)[0]
        polynomial = lambda u: np.stack(
            [u[..., 0] ** 3 * u[..., 1], u[..., 1] ** 2 * u[..., 2] + u[..., 2] ** 4], axis=-1
        )
        metric_fn, j_fn = product_field_functions(fc1, fc2, HermitianParams(-0.7, 1.3))
        for f, u in ((polynomial, point[:3]), (metric_fn, point), (j_fn, point)):
            assert np.array_equal(_two_jet(f, u)[0], partial_derivatives(f, u))

        def axis_fields(i, points):
            moving = fc1.metric_at(points[:, :3]) if i < 3 else fc2.metric_at(points[:, 3:])
            return metric_fn(points), j_fn(points), moving

        _, _, (dj, dfactor) = _two_jet(metric_fn, point, axis_fields)
        assert np.array_equal(dj, partial_derivatives(j_fn, point))
        assert np.array_equal(dfactor[:3], partial_derivatives(fc1.metric_at, point[:3]))
        assert np.array_equal(dfactor[3:], partial_derivatives(fc2.metric_at, point[3:]))

    def test_factor_field_calls_per_comparison(self, field_calls, rng):
        # N = 6: both factors at the point (2), then one call per factor for
        # each of 6 axes (12), whose 18 points give g_bar, J_bar and the
        # moving factor's metric, and for each of 15 pairs of g_bar (30)
        model = build_product_model(
            make_round_sphere_model(1), make_round_sphere_model(1), HermitianParams(0.5, 1.0)
        )
        fc = FactorChart(SphereChart(4))
        point = sample_chart_points(rng, 6, count=1)[0]
        compare_with_algebraic(fc, fc, HermitianParams(0.5, 1.0), model, point)
        assert len(field_calls) == 44
        assert max(_rows(u) for u in field_calls) == 32


class TestNijenhuis:
    def test_constant_structure_is_integrable(self):
        j = np.zeros((4, 4))
        j[1, 0] = j[3, 2] = 1.0
        j[0, 1] = j[2, 3] = -1.0
        constant = lambda u: np.broadcast_to(j, u.shape[:-1] + (4, 4))
        result = nijenhuis_fd(constant, np.full(4, 0.1))
        npt.assert_allclose(result, 0.0, atol=1e-10)

    def test_product_structure_is_integrable(self, rng):
        fc = FactorChart(SphereChart(4))
        _, j_fn = product_field_functions(fc, fc, HermitianParams(0.5, 1.5))
        for point in sample_chart_points(rng, 6, count=20):
            assert np.abs(nijenhuis_fd(j_fn, point)).max() <= 1e-5

    def test_sign_flipped_rotation_stays_integrable(self, rng):
        # flipping the rotation on one factor keeps J^2 = -I and, perhaps
        # surprisingly, keeps integrability: the flipped factor carries the
        # Sasakian structure with both Reeb data signs reversed, so the
        # corrupted map still belongs to an integrable family
        fc = FactorChart(SphereChart(4))
        params = HermitianParams(0.5, 1.5)
        a, b = params.a, params.b

        def flipped_j(u):
            f1 = fc.fields(u[..., :3])
            f2 = fc.fields(u[..., 3:])
            outer = lambda x, y: x[..., :, None] * y[..., None, :]
            j = np.zeros(u.shape[:-1] + (6, 6))
            j[..., :3, :3] = f1.phi - (a / b) * outer(f1.xi, f1.eta)
            j[..., 3:, :3] = (1.0 / b) * outer(f2.xi, f1.eta)
            j[..., :3, 3:] = -((a * a + b * b) / b) * outer(f1.xi, f2.eta)
            j[..., 3:, 3:] = -f2.phi + (a / b) * outer(f2.xi, f2.eta)
            return j

        point = sample_chart_points(rng, 6, count=1)[0]
        j = flipped_j(point)
        npt.assert_allclose(j @ j, -np.eye(6), atol=1e-12)
        assert np.abs(nijenhuis_fd(flipped_j, point)).max() <= 1e-5

    def test_point_dependent_conjugation_is_not_integrable(self, rng):
        # genuine negative control: conjugating by a position-dependent
        # rotation preserves J^2 = -I pointwise but breaks integrability
        fc = FactorChart(SphereChart(4))
        _, j_fn = product_field_functions(fc, fc, HermitianParams(0.5, 1.5))

        def conjugated_j(u):
            theta = 0.7 * u[..., 0]
            rot = np.zeros(u.shape[:-1] + (6, 6))
            rot[...] = np.eye(6)
            rot[..., 0, 0] = rot[..., 1, 1] = np.cos(theta)
            rot[..., 0, 1] = -np.sin(theta)
            rot[..., 1, 0] = np.sin(theta)
            return rot @ j_fn(u) @ np.swapaxes(rot, -1, -2)

        point = sample_chart_points(rng, 6, count=1)[0]
        j = conjugated_j(point)
        npt.assert_allclose(j @ j, -np.eye(6), atol=1e-12)
        assert np.abs(nijenhuis_fd(conjugated_j, point)).max() > 0.05


class TestCompareWithAlgebraic:
    @pytest.mark.parametrize(
        "builder",
        [
            "build_nabla_j",
            "build_product_curvature",
            "build_product_ricci",
            "build_product_ricci_star",
            "build_product_model",
            "product_metric_inverse",
            "d_homothetic_deform",
        ],
    )
    def test_oracle_binds_no_closed_form_tensor(self, builder):
        # the oracle is only evidence while it derives these tensors itself;
        # it may share the deformation of (g, xi, eta), not the deformed curvature
        module = sasakiherm.sasakian if builder == "d_homothetic_deform" else sasakiherm.product
        closed_form = getattr(module, builder)
        assert not hasattr(sasakiherm.chart, builder)
        assert all(value is not closed_form for value in vars(sasakiherm.chart).values())

    def test_certifies_and_inverts_the_metric_once(self, monkeypatch, rng):
        # g_bar at the point is checked and inverted once, before any stencil,
        # and that inverse serves the curvature and both traces
        fc1, fc2 = FactorChart(SphereChart(4)), FactorChart(SphereChart(4), alpha=0.5)
        params = HermitianParams(0.5, 1.0)
        model = build_product_model(
            make_round_sphere_model(1), d_homothetic_deform(make_round_sphere_model(1), 0.5), params
        )
        point = sample_chart_points(rng, 6, count=1)[0]
        calls = {"require_spd": 0, "inv": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            sasakiherm.chart, "require_spd", counted("require_spd", sasakiherm.chart.require_spd)
        )
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        comparison = compare_with_algebraic(fc1, fc2, params, model, point)
        assert calls == {"require_spd": 1, "inv": 1}
        assert comparison.riemann <= 1e-4

    @pytest.mark.parametrize("q,alpha", [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)])
    def test_residuals_do_not_depend_on_the_adapted_frame(self, monkeypatch, rng, q, alpha):
        # the closed-form tensors are U(n)-invariant on each factor, so the
        # comparison may take any phi-adapted frame: turning each factor's
        # frame by a random U(n) (+) 1 moves every residual by rounding only
        fc1, fc2 = FactorChart(SphereChart(4)), FactorChart(SphereChart(2 * q + 2), alpha=alpha)
        params = HermitianParams(0.5, 1.0)
        model = build_product_model(
            make_round_sphere_model(1), d_homothetic_deform(make_round_sphere_model(q), alpha),
            params,
        )
        point = sample_chart_points(rng, fc1.dim + fc2.dim, count=1)[0]
        before = dataclasses.asdict(compare_with_algebraic(fc1, fc2, params, model, point))

        def turned(metric, phi, xi):
            # the real form of a unitary u acting on the pairs (v_k, phi v_k)
            n = len(xi) // 2
            u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            rotation = np.eye(2 * n + 1)
            rotation[0:-1:2, 0:-1:2] = rotation[1:-1:2, 1:-1:2] = u.real
            rotation[1:-1:2, 0:-1:2], rotation[0:-1:2, 1:-1:2] = u.imag, -u.imag
            return adapted_frame(metric, phi, xi) @ rotation

        monkeypatch.setattr(sasakiherm.chart, "adapted_frame", turned)
        after = dataclasses.asdict(compare_with_algebraic(fc1, fc2, params, model, point))
        assert max(abs(after[key] - before[key]) for key in before) <= 1e-9

    def test_riemannian_product_case(self, rng):
        fc = FactorChart(SphereChart(4))
        params = HermitianParams(0.0, 1.0)
        model = build_product_model(
            make_round_sphere_model(1), make_round_sphere_model(1), params
        )
        point = sample_chart_points(rng, 6, count=1)[0]
        comparison = compare_with_algebraic(fc, fc, params, model, point)
        assert comparison.riemann <= 1e-4
        assert comparison.ricci <= 1e-4
        assert comparison.ricci_star <= 1e-4
        assert comparison.connection <= 1e-5
        assert comparison.nabla_j <= 1e-5

    def test_coupled_parameters_connection_blocks(self, rng):
        # exercises every mixed block of the product connection, including
        # g(nabla_{X'} Y, Z) = -a eta'(X') g(phi Y, Z)
        fc = FactorChart(SphereChart(4))
        params = HermitianParams(0.5, 1.0)
        model = build_product_model(
            make_round_sphere_model(1), make_round_sphere_model(1), params
        )
        point = sample_chart_points(rng, 6, count=1)[0]
        comparison = compare_with_algebraic(fc, fc, params, model, point)
        assert comparison.connection <= 1e-5
        assert comparison.riemann <= 1e-4

    def test_deformed_first_factor_with_coupling(self, rng):
        # the Reeb-coupled curvature blocks, e.g. pattern (X, Y, Z, W'), seen
        # by the stencils on a first factor that is not a round sphere
        alpha = 0.5
        fc1 = FactorChart(SphereChart(4), alpha=alpha)
        fc2 = FactorChart(SphereChart(4))
        params = HermitianParams(0.5, 1.0)
        model = build_product_model(
            d_homothetic_deform(make_round_sphere_model(1), alpha),
            make_round_sphere_model(1),
            params,
        )
        point = sample_chart_points(rng, 6, count=1)[0]
        comparison = compare_with_algebraic(fc1, fc2, params, model, point)
        assert comparison.riemann <= 1e-4
        assert comparison.ricci <= 1e-4
        assert comparison.connection <= 1e-5
        assert comparison.nabla_j <= 1e-5
        # read off the J_bar stencil taken for nabla J, equal to its own stencil
        _, j_fn = product_field_functions(fc1, fc2, params)
        assert comparison.nijenhuis == np.abs(nijenhuis_fd(j_fn, point)).max()
        assert comparison.nijenhuis <= 1e-5

    def test_einstein_example_with_deformed_factor(self, rng):
        spec, model = calabi_eckmann_einstein_example(2, 1)
        fc1 = FactorChart(SphereChart(6))
        fc2 = FactorChart(SphereChart(4), alpha=spec.alpha)
        point = sample_chart_points(rng, 8, count=1)[0]
        comparison = compare_with_algebraic(fc1, fc2, model.params, model, point)
        assert comparison.riemann <= 1e-4
        assert comparison.ricci <= 1e-4
        assert comparison.connection <= 1e-5
        assert comparison.nabla_j <= 1e-5
        # the Einstein property seen purely through the stencils
        metric_fn, _ = product_field_functions(fc1, fc2, model.params)
        ricci = contract_trace(riemann_fd(metric_fn, point), np.linalg.inv(metric_fn(point)))
        npt.assert_allclose(ricci, 4.0 * metric_fn(point), atol=1e-4)
