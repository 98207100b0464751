"""Stereographic charts, stencil differentiation, and the oracle comparison."""

import numpy as np
import numpy.testing as npt
import pytest

import sasakiherm.chart
import sasakiherm.product
import sasakiherm.sasakian
from sasakiherm.chart import (
    FactorChart,
    SphereChart,
    StencilConfig,
    canonical_sasakian_fields,
    christoffels_fd,
    christoffels_first_kind_fd,
    compare_with_algebraic,
    embed,
    nijenhuis_fd,
    partial_derivatives,
    product_field_functions,
    riemann_fd,
    sample_chart_points,
    second_partial_derivatives,
    _stereographic,
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
    d_homothetic_deform,
    make_round_sphere_model,
    verify_sasakian_curvature_identities,
)
from sasakiherm.tensors import adapted_frame, contract_trace, sectional_curvature

CFG = StencilConfig()


def round_metric(chart):
    """The round metric field of a sphere chart, ``(2 / (1 + |u|^2))^2 I``."""
    return lambda u: canonical_sasakian_fields(chart, u).metric


def riemann_nested(metric_field, u, cfg):
    """Reference curvature: a stencil of the Christoffel symbols, each taken
    from a stencil of the metric at one outer stencil point."""
    gamma_field = lambda v: np.array([christoffels_fd(metric_field, w, cfg) for w in v])
    gamma = christoffels_fd(metric_field, u, cfg)
    dgamma = partial_derivatives(gamma_field, u, cfg)  # [d, m, j, k] = d_d Gamma^m_{jk}
    r_up = (
        np.einsum("imjk->mijk", dgamma)
        - np.einsum("jmik->mijk", dgamma)
        + np.einsum("mil,ljk->mijk", gamma, gamma)
        - np.einsum("mjl,lik->mijk", gamma, gamma)
    )
    return np.einsum("lm,mijk->ijkl", metric_field(u), r_up)


def test_stencil_config_validation():
    for step in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            StencilConfig(step=step)


def test_partial_derivatives_on_polynomial():
    f = lambda u: np.stack([u[..., 0] ** 3 * u[..., 1], np.sin(u[..., 1])], axis=-1)
    u = np.array([0.3, -0.4])
    d = partial_derivatives(f, u, CFG)
    npt.assert_allclose(d[0], [3 * 0.3**2 * (-0.4), 0.0], atol=1e-11)
    npt.assert_allclose(d[1], [0.3**3, np.cos(-0.4)], atol=1e-11)


def test_second_partial_derivatives_on_polynomial():
    f = lambda u: np.stack(
        [u[..., 0] ** 3 * u[..., 1], u[..., 0] ** 2 * u[..., 1] ** 2 * u[..., 2] + u[..., 2] ** 4],
        axis=-1,
    )
    x, y, z = u = np.array([0.3, -0.4, 0.7])
    d2 = second_partial_derivatives(f, u, CFG)
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
            x = embed(chart, point)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_origin_maps_to_pole(self):
        # the pole is the last ambient axis
        npt.assert_array_equal(embed(SphereChart(4), np.zeros(3)), [0.0, 0.0, 0.0, 1.0])

    def test_jacobian_matches_finite_differences(self, rng):
        chart = SphereChart(4)
        u = sample_chart_points(rng, 3, count=1)[0]
        fd = partial_derivatives(lambda v: embed(chart, v), u, CFG)
        npt.assert_allclose(np.einsum("ia->ai", fd), _stereographic(chart, u)[1], atol=1e-11)

    def test_domain_errors(self):
        chart = SphereChart(4)
        with pytest.raises(ChartDomainError):
            embed(chart, np.array([np.nan, 0.0, 0.0]))
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
        fd = partial_derivatives(lambda v: embed(chart, v), u, CFG)
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
            gamma = christoffels_fd(factor.metric_field(), point, CFG)
            dxi = partial_derivatives(lambda v: factor.fields(v).xi, point, CFG)
            fields = factor.fields(point)
            nabla_xi = np.einsum("im->mi", dxi) + np.einsum("mil,l->mi", gamma, fields.xi)
            npt.assert_allclose(nabla_xi, -fields.phi, atol=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_phi_derivative_identity(self, rng, alpha):
        # (nabla_X phi) Y = g(X, Y) xi - eta(Y) X, stencil-differentiated
        factor = FactorChart(SphereChart(4), alpha=alpha)
        for point in sample_chart_points(rng, 3, count=5):
            gamma = christoffels_fd(factor.metric_field(), point, CFG)
            dphi = partial_derivatives(lambda v: factor.fields(v).phi, point, CFG)
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
            deta = partial_derivatives(lambda v: factor.fields(v).eta, point, CFG)
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
            jac = _stereographic(chart, point)[1]
            # eta against the test's own J0 guards the chart's fixed J0
            npt.assert_allclose(f.eta, -jac.T @ j0 @ embed(chart, point), rtol=1e-14, atol=1e-15)
            npt.assert_allclose(f.xi, np.linalg.solve(f.metric, f.eta), rtol=1e-14, atol=0)
            npt.assert_allclose(
                f.phi, np.linalg.solve(f.metric, jac.T @ j0 @ jac), rtol=1e-14, atol=1e-15
            )

    def test_eta_derivative_identity(self, rng):
        # (nabla_X eta)(Y) = -g(phi X, Y)
        factor = FactorChart(SphereChart(4))
        for point in sample_chart_points(rng, 3, count=5):
            gamma = christoffels_fd(factor.metric_field(), point, CFG)
            deta = partial_derivatives(lambda v: factor.fields(v).eta, point, CFG)
            f = factor.fields(point)
            nabla_eta = deta - np.einsum("lij,l->ij", gamma, f.eta)
            npt.assert_allclose(nabla_eta, -(f.phi.T @ f.metric), atol=1e-6)


class TestChristoffels:
    def test_flat_metric_gives_zero(self):
        flat = lambda u: np.broadcast_to(np.eye(3), u.shape[:-1] + (3, 3))
        gamma = christoffels_fd(flat, np.array([0.1, 0.2, -0.3]), CFG)
        npt.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_sphere_chart_origin(self):
        # the conformal factor is critical at the origin, so all symbols vanish
        chart = SphereChart(4)
        gamma = christoffels_fd(round_metric(chart), np.zeros(3), CFG)
        npt.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_metric_compatibility(self, rng):
        chart = SphereChart(4)
        metric_field = round_metric(chart)
        point = sample_chart_points(rng, 3, count=1)[0]
        gamma = christoffels_fd(metric_field, point, CFG)
        dg = partial_derivatives(metric_field, point, CFG)
        g = metric_field(point)
        compat = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
        npt.assert_allclose(compat, 0.0, atol=1e-7)

    def test_lower_index_symmetry(self, rng):
        chart = SphereChart(6)
        point = sample_chart_points(rng, 5, count=1)[0]
        first = christoffels_first_kind_fd(round_metric(chart), point, CFG)
        npt.assert_allclose(first, np.einsum("jik->ijk", first), atol=1e-9)


class TestRiemannFD:
    def test_unit_sphere_sectional_curvature(self, rng):
        chart = SphereChart(4)
        point = sample_chart_points(rng, 3, count=1)[0]
        metric_field = round_metric(chart)
        riemann = riemann_fd(metric_field, point, CFG)
        for _ in range(5):
            x, y = rng.normal(size=(2, 3))
            assert sectional_curvature(riemann, metric_field(point), x, y) == pytest.approx(
                1.0, abs=1e-4
            )

    @pytest.mark.parametrize("q,alpha", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 0.5)])
    def test_matches_nested_christoffel_stencils(self, rng, q, alpha):
        factor_chart = FactorChart(SphereChart(2 * q + 2), alpha=alpha)
        point = sample_chart_points(rng, factor_chart.dim, count=1)[0]
        metric_field = factor_chart.metric_field()
        npt.assert_allclose(
            riemann_fd(metric_field, point, CFG), riemann_nested(metric_field, point, CFG),
            rtol=0, atol=1e-8,
        )

    @pytest.mark.parametrize("dim,evaluations", [(3, 175), (5, 451)])
    def test_metric_evaluations_per_call(self, dim, evaluations):
        # points, counted as stack rows: the point, 8 per first partial, 32 per
        # mixed pair and 18 distinct points per pure second partial:
        # 1 + 8 n + 16 n (n - 1) + 18 n
        rows = []

        def metric_field(u):
            rows.append(u.reshape(-1, dim).shape[0])
            return np.eye(dim) + u[..., :, None] * u[..., None, :]

        riemann_fd(metric_field, np.full(dim, 0.1), CFG)
        assert sum(rows) == evaluations

    def test_flat_chart_curvature_vanishes(self):
        flat = lambda u: np.broadcast_to(np.eye(4), u.shape[:-1] + (4, 4))
        riemann = riemann_fd(flat, np.full(4, 0.2), CFG)
        npt.assert_allclose(riemann, 0.0, atol=1e-8)

    def test_five_sphere_is_einstein(self, rng):
        chart = SphereChart(6)
        point = sample_chart_points(rng, 5, count=1)[0]
        metric_field = round_metric(chart)
        ricci = contract_trace(riemann_fd(metric_field, point, CFG), metric_field(point))
        npt.assert_allclose(ricci, 4.0 * metric_field(point), atol=1e-4)

    @pytest.mark.parametrize("q,alpha", [(1, 0.5), (2, 2.0), (2, 0.5)])
    def test_identity_suite_on_deformed_chart(self, rng, q, alpha):
        # the identity suite, fed the stencil curvature of a deformed sphere
        # (c = 4 / alpha - 3 != 1) in its adapted frame, holds at FD accuracy
        factor_chart = FactorChart(SphereChart(2 * q + 2), alpha=alpha)
        point = sample_chart_points(rng, factor_chart.dim, count=1)[0]
        fields = factor_chart.fields(point)
        riemann = riemann_fd(factor_chart.metric_field(), point, CFG)
        frame = adapted_frame(fields.metric, fields.phi, fields.xi)
        frame_inv = np.linalg.inv(frame)
        metric = frame.T @ fields.metric @ frame
        riemann = np.einsum("ia,jb,kc,ld,ijkl->abcd", frame, frame, frame, frame, riemann)
        model = SasakianPointModel(
            n=q, g=metric, phi=frame_inv @ fields.phi @ frame, xi=frame_inv @ fields.xi,
            eta=frame.T @ fields.eta, riemann=riemann, ricci=contract_trace(riemann, metric),
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
            npt.assert_allclose(
                embed(charts[0], stack), [embed(charts[0], u) for u in stack], rtol=1e-14
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
            assert np.array_equal(
                metric_fn(stack[0]), product_metric(f1.metric, f1.eta, f2.metric, f2.eta, params)
            )
            assert np.array_equal(
                j_fn(stack[0]),
                product_complex_structure(f1.phi, f1.xi, f1.eta, f2.phi, f2.xi, f2.eta, params),
            )

    def test_one_call_per_axis_and_per_pair(self):
        # the chunk sizes bound the memory of a stencil: one axis or one pair
        rows = []

        def field(u):
            rows.append(_rows(u))
            return np.sin(u)

        partial_derivatives(field, np.full(4, 0.1), CFG)
        assert rows == [8] * 4
        rows.clear()
        second_partial_derivatives(field, np.full(3, 0.1), CFG)
        assert rows == [18, 32, 32, 18, 32, 18]

    def test_factor_field_calls_per_comparison(self, field_calls, rng):
        # N = 6: both factors at the point (2), then one call per factor for
        # each of 6 axes of g_bar (12), 21 pairs of g_bar (42) and 6 axes of
        # J_bar (12), and one for each of 3 axes per factor metric (6)
        model = build_product_model(
            make_round_sphere_model(1), make_round_sphere_model(1), HermitianParams(0.5, 1.0)
        )
        fc = FactorChart(SphereChart(4))
        point = sample_chart_points(rng, 6, count=1)[0]
        compare_with_algebraic(fc, fc, HermitianParams(0.5, 1.0), model, point, CFG)
        assert len(field_calls) == 74
        assert max(_rows(u) for u in field_calls) == 32


class TestNijenhuis:
    def test_constant_structure_is_integrable(self):
        j = np.zeros((4, 4))
        j[1, 0] = j[3, 2] = 1.0
        j[0, 1] = j[2, 3] = -1.0
        constant = lambda u: np.broadcast_to(j, u.shape[:-1] + (4, 4))
        result = nijenhuis_fd(constant, np.full(4, 0.1), CFG)
        npt.assert_allclose(result, 0.0, atol=1e-10)

    def test_product_structure_is_integrable(self, rng):
        fc = FactorChart(SphereChart(4))
        _, j_fn = product_field_functions(fc, fc, HermitianParams(0.5, 1.5))
        for point in sample_chart_points(rng, 6, count=20):
            assert np.abs(nijenhuis_fd(j_fn, point, CFG)).max() <= 1e-5

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
        assert np.abs(nijenhuis_fd(flipped_j, point, CFG)).max() <= 1e-5

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
        assert np.abs(nijenhuis_fd(conjugated_j, point, CFG)).max() > 0.05


class TestCompareWithAlgebraic:
    @pytest.mark.parametrize(
        "builder",
        [
            "build_nabla_j",
            "build_product_curvature",
            "build_product_ricci",
            "build_product_ricci_star",
            "build_product_model",
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

    def test_riemannian_product_case(self, rng):
        fc = FactorChart(SphereChart(4))
        params = HermitianParams(0.0, 1.0)
        model = build_product_model(
            make_round_sphere_model(1), make_round_sphere_model(1), params
        )
        point = sample_chart_points(rng, 6, count=1)[0]
        comparison = compare_with_algebraic(fc, fc, params, model, point, CFG)
        assert comparison.riemann <= 1e-4
        assert comparison.ricci <= 1e-4
        assert comparison.ricci_star <= 1e-4
        assert comparison.connection <= 1e-5
        assert comparison.nabla_j <= 1e-5
        assert comparison.integrability <= 1e-5

    def test_coupled_parameters_connection_blocks(self, rng):
        # exercises every mixed block of the product connection, including
        # g(nabla_{X'} Y, Z) = -a eta'(X') g(phi Y, Z)
        fc = FactorChart(SphereChart(4))
        params = HermitianParams(0.5, 1.0)
        model = build_product_model(
            make_round_sphere_model(1), make_round_sphere_model(1), params
        )
        point = sample_chart_points(rng, 6, count=1)[0]
        comparison = compare_with_algebraic(fc, fc, params, model, point, CFG)
        assert comparison.connection <= 1e-5
        assert comparison.riemann <= 1e-4
        assert comparison.integrability <= 1e-5

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
        comparison = compare_with_algebraic(fc1, fc2, params, model, point, CFG)
        assert comparison.riemann <= 1e-4
        assert comparison.ricci <= 1e-4
        assert comparison.connection <= 1e-5
        assert comparison.nabla_j <= 1e-5
        # read off the J_bar stencil taken for nabla J, equal to its own stencil
        _, j_fn = product_field_functions(fc1, fc2, params)
        assert comparison.nijenhuis == np.abs(nijenhuis_fd(j_fn, point, CFG)).max()
        assert comparison.nijenhuis <= 1e-5

    def test_einstein_example_with_deformed_factor(self, rng):
        spec, model = calabi_eckmann_einstein_example(2, 1)
        fc1 = FactorChart(SphereChart(6))
        fc2 = FactorChart(SphereChart(4), alpha=spec.alpha)
        point = sample_chart_points(rng, 8, count=1)[0]
        comparison = compare_with_algebraic(fc1, fc2, model.params, model, point, CFG)
        assert comparison.riemann <= 1e-4
        assert comparison.ricci <= 1e-4
        assert comparison.connection <= 1e-5
        assert comparison.nabla_j <= 1e-5
        # the Einstein property seen purely through the stencils
        metric_fn, _ = product_field_functions(fc1, fc2, model.params)
        ricci = contract_trace(riemann_fd(metric_fn, point, CFG), metric_fn(point))
        npt.assert_allclose(ricci, 4.0 * metric_fn(point), atol=1e-4)
