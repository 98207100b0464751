"""Finite-difference oracle on explicit sphere charts.

Builds the canonical (or D-homothetically deformed) Sasakian structure
of an odd unit sphere in stereographic coordinates, assembles the
product Hermitian structure as genuine coordinate fields, and
differentiates everything with central stencils: Christoffel symbols,
curvature, the Nijenhuis tensor, and the covariant derivative of the
complex structure all come out of first principles here.  The only
input from the closed-form engine is the definition of the structure:
the block formulas of the product metric and complex structure, and the
D-homothetic deformation of the factor metric, Reeb field and contact
form.  :func:`compare_with_algebraic` transports the finite-difference
tensors into the structure-adapted frame and reports max-norm
deviations from the closed-form model.

Conventions: the ambient complex structure pairs coordinates
``(x_0, x_1), (x_2, x_3), ...``; the Reeb field is minus its action on
the position vector, which makes ``nabla_X xi = -phi X`` hold with the
signs used across the package.  The exterior derivative of a 1-form is
taken with the factor one-half, ``d eta(X, Y) = (X eta(Y) - Y eta(X)) / 2``
for commuting fields, under which the contact identity
``d eta(X, Y) = g(X, phi Y)`` holds on the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ChartDomainError, InvalidParameterError
from .product import (
    HermitianParams,
    ProductHermitianModel,
    product_complex_structure,
    product_metric,
)
from .sasakian import d_homothetic_structure
from .tensors import (
    adapted_frame,
    change_frame,
    contract_trace,
    integrability_residual,
    star_ricci_from_curvature,
)

# Numerical domain guard: beyond this radius the conformal factor is so
# small that stencil arithmetic loses all significant digits.
_MAX_CHART_RADIUS = 1.0e6


# ---------------------------------------------------------------------------
# stencil differentiation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StencilConfig:
    """Step of the one stencil used for every field derivative."""

    step: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0.0):
            raise InvalidParameterError(f"stencil step must be positive and finite, got {self.step}")


def _central(f: Callable, u: np.ndarray, axis: int, h: float) -> np.ndarray:
    e = np.zeros_like(u)
    e[axis] = h
    return (
        -np.asarray(f(u + 2.0 * e))
        + 8.0 * np.asarray(f(u + e))
        - 8.0 * np.asarray(f(u - e))
        + np.asarray(f(u - 2.0 * e))
    ) / (12.0 * h)


def partial_derivatives(f: Callable, u: np.ndarray, cfg: StencilConfig) -> np.ndarray:
    """All first partials of an array-valued field.

    Returns ``out[i] = d f / d u_i``: the order-4 central stencil at
    ``h`` and ``h/2``, Richardson-extrapolated one order higher.  The
    field is never evaluated at ``u`` itself.
    """
    u = np.asarray(u, dtype=float)
    return np.stack(
        [
            (16.0 * _central(f, u, i, cfg.step / 2.0) - _central(f, u, i, cfg.step)) / 15.0
            for i in range(u.size)
        ]
    )


_CENTRAL_WEIGHTS = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))  # over 12 h


def _central_pair(f: Callable, u: np.ndarray, i: int, j: int, h: float) -> np.ndarray:
    """The order-4 central stencil along ``u_i`` applied to the one along ``u_j``.

    For ``i == j`` the tensor product places several weights on the same
    point; each distinct point is evaluated once.
    """
    weights: dict[tuple[int, int], float] = {}
    for a, wa in _CENTRAL_WEIGHTS:
        for b, wb in _CENTRAL_WEIGHTS:
            key = (a + b, 0) if i == j else (a, b)
            weights[key] = weights.get(key, 0.0) + wa * wb
    total = 0.0
    for (a, b), w in weights.items():
        step = np.zeros_like(u)
        step[i] += a * h
        step[j] += b * h
        total = total + w * np.asarray(f(u + step))
    return total / (144.0 * h * h)


def second_partial_derivatives(f: Callable, u: np.ndarray, cfg: StencilConfig) -> np.ndarray:
    """All second partials of an array-valued field.

    Returns ``out[i, j] = d^2 f / du_i du_j``: one tensor-product stencil
    per unordered pair ``i <= j`` at ``h`` and ``h/2``, Richardson-
    extrapolated like :func:`partial_derivatives`.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    out: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = (
                16.0 * _central_pair(f, u, i, j, cfg.step / 2.0)
                - _central_pair(f, u, i, j, cfg.step)
            ) / 15.0
    return np.array(out)


# ---------------------------------------------------------------------------
# stereographic charts and Sasakian fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereChart:
    """Stereographic chart of the unit sphere in an even ambient dimension.

    ``pole`` (default: the last coordinate axis) is where the chart
    origin lands; ``direction=-1`` picks the antipodal chart.  The
    chart covers the whole sphere except the point opposite the origin
    image, which sits at infinite chart radius.  ``rotation`` (the
    Householder map sending the last axis to the pole) and ``j0`` (the
    ambient complex structure) are fixed per chart.
    """

    ambient_dim: int
    pole: np.ndarray | None = None
    direction: int = 1
    rotation: np.ndarray = field(init=False, repr=False, compare=False)
    j0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ambient_dim
        if n % 2 != 0 or n < 4:
            raise InvalidParameterError(f"ambient dimension must be even and >= 4, got {n}")
        if self.direction not in (1, -1):
            raise InvalidParameterError(f"direction must be +1 or -1, got {self.direction}")
        rotation = np.eye(n)
        if self.pole is not None:
            pole = np.asarray(self.pole, dtype=float)
            if (
                pole.shape != (n,)
                or not np.all(np.isfinite(pole))
                or abs(pole @ pole - 1.0) > 1e-12
            ):
                raise InvalidParameterError(f"pole must be a finite unit ambient vector, got {pole}")
            pole = np.ascontiguousarray(pole)
            pole.setflags(write=False)
            object.__setattr__(self, "pole", pole)
            v = np.eye(n)[-1] - pole
            vv = float(v @ v)
            if vv >= 1e-30:
                rotation = rotation - 2.0 * np.outer(v, v) / vv
        j0 = np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]])  # pairs (x_0, x_1), ...
        for name, value in (("rotation", rotation), ("j0", j0)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.ambient_dim - 1


def _check_coords(chart: SphereChart, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (chart.dim,):
        raise ChartDomainError(f"expected {chart.dim} coordinates, got shape {u.shape}")
    if not np.all(np.isfinite(u)) or float(u @ u) > _MAX_CHART_RADIUS**2:
        raise ChartDomainError("coordinates too close to the projection singularity")
    return u


def _stereographic(chart: SphereChart, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Sphere point, Jacobian and conformal factor ``2 / (1 + |u|^2)`` at ``u``."""
    u = _check_coords(chart, u)
    n = chart.dim
    r2 = float(u @ u)
    s = 1.0 + r2
    raw = np.concatenate([2.0 * u, [chart.direction * (1.0 - r2)]]) / s
    jac = np.zeros((n + 1, n))
    jac[:n, :] = 2.0 * np.eye(n) / s - 4.0 * np.outer(u, u) / s**2
    jac[n, :] = -4.0 * chart.direction * u / s**2
    return chart.rotation @ raw, chart.rotation @ jac, 2.0 / s


def embed(chart: SphereChart, u: np.ndarray) -> np.ndarray:
    """Chart point mapped onto the unit sphere in ambient coordinates."""
    return _stereographic(chart, u)[0]


@dataclass(frozen=True)
class SasakianChartFields:
    """Pointwise Sasakian data in chart coordinates."""

    metric: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    phi: np.ndarray


def canonical_sasakian_fields(chart: SphereChart, u: np.ndarray) -> SasakianChartFields:
    """Canonical Sasakian structure of the unit sphere at a chart point.

    The Reeb field is minus the ambient complex structure applied to
    the position; ``phi`` is the tangential projection of the ambient
    complex structure; ``eta`` is the metric dual of the Reeb field.
    The round metric is ``scale * I``, so raising an index divides by
    ``scale``.
    """
    x, jac, factor = _stereographic(chart, u)
    scale = factor * factor
    eta = jac.T @ -(chart.j0 @ x)
    phi = jac.T @ (chart.j0 @ jac) / scale
    return SasakianChartFields(metric=scale * np.eye(chart.dim), xi=eta / scale, eta=eta, phi=phi)


@dataclass(frozen=True)
class FactorChart:
    """A sphere chart together with a D-homothetic deformation parameter.

    ``alpha = 1`` is the round structure; other values produce the
    Sasakian space form with ``c = 4 / alpha - 3`` as honest coordinate
    fields, deformed pointwise from the canonical ones by
    :func:`sasakiherm.sasakian.d_homothetic_structure`.
    """

    chart: SphereChart
    alpha: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidParameterError(
                f"deformation parameter must be positive and finite, got {self.alpha}"
            )

    @property
    def dim(self) -> int:
        return self.chart.dim

    def fields(self, u: np.ndarray) -> SasakianChartFields:
        raw = canonical_sasakian_fields(self.chart, u)
        metric, xi, eta = d_homothetic_structure(raw.metric, raw.xi, raw.eta, self.alpha)
        return SasakianChartFields(metric=metric, xi=xi, eta=eta, phi=raw.phi)

    def metric_at(self, u: np.ndarray) -> np.ndarray:
        """Metric field value at a chart point."""
        return self.fields(u).metric

    def metric_field(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.metric_at


# ---------------------------------------------------------------------------
# finite-difference geometry
# ---------------------------------------------------------------------------


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """``Gamma_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2`` on the last three axes."""
    return 0.5 * (dg + np.einsum("...jik->...ijk", dg) - np.einsum("...kij->...ijk", dg))


def christoffels_first_kind_fd(
    metric_field: Callable, u: np.ndarray, cfg: StencilConfig
) -> np.ndarray:
    """First-kind symbols ``Gamma_{ij,k}`` from a stencil of the metric."""
    return _first_kind(partial_derivatives(metric_field, u, cfg))


def christoffels_fd(metric_field: Callable, u: np.ndarray, cfg: StencilConfig) -> np.ndarray:
    """Second-kind symbols ``Gamma^k_{ij}``, indexed ``[k, i, j]``."""
    first = christoffels_first_kind_fd(metric_field, u, cfg)
    ginv = np.linalg.inv(metric_field(u))
    return np.einsum("kl,ijl->kij", ginv, first)


def _riemann_from_jet(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Covariant curvature from the metric's 2-jet at a point.

    ``dg[d, i, j] = d_d g_ij`` and ``ddg[c, d, i, j] = d_c d_d g_ij``; the
    derivative of the second-kind symbols uses
    ``d g^-1 = -g^-1 (d g) g^-1``.
    """
    ginv = np.linalg.inv(g)
    first = _first_kind(dg)
    gamma = np.einsum("kl,ijl->kij", ginv, first)
    dginv = -np.einsum("ma,dab,bl->dml", ginv, dg, ginv, optimize=True)
    dgamma = (  # [d, m, j, k] = d_d Gamma^m_{jk}
        np.einsum("dml,jkl->dmjk", dginv, first)
        + np.einsum("ml,djkl->dmjk", ginv, _first_kind(ddg))
    )
    r_up = (
        np.einsum("imjk->mijk", dgamma)
        - np.einsum("jmik->mijk", dgamma)
        + np.einsum("mil,ljk->mijk", gamma, gamma)
        - np.einsum("mjl,lik->mijk", gamma, gamma)
    )
    return np.einsum("lm,mijk->ijkl", g, r_up)


def riemann_fd(metric_field: Callable, u: np.ndarray, cfg: StencilConfig) -> np.ndarray:
    """Fully covariant curvature of a metric field from its stencil 2-jet.

    Returns ``R[i, j, k, l] = g(R(d_i, d_j) d_k, d_l)`` in the package
    sign convention; the unit sphere comes out with sectional curvature
    plus one.
    """
    u = np.asarray(u, dtype=float)
    return _riemann_from_jet(
        np.asarray(metric_field(u), dtype=float),
        partial_derivatives(metric_field, u, cfg),
        second_partial_derivatives(metric_field, u, cfg),
    )


def nijenhuis_fd(j_field: Callable, u: np.ndarray, cfg: StencilConfig) -> np.ndarray:
    """Nijenhuis tensor of an almost complex structure field.

    For coordinate fields the brackets reduce to derivatives of the
    structure matrix:
    ``N^m_{ij} = J^k_i d_k J^m_j - J^k_j d_k J^m_i
    + J^m_k d_j J^k_i - J^m_k d_i J^k_j``.
    Vanishing of the result (to stencil accuracy) certifies
    integrability from first principles.
    """
    return _nijenhuis(np.asarray(j_field(u), dtype=float), partial_derivatives(j_field, u, cfg))


def _nijenhuis(j: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor from ``J`` and its partials ``dj[d, m, j] = d_d J^m_j``."""
    return (
        np.einsum("ki,kmj->mij", j, dj)
        - np.einsum("kj,kmi->mij", j, dj)
        + np.einsum("mk,jki->mij", j, dj)
        - np.einsum("mk,ikj->mij", j, dj)
    )


# ---------------------------------------------------------------------------
# product structure as coordinate fields
# ---------------------------------------------------------------------------


def _field_memo(factor_chart: FactorChart) -> Callable[[np.ndarray], SasakianChartFields]:
    """``factor_chart.fields`` evaluated once per distinct chart point.

    Entries are keyed on the shape and exact bytes of the coordinates, so
    a hit returns what a fresh evaluation would, and every new point is
    validated by the evaluation itself.  Cached arrays are read-only.
    """
    cache: dict[tuple, SasakianChartFields] = {}

    def fields(u: np.ndarray) -> SasakianChartFields:
        u = np.asarray(u, dtype=float)
        key = (u.shape, u.tobytes())
        found = cache.get(key)
        if found is None:
            found = cache[key] = factor_chart.fields(u)
            for value in vars(found).values():
                value.setflags(write=False)
        return found

    return fields


def _product_fields(
    fields1: Callable, fields2: Callable, m: int, params: HermitianParams
) -> tuple[Callable, Callable]:
    """``(g_bar(u), J_bar(u))`` from factor-field functions of ``u[:m]`` and ``u[m:]``."""

    def metric_fn(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        f1, f2 = fields1(u[:m]), fields2(u[m:])
        return product_metric(f1.metric, f1.eta, f2.metric, f2.eta, params)

    def j_fn(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        f1, f2 = fields1(u[:m]), fields2(u[m:])
        return product_complex_structure(f1.phi, f1.xi, f1.eta, f2.phi, f2.xi, f2.eta, params)

    return metric_fn, j_fn


def product_field_functions(
    factor_chart: FactorChart,
    factor_chart_prime: FactorChart,
    params: HermitianParams,
) -> tuple[Callable, Callable]:
    """Coordinate-field closures ``(g_bar(u), J_bar(u))`` on the product chart.

    Both apply the block formulas of :mod:`sasakiherm.product` to the
    factor fields at ``u``; nothing else of the closed-form engine
    enters.  The pair shares one memo per factor, so each factor's
    fields are evaluated once per distinct factor point for as long as
    the closures live.
    """
    return _product_fields(
        _field_memo(factor_chart), _field_memo(factor_chart_prime), factor_chart.dim, params
    )


def sample_chart_points(
    rng: np.random.Generator, dim: int, radius: float = 0.8, count: int = 1
) -> np.ndarray:
    """Uniform sample points in a chart ball, rows are points."""
    directions = rng.normal(size=(count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return directions * radii


# ---------------------------------------------------------------------------
# comparison against the closed-form engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleComparison:
    """Max-norm deviations between stencil tensors and the closed-form model.

    Curvature-level quantities (``riemann``, ``ricci``, ``ricci_star``)
    come from second-derivative stencils of the metric; the connection
    blocks, the covariant derivative of the complex structure, the
    integrability residual and the largest Nijenhuis entry from
    first-derivative ones.
    """

    riemann: float
    ricci: float
    ricci_star: float
    connection: float
    nabla_j: float
    integrability: float
    nijenhuis: float


def _product_adapted_frame(f1: SasakianChartFields, f2: SasakianChartFields) -> np.ndarray:
    """Block frame matching the closed-form basis ordering at a chart point."""
    m = f1.metric.shape[0]
    dim = m + f2.metric.shape[0]
    frame = np.zeros((dim, dim))
    frame[:m, :m] = adapted_frame(f1.metric, f1.phi, f1.xi)
    frame[m:, m:] = adapted_frame(f2.metric, f2.phi, f2.xi)
    return frame


def _connection_block_prediction(
    fields1: Callable,
    fields2: Callable,
    f1: SasakianChartFields,
    f2: SasakianChartFields,
    params: HermitianParams,
    coords: np.ndarray,
    cfg: StencilConfig,
) -> np.ndarray:
    """First-kind product symbols predicted from factor data alone.

    Every block of ``g_bar(nabla_X Y, Z)`` for coordinate fields drawn
    from the factors reduces to factor Christoffel symbols, Reeb
    covectors, and ``g(phi ., .)`` pairings; this assembles that
    prediction so the stencil symbols of the product metric can be
    checked against it.
    """
    a, b = params.a, params.b
    m = f1.metric.shape[0]
    dim = m + f2.metric.shape[0]
    gamma1 = christoffels_first_kind_fd(lambda v: fields1(v).metric, coords[:m], cfg)
    gamma2 = christoffels_first_kind_fd(lambda v: fields2(v).metric, coords[m:], cfg)
    # eta(nabla_X Y) = xi^k Gamma_{ij,k}
    reeb_of_nabla1 = np.einsum("ijk,k->ij", gamma1, f1.xi)
    reeb_of_nabla2 = np.einsum("ijk,k->ij", gamma2, f2.xi)
    gphi1 = f1.phi.T @ f1.metric
    gphi2 = f2.phi.T @ f2.metric
    k = a * a + b * b - 1.0

    pred = np.zeros((dim, dim, dim))
    s1, s2 = slice(0, m), slice(m, dim)
    pred[s1, s1, s1] = gamma1
    pred[s2, s1, s1] = -a * np.einsum("x,yz->xyz", f2.eta, gphi1)
    pred[s1, s2, s1] = -a * np.einsum("y,xz->xyz", f2.eta, gphi1)
    pred[s1, s1, s2] = a * np.einsum("xy,z->xyz", reeb_of_nabla1, f2.eta)
    pred[s2, s2, s1] = a * np.einsum("xy,z->xyz", reeb_of_nabla2, f1.eta)
    pred[s2, s1, s2] = -a * np.einsum("y,xz->xyz", f1.eta, gphi2)
    pred[s1, s2, s2] = -a * np.einsum("x,yz->xyz", f1.eta, gphi2)
    pred[s2, s2, s2] = gamma2 + k * (
        np.einsum("xy,z->xyz", reeb_of_nabla2, f2.eta)
        - np.einsum("x,yz->xyz", f2.eta, gphi2)
        - np.einsum("y,xz->xyz", f2.eta, gphi2)
    )
    return pred


def compare_with_algebraic(
    factor_chart: FactorChart,
    factor_chart_prime: FactorChart,
    params: HermitianParams,
    model: ProductHermitianModel,
    coords: np.ndarray,
    cfg: StencilConfig | None = None,
) -> OracleComparison:
    """Stencil-differentiate the product fields and compare to the model.

    The curvature, Ricci, star-Ricci, and covariant derivative of the
    complex structure are transported into the structure-adapted frame
    at the chart point, where homogeneity makes them directly
    comparable entry-by-entry with the closed-form tensors.  Connection
    blocks, the integrability residual and the Nijenhuis tensor are
    checked in coordinates; the last two share one stencil of ``J_bar``
    with ``nabla J``.  Every stencil reads the factor fields through one
    memo per factor, so each distinct factor point is evaluated once.
    """
    cfg = cfg or StencilConfig()
    coords = np.asarray(coords, dtype=float)
    m = factor_chart.dim
    fields1, fields2 = _field_memo(factor_chart), _field_memo(factor_chart_prime)
    metric_fn, j_fn = _product_fields(fields1, fields2, m, params)
    f1 = fields1(coords[:m])
    f2 = fields2(coords[m:])
    g_bar = product_metric(f1.metric, f1.eta, f2.metric, f2.eta, params)
    j_bar = product_complex_structure(f1.phi, f1.xi, f1.eta, f2.phi, f2.xi, f2.eta, params)
    ginv = np.linalg.inv(g_bar)

    dg = partial_derivatives(metric_fn, coords, cfg)
    r4 = _riemann_from_jet(g_bar, dg, second_partial_derivatives(metric_fn, coords, cfg))
    ricci = contract_trace(r4, g_bar, slots=(0, 3))  # Ric(Y, Z) = tr(X -> R(X, Y) Z)
    ricci_star = star_ricci_from_curvature(r4, j_bar, g_bar)

    gamma_first = _first_kind(dg)
    gamma = np.einsum("kl,ijl->kij", ginv, gamma_first)
    dj = partial_derivatives(j_fn, coords, cfg)
    nabla_j = (
        np.einsum("zm,xmy->xyz", g_bar, dj)
        + np.einsum("my,xmz->xyz", j_bar, gamma_first)
        - np.einsum("zm,ml,lxy->xyz", g_bar, j_bar, gamma)
    )

    frame = _product_adapted_frame(f1, f2)
    prediction = _connection_block_prediction(fields1, fields2, f1, f2, params, coords, cfg)
    return OracleComparison(
        riemann=float(np.abs(change_frame(frame, r4) - model.riemann_bar).max()),
        ricci=float(np.abs(change_frame(frame, ricci) - model.ricci_bar).max()),
        ricci_star=float(np.abs(change_frame(frame, ricci_star) - model.ricci_star_bar).max()),
        connection=float(np.abs(gamma_first - prediction).max()),
        nabla_j=float(np.abs(change_frame(frame, nabla_j) - model.nabla_j).max()),
        integrability=integrability_residual(nabla_j, j_bar),
        nijenhuis=float(np.abs(_nijenhuis(j_bar, dj)).max()),
    )
