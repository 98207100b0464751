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
from .sasakian import SasakianStructure, d_homothetic_structure
from .tensors import (
    adapted_frame,
    change_frame,
    contract_trace,
    require_spd,
    star_ricci_from_curvature,
)

# Numerical domain guard: beyond this radius the conformal factor is so
# small that stencil arithmetic loses all significant digits.
_MAX_CHART_RADIUS = 1.0e6

# Radius of the chart ball that oracle sample points are drawn from.
_SAMPLE_RADIUS = 0.8


# ---------------------------------------------------------------------------
# stencil differentiation
# ---------------------------------------------------------------------------


# The one step ``h`` of every stencil.
_STEP = 1e-3


def _folded(offsets: np.ndarray, weights: np.ndarray, order: int) -> tuple:
    """A stencil's displacements at ``h/2``, then at ``h``, and the coefficients that
    take the values there to the Richardson extrapolation in one contraction."""
    displacements = np.concatenate([offsets * (_STEP / 2.0), offsets * _STEP])
    coef = np.concatenate(
        [16.0 * weights / (6.0 * _STEP) ** order, -weights / (12.0 * _STEP) ** order]
    )
    return displacements, coef / 15.0


# The order-4 central stencil of a first derivative, as unit offsets and
# weights over 12 h, and its tensor product with itself, over (12 h)^2,
# for second derivatives: 16 offsets along two axes, or along one axis
# the 9 distinct offset sums with their weights added up.
_OFFSETS = np.array([2.0, 1.0, -1.0, -2.0])
_WEIGHTS = np.array([-1.0, 8.0, -8.0, 1.0])
_PAIR_OFFSETS = np.stack(np.meshgrid(_OFFSETS, _OFFSETS, indexing="ij"), axis=-1).reshape(-1, 2)
_PAIR_WEIGHTS = np.outer(_WEIGHTS, _WEIGHTS).ravel()
_FIRST = _folded(_OFFSETS[:, None], _WEIGHTS, 1)
_MIXED = _folded(_PAIR_OFFSETS, _PAIR_WEIGHTS, 2)
_PURE = _folded(
    np.arange(4.0, -5.0, -1.0)[:, None],
    np.bincount((4.0 - _PAIR_OFFSETS.sum(axis=1)).astype(int), weights=_PAIR_WEIGHTS),
    2,
)


# The rows of the pure stencil's points at the ``_FIRST`` offsets, in
# ``_FIRST``'s order: offset ``k`` is row ``4 - k`` at ``h/2`` and row
# ``13 - k`` at ``h``, so one axis's 18 points hold its 8 first-order ones.
_FIRST_ROWS = np.concatenate([4.0 - _OFFSETS, 13.0 - _OFFSETS]).astype(int)


def _stencil_points(u: np.ndarray, axes: list, stencil: tuple) -> np.ndarray:
    """``u`` moved by each of a stencil's displacements, as one stack of points."""
    displacements = stencil[0]
    points = np.repeat(u[None, :], len(displacements), axis=0)
    points[:, axes] += displacements
    return points


def _contract(stencil: tuple, values) -> np.ndarray:
    """A field's values on a stencil's points, Richardson-extrapolated one order higher.

    The extrapolation is folded into the stencil's coefficients, computed
    once at import, so this is one contraction.
    """
    return np.tensordot(stencil[1], np.asarray(values, dtype=float), axes=1)


def _richardson(f: Callable, u: np.ndarray, axes: list, stencil: tuple) -> np.ndarray:
    """One stencil at ``h/2`` and ``h`` in one call of ``f``, Richardson-extrapolated."""
    return _contract(stencil, f(_stencil_points(u, axes, stencil)))


def partial_derivatives(f: Callable, u: np.ndarray) -> np.ndarray:
    """All first partials of a field that maps ``(..., n)`` points to ``(..., *shape)``.

    Returns ``out[i] = d f / d u_i``: the order-4 central stencil at
    ``h = _STEP`` and ``h/2``, Richardson-extrapolated one order higher,
    with the 8 offsets of one axis evaluated in one call.  The field is
    never evaluated at ``u`` itself.
    """
    u = np.asarray(u, dtype=float)
    return np.stack([_richardson(f, u, [i], _FIRST) for i in range(u.size)])


def _two_jet(
    f: Callable, u: np.ndarray, axis_field: Callable | None = None
) -> tuple[np.ndarray, np.ndarray, list]:
    """First and second partials of a field, one call per axis and one per pair.

    Along ``u_i`` the field is evaluated once, on the 18 points of the pure
    second-order stencil (``_PURE`` at ``h/2`` and ``h``).  All 18 give
    ``d_i d_i f``; the 8 of them at the ``_FIRST`` offsets, in ``_FIRST``'s
    order, give ``d_i f``, bit for bit as :func:`partial_derivatives` does.
    Each pair ``i < j`` is one 32-point call.

    ``axis_field(i, points)``, if given, is called on the points of axis
    ``i`` in place of ``f``: it returns ``f``'s values first, then any
    further stacks of values.  The third result holds the first partials
    of those further stacks, one sequence per stack, indexed by axis.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    axis_field = axis_field or (lambda i, points: (f(points),))
    first: list[list] = []
    second: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        stacks = axis_field(i, _stencil_points(u, [i], _PURE))
        values = [np.asarray(v, dtype=float) for v in stacks]
        first.append([_contract(_FIRST, v[_FIRST_ROWS]) for v in values])
        second[i][i] = _contract(_PURE, values[0])
        for j in range(i + 1, n):
            second[i][j] = second[j][i] = _richardson(f, u, [i, j], _MIXED)
    firsts = list(zip(*first))
    return np.stack(firsts[0]), np.array(second), firsts[1:]


# ---------------------------------------------------------------------------
# stereographic charts and Sasakian fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereChart:
    """Stereographic chart of the unit sphere in an even ambient dimension.

    The chart origin lands on the last coordinate axis, and the chart
    covers the whole sphere except the antipode of that point, which
    sits at infinite chart radius.  ``j0`` (the ambient complex
    structure) is fixed per chart.
    """

    ambient_dim: int
    j0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ambient_dim
        if n % 2 != 0 or n < 4:
            raise InvalidParameterError(f"ambient dimension must be even and >= 4, got {n}")
        j0 = np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]])  # pairs (x_0, x_1), ...
        j0.setflags(write=False)
        object.__setattr__(self, "j0", j0)

    @property
    def dim(self) -> int:
        return self.ambient_dim - 1


def _check_coords(chart: SphereChart, u: np.ndarray) -> np.ndarray:
    """``u`` as a float array of ``(..., dim)`` chart points, every one inside the domain."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != chart.dim:
        raise ChartDomainError(f"expected {chart.dim} coordinates, got shape {u.shape}")
    # a non-finite coordinate makes its squared radius inf or nan, and fails too
    if not np.all(np.einsum("...i,...i->...", u, u) <= _MAX_CHART_RADIUS**2):
        raise ChartDomainError("coordinates too close to the projection singularity")
    return u


def _stereographic(chart: SphereChart, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sphere points, Jacobians and conformal factors ``2 / (1 + |u|^2)`` at ``(..., dim)`` points."""
    u = _check_coords(chart, u)
    n = chart.dim
    r2 = np.einsum("...i,...i->...", u, u)[..., None]
    s = 1.0 + r2
    x = np.concatenate([2.0 * u, 1.0 - r2], axis=-1) / s
    jac = np.empty(u.shape[:-1] + (n + 1, n))
    uu = u[..., :, None] * u[..., None, :]
    jac[..., :n, :] = 2.0 * np.eye(n) / s[..., None] - 4.0 * uu / s[..., None] ** 2
    jac[..., n, :] = -4.0 * u / s**2
    return x, jac, 2.0 / s[..., 0]


def canonical_sasakian_fields(chart: SphereChart, u: np.ndarray) -> SasakianStructure:
    """Canonical Sasakian structure of the unit sphere at ``(..., dim)`` chart points.

    The Reeb field is minus the ambient complex structure applied to
    the position; ``phi`` is the tangential projection of the ambient
    complex structure; ``eta`` is the metric dual of the Reeb field.
    The round metric is ``scale * I``, so raising an index divides by
    ``scale``.
    """
    x, jac, factor = _stereographic(chart, u)
    scale = (factor * factor)[..., None]
    eta = np.einsum("...a,...ai->...i", x @ chart.j0, jac)  # -J0 x, as j0 is antisymmetric
    phi = np.swapaxes(jac, -1, -2) @ (chart.j0 @ jac) / scale[..., None]
    return SasakianStructure(
        metric=scale[..., None] * np.eye(chart.dim), phi=phi, xi=eta / scale, eta=eta
    )


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

    def fields(self, u: np.ndarray) -> SasakianStructure:
        """The deformed fields at ``(..., dim)`` chart points."""
        return d_homothetic_structure(canonical_sasakian_fields(self.chart, u), self.alpha)

    def metric_at(self, u: np.ndarray) -> np.ndarray:
        """Metric field values at ``(..., dim)`` chart points."""
        return self.fields(u).metric


# ---------------------------------------------------------------------------
# finite-difference geometry
# ---------------------------------------------------------------------------


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """``Gamma_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2`` on the last three axes."""
    return 0.5 * (dg + np.einsum("...jik->...ijk", dg) - np.einsum("...kij->...ijk", dg))


def christoffels_fd(metric_field: Callable, u: np.ndarray) -> np.ndarray:
    """Second-kind symbols ``Gamma^k_{ij}``, indexed ``[k, i, j]``, from a stencil of the metric."""
    first = _first_kind(partial_derivatives(metric_field, u))
    return np.einsum("kl,ijl->kij", np.linalg.inv(metric_field(u)), first)


def _riemann_from_jet(
    g: np.ndarray, ginv: np.ndarray, dg: np.ndarray, ddg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariant curvature from the metric's 2-jet at a point.

    ``ginv`` is the inverse of ``g``, which the caller owns and inverts
    once.  ``dg[d, i, j] = d_d g_ij`` and ``ddg[c, d, i, j] = d_c d_d g_ij``;
    the derivative of the second-kind symbols uses
    ``d g^-1 = -g^-1 (d g) g^-1``.  Returns the curvature together with
    the first- and second-kind symbols it was built from.
    """
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
    return np.einsum("lm,mijk->ijkl", g, r_up), first, gamma


def riemann_fd(metric_field: Callable, u: np.ndarray) -> np.ndarray:
    """Fully covariant curvature of a metric field from its stencil 2-jet.

    Returns ``R[i, j, k, l] = g(R(d_i, d_j) d_k, d_l)`` in the package
    sign convention; the unit sphere comes out with sectional curvature
    plus one.
    """
    u = np.asarray(u, dtype=float)
    dg, ddg, _ = _two_jet(metric_field, u)
    g = np.asarray(metric_field(u), dtype=float)
    return _riemann_from_jet(g, np.linalg.inv(g), dg, ddg)[0]


def nijenhuis_fd(j_field: Callable, u: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor of an almost complex structure field.

    For coordinate fields the brackets reduce to derivatives of the
    structure matrix:
    ``N^m_{ij} = J^k_i d_k J^m_j - J^k_j d_k J^m_i
    + J^m_k d_j J^k_i - J^m_k d_i J^k_j``.
    Vanishing of the result (to stencil accuracy) certifies
    integrability from first principles.
    """
    return _nijenhuis(np.asarray(j_field(u), dtype=float), partial_derivatives(j_field, u))


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


def product_field_functions(
    factor_chart: FactorChart,
    factor_chart_prime: FactorChart,
    params: HermitianParams,
) -> tuple[Callable, Callable]:
    """Coordinate-field closures ``(g_bar(u), J_bar(u))`` on the product chart.

    Both apply the block formulas of :mod:`sasakiherm.product` to the
    factor fields at ``u[..., :m]`` and ``u[..., m:]``; nothing else of the
    closed-form engine enters.  A ``(k, dim)`` stack of points gives a
    stack of values, with each factor's fields evaluated once on its slice
    of the stack.
    """
    m = factor_chart.dim

    def metric_fn(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        f1, f2 = factor_chart.fields(u[..., :m]), factor_chart_prime.fields(u[..., m:])
        return product_metric(f1, f2, params)

    def j_fn(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        f1, f2 = factor_chart.fields(u[..., :m]), factor_chart_prime.fields(u[..., m:])
        return product_complex_structure(f1, f2, params)

    return metric_fn, j_fn


def sample_chart_points(rng: np.random.Generator, dim: int, count: int = 1) -> np.ndarray:
    """Uniform sample points in the chart ball of radius ``_SAMPLE_RADIUS``, rows are points."""
    directions = rng.normal(size=(count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = _SAMPLE_RADIUS * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return directions * radii


# ---------------------------------------------------------------------------
# comparison against the closed-form engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleComparison:
    """Max-norm deviations between stencil tensors and the closed-form model.

    Curvature-level quantities (``riemann``, ``ricci``, ``ricci_star``)
    come from second-derivative stencils of the metric; the connection
    blocks, the covariant derivative of the complex structure and the
    largest Nijenhuis entry from first-derivative ones.
    """

    riemann: float
    ricci: float
    ricci_star: float
    connection: float
    nabla_j: float
    nijenhuis: float


def _product_adapted_frame(f1: SasakianStructure, f2: SasakianStructure) -> np.ndarray:
    """Block frame matching the closed-form basis ordering at a chart point."""
    m = f1.metric.shape[0]
    dim = m + f2.metric.shape[0]
    frame = np.zeros((dim, dim))
    frame[:m, :m] = adapted_frame(f1.metric, f1.phi, f1.xi)
    frame[m:, m:] = adapted_frame(f2.metric, f2.phi, f2.xi)
    return frame


def _connection_block_prediction(
    f1: SasakianStructure,
    f2: SasakianStructure,
    params: HermitianParams,
    gamma1: np.ndarray,
    gamma2: np.ndarray,
) -> np.ndarray:
    """First-kind product symbols predicted from factor data alone.

    Every block of ``g_bar(nabla_X Y, Z)`` for coordinate fields drawn
    from the factors reduces to factor Christoffel symbols, Reeb
    covectors, and ``g(phi ., .)`` pairings; this assembles that
    prediction from the factor fields ``f1``, ``f2`` at the point and the
    first-kind symbols ``gamma1``, ``gamma2`` of each factor metric there,
    so the stencil symbols of the product metric can be checked against it.
    """
    a, b = params.a, params.b
    m = f1.metric.shape[0]
    dim = m + f2.metric.shape[0]
    # eta(nabla_X Y) = xi^k Gamma_{ij,k}
    reeb_of_nabla1 = np.einsum("ijk,k->ij", gamma1, f1.xi)
    reeb_of_nabla2 = np.einsum("ijk,k->ij", gamma2, f2.xi)
    gphi1, gphi2 = f1.gphi, f2.gphi
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
) -> OracleComparison:
    """Stencil-differentiate the product fields and compare to the model.

    The curvature, Ricci, star-Ricci, and covariant derivative of the
    complex structure are transported into the structure-adapted frame
    at the chart point, where homogeneity makes them directly
    comparable entry-by-entry with the closed-form tensors.  Connection
    blocks and the Nijenhuis tensor are checked in coordinates; the
    latter shares the first partials of ``J_bar`` with ``nabla J``.

    Each stencil point is evaluated once, one call per factor on the
    stack of points.  Along each axis the 18 points of the pure
    second-order stencil give ``g_bar`` and ``J_bar`` from one evaluation
    of the factor fields: the second partial of ``g_bar``, the first
    partials of both (from 8 of those points), and the first partial of
    the moving factor's metric, whose Christoffel symbols the connection
    prediction takes.  Each pair of axes is one 32-point stencil of
    ``g_bar``.  At ``N = 6`` that is 44 factor-field calls.

    ``g_bar`` at the point is certified and inverted once, before any
    stencil; the curvature, Ricci and star-Ricci traces all take that
    inverse.
    """
    coords = np.asarray(coords, dtype=float)
    m = factor_chart.dim
    metric_fn, _ = product_field_functions(factor_chart, factor_chart_prime, params)
    fields1, fields2 = factor_chart.fields, factor_chart_prime.fields
    f1 = fields1(coords[:m])
    f2 = fields2(coords[m:])
    g_bar = product_metric(f1, f2, params)
    require_spd(g_bar, "chart product metric")
    g_inv = np.linalg.inv(g_bar)
    j_bar = product_complex_structure(f1, f2, params)

    def axis_fields(i: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
        # one evaluation of both factors gives g_bar, J_bar and the metric
        # of the factor that moves along u_i
        r1, r2 = fields1(points[:, :m]), fields2(points[:, m:])
        moving = r1 if i < m else r2
        return (
            product_metric(r1, r2, params), product_complex_structure(r1, r2, params),
            moving.metric,
        )

    dg, ddg, (dj, dfactor) = _two_jet(metric_fn, coords, axis_fields)
    dj = np.stack(dj)
    r4, gamma_first, gamma = _riemann_from_jet(g_bar, g_inv, dg, ddg)
    ricci = contract_trace(r4, g_inv)
    ricci_star = star_ricci_from_curvature(r4, j_bar, g_inv)

    nabla_j = (
        np.einsum("zm,xmy->xyz", g_bar, dj)
        + np.einsum("my,xmz->xyz", j_bar, gamma_first)
        - np.einsum("zm,ml,lxy->xyz", g_bar, j_bar, gamma)
    )

    frame = _product_adapted_frame(f1, f2)
    prediction = _connection_block_prediction(
        f1, f2, params, _first_kind(np.stack(dfactor[:m])), _first_kind(np.stack(dfactor[m:]))
    )
    return OracleComparison(
        riemann=float(np.abs(change_frame(frame, r4) - model.riemann_bar).max()),
        ricci=float(np.abs(change_frame(frame, ricci) - model.ricci_bar).max()),
        ricci_star=float(np.abs(change_frame(frame, ricci_star) - model.ricci_star_bar).max()),
        connection=float(np.abs(gamma_first - prediction).max()),
        nabla_j=float(np.abs(change_frame(frame, nabla_j) - model.nabla_j).max()),
        nijenhuis=float(np.abs(_nijenhuis(j_bar, dj)).max()),
    )
