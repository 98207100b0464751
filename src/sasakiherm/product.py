"""Two-parameter Hermitian structures on a product of Sasakian models.

Given Sasakian factors of dimensions ``2p + 1`` and ``2q + 1`` and
parameters ``(a, b)`` with ``b != 0``, this module assembles the
product metric, the compatible complex structure, the covariant
derivative of the complex structure, the full curvature tensor, the
Ricci and star-Ricci forms, and both scalar curvatures -- all in
closed form on the product tangent space of dimension
``N = 2p + 2q + 2``.

Basis convention: the first factor occupies indices ``0 .. 2p`` with
its Reeb vector at index ``2p``; the second factor occupies
``2p + 1 .. N - 1`` with its Reeb vector last.  The mixed metric entry
``a`` therefore sits at ``(2p, N - 1)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .sasakian import SasakianPointModel, SasakianStructure
from .tensors import (
    TOLERANCES,
    freeze_fields,
    integrability_residual,
    spectrum_error,
    symmetrize,
)


@dataclass(frozen=True)
class HermitianParams:
    """The pair (a, b) selecting one member of the structure family.

    ``b = 0`` is rejected outright: the complex structure divides by
    ``b`` and the metric degenerates there.  So is a pair whose
    ``a^2 + b^2``, an entry of the metric, overflows.  On two factor
    models the product metric has the spectrum ``1`` (``N - 2`` times),
    ``lo`` and ``hi``: the eigenvalues of its Reeb-plane block
    ``[[1, a], [a, a^2 + b^2]]``, with ``lo * hi = b^2`` and
    ``lo + hi = 1 + a^2 + b^2`` (:func:`product_metric_spectrum`).  A
    pair whose ``lo, hi`` fail the ratio rule of
    :func:`~sasakiherm.tensors.spectrum_error` raises its
    :class:`~sasakiherm.errors.SingularMetricError`, naming the pair: each
    member's metric is certified once, where the member is made.
    """

    a: float
    b: float

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not np.isfinite(value):
                raise InvalidParameterError(f"parameter {name} must be finite, got {value}")
        if self.b == 0.0:
            raise InvalidParameterError(
                "b = 0 degenerates the product metric and leaves the complex structure undefined"
            )
        a, b = float(self.a), float(self.b)
        if not math.isfinite(a * a + b * b):
            raise InvalidParameterError(f"a^2 + b^2 overflows at a = {a!r}, b = {b!r}")
        error = spectrum_error("product metric", *product_metric_spectrum(a, b))
        if error is not None:
            raise type(error)(f"{error} at a = {a!r}, b = {b!r}")


def product_metric_spectrum(a: float, b: float) -> tuple[float, float]:
    """``(lo, hi)``: the extreme eigenvalues of the product metric of two factor models.

    They are those of the Reeb-plane block ``[[1, a], [a, a^2 + b^2]]``,
    so ``lo <= 1 <= hi``; ``a^2 + b^2`` must be finite.
    """
    # the product of hypots is sqrt((1 + a^2 + b^2)^2 - 4 b^2) without
    # cancellation, halved first so that it stays finite, and lo = b^2 / hi
    # keeps the relative accuracy that lo = sum - hi would lose
    half_root = 0.5 * math.hypot(a, 1.0 - abs(b)) * math.hypot(a, 1.0 + abs(b))
    hi = 0.5 * (1.0 + a * a + b * b) + half_root
    return b * b / hi, hi


@dataclass(frozen=True)
class ParamStack:
    """Members of the family stacked along a leading cell axis.

    ``a`` and ``b`` have shape ``(cells, 1, 1)``, so they broadcast
    against the blocks of :func:`product_metric` and
    :func:`build_product_ricci`, which then return one tensor per cell.
    """

    a: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, cells: Sequence[HermitianParams]) -> ParamStack:
        """Stack validated members in order."""
        a = np.array([cell.a for cell in cells], dtype=float)
        b = np.array([cell.b for cell in cells], dtype=float)
        return cls(a[:, None, None], b[:, None, None])


@dataclass(frozen=True)
class ProductHermitianModel:
    """All closed-form tensors of one product Hermitian structure."""

    factor: SasakianPointModel
    factor_prime: SasakianPointModel
    params: HermitianParams
    g_bar: np.ndarray
    j_bar: np.ndarray
    nabla_j: np.ndarray
    riemann_bar: np.ndarray
    ricci_bar: np.ndarray
    ricci_star_bar: np.ndarray
    tau_bar: float
    tau_star_bar: float

    def __post_init__(self):
        freeze_fields(
            self, ("g_bar", "j_bar", "nabla_j", "riemann_bar", "ricci_bar", "ricci_star_bar")
        )

    @property
    def dim(self) -> int:
        return self.factor.dim + self.factor_prime.dim


def product_metric(
    s: SasakianStructure, s_prime: SasakianStructure, params: HermitianParams | ParamStack
) -> np.ndarray:
    """Product metric: factor metrics glued along the Reeb directions.

    Block form: ``g`` on the first factor, ``(g' - eta' (x) eta') +
    (a^2 + b^2) eta' (x) eta'`` on the second, and ``a eta (x) eta'``
    across; on factor models the second Reeb entry is ``a^2 + b^2`` exactly.
    Positive definite exactly when ``b != 0``; nothing is tested here, as
    :class:`HermitianParams` certifies the spectrum on two factor models.
    The factor records may
    be adapted-frame models or chart fields; leading axes broadcast, so
    a stack of chart points gives a stack of metrics, and so does a
    :class:`ParamStack` of cells.
    """
    a, b = params.a, params.b
    m = s.metric.shape[-1]
    dim = m + s_prime.metric.shape[-1]
    # the mixed block carries every leading axis, of the records and of a stack
    mixed = a * (s.eta[..., :, None] * s_prime.eta[..., None, :])
    g_bar = np.zeros(mixed.shape[:-2] + (dim, dim))
    g_bar[..., :m, :m] = s.metric
    g_bar[..., m:, m:] = s_prime.transverse + (a * a + b * b) * s_prime.eta_eta
    g_bar[..., :m, m:] = mixed
    g_bar[..., m:, :m] = np.swapaxes(mixed, -1, -2)
    return g_bar


def product_metric_inverse(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams | ParamStack,
) -> np.ndarray:
    """Closed-form inverse of the product metric of two factor models.

    The identity off the Reeb plane, and ``[[a^2 + b^2, -a], [-a, 1]] / b^2``
    on the two Reeb directions; each entry is one expression in ``a, b``.
    A :class:`ParamStack` gives one inverse per cell, as in
    :func:`product_metric`.  No test is made: :class:`HermitianParams`
    certified each metric where its member was made.
    """
    a, b = params.a, params.b
    b2 = b * b
    m = factor.dim
    dim = m + factor_prime.dim
    mixed = (-a / b2) * (factor.eta[:, None] * factor_prime.eta[None, :])
    g_inv = np.zeros(mixed.shape[:-2] + (dim, dim))
    g_inv[..., :m, :m] = factor.transverse + ((a * a + b2) / b2) * factor.eta_eta
    g_inv[..., m:, m:] = factor_prime.transverse + (1.0 / b2) * factor_prime.eta_eta
    g_inv[..., :m, m:] = mixed
    g_inv[..., m:, :m] = np.swapaxes(mixed, -1, -2)
    return g_inv


def product_complex_structure(
    s: SasakianStructure, s_prime: SasakianStructure, params: HermitianParams
) -> np.ndarray:
    """Compatible complex structure of the product.

    Acts as ``phi`` (resp. ``phi'``) off the Reeb directions and maps
    the Reeb plane onto itself:
    ``J X  = phi X  - (a/b) eta(X) xi + (1/b) eta(X) xi'`` and
    ``J X' = phi' X' - ((a^2+b^2)/b) eta'(X') xi + (a/b) eta'(X') xi'``.
    Squares to minus the identity for every ``b != 0``.  Leading axes
    of the factor records broadcast as in :func:`product_metric`.
    """
    a, b = params.a, params.b
    m = s.phi.shape[-1]
    dim = m + s_prime.phi.shape[-1]
    j = np.zeros(s.phi.shape[:-2] + (dim, dim))
    j[..., :m, :m] = s.phi - (a / b) * (s.xi[..., :, None] * s.eta[..., None, :])
    j[..., m:, :m] = (1.0 / b) * (s_prime.xi[..., :, None] * s.eta[..., None, :])
    j[..., :m, m:] = -((a * a + b * b) / b) * (s.xi[..., :, None] * s_prime.eta[..., None, :])
    j[..., m:, m:] = s_prime.phi + (a / b) * (s_prime.xi[..., :, None] * s_prime.eta[..., None, :])
    return j


def build_product_metric(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams,
) -> np.ndarray:
    """:func:`product_metric` of two factor models, positive definite as ``params`` certifies."""
    return product_metric(factor, factor_prime, params)


def build_nabla_j(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams,
) -> np.ndarray:
    """Covariant derivative of the complex structure, fully lowered.

    Returns ``T[x, y, z] = g_bar((nabla_x J) y, z)`` assembled from the
    factor-wise block formulas, extended to arbitrary arguments by
    multilinearity.  ``nabla J`` is antisymmetric in its last two slots
    (a consequence of metric compatibility), so one term of each block
    is stated and the rest is its image under that antisymmetry.
    """
    a, b = params.a, params.b
    m = factor.dim
    dim = m + factor_prime.dim
    eta, eta_p = factor.eta, factor_prime.eta
    s1, s2 = slice(0, m), slice(m, dim)
    h = np.zeros((dim, dim, dim))
    h[s1, s1, s1] = np.einsum("xy,z->xyz", factor.metric, eta)
    h[s2, s2, s1] = np.einsum(
        "xy,z->xyz", a * factor_prime.transverse + b * factor_prime.gphi, eta
    )
    h[s1, s2, s1] = np.einsum("xz,y->xyz", b * factor.gphi - a * factor.transverse, eta_p)
    h[s2, s2, s2] = (a * a + b * b) * np.einsum("xy,z->xyz", factor_prime.metric, eta_p)
    return h - h.transpose(0, 2, 1)


def build_product_curvature(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams,
) -> np.ndarray:
    """Fully covariant curvature tensor of the product metric.

    The curvature symmetries (antisymmetry in each index pair, symmetry
    under pair exchange, and their products) split the sixteen argument
    patterns into six orbits.  One closed-form block is stated per
    orbit and written together with all its images.  The factor
    curvatures enter only through the two diagonal blocks.
    """
    a, b = params.a, params.b
    ab2 = a * a + b * b
    k = ab2 - 1.0
    m, mp = factor.dim, factor_prime.dim
    dim = m + mp
    g, eta, gphi = factor.metric, factor.eta, factor.gphi
    g_p, eta_p, gphi_p = factor_prime.metric, factor_prime.eta, factor_prime.gphi

    slices = (slice(0, m), slice(m, dim))
    riemann = np.zeros((dim, dim, dim, dim))

    def place(pattern: tuple[int, int, int, int], block: np.ndarray) -> None:
        # a swap inside either pair flips the sign, exchanging the pairs
        # keeps it; an image landing on a pattern already written equals
        # what is there by the block's own symmetry, so it is skipped
        written = set()
        for sign_1, first in ((1.0, (0, 1)), (-1.0, (1, 0))):
            for sign_2, second in ((1.0, (2, 3)), (-1.0, (3, 2))):
                for axes in (first + second, second + first):
                    target = tuple(pattern[i] for i in axes)
                    if target not in written:
                        written.add(target)
                        riemann[tuple(slices[i] for i in target)] = (
                            sign_1 * sign_2 * block.transpose(axes)
                        )

    place((0, 0, 0, 0), factor.riemann)
    place(
        (0, 1, 0, 0),
        -a * (np.einsum("y,xz,w->xyzw", eta_p, g, eta) - np.einsum("y,xw,z->xyzw", eta_p, g, eta)),
    )
    place((1, 1, 0, 0), 2.0 * a * np.einsum("xy,zw->xyzw", gphi_p, gphi))
    place(
        (0, 1, 0, 1),
        a * np.einsum("xz,yw->xyzw", gphi, gphi_p)
        - a * a * np.einsum("y,w,xz->xyzw", eta_p, eta_p, factor.transverse)
        - a * a * np.einsum("x,z,yw->xyzw", eta, eta, factor_prime.transverse),
    )
    place(
        (1, 1, 1, 0),
        a * ab2 * (
            np.einsum("w,x,yz->xyzw", eta, eta_p, g_p)
            - np.einsum("w,y,xz->xyzw", eta, eta_p, g_p)
        ),
    )
    reeb_square = (
        np.einsum("x,w,yz->xyzw", eta_p, eta_p, g_p)
        - np.einsum("y,w,xz->xyzw", eta_p, eta_p, g_p)
        - np.einsum("x,z,yw->xyzw", eta_p, eta_p, g_p)
        + np.einsum("y,z,xw->xyzw", eta_p, eta_p, g_p)
    )
    phi_square = (
        2.0 * np.einsum("xy,zw->xyzw", gphi_p, gphi_p)
        + np.einsum("xz,yw->xyzw", gphi_p, gphi_p)
        - np.einsum("yz,xw->xyzw", gphi_p, gphi_p)
    )
    place((1, 1, 1, 1), factor_prime.riemann + k * (k + 2.0) * reeb_square + k * phi_square)
    return riemann


def build_product_ricci(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams | ParamStack,
) -> np.ndarray:
    """Closed-form Ricci tensor of the product metric.

    Matches the metric trace of :func:`build_product_curvature`; the
    two routes are kept independent so tests can compare them.  A
    :class:`ParamStack` gives one tensor per cell.
    """
    a, b = params.a, params.b
    s = a * a + b * b
    p, q = factor.n, factor_prime.n
    m = factor.dim
    dim = m + factor_prime.dim
    mixed = 2.0 * a * (p + q * s) * np.outer(factor.eta, factor_prime.eta)
    ricci = np.zeros(mixed.shape[:-2] + (dim, dim))
    ricci[..., :m, :m] = factor.ricci + 2.0 * a * a * q * factor.eta_eta
    ricci[..., :m, m:] = mixed
    ricci[..., m:, :m] = mixed.swapaxes(-1, -2)
    ricci[..., m:, m:] = (
        factor_prime.ricci
        - 2.0 * (s - 1.0) * factor_prime.metric
        + 2.0 * (p * a * a + s - 1.0 + q * (s - 1.0) * (s + 1.0)) * factor_prime.eta_eta
    )
    return symmetrize(ricci)


def build_product_ricci_star(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams,
) -> np.ndarray:
    """Closed-form star-Ricci tensor of the product structure.

    Proportional to the transverse metric on each factor block
    (coefficients ``1 - 2 a q`` and ``1 - 2 a p - (2q + 1)(a^2 + b^2 - 1)``)
    and zero across; in particular it annihilates both Reeb directions.
    """
    a, b = params.a, params.b
    p, q = factor.n, factor_prime.n
    m = factor.dim
    dim = m + factor_prime.dim
    out = np.zeros((dim, dim))
    out[:m, :m] = (1.0 - 2.0 * a * q) * factor.transverse
    out[m:, m:] = (
        1.0 - 2.0 * a * p - (2.0 * q + 1.0) * (a * a + b * b - 1.0)
    ) * factor_prime.transverse
    return out


def build_product_model(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams,
) -> ProductHermitianModel:
    """Assemble every closed-form tensor of the product structure.

    Scalar curvatures are the metric traces of the Ricci and
    star-Ricci forms, taken with :func:`product_metric_inverse`.
    """
    g_bar = build_product_metric(factor, factor_prime, params)
    j_bar = product_complex_structure(factor, factor_prime, params)
    nabla_j = build_nabla_j(factor, factor_prime, params)
    riemann_bar = build_product_curvature(factor, factor_prime, params)
    ricci_bar = build_product_ricci(factor, factor_prime, params)
    ricci_star_bar = build_product_ricci_star(factor, factor_prime, params)
    g_inv = product_metric_inverse(factor, factor_prime, params)
    tau_bar = float(np.einsum("ij,ij->", g_inv, ricci_bar))
    tau_star_bar = float(np.einsum("ij,ij->", g_inv, ricci_star_bar))
    return ProductHermitianModel(
        factor=factor,
        factor_prime=factor_prime,
        params=params,
        g_bar=g_bar,
        j_bar=j_bar,
        nabla_j=nabla_j,
        riemann_bar=riemann_bar,
        ricci_bar=ricci_bar,
        ricci_star_bar=ricci_star_bar,
        tau_bar=tau_bar,
        tau_star_bar=tau_star_bar,
    )


def scalar_curvatures(model: ProductHermitianModel) -> tuple[float, float]:
    """Scalar and star-scalar curvature of a product model."""
    return model.tau_bar, model.tau_star_bar


def check_integrability(model: ProductHermitianModel) -> float:
    """Integrability residual of a product model (zero for the whole family)."""
    return integrability_residual(model.nabla_j, model.j_bar)


def integrability_residuals(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    cells: Sequence[HermitianParams],
) -> list[float]:
    """Integrability residual of each cell of a grid, in order.

    Each residual is that of :func:`check_integrability` on the cell's
    product model, to the bit, from the same ``J`` and ``nabla J``; no
    metric is built, as each cell's was certified where it was made.
    """
    return [
        integrability_residual(
            build_nabla_j(factor, factor_prime, params),
            product_complex_structure(factor, factor_prime, params),
        )
        for params in cells
    ]


def check_not_kahler(model: ProductHermitianModel) -> float:
    """Largest entry of ``nabla J``; a Kahler structure would make this zero.

    For this family the entry ``g((nabla_{X'} J) Y', Z')`` carries the
    coefficient ``a^2 + b^2`` and the first-factor block carries ``1``,
    so the result is bounded below by ``min(1, a^2 + b^2) > 0``.
    """
    return float(np.abs(model.nabla_j).max())


def check_weakly_star_einstein(model: ProductHermitianModel) -> tuple[bool, float]:
    """Test ``rho* = (tau*/N) g_bar`` and report the max-norm residual.

    Always false on this family: the star-Ricci tensor annihilates the
    Reeb directions while the metric does not, so the residual is at
    least ``|tau*| / N`` whenever the star-scalar curvature is nonzero,
    and remains positive even when it vanishes.
    """
    lam = model.tau_star_bar / model.dim
    residual = float(np.abs(model.ricci_star_bar - lam * model.g_bar).max())
    return residual <= TOLERANCES["algebraic"], residual
