"""Einstein analysis of the product Hermitian family.

Decides whether a given member of the family is Einstein along two
independent routes -- a direct residual fit of the Ricci tensor
against the metric, and the structural characterization (``a = 0``,
``p = b^2 q``, Einstein first factor, eta-Einstein second factor with
matched coefficients) -- and builds the Einstein examples on products
of odd spheres.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConsistencyError, InvalidParameterError, MetricError
from .product import (
    HermitianParams,
    ParamStack,
    ProductHermitianModel,
    build_product_model,
    build_product_ricci,
    metric_error_at,
    product_metric,
)
from .sasakian import (
    SasakianPointModel,
    d_homothetic_deform,
    make_round_sphere_model,
    space_form_ricci_coefficients,
)
from .tensors import ALGEBRAIC_TOL, require_spd

# Cells decided per stacked pass of a grid; at N = 42 each stacked tensor
# of a pass then takes 3.6 MB, however many cells the grid has.
GRID_BLOCK = 256


@dataclass(frozen=True)
class StructuralConditions:
    """The four structural requirements for an Einstein product.

    Each holds when its distance, named in :data:`DISTANCES`, is at most
    the verdict's tolerance.
    """

    a_is_zero: bool
    p_equals_b2q: bool
    factor_einstein: bool
    factor_prime_eta_einstein: bool

    def failing(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if not getattr(self, f.name))

    def all_hold(self) -> bool:
        return not self.failing()


# what each structural condition measures, in field order
DISTANCES = ("|a|", "|p - b^2 q|", "factor max |Ric - 2p g|",
             "factor_prime max |Ric' - A g' - B eta' (x) eta'|")


@dataclass(frozen=True)
class EinsteinVerdict:
    """Outcome of the Einstein decision for one family member.

    ``einstein_constant`` is fitted as the scalar curvature divided by
    the dimension, never assumed; on Einstein members it equals ``2 p``.
    ``agreement`` records that the residual and structural routes
    concur (construction fails otherwise).  ``ricci_bar`` is the product
    Ricci tensor the residual route judged; the verdicts of a grid keep
    none (``None``), so that a scan holds no tensor per cell.
    """

    is_einstein: bool
    einstein_constant: float
    residual: float
    conditions: StructuralConditions
    agreement: bool
    ricci_bar: np.ndarray | None = field(compare=False, repr=False)

    def failing_conditions(self) -> tuple[str, ...]:
        return self.conditions.failing()


@dataclass(frozen=True)
class EinsteinExampleSpec:
    """Parameters of one sphere-product Einstein example."""

    p: int
    q: int
    a: float
    b: float
    c: float
    alpha: float


def required_eta_einstein_coefficients(p: int, q: int) -> tuple[float, float]:
    """Second-factor Ricci coefficients forced by the Einstein condition.

    The second factor must satisfy ``ricci' = A g' + B eta' (x) eta'``
    with ``A = 2 (p + p/q - 1)`` and ``B = -2 (p/q - 1)(q + 1)``: the
    Ricci coefficients of the space form with ``c = 4 p / q - 3``, which
    is the second factor of :func:`calabi_eckmann_einstein_example`.
    """
    return space_form_ricci_coefficients(q, 4.0 * p / q - 3.0)


def einstein_verdict(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    params: HermitianParams | Sequence[HermitianParams],
    tol: float = ALGEBRAIC_TOL,
) -> EinsteinVerdict | list[EinsteinVerdict]:
    """Decide the Einstein condition along both routes and cross-check.

    Residual route: fit the Einstein constant as ``tau / N`` and measure
    ``max |ricci - lambda g|``.  Structural route: test ``a = 0``,
    ``p = b^2 q``, ``ricci = 2p g`` on the first factor, and the matched
    eta-Einstein coefficients on the second.  The two must agree; a
    disagreement signals an implementation bug and raises.

    ``params`` is one member of the family, or a grid: a sequence of
    members, which returns one verdict per member, in order.  One member
    is the grid of one cell.  The factor conditions are decided once per
    grid; the cells go through in stacked passes of up to
    :data:`GRID_BLOCK`, each certifying its metrics with one
    :func:`require_spd` and tracing them in one einsum.  The error raised
    is that of the first failing cell in order; a singular or indefinite
    metric and a disagreement name the cell's ``(a, b)``.
    """
    single = isinstance(params, HermitianParams)
    cells = (params,) if single else tuple(params)
    p, q = factor.n, factor_prime.n
    g_coeff, eta_coeff = required_eta_einstein_coefficients(p, q)
    fits = (factor.ricci_deviation(2.0 * p, 0.0),
            factor_prime.ricci_deviation(g_coeff, eta_coeff))
    verdicts = []
    for start in range(0, len(cells), GRID_BLOCK):
        block = cells[start:start + GRID_BLOCK]
        verdicts += _block_verdicts(factor, factor_prime, block, fits, tol, keep_ricci=single)
    return verdicts[0] if single else verdicts


def _block_verdicts(
    factor: SasakianPointModel,
    factor_prime: SasakianPointModel,
    cells: tuple[HermitianParams, ...],
    fits: tuple[float, float],
    tol: float,
    keep_ricci: bool,
) -> list[EinsteinVerdict]:
    """One stacked pass of :func:`einstein_verdict` over ``cells``."""
    dim = factor.dim + factor_prime.dim
    g_bar = product_metric(factor, factor_prime, _as_stack(cells)).reshape(-1, dim, dim)
    try:
        require_spd(g_bar, name="product metric")
        certified, metric_error = len(cells), None
    except MetricError as exc:
        # the cells before the failing metric are still decided, so that
        # an earlier disagreement is raised first
        certified, metric_error = exc.index, exc
    g_bar = g_bar[:certified]
    ricci_bar = build_product_ricci(
        factor, factor_prime, _as_stack(cells[:certified])
    ).reshape(-1, dim, dim)
    fitted = np.einsum("cij,cij->c", np.linalg.inv(g_bar), ricci_bar) / g_bar.shape[-1]
    residuals = np.abs(ricci_bar - fitted[:, None, None] * g_bar).max(axis=(-2, -1))
    p, q = factor.n, factor_prime.n
    verdicts = []
    for params, ricci, lam, residual in zip(cells, ricci_bar, fitted.tolist(), residuals.tolist()):
        a, b = params.a, params.b
        distances = (abs(a), abs(p - b * b * q), *fits)
        conditions = StructuralConditions(*(distance <= tol for distance in distances))
        residual_says = residual <= tol
        structure_says = conditions.all_hold()
        if structure_says != residual_says:
            raise ConsistencyError(
                "structural and residual Einstein verdicts disagree: "
                f"structural={structure_says} residual={residual_says} "
                f"(residual {residual:.3e}, failing {conditions.failing()}) "
                f"at a = {float(a)!r}, b = {float(b)!r}; distances against tol {tol:g}: "
                + ", ".join(f"{name} = {d:.3g}" for name, d in zip(DISTANCES, distances))
            )
        verdicts.append(EinsteinVerdict(
            is_einstein=residual_says,
            einstein_constant=lam,
            residual=residual,
            conditions=conditions,
            agreement=True,
            ricci_bar=ricci if keep_ricci else None,
        ))
    if metric_error is not None:
        raise metric_error_at(metric_error, cells[certified]) from None
    return verdicts


def _as_stack(cells: tuple[HermitianParams, ...]) -> HermitianParams | ParamStack:
    """The cells as parameters of the product formulas.

    One cell stays scalar: its tensors are the same to the bit, and scalar
    coefficients cost less than numpy arithmetic on a stack of one.
    """
    return cells[0] if len(cells) == 1 else ParamStack.of(cells)


def calabi_eckmann_einstein_example(
    p: int, q: int
) -> tuple[EinsteinExampleSpec, ProductHermitianModel]:
    """Einstein Hermitian structure on a product of odd spheres.

    The first factor is the round unit sphere of dimension ``2p + 1``;
    the second is the round sphere of dimension ``2q + 1`` deformed
    D-homothetically with ``alpha = q / p`` (yielding the space form
    with ``c = 4 p / q - 3``); the parameters are ``a = 0`` and
    ``b = sqrt(p / q)``.  The resulting structure is Einstein with
    constant ``2 p``; at ``p = q`` it reduces to the Riemannian product
    of round spheres.
    """
    if p < 1 or q < 1:
        raise InvalidParameterError(f"need at least one phi-pair, got p={p}, q={q}")
    alpha = q / p
    factor = make_round_sphere_model(p)
    factor_prime = d_homothetic_deform(make_round_sphere_model(q), alpha)
    params = HermitianParams(a=0.0, b=math.sqrt(p / q))
    model = build_product_model(factor, factor_prime, params)
    spec = EinsteinExampleSpec(
        p=p, q=q, a=0.0, b=math.sqrt(p / q), c=4.0 * p / q - 3.0, alpha=alpha
    )
    return spec, model


def star_scalar_prediction(p: int, q: int) -> float:
    """Star-scalar curvature of the sphere-product Einstein example.

    Closed form ``4 q (1 - p + q)`` on the ``a = 0``, ``b = sqrt(p/q)``
    family; vanishes exactly when ``p = q + 1``.
    """
    return 4.0 * q * (1.0 - p + q)
