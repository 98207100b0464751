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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConsistencyError, InvalidParameterError
from .product import (
    HermitianParams,
    ProductHermitianModel,
    build_product_metric,
    build_product_model,
    build_product_ricci,
)
from .sasakian import (
    SasakianPointModel,
    d_homothetic_deform,
    make_round_sphere_model,
    space_form_ricci_coefficients,
)
from .tensors import ALGEBRAIC_TOL, contract_trace


@dataclass(frozen=True)
class StructuralConditions:
    """The four structural requirements for an Einstein product."""

    a_is_zero: bool
    p_equals_b2q: bool
    factor_einstein: bool
    factor_prime_eta_einstein: bool

    def failing(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if not getattr(self, f.name))

    def all_hold(self) -> bool:
        return not self.failing()


@dataclass(frozen=True)
class EinsteinVerdict:
    """Outcome of the Einstein decision for one family member.

    ``einstein_constant`` is fitted as the scalar curvature divided by
    the dimension, never assumed; on Einstein members it equals ``2 p``.
    ``agreement`` records that the residual and structural routes
    concur (construction fails otherwise).  ``ricci_bar`` is the product
    Ricci tensor the residual route judged.
    """

    is_einstein: bool
    einstein_constant: float
    residual: float
    conditions: StructuralConditions
    agreement: bool
    ricci_bar: np.ndarray = field(compare=False, repr=False)

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
    params: HermitianParams,
    tol: float = ALGEBRAIC_TOL,
) -> EinsteinVerdict:
    """Decide the Einstein condition along both routes and cross-check.

    Residual route: fit the Einstein constant as ``tau / N`` and measure
    ``max |ricci - lambda g|``.  Structural route: test ``a = 0``,
    ``p = b^2 q``, ``ricci = 2p g`` on the first factor, and the matched
    eta-Einstein coefficients on the second.  The two must agree; a
    disagreement signals an implementation bug and raises.
    """
    g_bar = build_product_metric(factor, factor_prime, params)
    ricci_bar = build_product_ricci(factor, factor_prime, params)
    tau = float(contract_trace(ricci_bar, g_bar))
    fitted = tau / g_bar.shape[0]
    residual = float(np.abs(ricci_bar - fitted * g_bar).max())
    residual_says = residual <= tol

    p, q = factor.n, factor_prime.n
    a, b = params.a, params.b
    g_coeff, eta_coeff = required_eta_einstein_coefficients(p, q)
    conditions = StructuralConditions(
        a_is_zero=abs(a) <= tol,
        p_equals_b2q=abs(p - b * b * q) <= tol,
        factor_einstein=factor.ricci_deviation(2.0 * p, 0.0) <= tol,
        factor_prime_eta_einstein=factor_prime.ricci_deviation(g_coeff, eta_coeff) <= tol,
    )
    structure_says = conditions.all_hold()
    if structure_says != residual_says:
        raise ConsistencyError(
            "structural and residual Einstein verdicts disagree: "
            f"structural={structure_says} residual={residual_says} "
            f"(residual {residual:.3e}, failing {conditions.failing()})"
        )
    return EinsteinVerdict(
        is_einstein=residual_says,
        einstein_constant=fitted,
        residual=residual,
        conditions=conditions,
        agreement=True,
        ricci_bar=ricci_bar,
    )


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
