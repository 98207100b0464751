"""Closed-form pointwise models of Sasakian structures.

A :class:`SasakianPointModel` packages the value of every structure
tensor of a Sasakian manifold at a point, expressed in an adapted
orthonormal frame: the metric is the identity, the Reeb vector ``xi``
is the last basis vector, ``eta`` is its dual covector, and ``phi``
rotates the remaining basis vectors in pairs
(``phi e_{2k} = e_{2k+1}``, ``phi e_{2k+1} = -e_{2k}``).

The homogeneous spaces modeled here (round spheres, space forms of
constant phi-holomorphic sectional curvature, and their D-homothetic
deformations) are completely determined by this pointwise data, so one
frame per factor represents the whole manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError
from .tensors import (
    adapted_frame,
    contract_trace,
    curvature_symmetry_residuals,
    orthonormal_frame,
    symmetrize,
)


@dataclass(frozen=True)
class SasakianPointModel:
    """Pointwise data of a Sasakian structure in an adapted frame.

    ``n`` counts the phi-rotated pairs; the dimension is ``2 n + 1``.
    ``riemann`` is fully covariant with index order (X, Y, Z, W) and
    ``ricci`` is its metric trace over the middle slots.
    """

    n: int
    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray

    def __post_init__(self):
        for name in ("g", "phi", "xi", "eta", "riemann", "ricci"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.g.shape != (self.dim, self.dim):
            raise InvalidParameterError(
                f"metric shape {self.g.shape} does not match dimension {self.dim}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


@dataclass(frozen=True)
class EtaEinsteinCoefficients:
    """Best-fit coefficients of ``ricci = g_coeff * g + eta_coeff * eta (x) eta``.

    ``residual`` is the max-norm deviation from that ansatz; the fit is
    eta-Einstein (to a tolerance) exactly when the residual is below it.
    """

    g_coeff: float
    eta_coeff: float
    residual: float


@dataclass(frozen=True)
class SasakianIdentityResiduals:
    """Max-norm residuals of the pointwise Sasakian curvature identities.

    ``n`` counts the phi-pairs, ``Ric`` is the model's Ricci tensor and
    ``e_i`` runs over a metric-orthonormal frame.  The three traced
    identities hold on every Sasakian manifold:

    * ``traced_phi_exchange``: sum_i R(X,Y,phi e_i,e_i) - sum_i R(phi e_i,X,Y,e_i)
      = -3 Ric(X,phiY) - 3 (2n-1) g(phiX,Y)
    * ``phi_pair_trace``: sum_i R(X,Y,e_i,phi e_i)
      = 2 Ric(X,phiY) + 2 (2n-1) g(phiX,Y)
    * ``shifted_phi_pair_trace``: sum_i R(X,phiY,e_i,phi e_i)
      = -2 Ric(X,Y) + 2 (2n-1) g(X,Y) + 2 eta(X) eta(Y)

    The untraced identity has no general Sasakian form and holds on
    Sasakian space forms only:

    * ``phi_exchange``: R(X,Y,phiZ,W) - R(phiZ,X,Y,W) equals the same
      expression evaluated on the space-form curvature of
      phi-sectional curvature ``c = (2A - 3n + 1) / (n + 1)``, where
      ``A`` is the metric coefficient of the eta-Einstein fit
      ``Ric = A g + B eta (x) eta`` (the inverse of
      :func:`space_form_ricci_coefficients`).  On a Sasakian manifold
      that is not a space form this residual is nonzero.

    On the unit sphere (``Ric = 2n g``, ``c = 1``) the right-hand sides
    reduce to ``3 g(phiX,Y)``, ``-2 g(phiX,Y)``,
    ``-2 (g(X,Y) - eta(X) eta(Y))`` and
    ``-g(X,Y) g(phiZ,W) - 2 g(Z,phiY) g(X,W) + g(Z,phiX) g(Y,W)``.
    """

    phi_exchange: float
    traced_phi_exchange: float
    phi_pair_trace: float
    shifted_phi_pair_trace: float

    def max_residual(self) -> float:
        return max(
            self.phi_exchange,
            self.traced_phi_exchange,
            self.phi_pair_trace,
            self.shifted_phi_pair_trace,
        )


def _pairwise_rotation(p: int) -> np.ndarray:
    n = 2 * p + 1
    phi = np.zeros((n, n))
    for k in range(p):
        phi[2 * k + 1, 2 * k] = 1.0
        phi[2 * k, 2 * k + 1] = -1.0
    return phi


def _space_form_curvature(g, phi, eta, c) -> np.ndarray:
    """Covariant curvature of constant phi-holomorphic sectional curvature c.

    The literals are integers, so ``Fraction`` object arrays and ``c``
    give the curvature in exact arithmetic and floats give it in floats.
    """
    gphi = phi.T @ g  # entries g(phi e_x, e_y)
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


def make_round_sphere_model(p: int) -> SasakianPointModel:
    """Unit odd sphere of dimension ``2 p + 1`` with its canonical Sasakian structure.

    Constant sectional curvature one: R(X,Y,Z,W) = g(Y,Z)g(X,W) - g(X,Z)g(Y,W),
    which is the space form at ``c = 1``.
    """
    return make_space_form_model(p, 1.0)


def make_space_form_model(q: int, c: float) -> SasakianPointModel:
    """Sasakian space form of constant phi-holomorphic sectional curvature ``c``."""
    if q < 1:
        raise InvalidParameterError(f"need at least one phi-pair, got {q}")
    dim = 2 * q + 1
    g = np.eye(dim)
    phi = _pairwise_rotation(q)
    eta = np.zeros(dim)
    eta[-1] = 1.0
    riemann = _space_form_curvature(g, phi, eta, float(c))
    return SasakianPointModel(
        n=q, g=g, phi=phi, xi=eta.copy(), eta=eta,
        riemann=riemann, ricci=symmetrize(contract_trace(riemann, g)),
    )


def space_form_ricci_coefficients(q, c):
    """Closed-form eta-Einstein coefficients of a space form's Ricci tensor.

    Returns ``(g_coeff, eta_coeff)`` with
    ``ricci = g_coeff * g + eta_coeff * eta (x) eta``.  Works for exact
    rational inputs as well as floats.
    """
    g_coeff = (q * (c + 3) + c - 1) / 2
    eta_coeff = -(q + 1) * (c - 1) / 2
    return g_coeff, eta_coeff


def space_form_ricci_exact(q: int, c: Fraction) -> tuple[Fraction, Fraction]:
    """Trace the space-form curvature in exact rational arithmetic.

    Runs the curvature formula of :func:`make_space_form_model` on
    :class:`fractions.Fraction` object arrays and contracts the middle
    slots against the identity metric, returning the exact
    ``(g_coeff, eta_coeff)`` of the resulting Ricci tensor.  No floating
    point enters.
    """
    dim = 2 * q + 1
    g = np.eye(dim, dtype=int).astype(object)
    eta = np.zeros(dim, dtype=int).astype(object)
    eta[-1] = 1
    phi = _pairwise_rotation(q).astype(int).astype(object)
    ricci = np.einsum("xiiw->xw", _space_form_curvature(g, phi, eta, Fraction(c)))
    g_coeff = ricci[0, 0]
    eta_coeff = ricci[-1, -1] - g_coeff
    expected = g_coeff * g + eta_coeff * np.outer(eta, eta)
    mismatches = np.argwhere(ricci != expected)
    if mismatches.size:
        x, w = mismatches[0]
        raise ArithmeticError(
            f"exact Ricci entry ({x},{w}) is not eta-Einstein: {ricci[x, w]} != {expected[x, w]}"
        )
    return g_coeff, eta_coeff


def d_homothetic_structure(
    g: np.ndarray, xi: np.ndarray, eta: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D-homothetic deformation of a metric, Reeb field and contact form.

    Returns ``(alpha g + alpha (alpha - 1) eta (x) eta, xi / alpha,
    alpha eta)``; ``phi`` is unchanged.  The arrays may be adapted-frame
    model data or chart field values; leading axes broadcast.
    """
    eta_eta = eta[..., :, None] * eta[..., None, :]
    return alpha * g + alpha * (alpha - 1.0) * eta_eta, xi / alpha, alpha * eta


def d_homothetic_deform(model: SasakianPointModel, alpha: float) -> SasakianPointModel:
    """Apply a D-homothetic deformation and return the deformed model.

    The structure tensors transform by :func:`d_homothetic_structure`.
    The curvature of the deformed metric follows pointwise from the
    connection shift ``nabla' = nabla - (alpha - 1) (eta (x) phi + phi (x) eta)``,
    which is valid on any Sasakian structure; everything is then
    re-expressed in a new adapted orthonormal frame so the output
    satisfies the same frame conventions as the constructors.
    """
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise InvalidParameterError(f"deformation parameter must be positive and finite, got {alpha}")
    alpha = float(alpha)
    g, phi, xi, eta, riemann = model.g, model.phi, model.xi, model.eta, model.riemann
    dim = model.dim
    ident = np.eye(dim)
    gphi = phi.T @ g
    g_new, xi_new, eta_new = d_homothetic_structure(g, xi, eta, alpha)

    r13 = np.einsum("xyzw,wm->xyzm", riemann, np.linalg.inv(g))
    shift1 = (
        2.0 * np.einsum("xy,mz->xyzm", gphi, phi)
        + np.einsum("xz,my->xyzm", gphi, phi)
        - np.einsum("yz,mx->xyzm", gphi, phi)
        - np.einsum("y,xz,m->xyzm", eta, g, xi)
        + np.einsum("x,yz,m->xyzm", eta, g, xi)
        + 2.0 * np.einsum("y,z,xm->xyzm", eta, eta, ident)
        - 2.0 * np.einsum("x,z,ym->xyzm", eta, eta, ident)
    )
    shift2 = np.einsum("y,z,xm->xyzm", eta, eta, ident) - np.einsum(
        "x,z,ym->xyzm", eta, eta, ident
    )
    r13_new = r13 + (alpha - 1.0) * shift1 + (alpha - 1.0) ** 2 * shift2
    r4_new = np.einsum("xyzm,wm->xyzw", r13_new, g_new)

    frame = adapted_frame(g_new, phi, xi_new)
    frame_inv = np.linalg.inv(frame)
    g_hat = symmetrize(frame.T @ g_new @ frame)
    phi_hat = frame_inv @ phi @ frame
    xi_hat = frame_inv @ xi_new
    eta_hat = frame.T @ eta_new
    r_hat = np.einsum("ia,jb,kc,ld,ijkl->abcd", frame, frame, frame, frame, r4_new)
    ricci_hat = symmetrize(contract_trace(r_hat, g_hat))
    return SasakianPointModel(
        n=model.n, g=g_hat, phi=phi_hat, xi=xi_hat, eta=eta_hat,
        riemann=r_hat, ricci=ricci_hat,
    )


def classify_eta_einstein(model: SasakianPointModel) -> EtaEinsteinCoefficients:
    """Fit ``ricci = A g + B eta (x) eta`` and report the deviation.

    The metric coefficient is read off the first basis vector orthogonal
    to ``xi``; the residual covers both off-ansatz entries and any
    variation of the diagonal across the remaining directions, so a poor
    fit is signaled by the residual, never an exception.
    """
    ricci, g, eta = model.ricci, model.g, model.eta
    g_coeff = float(ricci[0, 0] / g[0, 0])
    eta_coeff = float(ricci[-1, -1] - g_coeff * g[-1, -1])
    residual = float(
        np.abs(ricci - g_coeff * g - eta_coeff * np.outer(eta, eta)).max()
    )
    return EtaEinsteinCoefficients(g_coeff=g_coeff, eta_coeff=eta_coeff, residual=residual)


def verify_sasakian_curvature_identities(
    model: SasakianPointModel,
) -> SasakianIdentityResiduals:
    """Evaluate the pointwise Sasakian curvature identity suite.

    The three traced residuals vanish (to roundoff) on every Sasakian
    model; ``phi_exchange`` vanishes on Sasakian space forms, which
    covers every model the constructors and :func:`d_homothetic_deform`
    build.  See :class:`SasakianIdentityResiduals` for the identities
    checked.
    """
    n, g, phi, eta, riemann, ricci = (
        model.n, model.g, model.phi, model.eta, model.riemann, model.ricci,
    )
    gphi_left = phi.T @ g  # g(phi ., .)
    ricci_phi = ricci @ phi  # Ric(., phi .)

    def exchange(curvature):
        return np.einsum("xyaw,az->xyzw", curvature, phi) - np.einsum(
            "axyw,az->xyzw", curvature, phi
        )

    c = (2.0 * classify_eta_einstein(model).g_coeff - 3.0 * n + 1.0) / (n + 1.0)
    space_form = _space_form_curvature(g, phi, eta, c)
    phi_exchange = float(np.abs(exchange(riemann) - exchange(space_form)).max())

    # trace identities run over a metric-orthonormal frame
    frame = orthonormal_frame(g)
    phi_frame = phi @ frame
    pair_target = 2.0 * ricci_phi + 2.0 * (2 * n - 1) * gphi_left

    # the traced phi-exchange right-hand side is -3/2 of the pair trace's
    tr1 = np.einsum("xyab,ai,bi->xy", riemann, phi_frame, frame) - np.einsum(
        "axyb,ai,bi->xy", riemann, phi_frame, frame
    )
    traced_phi_exchange = float(np.abs(tr1 + 1.5 * pair_target).max())

    tr2 = np.einsum("xyab,ai,bi->xy", riemann, frame, phi_frame)
    phi_pair_trace = float(np.abs(tr2 - pair_target).max())

    tr3 = np.einsum("xmab,my,ai,bi->xy", riemann, phi, frame, phi_frame, optimize=True)
    target = -2.0 * ricci + 2.0 * (2 * n - 1) * g + 2.0 * np.outer(eta, eta)
    shifted_phi_pair_trace = float(np.abs(tr3 - target).max())

    return SasakianIdentityResiduals(
        phi_exchange=phi_exchange,
        traced_phi_exchange=traced_phi_exchange,
        phi_pair_trace=phi_pair_trace,
        shifted_phi_pair_trace=shifted_phi_pair_trace,
    )


def sasakian_structure_residuals(model: SasakianPointModel) -> dict[str, float]:
    """Max-norm residuals of every defining pointwise Sasakian relation.

    Covers the almost-contact-metric algebra, the Reeb curvature
    identity R(X,Y)xi = eta(Y)X - eta(X)Y, the Ricci identity
    ricci(xi, .) = 2n eta, consistency of ``ricci`` with the curvature
    trace, and the algebraic curvature symmetries.
    """
    g, phi, xi, eta, riemann, ricci = (
        model.g, model.phi, model.xi, model.eta, model.riemann, model.ricci,
    )
    dim = model.dim
    ident = np.eye(dim)
    out: dict[str, float] = {}
    out["eta_of_xi"] = abs(float(eta @ xi) - 1.0)
    out["eta_is_metric_dual_of_xi"] = float(np.abs(eta - g @ xi).max())
    out["phi_squared"] = float(np.abs(phi @ phi + ident - np.outer(xi, eta)).max())
    out["phi_kills_xi"] = float(np.abs(phi @ xi).max())
    out["eta_kills_phi"] = float(np.abs(eta @ phi).max())
    out["phi_metric_compatibility"] = float(
        np.abs(phi.T @ g @ phi - (g - np.outer(eta, eta))).max()
    )
    reeb = np.einsum("xyzw,z->xyw", riemann, xi)
    reeb_target = np.einsum("y,xw->xyw", eta, g) - np.einsum("x,yw->xyw", eta, g)
    out["reeb_curvature"] = float(np.abs(reeb - reeb_target).max())
    out["ricci_reeb"] = float(np.abs(ricci @ xi - 2.0 * model.n * eta).max())
    out["ricci_is_curvature_trace"] = float(
        np.abs(ricci - contract_trace(riemann, g)).max()
    )
    out.update(curvature_symmetry_residuals(riemann))
    scalar_from_ricci = float(contract_trace(ricci, g))
    scalar_from_riemann = float(contract_trace(contract_trace(riemann, g), g))
    out["scalar_curvature_trace_consistency"] = abs(scalar_from_ricci - scalar_from_riemann)
    return out
