"""Closed-form pointwise models of Sasakian structures.

A :class:`SasakianStructure` records the tensors ``(g, phi, xi, eta)``;
the factor models and the chart fields are such records.  A
:class:`SasakianPointModel` extends it with the curvature at a point,
expressed in the standard adapted orthonormal frame of
:func:`standard_frame`: the metric is the identity, the Reeb vector
``xi`` is the last basis vector, ``eta`` is its dual covector, and
``phi`` rotates the remaining basis vectors in pairs
(``phi e_{2k} = e_{2k+1}``, ``phi e_{2k+1} = -e_{2k}``).  The frame is a
property of the type, so a model is its curvature.

The homogeneous spaces modeled here (round spheres, space forms of
constant phi-holomorphic sectional curvature, and their D-homothetic
deformations) are completely determined by this pointwise data, so one
frame per factor represents the whole manifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import InvalidParameterError
from .tensors import curvature_symmetry_residuals, freeze_fields, symmetrize


@dataclass(frozen=True)
class SasakianStructure:
    """The structure tensors ``(g, phi, xi, eta)`` of a Sasakian manifold.

    The arrays may be adapted-frame model data or chart field values;
    leading axes stack points.  The pairings built from them that the
    product formulas and the identity suites share are stated here once.
    """

    metric: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    @property
    def eta_eta(self) -> np.ndarray:
        """``eta (x) eta``."""
        return self.eta[..., :, None] * self.eta[..., None, :]

    @property
    def gphi(self) -> np.ndarray:
        """Entries ``g(phi e_x, e_y)``."""
        return np.swapaxes(self.phi, -1, -2) @ self.metric

    @property
    def transverse(self) -> np.ndarray:
        """The transverse metric ``g - eta (x) eta``."""
        return self.metric - self.eta_eta


@cache
def standard_frame(n: int) -> SasakianStructure:
    """The structure tensors of dimension ``2 n + 1`` in their adapted orthonormal frame.

    Built once per ``n``; every model with that ``n`` shares these read-only arrays.
    """
    if n < 1:
        raise InvalidParameterError(f"need at least one phi-pair, got {n}")
    dim = 2 * n + 1
    phi = np.zeros((dim, dim))
    k = np.arange(n)
    phi[2 * k + 1, 2 * k] = 1.0
    phi[2 * k, 2 * k + 1] = -1.0
    reeb = np.zeros(dim)
    reeb[-1] = 1.0
    frame = SasakianStructure(metric=np.eye(dim), phi=phi, xi=reeb, eta=reeb)
    freeze_fields(frame, ("metric", "phi", "xi", "eta"))
    return frame


@cache
def _standard_pairings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(eta_eta, gphi, transverse)`` of :func:`standard_frame`, built once per ``n``, read-only."""
    frame = standard_frame(n)
    pairings = (frame.eta_eta, frame.gphi, frame.transverse)
    for pairing in pairings:
        pairing.setflags(write=False)
    return pairings


@dataclass(frozen=True)
class SasakianPointModel(SasakianStructure):
    """Pointwise curvature of a Sasakian structure in its standard frame.

    ``n`` counts the phi-rotated pairs; the dimension is ``2 n + 1``.
    ``riemann`` is fully covariant with index order (X, Y, Z, W) and
    ``ricci`` is its metric trace over the middle slots.  The structure
    tensors are not arguments: they are the shared arrays of
    :func:`standard_frame`, so a raised index equals the lowered one, and
    so are their pairings ``eta_eta``, ``gphi`` and ``transverse``.
    """

    metric: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)
    xi: np.ndarray = field(init=False)
    eta: np.ndarray = field(init=False)
    n: int
    riemann: np.ndarray
    ricci: np.ndarray

    def __post_init__(self):
        frame = standard_frame(self.n)
        for name in ("metric", "phi", "xi", "eta"):
            object.__setattr__(self, name, getattr(frame, name))
        freeze_fields(self, ("riemann", "ricci"))
        for name, rank in (("riemann", 4), ("ricci", 2)):
            if (shape := getattr(self, name).shape) != (self.dim,) * rank:
                raise InvalidParameterError(f"{name} shape {shape} does not match dimension {self.dim}")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    # the pairings depend on the frame alone, so a model reads the shared ones
    # of its n instead of rebuilding them on every access
    @property
    def eta_eta(self) -> np.ndarray:
        return _standard_pairings(self.n)[0]

    @property
    def gphi(self) -> np.ndarray:
        return _standard_pairings(self.n)[1]

    @property
    def transverse(self) -> np.ndarray:
        return _standard_pairings(self.n)[2]

    def ricci_deviation(self, g_coeff: float, eta_coeff: float) -> float:
        """``max |ricci - g_coeff g - eta_coeff eta (x) eta|``."""
        return float(np.abs(self.ricci - g_coeff * self.metric - eta_coeff * self.eta_eta).max())


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


# Bound on |c| of a space form: far enough inside the float range that the
# curvature traces and the identity suite's fitted c = (2A - 3n + 1)/(n + 1) stay finite.
MAX_SPACE_FORM_C = 1e300


def _space_form_curvature(g, phi, eta, c) -> np.ndarray:
    """Covariant curvature of constant phi-holomorphic sectional curvature c.

    The literals are integers, so ``Fraction`` object arrays and ``c``
    give the curvature in exact arithmetic and floats give it in floats.
    """
    outer = np.multiply.outer
    gphi = phi.T @ g  # entries g(phi e_x, e_y)
    coeff_round = (c + 3) / 4
    coeff_phi = (c - 1) / 4
    ee = outer(eta, eta)
    phi_phi = outer(coeff_phi * gphi, gphi)
    # the terms that join slots (y, z) and (x, w), indexed [y, z, x, w]; the
    # ones that join (x, z) and (y, w) are the same tensor with x and y swapped
    pairs = outer(g, coeff_round * g - coeff_phi * ee) + phi_phi - outer(coeff_phi * ee, g)
    return pairs.transpose(2, 0, 1, 3) - pairs.transpose(0, 2, 1, 3) - 2 * phi_phi


def make_round_sphere_model(p: int) -> SasakianPointModel:
    """Unit odd sphere of dimension ``2 p + 1`` with its canonical Sasakian structure.

    Constant sectional curvature one: R(X,Y,Z,W) = g(Y,Z)g(X,W) - g(X,Z)g(Y,W),
    which is the space form at ``c = 1``.
    """
    return make_space_form_model(p, 1.0)


def make_space_form_model(q: int, c: float) -> SasakianPointModel:
    """Sasakian space form of constant phi-holomorphic sectional curvature ``c``."""
    frame = standard_frame(q)
    if not abs(c) <= MAX_SPACE_FORM_C:
        raise InvalidParameterError(
            f"space-form curvature c = {c!r} is outside |c| <= {MAX_SPACE_FORM_C:g}"
        )
    riemann = _space_form_curvature(frame.metric, frame.phi, frame.eta, float(c))
    # in an orthonormal frame the metric trace is the plain one
    return SasakianPointModel(n=q, riemann=riemann, ricci=symmetrize(np.einsum("xiiw->xw", riemann)))


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
    frame = standard_frame(q)
    g, phi, eta = (a.astype(int).astype(object) for a in (frame.metric, frame.phi, frame.eta))
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


def d_homothetic_structure(s: SasakianStructure, alpha: float) -> SasakianStructure:
    """D-homothetic deformation of a Sasakian structure.

    The metric becomes ``alpha (g - eta (x) eta) + alpha^2 eta (x) eta``,
    the Reeb field ``xi / alpha`` and the contact form ``alpha eta``;
    ``phi`` is unchanged.  Leading axes of the record's arrays broadcast.
    """
    eta_eta = s.eta_eta  # alpha^2 as one product; alpha + alpha (alpha - 1) is 0 at tiny alpha
    metric = alpha * (s.metric - eta_eta) + (alpha * alpha) * eta_eta
    return SasakianStructure(metric=metric, phi=s.phi, xi=s.xi / alpha, eta=alpha * s.eta)


def d_homothetic_deform(model: SasakianPointModel, alpha: float) -> SasakianPointModel:
    """Apply a D-homothetic deformation and return the deformed model.

    The structure tensors transform by :func:`d_homothetic_structure`.
    The curvature of the deformed metric follows pointwise from the
    connection shift ``nabla' = nabla - (alpha - 1) (eta (x) phi + phi (x) eta)``,
    which is valid on any Sasakian structure.  The deformed metric is
    ``alpha`` on the contact distribution and ``alpha^2`` on ``xi``, so its
    adapted orthonormal frame is ``diag(alpha^-1/2, ..., alpha^-1/2, 1/alpha)``,
    in which the structure tensors are the standard frame's again, so only
    the curvature is re-expressed.
    """
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise InvalidParameterError(f"deformation parameter must be positive and finite, got {alpha}")
    alpha = float(alpha)
    if not np.isfinite(alpha * alpha * alpha):  # the lowered curvature carries (alpha - 1)^2 alpha
        raise InvalidParameterError(f"deformation parameter {alpha!r} has a cube that overflows")
    inverse = 1.0 / alpha
    if not np.isfinite(inverse * inverse * inverse * inverse):  # four frame entries 1/alpha
        raise InvalidParameterError(
            f"deformation parameter {alpha!r} has a fourth inverse power that overflows"
        )
    g, phi, eta, riemann, gphi = model.metric, model.phi, model.eta, model.riemann, model.gphi
    new = d_homothetic_structure(model, alpha)

    # in an orthonormal frame raising the last index is the identity, and xi = eta
    shift1 = (
        2.0 * np.einsum("xy,mz->xyzm", gphi, phi)
        + np.einsum("xz,my->xyzm", gphi, phi)
        - np.einsum("yz,mx->xyzm", gphi, phi)
        - np.einsum("y,xz,m->xyzm", eta, g, eta)
        + np.einsum("x,yz,m->xyzm", eta, g, eta)
        + 2.0 * np.einsum("y,z,xm->xyzm", eta, eta, g)
        - 2.0 * np.einsum("x,z,ym->xyzm", eta, eta, g)
    )
    shift2 = np.einsum("y,z,xm->xyzm", eta, eta, g) - np.einsum("x,z,ym->xyzm", eta, eta, g)
    r13_new = riemann + (alpha - 1.0) * shift1 + (alpha - 1.0) ** 2 * shift2
    r4_new = np.einsum("xyzm,wm->xyzw", r13_new, new.metric)

    frame = np.diag(np.full(model.dim, 1.0 / np.sqrt(alpha)))
    frame[-1, -1] = inverse
    r_hat = np.einsum("ia,jb,kc,ld,ijkl->abcd", frame, frame, frame, frame, r4_new)
    return SasakianPointModel(n=model.n, riemann=r_hat, ricci=symmetrize(np.einsum("xiiw->xw", r_hat)))


def classify_eta_einstein(model: SasakianPointModel) -> EtaEinsteinCoefficients:
    """Fit ``ricci = A g + B eta (x) eta`` and report the deviation.

    The metric coefficient is read off the first basis vector orthogonal
    to ``xi``; the residual covers both off-ansatz entries and any
    variation of the diagonal across the remaining directions, so a poor
    fit is signaled by the residual, never an exception.
    """
    ricci = model.ricci
    g_coeff = float(ricci[0, 0])
    eta_coeff = float(ricci[-1, -1] - g_coeff)
    residual = model.ricci_deviation(g_coeff, eta_coeff)
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
        model.n, model.metric, model.phi, model.eta, model.riemann, model.ricci,
    )
    ricci_phi = ricci @ phi  # Ric(., phi .)

    def exchange(curvature):
        # R(X, Y, phi Z, W) - R(phi Z, X, Y, W), both contracted as [x, y, w, z]
        swapped = np.tensordot(curvature, phi, ([2], [0]))
        swapped -= np.tensordot(curvature, phi, ([0], [0]))
        return swapped.transpose(0, 1, 3, 2)

    c = (2.0 * classify_eta_einstein(model).g_coeff - 3.0 * n + 1.0) / (n + 1.0)
    space_form = _space_form_curvature(g, phi, eta, c)
    phi_exchange = float(np.abs(exchange(riemann) - exchange(space_form)).max())

    # the traces over the orthonormal frame e_i run through sum_i phi e_i (x) e_i = phi
    pair_target = 2.0 * ricci_phi + 2.0 * (2 * n - 1) * model.gphi

    # the traced phi-exchange right-hand side is -3/2 of the pair trace's
    tr1 = np.tensordot(riemann, phi, ([2, 3], [0, 1]))
    tr1 -= np.tensordot(riemann, phi, ([0, 3], [0, 1]))
    traced_phi_exchange = float(np.abs(tr1 + 1.5 * pair_target).max())

    tr2 = np.tensordot(riemann, phi, ([2, 3], [1, 0]))  # sum_i R(X, Y, e_i, phi e_i)
    phi_pair_trace = float(np.abs(tr2 - pair_target).max())

    tr3 = tr2 @ phi  # sum_i R(X, phi Y, e_i, phi e_i)
    target = -2.0 * ricci + 2.0 * (2 * n - 1) * g + 2.0 * model.eta_eta
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
        model.metric, model.phi, model.xi, model.eta, model.riemann, model.ricci,
    )
    out: dict[str, float] = {}
    out["eta_of_xi"] = abs(float(eta @ xi) - 1.0)
    out["eta_is_metric_dual_of_xi"] = float(np.abs(eta - g @ xi).max())
    out["phi_squared"] = float(np.abs(phi @ phi + g - np.outer(xi, eta)).max())
    out["phi_kills_xi"] = float(np.abs(phi @ xi).max())
    out["eta_kills_phi"] = float(np.abs(eta @ phi).max())
    out["phi_metric_compatibility"] = float(np.abs(model.gphi @ phi - model.transverse).max())
    reeb = np.einsum("xyzw,z->xyw", riemann, xi)
    reeb_target = np.einsum("y,xw->xyw", eta, g) - np.einsum("x,yw->xyw", eta, g)
    out["reeb_curvature"] = float(np.abs(reeb - reeb_target).max())
    out["ricci_reeb"] = float(np.abs(ricci @ xi - 2.0 * model.n * eta).max())
    # the frame is orthonormal, so metric traces are plain traces
    ricci_from_riemann = np.einsum("xiiw->xw", riemann)
    out["ricci_is_curvature_trace"] = float(np.abs(ricci - ricci_from_riemann).max())
    out.update(curvature_symmetry_residuals(riemann))
    scalar_from_ricci = float(np.trace(ricci))
    scalar_from_riemann = float(np.trace(ricci_from_riemann))
    out["scalar_curvature_trace_consistency"] = abs(scalar_from_ricci - scalar_from_riemann)
    return out
