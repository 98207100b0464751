"""Dense pointwise tensor algebra over a single tangent space.

All objects are plain numpy float arrays expressed in a fixed frame:
vectors and covectors have shape ``(n,)``, bilinear forms and
endomorphisms ``(n, n)``, and fully covariant rank-4 tensors
``(n, n, n, n)`` with index order ``T[x, y, z, w]``.  Curvature-role
tensors follow the sign convention ``R(X, Y, Z, W) = <R(X, Y)Z, W>``
with ``R(X, Y) = [nabla_X, nabla_Y] - nabla_[X,Y]``.
"""

from __future__ import annotations

import numpy as np

from .errors import IndefiniteMetricError, MetricError, SingularMetricError

# The one tolerance table: each verdict judges its residual against its
# tier's value.  Closed-form algebra holds to ``algebraic`` and metric traces
# of closed-form curvature to ``trace``; finite-difference comparisons use
# ``first`` or ``second`` by derivative order; yes/no checks record
# residual 0 (pass) or 1 (fail).
ALGEBRAIC_TOL = 1e-12
TOLERANCES = {
    "algebraic": ALGEBRAIC_TOL, "trace": 1e-11, "second": 1e-4, "first": 1e-5, "yes_no": 0.5,
}


def symmetrize(form: np.ndarray) -> np.ndarray:
    """Exactly symmetric part of a square matrix, or of each in a stack."""
    # halving each term first keeps the sum finite wherever the input is
    return 0.5 * form + 0.5 * form.swapaxes(-1, -2)


# A metric is indefinite when its smallest eigenvalue is below -INDEFINITE_RATIO,
# and singular when it is at most SINGULAR_RATIO, times max(1, max |eigenvalue|).
INDEFINITE_RATIO = 1e-10
SINGULAR_RATIO = 1e-13


def require_spd(metric: np.ndarray, name: str = "metric") -> None:
    """Raise unless ``metric`` is symmetric positive definite.

    Distinguishes a numerically singular metric from an indefinite one
    so callers can report the right failure; a metric with a non-finite
    entry counts as singular, and so does one whose spectrum overflows.
    Leading axes stack metrics, all certified by one ``eigvalsh``; the
    error then describes the first failing metric in C order, and its
    ``index`` locates that metric (see :class:`MetricError`).
    """
    m = np.asarray(metric, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise SingularMetricError(f"{name} must be square, got shape {m.shape}")
    stack = m.reshape((-1,) + m.shape[-2:])
    # each test runs on the metrics before the first failure found so far,
    # so a later test's failure is the earlier metric, and a metric failing
    # several tests reports the first of them
    error = None
    if not np.isfinite(stack).all():
        index = int(np.argmin(np.isfinite(stack).all(axis=(-2, -1))))
        error = SingularMetricError(f"{name} has non-finite entries", index)
        stack = stack[:index]
    # the entries are finite here, so no NaN can slip past this comparison
    asymmetry = np.abs(stack - stack.swapaxes(-1, -2)).max(axis=(-2, -1))
    if asymmetry.max(initial=0.0) > 1e-10:  # no bound is below 1e-10
        asymmetric = asymmetry > 1e-10 * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
        if asymmetric.any():
            index = int(np.argmax(asymmetric))
            error = SingularMetricError(f"{name} is not symmetric", index)
            stack = stack[:index]
    # eigvalsh sorts each spectrum ascending
    eigvals = np.linalg.eigvalsh(symmetrize(stack))
    lo, hi = eigvals[:, 0], eigvals[:, -1]
    degenerate = lo <= SINGULAR_RATIO * np.maximum(1.0, np.maximum(-lo, hi))
    if degenerate.any():
        index = int(np.argmax(degenerate))
        error = _spectrum_error(name, eigvals[index], index)
    if error is not None:
        raise error


def _spectrum_error(name: str, eigvals: np.ndarray, index: int) -> MetricError:
    """The error for a metric whose eigenvalue ratio fails :func:`require_spd`."""
    lo = float(eigvals.min())
    scale = max(1.0, float(np.abs(eigvals).max()))
    spectrum = (f"eigenvalues {lo:g} to {eigvals.max():g}; "
                f"min over max(1, max |eigenvalue|) = {lo / scale:.3g}")
    if lo < -INDEFINITE_RATIO * scale:
        return IndefiniteMetricError(
            f"{name} is indefinite ({spectrum}, below {-INDEFINITE_RATIO:g})", index
        )
    return SingularMetricError(f"{name} is singular ({spectrum}, at most {SINGULAR_RATIO:g})", index)


def contract_trace(tensor: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Metric trace of a rank-4 tensor over its middle slots, or of a form.

    Equivalent to feeding both traced slots the vectors of any
    ``metric``-orthonormal frame and summing.  A curvature tensor
    ``T[x, y, z, w]`` traces over ``y, z`` to its Ricci form ``[x, w]``;
    a bilinear form traces to the scalar ``<metric^-1, form>``.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim not in (2, 4):
        raise ValueError(f"expected a rank-2 or rank-4 tensor, got ndim={t.ndim}")
    require_spd(metric)
    ginv = np.linalg.inv(metric)
    return np.einsum("ij,aijb->ab" if t.ndim == 4 else "ij,ij->", ginv, t)


def change_frame(frame: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Fully covariant tensor evaluated on the columns of ``frame``.

    Returns ``T(F e_a, F e_b, ...)`` for a tensor of any rank, the same
    as one multi-operand einsum with ``frame`` on every index, but
    contracted one index at a time, so the cost stays ``O(n^(rank + 1))``.
    """
    out = np.asarray(tensor, dtype=float)
    for _ in range(out.ndim):
        # contracting the leading axis appends the new one, so after
        # ``ndim`` steps every index is transformed and back in place
        out = np.tensordot(out, frame, axes=([0], [0]))
    return out


def orthonormal_frame(metric: np.ndarray) -> np.ndarray:
    """Gram-Schmidt frame of the standard basis under ``metric``.

    Returns a matrix ``F`` whose columns are the frame vectors, so that
    ``F.T @ metric @ F`` is the identity.  The Gram-Schmidt frame is the
    one such ``F`` that is upper triangular with a positive diagonal; as
    ``F @ F.T`` is the inverse metric, it is the Cholesky factor of that
    inverse with the basis order reversed, so its zeros are exact.  Raises
    through :func:`require_spd` unless the metric is symmetric positive definite.
    """
    require_spd(metric)
    return np.linalg.cholesky(np.linalg.inv(metric)[::-1, ::-1])[::-1, ::-1]


def adapted_frame(metric: np.ndarray, phi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Structure-adapted orthonormal frame for an almost contact metric triple.

    Returns a matrix whose columns are ``[v_1, phi v_1, ..., v_n, phi v_n, xi^]``
    where ``xi^`` is the normalized Reeb vector and each pair spans a
    phi-invariant plane orthogonal to everything built before it.  Relies
    on the compatibility ``g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)``,
    which makes ``phi v`` automatically unit and orthogonal to the
    previously accepted vectors.
    """
    g = np.asarray(metric, dtype=float)
    n = g.shape[0]
    if n % 2 == 0:
        raise ValueError(f"adapted frames need odd dimension, got {n}")
    xi_norm2 = float(xi @ g @ xi)
    if xi_norm2 <= 0.0:
        raise IndefiniteMetricError("Reeb vector has nonpositive norm")
    xi_hat = xi / np.sqrt(xi_norm2)
    cols: list[np.ndarray] = []

    def reject(v: np.ndarray) -> np.ndarray:
        v = v - (xi_hat @ g @ v) * xi_hat
        for w in cols:
            v = v - (w @ g @ v) * w
        return v

    k = 0
    while len(cols) < n - 1:
        if k >= n:
            raise SingularMetricError("could not complete an adapted frame")
        v = reject(np.eye(n)[:, k])
        k += 1
        norm2 = float(v @ g @ v)
        if norm2 <= 1e-12:
            continue
        v = v / np.sqrt(norm2)
        cols.append(v)
        w = reject(phi @ v)
        w_norm2 = float(w @ g @ w)
        if w_norm2 <= 1e-12:
            raise SingularMetricError("phi-partner of a frame vector degenerated")
        cols.append(w / np.sqrt(w_norm2))
    cols.append(xi_hat)
    return np.column_stack(cols)


def curvature_symmetry_residuals(tensor: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the four algebraic curvature symmetries.

    Checks antisymmetry in the first and second index pairs, symmetry
    under exchange of the pairs, and the first Bianchi identity.
    """
    t = np.asarray(tensor, dtype=float)
    return {
        "first_pair_antisymmetry": float(np.abs(t + np.einsum("yxzw->xyzw", t)).max()),
        "second_pair_antisymmetry": float(np.abs(t + np.einsum("xywz->xyzw", t)).max()),
        "pair_symmetry": float(np.abs(t - np.einsum("zwxy->xyzw", t)).max()),
        "first_bianchi": float(
            np.abs(t + np.einsum("yzxw->xyzw", t) + np.einsum("zxyw->xyzw", t)).max()
        ),
    }


def star_ricci_from_curvature(
    tensor: np.ndarray, j: np.ndarray, metric: np.ndarray
) -> np.ndarray:
    """Star-Ricci form from its trace definition.

    Computes ``rho*(X, Y) = tr(Z -> R(X, J Z) J Y)`` directly from the
    covariant curvature tensor; serves as the independent cross-check of
    any closed-form star-Ricci expression.
    """
    require_spd(metric)
    ginv = np.linalg.inv(metric)
    return np.einsum("kl,mk,ny,xmnl->xy", ginv, j, j, tensor)


def integrability_residual(nabla_j: np.ndarray, j_bar: np.ndarray) -> float:
    """Max violation of the integrability identity.

    An almost complex structure on a Riemannian manifold is integrable
    exactly when ``g((nabla_X J) Y, Z) = g((nabla_{JX} J) JY, Z)`` for
    all arguments; this returns the largest deviation over all basis
    triples.
    """
    twisted = np.einsum("ux,vy,uvz->xyz", j_bar, j_bar, nabla_j)
    return float(np.abs(nabla_j - twisted).max())


def sectional_curvature(
    tensor: np.ndarray, metric: np.ndarray, x: np.ndarray, y: np.ndarray
) -> float:
    """Sectional curvature of the plane spanned by two vectors."""
    num = float(np.einsum("xyzw,x,y,z,w->", tensor, x, y, y, x))
    den = float((x @ metric @ x) * (y @ metric @ y) - (x @ metric @ y) ** 2)
    if abs(den) < 1e-14:
        raise ValueError("vectors do not span a plane")
    return num / den
