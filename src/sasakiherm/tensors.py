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
TOLERANCES = {"algebraic": 1e-12, "trace": 1e-11, "second": 1e-4, "first": 1e-5, "yes_no": 0.5}


def freeze_fields(record, names) -> None:
    """Store each named field of a frozen dataclass as a contiguous, read-only float array."""
    for name in names:
        arr = np.ascontiguousarray(np.asarray(getattr(record, name), dtype=float))
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


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
    The spectrum is judged by :func:`spectrum_error`.
    """
    m = np.asarray(metric, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SingularMetricError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise SingularMetricError(f"{name} has non-finite entries")
    # the entries are finite here, so no NaN can slip past this comparison
    if np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
        raise SingularMetricError(f"{name} is not symmetric")
    # eigvalsh sorts the spectrum ascending
    eigvals = np.linalg.eigvalsh(symmetrize(m))
    error = spectrum_error(name, float(eigvals[0]), float(eigvals[-1]))
    if error is not None:
        raise error


def spectrum_error(name: str, lo: float, hi: float) -> MetricError | None:
    """The error for a symmetric ``name`` whose extreme eigenvalues are ``lo <= hi``.

    ``None`` when the ratio rule above certifies it positive definite; a
    NaN ``lo`` or an infinite ``hi`` never passes.
    """
    scale = max(1.0, -lo, hi)
    if lo > SINGULAR_RATIO * scale:
        return None
    spectrum = (f"eigenvalues {lo:g} to {hi:g}; "
                f"min over max(1, max |eigenvalue|) = {lo / scale:.3g}")
    if lo < -INDEFINITE_RATIO * scale:
        return IndefiniteMetricError(
            f"{name} is indefinite ({spectrum}, below {-INDEFINITE_RATIO:g})"
        )
    return SingularMetricError(f"{name} is singular ({spectrum}, at most {SINGULAR_RATIO:g})")


def contract_trace(tensor: np.ndarray, metric_inverse: np.ndarray) -> np.ndarray:
    """Metric trace of a rank-4 tensor over its middle slots, or of a form.

    Takes the inverse metric, which whoever owns the metric certifies
    and inverts once.  Equivalent to feeding both traced slots the
    vectors of any orthonormal frame of the metric and summing.  A
    curvature tensor ``T[x, y, z, w]`` traces over ``y, z`` to its Ricci
    form ``[x, w]``; a bilinear form traces to the scalar
    ``<metric_inverse, form>``.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim not in (2, 4):
        raise ValueError(f"expected a rank-2 or rank-4 tensor, got ndim={t.ndim}")
    return np.einsum("ij,aijb->ab" if t.ndim == 4 else "ij,ij->", metric_inverse, t)


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
    with ``xi^`` the normalized Reeb vector.  With ``metric = L L^T``, the
    coordinates ``y = L^T x`` are orthonormal, and there ``phi`` is the
    skew matrix ``L^T phi L^-T`` with kernel ``L^T xi``.  The eigenvectors of the
    Hermitian matrix ``i phi`` of eigenvalue ``+1`` are exactly
    ``(v + i phi v) / sqrt(2)`` over a phi-adapted orthonormal basis, so
    one ``eigh`` gives every pair as ``sqrt(2)`` times the real and the
    imaginary part of its eigenvector.
    """
    g = np.asarray(metric, dtype=float)
    dim = g.shape[0]
    if dim % 2 == 0:
        raise ValueError(f"adapted frames need odd dimension, got {dim}")
    lower = np.linalg.cholesky(g)
    phi_on = lower.T @ np.linalg.solve(lower, phi.T).T
    # eigh sorts the spectrum ascending: n times -1, then 0, then n times +1
    pairs = np.sqrt(2.0) * np.linalg.eigh(1j * phi_on)[1][:, dim // 2 + 1:]
    frame = np.empty((dim, dim))
    frame[:, 0:-1:2] = pairs.real
    frame[:, 1:-1:2] = pairs.imag
    frame[:, :-1] = np.linalg.solve(lower.T, frame[:, :-1])
    frame[:, -1] = xi / np.sqrt(xi @ g @ xi)
    return frame


def curvature_symmetry_residuals(tensor: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the four algebraic curvature symmetries.

    Checks antisymmetry in the first and second index pairs, symmetry
    under exchange of the pairs, and the first Bianchi identity.  Each
    permuted tensor is a view and each residual is written into one
    scratch tensor, so the peak is one rank-4 tensor beyond the input;
    the Bianchi sum is ``(t + t_yzx) + t_zxy``.
    """
    t = np.asarray(tensor, dtype=float)
    scratch = np.empty_like(t)

    def max_abs(residual: np.ndarray) -> float:
        return float(np.abs(residual, out=scratch).max())

    return {
        "first_pair_antisymmetry": max_abs(np.add(t, np.einsum("yxzw->xyzw", t), out=scratch)),
        "second_pair_antisymmetry": max_abs(np.add(t, np.einsum("xywz->xyzw", t), out=scratch)),
        "pair_symmetry": max_abs(np.subtract(t, np.einsum("zwxy->xyzw", t), out=scratch)),
        "first_bianchi": max_abs(np.add(
            np.add(t, np.einsum("yzxw->xyzw", t), out=scratch), np.einsum("zxyw->xyzw", t),
            out=scratch,
        )),
    }


def star_ricci_from_curvature(
    tensor: np.ndarray, j: np.ndarray, metric_inverse: np.ndarray
) -> np.ndarray:
    """Star-Ricci form from its trace definition.

    Computes ``rho*(X, Y) = tr(Z -> R(X, J Z) J Y)`` directly from the
    covariant curvature tensor, traced with the inverse metric as in
    :func:`contract_trace`; serves as the independent cross-check of any
    closed-form star-Ricci expression.
    """
    return np.einsum("kl,mk,ny,xmnl->xy", metric_inverse, j, j, tensor)


def integrability_residual(nabla_j: np.ndarray, j_bar: np.ndarray) -> float:
    """Max violation of the integrability identity.

    An almost complex structure on a Riemannian manifold is integrable
    exactly when ``g((nabla_X J) Y, Z) = g((nabla_{JX} J) JY, Z)`` for
    all arguments; this returns the largest deviation over all basis
    triples.  The twisted tensor ``sum_uv J[u, x] J[v, y] nabla_j[u, v, z]``
    is contracted one index at a time, as in :func:`change_frame`, by two
    matrix products: ``u`` first, then ``v`` for each ``x``.  So the cost
    is ``O(n^4)`` and nothing larger than a rank-3 tensor is built.
    """
    j_t = j_bar.T
    half = (j_t @ nabla_j.reshape(len(j_t), -1)).reshape(nabla_j.shape)  # [x, v, z]
    return float(np.abs(nabla_j - j_t @ half).max())

