import numpy as np
import pytest
from hypothesis import settings

from sasakiherm.cli import _grid
from sasakiherm.sasakian import d_homothetic_deform, make_round_sphere_model, make_space_form_model
from sasakiherm.tensors import contract_trace

# derandomized draws and no example database: a property test passes or
# fails the same way on every run
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd(rng, n, scale=1.0):
    """Well-conditioned random symmetric positive definite matrix."""
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def sectional_curvature(tensor, metric, x, y):
    """Sectional curvature of the plane spanned by two vectors."""
    num = float(np.einsum("xyzw,x,y,z,w->", tensor, x, y, y, x))
    den = float((x @ metric @ x) * (y @ metric @ y) - (x @ metric @ y) ** 2)
    if abs(den) < 1e-14:
        raise ValueError("vectors do not span a plane")
    return num / den


def parse_grid(spec):
    """Every value of a CLI grid spec, ``start:stop:step`` or one value."""
    count, value = _grid(spec)
    return [value(k) for k in range(count)]


def random_curvature_like(rng, n):
    """Random tensor with all four algebraic curvature symmetries."""
    t = rng.normal(size=(n, n, n, n))
    t = t - np.einsum("yxzw->xyzw", t)
    t = t - np.einsum("xywz->xyzw", t)
    t = t + np.einsum("zwxy->xyzw", t)
    # the cyclic sum of a pair-symmetric tensor is cyclic-invariant, so
    # subtracting a third of it lands exactly on the Bianchi kernel
    b = t + np.einsum("yzxw->xyzw", t) + np.einsum("zxyw->xyzw", t)
    return t - b / 3.0


def bianchi_residual(t):
    return float(
        np.abs(t + np.einsum("yzxw->xyzw", t) + np.einsum("zxyw->xyzw", t)).max()
    )


def integrability_by_definition(nabla_j, j_bar):
    """The integrability residual as one unordered einsum, its defining formula."""
    twisted = np.einsum("ux,vy,uvz->xyz", j_bar, j_bar, nabla_j)
    return float(np.abs(nabla_j - twisted).max())


def off_space_form_model(q):
    """A Sasakian point model that is not a space form.

    A generic Sasakian curvature at a point is the unit sphere's plus a
    Kaehler-type tensor on the contact distribution; sums of
    omega (x) omega with omega = v ^ phi v (v orthogonal to xi) span those
    tensors, and satisfy the first Bianchi identity because each omega is
    decomposable.
    """
    sphere = make_round_sphere_model(q)
    rng = np.random.default_rng(q)
    riemann = sphere.riemann.copy()
    for _ in range(4):
        v = rng.normal(size=sphere.dim)
        v[-1] = 0.0
        omega = np.outer(v, sphere.phi @ v) - np.outer(sphere.phi @ v, v)
        riemann += rng.normal() * np.einsum("xy,zw->xyzw", omega, omega)
    return type(sphere)(n=q, riemann=riemann, ricci=contract_trace(riemann, sphere.metric))


# factor pairs for grid tests: a space form, a deformed sphere, and two
# factors off the space forms, where no cell is Einstein
GRID_FACTORS = {
    "space-form": lambda: (make_round_sphere_model(2), make_space_form_model(1, 5.0)),
    "deformed": lambda: (make_round_sphere_model(2),
                         d_homothetic_deform(make_round_sphere_model(1), 0.5)),
    "off-space-form": lambda: (off_space_form_model(2), off_space_form_model(3)),
}
