import numpy as np
import pytest
from hypothesis import settings

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
