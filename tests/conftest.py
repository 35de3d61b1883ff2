import numpy as np
import pytest

from klbasis import basisfn, klcore, sampling
from klbasis.hydrogenic import BoundaryValueProblem, make_family


@pytest.fixture(scope="session")
def family28():
    return make_family(7)


@pytest.fixture(scope="session")
def reproduction_pipeline(family28):
    """The 28-orbital reproduction setup: N_s=20 uniform samples of the
    reduced wavefunctions on [0, 40], centered, with the full eigenbasis."""
    grid = sampling.make_grid(sampling.GridKind.UNIFORM, 20, 0.0, 40.0)
    sample = sampling.build_sample_matrix(family28, grid, sampling.Representation.RR)
    centered = klcore.center_columns(sample)
    cov = klcore.covariance(centered)
    basis = klcore.eig_sym(cov, grid=grid)
    return {
        "grid": grid,
        "sample": sample,
        "centered": centered,
        "cov": cov,
        "basis": basis,
    }


@pytest.fixture(scope="session")
def reproduction_bvp():
    return BoundaryValueProblem(
        l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4, epsilon=1e-10
    )


@pytest.fixture(scope="session")
def reproduction_funcs8(reproduction_pipeline):
    truncated = klcore.truncate_basis(reproduction_pipeline["basis"], klcore.FixedM(8))
    return basisfn.interpolate(truncated)


def scaled_rel_l2(y: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 after an optimal scalar fit of y to ref."""
    alpha = float(y @ ref) / float(y @ y)
    return float(np.linalg.norm(alpha * y - ref) / np.linalg.norm(ref))


def count_kernel_calls(monkeypatch) -> list:
    """Record the size of every barycentric kernel call from here on."""
    calls = []
    kernel = basisfn.BasisFunction._interpolate

    def counted(self, values, x):
        calls.append(np.size(x))
        return kernel(self, values, x)

    monkeypatch.setattr(basisfn.BasisFunction, "_interpolate", counted)
    return calls
