"""Covariance-optimal truncated basis sets from sampled hydrogen-like
radial wavefunctions, and a spectral collocation solver that uses them on
the regularized radial boundary-value problem."""

from .errors import ConfigError, NumericalError
from .hydrogenic import (
    BoundaryValueProblem,
    NumerovSolution,
    OrbitalSpec,
    RadialFamily,
    family_values,
    laguerre,
    make_family,
    numerov_oracle,
    radial_norm,
    radial_wavefunction,
    reduced_ground_state,
)
from .sampling import (
    Grid,
    GridKind,
    Representation,
    SampleMatrix,
    build_sample_matrix,
    make_grid,
)
from .klcore import (
    CenteredMatrix,
    CovarianceMatrix,
    EnergyFraction,
    FixedM,
    KLBasis,
    TruncatedBasis,
    center_columns,
    covariance,
    eig_sym,
    kl_transform,
    projection_mse,
    reconstruction_mse,
    truncate_basis,
)
from .basisfn import BasisFunction, interpolate
from .spectral import (
    CollocationProblem,
    EnergyScan,
    SpectralSolution,
    assemble,
    energy_scan,
    make_collocation_problem,
    relative_residual_norm,
    residual,
    solve,
)

__version__ = "0.1.0"
