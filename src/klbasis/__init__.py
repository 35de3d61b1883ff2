"""Covariance-optimal truncated basis sets from sampled hydrogen-like
radial wavefunctions, and a spectral collocation solver that uses them on
the radial boundary-value problem."""

from .errors import *
from .hydrogenic import *
from .sampling import *
from .klcore import *
from .basisfn import *
from .spectral import *

__version__ = "0.1.0"
