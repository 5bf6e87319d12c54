"""Photon-pair generation in 1D nonlinear layered media.

Simulates spontaneous parametric down-conversion (SPDC) in stacks of
lossless dielectric layers at normal incidence, to first order in the
quadratic nonlinearity.  The emitted two-photon state is obtained from a
transfer-matrix formalism that enforces both electric- and magnetic-field
continuity at every boundary; the pair amplitude separates into a
contribution generated in the bulk of the layers ("volume") and a
boundary-local contribution ("surface", a nonlinear correction to the
Fresnel relations), which interfere in all observables.
"""

from .constants import CONSTANTS, PhysicalConstants
from .errors import (
    ConfigError,
    GridTooCoarse,
    NoPeak,
    NumericalBreakdown,
    OutOfWindow,
    SingularMatrix,
    StepTooCoarse,
)
from .materials import MaterialModel, chi2_effective, refractive_index, wavenumber
from .structure import StructureSpec
from .linear import PumpField, PumpSpec, linear_transmission
from .spectral import SpectralBasis

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "PhysicalConstants",
    "ConfigError",
    "GridTooCoarse",
    "NoPeak",
    "NumericalBreakdown",
    "OutOfWindow",
    "SingularMatrix",
    "StepTooCoarse",
    "MaterialModel",
    "chi2_effective",
    "refractive_index",
    "wavenumber",
    "StructureSpec",
    "PumpField",
    "PumpSpec",
    "linear_transmission",
    "SpectralBasis",
    "__version__",
]
