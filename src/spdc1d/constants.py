"""Physical constants (CODATA 2018, SI units)."""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    c: float = 299792458.0          # speed of light, m/s (exact)
    hbar: float = 1.054571817e-34   # reduced Planck constant, J s
    eps0: float = 8.8541878128e-12  # vacuum permittivity, F/m
    mu0: float = 1.25663706212e-6   # vacuum permeability, H/m


CONSTANTS = PhysicalConstants()
