"""Material dispersion and effective quadratic susceptibility.

A material is lossless and isotropic in the plane: one refractive index
n(omega) >= 1 serves every field and polarization.  The quadratic response
is stored pre-contracted per polarization triple (pump; signal, idler),
each entry an effective scalar coefficient in m/V.  Dispersion is either a
constant index or a Sellmeier form

    n^2(lambda) = A + sum_j B_j lambda^2 / (lambda^2 - C_j),

with lambda the vacuum wavelength in micrometres and C_j in um^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, OutOfWindow

_TWO_PI_C_UM = 2.0 * np.pi * CONSTANTS.c * 1e6  # omega * lambda_um product

POLS = ("x", "y")


def _pol_triple(key) -> tuple[str, str, str]:
    gamma, alpha, beta = key
    for p in (gamma, alpha, beta):
        if p not in POLS:
            raise ConfigError(f"polarization label {p!r} not in {POLS}")
    return (gamma, alpha, beta)


@dataclass(frozen=True)
class MaterialModel:
    """Dispersion plus contracted chi^(2) map for one material.

    chi2 maps (pump_pol; signal_pol, idler_pol) -> effective coefficient
    in m/V.  Missing entries read as zero.  window is the validity range
    of the dispersion model in angular frequency (rad/s).
    """

    name: str
    sellmeier_a: float = 1.0
    sellmeier_terms: tuple[tuple[float, float], ...] = ()
    constant_n: float | None = None
    chi2: dict = field(default_factory=dict)
    window: tuple[float, float] = (0.0, np.inf)

    def __post_init__(self):
        object.__setattr__(
            self, "chi2", {_pol_triple(k): float(v) for k, v in self.chi2.items()}
        )
        lo, hi = self.window
        if not (0.0 <= lo < hi):
            raise ConfigError(f"{self.name}: empty validity window {self.window}")
        if self.constant_n is not None:
            if self.constant_n < 1.0:
                raise ConfigError(f"{self.name}: constant index {self.constant_n} < 1")
            return
        # Reject Sellmeier poles inside the window and n < 1 anywhere in it.
        finite_hi = hi if np.isfinite(hi) else lo * 1e3 if lo > 0 else 1e17
        probe = np.linspace(max(lo, 1e-3 * finite_hi), finite_hi, 256)
        lam2 = (_TWO_PI_C_UM / probe) ** 2
        for b_j, c_j in self.sellmeier_terms:
            if b_j != 0.0 and lam2.min() <= c_j <= lam2.max():
                raise ConfigError(
                    f"{self.name}: Sellmeier pole at {np.sqrt(c_j):.4f} um "
                    "inside the validity window"
                )
        n2 = self._n_squared(probe)
        if np.any(~np.isfinite(n2)) or np.any(n2 < 1.0):
            raise ConfigError(f"{self.name}: n(omega) < 1 or undefined inside window")

    def _n_squared(self, omega):
        lam2 = (_TWO_PI_C_UM / np.asarray(omega, dtype=float)) ** 2
        n2 = np.full_like(lam2, self.sellmeier_a)
        for b_j, c_j in self.sellmeier_terms:
            n2 = n2 + b_j * lam2 / (lam2 - c_j)
        return n2

    def check_window(self, omega):
        omega = np.asarray(omega, dtype=float)
        lo, hi = self.window
        if np.any(omega <= 0.0):
            raise OutOfWindow(f"{self.name}: nonpositive frequency")
        if np.any(omega < lo) or np.any(omega > hi):
            bad = omega[(omega < lo) | (omega > hi)]
            raise OutOfWindow(
                f"materials.{self.name}.dispersion.window_um: frequency "
                f"{bad.flat[0]:.4e} rad/s outside validity window "
                f"[{lo:.4e}, {hi:.4e}]"
            )

    def is_linear(self) -> bool:
        return all(v == 0.0 for v in self.chi2.values())


def refractive_index(material: MaterialModel, omega):
    """n(omega) for scalar or array omega (rad/s); raises OutOfWindow."""
    material.check_window(omega)
    if material.constant_n is not None:
        return (
            material.constant_n
            if np.isscalar(omega)
            else np.full(np.shape(omega), material.constant_n)
        )
    n = np.sqrt(material._n_squared(omega))
    return float(n) if np.isscalar(omega) else n


def wavenumber(material: MaterialModel, omega, direction: str):
    """Signed wave number +-(omega/c) n(omega); + for 'F', - for 'B'."""
    sign = {"F": 1.0, "B": -1.0}[direction]
    return sign * np.asarray(omega) / CONSTANTS.c * refractive_index(material, omega)


def chi2_effective(material: MaterialModel, gamma: str, alpha: str, beta: str) -> float:
    """Contracted chi^(2) coefficient for (pump; signal, idler) pols, m/V."""
    return material.chi2.get(_pol_triple((gamma, alpha, beta)), 0.0)


def wavelength_window(window_um):
    """Validity window in rad/s of (lambda_min, lambda_max) in um; None is
    unbounded."""
    if window_um is None:
        return (0.0, np.inf)
    lo_um, hi_um = window_um
    return (_TWO_PI_C_UM / hi_um, _TWO_PI_C_UM / lo_um)


def constant_material(name: str, n: float, chi2=None, window=(0.0, np.inf)):
    return MaterialModel(
        name=name, constant_n=n, chi2=dict(chi2 or {}), window=window
    )


def sellmeier_material(name, a, terms, chi2=None, window_um=None):
    """Build a Sellmeier material; window_um = (lambda_min, lambda_max) in um."""
    return MaterialModel(
        name=name,
        sellmeier_a=float(a),
        sellmeier_terms=tuple((float(b), float(c)) for b, c in terms),
        chi2=dict(chi2 or {}),
        window=wavelength_window(window_um),
    )
