"""Spectral basis, pair-generation kernels, and their basis projections.

The signal and idler fields are discretized on orthonormal top-hat
frequency bins f_k (height 1/sqrt(dw_k) on bin k), which makes every
single-frequency overlap matrix diagonal and turns basis projection into
midpoint sampling times sqrt(dw_k dw_n).

Inside a nonlinear layer the first-order solution for a signal mode
(direction a, polarization alpha) acquires a pair term

    a_s(z) = abar_s(z) + sum_{b,beta} chi_ab(z, w_s, w_i) abar_i^dag(z, w_i)

whose kernel chi vanishes at the layer entry of the mode (left edge for
forward, right edge for backward) and accumulates along propagation:

    chi_ab(z_exit) = -i e^(phase) sum_g T_g^* (e^{i dk L} - 1)/dk ,
    dk = k_p,g - k_s,a - k_i,b ,

with T_g the pump-weighted coupling of the layer.  The magnetic (d/dz)
content of the pair terms per side sums to i k_s,a chi exactly; the bare
source coefficient Q(z) = sum_g T_g^* exp(i k_p,g (z - z_l)), which is
the local pump field times tau_s tau_i chi2, can be distributed between the
volume and surface channels in more than one exact way, which is what
the surface-attribution conventions of _edge_kernels select.  Q is
continuous across a boundary up to the jump of the material factors, so
driving the surface channel with its jump ('local-jump') makes a
fictitious boundary inside homogeneous material source nothing, while
the literal per-mode assignment ('per-slot') reproduces the published
volume/surface bookkeeping.  Only the summed output is observable.

The layers are isotropic, so T_g depends on the polarizations only
through the scalar chi2 coefficient: every kernel is one
polarization-free grid times the layer's 2x2 matrix d[signal pol, idler
pol] (its transpose for idler rows).  The kernels of one edge are arrays
of shape (2, 2, 2, 2, K, K) over

    (row field, row pol, col dir, col pol, row bin, col bin)

in ``FIELDS``/``POLS``/``DIRS`` order: ``matrixcore``'s pair layout
without the row direction, which the edge fixes (forward rows at the
right edge, backward rows at the left edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockmatrix import FIELDS
from .constants import CONSTANTS
from .errors import ConfigError
from .linear import PumpField
from .materials import MaterialModel, chi2_effective, refractive_index
from .structure import StructureSpec

DIRS = ("F", "B")
POLS = ("x", "y")
DIR_SIGN = {"F": 1.0, "B": -1.0}

_BRACKET_SWITCH = 1e-6  # |dk * zeta| below which the series expansion is used


@dataclass(frozen=True)
class SpectralBasis:
    """Uniform top-hat frequency bins on [omega_min, omega_max]."""

    omega_min: float
    omega_max: float
    bins: int

    def __post_init__(self):
        if not (0.0 < self.omega_min < self.omega_max):
            raise ConfigError("need 0 < omega_min < omega_max")
        if self.bins < 1:
            raise ConfigError("need at least one bin")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.bins + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def widths(self) -> np.ndarray:
        e = self.edges
        return np.diff(e)


def photon_amplitude_tau(material: MaterialModel, omega, area: float):
    """Electric-field amplitude per photon: sqrt(hbar w / (4 pi eps0 c n A))."""
    if area <= 0.0:
        raise ConfigError("quantization area must be positive")
    n = refractive_index(material, omega)
    return np.sqrt(
        CONSTANTS.hbar
        * np.asarray(omega)
        / (4.0 * np.pi * CONSTANTS.eps0 * CONSTANTS.c * n * area)
    )


def _bracket(delta_k, zeta):
    """(exp(i dk zeta) - 1)/dk with a series for small |dk zeta|.

    zeta may be scalar, delta_k an array.  Relative error of the series
    at the switch point is below 1e-12.
    """
    delta_k = np.asarray(delta_k, dtype=complex)
    x = delta_k * zeta
    small = np.abs(x) < _BRACKET_SWITCH
    safe = np.where(small, 1.0, delta_k)
    exact = (np.exp(1j * x) - 1.0) / safe
    series = zeta * (1j - x / 2.0 - 1j * x**2 / 6.0 + x**3 / 24.0)
    return np.where(small, series, exact)


def _masked_wavenumber(material, omega, direction, mask):
    """Signed wave number where mask, zero elsewhere (no window check)."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = material.window
    hi_eff = min(hi, 1e18)
    clipped = np.clip(omega, lo * (1 + 1e-12) if lo > 0 else 1e6, hi_eff * (1 - 1e-12))
    n = refractive_index(material, clipped)
    k = DIR_SIGN[direction] * clipped / CONSTANTS.c * n
    return np.where(mask, k, 0.0)


@dataclass
class LayerCoupling:
    """Cached pair-coupling data of one finite layer on the bin grids.

    Grids are indexed (signal bin k, idler bin n).  tstar_unit(g) is
    conj(T_g) per unit chi2 for pump direction g, chi2_matrix() the
    layer's d[signal pol, idler pol]; conj(T_g) of one polarization pair
    is their product.  Pump wavenumbers are zero where the pump is dark
    (the coupling vanishes there too).  The photon amplitudes tau are
    taken at a 1 m^2 cross-section: T_g holds A tau_s tau_i, in which
    the area cancels.
    """

    structure: StructureSpec
    l: int
    basis_s: SpectralBasis
    basis_i: SpectralBasis
    pump: PumpField
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def material(self):
        return self.structure.material(self.l)

    @property
    def length(self):
        return self.structure.length(self.l)

    def sum_grid(self):
        key = "sum"
        if key not in self._cache:
            self._cache[key] = (
                self.basis_s.centers[:, None] + self.basis_i.centers[None, :]
            )
        return self._cache[key]

    def pump_k(self, g):
        key = ("kp", g)
        if key not in self._cache:
            total = self.sum_grid()
            flat = total.ravel()
            idx = np.searchsorted(self.pump.omega, flat)
            idx = np.clip(idx, 0, self.pump.omega.size - 1)
            left = np.clip(idx - 1, 0, self.pump.omega.size - 1)
            idx = np.where(
                np.abs(self.pump.omega[left] - flat)
                < np.abs(self.pump.omega[idx] - flat),
                left,
                idx,
            )
            if np.any(np.abs(self.pump.omega[idx] - flat) > 1e-6 * flat):
                raise ConfigError("pump grid does not contain the bin sums")
            self._cache[("pidx",)] = idx
            mask = self.pump.mask[idx].reshape(total.shape)
            self._cache[key] = _masked_wavenumber(self.material, total, g, mask)
        return self._cache[key]

    def pump_amp(self, g):
        key = ("ap", g)
        if key not in self._cache:
            self.pump_k(g)  # ensures index cache
            idx = self._cache[("pidx",)]
            amp = self.pump.amps[self.l, {"F": 0, "B": 1}[g], idx]
            self._cache[key] = amp.reshape(self.sum_grid().shape)
        return self._cache[key]

    def tau(self, which):
        key = ("tau", which)
        if key not in self._cache:
            basis = self.basis_s if which == "s" else self.basis_i
            self._cache[key] = photon_amplitude_tau(
                self.material, basis.centers, 1.0
            )
        return self._cache[key]

    def k_signed(self, which, a):
        key = ("k", which, a)
        if key not in self._cache:
            basis = self.basis_s if which == "s" else self.basis_i
            n = refractive_index(self.material, basis.centers)
            self._cache[key] = DIR_SIGN[a] * basis.centers / CONSTANTS.c * n
        return self._cache[key]

    def chi2_matrix(self):
        """d[signal pol, idler pol] for the pump polarization, m/V."""
        key = "d"
        if key not in self._cache:
            gamma = self.pump.polarization
            self._cache[key] = np.array([
                [chi2_effective(self.material, gamma, a, b) for b in POLS]
                for a in POLS
            ])
        return self._cache[key]

    def tstar_unit(self, g):
        """conj(T_g) per unit chi2 on the (signal bin, idler bin) grid."""
        key = ("tstar_unit", g)
        if key not in self._cache:
            base = (
                4.0 * np.pi * CONSTANTS.eps0 / CONSTANTS.hbar
                * self.tau("s")[:, None]
                * self.tau("i")[None, :]
                * self.structure.poling(self.l)
            )
            self._cache[key] = -1j * base * self.pump_amp(g)
        return self._cache[key]

    def tstar(self, g, alpha, beta):
        """conj(T_g) on the (signal bin, idler bin) grid for pols (alpha, beta)."""
        key = ("tstar", g, alpha, beta)
        if key not in self._cache:
            d = self.chi2_matrix()[POLS.index(alpha), POLS.index(beta)]
            self._cache[key] = d * self.tstar_unit(g)
        return self._cache[key]

    def is_dark(self):
        return not np.any(self.chi2_matrix())

    def delta_k(self, a, b, g, row_field="s"):
        """dk = k_p,g - k_s,a - k_i,b on the (row, col) bin grid.

        For row_field 's' rows are signal bins and cols idler bins; for
        'i' the roles (and the grid orientation) are swapped.
        """
        ks = self.k_signed("s", a if row_field == "s" else b)
        ki = self.k_signed("i", b if row_field == "s" else a)
        kp = self.pump_k(g)
        if row_field == "s":
            return kp - ks[:, None] - ki[None, :]
        return kp.T - ki[:, None] - ks[None, :]


SPLIT_CONVENTIONS = ("local-jump", "per-slot")


def _edge_kernels(coupling: LayerCoupling, edge: str, row_field: str,
                  convention: str = "local-jump"):
    """Arriving kernel chi and the volume/surface magnetic attributions.

    Returns (chi, hv, hs) for one row field, each of shape
    (2, 2, 2, K_row, K_col) over (row pol, col dir, col pol, row bin,
    col bin); chi is the electric content of the mode arriving at the
    edge, hv/hs the magnetic content assigned to the volume/surface
    equations.  Q and chi are computed once per column direction on the
    polarization-free grid and multiplied by d (d.T for idler rows).  Per
    side hv + hs always equals the exact total i k chi; the conventions
    distribute the bare source coefficient Q differently:

    * 'local-jump': surface rows carry +Q on both sides, so the surface
      drive is the cross-boundary jump of Q (zero at a fictitious
      boundary, proportional to the material discontinuity at a real
      one).
    * 'per-slot': the literal magnetic content of each mode slot
      (volume rows i k chi + [+-1]_a Q of the arriving slot, surface
      rows the departing slot's [+-1]_a Q).  Not fictitious-boundary
      null; kept for comparison only.
    """
    if convention not in SPLIT_CONVENTIONS:
        raise ConfigError(f"unknown split convention {convention!r}")
    l_len = coupling.length
    a = "F" if edge == "right" else "B"
    col_field = "i" if row_field == "s" else "s"
    k_row = coupling.k_signed(row_field, a)
    d = coupling.chi2_matrix()
    tst = {g: coupling.tstar_unit(g) for g in DIRS}
    kp = {g: coupling.pump_k(g) for g in DIRS}
    if row_field == "i":  # idler rows: (idler, signal) grids and pols
        d = d.T
        tst = {g: t.T for g, t in tst.items()}
        kp = {g: k.T for g, k in kp.items()}
    # bare source coefficient Q at the edge (same for both cols)
    shift = l_len if edge == "right" else 0.0
    q = sum(tst[g] * np.exp(1j * kp[g] * shift) for g in DIRS)
    chi = []
    for b in DIRS:
        c = -1j * sum(tst[g] * _bracket(coupling.delta_k(a, b, g, row_field),
                                        l_len) for g in DIRS)
        if edge == "right":
            k_col = coupling.k_signed(col_field, b)
            c = c * np.exp(1j * (k_row[:, None] + k_col[None, :]) * l_len)
        chi.append(c)
    chi = np.array(chi)
    if convention == "local-jump":
        sigma = -1.0
    else:  # per-slot: [+-1]_a of the arriving direction
        sigma = 1.0 if edge == "right" else -1.0
    hv = 1j * k_row[:, None] * chi + sigma * q
    hs = np.broadcast_to(-sigma * q, chi.shape)
    return tuple(d[:, None, :, None, None] * kern[None, :, None]
                 for kern in (chi, hv, hs))


def project_to_basis(coupling: LayerCoupling, edge: str,
                     convention: str = "local-jump"):
    """Project the layer kernels at one edge onto the bin bases.

    Returns (volume_e, volume_h, surface_h) in the kernel layout of the
    module docstring.  volume_e projects the arriving kernel chi;
    volume_h/surface_h carry the magnetic boundary-source attribution,
    and their sum is the total magnetic content of the mode slot.  Every
    block is multiplied by sqrt(dw_row dw_col) (midpoint-rule projection
    onto the top-hat bases).  Idler-row blocks are NOT yet conjugated
    (assembly into the creation-operator sector conjugates them).
    """
    if edge not in ("left", "right"):
        raise ConfigError("edge must be 'left' or 'right'")
    per_field = []
    for row_field in FIELDS:
        basis_row = coupling.basis_s if row_field == "s" else coupling.basis_i
        basis_col = coupling.basis_i if row_field == "s" else coupling.basis_s
        weight = np.sqrt(basis_row.widths[:, None] * basis_col.widths[None, :])
        per_field.append([kern * weight for kern in
                          _edge_kernels(coupling, edge, row_field, convention)])
    return tuple(np.array(kerns) for kerns in zip(*per_field))
