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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError
from .linear import PumpField
from .materials import MaterialModel, refractive_index
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

    def eval_basis(self, k: int, omega):
        """f_k(omega): indicator of bin k normalized to unit L2 norm."""
        e = self.edges
        omega = np.asarray(omega, dtype=float)
        inside = (omega >= e[k]) & (omega < e[k + 1])
        return np.where(inside, 1.0 / np.sqrt(self.widths[k]), 0.0)


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

    Arrays are indexed (signal bin k, idler bin n).  tstar[g] holds
    conj(T_g) per pump direction for the layer's own chi2 contraction of
    each polarization pair; pump wavenumbers are zero where the pump is
    dark (the coupling vanishes there too).
    """

    structure: StructureSpec
    l: int
    basis_s: SpectralBasis
    basis_i: SpectralBasis
    pump: PumpField
    area: float = 1.0
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
                self.material, basis.centers, self.area
            )
        return self._cache[key]

    def k_signed(self, which, a):
        key = ("k", which, a)
        if key not in self._cache:
            basis = self.basis_s if which == "s" else self.basis_i
            n = refractive_index(self.material, basis.centers)
            self._cache[key] = DIR_SIGN[a] * basis.centers / CONSTANTS.c * n
        return self._cache[key]

    def tstar(self, g, alpha, beta):
        """conj(T_g) on the (signal bin, idler bin) grid for pols (alpha, beta)."""
        key = ("tstar", g, alpha, beta)
        if key not in self._cache:
            gamma = self.pump.polarization
            d = self.material.chi2.get((gamma, alpha, beta), 0.0)
            if d == 0.0:
                self._cache[key] = np.zeros_like(self.sum_grid(), dtype=complex)
            else:
                base = (
                    4.0 * np.pi * CONSTANTS.eps0 * self.area / CONSTANTS.hbar
                    * self.tau("s")[:, None]
                    * self.tau("i")[None, :]
                    * d
                    * self.structure.poling(self.l)
                )
                self._cache[key] = -1j * base * self.pump_amp(g)
        return self._cache[key]

    def is_dark(self):
        gamma = self.pump.polarization
        return all(
            self.material.chi2.get((gamma, a, b), 0.0) == 0.0
            for a in POLS
            for b in POLS
        )

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


def phase_functions(coupling: LayerCoupling, a, b, alpha, beta, z,
                    row_field="s"):
    """Pair phase function Phi and its exact z-derivative at position z.

    Phi is the accumulated first-order kernel of the layer referenced to
    the mode entry z_a (left edge for forward, right edge for backward),
    with the idler operator referenced at the layer's left boundary:

        Phi = i [+-1]_a sum_g T_g e^{-i phi_g} (e^{-i dk (z - z_a)} - 1)/dk

    phi_g = 0 for a = 'F' and (k_p,g - k_other,b) L for a = 'B'.
    Arrays are (signal bin, idler bin) for row_field 's'.
    """
    l_len = coupling.length
    z_ref = coupling.structure.z_reference(coupling.l)
    if not (z_ref - 1e-15 <= z <= z_ref + l_len + 1e-15):
        raise ConfigError("z outside the layer")
    z_a = z_ref if a == "F" else z_ref + l_len
    k_col = coupling.k_signed("i" if row_field == "s" else "s", b)
    phi = np.zeros(
        (
            coupling.basis_s.bins if row_field == "s" else coupling.basis_i.bins,
            coupling.basis_i.bins if row_field == "s" else coupling.basis_s.bins,
        ),
        dtype=complex,
    )
    dphi = np.zeros_like(phi)
    for g in DIRS:
        if row_field == "s":
            t_g = np.conj(coupling.tstar(g, alpha, beta))
        else:
            t_g = np.conj(coupling.tstar(g, beta, alpha)).T
        if not np.any(t_g):
            continue
        dk = coupling.delta_k(a, b, g, row_field)
        if a == "F":
            phase = 1.0
        else:
            # phi_g = (k_p,g - k_col,b) L for backward rows
            kp = coupling.pump_k(g) if row_field == "s" else coupling.pump_k(g).T
            phase = np.exp(-1j * (kp - k_col[None, :]) * l_len)
        phi += 1j * DIR_SIGN[a] * t_g * phase * (-_bracket(-dk, z - z_a))
        dphi += DIR_SIGN[a] * t_g * phase * np.exp(-1j * dk * (z - z_a))
    return phi, dphi


@dataclass(frozen=True)
class CouplingBlocks:
    """Basis-projected kernel blocks of one layer at one edge.

    volume_e projects the arriving kernel chi; volume_h/surface_h carry
    the magnetic boundary-source attribution used to assemble the pair
    sources (see module docstring), and their sum is the total magnetic
    content of the mode slot.  Keys (row_field, b, alpha, beta) with the
    row direction fixed by the edge (forward kernels survive at the right
    edge, backward at the left edge).
    """

    edge: str
    volume_e: dict
    volume_h: dict
    surface_h: dict


SPLIT_CONVENTIONS = ("local-jump", "per-slot")


def _edge_kernels(coupling: LayerCoupling, edge: str, row_field: str,
                  convention: str = "local-jump"):
    """Arriving kernel chi and the volume/surface magnetic attributions.

    Returns (chi, hv, hs) dicts keyed (col_dir, row_pol, col_pol); chi is
    the electric content of the mode arriving at the edge, hv/hs the
    magnetic content assigned to the volume/surface equations.  Per side
    hv + hs always equals the exact total i k chi; the conventions
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
    basis_row = coupling.basis_s if row_field == "s" else coupling.basis_i
    basis_col = coupling.basis_i if row_field == "s" else coupling.basis_s
    k_row = coupling.k_signed(row_field, a)
    k_col = {b: coupling.k_signed("i" if row_field == "s" else "s", b) for b in DIRS}
    out_e, out_hv, out_hs = {}, {}, {}
    for alpha in POLS:
        for beta in POLS:
            if row_field == "s":
                tst = {g: coupling.tstar(g, alpha, beta) for g in DIRS}
            else:
                tst = {g: coupling.tstar(g, beta, alpha).T for g in DIRS}
            if not any(np.any(v) for v in tst.values()):
                zero = np.zeros((basis_row.bins, basis_col.bins), dtype=complex)
                for b in DIRS:
                    out_e[(b, alpha, beta)] = zero
                    out_hv[(b, alpha, beta)] = zero
                    out_hs[(b, alpha, beta)] = zero
                continue
            # bare source coefficient Q at the edge (same for both cols)
            q = np.zeros((basis_row.bins, basis_col.bins), dtype=complex)
            for g in DIRS:
                kp = coupling.pump_k(g) if row_field == "s" else coupling.pump_k(g).T
                shift = l_len if edge == "right" else 0.0
                q += tst[g] * np.exp(1j * kp * shift)
            for b in DIRS:
                chi = np.zeros((basis_row.bins, basis_col.bins), dtype=complex)
                for g in DIRS:
                    dk = coupling.delta_k(a, b, g, row_field)
                    chi += tst[g] * _bracket(dk, l_len)
                chi *= -1j
                if edge == "right":
                    chi = chi * np.exp(
                        1j * (k_row[:, None] + k_col[b][None, :]) * l_len
                    )
                if convention == "local-jump":
                    sigma = -1.0
                else:  # per-slot: [+-1]_a of the arriving direction
                    sigma = 1.0 if edge == "right" else -1.0
                out_e[(b, alpha, beta)] = chi
                out_hv[(b, alpha, beta)] = 1j * k_row[:, None] * chi + sigma * q
                out_hs[(b, alpha, beta)] = -sigma * q
    return out_e, out_hv, out_hs


def project_to_basis(coupling: LayerCoupling, edge: str,
                     convention: str = "local-jump") -> CouplingBlocks:
    """Project the layer kernels at one edge onto the bin bases.

    Every block is multiplied by sqrt(dw_row dw_col) (midpoint-rule
    projection onto the top-hat bases).  Blocks for both row fields are
    produced; idler-row blocks are NOT yet conjugated (assembly into the
    creation-operator sector conjugates them).
    """
    if edge not in ("left", "right"):
        raise ConfigError("edge must be 'left' or 'right'")
    vol_e, vol_h, sur_h = {}, {}, {}
    for row_field in ("s", "i"):
        basis_row = coupling.basis_s if row_field == "s" else coupling.basis_i
        basis_col = coupling.basis_i if row_field == "s" else coupling.basis_s
        weight = np.sqrt(basis_row.widths[:, None] * basis_col.widths[None, :])
        chi, hv, hs = _edge_kernels(coupling, edge, row_field, convention)
        for (b, alpha, beta), arr in chi.items():
            vol_e[(row_field, b, alpha, beta)] = arr * weight
        for (b, alpha, beta), arr in hv.items():
            vol_h[(row_field, b, alpha, beta)] = arr * weight
        for (b, alpha, beta), arr in hs.items():
            sur_h[(row_field, b, alpha, beta)] = arr * weight
    return CouplingBlocks(
        edge=edge, volume_e=vol_e, volume_h=vol_h, surface_h=sur_h
    )
