"""Spectral basis, pair-generation kernels, and their basis projections.

The signal and idler fields are discretized on one shared basis of
orthonormal top-hat frequency bins f_k (height 1/sqrt(dw_k) on bin k),
so every per-frequency quantity (index, wave number, photon amplitude,
bin weight) is one array serving both fields.  The top-hat bins make
every single-frequency overlap matrix diagonal and turn basis projection
into midpoint sampling times sqrt(dw_k dw_n).  A basis computes its edges,
centers and widths once and hands out the same read-only arrays.

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
pol] (its transpose for idler rows).  ``project_to_basis`` returns the
polarization-free kernels of one edge, arrays of shape (2, 2, K, K) over

    (row field, col dir, row bin, col bin)

in ``FIELDS``/``DIRS`` order (forward rows at the right edge, backward
rows at the left edge), together with each row field's d; ``matrixcore``
applies d only when it expands its sums into pair arrays.

Everything but the pump weight conj(T_g) depends on the layer only
through its (material, length): the wave numbers, photon amplitudes,
1/sqrt(n) prefactors and pump wave numbers per material, and the
brackets (e^{i dk L} - 1)/dk with the right-edge phase per (material,
length).  Couplings made by ``layer_couplings`` share these for the
length of one emission build, keyed on the material object, never on its
name; conj(T_g), which carries the layer's pump amplitude and poling
sign, is computed per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    @cached_property
    def edges(self) -> np.ndarray:
        return _read_only(
            np.linspace(self.omega_min, self.omega_max, self.bins + 1))

    @cached_property
    def centers(self) -> np.ndarray:
        e = self.edges
        return _read_only(0.5 * (e[:-1] + e[1:]))

    @cached_property
    def widths(self) -> np.ndarray:
        return _read_only(np.diff(self.edges))


def _tau(omega, n, area):
    return np.sqrt(
        CONSTANTS.hbar
        * np.asarray(omega)
        / (4.0 * np.pi * CONSTANTS.eps0 * CONSTANTS.c * n * area)
    )


def photon_amplitude_tau(material: MaterialModel, omega, area: float):
    """Electric-field amplitude per photon: sqrt(hbar w / (4 pi eps0 c n A))."""
    if area <= 0.0:
        raise ConfigError("quantization area must be positive")
    return _tau(omega, refractive_index(material, omega), area)


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


def _masked_wavenumbers(material, omega, mask):
    """Forward and backward wave numbers where mask, zero elsewhere (no
    window check outside the mask)."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = material.window
    hi_eff = min(hi, 1e18)
    clipped = np.clip(omega, lo * (1 + 1e-12) if lo > 0 else 1e6, hi_eff * (1 - 1e-12))
    n = refractive_index(material, clipped)
    return {g: np.where(mask, DIR_SIGN[g] * clipped / CONSTANTS.c * n, 0.0)
            for g in DIRS}


@dataclass
class LayerCoupling:
    """Pair-coupling data of one finite layer on the bin grid.

    Grids are indexed (signal bin k, idler bin n).  tstar_unit(g) is
    conj(T_g) per unit chi2 for pump direction g, chi2_matrix() the
    layer's d[signal pol, idler pol]; conj(T_g) of one polarization pair
    is their product.  Pump wavenumbers are zero where the pump is dark
    (the coupling vanishes there too).  The photon amplitudes tau are
    taken at a 1 m^2 cross-section: T_g holds A tau_s tau_i, in which
    the area cancels.

    ``shared`` holds what depends only on the basis, the pump and the
    layer's (material, length), per material object (see the module
    docstring); couplings that share it must share basis and pump.
    """

    structure: StructureSpec
    l: int
    basis: SpectralBasis
    pump: PumpField
    shared: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def material(self):
        return self.structure.material(self.l)

    @property
    def length(self):
        return self.structure.length(self.l)

    def _per_material(self, key, compute):
        """compute() once per material object and key in ``shared``; the
        entry holds the material, so its id stays unique while the store
        lives."""
        mat = self.material
        if id(mat) not in self.shared:
            self.shared[id(mat)] = (mat, {})
        cache = self.shared[id(mat)][1]
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def sum_grid(self):
        if "sum" not in self.shared:
            centers = self.basis.centers
            self.shared["sum"] = centers[:, None] + centers[None, :]
        return self.shared["sum"]

    def _pump_index(self):
        """Pump-grid index of every bin sum (flattened)."""
        if "pidx" not in self.shared:
            flat = self.sum_grid().ravel()
            omega = self.pump.omega
            idx = np.clip(np.searchsorted(omega, flat), 0, omega.size - 1)
            left = np.clip(idx - 1, 0, omega.size - 1)
            idx = np.where(
                np.abs(omega[left] - flat) < np.abs(omega[idx] - flat),
                left,
                idx,
            )
            if np.any(np.abs(omega[idx] - flat) > 1e-6 * flat):
                raise ConfigError("pump grid does not contain the bin sums")
            self.shared["pidx"] = idx
        return self.shared["pidx"]

    def pump_k(self, g):
        def compute():
            total = self.sum_grid()
            mask = self.pump.mask[self._pump_index()].reshape(total.shape)
            return _masked_wavenumbers(self.material, total, mask)
        return self._per_material("kp", compute)[g]

    def pump_amp(self, g):
        amp = self.pump.amps[self.l, {"F": 0, "B": 1}[g], self._pump_index()]
        return amp.reshape(self.sum_grid().shape)

    def index(self):
        """Refractive index on the bin centers."""
        return self._per_material(
            "n", lambda: refractive_index(self.material, self.basis.centers))

    def inv_sqrt_index(self):
        """1/sqrt(n) on the bin centers (flux normalization of the modes)."""
        return self._per_material("pref", lambda: 1.0 / np.sqrt(self.index()))

    def tau(self):
        return self._per_material(
            "tau", lambda: _tau(self.basis.centers, self.index(), 1.0))

    def k_signed(self, a):
        return self._per_material(
            ("k", a),
            lambda: DIR_SIGN[a] * self.basis.centers / CONSTANTS.c * self.index())

    def chi2_matrix(self):
        """d[signal pol, idler pol] for the pump polarization, m/V."""
        gamma = self.pump.polarization
        return self._per_material("d", lambda: np.array([
            [chi2_effective(self.material, gamma, a, b) for b in POLS]
            for a in POLS
        ]))

    def tstar_unit(self, g):
        """conj(T_g) per unit chi2 on the (signal bin, idler bin) grid.

        Computed on every call: it is the one per-layer factor, and
        keeping it would hold a K x K grid per layer and direction."""
        tau2 = self._per_material("tau2", lambda: (
            4.0 * np.pi * CONSTANTS.eps0 / CONSTANTS.hbar
            * self.tau()[:, None] * self.tau()[None, :]))
        base = tau2 * self.structure.poling(self.l)
        return -1j * base * self.pump_amp(g)

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
        """dk = k_p,g - k_a - k_b on the (row, col) bin grid: row direction
        a, column direction b.

        For row_field 's' rows are signal bins and cols idler bins; for
        'i' the roles (and the pump grid orientation) are swapped.
        """
        kp = self.pump_k(g) if row_field == "s" else self.pump_k(g).T
        return kp - self.k_signed(a)[:, None] - self.k_signed(b)[None, :]


def layer_couplings(structure: StructureSpec, basis: SpectralBasis,
                    pump: PumpField):
    """Couplings of layers 0..N+1 sharing one per-(material, length) store."""
    shared = {}
    return [LayerCoupling(structure, l, basis, pump, shared)
            for l in range(structure.n_layers + 2)]


SPLIT_CONVENTIONS = ("local-jump", "per-slot")


def _edge_factors(coupling: LayerCoupling, edge: str):
    """Factors of the projected kernels at one edge; they depend on the
    layer only through its (material, length).

    Returns (chi_fac, q_fac, k_row): chi_fac (2, 2, 2, K, K) over (row
    field, pump dir g, col dir), -i (e^{i dk L} - 1)/dk with the
    right-edge phase; q_fac (2, 2, K, K) over (row field, g), the pump
    phase of Q at the edge; both times sqrt(dw_row dw_col).  k_row (K,)
    is the signed wave number of the rows.  chi = sum_g conj(T_g)
    chi_fac and Q = sum_g conj(T_g) q_fac.
    """
    l_len = coupling.length
    a = "F" if edge == "right" else "B"
    shift = l_len if edge == "right" else 0.0
    widths = coupling.basis.widths
    weight = np.sqrt(widths[:, None] * widths[None, :])
    k_row = coupling.k_signed(a)
    chi_fac, q_fac = [], []
    for row_field in FIELDS:
        per_g = []
        for g in DIRS:
            per_b = []
            for b in DIRS:
                c = -1j * _bracket(coupling.delta_k(a, b, g, row_field), l_len)
                if edge == "right":
                    k_col = coupling.k_signed(b)
                    c = c * np.exp(1j * (k_row[:, None] + k_col[None, :]) * l_len)
                per_b.append(c * weight)
            per_g.append(per_b)
        kp = [coupling.pump_k(g) for g in DIRS]
        if row_field == "i":
            kp = [k.T for k in kp]
        chi_fac.append(per_g)
        q_fac.append([np.exp(1j * k * shift) * weight for k in kp])
    return np.array(chi_fac), np.array(q_fac), k_row


def _edge_kernels(coupling: LayerCoupling, edge: str,
                  convention: str = "local-jump"):
    """Projected arriving kernel chi and the volume/surface magnetic
    attributions at one edge.

    Returns (chi, hv, hs), each of shape (2, 2, K_row, K_col) over (row
    field, col dir, row bin, col bin) and polarization-free (per unit
    chi2); idler rows use the transposed (idler, signal) grids.  chi is
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
    chi_fac, q_fac, k_row = coupling._per_material(
        ("edge", coupling.length, edge), lambda: _edge_factors(coupling, edge))
    tst = [coupling.tstar_unit(g) for g in DIRS]
    tst = np.array([tst, [t.T for t in tst]])  # (row field, g, row, col)
    chi = tst[:, 0, None] * chi_fac[:, 0] + tst[:, 1, None] * chi_fac[:, 1]
    q = (tst[:, 0] * q_fac[:, 0] + tst[:, 1] * q_fac[:, 1])[:, None]
    if convention == "local-jump":
        sigma = -1.0
    else:  # per-slot: [+-1]_a of the arriving direction
        sigma = 1.0 if edge == "right" else -1.0
    hv = 1j * k_row[:, None] * chi + sigma * q
    hs = np.broadcast_to(-sigma * q, chi.shape)
    return chi, hv, hs


def project_to_basis(coupling: LayerCoupling, edge: str,
                     convention: str = "local-jump"):
    """Project the layer kernels at one edge onto the bin basis.

    Returns ((volume_e, volume_h, surface_h), d): polarization-free
    kernels in the layout of the module docstring, and d of shape (2, 2,
    2) over (row field, row pol, col pol), the layer's chi2 matrix for
    signal rows and its transpose for idler rows.  A kernel block of
    polarizations (p, q) is d[field, p, q] times the kernel.  volume_e
    projects the arriving kernel chi; volume_h/surface_h carry the
    magnetic boundary-source attribution, and their sum is the total
    magnetic content of the mode slot.  Every kernel carries sqrt(dw_row
    dw_col) (midpoint-rule projection onto the top-hat bases).
    Idler-row kernels are NOT yet conjugated (assembly into the
    creation-operator sector conjugates them).
    """
    if edge not in ("left", "right"):
        raise ConfigError("edge must be 'left' or 'right'")
    d = coupling.chi2_matrix()
    return _edge_kernels(coupling, edge, convention), np.array([d, d.T])
