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
the surface-attribution conventions of class_kernels select.  Q is
continuous across a boundary up to the jump of the material factors, so
driving the surface channel with its jump ('local-jump') makes a
fictitious boundary inside homogeneous material source nothing, while
the literal per-mode assignment ('per-slot') reproduces the published
volume/surface bookkeeping.  Only the summed output is observable.

The layers are isotropic, so T_g depends on the polarizations only
through the scalar chi2 coefficient: every kernel is one
polarization-free grid times the layer's 2x2 matrix d[signal pol, idler
pol] (its transpose for idler rows).  ``project_to_basis`` returns the
polarization-free kernels of one layer and edge, arrays of shape (2, 2,
K, K) over

    (row field, col dir, row bin, col bin)

in ``FIELDS``/``DIRS`` order (forward rows at the right edge, backward
rows at the left edge), together with each row field's d; ``matrixcore``
applies d only when it expands its sums into pair arrays.

Everything but the pump weight depends on the layer only through its
(material, length): the wave numbers, photon amplitudes and pump wave
numbers per material, and the brackets (e^{i dk L} - 1)/dk with the
right-edge phase per (material, length).  ``class_kernels`` therefore
forms the kernels of a whole (material, length) class at one edge once,
per unit pump weight; a layer's kernels are sum_g a_g times them
(``weighted_kernels``), with a_g = poling x pump amplitude of direction g
on the bin-sum grid (``pump_weights``), the one per-layer factor of
conj(T_g).  Couplings made by ``layer_couplings`` share the
per-material arrays for the length of one emission build, keyed on the
material object, never on its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    layer's material, per material object (see the module docstring);
    couplings that share it must share basis and pump.
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

    def tau2(self):
        """tau_s tau_i (4 pi eps0 / hbar) on the (signal bin, idler bin) grid."""
        return self._per_material("tau2", lambda: (
            4.0 * np.pi * CONSTANTS.eps0 / CONSTANTS.hbar
            * self.tau()[:, None] * self.tau()[None, :]))

    def tstar_unit(self, g):
        """conj(T_g) per unit chi2 on the (signal bin, idler bin) grid.

        Computed on every call and read by the z-grid oracle; the emission
        assembly takes the same factor as the class kernels' tau2 product
        times ``pump_weights``."""
        base = self.tau2() * self.structure.poling(self.l)
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

    def delta_k(self, a, b, g):
        """dk = k_p,g - k_a - k_b on the (row, col) bin grid: row direction
        a, column direction b.  The pump grid is symmetric, so this holds
        for signal and idler rows alike."""
        return (self.pump_k(g) - self.k_signed(a)[:, None]
                - self.k_signed(b)[None, :])


def layer_couplings(structure: StructureSpec, basis: SpectralBasis,
                    pump: PumpField):
    """Couplings of layers 0..N+1 sharing one per-material store."""
    shared = {}
    return [LayerCoupling(structure, l, basis, pump, shared)
            for l in range(structure.n_layers + 2)]


SPLIT_CONVENTIONS = ("local-jump", "per-slot")


def _edge_factors(coupling: LayerCoupling, edge: str):
    """Factors of the projected kernels at one edge; they depend on the
    layer only through its (material, length).

    Returns (chi_fac, q_fac, k_row): chi_fac (2, 2, K, K) over (pump dir
    g, col dir), -i (e^{i dk L} - 1)/dk with the right-edge phase; q_fac
    (2, K, K) over g, the pump phase of Q at the edge; both times
    sqrt(dw_row dw_col).  k_row (K,) is the signed wave number of the
    rows.  chi = sum_g conj(T_g) chi_fac and Q = sum_g conj(T_g) q_fac.
    Signal and idler rows share the factors: the pump wave numbers live
    on the bin-sum grid, which is exactly symmetric, so the idler rows'
    transposed pump grid and dk equal the signal rows' ones.
    """
    l_len = coupling.length
    a = "F" if edge == "right" else "B"
    shift = l_len if edge == "right" else 0.0
    widths = coupling.basis.widths
    weight = np.sqrt(widths[:, None] * widths[None, :])
    k_row = coupling.k_signed(a)
    chi_fac = []
    for g in DIRS:
        per_b = []
        for b in DIRS:
            c = -1j * _bracket(coupling.delta_k(a, b, g), l_len)
            if edge == "right":
                k_col = coupling.k_signed(b)
                c = c * np.exp(1j * (k_row[:, None] + k_col[None, :]) * l_len)
            per_b.append(c * weight)
        chi_fac.append(per_b)
    q_fac = [np.exp(1j * coupling.pump_k(g) * shift) * weight for g in DIRS]
    return np.array(chi_fac), np.array(q_fac), k_row


def class_kernels(coupling: LayerCoupling, edge: str,
                  convention: str = "local-jump"):
    """Projected kernels at one edge of every layer of the coupling's
    (material, length) class, per unit pump weight.

    Returns (volume, surface): volume of shape (2, 2, 2, K, K) over (pump
    dir g, E/H row, col dir, row bin, col bin), surface of shape (2, K, K)
    over g.  A layer of the class with pump weights a_g
    (``pump_weights``) has the kernels sum_g a_g volume[g] and sum_g a_g
    surface[g] (``weighted_kernels``).  The electric row is the arriving
    kernel chi, the magnetic row its volume attribution; surface is the
    magnetic surface attribution, the same for both column directions.
    Per side the two magnetic attributions always sum to the exact total
    i k chi; the conventions distribute the bare source coefficient Q
    differently:

    * 'local-jump': surface rows carry +Q on both sides, so the surface
      drive is the cross-boundary jump of Q (zero at a fictitious
      boundary, proportional to the material discontinuity at a real
      one).
    * 'per-slot': the literal magnetic content of each mode slot
      (volume rows i k chi + [+-1]_a Q of the arriving slot, surface
      rows the departing slot's [+-1]_a Q).  Not fictitious-boundary
      null; kept for comparison only.

    The kernels are polarization-free (per unit chi2) signal rows; idler
    rows are the same grids, because the bin-sum grid is exactly
    symmetric.
    """
    if edge not in ("left", "right"):
        raise ConfigError("edge must be 'left' or 'right'")
    if convention not in SPLIT_CONVENTIONS:
        raise ConfigError(f"unknown split convention {convention!r}")
    chi_fac, q_fac, k_row = _edge_factors(coupling, edge)
    unit = -1j * coupling.tau2()  # conj(T_g) per unit chi2 and pump weight
    chi = unit * chi_fac
    q = unit * q_fac
    if convention == "local-jump":
        sigma = -1.0
    else:  # per-slot: [+-1]_a of the arriving direction
        sigma = 1.0 if edge == "right" else -1.0
    hv = 1j * k_row[:, None] * chi + sigma * q[:, None]
    return np.stack((chi, hv), axis=1), -sigma * q


def pump_weights(couplings):
    """a_g = poling times the pump amplitude of direction g on the (signal
    bin, idler bin) grid, for couplings of one build: shape (L, 2, K, K)
    over (layer, g, row bin, col bin).  conj(T_g) per unit chi2 is
    -i tau_s tau_i (4 pi eps0 / hbar) a_g (``tstar_unit``)."""
    first = couplings[0]
    ls = [c.l for c in couplings]
    poling = np.array([first.structure.poling(l) for l in ls], dtype=float)
    amps = first.pump.amps[ls][:, :, first._pump_index()]
    return (poling[:, None, None] * amps).reshape(
        (len(ls), 2) + first.sum_grid().shape)


def weighted_kernels(kernels, weights):
    """Per-layer kernels sum_g a_g kernels[g] from ``class_kernels`` and
    pump weights of shape (L, 2, K, K): (volume (L, 2, 2, K, K) over
    (layer, E/H row, col dir, row bin, col bin), surface (L, K, K))."""
    volume, surface = kernels
    return (np.einsum("lgkn,gxbkn->lxbkn", weights, volume),
            np.einsum("lgkn,gkn->lkn", weights, surface))


def project_to_basis(coupling: LayerCoupling, edge: str,
                     convention: str = "local-jump"):
    """Project the kernels of one layer at one edge onto the bin basis.

    Returns ((volume_e, volume_h, surface_h), d): polarization-free
    kernels in the layout of the module docstring, and d of shape (2, 2,
    2) over (row field, row pol, col pol), the layer's chi2 matrix for
    signal rows and its transpose for idler rows.  A kernel block of
    polarizations (p, q) is d[field, p, q] times the kernel.  volume_e
    projects the arriving kernel chi; volume_h/surface_h carry the
    magnetic boundary-source attribution (``class_kernels``), and their
    sum is the total magnetic content of the mode slot.  Every kernel
    carries sqrt(dw_row dw_col) (midpoint-rule projection onto the
    top-hat bases).  Idler-row kernels equal the signal-row ones and are
    NOT yet conjugated (assembly into the creation-operator sector
    conjugates them).
    """
    volume, surface = weighted_kernels(
        class_kernels(coupling, edge, convention), pump_weights([coupling]))
    chi, hv = volume[0]
    hs = np.broadcast_to(surface[0], chi.shape)
    d = coupling.chi2_matrix()
    return tuple(np.array([k, k]) for k in (chi, hv, hs)), np.array([d, d.T])
