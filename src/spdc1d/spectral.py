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
source coefficient Q(z) = sum_g T_g^* exp(i k_p,g (z - z_l)), the local
pump field times tau_s tau_i chi2, can be split between the volume and
surface channels in more than one exact way: the surface attributions,
which ``matrixcore`` reads after its assembly from the sign sigma of the
right-edge surface sum (``class_kernels``).  Q is continuous across a
boundary up to the jump of the material factors, so driving the surface
channel with its jump ('local-jump') makes a fictitious boundary inside
homogeneous material source nothing, while the literal per-mode
assignment ('per-slot') reproduces the published volume/surface
bookkeeping.  Only the summed output is observable.

The layers are isotropic, so T_g depends on the polarizations only
through the scalar chi2 coefficient: every kernel is one
polarization-free grid times the material's 2x2 matrix d[signal pol,
idler pol] (``chi2_matrix``; its transpose for idler rows), and
``matrixcore`` applies d only when it expands its sums into pair arrays.

Per unit chi2, conj(T_g) = -i tau_s tau_i (4 pi eps0 / hbar) a_g
(``coupling_unit`` times a_g), where a_g, the poling sign times the pump
amplitude of direction g on the bin-sum grid (``pump_weights``, gathered
from the distinct sums that ``bin_solve`` solves with the bin centers),
is the one per-layer factor.  Everything else depends on a layer only
through its material and length: the photon amplitudes, the
signal/idler and pump wave numbers (``pump_wavenumbers``) and the
brackets (e^{i dk L} - 1)/dk with the right-edge phase.  So
``class_kernels`` forms the kernels of a whole (material, length) class
at both edges per unit pump weight, and a layer's kernels are sum_g a_g
times them.  All of these are pure functions; nothing is kept between
calls.

Dark bin sums (pump weight exactly zero) are never assembled: kernels
live on the E lit entries (row bin, col bin) of the grid, in C order.
Their phases are separable: e^{i dk L} is e^{i k_p L} e^{-i k_a L}
e^{-i k_b L}, and the right-edge phase e^{i (k_a + k_b) L}, so the
exponentials run once per bin and once per distinct bin sum, never per
entry; the bracket's series runs only on the entries near phase
matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError
from .linear import PumpField, PumpSpec, field_maps, pump_field
from .materials import (
    MaterialModel,
    chi2_effective,
    refractive_index,
    wavenumber,
)
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


def _bracket(delta_k, zeta, numerator, phase):
    """(exp(i dk zeta) - 1)/dk times phase, from numerator = (exp(i dk
    zeta) - 1) phase formed from separable unit phases; the series
    replaces the entries where |dk zeta| < _BRACKET_SWITCH.

    delta_k carries unit axes where zeta carries geometry axes, and
    delta_k * zeta spans the shape of numerator; phase broadcasts to it.
    The series is exact to about (dk zeta)^4/120, far below rounding at
    the switch.  The exact branch loses about eps/|dk zeta| of relative
    accuracy (times the size of the phases' arguments) to the
    cancellation in its numerator, so about 1e-10 just above the switch.
    """
    inverse = np.divide(1.0, delta_k, out=np.zeros_like(delta_k),
                        where=delta_k != 0.0)
    out = numerator * inverse
    x = delta_k * zeta
    small = np.nonzero(np.abs(x) < _BRACKET_SWITCH)
    if small[0].size:
        x = x[small]
        out[small] = (np.broadcast_to(zeta, out.shape)[small]
                      * (1j - x / 2.0 - 1j * x**2 / 6.0 + x**3 / 24.0)
                      * np.broadcast_to(phase, out.shape)[small])
    return out


def bin_sums(basis: SpectralBasis):
    """(sums, index): the distinct bin sums w_k + w_n and the (K, K) index
    of every sum on them."""
    centers = basis.centers
    sums, index = np.unique((centers[:, None] + centers[None, :]).ravel(),
                            return_inverse=True)
    return sums, index.reshape(basis.bins, basis.bins)


def bin_solve(structure: StructureSpec, pump_spec: PumpSpec,
              basis: SpectralBasis):
    """(maps, pump, index): the linear solve on the bin centers, the pump
    on ``bin_sums`` and their (K, K) index, from one ``field_maps`` march
    over the centers and the lit sums (a dark sum is never solved)."""
    sums, index = bin_sums(basis)
    both = field_maps(structure, np.concatenate(
        (basis.centers, sums[pump_spec.active_mask(sums)])))
    pump = pump_field(pump_spec, sums, both.select(slice(basis.bins, None)))
    return both.select(slice(basis.bins)), pump, index


def chi2_matrix(material: MaterialModel, pump_pol: str) -> np.ndarray:
    """d[signal pol, idler pol] of a material for a pump polarization, m/V."""
    return np.array([[chi2_effective(material, pump_pol, a, b) for b in POLS]
                     for a in POLS])


def coupling_unit(material: MaterialModel, basis: SpectralBasis) -> np.ndarray:
    """-i tau_s tau_i (4 pi eps0 / hbar) on the (signal bin, idler bin) grid:
    conj(T_g) per unit chi2 and unit pump weight.  tau is taken at a 1 m^2
    cross-section; the area cancels in T_g."""
    omega = basis.centers
    # photon amplitude sqrt(hbar w / (4 pi eps0 c n A)) at A = 1 m^2
    tau = np.sqrt(CONSTANTS.hbar * omega / (
        4.0 * np.pi * CONSTANTS.eps0 * CONSTANTS.c
        * refractive_index(material, omega)))
    return -1j * (4.0 * np.pi * CONSTANTS.eps0 / CONSTANTS.hbar
                  * tau[:, None] * tau[None, :])


def pump_wavenumbers(material: MaterialModel, pump: PumpField) -> np.ndarray:
    """Signed pump wave numbers on the pump grid, shape (2, n_omega) over
    the pump direction g; evaluated only where the pump is lit, as in
    ``bin_solve``, and zero where it is dark."""
    lit = pump.mask
    k_p = np.zeros((len(DIRS),) + pump.omega.shape)
    k_f = wavenumber(material, pump.omega[lit], "F")
    k_p[:, lit] = [k_f, -k_f]  # k_B = -k_F exactly
    return k_p


def pump_weights(structure: StructureSpec, pump: PumpField,
                 index: np.ndarray, ls) -> np.ndarray:
    """a_g = poling times the pump amplitude of direction g at the bin sums
    index ((K, K) or the lit entries' sums), for layers ls: shape (L, 2,
    *G, *index.shape) over (layer, g, the pump's geometry grid, entry).
    conj(T_g) per unit chi2 is ``coupling_unit`` * a_g."""
    amps = pump.amps[ls][..., index]
    poling = np.array([structure.poling(l) for l in ls], dtype=float)
    return poling.reshape((-1,) + (1,) * (amps.ndim - 1)) * amps


SPLIT_CONVENTIONS = ("local-jump", "per-slot")


def class_kernels(material: MaterialModel, length,
                  basis: SpectralBasis, pump: PumpField, lit) -> dict:
    """Projected kernels at both edges of every layer of one (material,
    length) class, per unit pump weight, on the lit entries lit = (rows,
    cols, sums): each entry's row and col bin and the index of its bin sum
    on the pump's grid (``bin_sums``).  Returns {edge: (chi, surface, ik)}.

    chi, the arriving (electric-row) kernel, has shape (2, 2, *G, E)
    over (pump dir g, col dir, geometry, lit entry), surface (2, *G, E)
    over g, where G is the shape of length (() for a scalar; an array
    length spans a geometry grid, and may carry unit axes for the grid's
    other dimensions); ik is i k_a of each entry's row bin, k_a the
    signed wave number of the row direction.  Forward rows sit at the
    right edge, backward rows at the left one.  A layer of the class with
    pump weights a_g (``pump_weights``) has the kernels sum_g a_g chi[g]
    and sum_g a_g surface[g].  The magnetic volume row is ik chi -
    surface, so per side the two magnetic attributions sum to the exact
    total i k chi; it is not stored.  Every kernel carries sqrt(dw_row
    dw_col) (midpoint projection onto the top-hat bins).

    surface is the bare source coefficient +Q at both edges, the same
    for both column directions.  ``matrixcore`` sums its sources into S_R
    at the right edges and S_L at the left ones (subtracted) beside the
    total T, and reads an attribution as G_S = sigma S_R + S_L, G_V = T -
    G_S.  'local-jump' (sigma = +1) drives the surface with the
    cross-boundary jump of Q, so a fictitious boundary sources nothing.
    'per-slot' (sigma = -1, each slot's literal magnetic content [+-1]_a
    Q of the arriving direction) gives instead a split that is covariant
    under the mirror of a run (README).  The kernels are
    polarization-free signal rows; idler rows are the same grids, as the
    bin-sum grid is exactly symmetric.
    """
    rows, cols, sums = lit
    widths = basis.widths
    # conj(T_g) per unit chi2 and pump weight, with the bin weights
    unit = (coupling_unit(material, basis)[rows, cols]
            * np.sqrt(widths[rows] * widths[cols]))
    k_f = wavenumber(material, basis.centers, "F")
    k = np.array([DIR_SIGN[a] * k_f for a in DIRS])  # signed, over dir
    k_p = pump_wavenumbers(material, pump)
    flat = (1,) * np.ndim(length)  # unit geometry axes of G-free arrays
    zeta = np.asarray(length)[..., None]
    # unit phases exp(i k L): per dir and bin, per g and distinct bin sum
    phase = np.exp(1j * k.reshape((2,) + flat + (-1,)) * zeta)
    pump_phase = np.exp(1j * k_p.reshape((2,) + flat + (-1,))
                        * zeta)[..., sums]
    k_p = k_p[:, sums][:, None]
    out = {}
    for edge, a in (("right", "F"), ("left", "B")):
        k_a = k[DIRS.index(a)]
        dk = k_p - k_a[rows] - k[:, cols]  # over (g, col dir)
        dk = dk.reshape((2, 2) + flat + dk.shape[-1:])
        if edge == "right":  # (e^{i dk L} - 1) e^{i (k_a + k_b) L}
            edge_phase = phase[0][..., rows] * phase[:, ..., cols]
            numerator = pump_phase[:, None] - edge_phase
            q = unit * pump_phase
        else:  # e^{i dk L} - 1, with e^{-i k_a L} = e^{i k_F L}
            edge_phase = 1.0
            numerator = (pump_phase[:, None] * phase[0][..., rows]
                         * phase[::-1, ..., cols] - 1.0)
            q = np.broadcast_to(unit, pump_phase.shape)
        chi = -1j * unit * _bracket(dk, zeta, numerator, edge_phase)
        out[edge] = (chi, q, 1j * k_a[rows])
    return out
