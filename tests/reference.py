"""Independent references used only by the tests.

These evaluate the physics directly instead of through the production
path: the layer boundary positions, the top-hat basis functions on a
frequency grid, the interface
continuity residual of a layer-amplitude solution, the pair phase
function of one layer with its exact z-derivative, the branch
contractions by plain loops over the labelled dense F, and a peak
counter for the qualitative spectral checks.  ``LayerView`` reads one
layer's coupling data (conj(T_g), wave numbers, kernels) through the
pure functions of ``spectral``.  ``full_chi2`` gives a
stack whose every (signal, idler) polarization pair emits, and
``explicit_time_grid`` the full n x n detection-time density.
"""

from dataclasses import replace

import numpy as np

from spdc1d.blockmatrix import MODE_CHANNELS
from spdc1d.constants import CONSTANTS
from spdc1d.errors import ConfigError
from spdc1d.linear import PumpField, _interface_weights
from spdc1d.materials import refractive_index, wavenumber
from spdc1d.matrixcore import pair_block
from spdc1d.observables import default_time_grid
from spdc1d.spectral import (
    DIR_SIGN,
    DIRS,
    POLS,
    SpectralBasis,
    _bracket,
    bin_sum_index,
    chi2_matrix,
    class_kernels,
    coupling_unit,
    pump_weights,
    pump_wavenumbers,
    weighted_kernels,
)
from spdc1d.structure import StructureSpec


def boundaries(structure: StructureSpec) -> np.ndarray:
    """z_1..z_{N+1}; z_1 = 0."""
    lengths = [length for _, length, _ in structure.layers]
    return np.concatenate([[0.0], np.cumsum(lengths)])


def z_reference(structure: StructureSpec, l: int) -> float:
    """Left-boundary reference of layer l (z_1 for the input medium)."""
    z = boundaries(structure)
    if l == 0:
        return z[0]
    if l == structure.n_layers + 1:
        return z[-1]
    return z[l - 1]


def eval_basis(basis, k: int, omega):
    """f_k(omega) of a SpectralBasis: indicator of bin k normalized to
    unit L2 norm."""
    e = basis.edges
    omega = np.asarray(omega, dtype=float)
    inside = (omega >= e[k]) & (omega < e[k + 1])
    return np.where(inside, 1.0 / np.sqrt(basis.widths[k]), 0.0)


def continuity_residual(structure, amps, omega, convention="field"):
    """Max relative interface residual of a layer-amplitude solution."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    worst = 0.0
    z = boundaries(structure)
    for b in range(structure.n_layers + 1):
        l, r = b, b + 1
        n_l = refractive_index(structure.material(l), omega)
        n_r = refractive_index(structure.material(r), omega)
        w_l, v_l = _interface_weights(n_l, convention)
        w_r, v_r = _interface_weights(n_r, convention)
        ph = np.exp(
            1j * omega / CONSTANTS.c * n_l * (z[b] - z_reference(structure, l))
        )
        lf, lb = amps[l, 0] * ph, amps[l, 1] / ph
        rf, rb = amps[r, 0], amps[r, 1]
        scale = max(np.max(np.abs(amps[l])), np.max(np.abs(amps[r])), 1e-300)
        res_e = np.abs(w_l * (lf + lb) - w_r * (rf + rb))
        res_h = np.abs(v_l * (lf - lb) - v_r * (rf - rb))
        worst = max(worst, res_e.max() / scale, res_h.max() / scale)
    return worst


class LayerView:
    """One layer's coupling data on the (signal bin, idler bin) grid, read
    through the pure functions of ``spectral``."""

    def __init__(self, structure: StructureSpec, l: int,
                 basis: SpectralBasis, pump: PumpField):
        self.structure, self.l = structure, l
        self.basis, self.pump = basis, pump
        self.material, self.length = structure.material(l), structure.length(l)
        self.d = chi2_matrix(self.material, pump.polarization)
        self.index = bin_sum_index(pump, basis)
        self.weights = pump_weights(structure, pump, self.index, [l])
        # conj(T_g) per unit chi2, over g
        self.t_unit = coupling_unit(self.material, basis) * self.weights[0]

    def is_dark(self):
        return not np.any(self.d)

    def k_signed(self, a):
        return wavenumber(self.material, self.basis.centers, a)

    def pump_k(self, g):
        return pump_wavenumbers(self.material, self.basis, self.pump,
                                self.index)[g]

    def tstar(self, g, alpha, beta):
        """conj(T_g) for polarizations (alpha, beta)."""
        return (self.d[POLS.index(alpha), POLS.index(beta)]
                * self.t_unit[DIRS.index(g)])

    def project(self, edge, convention="local-jump"):
        """((volume_e, volume_h, surface_h), d) at one edge: kernels of
        shape (2, 2, K, K) over (row field, col dir, row bin, col bin),
        the same for both row fields, and d of shape (2, 2, 2) over (row
        field, row pol, col pol), d.T for idler rows."""
        kernels = class_kernels(self.material, self.length, self.basis,
                                self.pump, self.index, convention)[edge]
        volume, surface = weighted_kernels(kernels, self.weights)
        chi, hv = volume[0]
        hs = np.broadcast_to(surface[0], chi.shape)
        return (tuple(np.array([k, k]) for k in (chi, hv, hs)),
                np.array([self.d, self.d.T]))


def phase_functions(coupling: LayerView, a, b, alpha, beta, z,
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
    z_ref = z_reference(coupling.structure, coupling.l)
    if not (z_ref - 1e-15 <= z <= z_ref + l_len + 1e-15):
        raise ConfigError("z outside the layer")
    z_a = z_ref if a == "F" else z_ref + l_len
    k_col = coupling.k_signed(b)
    phi = np.zeros((coupling.basis.bins,) * 2, dtype=complex)
    dphi = np.zeros_like(phi)
    for g in DIRS:
        if row_field == "s":
            t_g = np.conj(coupling.tstar(g, alpha, beta))
        else:
            t_g = np.conj(coupling.tstar(g, beta, alpha)).T
        if not np.any(t_g):
            continue
        kp = coupling.pump_k(g) if row_field == "s" else coupling.pump_k(g).T
        dk = kp - coupling.k_signed(a)[:, None] - k_col[None, :]
        if a == "F":
            phase = 1.0
        else:
            # phi_g = (k_p,g - k_col,b) L for backward rows
            phase = np.exp(-1j * (kp - k_col[None, :]) * l_len)
        phi += 1j * DIR_SIGN[a] * t_g * phase * (-_bracket(-dk, z - z_a))
        dphi += DIR_SIGN[a] * t_g * phase * np.exp(-1j * dk * (z - z_a))
    return phi, dphi


def polarized_kernels(projection):
    """LayerView.project's (kernels, d) in the polarization-resolved
    layout (row field, row pol, col dir, col pol, row bin, col bin):
    block (p, q) of row field f is d[f, p, q] times the kernel."""
    kernels, d = projection
    return tuple(np.einsum("fpq,fbkn->fpbqkn", d, k) for k in kernels)


def full_chi2(structure):
    """The GaN/AlN stack with distinct chi2 entries for every (signal,
    idler) polarization pair in GaN and one pair only in AlN, so a kernel
    that mixes up d and its transpose on idler rows shows, and AlN is
    linear for three of the four pairs."""
    chi2 = {
        "GaN": {("y", "x", "y"): 4e-12, ("y", "y", "x"): 1.5e-12,
                ("y", "x", "x"): 2.5e-12, ("y", "y", "y"): -1e-12},
        "AlN": {("y", "y", "x"): 2e-12},
    }
    layers = tuple((replace(mat, chi2=chi2[mat.name]), length, poling)
                   for mat, length, poling in structure.layers)
    return StructureSpec(layers, structure.ambient_in, structure.ambient_out)


def dense_branch_amplitudes(emission, channel, w):
    """(idler-branch, signal-branch) bin matrices of one channel by plain
    loops over every mode channel and bin of the labelled dense F and the
    K x K blocks of G."""
    a, b, alpha, beta = channel
    g = {"V": emission.g_volume, "S": emission.g_surface}[w]
    f = emission.f_linear
    k = emission.bins
    idler = np.zeros((k, k), dtype=complex)
    signal = np.zeros((k, k), dtype=complex)
    for g_dir, g_pol in MODE_CHANNELS:
        gs = pair_block(g, ("s", a, alpha), (g_dir, g_pol))
        fi = f.data[f.row.offset("i", b, beta), f.col.offset("i", g_dir, g_pol)]
        fs = f.data[f.row.offset("s", a, alpha), f.col.offset("s", g_dir, g_pol)]
        gi = pair_block(g, ("i", b, beta), (g_dir, g_pol))
        for kk in range(k):
            for nn in range(k):
                for mm in range(k):
                    idler[kk, nn] += np.conj(gs[kk, mm]) * fi[nn, mm]
                    signal[kk, nn] += fs[kk, mm] * np.conj(gi[nn, mm])
    return idler, signal


def explicit_time_grid(jsa, n_time: int) -> np.ndarray:
    """|kernel @ cont @ kernel.T|^2 on the n_time-point alias-exact grid:
    the unnormalized joint detection-time density by the full double
    transform (both time axes explicit, no Parseval).  Filled in blocks
    of rows so that only the real grid is held at full size."""
    t = default_time_grid(jsa.widths, n_time)
    kernel = np.exp(-1j * np.outer(t, jsa.omega)) * jsa.widths[None, :]
    half = kernel @ jsa.continuous
    grid = np.empty((n_time, n_time))
    for start in range(0, n_time, 512):
        block = slice(start, start + 512)
        grid[block] = np.abs(half[block] @ kernel.T) ** 2
    return grid


def count_peaks(y, floor_fraction: float = 1e-3) -> int:
    """Number of strict local maxima above a floor relative to the max."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return 0
    floor = floor_fraction * y.max()
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]) & (y[1:-1] > floor)
    return int(np.count_nonzero(inner))
