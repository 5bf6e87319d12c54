"""Layered-structure pair-emission operators on per-frequency arrays.

The mode super-space stacks the signal annihilation sector and the idler
creation sector, each with channels (F,x), (B,x), (F,y), (B,y) times the
frequency bins.  At normal incidence in isotropic layers every linear map
is a 2x2 per field and frequency bin, identical for both polarizations,
so it is stored as an array of shape (2, 2, K) over (row channel, column
channel, bin).  The transfers come from ``linear.layer_transfers`` in the
flux convention; because the idler entries are creation operators, every
idler map is the complex conjugate of the same map on the idler basis.

The pair operators G_V, G_S and the per-boundary sources map one
field's inputs to the other field's outputs.  Each is one complex array
of shape (2, 2, 2, 2, 2, K, K) over

    (row field, row dir, row pol, col dir, col pol, row bin, col bin)

in ``FIELDS``/``DIRS``/``POLS`` order; the column field is always the
other field (signal rows take idler columns and vice versa).
``pair_block`` reads one K x K block and ``BlockMatrix.from_pairs``
expands an array into the labelled dense form.

Boundary continuity (electric and magnetic rows, both polarizations,
both fields) yields, per boundary l between layers l-1 and l:

* a linear interface relation  L^(l-1) A^(l-1) = L^(l) A^(l),
* a volume pair source fed by the kernel content arriving with the
  ingoing mode of each side, and
* a surface pair source fed by the jump of the bare magnetic source
  coefficient across the boundary.

The emitted pair waves of one boundary propagate as free fields to the
structure outputs.  Writing the left-going part through the forward
transfer of the left segment and the right-going part through the
backward transfer of the right segment gives a 2x2 response per bin
whose inverse maps continuity sources to output amplitudes.  Each
boundary source is therefore the kernel array scaled by columns with the
per-bin feed of its input modes and by rows with the per-bin inverse
response, accumulated straight into G_V and G_S: O(N K^2) work and no
matrix solve.  Only F is returned as a labelled ``BlockMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmatrix import FIELDS, BlockMatrix, mode_space
from .constants import CONSTANTS
from .errors import ConfigError, SingularMatrix
from .linear import (
    PumpField,
    PumpSpec,
    layer_transfers,
    mat2_inv,
    mat2_mul,
    propagate_pump,
)
from .materials import refractive_index
from .spectral import (
    DIRS,
    POLS,
    LayerCoupling,
    SpectralBasis,
    project_to_basis,
)
from .structure import StructureSpec

CONDITION_WARN = 1e12


def overlap_matrices(material, basis: SpectralBasis):
    """Diagonal single-frequency overlaps of the top-hat basis.

    Returns (i_e, i_h_f, i_h_b): entries 1/sqrt(n(w_k)) and
    +-i k(w_k)/sqrt(n(w_k)) on the bin centers.
    """
    w = basis.centers
    n = refractive_index(material, w)
    i_e = 1.0 / np.sqrt(n)
    i_h_f = 1j * w / CONSTANTS.c * n / np.sqrt(n)
    return i_e, i_h_f, -i_h_f


def interface_bins(material, basis: SpectralBasis):
    """Boundary-continuity map L of one layer per bin: (E, H) rows from
    (F, B) mode amplitudes, shape (2, 2, K)."""
    i_e, i_h_f, i_h_b = overlap_matrices(material, basis)
    return np.array([[i_e, i_e], [i_h_f, i_h_b]])


def propagator_bins(material, length, basis: SpectralBasis):
    """Free propagation across one layer per bin: diag(e^{ikL}, e^{-ikL})."""
    k = basis.centers / CONSTANTS.c * refractive_index(material, basis.centers)
    phase = np.exp(1j * k * length)
    zero = np.zeros_like(phase)
    return np.array([[phase, zero], [zero, 1.0 / phase]])


def input_output_map(t):
    """Scattering form F of the full transfer, per bin.

    Inputs are the forward mode at z_1 and the backward mode at z_{N+1};
    outputs the forward mode at z_{N+1} and the backward mode at z_1.
    """
    if np.any(t[1, 1] == 0.0):
        raise SingularMatrix("singular matrix input-output")
    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    return np.array([[det, t[0, 1]], [-t[1, 0], np.ones_like(det)]]) / t[1, 1]


def feed_in_map(f):
    """W per bin: medium-0 modes at z_1 from the inputs (the forward mode
    passes the input through, the backward mode is F's left-exit row)."""
    one = np.ones_like(f[0, 0])
    return np.array([[one, np.zeros_like(one)], f[1]])


@dataclass(frozen=True)
class FieldMaps:
    """Per-bin 2x2 linear maps of one field sector, flux convention.

    at_left[l] / at_right[l]: layer-l modes at z_l / z_{l+1} from medium-0
    modes at z_1; interface[l]: L of layer l (stacks of shape
    (N+2, 2, 2, K)).  scatter: F; feed: W (shape (2, 2, K)).
    """

    at_left: np.ndarray
    at_right: np.ndarray
    interface: np.ndarray
    scatter: np.ndarray
    feed: np.ndarray

    def response(self, l: int):
        """E/H continuity rows at boundary l from the outputs reached by
        the pair waves emitted there: the forward output seen through the
        right segment (medium N+1 back to layer l at z_l) minus the
        backward output seen through the left segment (medium 0 on to
        layer l-1 at z_l)."""
        from_right = mat2_mul(self.at_left[l],
                              mat2_inv(self.at_left[-1], "full transfer"))
        forward = mat2_mul(self.interface[l], from_right)[:, 0]
        backward = mat2_mul(self.interface[l - 1], self.at_right[l - 1])[:, 1]
        return np.stack((forward, -backward), axis=1)


def field_maps(structure: StructureSpec, basis: SpectralBasis,
               conjugate: bool = False) -> FieldMaps:
    """Linear maps of one field on its basis (conjugated for the idler)."""
    at_left, at_right = layer_transfers(structure, basis.centers, "flux")
    interface = np.array([
        interface_bins(structure.material(l), basis)
        for l in range(structure.n_layers + 2)
    ])
    if conjugate:
        at_left, at_right = np.conj(at_left), np.conj(at_right)
        interface = np.conj(interface)
    scatter = input_output_map(at_left[-1])
    return FieldMaps(at_left, at_right, interface, scatter, feed_in_map(scatter))


def linear_maps(structure: StructureSpec, basis_s: SpectralBasis,
                basis_i: SpectralBasis) -> dict:
    """{'s': signal maps on basis_s, 'i': conjugated maps on basis_i}."""
    if basis_s.bins != basis_i.bins:
        raise ConfigError("signal and idler bases must share the bin count")
    return {"s": field_maps(structure, basis_s),
            "i": field_maps(structure, basis_i, conjugate=True)}


def outward_maps(maps: FieldMaps, l: int):
    """(X(z_l), Y, Z) per bin: free propagation of emitted pairs to the outputs.

    Z inverts the scattering map; Y rebuilds the medium-0 mode vector of
    the equivalent-input solution from the outputs (backward outputs
    already sit at z_1); X carries that vector to the outgoing modes at
    boundary l (forward row in layer l, backward row in layer l-1).
    """
    z_map = mat2_inv(maps.scatter, "scattering map")
    one = np.ones_like(z_map[0, 0])
    y = np.array([z_map[0], [np.zeros_like(one), one]])
    x = np.array([maps.at_left[l][0], maps.at_right[l - 1][1]])
    return x, y, z_map


def pair_block(pairs, row, col):
    """K x K block of a pair array: row label (field, dir, pol), column
    label (dir, pol) of the other field."""
    field, a, alpha = row
    b, beta = col
    return pairs[FIELDS.index(field), DIRS.index(a), POLS.index(alpha),
                 DIRS.index(b), POLS.index(beta)]


def _side_kernels(coupling: LayerCoupling, edge: str, convention="local-jump"):
    """(J_volume, J_surface) of one layer side, mapping that layer's free
    modes of the column field at the boundary to continuity-row sources
    of the row field; pair-array layout with E/H in place of the row
    direction.

    Volume rows: electric = arriving kernel content, magnetic = its
    i k chi part minus the bare source coefficient.  Surface rows:
    electric zero, magnetic = the bare source coefficient (whose jump
    across the boundary is the only net surface drive).  The idler-row
    sector is conjugated (creation-operator components); its row index
    pairs with signal-mode columns.
    """
    pref = np.array([overlap_matrices(coupling.material, basis)[0]
                     for basis in (coupling.basis_s, coupling.basis_i)])
    ve, vh, sh = (pref[:, None, None, None, :, None] * kern
                  for kern in project_to_basis(coupling, edge, convention))
    zero = np.zeros_like(ve)
    j_v, j_s = np.stack((ve, vh), axis=1), np.stack((zero, sh), axis=1)
    for j in (j_v, j_s):
        j[1] = np.conj(j[1])
    return j_v, j_s


@dataclass
class EmissionOperators:
    """Linear scattering and first-order pair-emission maps of a stack."""

    structure: StructureSpec
    basis_s: SpectralBasis
    basis_i: SpectralBasis
    pump: PumpField
    f_linear: BlockMatrix  # labelled dense F
    g_volume: np.ndarray  # pair arrays (see the module docstring)
    g_surface: np.ndarray
    boundary_sources: dict  # l -> (volume, surface) pair arrays
    warnings: list

    @property
    def bins(self) -> int:
        return self.basis_s.bins


def build_emission(
    structure: StructureSpec,
    pump_spec: PumpSpec,
    basis_s: SpectralBasis,
    basis_i: SpectralBasis,
    keep_sources: bool = False,
    convention: str = "local-jump",
) -> EmissionOperators:
    """Assemble the scattering map and the volume/surface emission maps."""
    maps = linear_maps(structure, basis_s, basis_i)
    sums = np.unique(
        (basis_s.centers[:, None] + basis_i.centers[None, :]).ravel()
    )
    pump = propagate_pump(structure, pump_spec, sums)
    n_tot = structure.n_layers + 2
    out_sp = mode_space("out", basis_s.bins)
    in_sp = mode_space("in", basis_s.bins)
    f_map = BlockMatrix.from_bins(out_sp, in_sp,
                                  {f: m.scatter for f, m in maps.items()})

    couplings = [
        LayerCoupling(structure, l, basis_s, basis_i, pump)
        for l in range(n_tot)
    ]
    shape = (2,) * 5 + (basis_s.bins, basis_i.bins)
    g_v = np.zeros(shape, dtype=complex)
    g_s = np.zeros(shape, dtype=complex)
    col_maps = [maps["i"], maps["s"]]  # column field of each row field
    sources = {}
    warnings = []
    for l in range(1, n_tot):
        left, right = couplings[l - 1], couplings[l]
        if left.is_dark() and right.is_dark():
            if keep_sources:
                sources[l] = (np.zeros(shape, dtype=complex),
                              np.zeros(shape, dtype=complex))
            continue
        inverse, cond = [], 0.0
        for f in FIELDS:
            response = maps[f].response(l)
            inverse.append(mat2_inv(response, f"boundary {l} response"))
            # exact 1-norm condition number per bin: largest column sums
            norm_r, norm_inv = (np.abs(a).sum(axis=0).max(axis=0)
                                for a in (response, inverse[-1]))
            cond = max(cond, float(np.max(norm_r * norm_inv)))
        if cond > CONDITION_WARN:
            warnings.append(
                f"boundary {l}: response condition number {cond:.2e}"
            )
        # continuity-row sources: the kernels of each side, scaled by
        # columns with the feed of that side's modes from the inputs
        k_v = k_s = 0.0
        for coupling, edge, sign, modes in (
                (left, "right", 1.0, [m.at_right[l - 1] for m in col_maps]),
                (right, "left", -1.0, [m.at_left[l] for m in col_maps])):
            if coupling.is_dark():
                continue
            feed = np.array([mat2_mul(t, m.feed)
                             for t, m in zip(modes, col_maps)])
            j_v, j_s = _side_kernels(coupling, edge, convention)
            k_v = k_v + sign * np.einsum("fxpbqkn,fbcn->fxpcqkn", j_v, feed)
            k_s = k_s + sign * np.einsum("fxpbqkn,fbcn->fxpcqkn", j_s, feed)
        # output amplitudes: rows scaled with the inverse response
        s_v, s_s = (np.einsum("fdxk,fxpcqkn->fdpcqkn", inverse, k)
                    for k in (k_v, k_s))
        g_v += s_v
        g_s += s_s
        if keep_sources:
            sources[l] = (s_v, s_s)

    for name, mat in (("F", f_map.data), ("G_V", g_v), ("G_S", g_s)):
        if not np.all(np.isfinite(mat)):
            raise ConfigError(f"non-finite entries in {name}")
    return EmissionOperators(
        structure=structure,
        basis_s=basis_s,
        basis_i=basis_i,
        pump=pump,
        f_linear=f_map,
        g_volume=g_v,
        g_surface=g_s,
        boundary_sources=sources,
        warnings=warnings,
    )
