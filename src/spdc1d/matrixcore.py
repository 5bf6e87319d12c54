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
response: O(N K^2) work and no matrix solve.  F, the scattering form
from ``linear.input_output_map``, is kept as it is computed: one (2, 2, K)
array per field over (out dir, in dir, bin), the same for both
polarizations.

None of these maps depends on polarization, and every kernel is one
polarization-free grid times the layer's chi2 matrix d (``spectral``).
So the feed and inverse-response scalings run on polarization-free
arrays of shape (2, 2, 2, K, K) over (row field, row dir, col dir, row
bin, col bin), summed per distinct d; d is applied only in ``_expand``,
once per distinct d for G_V and G_S and once per kept boundary source.
The layer couplings of one build share their per-(material, length)
kernel factors (``spectral.layer_couplings``).
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
    feed_in_map,
    input_output_map,
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
    layer_couplings,
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

    def response(self, l):
        """E/H continuity rows at boundary l from the outputs reached by
        the pair waves emitted there: the forward output seen through the
        right segment (medium N+1 back to layer l at z_l) minus the
        backward output seen through the left segment (medium 0 on to
        layer l-1 at z_l).  For an index array l the boundaries run along
        the second-to-last axis: shape (2, 2, len(l), K)."""
        at_left, at_right, interface = (np.moveaxis(a, 0, 2) for a in (
            self.at_left, self.at_right, self.interface))
        from_right = mat2_mul(at_left[:, :, l],
                              mat2_inv(self.at_left[-1], "full transfer"))
        forward = mat2_mul(interface[:, :, l], from_right)[:, 0]
        backward = mat2_mul(interface[:, :, l - 1], at_right[:, :, l - 1])[:, 1]
        return np.stack((forward, -backward), axis=1)

    def fed(self, edge: str):
        """Layer modes at their left or right edge from the inputs, every
        layer at once: shape (2, 2, N+2, K)."""
        at = self.at_left if edge == "left" else self.at_right
        return mat2_mul(np.moveaxis(at, 0, 2), self.feed)


def field_maps(structure: StructureSpec, basis: SpectralBasis,
               conjugate: bool = False) -> FieldMaps:
    """Linear maps of one field on its basis (conjugated for the idler)."""
    at_left, at_right = layer_transfers(structure, basis.centers, "flux")
    interface = np.array(
        structure.per_material(lambda mat: interface_bins(mat, basis)))
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
    """(J_volume, J_surface, d) of one layer side, mapping that layer's
    free modes of the column field at the boundary to continuity-row
    sources of the row field, polarization-free.

    J_volume has shape (2, 2, 2, K, K) over (row field, E/H row, col dir,
    row bin, col bin): electric = arriving kernel content, magnetic = its
    i k chi part minus the bare source coefficient.  J_surface has shape
    (2, 2, K, K) without the E/H axis: its electric rows are zero, its
    magnetic rows the bare source coefficient (whose jump across the
    boundary is the only net surface drive).  The idler-row sector is
    conjugated (creation-operator components); its row index pairs with
    signal-mode columns.  d (real) is project_to_basis's chi2 matrix per
    row field.
    """
    (ve, vh, sh), d = project_to_basis(coupling, edge, convention)
    pref = np.array([coupling.inv_sqrt_index(f)
                     for f in FIELDS])[:, None, :, None]
    j_v = np.stack((ve, vh), axis=1) * pref[:, None]
    j_s = sh * pref
    for j in (j_v, j_s):
        j[1] = np.conj(j[1])
    return j_v, j_s, d


def _expand(parts, shape):
    """(volume, surface) pair arrays sum_m d_m (x) P_m from (d, P) parts:
    d of shape (2, 2, 2) over (row field, row pol, col pol), P of shape
    (2, 2, 2, 2, K, K) over (volume/surface, row field, row dir, col dir,
    row bin, col bin)."""
    out = np.zeros((2,) + shape, dtype=complex)
    for d, p in parts:
        for f, alpha, beta in zip(*np.nonzero(d)):
            out[:, f, :, alpha, :, beta] += d[f, alpha, beta] * p[:, f]
    return out[0], out[1]


def _boundary_sources(couplings, l, fed, inverse, convention):
    """Output sources of boundary l as polarization-free (d, P) parts (see
    ``_expand``), one per distinct chi2 matrix d of its two sides.

    The kernels of each side are scaled by columns with the feed of that
    side's modes from the inputs (``fed``: per edge, shape (row field,
    col dir, channel, layer, bin)), then by rows with the boundary's
    inverse response (shape (row field, out dir, E/H, bin)); surface
    sources drive magnetic rows only.
    """
    rows = {}
    for coupling, edge, sign in ((couplings[l - 1], "right", 1.0),
                                 (couplings[l], "left", -1.0)):
        if coupling.is_dark():
            continue
        feed = fed[edge][:, :, :, coupling.l]
        j_v, j_s, d = _side_kernels(coupling, edge, convention)
        k_v = sign * np.einsum("fxbkn,fbcn->fxckn", j_v, feed)
        k_s = sign * np.einsum("fbkn,fbcn->fckn", j_s, feed)
        if d.tobytes() in rows:
            _, k_v0, k_s0 = rows[d.tobytes()]
            k_v, k_s = k_v0 + k_v, k_s0 + k_s
        rows[d.tobytes()] = (d, k_v, k_s)
    return [(d, np.stack((np.einsum("fdxk,fxckn->fdckn", inverse, k_v),
                          inverse[:, :, 1, None, :, None] * k_s[:, None])))
            for d, k_v, k_s in rows.values()]


@dataclass
class EmissionOperators:
    """Linear scattering and first-order pair-emission maps of a stack."""

    structure: StructureSpec
    basis_s: SpectralBasis
    basis_i: SpectralBasis
    pump: PumpField
    scatter: dict  # field -> per-bin F, shape (2, 2, K)
    g_volume: np.ndarray  # pair arrays (see the module docstring)
    g_surface: np.ndarray
    boundary_sources: dict  # l -> (volume, surface) pair arrays
    warnings: list

    @property
    def bins(self) -> int:
        return self.basis_s.bins

    @property
    def f_linear(self) -> BlockMatrix:
        """Labelled dense form of F, for readers outside the package."""
        return BlockMatrix.from_bins(mode_space("out", self.bins),
                                     mode_space("in", self.bins), self.scatter)


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
    scatter = {f: m.scatter for f, m in maps.items()}

    couplings = layer_couplings(structure, basis_s, basis_i, pump)
    active = [l for l in range(1, n_tot)
              if not (couplings[l - 1].is_dark() and couplings[l].is_dark())]
    # inverse responses of every active boundary, with their exact 1-norm
    # condition numbers (largest column sums per bin)
    inverse = []
    cond = np.zeros(len(active))
    for f in FIELDS:
        response = maps[f].response(np.array(active, dtype=int))
        try:
            inverse.append(mat2_inv(response, "boundary response"))
        except SingularMatrix:
            for i, l in enumerate(active):  # name the first bad boundary
                mat2_inv(response[:, :, i], f"boundary {l} response")
            raise
        norm_r, norm_inv = (np.abs(a).sum(axis=0).max(axis=0)
                            for a in (response, inverse[-1]))
        cond = np.maximum(cond, (norm_r * norm_inv).max(axis=-1))
    inverse = np.array(inverse)  # (row field, out dir, E/H, boundary, bin)
    # feed of every layer's modes at each edge, per row field (from the
    # maps of its column field)
    fed = {edge: np.array([maps[c].fed(edge) for c in ("i", "s")])
           for edge in ("left", "right")}
    shape = (2,) * 5 + (basis_s.bins, basis_i.bins)
    totals = {}  # d.tobytes() -> [d, polarization-free sum of its parts]
    sources = {l: _expand((), shape)
               for l in range(1, n_tot)} if keep_sources else {}
    warnings = []
    for i, l in enumerate(active):
        if cond[i] > CONDITION_WARN:
            warnings.append(
                f"boundary {l}: response condition number {cond[i]:.2e}"
            )
        parts = _boundary_sources(couplings, l, fed, inverse[:, :, :, i],
                                  convention)
        if keep_sources:
            sources[l] = _expand(parts, shape)
        for d, p in parts:
            total = totals.setdefault(d.tobytes(), [d, 0.0])
            total[1] += p
    g_v, g_s = _expand(totals.values(), shape)

    for name, mat in (("F", list(scatter.values())), ("G_V", g_v),
                      ("G_S", g_s)):
        if not np.all(np.isfinite(mat)):
            raise ConfigError(f"non-finite entries in {name}")
    return EmissionOperators(
        structure=structure,
        basis_s=basis_s,
        basis_i=basis_i,
        pump=pump,
        scatter=scatter,
        g_volume=g_v,
        g_surface=g_s,
        boundary_sources=sources,
        warnings=warnings,
    )
