"""Layered-structure pair-emission operators on per-frequency arrays.

The mode super-space stacks the signal annihilation sector and the idler
creation sector, each with channels (F,x), (B,x), (F,y), (B,y) times the
frequency bins.  In a lossless stack every idler creation-operator map is
the complex conjugate of the signal map, so only the signal sector is
stored; readers form the idler sector by conjugation.  At normal
incidence in isotropic layers every linear map is a 2x2 per frequency
bin, identical for both polarizations, so it is stored as an array of
shape (2, 2, K) over (row channel, column channel, bin), from one
``linear.field_maps`` solve on the bin centers followed by the lit bin
sums, whose part the pump takes (flux-normalized amplitudes throughout).

The pair operators G_V, G_S and each boundary's sources map idler
inputs to signal outputs.  Each is one complex array of shape
(2, 2, 2, 2, K, K) over

    (row dir, signal pol, col dir, idler pol, signal bin, idler bin)

in ``DIRS``/``POLS`` order.  The bin-sum grid is exactly symmetric, so
the idler rows are the conjugates with the polarizations exchanged, bin
for bin: idler row (b, beta), signal column (c, alpha) is
conj(pairs[b, alpha, c, beta]).  ``pair_block`` reads one K x K block.
``BlockMatrix.from_pairs`` expands an array into the labelled dense
form of both sectors by two strided writes: the signal rows, and the
idler rows conjugated and added into zeros.

Boundary continuity (electric and magnetic rows, both polarizations,
both fields) yields, per boundary l between layers l-1 and l:

* a linear interface relation  L^(l-1) A^(l-1) = L^(l) A^(l),
* a volume pair source fed by the kernel content arriving with the
  ingoing mode of each side, and
* a surface pair source fed by the jump of the bare magnetic source
  coefficient across the boundary.

The emitted pair waves of one boundary propagate as free fields to the
structure outputs.  A continuity source s at boundary l is matched by the
medium-0 modes c = (L_l at_left[l])^-1 s at z_1, and these leave as t c_F
forward and r c_F - c_B backward, with t = F[0, 0] and r = F[1, 0] of the
one scattering solve.  So the inverse response, from continuity sources
to outputs, is [[t, 0], [r, -1]] (L_l at_left[l])^-1 per bin.  The flux
transfers are unimodular, so det(L_l at_left[l]) = det(L_l) = -2iw/c at
every boundary (one Wronskian per bin), and det(response_l) =
-det(L_0)/t.  Each boundary source is therefore the kernel array scaled
by columns with the per-bin feed of its input modes and by rows with the
per-bin inverse response: O(N K^2) work and no matrix solve.  F, the
scattering form of the solve, is kept as it is computed: one (2, 2,
K) array over (out dir, in dir, bin), the same for both polarizations.

None of these maps depends on polarization, and every kernel is one
polarization-free grid times the layer's chi2 matrix d (``spectral``).
Sources are formed only on the E lit entries (row bin, col bin) whose
bin sum the pump lights (``spectral``), with the per-bin feeds and
inverse responses gathered at the entries' col and row bins.  So the
scalings run on arrays of shape (2, 2, 2, E) over (volume/surface, row
dir, col dir, lit entry), summed in place into one zeroed buffer per
distinct d; ``_expand`` applies d, once per buffer, and scatters the
entries into zeroed K x K grids (a dark entry is an exact +0).  The
columns are the idler inputs, so the feed is the conjugated signal feed.

A layer's kernels depend on the layer only through its (material,
length) class, except for the pump weight a_g, its poling sign times
the pump amplitude of direction g (``spectral.class_kernels``,
``spectral.pump_weights``).  ``build_emission`` groups the nonlinear
layers into these classes, keyed on the material object and the length,
and runs one class pass per class and edge: the class kernels of both
edges are formed once; each layer's kernels are sum_g a_g kernels[g],
scaled by columns with that layer's feed and by rows with the inverse
response of its boundary (the right edge of layer l sits at boundary
l+1 and is added, the left edge at boundary l and is subtracted) times
1/sqrt(n); and the layers are summed.  The class kernels hold the
arriving kernel chi and the surface kernel s only; the magnetic volume
row is i k_a chi - s, so a pass forms the total source from the rows
E + i k_a H times the fed chi and the surface source from the H rows
times the fed s, and takes volume = total - surface.  A pass is plain
elementwise arithmetic on arrays with the layer axis leading, (L, ...,
*G, E), summed over that axis: a few multiply-adds per (layer,
geometry, lit entry).  The layers go through in chunks of at most
``_CLASS_CHUNK`` // K^2 layers (at least one): at K = 12 the 10 GaN
layers of the example form one chunk, at K >= 64 every layer is its
own.  With ``boundary`` = l, G_V and G_S are boundary l's source alone:
the passes run over the right edge of layer l-1 and the left edge of
layer l only, into a buffer each, and only boundary l's response is
inverted.  Summed over the boundaries, the sources give G_V and G_S.

A stack whose layer lengths are arrays over a geometry grid G
(``StructureSpec.grid``) is built once for every geometry: each array
then carries the axes *G just before its bin or entry axes, so G_V is
(2, 2, 2, 2, *G, K, K), F is (2, 2, *G, K), a boundary
response (2, 2, *G, K) and a class pass holds its chunk's layers for
every geometry.  A geometry-grid length keys its class by its array
object, as in ``linear.layer_transfers``; the interface maps carry
unit G axes, and a class length with fewer axes than G (a scalar among
them) is given unit axes for the missing ones before its kernels are
formed, so both broadcast; the condition warning of a boundary reports
its worst geometry.  With G = () every shape is the single-structure
one.  The caller bounds the size of G (``runner.scan`` builds its ridge
cells in chunks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmatrix import BlockMatrix
from .constants import CONSTANTS
from .errors import ConfigError, SingularMatrix
from .linear import (
    FieldMaps,
    PumpField,
    PumpSpec,
    field_maps,
    mat2_inv,
    mat2_mul,
    pump_field,
)
from .materials import refractive_index
from .spectral import (
    DIRS,
    POLS,
    SpectralBasis,
    bin_sums,
    chi2_matrix,
    class_kernels,
    pump_weights,
)
from .structure import StructureSpec

CONDITION_WARN = 1e12
# layers x K^2 per class pass, dark entries counted: layers group as on K x K
_CLASS_CHUNK = 4096


def propagator_bins(material, length, basis: SpectralBasis):
    """Free propagation across one layer per bin: diag(e^{ikL}, e^{-ikL})."""
    k = basis.centers / CONSTANTS.c * refractive_index(material, basis.centers)
    phase = np.exp(1j * k * length)
    zero = np.zeros_like(phase)
    return np.array([[phase, zero], [zero, 1.0 / phase]])


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


def inverse_responses(maps: FieldMaps, boundaries):
    """(inverse, cond) of the boundaries along axis 2.  The inverse
    response, from E/H continuity sources at boundary l to the outputs
    (forward, backward), is [[t, 0], [r, -1]] (L_l at_left[l])^-1 with
    t = F[0, 0] and r = F[1, 0]; cond is the exact 1-norm condition
    number of the response L_l at_left[l] [[1/t, 0], [r/t, -1]] at its
    worst geometry and bin.  The rows L_l at_left[l] are formed and
    inverted once; a singular response raises SingularMatrix naming its
    boundary."""
    rows = maps.boundary_rows(np.array(boundaries, dtype=int))
    try:
        inverse_rows = mat2_inv(rows, "boundary response")
    except SingularMatrix:
        for i, l in enumerate(boundaries):  # name the first bad boundary
            mat2_inv(rows[:, :, i], f"boundary {l} response")
        raise
    t, r = maps.scatter[0, 0], maps.scatter[1, 0]
    zero = np.zeros_like(t)
    inverse = mat2_mul(np.array([[t, zero], [r, zero - 1.0]]), inverse_rows)
    response = mat2_mul(rows, np.array([[1.0 / t, zero], [r / t, zero - 1.0]]))
    norm_r, norm_inv = (np.abs(a).sum(axis=0).max(axis=0)
                        for a in (response, inverse))
    cond = norm_r * norm_inv
    return inverse, cond.max(axis=tuple(range(1, cond.ndim)))


def pair_block(pairs, row, col):
    """K x K block of a pair array: signal row label (dir, pol), idler
    column label (dir, pol)."""
    (a, alpha), (b, beta) = row, col
    return pairs[DIRS.index(a), POLS.index(alpha), DIRS.index(b),
                 POLS.index(beta)]


def _expand(parts, shape, lit):
    """(volume, surface) pair arrays sum_m d_m (x) P_m from (d, P) parts:
    d of shape (2, 2) over (signal pol, idler pol), P of shape (2, 2, 2,
    *G, E) over (volume/surface, row dir, col dir, geometry, lit entry),
    scattered into zeros at the lit (row bin, col bin) entries."""
    rows, cols, _ = lit
    out = np.zeros((2,) + shape, dtype=complex)
    for d, p in parts:
        for alpha, beta in zip(*np.nonzero(d)):
            out[:, :, alpha, :, beta][..., rows, cols] += d[alpha, beta] * p
    return out[0], out[1]


def _class_pass(kernels, weights, feed, rows):
    """(volume, surface) output sources of a chunk of layers of one class
    at one edge, summed over the layers (see ``_expand`` for the layout).

    kernels: ``class_kernels`` of the class at the edge, (chi, surface,
    ik); weights: the layers' ``pump_weights``, shape (L, g, *G, E);
    feed: the layers' modes at the edge from the inputs at each lit
    entry's col bin, (col dir, channel, L, *G, E); rows: the inverse
    response of each layer's boundary times 1/sqrt(n) at its row bin,
    (out dir, E/H, L, *G, E).  Volume is the total (E + ik H rows times
    the fed chi) minus the surface source (H rows times the fed surface
    kernel).
    """
    chi, surface, ik = kernels
    a = weights[:, :, None]
    j0 = a[:, 0] * chi[0] + a[:, 1] * chi[1]  # (L, col dir, *G, E)
    j_s = weights[:, 0] * surface[0] + weights[:, 1] * surface[1]
    fed = np.moveaxis(feed, 2, 0)  # (L, b, c, *G, E)
    k0 = j0[:, :1] * fed[:, 0] + j0[:, 1:] * fed[:, 1]  # (L, c, ...)
    r = np.moveaxis(rows, 2, 0)  # (L, d, E/H, *G, E)
    r_t = r[:, :, 0] + ik * r[:, :, 1]
    p_total = (r_t[:, :, None] * k0[:, None]).sum(axis=0)
    p_s = (r[:, :, 1, None]
           * (j_s[:, None] * (fed[:, 0] + fed[:, 1]))[:, None]).sum(axis=0)
    p_total -= p_s
    return p_total, p_s


@dataclass
class EmissionOperators:
    """Linear scattering and first-order pair-emission maps of a stack."""

    structure: StructureSpec
    basis: SpectralBasis
    pump: PumpField
    scatter: np.ndarray  # per-bin F, shape (2, 2, *G, K)
    g_volume: np.ndarray  # pair arrays (see the module docstring)
    g_surface: np.ndarray
    warnings: list

    @property
    def f_linear(self) -> BlockMatrix:
        """Labelled dense form of F, its idler sector conj(F), for readers
        outside the package.  Over a geometry grid its bins run over
        (geometry, bin) in C order."""
        bins = self.scatter[0, 0].size
        f = self.scatter.reshape(2, 2, bins)
        return BlockMatrix.from_bins({"s": f, "i": np.conj(f)})


def build_emission(
    structure: StructureSpec,
    pump_spec: PumpSpec,
    basis: SpectralBasis,
    boundary: int | None = None,
    convention: str = "local-jump",
) -> EmissionOperators:
    """Assemble the scattering map and the volume/surface emission maps;
    with ``boundary`` = l, G_V and G_S are boundary l's source alone."""
    n_tot = structure.n_layers + 2
    if boundary is not None and not 1 <= boundary < n_tot:
        raise ConfigError(f"no boundary {boundary} in 1..{n_tot - 1}")
    # one solve on the bin centers and the lit bin sums
    sums, index = bin_sums(basis)
    both = field_maps(structure, np.concatenate(
        (basis.centers, sums[pump_spec.active_mask(sums)])))
    maps = both.select(slice(basis.bins))
    pump = pump_field(pump_spec, sums, both.select(slice(basis.bins, None)))
    rows, cols = np.nonzero(pump.mask[index])
    lit = (rows, cols, index[rows, cols])

    d_of = structure.per_material(
        lambda mat: chi2_matrix(mat, pump.polarization))
    dark = [not np.any(d) for d in d_of]
    active = [l for l in (range(1, n_tot) if boundary is None else [boundary])
              if not (dark[l - 1] and dark[l])]
    inverse, cond = inverse_responses(maps, active)
    warnings = [f"boundary {l}: response condition number {c:.2e}"
                for l, c in zip(active, cond) if c > CONDITION_WARN]
    # feed of every layer's modes at each edge from the idler inputs
    fed = {edge: np.conj(maps.fed(edge)) for edge in ("left", "right")}
    # drop the march; keep F and each layer's 1/sqrt(n) (its E row)
    scatter, e_rows = maps.scatter, maps.interface[:, 0, 0].real
    del both, maps
    position = {l: i for i, l in enumerate(active)}
    # (material object, length) -> its nonlinear layers (next to boundary);
    # a geometry-grid length is named by its array, as in layer_transfers
    classes = {}
    for l in range(1, n_tot - 1):
        if not dark[l] and boundary in (None, l, l + 1):
            length = structure.length(l)
            key = (id(structure.material(l)),
                   id(length) if isinstance(length, np.ndarray) else length)
            classes.setdefault(key, []).append(l)
    per_chunk = max(1, _CLASS_CHUNK // basis.bins**2)
    shape = (2,) * 4 + structure.grid + (basis.bins, basis.bins)
    # d.tobytes() -> (d, its (volume, surface) sum); with boundary, one per
    # edge, so the source is d P_right + d P_left, not d (P_right + P_left)
    totals = {}
    for members in classes.values():
        mat, d = structure.material(members[0]), d_of[members[0]]
        # unit axes for the grid's dimensions that the length lacks
        length = structure.length(members[0])
        length = np.reshape(length, (1,) * (len(structure.grid)
                                            - np.ndim(length))
                            + np.shape(length))
        pref = e_rows[members[0]]
        kernels = class_kernels(mat, length, basis, pump, lit, convention)
        for start in range(0, len(members), per_chunk):
            ls = np.array(members[start:start + per_chunk])
            weights = pump_weights(structure, pump, lit[2], ls)
            # a layer's right edge is boundary l + 1, added, its left edge
            # boundary l, subtracted; with ``boundary`` only the edges on it
            for edge, shift, op in (("right", 1, np.add),
                                    ("left", 0, np.subtract)):
                on = np.s_[:] if boundary is None else ls + shift == boundary
                if not ls[on].size:
                    continue
                resp = inverse[:, :, [position[l + shift] for l in ls[on]]]
                parts = _class_pass(kernels[edge], weights[on],
                                    fed[edge][:, :, ls[on]][..., cols],
                                    (resp * pref)[..., rows])
                tag = d.tobytes() if boundary is None else (d.tobytes(), edge)
                if tag not in totals:
                    totals[tag] = (d, np.zeros((2,) + parts[0].shape,
                                               dtype=complex))
                for acc, part in zip(totals[tag][1], parts):
                    op(acc, part, out=acc)
    g_v, g_s = _expand(totals.values(), shape, lit)

    for name, mat in (("F", scatter), ("G_V", g_v), ("G_S", g_s)):
        if not np.all(np.isfinite(mat)):
            raise ConfigError(f"non-finite entries in {name}")
    return EmissionOperators(structure, basis, pump, scatter, g_v, g_s,
                             warnings)
