"""Layered-structure pair-emission operators on per-frequency arrays.

The mode super-space stacks the signal annihilation sector and the idler
creation sector, each with channels (F,x), (B,x), (F,y), (B,y) times the
frequency bins.  In a lossless stack every idler map is the complex
conjugate of the signal map, so only the signal sector is stored.  At
normal incidence in isotropic layers every linear map is a 2x2 per bin,
the same for both polarizations: an array of shape (2, 2, K) over (row
channel, column channel, bin), of flux-normalized amplitudes.

The pair operators G_V, G_S and each boundary's sources map idler
inputs to signal outputs.  They are kept as parts (d, P): d the 2x2
chi2 matrix over (signal pol, idler pol), P of shape (3, 2, 2, E) over
(slab, row dir, col dir, lit entry) on the E lit entries (row bin, col
bin) whose bin sum the pump lights.  The slabs T (total), S_R (right-
edge surface sum) and S_L (left-edge surface sum, subtracted) hold no
attribution: ``EmissionOperators.pairs`` reads the emission's
``attribution`` from them by one sign table, G_S = sigma S_R + S_L and
G_V = T - G_S (sigma = +1 for 'local-jump', -1 for 'per-slot'), and
forms on demand the blocks of sum_m d_m (x) G_m, of shape (2, 2, 2, 2,
K, K) over (row dir, signal pol, col dir, idler pol, signal bin, idler
bin) in ``DIRS``/``POLS`` order, or their lit entries, adding the parts
into zeros in turn (a dark entry is an exact +0).  The bin-sum grid is
exactly symmetric, so idler row (b, beta), signal column (c, alpha) is
conj(pairs[b, alpha, c, beta]), bin for bin.

Boundary continuity (electric and magnetic rows) yields, per boundary l
between layers l-1 and l, a linear interface relation L^(l-1) A^(l-1) =
L^(l) A^(l), a volume pair source fed by the kernel content arriving
with the ingoing mode of each side, and a surface pair source fed by
the jump of the bare magnetic source coefficient across the boundary.
The emitted pairs propagate as free fields to the outputs: a source s
at boundary l is matched by the medium-0 modes c = (L_l at_left[l])^-1
s at z_1, which leave as t c_F forward and r c_F - c_B backward (t =
F[0, 0], r = F[1, 0]).  So the inverse response is [[t, 0], [r, -1]]
(L_l at_left[l])^-1 per bin; the transfers are unimodular, so its
determinant is -det(L_0)/t at every boundary.  Each boundary source is
the kernel array scaled by columns with the per-bin feed of its input
modes and by rows with the inverse response: O(N K^2) work and no
matrix solve.

Every kernel is one polarization-free grid times the layer's chi2
matrix d (``spectral``), formed only on the lit entries, with the feeds
and inverse responses gathered at the entries' col and row bins.  So
the scalings run on arrays of shape (2, 2, 2, E), summed in place into
one zeroed P per distinct d.  The columns are the idler inputs, so the
feed is the conjugated signal feed.

A build is two stages, neither of them attribution-dependent.  The
solve (``solve_emission``): one march on the bin centers and the lit
bin sums (``spectral.bin_solve``) gives F, the pump, every boundary's
inverse response and condition number and the edge feeds; then the
class kernels.  A layer's kernels depend on it only through its
(material, length) class, except for the pump weight a_g, its poling
sign times the pump amplitude of direction g (``spectral.pump_weights``),
so the solve groups the nonlinear layers into classes keyed on the
material object and the length and forms the kernels of both edges once
per class, with the surface kernel +Q.  The assembly
(``assemble_emission``), optionally of one boundary, runs one class pass
per class and edge: each layer's kernels are sum_g a_g kernels[g],
scaled by columns with its feed and by rows with its boundary's inverse
response times 1/sqrt(n) (the right edge of layer l is boundary l+1,
added, the left edge boundary l, subtracted), summed over the layers.
A pass forms the total source from the rows E + i k_a
H times the fed chi and the surface source from the H rows times the fed
Q: a few multiply-adds per (layer, geometry, lit entry) on arrays with
the layer axis leading.  The layers go in chunks of at most
``_CLASS_CHUNK`` // E (at least one), a budget in lit entries: the 10
GaN layers of the example form one chunk up to K = 32 (E = 154), chunks
of 3 at K = 64 (E = 674), and from K = 96 (E = 1560) every layer is its
own.  With ``boundary`` = l the passes run over the right edge of layer
l-1 and the left edge of layer l only, and only boundary l's warning is
reported: the slabs are boundary l's source, and the sources sum to the
full slabs.  ``build_emission`` composes the two stages;
``runner.verify`` assembles several boundaries and stacks from their
solves.  Nothing is kept between calls.

A stack whose layer lengths are arrays over a geometry grid G
(``StructureSpec.grid``) is built once for every geometry: each array
carries the axes *G just before its bin or entry axes (P is (3, 2, 2,
*G, E), F (2, 2, *G, K)).  A geometry-grid length keys its class
by its array object, as in ``linear.layer_transfers``; the interface
maps carry unit G axes, and a class length with fewer axes than G gets
unit axes for the missing ones, so both broadcast; a boundary's
condition warning reports its worst geometry.  The caller bounds the
size of G (``runner.scan`` builds its ridge cells in chunks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, NumericalBreakdown, SingularMatrix
from .linear import FieldMaps, PumpField, PumpSpec, mat2_inv, mat2_mul
from .materials import refractive_index
from .spectral import (
    SPLIT_CONVENTIONS,
    SpectralBasis,
    bin_solve,
    chi2_matrix,
    class_kernels,
    pump_weights,
)
from .structure import StructureSpec

CONDITION_WARN = 1e12
# layers x lit entries per class pass: its (layers, 2, 2, E) complex
# temporaries stay within 128 KiB; larger chunks ran slower at K >= 48
_CLASS_CHUNK = 2048


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
    """(inverse, cond) of the boundaries along axis 2: the inverse
    response [[t, 0], [r, -1]] (L_l at_left[l])^-1 (t = F[0, 0], r =
    F[1, 0]), from E/H continuity sources at boundary l to the outputs,
    and the exact 1-norm condition number of the response L_l at_left[l]
    [[1/t, 0], [r/t, -1]] at its worst geometry and bin.  A singular
    response raises SingularMatrix naming its boundary."""
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


def _class_pass(kernels, weights, feed, rows):
    """(total, surface) output sources of a chunk of layers of one class
    at one edge, summed over the layers (module docstring).

    kernels: the class's (chi, surface, ik) at the edge; weights: the
    layers' ``pump_weights``, (L, g, *G, E); feed: the layers' modes at
    the edge from the inputs at each lit entry's col bin, (col dir,
    channel, L, *G, E); rows: each layer's boundary's inverse response
    times 1/sqrt(n) at its row bin, (out dir, E/H, L, *G, E).  The total
    is the E + ik H rows times the fed chi, the surface source the H rows
    times the fed surface kernel.
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
    return p_total, p_s


def dense_index(field, pol, direction, bins, n):
    """Index of bin n of channel (direction, pol) of a field (0 signal, 1
    idler) in the labelled dense form of a dump, (field, pol, direction,
    bin) in C order; a continuity row (kind, pol) is (field, kind, pol, bin)."""
    return ((field * 2 + pol) * 2 + direction) * bins + n


def bin_entries(sectors, continuity=False):
    """(rows, cols, values) in the dense form of per-bin 2x2 maps of both
    fields, sectors (field, row kind, column dir, bin): entry (r, c, n) of
    field f sits at row f/r/pol/n, a continuity row with ``continuity``,
    and column f/c/pol/n, for both pols."""
    bins = sectors.shape[-1]
    f, pol, r, c, n = np.ix_(*map(range, (2, 2, 2, 2, bins)))
    rows = (dense_index(f, r, pol, bins, n) if continuity
            else dense_index(f, pol, r, bins, n))
    return rows, dense_index(f, pol, c, bins, n), sectors[:, None]


# (row dir, signal pol, col dir, idler pol) of each block of a pair array
_LABELS = np.stack(np.indices((2,) * 4), axis=-1)
# sigma of each surface attribution: G_S = sigma S_R + S_L, G_V = T - G_S
_RIGHT_SIGN = dict(zip(SPLIT_CONVENTIONS, (1.0, -1.0)))


@dataclass
class EmissionOperators:
    """Linear scattering and first-order pair-emission maps of a stack."""

    structure: StructureSpec
    basis: SpectralBasis
    pump: PumpField
    scatter: np.ndarray  # per-bin F, shape (2, 2, *G, K)
    lit: tuple  # lit entries (rows, cols, sums)
    parts: list  # (d, P), P the slabs T, S_R, S_L (module docstring)
    warnings: list
    attribution: str = "local-jump"

    def attributed(self, name):
        """The same emission read under surface attribution ``name``."""
        if name not in _RIGHT_SIGN:
            raise ConfigError(f"unknown split convention {name!r}")
        return replace(self, attribution=name)

    def pairs(self, w, index=..., lit_only=False):
        """Blocks ``index`` (into row dir, signal pol, col dir, idler pol)
        of the pair array of w, 'V' or 'S', or with ``lit_only`` their lit
        entries (..., *G, E): each part with nonzero d read under the
        attribution, in order, added into zeros and scattered to the lit
        (row bin, col bin)."""
        r, alpha, c, beta = np.moveaxis(_LABELS[index], -1, 0)
        shape = r.shape + self.scatter.shape[2:-1]
        lit = np.zeros(shape + self.lit[0].shape, dtype=complex)
        sigma = _RIGHT_SIGN[self.attribution]
        for d, p in self.parts:
            coef = d[alpha, beta].reshape(r.shape + (1,) * (lit.ndim - r.ndim))
            total, s_right, s_left = p[:, r, c]
            g = s_left + sigma * s_right
            np.add(lit, coef * (g if w == "S" else total - g), out=lit,
                   where=coef != 0)
        if lit_only:
            return lit
        out = np.zeros(shape + (self.basis.bins,) * 2, dtype=complex)
        out[(...,) + self.lit[:2]] = lit
        return out

    g_volume = property(lambda self: self.pairs("V"))
    g_surface = property(lambda self: self.pairs("S"))

    @property
    def f_linear(self):
        """``.data``: F and its idler sector conj(F) in the dense form of a
        dump, bins over (geometry, bin) in C order.  Only the health hook of
        ``perfbench/tracer.py`` reads it, until that hook reads ``scatter``."""
        bins = self.scatter[0, 0].size
        f = self.scatter.reshape(2, 2, bins)
        rows, cols, values = bin_entries(np.array([f, np.conj(f)]))
        out = np.zeros((8 * bins, 8 * bins), dtype=complex)
        out[rows, cols] = values
        return SimpleNamespace(data=out)


@dataclass
class EmissionSolve:
    """A build's solve: F, lit entries (rows, cols, sums), boundaries
    with a nonlinear side, their inverse responses (axis 2) and condition
    numbers, {edge: conjugated feeds}, and per class (layers, d,
    1/sqrt(n), class kernels)."""

    structure: StructureSpec
    basis: SpectralBasis
    pump: PumpField
    scatter: np.ndarray
    lit: tuple
    boundaries: list
    inverse: np.ndarray
    cond: np.ndarray
    fed: dict
    classes: list


def solve_emission(structure: StructureSpec, pump_spec: PumpSpec,
                   basis: SpectralBasis) -> EmissionSolve:
    """The linear solve, pump, boundary responses, feeds and class kernels
    of a stack, for ``assemble_emission``."""
    n_tot = structure.n_layers + 2
    maps, pump, index = bin_solve(structure, pump_spec, basis)
    rows, cols = np.nonzero(pump.mask[index])
    lit = (rows, cols, index[rows, cols])

    d_of = structure.per_material(
        lambda mat: chi2_matrix(mat, pump.polarization))
    dark = [not np.any(d) for d in d_of]
    active = [l for l in range(1, n_tot) if not (dark[l - 1] and dark[l])]
    inverse, cond = inverse_responses(maps, active)
    # feed of every layer's modes at each edge from the idler inputs
    fed = {edge: np.conj(maps.fed(edge)) for edge in ("left", "right")}
    e_rows = maps.interface[:, 0, 0].real  # each layer's 1/sqrt(n)
    # (material, length) -> (nonlinear layers, d, 1/sqrt(n), kernels); a
    # grid length is keyed by its array, with unit axes for the grid's rest
    classes = {}
    for l in range(1, n_tot - 1):
        if not dark[l]:
            mat, length = structure.material(l), structure.length(l)
            key = (id(mat), id(length) if isinstance(length, np.ndarray)
                   else length)
            if key not in classes:
                classes[key] = ([], d_of[l], e_rows[l], class_kernels(
                    mat, np.array(length, ndmin=len(structure.grid)), basis,
                    pump, lit))
            classes[key][0].append(l)
    return EmissionSolve(structure, basis, pump, maps.scatter, lit, active,
                         inverse, cond, fed, list(classes.values()))


def assemble_emission(solve: EmissionSolve,
                      boundary: int | None = None) -> EmissionOperators:
    """The slabs T, S_R and S_L of a solve, read under local-jump; with
    ``boundary`` = l, boundary l's source alone."""
    structure = solve.structure
    rows, cols, sums = solve.lit
    n_tot = structure.n_layers + 2
    if boundary is not None and not 1 <= boundary < n_tot:
        raise ConfigError(f"no boundary {boundary} in 1..{n_tot - 1}")
    warnings = [f"boundary {l}: response condition number {c:.2e}"
                for l, c in zip(solve.boundaries, solve.cond)
                if c > CONDITION_WARN and boundary in (None, l)]
    position = {l: i for i, l in enumerate(solve.boundaries)}
    per_chunk = max(1, _CLASS_CHUNK // max(1, rows.size))
    slabs = {}  # d.tobytes() -> (d, its slabs T, S_R, S_L)
    for members, d, pref, kernels in solve.classes:
        members = [l for l in members if boundary in (None, l, l + 1)]
        for start in range(0, len(members), per_chunk):
            ls = np.array(members[start:start + per_chunk])
            weights = pump_weights(structure, solve.pump, sums, ls)
            # a layer's right edge is boundary l + 1, added, its left edge
            # boundary l, subtracted; with ``boundary`` only the edges on it
            for edge, shift, op, slab in (("right", 1, np.add, 1),
                                          ("left", 0, np.subtract, 2)):
                on = np.s_[:] if boundary is None else ls + shift == boundary
                if not ls[on].size:
                    continue
                resp = solve.inverse[:, :, [position[l + shift]
                                            for l in ls[on]]]
                total, surface = _class_pass(
                    kernels[edge], weights[on],
                    solve.fed[edge][:, :, ls[on]][..., cols],
                    (resp * pref)[..., rows])
                if d.tobytes() not in slabs:
                    slabs[d.tobytes()] = (d, np.zeros((3,) + total.shape,
                                                      dtype=complex))
                p = slabs[d.tobytes()][1]
                op(p[0], total, out=p[0])
                op(p[slab], surface, out=p[slab])
    parts = list(slabs.values())
    for name, mat in [("F", solve.scatter)] + [("G", p) for _, p in parts]:
        if not np.all(np.isfinite(mat)):
            raise NumericalBreakdown(f"non-finite entries in {name}")
    return EmissionOperators(structure, solve.basis, solve.pump,
                             solve.scatter, solve.lit, parts, warnings)


def build_emission(structure: StructureSpec, pump_spec: PumpSpec,
                   basis: SpectralBasis,
                   boundary: int | None = None) -> EmissionOperators:
    """Assemble the scattering map and the emission slabs, read under
    local-jump; with ``boundary`` = l, boundary l's source alone."""
    return assemble_emission(solve_emission(structure, pump_spec, basis),
                             boundary)
