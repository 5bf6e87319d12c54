"""Independent references used only by the tests.

These evaluate the physics directly instead of through the production
path: the layer boundary positions, the top-hat basis functions on a
frequency grid, the interface continuity residual of a layer-amplitude
solution, the pair phase function of one layer with its exact
z-derivative, the labelled dense forms of per-bin maps (``dense_bins``)
and of two-sector pair arrays (``two_sector_dense``) by label lookups,
the branch contractions by plain loops over the labelled dense F, a
peak counter for the qualitative spectral checks, the boundary
response through the left and right segments
(``segment_response``), and the stepwise z-march of the oracle
(``stepwise_pair_amplitude``), one midpoint update per sub-step, the
closed-form z-march of one row field at one step (``_march_once``,
composed four times over the row fields and Richardson steps by
``marched_pair_amplitude``), and the
einsum emission assembly (``einsum_emission``): class kernels with one
complex exponential and series per lit entry and a stored magnetic
volume row, per-layer kernels, and an einsum class pass.  The K x K
assembly (``dense_emission``) forms the class kernels, class passes and
expansion on every entry of the grid, dark bin sums included, by
broadcasting the per-bin factors, as the package did before it
assembled the pump's lit entries only; ``assert_bitwise_equal`` holds
the two to the same bits.  With ``keep_sources`` it also keeps every
boundary's slabs, summed one layer at a time, to which
``assert_sources_bitwise_equal`` holds each build with ``boundary`` = l
(``per_boundary`` gathers those builds), and
``assert_assemblies_are_builds`` holds the assemblies of one shared
solve to separate builds.  ``read_slabs`` reads (G_V, G_S) parts from
the slabs T, S_R, S_L under an attribution by its own sign table;
``expand`` scatters such parts into zeroed pair arrays, as the package
did on every assembly before it kept the parts, and
``assert_pairs_are_expanded`` holds every block the package's accessor
forms to it; ``pair_block`` reads one K x K block of a pair array.
``attributed_assembly`` is the assembly that signs the class kernels
per attribution before its passes (``attributed_kernels``), as the
package did before it read the attribution from its slabs;
``assert_attribution_is_the_build_time_one`` holds the read-time
attribution to it within rounding.
``LayerView`` reads one layer's coupling data (conj(T_g), wave numbers,
kernels) through the pure functions of ``spectral``.  The two-sector
references (``linear_maps``, ``two_sector_emission``,
``two_sector_block``) store the idler sector as well, with its rows
assembled from conj(P) and d.T, the layout that the package stores only
the signal half of.  ``full_chi2`` gives a stack whose every (signal, idler) polarization pair emits,
``explicit_time_grid`` the full n x n detection-time density,
``count_field_maps`` every linear solve the package makes,
``resident_temporal_stage`` the temporal stage with its half transform
held whole, on the DFT time kernel formed at once
(``resident_time_kernel``), ``rowwise_write_csv`` the CSV writer
that formats every cell row by row, and ``loop_width_fwhm`` the FWHM
whose crossings are found by walking the curve.
"""

import itertools
import sys
from dataclasses import dataclass, field, replace
from unittest import mock

import numpy as np

from spdc1d.blockmatrix import FIELDS, MODE_CHANNELS, ROW_CHANNELS, labels
from spdc1d.constants import CONSTANTS
from spdc1d.errors import ConfigError, NoPeak
from spdc1d.linear import (
    PumpField,
    _crossing,
    field_maps,
    layer_amplitudes,
    mat2_inv,
    mat2_mul,
)
from spdc1d.materials import refractive_index, wavenumber
import spdc1d.matrixcore as matrixcore
import spdc1d.oracle as oracle
from spdc1d.observables import default_time_grid
from spdc1d.spectral import (
    _BRACKET_SWITCH,
    _bracket,
    DIR_SIGN,
    DIRS,
    POLS,
    SPLIT_CONVENTIONS,
    SpectralBasis,
    bin_solve,
    chi2_matrix,
    class_kernels,
    coupling_unit,
    pump_weights,
    pump_wavenumbers,
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


def _interface_weights(n, convention):
    """(E, H) weights of the amplitudes: the interface invariants are
    w (A_F + A_B) and v (A_F - A_B).  'field' amplitudes are electric-field
    amplitudes; 'flux' ones are normalized to photon flux (sqrt(n) E)."""
    if convention == "field":
        return np.ones_like(n), n
    if convention == "flux":
        return 1.0 / np.sqrt(n), np.sqrt(n)
    raise ConfigError(f"unknown amplitude convention {convention!r}")


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
        # the pump grid holds every bin sum exactly
        total = basis.centers[:, None] + basis.centers[None, :]
        self.index = np.searchsorted(pump.omega, total)
        assert np.array_equal(pump.omega[self.index], total)
        self.weights = pump_weights(structure, pump, self.index, [l])
        # every entry of the grid, flat in C order
        rows, cols = np.indices(self.index.shape).reshape(2, -1)
        self.every = (rows, cols, self.index.ravel())
        # conj(T_g) per unit chi2, over g
        self.t_unit = coupling_unit(self.material, basis) * self.weights[0]

    def is_dark(self):
        return not np.any(self.d)

    def k_signed(self, a):
        return wavenumber(self.material, self.basis.centers, a)

    def pump_k(self, g):
        return pump_wavenumbers(self.material,
                                self.pump)[DIRS.index(g)][self.index]

    def tstar(self, g, alpha, beta):
        """conj(T_g) for polarizations (alpha, beta)."""
        return (self.d[POLS.index(alpha), POLS.index(beta)]
                * self.t_unit[DIRS.index(g)])

    def project(self, edge, convention="local-jump"):
        """((volume_e, volume_h, surface_h), d) at one edge: kernels of
        shape (2, 2, K, K) over (row field, col dir, row bin, col bin),
        the same for both row fields, and d of shape (2, 2, 2) over (row
        field, row pol, col pol), d.T for idler rows.  The magnetic volume
        row is i k_a chi - surface."""
        grid = self.index.shape
        chi, surface, ik = (np.reshape(a, a.shape[:-1] + grid) for a in
                            attributed_kernels(
                                class_kernels(self.material, self.length,
                                              self.basis, self.pump,
                                              self.every),
                                convention)[edge])
        a = self.weights[0]
        chi = np.einsum("g...kn,gb...kn->b...kn", a, chi)
        surface = np.einsum("g...kn,g...kn->...kn", a, surface)
        hv = ik * chi - surface
        hs = np.broadcast_to(surface, chi.shape)
        return (tuple(np.array([k, k]) for k in (chi, hv, hs)),
                np.array([self.d, self.d.T]))


def bracket(delta_k, zeta):
    """(exp(i dk zeta) - 1)/dk with a series for small |dk zeta|, both
    evaluated on every entry."""
    delta_k = np.asarray(delta_k, dtype=complex)
    x = delta_k * zeta
    small = np.abs(x) < _BRACKET_SWITCH
    safe = np.where(small, 1.0, delta_k)
    exact = (np.exp(1j * x) - 1.0) / safe
    series = zeta * (1j - x / 2.0 - 1j * x**2 / 6.0 + x**3 / 24.0)
    return np.where(small, series, exact)


def einsum_class_kernels(material, length, basis, pump, lit,
                         convention="local-jump"):
    """{edge: (volume, surface)} of one (material, length) class per unit
    pump weight on the lit entries lit = (rows, cols, sums): volume of
    shape (2, 2, 2, *G, E) over (g, E/H row, col dir, ...), its magnetic
    row i k_a chi + sigma Q stored, surface -sigma Q of shape (2, *G, E);
    one complex exponential and series per entry of every bracket."""
    if convention not in SPLIT_CONVENTIONS:
        raise ConfigError(f"unknown split convention {convention!r}")
    rows, cols, sums = lit
    widths = basis.widths
    weight = np.sqrt(widths[rows] * widths[cols])
    k_f = wavenumber(material, basis.centers, "F")
    k = {a: DIR_SIGN[a] * k_f for a in DIRS}
    k_p = pump_wavenumbers(material, pump)[:, sums]
    unit = coupling_unit(material, basis)[rows, cols]
    if isinstance(length, np.ndarray):
        length = length[..., None]
    out = {}
    for edge, a, shift, slot in (("right", "F", length, 1.0),
                                 ("left", "B", 0.0 * length, -1.0)):
        chi = []
        for kp_g in k_p:
            per_b = []
            for b in DIRS:
                dk = kp_g - k[a][rows] - k[b][cols]
                c = -1j * bracket(dk, length)
                if edge == "right":
                    c = c * np.exp(1j * (k[a][rows] + k[b][cols]) * length)
                per_b.append(c * weight)
            chi.append(per_b)
        chi = unit * np.array(chi)
        q = unit * np.array([np.exp(1j * kp_g * shift) * weight
                             for kp_g in k_p])
        sigma = -1.0 if convention == "local-jump" else slot
        hv = 1j * k[a][rows] * chi + sigma * q[:, None]
        out[edge] = (np.stack((chi, hv), axis=1), -sigma * q)
    return out


def einsum_weighted_kernels(kernels, weights):
    """Per-layer kernels sum_g a_g kernels[g] of ``einsum_class_kernels``."""
    volume, surface = kernels
    return (np.einsum("lg...e,gxb...e->lxb...e", weights, volume),
            np.einsum("lg...e,g...e->l...e", weights, surface))


def einsum_class_pass(kernels, weights, feed, rows):
    """``matrixcore._class_pass`` on the local-jump (+Q)
    ``einsum_class_kernels`` by einsums over the stored electric and
    magnetic volume rows: (volume + surface, surface)."""
    j_v, j_s = einsum_weighted_kernels(kernels, weights)
    k_v = np.einsum("lxb...e,bcl...e->lxc...e", j_v, feed)
    p_v = np.einsum("dxl...e,lxc...e->dc...e", rows, k_v)
    p_s = np.einsum("dl...e,l...e,cl...e->dc...e", rows[:, 1], j_s,
                    feed.sum(axis=0))
    return p_v + p_s, p_s


def einsum_emission(*args, **kwargs):
    """``build_emission`` with the einsum class kernels and class pass."""
    with mock.patch.object(matrixcore, "class_kernels",
                           einsum_class_kernels), \
            mock.patch.object(matrixcore, "_class_pass", einsum_class_pass):
        return matrixcore.build_emission(*args, **kwargs)


def dense_class_kernels(material, length, basis, pump, index):
    """``spectral.class_kernels`` on every entry of the K x K grid, from
    the (K, K) bin-sum index: chi (2, 2, *G, K, K), surface (2, *G, K,
    K) and ik per row bin, by broadcasting the per-bin factors."""
    widths = basis.widths
    unit = coupling_unit(material, basis) * np.sqrt(widths[:, None]
                                                    * widths[None, :])
    k_f = wavenumber(material, basis.centers, "F")
    k = np.array([DIR_SIGN[a] * k_f for a in DIRS])
    k_p = pump_wavenumbers(material, pump)
    flat = (1,) * np.ndim(length)
    zeta = np.asarray(length)[..., None]
    phase = np.exp(1j * k.reshape((2,) + flat + (-1,)) * zeta)
    pump_phase = np.exp(1j * k_p.reshape((2,) + flat + (-1,))
                        * zeta)[..., index]
    zeta = zeta[..., None]
    k_p = k_p[:, index][:, None]
    out = {}
    for edge, a in (("right", "F"), ("left", "B")):
        k_a = k[DIRS.index(a)]
        dk = k_p - k_a[:, None] - k[:, None, :]
        dk = dk.reshape((2, 2) + flat + dk.shape[-2:])
        if edge == "right":
            edge_phase = phase[0][..., :, None] * phase[:, ..., None, :]
            numerator = pump_phase[:, None] - edge_phase
            q = unit * pump_phase
        else:
            edge_phase = 1.0
            numerator = (pump_phase[:, None] * phase[0][..., :, None]
                         * phase[::-1, ..., None, :] - 1.0)
            q = np.broadcast_to(unit, pump_phase.shape)
        chi = -1j * unit * _bracket(dk, zeta, numerator, edge_phase)
        out[edge] = (chi, q, 1j * k_a)
    return out


def dense_class_pass(kernels, weights, feed, rows):
    """``matrixcore._class_pass`` on every entry of the K x K grid: feed
    (col dir, channel, L, *G, col bin) and rows (out dir, E/H, L, *G, row
    bin) broadcast over the grid."""
    chi, surface, ik = kernels
    a = weights[:, :, None]
    j0 = a[:, 0] * chi[0] + a[:, 1] * chi[1]
    j_s = weights[:, 0] * surface[0] + weights[:, 1] * surface[1]
    fed = np.moveaxis(feed, 2, 0)[..., None, :]
    k0 = j0[:, :1] * fed[:, 0] + j0[:, 1:] * fed[:, 1]
    r = np.moveaxis(rows, 2, 0)[..., None]
    r_t = r[:, :, 0] + ik[:, None] * r[:, :, 1]
    p_total = (r_t[:, :, None] * k0[:, None]).sum(axis=0)
    p_s = (r[:, :, 1, None]
           * (j_s[:, None] * (fed[:, 0] + fed[:, 1]))[:, None]).sum(axis=0)
    return p_total, p_s


# sigma of each surface attribution, the sign of the right-edge surface sum
SIGN = {"local-jump": 1.0, "per-slot": -1.0}


def read_slabs(parts, convention):
    """(d, (G_V, G_S)) parts of (d, P) ones whose P holds the slabs T, S_R
    and S_L: G_S = sigma S_R + S_L and G_V = T - G_S under the
    attribution."""
    out = []
    for d, (t, s_right, s_left) in parts:
        g = s_left + SIGN[convention] * s_right
        out.append((d, np.array([t - g, g])))
    return out


def dense_expand(parts, shape):
    """``expand`` of parts P of shape (2, 2, 2, *G, K, K)."""
    out = np.zeros((2,) + shape, dtype=complex)
    for d, p in parts:
        for alpha, beta in zip(*np.nonzero(d)):
            out[:, :, alpha, :, beta] += d[alpha, beta] * p
    return out[0], out[1]


def expand(parts, shape, lit):
    """(volume, surface) pair arrays sum_m d_m (x) P_m from (d, P) parts:
    d of shape (2, 2) over (signal pol, idler pol), P of shape (2, 2, 2,
    *G, E) over (volume/surface, row dir, col dir, geometry, lit entry),
    scattered into zeros at the lit (row bin, col bin) entries.  The
    package built these arrays on every assembly before it kept the
    parts; ``assert_pairs_are_expanded`` holds its accessor to them (the
    parts ``read_slabs`` of the emission's)."""
    rows, cols, _ = lit
    out = np.zeros((2,) + shape, dtype=complex)
    for d, p in parts:
        for alpha, beta in zip(*np.nonzero(d)):
            out[:, :, alpha, :, beta][..., rows, cols] += d[alpha, beta] * p
    return out[0], out[1]


def pair_block(pairs, row, col):
    """K x K block of a pair array: signal row label (dir, pol), idler
    column label (dir, pol)."""
    (a, alpha), (b, beta) = row, col
    return pairs[DIRS.index(a), POLS.index(alpha), DIRS.index(b),
                 POLS.index(beta)]


def assert_pairs_are_expanded(emission):
    """Every block that ``EmissionOperators.pairs`` forms holds the bits of
    ``expand`` of the emission's parts, compared as int64 views so that
    signed zeros count: each of the 16 blocks alone, the two row
    directions that ``branch_amplitudes`` reads per (channel, pol pair),
    the whole array (also through ``g_volume``/``g_surface``) and the lit
    entries."""
    rows, cols, _ = emission.lit
    shape = ((2,) * 4 + emission.scatter.shape[2:-1]
             + (emission.basis.bins,) * 2)
    want = dict(zip("VS", expand(read_slabs(emission.parts,
                                            emission.attribution),
                                 shape, emission.lit)))
    for w, name in (("V", "g_volume"), ("S", "g_surface")):
        _assert_same_bits(emission.pairs(w), want[w], w)
        _assert_same_bits(getattr(emission, name), want[w], name)
        _assert_same_bits(emission.pairs(w, lit_only=True),
                          want[w][..., rows, cols], f"{w} lit")
        for label in itertools.product(range(2), repeat=4):
            _assert_same_bits(emission.pairs(w, label), want[w][label],
                              f"{w} {label}")
        for a, b, alpha, beta in itertools.product(range(2), repeat=4):
            at = np.s_[[a, b], alpha, :, beta]
            _assert_same_bits(emission.pairs(w, at), want[w][at],
                              f"{w} {(a, b, alpha, beta)}")


@dataclass
class KeptEmission:
    """An emission's F and pair arrays G_V and G_S, with every boundary's
    (volume, surface) source kept: boundary l -> its pair arrays."""

    structure: StructureSpec
    basis: SpectralBasis
    pump: PumpField
    scatter: np.ndarray
    g_volume: np.ndarray
    g_surface: np.ndarray
    warnings: list
    boundary_sources: dict = field(default_factory=dict)

    @classmethod
    def of(cls, emission, g_volume=None, g_surface=None, sources=None):
        """The arrays of an emission, its pair arrays formed by its
        accessor unless given."""
        return cls(emission.structure, emission.basis, emission.pump,
                   emission.scatter,
                   emission.g_volume if g_volume is None else g_volume,
                   emission.g_surface if g_surface is None else g_surface,
                   emission.warnings, sources or {})


def dense_emission(structure, pump_spec, basis, keep_sources=False,
                   convention="local-jump"):
    """``build_emission`` on every entry of the K x K grid, dark bin sums
    included, from the build's one solve (``bin_solve``), read under the
    attribution: the same class grouping, chunks of layers, slabs and
    order of sums, so every lit entry rounds as in the lit-entry assembly
    and every dark one is an exact zero.  With ``keep_sources`` the class
    passes run one layer at a time and each boundary's slabs are kept
    and expanded apart (a ``KeptEmission``): the per-boundary path that
    ``build_emission(..., boundary=l)`` is held to bit for bit."""
    maps, pump, index = bin_solve(structure, pump_spec, basis)
    n_tot = structure.n_layers + 2
    d_of = structure.per_material(
        lambda mat: chi2_matrix(mat, pump.polarization))
    dark = [not np.any(d) for d in d_of]
    active = [l for l in range(1, n_tot) if not (dark[l - 1] and dark[l])]
    inverse, _ = matrixcore.inverse_responses(maps, active)
    fed = {edge: np.conj(maps.fed(edge)) for edge in ("left", "right")}
    position = {l: i for i, l in enumerate(active)}
    classes = {}
    for l in range(1, n_tot - 1):
        if not dark[l]:
            length = structure.length(l)
            key = (id(structure.material(l)),
                   id(length) if isinstance(length, np.ndarray) else length)
            classes.setdefault(key, []).append(l)
    lit = max(1, np.count_nonzero(pump.mask[index]))
    per_chunk = 1 if keep_sources else max(1, matrixcore._CLASS_CHUNK // lit)
    shape = (2,) * 4 + structure.grid + (basis.bins, basis.bins)
    totals, kept = {}, {l: {} for l in range(1, n_tot)}
    for members in classes.values():
        mat, d = structure.material(members[0]), d_of[members[0]]
        length = structure.length(members[0])
        length = np.reshape(length, (1,) * (len(structure.grid)
                                            - np.ndim(length))
                            + np.shape(length))
        pref = maps.interface[members[0], 0, 0].real
        kernels = dense_class_kernels(mat, length, basis, pump, index)
        for start in range(0, len(members), per_chunk):
            ls = members[start:start + per_chunk]
            weights = pump_weights(structure, pump, index, ls)
            for edge, op, slab, shift in (("right", np.add, 1, 1),
                                          ("left", np.subtract, 2, 0)):
                rows = inverse[:, :, [position[l + shift] for l in ls]] * pref
                total, surface = dense_class_pass(kernels[edge], weights,
                                                  fed[edge][:, :, ls], rows)
                for acc in [totals] + ([kept[ls[0] + shift]] if keep_sources
                                       else []):
                    if d.tobytes() not in acc:
                        acc[d.tobytes()] = (d, np.zeros((3,) + total.shape,
                                                        dtype=complex))
                    p = acc[d.tobytes()][1]
                    op(p[0], total, out=p[0])
                    op(p[slab], surface, out=p[slab])
    sources = ({l: dense_expand(read_slabs(parts.values(), convention), shape)
                for l, parts in kept.items()} if keep_sources else {})
    g_v, g_s = dense_expand(read_slabs(totals.values(), convention), shape)
    return KeptEmission(structure, basis, pump, maps.scatter, g_v, g_s, [],
                        sources)


def attributed_kernels(kernels, convention):
    """``class_kernels`` (+Q at both edges) signed for one surface
    attribution before the class passes, as the package did before it
    read the attribution from its slabs: per-slot's [+-1]_a Q of the
    arriving direction is -Q on the right."""
    if convention == "local-jump":
        return kernels
    chi, q, ik = kernels["right"]
    return {**kernels, "right": (chi, -q, ik)}


def attributed_assembly(solve, convention="local-jump", boundary=None):
    """The package's emission assembly before the slabs, as a
    ``KeptEmission``: the class kernels signed per attribution
    (``attributed_kernels``), each class pass returning (volume =
    total - surface, surface), summed into (G_V, G_S) per distinct d, and
    with ``boundary`` one part per edge.  The reference the read-time
    attribution is held to within rounding."""
    structure = solve.structure
    rows, cols, sums = solve.lit
    position = {l: i for i, l in enumerate(solve.boundaries)}
    per_chunk = max(1, matrixcore._CLASS_CHUNK // max(1, rows.size))
    totals = {}
    for members, d, pref, kernels in solve.classes:
        members = [l for l in members if boundary in (None, l, l + 1)]
        kernels = attributed_kernels(kernels, convention)
        for start in range(0, len(members), per_chunk):
            ls = np.array(members[start:start + per_chunk])
            weights = pump_weights(structure, solve.pump, sums, ls)
            for edge, shift, op in (("right", 1, np.add),
                                    ("left", 0, np.subtract)):
                on = np.s_[:] if boundary is None else ls + shift == boundary
                if not ls[on].size:
                    continue
                resp = solve.inverse[:, :, [position[l + shift]
                                            for l in ls[on]]]
                p_total, p_s = matrixcore._class_pass(
                    kernels[edge], weights[on],
                    solve.fed[edge][:, :, ls[on]][..., cols],
                    (resp * pref)[..., rows])
                p_total -= p_s
                tag = d.tobytes() if boundary is None else (d.tobytes(), edge)
                if tag not in totals:
                    totals[tag] = (d, np.zeros((2,) + p_s.shape,
                                               dtype=complex))
                for acc, part in zip(totals[tag][1], (p_total, p_s)):
                    op(acc, part, out=acc)
    shape = ((2,) * 4 + structure.grid + (solve.basis.bins,) * 2)
    return KeptEmission(structure, solve.basis, solve.pump, solve.scatter,
                        *expand(totals.values(), shape, solve.lit), [])


def emission_arrays(emission):
    """name -> array: F, G_V, G_S and every kept boundary source."""
    out = {"F": emission.scatter, "G_V": emission.g_volume,
           "G_S": emission.g_surface}
    for l, (s_v, s_s) in getattr(emission, "boundary_sources", {}).items():
        out[f"SV:{l}"], out[f"SS:{l}"] = s_v, s_s
    return out


def per_boundary(build, structure, *args, convention="local-jump",
                 **kwargs):
    """A ``KeptEmission`` of ``build(structure, *args, **kwargs)`` read
    under the attribution, whose source of each boundary l is G_V and G_S
    of the build with ``boundary`` = l."""
    sources = {}
    for l in range(1, structure.n_layers + 2):
        em = build(structure, *args, boundary=l, **kwargs).attributed(
            convention)
        sources[l] = (em.g_volume, em.g_surface)
    return KeptEmission.of(build(structure, *args, **kwargs).attributed(
        convention), sources=sources)


def _assert_same_bits(got, want, name):
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert np.array_equal(*(np.ascontiguousarray(a).view(np.int64)
                            for a in (got, want))), name


def assert_bitwise_equal(got, want):
    """F, G_V, G_S and every kept source of two emissions hold the same
    bits, compared as int64 views so that signed zeros count."""
    got, want = emission_arrays(got), emission_arrays(want)
    assert sorted(got) == sorted(want)
    for name, w in want.items():
        _assert_same_bits(got[name], w, name)


def assert_sources_bitwise_equal(structure, pump_spec, basis, convention):
    """Each boundary l's ``build_emission(..., boundary=l)``, read under
    the attribution, holds in G_V and G_S the bits of the source that
    ``dense_emission(..., keep_sources=True)`` keeps for l."""
    want = dense_emission(structure, pump_spec, basis, keep_sources=True,
                          convention=convention).boundary_sources
    assert sorted(want) == list(range(1, structure.n_layers + 2))
    for l, parts in want.items():
        got = matrixcore.build_emission(structure, pump_spec, basis,
                                        boundary=l).attributed(convention)
        for name, g, w in zip(("SV", "SS"), (got.g_volume, got.g_surface),
                              parts):
            _assert_same_bits(g, w, f"{name}:{l}")


def assert_assemblies_are_builds(structure, pump_spec, basis):
    """Every assembly from one ``solve_emission``, for the whole stack and
    each boundary alone and read under both attributions, holds the bits
    of F, G_V and G_S and the warnings of its own ``build_emission``,
    and every block its accessor forms holds the bits of ``expand``."""
    solve = matrixcore.solve_emission(structure, pump_spec, basis)
    for boundary in (None, *range(1, structure.n_layers + 2)):
        assembled = matrixcore.assemble_emission(solve, boundary)
        built = matrixcore.build_emission(structure, pump_spec, basis,
                                          boundary=boundary)
        for convention in SPLIT_CONVENTIONS:
            got, want = (em.attributed(convention)
                         for em in (assembled, built))
            assert_bitwise_equal(got, want)
            assert got.warnings == want.warnings, (convention, boundary)
            assert_pairs_are_expanded(got)


def assert_attribution_is_the_build_time_one(structure, pump_spec, basis,
                                             tol=1e-14, of_slabs=False):
    """G_V and G_S of the assembly of the whole stack and of each boundary
    alone, read under each attribution, are within tol of each array's
    peak of ``attributed_assembly`` of the same solve (exact zeros where
    it is).  With ``of_slabs`` the scale is the larger of that peak and
    the slabs' peak times max |d|: a surface source that cancels at a
    fictitious boundary is a rounding residue of the slabs, which two
    summation orders leave different."""
    solve = matrixcore.solve_emission(structure, pump_spec, basis)
    for boundary in (None, *range(1, structure.n_layers + 2)):
        em = matrixcore.assemble_emission(solve, boundary)
        slabs = max((np.abs(d).max() * np.abs(p).max() for d, p in em.parts),
                    default=0.0) if of_slabs else 0.0
        for convention in SPLIT_CONVENTIONS:
            got = em.attributed(convention)
            want = attributed_assembly(solve, convention, boundary)
            for name in ("g_volume", "g_surface"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.shape == w.shape
                err = np.max(np.abs(g - w), initial=0.0)
                scale = max(np.max(np.abs(w), initial=0.0), slabs)
                assert err <= tol * scale, (convention, boundary, name,
                                            err / scale)


def linear_maps(structure, basis):
    """{'s': the linear solve on the bin centers, 'i': the maps of its
    conjugated transfers and continuity rows}."""
    signal = field_maps(structure, basis.centers)
    return {"s": signal, "i": signal.conj()}


def two_sector_expand(parts, shape, lit):
    """``expand`` into both row sectors: arrays of shape (2,)
    + shape over (row field, row dir, row pol, col dir, col pol, ...),
    the idler rows conj(P) with d.T at the same (row bin, col bin)."""
    rows, cols, _ = lit
    out = np.zeros((2, 2) + shape, dtype=complex)
    for d, p in parts:
        for f, (d_f, p_f) in enumerate(((d, p), (d.T, np.conj(p)))):
            for alpha, beta in zip(*np.nonzero(d_f)):
                out[:, f, :, alpha, :, beta][..., rows, cols] += (
                    d_f[alpha, beta] * p_f)
    return out[0], out[1]


def two_sector_emission(*args, convention="local-jump", **kwargs):
    """``build_emission`` read under the attribution, whose G_V and G_S
    hold both row sectors (``two_sector_expand`` of its parts)."""
    em = matrixcore.build_emission(*args, **kwargs)
    shape = (2,) * 4 + em.structure.grid + (em.basis.bins,) * 2
    return KeptEmission.of(em, *two_sector_expand(
        read_slabs(em.parts, convention), shape, em.lit))


def two_sector_block(pairs, row, col):
    """K x K block of a two-sector pair array: row label (field, dir,
    pol), column label (dir, pol) of the other field."""
    field, a, alpha = row
    b, beta = col
    return pairs[FIELDS.index(field), DIRS.index(a), POLS.index(alpha),
                 DIRS.index(b), POLS.index(beta)]


def _label_blocks(channels, bins):
    """(field, c1, c2) -> the indices of that channel's bins along one
    axis of a labelled dense form, looked up by label."""
    at = {label: i for i, label in enumerate(labels(channels, bins))}
    return lambda *channel: [at["/".join(channel + (str(n),))]
                             for n in range(bins)]


def dense_bins(maps, rows=MODE_CHANNELS):
    """Labelled dense form, as a 2-D array, of per-bin 2x2 maps
    {field: (2, 2, K)} over (row kind, column dir, bin), rows in mode or
    continuity-row channels: entry (r, c, n) of field f sits at row
    f/r/pol/n and column f/c/pol/n for both pols."""
    k = maps["s"].shape[-1]
    row_at, col_at = _label_blocks(rows, k), _label_blocks(MODE_CHANNELS, k)
    kinds = ("E", "H") if rows == ROW_CHANNELS else DIRS
    out = np.zeros((8 * k, 8 * k), dtype=complex)
    for f, pol in itertools.product(FIELDS, POLS):
        for (r, rk), (c, ck) in itertools.product(enumerate(kinds),
                                                  enumerate(DIRS)):
            for n, (i, j) in enumerate(zip(row_at(f, rk, pol),
                                           col_at(f, ck, pol))):
                out[i, j] = maps[f][r, c, n]
    return out


def two_sector_dense(pairs):
    """Labelled dense form, as a 2-D array, of a two-sector pair array by
    label lookups: block (f, a, alpha), (f', b, beta), f' the other
    field, is its (f, a, alpha; b, beta) block."""
    k = pairs.shape[-1]
    at = _label_blocks(MODE_CHANNELS, k)
    out = np.zeros((8 * k, 8 * k), dtype=complex)
    for f, other in (("s", "i"), ("i", "s")):
        for (a, alpha), (b, beta) in itertools.product(MODE_CHANNELS,
                                                       MODE_CHANNELS):
            out[np.ix_(at(f, a, alpha), at(other, b, beta))] = (
                two_sector_block(pairs, (f, a, alpha), (b, beta)))
    return out


def segment_response(maps, l):
    """E/H continuity rows at boundary l from the output amplitudes of the
    pair waves emitted there, through the segments on either side: the
    forward output seen through the right segment (the inverse total
    transfer, then on to layer l at z_l) minus the backward output seen
    through the left segment (medium 0 on to layer l-1 at z_l).  Its
    inverse is the inverse response of ``matrixcore.inverse_responses``."""
    from_right = mat2_mul(maps.at_left[l], mat2_inv(maps.at_left[-1]))
    forward = mat2_mul(maps.interface[l], from_right)[:, 0]
    backward = mat2_mul(maps.interface[l - 1], maps.at_right[l - 1])[:, 1]
    return np.stack((forward, -backward), axis=1)


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
        phi += 1j * DIR_SIGN[a] * t_g * phase * (-bracket(-dk, z - z_a))
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
    """(idler-branch, signal-branch) bin matrices of one channel of a
    ``two_sector_emission`` by plain loops over every mode channel and bin
    of the labelled dense F of ``linear_maps`` and the K x K blocks of
    both sectors of G."""
    a, b, alpha, beta = channel
    g = {"V": emission.g_volume, "S": emission.g_surface}[w]
    k = emission.basis.bins
    f = dense_bins({fld: m.scatter for fld, m in
                    linear_maps(emission.structure, emission.basis).items()})
    at = _label_blocks(MODE_CHANNELS, k)
    idler = np.zeros((k, k), dtype=complex)
    signal = np.zeros((k, k), dtype=complex)
    for g_dir, g_pol in MODE_CHANNELS:
        gs = two_sector_block(g, ("s", a, alpha), (g_dir, g_pol))
        fi = f[np.ix_(at("i", b, beta), at("i", g_dir, g_pol))]
        fs = f[np.ix_(at("s", a, alpha), at("s", g_dir, g_pol))]
        gi = two_sector_block(g, ("i", b, beta), (g_dir, g_pol))
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


def rowwise_write_csv(path, header, columns):
    """Real-valued array columns, one %.17g-formatted row per line."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in
                      zip(*(col.tolist() for col in columns), strict=True))


def loop_width_fwhm(x, y) -> float:
    """FWHM of the global peak of y(x), its half-maximum crossings found
    by walking the curve point by point from the peak."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3 or np.max(y) <= 0.0 or np.ptp(y) == 0.0:
        raise NoPeak("curve has no usable peak")
    imax = int(np.argmax(y))
    half = 0.5 * y[imax]
    i = imax
    while i > 0 and y[i - 1] >= half:
        i -= 1
    if i == 0 and y[0] >= half:
        left = x[0]
    else:
        frac = (half - y[i - 1]) / (y[i] - y[i - 1])
        left = x[i - 1] + frac * (x[i] - x[i - 1])
    j = imax
    while j < y.size - 1 and y[j + 1] >= half:
        j += 1
    if j == y.size - 1 and y[-1] >= half:
        right = x[-1]
    else:
        frac = (y[j] - half) / (y[j] - y[j + 1])
        right = x[j] + frac * (x[j + 1] - x[j])
    return float(right - left)


def count_peaks(y, floor_fraction: float = 1e-3) -> int:
    """Number of strict local maxima above a floor relative to the max."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return 0
    floor = floor_fraction * y.max()
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]) & (y[1:-1] > floor)
    return int(np.count_nonzero(inner))


def _stepwise_march(structure, layers, basis, row_field, partner_amps, step):
    """Particular pair solution of one row field by one sequential
    midpoint update per sub-step, corrected to outgoing boundary
    conditions: out[(a_out, alpha, b0, beta)] at bin centers.

    layers[l] = (d, k_p, t_unit): chi2 matrix d[signal pol, idler pol],
    pump wave numbers k_p[g] and conj(T_g) per unit chi2 t_unit[g] on the
    (signal bin, idler bin) grid.  partner_amps[b0] = flux-normalized
    layer amplitudes (N+2, 2, K) for unit input in channel b0.
    """
    w = basis.centers
    pairs = sorted({(POLS[i], POLS[j]) for d, _, _ in layers[1:-1]
                    for i, j in zip(*np.nonzero(d))})
    if not pairs:
        return {}
    if row_field == "i":
        row_pairs = [(beta, alpha) for (alpha, beta) in pairs]
    else:
        row_pairs = pairs
    shape = (w.size, w.size)
    # state[p, b0, a]: pol pair p, partner input b0, propagation direction a
    state = np.zeros((len(row_pairs), 2, 2) + shape, dtype=complex)

    for l in range(1, structure.n_layers + 2):
        n_from = refractive_index(structure.material(l - 1), w)
        n_to = refractive_index(structure.material(l), w)
        d = _crossing(n_from + 0j, n_to + 0j)
        c_f, c_b = state[:, :, 0], state[:, :, 1]
        state = np.stack((d[0, 0][:, None] * c_f + d[0, 1][:, None] * c_b,
                          d[1, 0][:, None] * c_f + d[1, 1][:, None] * c_b),
                         axis=2)
        if l == structure.n_layers + 1:
            break
        length = structure.length(l)
        n_sub = max(1, int(np.ceil(length / step)))
        h = length / n_sub
        chi2, k_p, t_unit = layers[l]
        n = refractive_index(structure.material(l), w)
        k_row = np.stack([DIR_SIGN[a] * w / CONSTANTS.c * n
                          for a in DIRS])[:, :, None]
        k_col_f = w / CONSTANTS.c * n
        if row_field == "s":
            kp = k_p
            tstar = [{g: chi2[POLS.index(pr), POLS.index(pc)] * t_unit[g]
                      for g in DIRS} for pr, pc in row_pairs]
        else:
            kp = {g: k_p[g].T for g in DIRS}
            tstar = [{g: (chi2[POLS.index(pc), POLS.index(pr)] * t_unit[g]).T
                      for g in DIRS} for pr, pc in row_pairs]
        tstar = [{g: t for g, t in ts.items() if np.any(t)} for ts in tstar]
        active = [p for p, ts in enumerate(tstar) if ts]
        linear = [p for p, ts in enumerate(tstar) if not ts]
        if linear:
            state[linear] *= np.exp(1j * k_row * length)
        if not active:
            continue
        amps = [partner_amps[b0][l] for b0 in DIRS]

        def sources(zeta):
            """sgn_a * source on the zeta grid, (n, key, a, K_row, K_col)."""
            col = zeta[:, None]
            e_f = np.exp(1j * k_col_f * col)
            e_b = np.exp(-1j * k_col_f * col)
            partner = [np.conj(amp[0] * e_f + amp[1] * e_b)[:, None, :]
                       for amp in amps]
            pump = {g: np.exp(1j * kp[g] * zeta[:, None, None]) for g in DIRS}
            out = np.empty((zeta.size, len(active), 2, 2) + shape,
                           dtype=complex)
            for p_idx, p in enumerate(active):
                factor = [t * pump[g] for g, t in tstar[p].items()]
                for b_idx, part in enumerate(partner):
                    src = np.zeros((zeta.size,) + shape, dtype=complex)
                    for f in factor:
                        src += f * part
                    for a_idx, a in enumerate(DIRS):
                        out[:, p_idx, b_idx, a_idx] = DIR_SIGN[a] * src
            return out.reshape((zeta.size, -1, 2) + shape)

        ika = 1j * k_row
        zeta = np.arange(n_sub) * h
        s0, sm = sources(zeta), sources(zeta + 0.5 * h)
        c = state[active].reshape((-1, 2) + shape)
        for n in range(n_sub):
            mid = c + 0.5 * h * (ika * c + s0[n])
            c = c + h * (ika * mid + sm[n])
        state[active] = c.reshape((len(active), 2, 2) + shape)

    sig_b = partner_amps["B"]
    refl_right = sig_b[structure.n_layers + 1, 0]
    tran_left = sig_b[0, 1]
    out = {}
    for (pol_row, pol_col), c_pair in zip(row_pairs, state):
        for b0, c in zip(DIRS, c_pair):
            c_corr = -c[1]  # cancel the backward amplitude at z_{N+1}
            out[("F", pol_row, b0, pol_col)] = c[0] + refl_right[:, None] * c_corr
            out[("B", pol_row, b0, pol_col)] = tran_left[:, None] * c_corr
    return out


def stepwise_pair_amplitude(structure, pump_spec, basis, step,
                            richardson=True):
    """``oracle.reference_pair_amplitude`` with the z-march stepped one
    midpoint update at a time: the same {'s': ..., 'i': ...} layout,
    Richardson extrapolation and bin weights."""
    widths = basis.widths
    maps, pump, index = bin_solve(structure, pump_spec, basis)
    weights = pump_weights(structure, pump, index,
                           list(range(structure.n_layers + 2)))
    layers = []
    for l in range(structure.n_layers + 2):
        mat = structure.material(l)
        unit = coupling_unit(mat, basis)
        layers.append((chi2_matrix(mat, pump.polarization),
                       dict(zip(DIRS, pump_wavenumbers(mat, pump)[:, index])),
                       {g: unit * a for g, a in zip(DIRS, weights[l])}))
    partner = {b0: layer_amplitudes(maps, b0) for b0 in DIRS}

    def run(h):
        return {f: _stepwise_march(structure, layers, basis, f, partner, h)
                for f in FIELDS}

    res = run(step)
    if richardson:
        res2 = run(step / 2.0)
        res = {f: {k: (4.0 * res2[f][k] - v) / 3.0 for k, v in r.items()}
               for f, r in res.items()}
    weight = np.sqrt(widths[:, None] * widths[None, :])
    return {"s": {k: v * weight for k, v in res["s"].items()},
            "i": {k: np.conj(v) * weight for k, v in res["i"].items()}}


def _march_once(structure, layers, row_field, partner_amps, class_sums):
    """Particular pair solution for one propagating field at one step, all
    pol pairs: out[(a_out, alpha, b0, beta)] at bin centers.

    layers, partner_amps: ``oracle._march_inputs``; class_sums[(material
    id, length)] = ``oracle._class_sums`` of every nonlinear class at
    this step.
    """
    pairs = sorted({(POLS[i], POLS[j]) for d, _, _, _ in layers[1:-1]
                    for i, j in zip(*np.nonzero(d))})
    if not pairs:
        return {}
    if row_field == "i":
        # (alpha, beta) keys are (signal, idler); rows propagate the idler
        row_pairs = [(beta, alpha) for (alpha, beta) in pairs]
    else:
        row_pairs = pairs
    shape = layers[0][2].shape[1:]
    # state[p, b0, a]: pol pair p, partner input b0, propagation direction a
    state = np.zeros((len(row_pairs), 2, 2) + shape, dtype=complex)

    for l in range(1, structure.n_layers + 2):
        chi2, k, t_unit, d = layers[l]
        c_f, c_b = state[:, :, 0], state[:, :, 1]
        state = np.stack((d[0, 0][:, None] * c_f + d[0, 1][:, None] * c_b,
                          d[1, 0][:, None] * c_f + d[1, 1][:, None] * c_b),
                         axis=2)
        if l == structure.n_layers + 1:
            break
        length = structure.length(l)
        if row_field == "i":
            chi2, t_unit = chi2.T, np.swapaxes(t_unit, 1, 2)
        coef = [chi2[POLS.index(pr), POLS.index(pc)] for pr, pc in row_pairs]
        active = [p for p, c in enumerate(coef) if c != 0.0]
        linear = [p for p, c in enumerate(coef) if c == 0.0]
        if linear:
            k_row = np.stack((k, -k))[:, :, None]
            state[linear] *= np.exp(1j * k_row * length)
        if not active:
            continue
        growth, weighted = class_sums[(id(structure.material(l)), length)]
        amps = np.conj(np.stack([partner_amps[b0][l] for b0 in DIRS]))
        source = np.einsum("agskm,gkm,bsm->bakm", weighted, t_unit, amps)
        for p in active:
            state[p] = growth * state[p] + coef[p] * source

    sig_b = partner_amps["B"]
    refl_right = sig_b[structure.n_layers + 1, 0]
    tran_left = sig_b[0, 1]
    out = {}
    for (pol_row, pol_col), c_pair in zip(row_pairs, state):
        for b0, c in zip(DIRS, c_pair):
            c_corr = -c[1]  # cancel the backward amplitude at z_{N+1}
            out[("F", pol_row, b0, pol_col)] = c[0] + refl_right[:, None] * c_corr
            out[("B", pol_row, b0, pol_col)] = tran_left[:, None] * c_corr
    return out


def marched_pair_amplitude(structure, pump_spec, basis, step,
                           richardson=True):
    """``oracle.reference_pair_amplitude`` with one ``_march_once`` per
    row field and step: the same {'s': ..., 'i': ...} layout, Richardson
    extrapolation and bin weights."""
    layers, classes, partner, index = oracle._march_inputs(
        structure, pump_spec, basis)

    def run(h):
        class_sums = {key: oracle._class_sums(k, kp_sums, index, length, h)
                      for key, (k, kp_sums, length) in classes.items()}
        return {f: _march_once(structure, layers, f, partner, class_sums)
                for f in FIELDS}

    res = run(step)
    if richardson:
        res2 = run(step / 2.0)
        res = {f: {k: (4.0 * res2[f][k] - v) / 3.0 for k, v in r.items()}
               for f, r in res.items()}
    widths = basis.widths
    weight = np.sqrt(widths[:, None] * widths[None, :])
    return {"s": {k: v * weight for k, v in res["s"].items()},
            "i": {k: np.conj(v) * weight for k, v in res["i"].items()}}


def resident_time_kernel(t, omega, widths):
    """``observables.time_kernel`` with its (n, K) index array formed at
    once and the roots W^s = e^{-2 pi i s / n} taken over the signed
    residues s in [-n/2, n/2): e^{-2 pi i |s| / n}, conjugated for s < 0,
    and W^{-n/2} = -1."""
    n, r = t.size, omega.size // 2
    signed = (np.arange(n) + n // 2) % n - n // 2
    roots = np.exp(-2j * np.pi / n * np.abs(signed))
    roots[signed < 0] = np.conj(roots[signed < 0])
    roots[2 * signed == -n] = -1.0
    index = np.outer(np.arange(n) - n // 2, np.arange(omega.size) - r) % n
    return roots[index] * np.exp(-1j * omega[r] * t)[:, None] * widths


def resident_temporal_stage(jsa, n_time: int, t_idler=None):
    """The temporal stage with the half transform held whole.

    kernel @ spectrum is formed at once, the row and column bounds of the
    joint peak in one shot each, and the peak block in row slices of
    2 n K / cols rows, as the package did before it streamed the
    transform.  Returns p_signal, norm, parseval_ratio, the peak's
    (t_s, t_i) indices and the conditional cut at t_idler (default: the
    peak's t_i), the column kernel @ (spectrum @ kernel[t_i]).
    """
    t = default_time_grid(jsa.widths, n_time)
    dt = float(t[1] - t[0])
    widths = jsa.widths
    kernel = resident_time_kernel(t, jsa.omega, widths)
    spectrum = jsa.continuous
    half = kernel @ spectrum
    row_power = t.size * (np.abs(half) ** 2 @ widths ** 2)
    norm = float(row_power.sum() * dt * dt)
    spectral_power = float(np.sum(np.abs(jsa.matrix) ** 2))
    parseval = (norm / (2.0 * np.pi) ** 2 / spectral_power
                if spectral_power > 0 else float("nan"))

    def density(rows, kernel_t):
        return np.abs(rows @ kernel_t) ** 2 / norm

    k = half.shape[1]
    eps = np.finfo(float).eps
    grow = 1.0 + 8.0 * (k + 4) * eps
    slack = grow / norm
    allowance = 4.0 * (k + 4) * eps * (widths @ np.abs(spectrum) @ widths)
    row_bound = (np.abs(half) @ widths) ** 2 * slack
    g = kernel @ spectrum.T
    col_bound = (np.abs(g) @ widths + allowance) ** 2 * slack
    first = np.sqrt(
        density(half[int(np.argmax(row_bound))], kernel.T).max() * norm)
    threshold = max(first - allowance, 0.0) ** 2 / (grow * norm)
    rows = np.flatnonzero(row_bound >= threshold)
    cols = np.flatnonzero(col_bound >= threshold)
    kernel_t = kernel[cols].T
    step = max(1, 2 * half.size // cols.size)
    top, at = -np.inf, 0
    for start in range(0, rows.size, step):
        block = density(half[rows[start:start + step]], kernel_t)
        flat = int(np.argmax(block))
        if block.flat[flat] > top:
            top, at = block.flat[flat], start * cols.size + flat
    i, j = divmod(at, cols.size)
    peak = (int(rows[i]), int(cols[j]))

    col = peak[1] if t_idler is None else int(np.argmin(np.abs(t - t_idler)))
    cut = density(kernel, spectrum @ kernel[col])
    cut_norm = cut.sum() * dt
    return {
        "p_signal": row_power * dt / norm,
        "norm": norm,
        "parseval_ratio": parseval,
        "peak": peak,
        "cut": cut / cut_norm if cut_norm > 0 else cut,
    }


def count_field_maps(monkeypatch):
    """The grid size of every ``linear.field_maps`` call the package makes
    from here on, wherever it is reached from: the function is replaced
    in every loaded spdc1d module that holds it."""
    calls = []

    def counting(structure, omega):
        calls.append(np.size(omega))
        return field_maps(structure, omega)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("spdc1d.")
                and getattr(mod, "field_maps", None) is field_maps):
            monkeypatch.setattr(mod, "field_maps", counting)
    return calls
