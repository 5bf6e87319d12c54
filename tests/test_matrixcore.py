import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import spdc1d.matrixcore as matrixcore_mod
import spdc1d.runner as runner_mod
from spdc1d.config import load_config, parse_config
from spdc1d.constants import CONSTANTS
from spdc1d.errors import ConfigError, SingularMatrix
from spdc1d.linear import (
    PumpSpec,
    continuity_rows,
    feed_in_map,
    input_output_map,
    linear_transmission,
    mat2_inv,
    mat2_mul,
)
from spdc1d.materials import constant_material, refractive_index
from spdc1d.matrixcore import (
    build_emission,
    inverse_responses,
    outward_maps,
    propagator_bins,
)
from spdc1d.observables import joint_density
from spdc1d.runner import ROW_CHANNELS, labels
from spdc1d.spectral import (
    DIRS,
    POLS,
    SpectralBasis,
    bin_sums,
)
from spdc1d.structure import StructureSpec

from reference import (
    LayerView,
    assert_assemblies_are_builds,
    assert_attribution_is_the_build_time_one,
    assert_bitwise_equal,
    assert_sources_bitwise_equal,
    count_field_maps,
    dense_bins,
    dense_emission,
    einsum_emission,
    full_chi2,
    linear_maps,
    pair_block,
    per_boundary,
    polarized_kernels,
    segment_response,
    two_sector_emission,
)

C = CONSTANTS.c
EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")
OMEGA_P0 = 2 * np.pi * C / 400e-9


def material_rows(material, omega):
    """The continuity rows of a material at omega."""
    return continuity_rows(refractive_index(material, omega), omega)

def _basis(bins=4, lo=0.4, hi=0.6):
    return SpectralBasis(lo * OMEGA_P0, hi * OMEGA_P0, bins)


def _stack(layers, n_in=1.0, n_out=None):
    amb = constant_material("in", n_in)
    out = amb if n_out is None else constant_material("out", n_out)
    return StructureSpec(tuple(layers), amb, out)


def _dense_f(em):
    """The labelled dense form of F, its idler sector conj(F)."""
    return dense_bins({"s": em.scatter, "i": np.conj(em.scatter)})


def _maps(em):
    """F (labelled dense) and the G_V/G_S pair arrays by attribute name."""
    return {"f_linear": _dense_f(em), "g_volume": em.g_volume,
            "g_surface": em.g_surface}


def _eye2(bins):
    """Per-bin 2x2 identity maps, shape (2, 2, bins)."""
    return np.broadcast_to(np.eye(2)[:, :, None], (2, 2, bins))


def test_overlap_matrices_constant_index():
    """The entries of the interface map are the single-frequency overlaps
    of the top-hat basis: 1/sqrt(n) in the E row, +-i k/sqrt(n) in the H
    row."""
    b = _basis(6)
    (i_e, i_e2), (i_hf, i_hb) = material_rows(constant_material("v", 1.0),
                                                b.centers)
    assert np.allclose(i_e, 1.0)
    assert np.array_equal(i_e2, i_e)
    (i_e4, _), _ = material_rows(constant_material("m", 4.0), b.centers)
    assert np.allclose(i_e4, 0.5)
    assert np.allclose(i_hb, -i_hf)
    assert np.allclose(i_hf, 1j * b.centers / C * 1.0)


def test_overlap_matrices_sellmeier_per_bin(gan):
    b = SpectralBasis(0.3 * OMEGA_P0, 0.8 * OMEGA_P0, 16)
    (i_e, _), (i_hf, _) = material_rows(gan, b.centers)
    for k in range(16):
        n_k = refractive_index(gan, b.centers[k])
        assert i_e[k] == pytest.approx(1.0 / np.sqrt(n_k), rel=1e-14)
        assert i_hf[k] == pytest.approx(
            1j * b.centers[k] / C * np.sqrt(n_k), rel=1e-14
        )


def test_interface_matrix_k1_layout():
    b = _basis(1, 0.499, 0.501)
    omega = b.centers[0]
    k = omega / C
    per_bin = material_rows(constant_material("v", 1.0), b.centers)
    mat = dense_bins({"s": per_bin, "i": np.conj(per_bin)}, ROW_CHANNELS)
    assert labels(ROW_CHANNELS, 1)[:4] == ["s/E/x/0", "s/E/y/0", "s/H/x/0",
                                           "s/H/y/0"]
    sig = mat[:4, :4]
    expected = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1j * k, -1j * k, 0, 0],
            [0, 0, 1j * k, -1j * k],
        ]
    )
    assert np.allclose(sig, expected, rtol=1e-14)
    # idler sector conjugated
    idl = mat[4:, 4:]
    assert np.allclose(idl, np.conj(expected), rtol=1e-14)
    # the field sectors do not mix
    assert np.all(mat[:4, 4:] == 0.0) and np.all(mat[4:, :4] == 0.0)


def test_interface_matrix_invertible_random_lossless():
    rng = np.random.RandomState(11)
    b = _basis(3)
    for _ in range(20):
        n = 1.0 + 3.0 * rng.rand()
        per_bin = np.moveaxis(
            material_rows(constant_material("m", n), b.centers), -1, 0)
        # rows carry the physical k scale (~1e7/m); normalize before
        # conditioning so the check probes genuine rank, not units
        scale = np.abs(per_bin).max(axis=2, keepdims=True)
        assert np.all(np.linalg.cond(per_bin / scale) < 1e3)


def test_identical_adjacent_layers_same_interface(gan):
    b = _basis(3)
    assert np.array_equal(material_rows(gan, b.centers),
                          material_rows(gan, b.centers))


def test_propagator_identity_additivity_unimodular(gan):
    b = _basis(5)
    eye = _eye2(5)
    assert np.allclose(propagator_bins(gan, 0.0, b), eye)
    p1 = propagator_bins(gan, 40e-9, b)
    p2 = propagator_bins(gan, 75e-9, b)
    p12 = propagator_bins(gan, 115e-9, b)
    assert np.allclose(mat2_mul(p1, p2), p12, rtol=1e-12)
    assert np.all(p1[0, 1] == 0.0) and np.all(p1[1, 0] == 0.0)
    diag = np.array([p1[0, 0], p1[1, 1]])
    assert np.allclose(np.abs(diag), 1.0, rtol=1e-14)


def _folded_transfer(structure, b, n, m):
    """Layer-n modes at z_n from layer-m modes at z_{m+1}, folded from
    the per-bin continuity rows and propagators of the layers between."""
    acc = material_rows(structure.material(m), b.centers)
    for l in range(m + 1, n):
        lay = material_rows(structure.material(l), b.centers)
        prop = propagator_bins(structure.material(l), structure.length(l), b)
        acc = mat2_mul(lay, mat2_mul(prop, mat2_mul(mat2_inv(lay), acc)))
    return mat2_mul(
        mat2_inv(material_rows(structure.material(n), b.centers)), acc)


def test_transfer_adjacent_identical_materials_is_identity():
    m = constant_material("m", 1.7)
    st = _stack([(m, 50e-9, 1), (m, 80e-9, 1)], n_in=1.7)
    b = _basis(3)
    eye = _eye2(3)
    assert np.allclose(_folded_transfer(st, b, 1, 0), eye, atol=1e-13)
    assert np.allclose(linear_maps(st, b)["s"].at_left[1], eye, atol=1e-13)


def test_transfer_split_composition(stack4):
    b = _basis(3)
    whole = linear_maps(stack4, b)["s"].at_left[-1]
    whole_s = linear_maps(stack4.split_layer(2, 0.35), b)["s"].at_left[-1]
    assert np.allclose(whole, whole_s, rtol=1e-12)


def test_transfer_general_compose_consistency(stack4):
    b = _basis(2)
    maps = linear_maps(stack4, b)["s"]
    # T^(n,0) folded from the continuity rows equals the marched transfer
    for n in (1, 3, stack4.n_layers + 1):
        assert np.allclose(_folded_transfer(stack4, b, n, 0), maps.at_left[n],
                           rtol=1e-12)
    # the right edge of a layer is its left edge advanced by the propagator
    for l in (1, 2):
        prop = propagator_bins(stack4.material(l), stack4.length(l), b)
        assert np.allclose(mat2_mul(prop, maps.at_left[l]), maps.at_right[l],
                           rtol=1e-12)
    # the backward fold inverts the full transfer at the input medium
    n_out = stack4.n_layers + 1
    r0 = mat2_inv(_folded_transfer(stack4, b, n_out, 0))
    eye = _eye2(2)
    assert np.allclose(mat2_mul(r0, maps.at_left[-1]), eye, atol=1e-10)


def test_one_flux_transfer_march_per_build(stack4, pump400, monkeypatch):
    """Signal and idler share one basis, and the pump is solved only on
    its lit bin sums, so a build solves the stack once, on the bin
    centers followed by the lit bin sums."""
    calls = count_field_maps(monkeypatch)
    b = _basis(3)
    em = build_emission(stack4, pump400, b)
    assert calls == [b.bins + em.pump.omega[em.pump.mask].size]


def test_idler_maps_are_conjugated_signal_maps(stack4):
    maps = linear_maps(stack4, _basis(3))
    for name in ("at_left", "at_right", "interface", "scatter"):
        signal, idler = getattr(maps["s"], name), getattr(maps["i"], name)
        assert idler.tobytes() == np.conj(signal).tobytes(), name
    # the feed's pass-through entries 1 and 0 are built, not conjugated,
    # so only the signs of their zero imaginary parts may differ
    assert np.array_equal(maps["i"].feed, np.conj(maps["s"].feed))


def test_input_output_identity_for_identity_transfer():
    eye = _eye2(2).astype(complex)
    assert np.allclose(input_output_map(eye), eye, atol=1e-14)
    f = dense_bins({"s": eye, "i": eye})
    assert np.allclose(f, np.eye(16), atol=1e-14)


def test_scattering_unitary_and_transmission_crosscheck(stack4):
    b = _basis(1, 0.497, 0.503)
    scatter = {fld: m.scatter for fld, m in linear_maps(stack4, b).items()}
    f = dense_bins(scatter)
    dev = np.abs(f @ f.conj().T - np.eye(len(f))).max()
    assert dev < 1e-9
    t, r, big_t, big_r = linear_transmission(stack4, b.centers[0])
    f_ff, f_bf = scatter["s"][:, 0, 0]  # (out dir, in dir F, bin 0)
    # flux normalization: identical ambients make the flux and field
    # amplitude ratios coincide, so the scalar transfer result embeds
    # directly on the diagonal of the scattering map
    assert f_ff == pytest.approx(t, rel=1e-12)
    assert f_bf == pytest.approx(r, rel=1e-12, abs=1e-14)
    assert abs(f_ff) ** 2 == pytest.approx(big_t, rel=1e-10)
    assert abs(f_bf) ** 2 == pytest.approx(big_r, rel=1e-10, abs=1e-12)


def test_feed_in_and_outward_maps(stack4):
    b = _basis(2)
    eye = _eye2(2)
    for field, maps in linear_maps(stack4, b).items():
        f, w = maps.scatter, maps.feed
        # forward rows pass inputs through
        assert np.allclose(w[0], eye[0])
        # backward rows reproduce the scattering map rows
        assert np.allclose(w[1], f[1])
        assert np.allclose(w, feed_in_map(f))
        x, y, z = outward_maps(maps, stack4.n_layers + 1)
        assert np.allclose(mat2_mul(z, f), eye, atol=1e-10)
        xy = mat2_mul(x, y)
        assert np.allclose(xy[0], eye[0], atol=1e-10), field


def test_trivial_structure_feed_has_no_reflection_coupling():
    m = constant_material("m", 1.3)
    st = _stack([(m, 120e-9, 1)], n_in=1.3)
    b = _basis(2)
    w = linear_maps(st, b)["s"].feed
    assert np.allclose(w[1, 0], 0.0, atol=1e-12)
    assert np.allclose(np.abs(w[1, 1]), 1.0, rtol=1e-12)


def test_pair_sources_zero_for_linear_layers(aln, air, pump400):
    st = StructureSpec(((aln, 60e-9, 1), (aln, 40e-9, 1)), air, air)
    b = _basis(3)
    em = per_boundary(build_emission, st, pump400, b)
    assert np.linalg.norm(em.g_volume) == 0.0
    assert np.linalg.norm(em.g_surface) == 0.0
    for l in em.boundary_sources:
        s_v, s_s = em.boundary_sources[l]
        assert np.linalg.norm(s_v) == 0.0 and np.linalg.norm(s_s) == 0.0


def test_boundary_sources_sum_to_emission_maps(gan, aln, air, stack4,
                                               pump400):
    """Each boundary's source, on stack4 and over a 3 x 2 geometry grid
    (a scalar-length class among the grid lengths), carries the grid
    axes; the sources sum to G_V and G_S of every geometry."""
    for structure, b in ((stack4, _basis(5)),
                         (_grid_stack(gan, aln, air), _basis(5, 0.35, 0.65))):
        em = per_boundary(build_emission, structure, pump400, b)
        assert sorted(em.boundary_sources) == list(
            range(1, structure.n_layers + 2))
        for w, g in enumerate((em.g_volume, em.g_surface)):
            total = sum(pair[w] for pair in em.boundary_sources.values())
            assert total.shape == (2,) * 4 + structure.grid + (b.bins,) * 2
            assert np.linalg.norm(g) > 0.0
            assert np.linalg.norm(total - g) <= 1e-13 * np.linalg.norm(g)


def test_boundary_outside_the_stack_is_refused(stack4, pump400):
    for l in (0, stack4.n_layers + 2):
        with pytest.raises(ConfigError, match=f"no boundary {l} in 1..5"):
            build_emission(stack4, pump400, _basis(3), boundary=l)


def _sector(pairs, fi, d, p, c, q):
    """Block (row dir d, row pol p; col dir c, col pol q) of row field fi
    of a stored pair array: the idler rows are the conjugated signal rows
    with the pols exchanged."""
    return pairs[d, p, c, q] if fi == 0 else np.conj(pairs[d, q, c, p])


def _assert_sources_match_per_block_loop(structure, pump_spec, b,
                                         convention="local-jump"):
    """Every boundary's source (the build with ``boundary`` = l), and G_V
    and G_S of the full build (its class passes run in chunks of layers),
    against a plain loop over (row field, row pol, col pol) built from the
    basis-projected kernel arrays of couplings that share nothing:
    columns scaled by the feed of the other field, rows by the inverse
    response."""
    em = per_boundary(build_emission, structure, pump_spec, b,
                      convention=convention)
    maps = linear_maps(structure, b)
    couplings = [LayerView(structure, l, b, em.pump)
                 for l in range(structure.n_layers + 2)]
    k = b.bins
    totals = np.zeros((2,) * 6 + (k, k), dtype=complex)
    for l, kept in em.boundary_sources.items():
        sides = ((couplings[l - 1], "right", 1.0, l - 1),
                 (couplings[l], "left", -1.0, l))
        for fi, (row_f, col_f) in enumerate((("s", "i"), ("i", "s"))):
            inv = mat2_inv(segment_response(maps[row_f], l))
            for pi in range(len(POLS)):
                for qi in range(len(POLS)):
                    # rows[w, E/H, col channel]: continuity-row sources
                    rows = np.zeros((2, 2, 2, k, k), dtype=complex)
                    for coup, edge, sign, idx in sides:
                        if coup.is_dark():
                            continue
                        vol_e, vol_h, sur_h = polarized_kernels(
                            coup.project(edge, convention))
                        pref = 1.0 / np.sqrt(
                            refractive_index(coup.material, b.centers))
                        at = (maps[col_f].at_right[idx] if edge == "right"
                              else maps[col_f].at_left[idx])
                        feed = mat2_mul(at, maps[col_f].feed)
                        for bi in range(len(DIRS)):
                            key = (fi, pi, bi, qi)
                            zero = np.zeros_like(vol_e[key])
                            j = ((vol_e[key], vol_h[key]),
                                 (zero, sur_h[key]))
                            for w in range(2):
                                for x in range(2):
                                    jx = pref[:, None] * j[w][x]
                                    if row_f == "i":
                                        jx = np.conj(jx)
                                    for c in range(2):
                                        rows[w, x, c] += (
                                            sign * jx * feed[bi, c][None, :])
                    for w in range(2):
                        for d in range(2):
                            for c in range(2):
                                ref = (inv[d, 0][:, None] * rows[w, 0, c]
                                       + inv[d, 1][:, None] * rows[w, 1, c])
                                totals[w, fi, d, pi, c, qi] += ref
                                got = _sector(kept[w], fi, d, pi, c, qi)
                                scale = max(np.abs(ref).max(), 1e-300)
                                assert np.abs(got - ref).max() <= 1e-13 * scale
    for w, g in enumerate((em.g_volume, em.g_surface)):
        for block in np.ndindex((2,) * 5):
            ref = totals[w][block]
            scale = max(np.abs(ref).max(), 1e-300)
            assert np.abs(_sector(g, *block) - ref).max() <= 1e-13 * scale


def test_boundary_sources_match_per_block_loop(stack4, pump400):
    _assert_sources_match_per_block_loop(stack4, pump400, _basis(3))


def test_boundary_sources_reuse_kernels_across_repeated_layers(
        gan, aln, air, pump400):
    """Repeated (material, length) layers share their kernels within a
    build; the pump weight and poling stay per layer, and materials are
    told apart by identity: an AlN made nonlinear at GaN's length, and a
    second material named 'GaN' with other chi2 entries (distinct for
    every polarization pair, so d and d.T differ)."""
    aln_nl = replace(aln, chi2={("y", "x", "y"): 2e-12})
    gan_b = replace(gan, chi2={("y", "x", "y"): 1e-12, ("y", "y", "x"): 3e-12,
                               ("y", "x", "x"): -2e-12, ("y", "y", "y"): 5e-13})
    assert gan_b.name == gan.name
    layers = ((gan, 60e-9, 1), (aln_nl, 60e-9, 1), (gan, 60e-9, -1),
              (gan_b, 60e-9, 1), (gan, 60e-9, 1), (aln, 12e-9, 1),
              (gan_b, 60e-9, -1), (gan, 45e-9, 1))
    st = StructureSpec(layers, air, air)
    _assert_sources_match_per_block_loop(st, pump400, _basis(4))


def _two_classes(gan, aln):
    """GaN with every polarization pair and AlN with one (distinct d)."""
    return (replace(gan, chi2={("y", "x", "y"): 4e-12,
                               ("y", "y", "x"): 1.5e-12,
                               ("y", "x", "x"): 2.5e-12,
                               ("y", "y", "y"): -1e-12}),
            replace(aln, chi2={("y", "y", "x"): 2e-12}))


def _two_class_mixed_poling(gan, aln, air):
    gan_full, aln_nl = _two_classes(gan, aln)
    layers = ((gan_full, 60e-9, 1), (aln_nl, 25e-9, -1),
              (gan_full, 60e-9, -1), (aln_nl, 25e-9, 1),
              (gan_full, 60e-9, 1), (aln_nl, 25e-9, -1))
    return StructureSpec(layers, air, air)


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
def test_class_pass_two_classes_mixed_poling(gan, aln, air, pump400,
                                             convention):
    """Two nonlinear classes with distinct d (GaN with every polarization
    pair, AlN with one) and mixed poling inside each class, under both
    attributions."""
    _assert_sources_match_per_block_loop(_two_class_mixed_poling(gan, aln,
                                                                 air),
                                         pump400, _basis(4), convention)


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
def test_class_pass_partial_last_chunk(gan, aln, air, pump400, convention):
    """At 30 bins (594 lit entries) a class pass takes 3 layers per
    chunk, so the 4 GaN layers of this stack run as one full chunk and a
    partial one."""
    bins, members = 30, 4
    layers = tuple(((gan, 60e-9, (-1) ** i), (aln, 12e-9, 1))
                   for i in range(members))
    st = StructureSpec(sum(layers, ()), air, air)
    lit = matrixcore_mod.solve_emission(st, pump400, _basis(bins)).lit[0].size
    per_chunk = matrixcore_mod._CLASS_CHUNK // lit
    assert 1 < per_chunk < members and members % per_chunk
    _assert_sources_match_per_block_loop(st, pump400, _basis(bins),
                                         convention)


def _grid_stack(gan, aln, air):
    """Three periods of a GaN layer over a 3 x 2 grid of lengths and an
    AlN layer of one length, both nonlinear (distinct d)."""
    gan_full, aln_nl = _two_classes(gan, aln)
    l1 = np.array([[10.0, 25.0], [40.0, 55.0], [70.0, 85.0]]) * 1e-9
    return StructureSpec(sum((((gan_full, l1, (-1) ** p),
                               (aln_nl, 33e-9, 1)) for p in range(3)), ()),
                         air, air)


def _einsum_cases(gan, aln, air, stack4):
    """name -> (structure, basis): the stacks on which the slab-arithmetic
    assembly is held to the einsum one."""
    cfg = load_config(EXAMPLE)
    grid = _grid_stack(gan, aln, air)
    slab = constant_material("slab", 2.4, chi2={("y", "x", "y"): 4e-12})
    return {
        "shipped-k12": (cfg.structure, cfg.basis(bins=12)),
        "shipped-k64": (cfg.structure, cfg.basis(bins=64)),
        "full-chi2-stack4": (full_chi2(stack4), _basis(5)),
        "two-class-mixed-poling": (_two_class_mixed_poling(gan, aln, air),
                                   _basis(4)),
        "2d-grid-scalar-class": (grid, _basis(5, 0.35, 0.65)),
        "slab-n2.4": (StructureSpec(((slab, 400e-9, 1),), air, air),
                      _basis(8, 0.05, 0.95)),
    }


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
@pytest.mark.parametrize("case", ["shipped-k12", "shipped-k64",
                                  "full-chi2-stack4",
                                  "two-class-mixed-poling",
                                  "2d-grid-scalar-class", "slab-n2.4"])
def test_emission_matches_einsum_assembly(gan, aln, air, stack4, pump400,
                                          case, convention):
    """G_V, G_S and every boundary's source of the slab-arithmetic class
    pass on class kernels without a stored magnetic volume row, against
    the einsum assembly with per-entry exponentials (``einsum_emission``):
    the full build, its layers run in chunks, and the build of each
    boundary alone."""
    structure, b = _einsum_cases(gan, aln, air, stack4)[case]
    got, want = (per_boundary(build, structure, pump400, b,
                              convention=convention)
                 for build in (build_emission, einsum_emission))
    assert sorted(got.boundary_sources) == sorted(want.boundary_sources)
    pairs = [(got.g_volume, want.g_volume),
             (got.g_surface, want.g_surface)]
    for l, parts in want.boundary_sources.items():
        pairs += zip(got.boundary_sources[l], parts)
    for g, w in pairs:
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    assert np.max(np.abs(want.g_volume)) > 0.0
    assert np.max(np.abs(want.g_surface)) > 0.0


def _bitwise_cases(gan, aln, air):
    """name -> (structure, pump, basis, sources): the stacks, pumps and
    windows on which the lit-entry assembly is pinned bit for bit to the
    K x K one, with sources also each boundary's build."""
    cfg = load_config(EXAMPLE)
    st, pump = cfg.structure, cfg.pump
    wide = parse_config({**cfg.raw, "pump": {**cfg.raw["pump"],
                                             "fwhm_nm": 20.0}}).pump
    l1 = np.linspace(50.0, 70.0, 7)[:, None] * 1e-9
    l2 = np.linspace(10.0, 16.0, 5)[None, :] * 1e-9
    scan_grid = runner_mod._pair_stack(cfg, l1, l2)
    cases = {f"shipped-k{k}-{keep}": (st, pump, cfg.basis(bins=k), keep)
             for k in (2, 3, 5, 12, 36, 64, 128) for keep in (True, False)
             if not (keep and k == 128)}
    cases.update({
        "scan-grid-7x5": (scan_grid, pump, cfg.basis(bins=12), False),
        "scan-grid-7x5-kept": (scan_grid, pump, cfg.basis(bins=6), True),
        "split-stack": (st.split_layer(1, 0.5), pump, cfg.basis(bins=12),
                        True),
        "dark-window": (st, pump, cfg.basis(bins=16, window=(0.05, 0.3)),
                        True),
        "fwhm-20nm": (st, wide, cfg.basis(bins=24), True),
        "cutoff-6-sigma": (st, replace(pump, cutoff_nsigma=6.0),
                           cfg.basis(bins=24), True),
        "two-class-mixed-poling": (_two_class_mixed_poling(gan, aln, air),
                                   pump, _basis(7), True),
        "2d-grid-scalar-class": (_grid_stack(gan, aln, air), pump,
                                 _basis(5, 0.35, 0.65), True),
        "dark-neighbours": (StructureSpec(((gan, 60e-9, 1), (aln, 20e-9, 1),
                                           (aln, 30e-9, 1), (gan, 45e-9, -1)),
                                          air, air),
                            pump, _basis(6), True),
    })
    return cases


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
@pytest.mark.parametrize("case", ["shipped-k2-True", "shipped-k2-False",
                                  "shipped-k3-True", "shipped-k3-False",
                                  "shipped-k5-True", "shipped-k5-False",
                                  "shipped-k12-True", "shipped-k12-False",
                                  "shipped-k36-True", "shipped-k36-False",
                                  "shipped-k64-True", "shipped-k64-False",
                                  "shipped-k128-False", "scan-grid-7x5",
                                  "scan-grid-7x5-kept", "split-stack",
                                  "dark-window", "fwhm-20nm",
                                  "cutoff-6-sigma", "two-class-mixed-poling",
                                  "2d-grid-scalar-class", "dark-neighbours"])
def test_lit_entry_assembly_is_bitwise_the_dense_one(gan, aln, air, case,
                                                     convention):
    """F, G_V and G_S of the assembly on the pump's lit entries, and in
    the cases with sources each boundary's build, hold the same bits as
    the K x K assembly on every entry (``dense_emission``, its sources
    kept one layer at a time), signed zeros included: the lit entries
    round alike and every dark entry is +0.  The dark window lights no
    bin sum (E = 0); the 20 nm and 6-sigma pumps move the band's edge;
    boundary 3 of the dark-neighbours stack joins two linear AlN layers,
    so its source is +0 throughout."""
    structure, pump, b, sources = _bitwise_cases(gan, aln, air)[case]
    got = build_emission(structure, pump, b).attributed(convention)
    assert_bitwise_equal(got, dense_emission(structure, pump, b,
                                             convention=convention))
    if sources:
        assert_sources_bitwise_equal(structure, pump, b, convention)
    if case == "dark-neighbours":
        dark = build_emission(structure, pump, b,
                              boundary=3).attributed(convention)
        for g in (dark.g_volume, dark.g_surface):
            assert not np.any(g.view(np.int64))
    lit = np.count_nonzero(got.pump.mask[bin_sums(b)[1]])
    if case == "dark-window":
        assert lit == 0 and not np.any(got.g_volume)
    else:
        assert 0 < lit and np.any(got.g_volume)


@pytest.mark.parametrize("warn", [False, True])
@pytest.mark.parametrize("case", ["shipped-k12", "shipped-k64", "scan-grid",
                                  "2d-grid-scalar-class"])
def test_assemblies_of_one_solve_are_the_builds(gan, aln, air, monkeypatch,
                                                case, warn):
    """Each attribution and each boundary assembled from one shared solve
    holds the bits of its own build, warnings included; with ``warn``
    the condition number of every boundary with a nonlinear side is over
    the threshold, so a boundary's assembly must report its own warning
    alone."""
    cfg = load_config(EXAMPLE)
    l1 = np.linspace(50.0, 70.0, 4)[:, None] * 1e-9
    l2 = np.linspace(10.0, 16.0, 3)[None, :] * 1e-9
    structure, b = {
        "shipped-k12": (cfg.structure, cfg.basis(bins=12)),
        "shipped-k64": (cfg.structure, cfg.basis(bins=64)),
        "scan-grid": (runner_mod._pair_stack(cfg, l1, l2), cfg.basis(bins=6)),
        "2d-grid-scalar-class": (_grid_stack(gan, aln, air),
                                 _basis(5, 0.35, 0.65)),
    }[case]
    if warn:
        monkeypatch.setattr(matrixcore_mod, "CONDITION_WARN", 0.0)
    assert_assemblies_are_builds(structure, cfg.pump, b)
    solve = matrixcore_mod.solve_emission(structure, cfg.pump, b)
    warnings = build_emission(structure, cfg.pump, b).warnings
    assert len(warnings) == (len(solve.boundaries) if warn else 0)
    assert len(solve.boundaries) > 1
    for l in range(1, structure.n_layers + 2):
        own = [w for w in warnings if w.startswith(f"boundary {l}:")]
        assert matrixcore_mod.assemble_emission(
            solve, boundary=l).warnings == own


@pytest.mark.parametrize("bins", [12, 64])
def test_idler_rows_are_conjugated_signal_rows(stack20, pump400, bins):
    """The emission assembly builds the inverse boundary responses and the
    feeds for the signal rows only and takes the idler rows' as complex
    conjugates: exact at every boundary and both edges, and so are the
    idler rows of G_V and G_S (with the pols swapped, d.T) that the
    two-sector assembly stores beside signal rows equal to the stored
    ones, signed zeros included."""
    b = _basis(bins, 0.35, 0.65)
    maps = linear_maps(stack20, b)
    boundaries = np.arange(1, stack20.n_layers + 2)
    inv_s, inv_i = (inverse_responses(maps[f], boundaries)[0]
                    for f in ("s", "i"))
    assert np.array_equal(inv_i, np.conj(inv_s))
    for edge in ("left", "right"):
        assert np.array_equal(maps["s"].fed(edge), np.conj(maps["i"].fed(edge)))
    em = build_emission(stack20, pump400, b)
    both = two_sector_emission(stack20, pump400, b)
    for g, g2 in ((em.g_volume, both.g_volume), (em.g_surface, both.g_surface)):
        assert np.any(g)
        assert np.array_equal(g.view(np.int64), g2[0].view(np.int64))
        assert np.array_equal(g2[1], np.conj(g).swapaxes(1, 3))


def test_singular_boundary_response_names_its_boundary(stack20):
    """A singular boundary response raises SingularMatrix naming the first
    bad boundary."""
    maps = linear_maps(stack20, _basis(3))["s"]
    at_left = maps.at_left.copy()
    at_left[5] = 0.0
    with pytest.raises(SingularMatrix, match="boundary 5 response"):
        inverse_responses(replace(maps, at_left=at_left),
                          range(1, stack20.n_layers + 2))


def _wronskian_defect(maps, boundaries):
    """max |det(L_l at_left[l]) / det(L_0) - 1| over the boundaries, the
    geometry grid and the bins; det(L_0) = -2iw/c per bin."""
    rows = maps.boundary_rows(boundaries)
    det = rows[0, 0] * rows[1, 1] - rows[0, 1] * rows[1, 0]
    l0 = maps.interface[0]
    det0 = l0[0, 0] * l0[1, 1] - l0[0, 1] * l0[1, 0]
    return np.abs(det / det0 - 1.0).max()


def test_boundary_wronskian_is_the_ambient_one(stack4):
    """The flux transfers are unimodular, so every boundary's E/H rows of
    the medium-0 modes have the determinant of the ambient interface map:
    one Wronskian per bin, for both fields, on the shipped config, stack4
    and the scan's pair stack over an (l1, l2) grid."""
    cfg = load_config(EXAMPLE)
    lengths = np.linspace(10e-9, 100e-9, 4)
    grid = runner_mod._pair_stack(cfg, lengths[:, None], lengths[None, :])
    for st, b in ((cfg.structure, cfg.basis(bins=16)), (stack4, _basis(8)),
                  (grid, cfg.basis(bins=cfg.scan.bins))):
        boundaries = np.arange(1, st.n_layers + 2)
        for field, maps in linear_maps(st, b).items():
            l0 = maps.interface[0]
            det0 = (l0[0, 0] * l0[1, 1] - l0[0, 1] * l0[1, 0]).ravel()
            sign = 1.0 if field == "s" else -1.0
            assert np.allclose(det0, -2j * sign * b.centers / C, rtol=1e-14)
            assert _wronskian_defect(maps, boundaries) < 1e-12


# the parent formula's condition numbers of the boundaries that warn,
# per number of periods of the quarter-wave stack
QUARTER_WAVE_CONDITION = {
    25: {1: 2765259490606.1885, 48: 2239704515489.1484,
         50: 6220306917302.886},
    30: {1: 35612979228930.305, 3: 12823144381071.742,
         5: 4617222024263.065, 7: 1662520426944.7075,
         52: 1341322178313.4292, 54: 3725409376562.487,
         56: 10346647253437.834, 58: 28745794324390.453,
         60: 79867604779640.64},
}


@pytest.mark.parametrize("periods", sorted(QUARTER_WAVE_CONDITION))
def test_condition_warning_on_quarter_wave_stacks(air, pump400, periods):
    """Quarter-wave n = 2.5/1.5 stacks at 800 nm in air warn at the
    boundaries whose response condition number exceeds CONDITION_WARN,
    with the pinned numbers.  Near the stop band the double-precision
    march holds those numbers only to its own accuracy, which is what the
    Wronskian defect of the stack measures (2e-5 at 25 periods, 2e-3 at
    30), so that defect bounds each one's relative deviation."""
    hi = constant_material("hi", 2.5, chi2={("y", "x", "y"): 1e-12})
    lo = constant_material("lo", 1.5)
    w800 = 2 * np.pi * C / 800e-9
    b = SpectralBasis(0.975 * w800, 1.025 * w800, 8)
    st = StructureSpec(((hi, 80e-9, 1), (lo, 800e-9 / 6, 1)) * periods,
                       air, air)
    expected = QUARTER_WAVE_CONDITION[periods]
    em = build_emission(st, pump400, b)
    assert em.warnings == [f"boundary {l}: response condition number {c:.2e}"
                           for l, c in expected.items()]
    # every boundary but the last, which joins linear n = 1.5 and air
    active = list(range(1, st.n_layers + 1))
    maps = linear_maps(st, b)["s"]
    _, cond = inverse_responses(maps, active)
    assert [l for l, c in zip(active, cond)
            if c > matrixcore_mod.CONDITION_WARN] == list(expected)
    defect = _wronskian_defect(maps, np.array(active))
    assert 1e-6 < defect < 1e-2
    for l, c in expected.items():
        assert cond[l - 1] == pytest.approx(c, rel=defect)
    cfg = load_config(EXAMPLE)
    assert build_emission(cfg.structure, cfg.pump,
                          cfg.basis(bins=12)).warnings == []


def test_fictitious_boundary_surface_source_null(gan, aln, air, pump400):
    st = StructureSpec(((gan, 60e-9, 1), (aln, 40e-9, 1)), air, air)
    b = _basis(4)
    em = build_emission(st, pump400, b)
    fict = build_emission(st.split_layer(1, 0.5), pump400, b, boundary=2)
    scale = np.linalg.norm(em.g_volume + em.g_surface)
    s_v, s_s = fict.g_volume, fict.g_surface
    assert np.linalg.norm(s_s) / scale < 1e-10
    # the volume handover at the fictitious boundary is nonzero
    assert np.linalg.norm(s_v) / scale > 1e-3


def test_split_layer_invariance_all_maps(gan, aln, air, pump400):
    st = StructureSpec(
        ((gan, 55e-9, 1), (aln, 35e-9, 1), (gan, 70e-9, 1)), air, air
    )
    b = _basis(4)
    em = build_emission(st, pump400, b)
    for l, frac in ((1, 0.5), (2, 0.25), (3, 0.7)):
        em2 = build_emission(st.split_layer(l, frac), pump400, b)
        for name, a in _maps(em).items():
            c = _maps(em2)[name]
            scale = max(np.linalg.norm(a), 1e-300)
            assert np.linalg.norm(a - c) / scale < 1e-9, (name, l, frac)


def test_pump_energy_scaling_sqrt(gan, aln, air, pump400):
    st = StructureSpec(((gan, 60e-9, 1), (aln, 40e-9, 1)), air, air)
    b = _basis(3)
    em1 = build_emission(st, pump400, b)
    pump4 = PumpSpec(omega0=pump400.omega0, sigma=pump400.sigma,
                     energy_per_area=4e3)
    em4 = build_emission(st, pump4, b)
    assert np.allclose(em4.g_volume, 2.0 * em1.g_volume, rtol=1e-12)
    assert np.allclose(em4.g_surface, 2.0 * em1.g_surface, rtol=1e-12)


def test_per_layer_chi_superposition(gan, gan_linear, aln, air, pump400):
    st_full = StructureSpec(
        ((gan, 60e-9, 1), (aln, 30e-9, 1), (gan, 45e-9, 1)), air, air
    )
    st_first = StructureSpec(
        ((gan, 60e-9, 1), (aln, 30e-9, 1), (gan_linear, 45e-9, 1)), air, air
    )
    st_last = StructureSpec(
        ((gan_linear, 60e-9, 1), (aln, 30e-9, 1), (gan, 45e-9, 1)), air, air
    )
    b = _basis(3)
    g_full = build_emission(st_full, pump400, b)
    g_first = build_emission(st_first, pump400, b)
    g_last = build_emission(st_last, pump400, b)
    for name in ("g_volume", "g_surface"):
        total = getattr(g_first, name) + getattr(g_last, name)
        assert np.allclose(total, getattr(g_full, name), rtol=1e-11)


def test_poling_sign_flips_source_amplitude(gan, air, pump400):
    st_pos = StructureSpec(((gan, 80e-9, 1),), air, air)
    st_neg = StructureSpec(((gan, 80e-9, -1),), air, air)
    b = _basis(3)
    em_p = build_emission(st_pos, pump400, b)
    em_n = build_emission(st_neg, pump400, b)
    assert np.allclose(em_n.g_volume, -em_p.g_volume, rtol=1e-12)
    assert np.allclose(em_n.g_surface, -em_p.g_surface, rtol=1e-12)
    assert np.allclose(_dense_f(em_n), _dense_f(em_p), rtol=1e-14)


def test_f_linear_is_the_dense_scattering_map(stack4, pump400):
    """``f_linear.data``, which the tracer's health hook reads, is the
    labelled dense form of F and conj(F), bit for bit."""
    em = build_emission(stack4, pump400, _basis(3))
    assert np.array_equal(em.f_linear.data.view(np.int64),
                          _dense_f(em).view(np.int64))


def test_bulk_sinc_limit_exact():
    n0 = 2.0
    mat = constant_material("bulk", n0, chi2={("y", "x", "y"): 4e-12})
    amb = constant_material("amb", n0)
    st = StructureSpec(((mat, 2e-6, 1),), amb, amb)
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    b = SpectralBasis(0.3 * OMEGA_P0, 0.7 * OMEGA_P0, 16)
    em = build_emission(st, pump, b)
    coup = LayerView(st, 1, b, em.pump)
    tst = coup.tstar("F", "x", "y")
    ws = b.centers[:, None]
    wi = b.centers[None, :]
    k_s, k_i, k_p = (ws * n0 / C, wi * n0 / C, (ws + wi) * n0 / C)
    dk = k_p - k_s - k_i
    length = 2e-6
    analytic = (
        tst * np.exp(1j * k_s * length) * length
        * np.exp(1j * dk * length / 2) * np.sinc(dk * length / 2 / np.pi)
    )
    weight = np.sqrt(b.widths[:, None] * b.widths[None, :])
    blk = pair_block(em.g_volume + em.g_surface, ("F", "x"), ("F", "y"))
    # along the anti-diagonal w_s + w_i = omega_p0 (symmetric window)
    k_bins = b.bins
    for k in range(k_bins):
        ref = analytic[k, k_bins - 1 - k] * weight[k, k_bins - 1 - k]
        got = blk[k, k_bins - 1 - k]
        assert abs(got - ref) / abs(ref) < 1e-6


def test_all_matrices_finite(stack20, pump400):
    b = _basis(6, 0.1, 0.9)
    em = build_emission(stack20, pump400, b)
    for mat in _maps(em).values():
        assert np.all(np.isfinite(mat))


def test_build_keeps_only_its_lit_entry_parts():
    """A 512-bin build of the shipped config keeps G_V and G_S as the
    lit-entry slabs T, S_R and S_L of its parts: at most 16 MiB under
    tracemalloc, where the zero-filled (2, 2, 2, 2, K, K) arrays alone
    took 128 MiB."""
    cfg = load_config(EXAMPLE)
    basis = cfg.basis(bins=512)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        em = build_emission(cfg.structure, cfg.pump, basis)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert em.parts and kept <= 16 * 2**20


def _attribution_cases(gan, aln, air):
    """name -> (structure, basis) on which the read-time attribution is
    held to the build-time one."""
    cfg = load_config(EXAMPLE)
    l1 = np.linspace(50.0, 70.0, 4)[:, None] * 1e-9
    l2 = np.linspace(10.0, 16.0, 3)[None, :] * 1e-9
    return {
        "shipped-k12": (cfg.structure, cfg.basis(bins=12)),
        "shipped-k64": (cfg.structure, cfg.basis(bins=64)),
        "scan-grid": (runner_mod._pair_stack(cfg, l1, l2), cfg.basis(bins=6)),
        "2d-grid-scalar-class": (_grid_stack(gan, aln, air),
                                 _basis(5, 0.35, 0.65)),
    }


def _assert_within(got, want, tol, name):
    assert got.shape == want.shape, name
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), name


@pytest.mark.parametrize("case", ["shipped-k12", "shipped-k64", "scan-grid",
                                  "2d-grid-scalar-class"])
def test_read_time_attribution_matches_the_build_time_one(gan, aln, air,
                                                          case):
    """G_V and G_S of the whole stack and of every boundary alone, read
    from the slabs under each attribution, against the assembly that signs
    the class kernels per attribution before its passes, within 1e-14 of
    each array's peak."""
    structure, b = _attribution_cases(gan, aln, air)[case]
    assert_attribution_is_the_build_time_one(structure,
                                             load_config(EXAMPLE).pump, b)


def test_attributed_reads_without_a_class_pass(monkeypatch):
    """``attributed`` runs no class pass and keeps the parts; an unknown
    attribution raises ConfigError."""
    cfg = load_config(EXAMPLE)
    calls = []
    orig = matrixcore_mod._class_pass

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(matrixcore_mod, "_class_pass", counting)
    em = build_emission(cfg.structure, cfg.pump, cfg.basis(bins=12))
    passes = len(calls)
    assert passes > 0 and em.attribution == "local-jump"
    per_slot = em.attributed("per-slot")
    assert per_slot.attribution == "per-slot" and per_slot.parts is em.parts
    assert per_slot.pairs("V").shape == em.pairs("V").shape
    assert len(calls) == passes
    with pytest.raises(ConfigError, match="unknown split convention"):
        em.attributed("per-layer")


@pytest.mark.parametrize("bins", [12, 64])
def test_total_is_the_same_under_both_attributions(bins):
    """G_V + G_S does not depend on the attribution, within 1e-14 of its
    peak, while G_V does."""
    cfg = load_config(EXAMPLE)
    em = build_emission(cfg.structure, cfg.pump, cfg.basis(bins=bins))
    lj, ps = (em.attributed(c) for c in ("local-jump", "per-slot"))
    total = lj.pairs("V") + lj.pairs("S")
    _assert_within(ps.pairs("V") + ps.pairs("S"), total, 1e-14, "total")
    assert np.max(np.abs(ps.pairs("V") - lj.pairs("V"))) > 0.1 * np.max(
        np.abs(total))


def _mirror(structure, pump, channel):
    """The same run seen from the other side: layers reversed, ambients
    swapped, pumped from the other side, observed directions mirrored."""
    flip = {"F": "B", "B": "F"}
    return (StructureSpec(tuple(reversed(structure.layers)),
                          structure.ambient_out, structure.ambient_in),
            replace(pump, side=flip[pump.side]),
            (flip[channel[0]], flip[channel[1]]) + tuple(channel[2:]))


@pytest.mark.parametrize("case", ["shipped", "gan-slab-600nm"])
def test_mirror_split_per_attribution(case):
    """At 64 bins the mirrored run has the same n_total under both
    attributions, entrywise within 1e-12 of its peak.  Per-slot's n_V and
    n_S are mirror-covariant too; local-jump keeps its n_S covariant, but
    its n_V moves by more than 0.1 of the n_total peak (on the slab N_V
    is 4.46e-3 pumped from the left and 1.07e-2 from the right): it keeps
    the fictitious-boundary null instead of the mirror split."""
    cfg = load_config(EXAMPLE)
    structure = cfg.structure
    if case == "gan-slab-600nm":
        structure = StructureSpec(((structure.material(1), 600e-9, 1),),
                                  structure.ambient_in, structure.ambient_in)
    basis = cfg.basis(bins=64)
    mirror, pump, channel = _mirror(structure, cfg.pump, cfg.channel)
    ems = (build_emission(structure, cfg.pump, basis),
           build_emission(mirror, pump, basis))
    for convention in ("local-jump", "per-slot"):
        jd, jd_m = (joint_density(em.attributed(convention), ch)
                    for em, ch in zip(ems, (cfg.channel, channel)))
        peak = jd.n_total.max()
        err = {w: np.max(np.abs(jd.bin_matrix(w) - jd_m.bin_matrix(w))) / peak
               for w in ("SV", "V", "S")}
        assert err["SV"] <= 1e-12 and err["S"] <= 1e-12, (convention, err)
        if convention == "per-slot":
            assert err["V"] <= 1e-12, err
        else:
            assert err["V"] > 0.1, err
