from dataclasses import replace

import numpy as np
import pytest

import spdc1d.matrixcore as matrixcore_mod
from spdc1d.blockmatrix import BlockMatrix, mode_space, row_space
from spdc1d.constants import CONSTANTS
from spdc1d.linear import (
    PumpSpec,
    feed_in_map,
    input_output_map,
    linear_transmission,
    mat2_inv,
    mat2_mul,
)
from spdc1d.materials import constant_material, refractive_index
from spdc1d.matrixcore import (
    build_emission,
    interface_bins,
    linear_maps,
    outward_maps,
    overlap_matrices,
    pair_block,
    propagator_bins,
)
from spdc1d.spectral import (
    DIRS,
    POLS,
    LayerCoupling,
    SpectralBasis,
    project_to_basis,
)
from spdc1d.structure import StructureSpec

from reference import polarized_kernels

C = CONSTANTS.c
OMEGA_P0 = 2 * np.pi * C / 400e-9


def _basis(bins=4, lo=0.4, hi=0.6):
    return SpectralBasis(lo * OMEGA_P0, hi * OMEGA_P0, bins)


def _stack(layers, n_in=1.0, n_out=None):
    amb = constant_material("in", n_in)
    out = amb if n_out is None else constant_material("out", n_out)
    return StructureSpec(tuple(layers), amb, out)


def _maps(em):
    """F (labelled dense) and the G_V/G_S pair arrays by attribute name."""
    return {"f_linear": em.f_linear.data, "g_volume": em.g_volume,
            "g_surface": em.g_surface}


def _eye2(bins):
    """Per-bin 2x2 identity maps, shape (2, 2, bins)."""
    return np.broadcast_to(np.eye(2)[:, :, None], (2, 2, bins))


def test_overlap_matrices_constant_index():
    b = _basis(6)
    i_e, i_hf, i_hb = overlap_matrices(constant_material("v", 1.0), b)
    assert np.allclose(i_e, 1.0)
    i_e4, _, _ = overlap_matrices(constant_material("m", 4.0), b)
    assert np.allclose(i_e4, 0.5)
    assert np.allclose(i_hb, -i_hf)
    assert np.allclose(i_hf, 1j * b.centers / C * 1.0)


def test_overlap_matrices_sellmeier_per_bin(gan):
    from spdc1d.materials import refractive_index

    b = SpectralBasis(0.3 * OMEGA_P0, 0.8 * OMEGA_P0, 16)
    i_e, i_hf, _ = overlap_matrices(gan, b)
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
    per_bin = interface_bins(constant_material("v", 1.0), b)
    mat = BlockMatrix.from_bins(row_space("rows", 1), mode_space("modes", 1),
                                {"s": per_bin, "i": np.conj(per_bin)})
    sig = mat.data[:4, :4]
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
    idl = mat.data[4:, 4:]
    assert np.allclose(idl, np.conj(expected), rtol=1e-14)
    # the field sectors do not mix
    assert np.all(mat.data[:4, 4:] == 0.0) and np.all(mat.data[4:, :4] == 0.0)


def test_interface_matrix_invertible_random_lossless():
    rng = np.random.RandomState(11)
    b = _basis(3)
    for _ in range(20):
        n = 1.0 + 3.0 * rng.rand()
        per_bin = np.moveaxis(interface_bins(constant_material("m", n), b),
                              -1, 0)
        # rows carry the physical k scale (~1e7/m); normalize before
        # conditioning so the check probes genuine rank, not units
        scale = np.abs(per_bin).max(axis=2, keepdims=True)
        assert np.all(np.linalg.cond(per_bin / scale) < 1e3)


def test_identical_adjacent_layers_same_interface(gan):
    b = _basis(3)
    assert np.array_equal(interface_bins(gan, b), interface_bins(gan, b))


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
    acc = interface_bins(structure.material(m), b)
    for l in range(m + 1, n):
        lay = interface_bins(structure.material(l), b)
        prop = propagator_bins(structure.material(l), structure.length(l), b)
        acc = mat2_mul(lay, mat2_mul(prop, mat2_mul(mat2_inv(lay), acc)))
    return mat2_mul(mat2_inv(interface_bins(structure.material(n), b)), acc)


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
    """Signal and idler share one basis, so a build marches the flux
    transfers once; the pump's field-convention march runs in linear."""
    calls = []
    orig = matrixcore_mod.layer_transfers

    def counting(structure, omega, convention="field"):
        calls.append(convention)
        return orig(structure, omega, convention)

    monkeypatch.setattr(matrixcore_mod, "layer_transfers", counting)
    build_emission(stack4, pump400, _basis(3))
    assert calls == ["flux"]


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
    space = mode_space("modes", 2)
    f = BlockMatrix.from_bins(space, space, {"s": eye, "i": eye})
    assert np.allclose(f.data, np.eye(space.dim), atol=1e-14)


def test_scattering_unitary_and_transmission_crosscheck(stack4):
    b = _basis(1, 0.497, 0.503)
    scatter = {fld: m.scatter for fld, m in linear_maps(stack4, b).items()}
    f = BlockMatrix.from_bins(mode_space("out", 1), mode_space("in", 1),
                              scatter)
    dev = np.abs(f.data @ f.data.conj().T - np.eye(f.row.dim)).max()
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
    em = build_emission(st, pump400, b, keep_sources=True)
    assert np.linalg.norm(em.g_volume) == 0.0
    assert np.linalg.norm(em.g_surface) == 0.0
    for l in em.boundary_sources:
        s_v, s_s = em.boundary_sources[l]
        assert np.linalg.norm(s_v) == 0.0 and np.linalg.norm(s_s) == 0.0


def test_boundary_sources_sum_to_emission_maps(stack4, pump400):
    b = _basis(5)
    em = build_emission(stack4, pump400, b, keep_sources=True)
    assert sorted(em.boundary_sources) == list(range(1, stack4.n_layers + 2))
    for w, g in enumerate((em.g_volume, em.g_surface)):
        total = sum(pair[w] for pair in em.boundary_sources.values())
        assert total.shape == (2,) * 5 + (5, 5)
        assert np.linalg.norm(g) > 0.0
        assert np.linalg.norm(total - g) <= 1e-13 * np.linalg.norm(g)


def _assert_sources_match_per_block_loop(structure, pump_spec, b):
    """Every kept source against a plain loop over (row field, row pol,
    col pol) built from the basis-projected kernel arrays of couplings
    that share nothing: columns scaled by the feed of the other field,
    rows by the inverse response."""
    em = build_emission(structure, pump_spec, b, keep_sources=True)
    maps = linear_maps(structure, b)
    couplings = [LayerCoupling(structure, l, b, em.pump)
                 for l in range(structure.n_layers + 2)]
    k = b.bins
    for l, kept in em.boundary_sources.items():
        sides = ((couplings[l - 1], "right", 1.0, l - 1),
                 (couplings[l], "left", -1.0, l))
        for fi, (row_f, col_f) in enumerate((("s", "i"), ("i", "s"))):
            inv = mat2_inv(maps[row_f].response(l))
            for pi in range(len(POLS)):
                for qi in range(len(POLS)):
                    # rows[w, E/H, col channel]: continuity-row sources
                    rows = np.zeros((2, 2, 2, k, k), dtype=complex)
                    for coup, edge, sign, idx in sides:
                        if coup.is_dark():
                            continue
                        vol_e, vol_h, sur_h = polarized_kernels(
                            project_to_basis(coup, edge))
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
                                got = kept[w][fi, d, pi, c, qi]
                                scale = max(np.abs(ref).max(), 1e-300)
                                assert np.abs(got - ref).max() <= 1e-13 * scale


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


def test_fictitious_boundary_surface_source_null(gan, aln, air, pump400):
    st = StructureSpec(((gan, 60e-9, 1), (aln, 40e-9, 1)), air, air)
    b = _basis(4)
    em = build_emission(st, pump400, b)
    em_split = build_emission(st.split_layer(1, 0.5), pump400, b,
                              keep_sources=True)
    scale = np.linalg.norm(em.g_volume + em.g_surface)
    s_v, s_s = em_split.boundary_sources[2]
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
    assert np.allclose(em_n.f_linear.data, em_p.f_linear.data, rtol=1e-14)


def test_bulk_sinc_limit_exact():
    n0 = 2.0
    mat = constant_material("bulk", n0, chi2={("y", "x", "y"): 4e-12})
    amb = constant_material("amb", n0)
    st = StructureSpec(((mat, 2e-6, 1),), amb, amb)
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    b = SpectralBasis(0.3 * OMEGA_P0, 0.7 * OMEGA_P0, 16)
    em = build_emission(st, pump, b)
    from spdc1d.spectral import LayerCoupling

    coup = LayerCoupling(st, 1, b, em.pump)
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
    blk = pair_block(em.g_volume + em.g_surface, ("s", "F", "x"), ("F", "y"))
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
