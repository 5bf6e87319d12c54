"""Acceptance gate: one test per primary criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The geometry-split and fictitious-boundary criteria test
the subdivision-invariant surface attribution ('local-jump'); the
qualitative layered-stack reproduction runs the shipped example
configuration, which selects the per-slot attribution of its source
(see that config's notes and the README).
"""

import json
import os

import numpy as np
import pytest

from spdc1d.blockmatrix import BlockMatrix, mode_space
from spdc1d.config import load_config, parse_config
from spdc1d.constants import CONSTANTS
from spdc1d.linear import PumpSpec, linear_transmission
from spdc1d.materials import constant_material
from spdc1d.matrixcore import build_emission, linear_maps, pair_block
from spdc1d.observables import (
    antidiagonal_profile,
    joint_density,
    marginals_and_counts,
    temporal_profiles,
    two_photon_amplitude,
    width_fwhm,
)
from spdc1d.oracle import compare_with_emission, reference_pair_amplitude
from spdc1d.runner import _scan_cell, simulate, track_ridges, transmission_map
from spdc1d.spectral import SpectralBasis
from spdc1d.structure import StructureSpec

from reference import count_peaks

C = CONSTANTS.c
OMEGA_P0 = 2 * np.pi * C / 400e-9
EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{name}] {detail}")
    assert ok, f"{name}: {detail}"


def _random_stack(rng, max_layers=20, nonlinear=False):
    n_layers = rng.randint(1, max_layers + 1)
    layers = []
    for i in range(n_layers):
        n = 1.0 + 2.5 * rng.rand()
        chi = {}
        if nonlinear and rng.rand() < 0.6:
            chi = {("y", "x", "y"): (1.0 + 3.0 * rng.rand()) * 1e-12}
        layers.append(
            (constant_material(f"m{i}", n, chi2=chi),
             (15 + 185 * rng.rand()) * 1e-9, 1)
        )
    amb = constant_material("amb", 1.0)
    return StructureSpec(tuple(layers), amb, amb)


def test_unitarity_and_energy_conservation():
    """T + R = 1 within 1e-10 and unitary linear scattering within 1e-9
    over 200 random lossless stacks."""
    rng = np.random.RandomState(42)
    worst_tr = 0.0
    worst_unitary = 0.0
    basis = SpectralBasis(0.45 * OMEGA_P0, 0.55 * OMEGA_P0, 2)
    for case in range(200):
        st = _random_stack(rng)
        omega = OMEGA_P0 * (0.3 + 1.2 * rng.rand())
        _, _, big_t, big_r = linear_transmission(st, omega)
        worst_tr = max(worst_tr, abs(big_t + big_r - 1.0))
        f = BlockMatrix.from_bins(
            mode_space("out", basis.bins), mode_space("in", basis.bins),
            {fld: m.scatter for fld, m in linear_maps(st, basis).items()},
        )
        half = f.row.dim // 2
        sig = f.data[:half, :half]
        worst_unitary = max(
            worst_unitary,
            np.abs(sig @ sig.conj().T - np.eye(half)).max(),
        )
    _report(
        "unitarity-energy",
        worst_tr < 1e-10 and worst_unitary < 1e-9,
        f"max |T+R-1| = {worst_tr:.2e} (tol 1e-10), "
        f"max unitarity dev = {worst_unitary:.2e} (tol 1e-9), 200 stacks",
    )


def test_split_layer_invariance():
    """Subdividing any layer leaves F, G_V, G_S invariant within 1e-9 and
    the fictitious boundary's surface source below 1e-10 (50 cases)."""
    rng = np.random.RandomState(11)
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    basis = SpectralBasis(0.40 * OMEGA_P0, 0.60 * OMEGA_P0, 3)
    worst_map = 0.0
    worst_fict = 0.0
    for case in range(50):
        st = _random_stack(rng, max_layers=4, nonlinear=True)
        l_split = rng.randint(1, st.n_layers + 1)
        frac = 0.2 + 0.6 * rng.rand()
        em = build_emission(st, pump, basis)
        em2 = build_emission(st.split_layer(l_split, frac), pump, basis,
                             keep_sources=True)
        maps = {"f_linear": em.f_linear.data, "g_volume": em.g_volume,
                "g_surface": em.g_surface}
        maps2 = {"f_linear": em2.f_linear.data, "g_volume": em2.g_volume,
                 "g_surface": em2.g_surface}
        scale = max(np.linalg.norm(em.g_volume + em.g_surface),
                    np.linalg.norm(maps["f_linear"]))
        for name, a in maps.items():
            d = np.linalg.norm(a - maps2[name])
            worst_map = max(worst_map, d / max(np.linalg.norm(a),
                                               scale * 1e-3, 1e-300))
        s_fict = np.linalg.norm(em2.boundary_sources[l_split + 1][1])
        worst_fict = max(worst_fict, s_fict / max(scale, 1e-300))
    _report(
        "split-invariance",
        worst_map < 1e-9 and worst_fict < 1e-10,
        f"max map change = {worst_map:.2e} (tol 1e-9), "
        f"max fictitious surface source = {worst_fict:.2e} (tol 1e-10), "
        f"50 cases",
    )


def test_oracle_equivalence(gan, aln, air, pump400):
    """Matrix-pipeline total amplitude matches the z-grid reference within
    1e-4 on a four-layer stack at 16 bins (Richardson-extrapolated)."""
    st = StructureSpec(
        ((gan, 60e-9, 1), (aln, 90e-9, 1), (gan, 75e-9, 1), (aln, 50e-9, 1)),
        air, air,
    )
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 16)
    em = build_emission(st, pump400, basis)
    ref = reference_pair_amplitude(st, pump400, basis, step=50e-9 / 16)
    err = compare_with_emission(ref, em)
    _report("oracle-equivalence", err < 1e-4,
            f"relative mismatch = {err:.2e} (tol 1e-4), 4 layers, 16 bins")


def test_bulk_phase_matching_limit():
    """Single index-matched nonlinear layer reproduces the analytic
    sinc(dk L / 2) first-order amplitude within 1e-6 along the
    pump-degenerate line."""
    n0 = 2.0
    mat = constant_material("bulk", n0, chi2={("y", "x", "y"): 4e-12})
    amb = constant_material("amb", n0)
    length = 2e-6
    st = StructureSpec(((mat, length, 1),), amb, amb)
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    bins = 16
    basis = SpectralBasis(0.30 * OMEGA_P0, 0.70 * OMEGA_P0, bins)
    em = build_emission(st, pump, basis)
    from spdc1d.spectral import LayerCoupling

    coup = LayerCoupling(st, 1, basis, em.pump)
    tst = coup.tstar("F", "x", "y")
    ws, wi = basis.centers[:, None], basis.centers[None, :]
    k_s = ws * n0 / C
    dk = ((ws + wi) - ws - wi) * n0 / C
    analytic = (
        tst * np.exp(1j * k_s * length) * length
        * np.exp(1j * dk * length / 2) * np.sinc(dk * length / 2 / np.pi)
        * np.sqrt(basis.widths[:, None] * basis.widths[None, :])
    )
    blk = pair_block(em.g_volume + em.g_surface, ("s", "F", "x"), ("F", "y"))
    worst = 0.0
    for k in range(bins):
        n = bins - 1 - k
        worst = max(worst, abs(blk[k, n] - analytic[k, n])
                    / abs(analytic[k, n]))
    _report("bulk-limit", worst < 1e-6,
            f"max relative deviation = {worst:.2e} (tol 1e-6)")


def test_decomposition_identity(stack4, pump400):
    """n_SV = n_V + n_S + n_I entrywise at machine precision."""
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 8)
    em = build_emission(stack4, pump400, basis)
    jd = joint_density(em, ("F", "F", "x", "y"))
    resid = np.max(np.abs(jd.n_total - (jd.n_volume + jd.n_surface
                                        + jd.n_interf)))
    _report("decomposition-identity", resid == 0.0,
            f"max residual = {resid:.1e} (exact)")


def test_temporal_consistency(stack4, pump400):
    """Parseval within 1e-8, unit time normalization within 1e-6, and
    analytic Gaussian Fourier widths within 1e-4."""
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 12)
    em = build_emission(stack4, pump400, basis)
    amps = two_photon_amplitude(em, ("F", "F", "x", "y"))
    prof = temporal_profiles(amps["SV"], n_time=1024)
    parseval_err = abs(prof.parseval_ratio - 1.0)
    norm_err = abs(prof.p.sum() * prof.dt**2 - 1.0)

    from spdc1d.observables import JointSpectralAmplitude

    bins = 96
    gb = SpectralBasis(0.30 * OMEGA_P0, 0.70 * OMEGA_P0, bins)
    sig_sum, sig_dif = 0.010 * OMEGA_P0, 0.05 * OMEGA_P0
    ws, wi = gb.centers[:, None], gb.centers[None, :]
    cont = np.exp(-((ws + wi - OMEGA_P0) ** 2) / (4 * sig_sum**2)
                  - ((ws - wi) ** 2) / (4 * sig_dif**2))
    jsa = JointSpectralAmplitude(
        channel=("F", "F", "x", "y"), contribution="SV",
        matrix=cont * np.sqrt(gb.widths[:, None] * gb.widths[None, :]),
        omega=gb.centers, widths=gb.widths,
    )
    gprof = temporal_profiles(jsa, n_time=8192)
    var_ts = 0.25 * (1 / sig_sum**2 + 1 / sig_dif**2)
    expect = 2.0 * np.sqrt(2 * np.log(2) * var_ts)
    width_err = abs(width_fwhm(gprof.t, gprof.p_signal) - expect) / expect
    ok = parseval_err < 1e-8 and norm_err < 1e-6 and width_err < 1e-4
    _report(
        "temporal-consistency", ok,
        f"Parseval dev = {parseval_err:.2e} (tol 1e-8), "
        f"norm dev = {norm_err:.2e} (tol 1e-6), "
        f"Gaussian width dev = {width_err:.2e} (tol 1e-4)",
    )


@pytest.fixture(scope="module")
def example_run():
    cfg = load_config(EXAMPLE)
    basis = cfg.basis()
    em = build_emission(cfg.structure, cfg.pump, basis,
                        convention=cfg.attribution)
    jd = joint_density(em, cfg.channel)
    return cfg, em, jd


def test_qualitative_spectral_interference(example_run):
    """Along w_s + w_i = w_p0 the volume and surface densities show more
    resonant peaks than the complete density, whose center lies below the
    volume density (destructive interference)."""
    cfg, em, jd = example_run
    ws, prof_v = antidiagonal_profile(jd.continuous("V"), jd.omega,
                                      cfg.omega_p0)
    _, prof_s = antidiagonal_profile(jd.continuous("S"), jd.omega,
                                     cfg.omega_p0)
    _, prof_sv = antidiagonal_profile(jd.continuous("SV"), jd.omega,
                                      cfg.omega_p0)
    n_v = count_peaks(prof_v, 0.01)
    n_s = count_peaks(prof_s, 0.01)
    n_sv = count_peaks(prof_sv, 0.01)
    mid = len(ws) // 2
    central_ratio = prof_sv[mid] / prof_v[mid]
    ok = n_v > n_sv and n_s > n_sv and central_ratio < 1.0
    _report(
        "qualitative-interference", ok,
        f"peaks V/S/SV = {n_v}/{n_s}/{n_sv} (want V,S > SV), "
        f"central n_SV/n_V = {central_ratio:.3f} (want < 1)",
    )


def test_qualitative_ridge_directions(example_run):
    """Along tracked transmission ridges the total pair yield grows with
    the nonlinear layer length while the surface/volume ratio falls."""
    cfg, _, _ = example_run
    l1, l2, tmap = transmission_map(cfg)
    ridges = track_ridges(l1, l2, tmap, max_jump=cfg.scan.ridge_max_jump)
    long_ridges = [r for r in ridges if len(r["points"]) >= 10]
    checked = 0
    ok = True
    details = []
    for ridge in long_ridges[:3]:
        pts = ridge["points"][:: max(1, len(ridge["points"]) // 5)][:6]
        res = [_scan_cell((cfg, float(l1[i]), float(l2[j])))
               for (i, j) in pts]
        l1s = np.array([r["l1_nm"] for r in res])
        nsv = np.array([r["N_SV_per_mm2"] for r in res])
        ratio = np.array([r["R"] for r in res])
        slope_n = np.polyfit(l1s, nsv, 1)[0]
        slope_r = np.polyfit(l1s, ratio, 1)[0]
        details.append(f"slopes N_SV {slope_n:+.1e}, R {slope_r:+.1e}")
        ok = ok and slope_n > 0 and slope_r < 0
        checked += 1
    ok = ok and checked >= 2
    _report("qualitative-ridges", ok,
            f"{checked} ridges: " + "; ".join(details))


def test_qualitative_surface_volume_ratio(example_run):
    """Surface-to-volume pair-count ratio of the example structure lies
    in [0.3, 1.0] under the source's per-slot attribution."""
    cfg, em, jd = example_run
    stats = marginals_and_counts(jd)
    ratio = stats["ratio_surface_volume"]
    _report("qualitative-ratio", 0.3 <= ratio <= 1.0,
            f"R = {ratio:.3f} (want within [0.3, 1.0])")


def test_determinism(tmp_path):
    """Identical runs produce byte-identical outputs; scan results do not
    depend on worker scheduling."""
    raw = {
        "materials": {
            "nl": {"dispersion": {"type": "constant", "n": 2.3},
                   "chi2": [{"pol": "y;xy", "d_m_per_V": 4e-12}]},
            "lin": {"dispersion": {"type": "constant", "n": 1.7}, "chi2": []},
            "air": {"dispersion": {"type": "constant", "n": 1.0}, "chi2": []},
        },
        "structure": {
            "ambient_in": "air", "ambient_out": "air",
            "layers": [{"material": "nl", "length_nm": 60.0},
                       {"material": "lin", "length_nm": 35.0}],
        },
        "pump": {"wavelength_nm": 400.0, "fwhm_nm": 7.0,
                 "energy_J_per_m2": 1000.0},
        "basis": {"bins": 6, "window": [0.35, 0.65]},
        "observe": {"time_points": 256},
        "scan": {"material_a": "nl", "material_b": "lin", "pairs": 3,
                 "l1_nm": [30.0, 90.0, 5], "l2_nm": [30.0, 90.0, 5],
                 "bins": 3},
    }
    cfg = parse_config(raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    simulate(cfg, out1)
    simulate(cfg, out2)
    same = all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes()
        for n in sorted(os.listdir(out1))
    )
    from spdc1d.runner import scan

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    scan(cfg, s1, workers=1)
    scan(cfg, s2, workers=2)
    same_scan = (s1 / "ridge_scan.csv").read_bytes() == (
        s2 / "ridge_scan.csv").read_bytes()
    _report("determinism", same and same_scan,
            f"simulate byte-identical: {same}, "
            f"scan worker-independent: {same_scan}")
