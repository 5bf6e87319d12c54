import itertools

import numpy as np
import pytest

from spdc1d.constants import CONSTANTS
from spdc1d.errors import GridTooCoarse, NoPeak
from spdc1d.linear import PumpSpec
from spdc1d.materials import constant_material
from spdc1d.matrixcore import build_emission, pair_block
from spdc1d.observables import (
    JointDensity,
    JointSpectralAmplitude,
    antidiagonal_profile,
    branch_amplitudes,
    default_time_grid,
    joint_density,
    marginals_and_counts,
    temporal_profiles,
    two_photon_amplitude,
    width_fwhm,
)
from spdc1d.spectral import DIRS, POLS, SpectralBasis
from spdc1d.structure import StructureSpec

from reference import count_peaks, dense_branch_amplitudes, full_chi2

C = CONSTANTS.c
OMEGA_P0 = 2 * np.pi * C / 400e-9


def _zero_pairs(bins):
    return np.zeros((2,) * 5 + (bins, bins), dtype=complex)


class FakeEmission:
    def __init__(self, bins, g_v=None, g_s=None, seed=0):
        rng = np.random.RandomState(seed)

        def rand_pairs():
            shape = (2,) * 5 + (bins, bins)
            return rng.randn(*shape) + 1j * rng.randn(*shape)

        eye = np.eye(2)[:, :, None] * np.ones(bins)
        self.bins = bins
        self.scatter = {"s": eye, "i": eye}
        self.g_volume = g_v if g_v is not None else rand_pairs()
        self.g_surface = g_s if g_s is not None else rand_pairs()
        lo, hi = 0.4 * OMEGA_P0, 0.6 * OMEGA_P0
        self.basis = SpectralBasis(lo, hi, bins)


CHANNEL = ("F", "F", "x", "y")


def test_branch_factors_zero_for_zero_g():
    zero = _zero_pairs(3)
    em = FakeEmission(3, g_v=zero, g_s=zero.copy())
    f1, f2 = branch_amplitudes(em, CHANNEL, "V")
    assert np.all(f1 == 0.0) and np.all(f2 == 0.0)


def test_branch_factors_identity_scattering_reduce_to_g_blocks():
    em = FakeEmission(3)
    f1, f2 = branch_amplitudes(em, CHANNEL, "V")
    g = em.g_volume
    a, b, alpha, beta = CHANNEL
    assert np.allclose(f1, np.conj(pair_block(g, ("s", a, alpha), (b, beta))))
    assert np.allclose(f2,
                       np.conj(pair_block(g, ("i", b, beta), (a, alpha))).T)


def test_branch_factors_match_naive_loop(stack4, pump400):
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 4)
    em = build_emission(stack4, pump400, basis)
    f1, f2 = branch_amplitudes(em, CHANNEL, "V")
    naive1, naive2 = dense_branch_amplitudes(em, CHANNEL, "V")
    assert np.allclose(f1, naive1, rtol=1e-12)
    assert np.allclose(f2, naive2, rtol=1e-12)


@pytest.fixture(scope="module")
def full_chi2_emission(stack4, pump400):
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 4)
    return build_emission(full_chi2(stack4), pump400, basis)


@pytest.mark.parametrize("w", ["V", "S"])
@pytest.mark.parametrize("channel",
                         list(itertools.product(DIRS, DIRS, POLS, POLS)),
                         ids="".join)
def test_branch_factors_match_dense_loop_on_every_channel(
        full_chi2_emission, channel, w):
    # every (signal, idler) polarization pair emits in GaN, so a swapped
    # polarization or an exchanged signal/idler F changes the result
    em = full_chi2_emission
    got = branch_amplitudes(em, channel, w)
    for branch, naive in zip(got, dense_branch_amplitudes(em, channel, w)):
        scale = np.max(np.abs(naive))
        assert scale > 0.0
        assert np.allclose(branch, naive, rtol=1e-12, atol=1e-12 * scale)


def test_joint_density_structure_and_identity():
    em = FakeEmission(4)
    jd = joint_density(em, CHANNEL)
    assert np.array_equal(jd.n_total,
                          jd.n_volume + jd.n_surface + jd.n_interf)
    # volume-only emission
    em_v = FakeEmission(4, g_s=_zero_pairs(4))
    jd_v = joint_density(em_v, CHANNEL)
    assert np.all(jd_v.n_surface == 0.0)
    assert np.all(jd_v.n_interf == 0.0)
    assert np.array_equal(jd_v.n_total, jd_v.n_volume)


def test_identical_contributions_double_interference():
    em0 = FakeEmission(3)
    em = FakeEmission(3, g_v=em0.g_volume, g_s=em0.g_volume.copy())
    jd = joint_density(em, CHANNEL)
    assert np.allclose(jd.n_interf, 2.0 * jd.n_volume, rtol=1e-12)
    assert np.allclose(jd.n_surface, jd.n_volume, rtol=1e-12)


def test_density_nonnegative_and_total_is_amplitude_squared(stack4, pump400):
    basis = SpectralBasis(0.3 * OMEGA_P0, 0.7 * OMEGA_P0, 8)
    em = build_emission(stack4, pump400, basis)
    jd = joint_density(em, CHANNEL)
    floor = -1e-15 * jd.n_total.max()
    assert jd.n_volume.min() >= floor
    assert jd.n_surface.min() >= floor
    assert jd.n_total.min() >= floor
    amps = two_photon_amplitude(em, CHANNEL)
    total_sq = 2.0 * np.abs(amps["SV"].matrix) ** 2
    scale = jd.n_total.max()
    assert np.max(np.abs(jd.n_total - total_sq)) / scale < 1e-10


def test_exchange_symmetric_configuration(air, pump400):
    d = 4e-12
    mat = constant_material(
        "sym", 2.4, chi2={("y", "x", "y"): d, ("y", "y", "x"): d}
    )
    lin = constant_material("lin", 1.9)
    st = StructureSpec(((mat, 70e-9, 1), (lin, 40e-9, 1)), air, air)
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 6)
    em = build_emission(st, pump400, basis)
    amp_xy = two_photon_amplitude(em, ("F", "F", "x", "y"))["SV"].matrix
    amp_yx = two_photon_amplitude(em, ("F", "F", "y", "x"))["SV"].matrix
    scale = np.abs(amp_xy).max()
    assert np.max(np.abs(amp_xy - amp_yx.T)) / scale < 1e-10
    jd_xy = joint_density(em, ("F", "F", "x", "y"))
    jd_yx = joint_density(em, ("F", "F", "y", "x"))
    assert np.max(np.abs(jd_xy.n_total - jd_yx.n_total.T)) < (
        1e-10 * jd_xy.n_total.max()
    )


def _synthetic_density(n_v, n_s, n_i, lo=0.4, hi=0.6, bins=None):
    bins = bins or n_v.shape[0]
    basis = SpectralBasis(lo * OMEGA_P0, hi * OMEGA_P0, bins)
    return JointDensity(
        channel=CHANNEL, n_volume=n_v, n_surface=n_s, n_interf=n_i,
        omega=basis.centers, widths=basis.widths,
    )


def test_marginals_and_counts_ratios():
    k = 5
    base = np.outer(np.linspace(1, 2, k), np.linspace(2, 1, k))
    jd = _synthetic_density(base, np.zeros((k, k)), np.zeros((k, k)))
    stats = marginals_and_counts(jd)
    assert stats["ratio_surface_volume"] == 0.0
    assert np.all(stats["eta_s"] == 0.0)
    jd2 = _synthetic_density(base, base.copy(), np.zeros((k, k)))
    stats2 = marginals_and_counts(jd2)
    assert stats2["ratio_surface_volume"] == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(stats2["eta_s"], 1.0)
    # counts integrate the continuous density over both axes
    expected = base.sum()  # bin matrices integrate cleanly
    assert stats["counts"]["V"] == pytest.approx(expected, rel=1e-12)


def test_eta_guarded_where_volume_vanishes():
    k = 4
    n_v = np.zeros((k, k))
    n_v[1] = 1.0
    n_s = np.ones((k, k))
    jd = _synthetic_density(n_v, n_s, np.zeros((k, k)))
    stats = marginals_and_counts(jd)
    assert stats["eta_valid"][1]
    assert not stats["eta_valid"][3]
    assert stats["eta_s"][3] == 0.0
    assert np.all(np.isfinite(stats["eta_s"]))


def _jsa_from_matrix(matrix, lo, hi):
    bins = matrix.shape[0]
    basis = SpectralBasis(lo, hi, bins)
    return JointSpectralAmplitude(
        channel=CHANNEL, contribution="SV", matrix=matrix,
        omega=basis.centers, widths=basis.widths,
    )


def test_single_bin_amplitude_gives_flat_time_density():
    m = np.zeros((1, 1), dtype=complex)
    m[0, 0] = 1.0
    jsa = _jsa_from_matrix(m, 0.49 * OMEGA_P0, 0.51 * OMEGA_P0)
    prof = temporal_profiles(jsa, n_time=256)
    assert np.ptp(prof.p) < 1e-12 * prof.p.mean()
    assert prof.p.sum() * prof.dt**2 == pytest.approx(1.0, abs=1e-12)


def test_gaussian_amplitude_analytic_widths():
    bins = 96
    lo, hi = 0.30 * OMEGA_P0, 0.70 * OMEGA_P0
    basis = SpectralBasis(lo, hi, bins)
    w0 = OMEGA_P0
    sig_sum = 0.010 * OMEGA_P0
    sig_dif = 0.05 * OMEGA_P0
    ws = basis.centers[:, None]
    wi = basis.centers[None, :]
    cont = np.exp(
        -((ws + wi - w0) ** 2) / (4 * sig_sum**2)
        - ((ws - wi) ** 2) / (4 * sig_dif**2)
    )
    matrix = cont * np.sqrt(basis.widths[:, None] * basis.widths[None, :])
    jsa = _jsa_from_matrix(matrix, lo, hi)
    prof = temporal_profiles(jsa, n_time=8192)
    assert abs(prof.parseval_ratio - 1.0) < 1e-8
    assert prof.p.sum() * prof.dt**2 == pytest.approx(1.0, abs=1e-6)
    # p_s is Gaussian with variance (1/sig_sum^2 + 1/sig_dif^2)/4
    var_ts = 0.25 * (1.0 / sig_sum**2 + 1.0 / sig_dif**2)
    expected_flux_fwhm = 2.0 * np.sqrt(2 * np.log(2) * var_ts)
    got = width_fwhm(prof.t, prof.p_signal)
    assert got == pytest.approx(expected_flux_fwhm, rel=1e-4)
    # conditional cut at t_i = 0: variance 1/(sig_sum^2 + sig_dif^2)
    t, cut = prof.conditional_cut(0.0)
    var_cond = 1.0 / (sig_sum**2 + sig_dif**2)
    expected_cond_fwhm = 2.0 * np.sqrt(2 * np.log(2) * var_cond)
    assert width_fwhm(t, cut) == pytest.approx(expected_cond_fwhm, rel=1e-4)


def test_parseval_identity_on_alias_grid(stack4, pump400):
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 12)
    em = build_emission(stack4, pump400, basis)
    amps = two_photon_amplitude(em, CHANNEL)
    prof = temporal_profiles(amps["SV"], n_time=512)
    assert abs(prof.parseval_ratio - 1.0) < 1e-10


def test_nyquist_guard():
    m = np.ones((8, 8), dtype=complex)
    jsa = _jsa_from_matrix(m, 0.4 * OMEGA_P0, 0.6 * OMEGA_P0)
    # 32 alias-exact points: dt = 2 pi / (32 dw) > pi / max(w)
    with pytest.raises(GridTooCoarse):
        temporal_profiles(jsa, n_time=32)


def test_default_time_grid_alias_exact():
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 16)
    t = default_time_grid(basis.widths, 1024)
    dt = t[1] - t[0]
    assert 1024 * dt == pytest.approx(2 * np.pi / basis.widths[0], rel=1e-12)


def test_width_fwhm_triangle_and_gaussian():
    x = np.linspace(-1, 1, 2001)
    tri = np.clip(1 - np.abs(x), 0, None)
    assert width_fwhm(x, tri) == pytest.approx(1.0, abs=1e-3)
    sigma = 0.2
    gauss = np.exp(-(x**2) / (2 * sigma**2))
    assert width_fwhm(x, gauss) == pytest.approx(
        2 * np.sqrt(2 * np.log(2)) * sigma, rel=1e-3
    )


def test_width_fwhm_two_peaks_uses_global():
    x = np.linspace(0, 10, 4001)
    narrow = np.exp(-((x - 3) ** 2) / (2 * 0.2**2))
    wide = 0.6 * np.exp(-((x - 7) ** 2) / (2 * 1.0**2))
    y = narrow + wide
    assert width_fwhm(x, y) == pytest.approx(
        2 * np.sqrt(2 * np.log(2)) * 0.2, rel=2e-3
    )
    assert count_peaks(y, floor_fraction=0.1) == 2


def test_width_fwhm_no_peak():
    x = np.linspace(0, 1, 50)
    with pytest.raises(NoPeak):
        width_fwhm(x, np.zeros(50))
    with pytest.raises(NoPeak):
        width_fwhm(x, np.full(50, 2.0))


def test_antidiagonal_profile_extraction():
    bins = 16
    basis = SpectralBasis(0.2 * OMEGA_P0, 0.8 * OMEGA_P0, bins)
    mat = np.arange(bins * bins, dtype=float).reshape(bins, bins)
    ws, vals = antidiagonal_profile(mat, basis.centers, OMEGA_P0)
    assert ws.size == bins  # symmetric window: every signal bin pairs up
    for w, v in zip(ws, vals):
        k = np.argmin(np.abs(basis.centers - w))
        n = np.argmin(np.abs(basis.centers - (OMEGA_P0 - w)))
        assert v == mat[k, n]


def test_density_linear_in_pump_energy(stack4, pump400):
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 4)
    em1 = build_emission(stack4, pump400, basis)
    pump4 = PumpSpec(omega0=pump400.omega0, sigma=pump400.sigma,
                     energy_per_area=4e3)
    em4 = build_emission(stack4, pump4, basis)
    jd1 = joint_density(em1, CHANNEL)
    jd4 = joint_density(em4, CHANNEL)
    assert np.allclose(jd4.n_total, 4.0 * jd1.n_total, rtol=1e-11)
