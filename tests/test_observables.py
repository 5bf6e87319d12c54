import itertools
import os
import tracemalloc

import numpy as np
import pytest

from spdc1d.config import load_config
from spdc1d.constants import CONSTANTS
from spdc1d.errors import GridTooCoarse, NoPeak
from spdc1d.linear import PumpSpec
from spdc1d.materials import constant_material
from spdc1d import observables
from spdc1d.matrixcore import EmissionOperators, build_emission
from spdc1d.observables import (
    CONTRIBUTIONS,
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

from reference import (
    count_peaks,
    dense_branch_amplitudes,
    explicit_time_grid,
    full_chi2,
    loop_width_fwhm,
    pair_block,
    resident_temporal_stage,
    two_sector_emission,
)

C = CONSTANTS.c
OMEGA_P0 = 2 * np.pi * C / 400e-9


def _zero_pairs(bins):
    return np.zeros((2,) * 4 + (bins, bins), dtype=complex)


class FakeEmission(EmissionOperators):
    """Identity F and given or random pair arrays G_V, G_S, kept as parts
    on every (signal bin, idler bin) entry: one part per (signal pol,
    idler pol), its d a unit matrix, its slabs T = G_V + G_S, S_R = 0
    and S_L = G_S (so G_S is exact, G_V exact to rounding)."""

    def __init__(self, bins, g_v=None, g_s=None, seed=0):
        rng = np.random.RandomState(seed)

        def rand_pairs():
            shape = (2,) * 4 + (bins, bins)
            return rng.randn(*shape) + 1j * rng.randn(*shape)

        g_v, g_s = (p if p is not None else rand_pairs() for p in (g_v, g_s))
        rows, cols = (i.ravel() for i in np.indices((bins, bins)))
        parts = [(np.eye(4)[2 * alpha + beta].reshape(2, 2),
                  np.stack([p[:, alpha, :, beta].reshape(2, 2, -1)
                            for p in (g_v + g_s, np.zeros_like(g_s), g_s)]))
                 for alpha, beta in np.ndindex(2, 2)]
        lo, hi = 0.4 * OMEGA_P0, 0.6 * OMEGA_P0
        super().__init__(None, SpectralBasis(lo, hi, bins), None,
                         np.eye(2)[:, :, None] * np.ones(bins),
                         (rows, cols, rows + cols), parts, [])


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
    assert np.allclose(f1, np.conj(pair_block(g, (a, alpha), (b, beta))))
    # the idler row (b, beta; a, alpha) is conj(g[b, alpha, a, beta])
    assert np.allclose(f2, pair_block(g, (b, alpha), (a, beta)).T)


def test_branch_factors_match_naive_loop(stack4, pump400):
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 4)
    em = build_emission(stack4, pump400, basis)
    f1, f2 = branch_amplitudes(em, CHANNEL, "V")
    naive1, naive2 = dense_branch_amplitudes(
        two_sector_emission(stack4, pump400, basis), CHANNEL, "V")
    assert np.allclose(f1, naive1, rtol=1e-12)
    assert np.allclose(f2, naive2, rtol=1e-12)


@pytest.fixture(scope="module")
def full_chi2_emission(stack4, pump400):
    """(the emission, its two-sector reference)."""
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 4)
    return tuple(build(full_chi2(stack4), pump400, basis)
                 for build in (build_emission, two_sector_emission))


@pytest.mark.parametrize("w", ["V", "S"])
@pytest.mark.parametrize("channel",
                         list(itertools.product(DIRS, DIRS, POLS, POLS)),
                         ids="".join)
def test_branch_factors_match_dense_loop_on_every_channel(
        full_chi2_emission, channel, w):
    # every (signal, idler) polarization pair emits in GaN, so a swapped
    # polarization or an exchanged signal/idler F changes the result
    em, both = full_chi2_emission
    got = branch_amplitudes(em, channel, w)
    for branch, naive in zip(got, dense_branch_amplitudes(both, channel, w)):
        scale = np.max(np.abs(naive))
        assert scale > 0.0
        assert np.allclose(branch, naive, rtol=1e-12, atol=1e-12 * scale)


def _random_stack(seed):
    """Three constant-index layers, each with a random chi2 entry for every
    (signal, idler) polarization pair (so d != d.T) and random poling."""
    rng = np.random.RandomState(seed)
    air = constant_material("air", 1.0)
    layers = tuple(
        (constant_material("layer", rng.uniform(1.3, 2.6),
                           chi2={("y", p, q): rng.uniform(-5e-12, 5e-12)
                                 for p in POLS for q in POLS}),
         rng.uniform(30e-9, 300e-9), int(rng.choice((1, -1))))
        for _ in range(3))
    return StructureSpec(layers, air, air)


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
@pytest.mark.parametrize("case", ["shipped", "random"])
def test_branch_amplitudes_match_two_sector_reference(pump400, case,
                                                      convention):
    """The readers form the idler sector from the stored signal rows: both
    branch factors of every channel and contribution equal the dense
    loops over a build that stores both row sectors and the idler F of
    the conjugated solve.  A dropped conjugation or an exchanged pol pair
    in a reader changes them."""
    if case == "shipped":
        cfg = load_config(SHIPPED)
        args = (cfg.structure, cfg.pump, cfg.basis(bins=8))
    else:
        args = (_random_stack(5), pump400,
                SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 6))
    em = build_emission(*args).attributed(convention)
    both = two_sector_emission(*args, convention=convention)
    emitting = 0
    for channel in itertools.product(DIRS, DIRS, POLS, POLS):
        for w in CONTRIBUTIONS:
            got = branch_amplitudes(em, channel, w)
            want = dense_branch_amplitudes(both, channel, w)
            for branch, ref in zip(got, want, strict=True):
                scale = np.max(np.abs(ref))
                emitting += scale > 0.0
                assert np.max(np.abs(branch - ref)) <= 1e-12 * scale, (
                    channel, w)
    assert emitting >= (16 if case == "shipped" else 64)


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
        n_volume=n_v, n_surface=n_s, n_interf=n_i,
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
        matrix=matrix,
        omega=basis.centers, widths=basis.widths,
    )


def test_single_bin_amplitude_gives_flat_time_density():
    m = np.zeros((1, 1), dtype=complex)
    m[0, 0] = 1.0
    jsa = _jsa_from_matrix(m, 0.49 * OMEGA_P0, 0.51 * OMEGA_P0)
    prof = temporal_profiles(jsa, n_time=256)
    p = explicit_time_grid(jsa, 256) / prof.norm
    assert np.ptp(p) < 1e-12 * p.mean()
    assert p.sum() * prof.dt**2 == pytest.approx(1.0, abs=1e-12)
    assert np.ptp(prof.p_signal) < 1e-12 * prof.p_signal.mean()


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
    p = explicit_time_grid(jsa, 8192) / prof.norm
    assert p.sum() * prof.dt**2 == pytest.approx(1.0, abs=1e-6)
    del p
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


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")


@pytest.fixture(scope="module")
def shipped_amplitudes():
    """SV/V/S two-photon amplitudes of the shipped config at 64 bins."""
    cfg = load_config(SHIPPED)
    em = build_emission(cfg.structure, cfg.pump,
                        cfg.basis(64, None)).attributed(cfg.attribution)
    return cfg.time_points, two_photon_amplitude(em, cfg.channel)


def _random_jsa(seed, bins):
    rng = np.random.RandomState(seed)
    m = rng.randn(bins, bins) + 1j * rng.randn(bins, bins)
    return _jsa_from_matrix(m, 0.35 * OMEGA_P0, 0.65 * OMEGA_P0)


def test_time_kernel_is_the_exponential_kernel(shipped_amplitudes):
    """The DFT kernel matches exp(-i w t) dw to 1e-13 of its largest
    entry, for even and odd n and K, and its rows t and -t are exact
    conjugates (the row t = 0 is real)."""
    amps = shipped_amplitudes[1]
    cases = [(amps["SV"], n) for n in (2048, 2047)]
    cases += [(_random_jsa(5, 17), n) for n in (128, 129)]
    for jsa, n_time in cases:
        t = default_time_grid(jsa.widths, n_time)
        kernel = observables.time_kernel(t, jsa.omega, jsa.widths)
        direct = np.exp(-1j * np.outer(t, jsa.omega)) * jsa.widths
        assert (np.max(np.abs(kernel - direct))
                <= 1e-13 * np.max(np.abs(direct))), n_time
        later = np.flatnonzero(t > 0)
        mirror = 2 * (n_time // 2) - later
        assert np.array_equal(t[mirror], -t[later])
        assert np.array_equal(kernel[later].view(np.int64),
                              np.conj(kernel[mirror]).view(np.int64))
        assert not np.any(kernel[n_time // 2].imag)


def _fast_and_explicit_cases(shipped_amplitudes):
    n_time, amps = shipped_amplitudes
    cases = [(amps[w], n_time) for w in ("SV", "V", "S")]
    cases += [(_random_jsa(seed, bins), 128)
              for seed, bins in ((1, 5), (2, 8), (3, 12))]
    return cases


def test_parseval_marginal_norm_and_cut_match_explicit_grid(
        shipped_amplitudes):
    for jsa, n_time in _fast_and_explicit_cases(shipped_amplitudes):
        prof = temporal_profiles(jsa, n_time=n_time)
        grid = explicit_time_grid(jsa, n_time)
        norm = grid.sum() * prof.dt**2
        assert abs(prof.norm - norm) <= 1e-12 * norm
        p = grid / norm
        p_signal = p.sum(axis=1) * prof.dt
        assert (np.max(np.abs(prof.p_signal - p_signal))
                <= 1e-12 * p_signal.max())
        i, j = np.unravel_index(np.argmax(p), p.shape)
        assert np.max(np.abs(prof.rows([i]) - p[i])) <= 1e-12 * p[i, j]
        for col in (j, n_time // 3):
            _, cut = prof.conditional_cut(prof.t[col])
            ref = p[:, col] / (p[:, col].sum() * prof.dt)
            assert np.max(np.abs(cut - ref)) <= 1e-12 * ref.max()


def test_pruned_peak_equals_explicit_argmax(shipped_amplitudes, monkeypatch):
    evaluated = []
    density = observables._density

    def counting_density(half, kernel_t, norm):
        out = density(half, kernel_t, norm)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(observables, "_density", counting_density)
    n_shipped = shipped_amplitudes[0]
    for jsa, n_time in _fast_and_explicit_cases(shipped_amplitudes):
        evaluated.clear()
        peak = temporal_profiles(jsa, n_time=n_time).peak()
        grid = explicit_time_grid(jsa, n_time)
        assert peak == np.unravel_index(np.argmax(grid), grid.shape)
        assert sum(evaluated) <= n_time + n_time**2
        if n_time == n_shipped:
            assert sum(evaluated) < n_time**2 / 16


@pytest.mark.parametrize("attribution", ["per-slot", "local-jump"])
@pytest.mark.parametrize("bins", [16, 32, 64, 128])
def test_peak_is_full_grid_argmax(attribution, bins):
    """peak() against np.argmax of the explicit n x n grid on every
    profile that ``simulate`` takes the peak of, and on random spectra."""
    cfg = load_config(SHIPPED)
    em = build_emission(cfg.structure, cfg.pump,
                        cfg.basis(bins, None)).attributed(attribution)
    amps = two_photon_amplitude(em, cfg.channel)
    cases = [(amps[w], cfg.time_points) for w in ("SV", "V", "S")]
    cases.append((_random_jsa(bins, bins), 8 * bins))
    for jsa, n_time in cases:
        grid = explicit_time_grid(jsa, n_time)
        assert (temporal_profiles(jsa, n_time=n_time).peak()
                == np.unravel_index(np.argmax(grid), grid.shape))


@pytest.mark.parametrize("tight", ["row", "column"])
def test_peak_block_is_one_line_where_a_bound_is_tight(monkeypatch, tight):
    """A positive spectrum on one idler (signal) bin: the density is flat
    along t_i (t_s), and at t = 0 every phase is one, so the row (column)
    bound of t = 0 equals its values.  The block is then that one line,
    which a bound set below its values would leave out."""
    bins, n_time = 4, 128
    line = np.zeros((bins, bins))
    line[:, 0] = np.linspace(1.0, 2.0, bins)
    jsa = _jsa_from_matrix(line if tight == "row" else line.T,
                           0.35 * OMEGA_P0, 0.65 * OMEGA_P0)
    evaluated = []
    density = observables._density

    def counting_density(half, kernel_t, norm):
        out = density(half, kernel_t, norm)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(observables, "_density", counting_density)
    peak = temporal_profiles(jsa, n_time=n_time).peak()
    assert peak[0 if tight == "row" else 1] == n_time // 2
    assert sum(evaluated) == 2 * n_time


def test_peak_survives_a_first_row_rounded_high(shipped_amplitudes,
                                                 monkeypatch):
    """A first full row evaluated slightly above the block's values of
    the same entries (a matmul rounding it differently) still leaves the
    maximum in the one block evaluated."""
    density = observables._density

    def high_first_row(half, kernel_t, norm):
        out = density(half, kernel_t, norm)
        high = half.ndim == 1 and kernel_t.ndim == 2
        return out * (1.0 + 1e-9) if high else out

    monkeypatch.setattr(observables, "_density", high_first_row)
    for jsa, n_time in _fast_and_explicit_cases(shipped_amplitudes)[::3]:
        grid = explicit_time_grid(jsa, n_time)
        assert (temporal_profiles(jsa, n_time=n_time).peak()
                == np.unravel_index(np.argmax(grid), grid.shape))


def test_peak_tie_goes_to_lowest_row(monkeypatch):
    """A real spectrum makes the amplitude at -t the conjugate of that at
    t, bitwise on the symmetric grid, so p[i, j] = p[n - i, n - j] and
    the off-diagonal maximum is tied with its mirror.  Both sit in the
    pruned block, and the lower row wins, as in np.argmax of the grid."""
    bins, n_time = 6, 128
    jsa = _jsa_from_matrix(np.random.RandomState(0).randn(bins, bins),
                           0.35 * OMEGA_P0, 0.65 * OMEGA_P0)
    prof = temporal_profiles(jsa, n_time=n_time)
    p = prof.rows(np.arange(n_time))
    assert np.array_equal(p[1:, 1:], p[:0:-1, :0:-1])
    i, j = np.unravel_index(np.argmax(p), p.shape)
    assert 0 < i < n_time // 2 and i != j
    assert p[i, j] == p[n_time - i, n_time - j]
    blocks = []
    density = observables._density

    def recording_density(half, kernel_t, norm):
        out = density(half, kernel_t, norm)
        blocks.append(out)
        return out

    monkeypatch.setattr(observables, "_density", recording_density)
    assert prof.peak() == (i, j)
    searched = blocks[1:]
    assert sum(b.size for b in searched) < n_time**2
    assert sum(np.count_nonzero(b == p[i, j]) for b in searched) == 2


def test_simulate_profile_forms_no_time_grid():
    """Transform, peak and conditional cut at n = 2048 allocate at most
    twice the (n, K) complex kernel: the half transform kernel @ spectrum
    is streamed in row chunks, not held beside it, and no n x n array is
    formed."""
    cfg = load_config(SHIPPED)
    n_time = cfg.time_points
    for bins in (64, 256):
        em = build_emission(cfg.structure, cfg.pump,
                            cfg.basis(bins, None)).attributed(cfg.attribution)
        jsa = two_photon_amplitude(em, cfg.channel)["SV"]
        tracemalloc.start()
        try:
            prof = temporal_profiles(jsa, n_time=n_time)
            prof.conditional_cut(prof.t[prof.peak()[1]])
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes <= 2 * n_time * bins * 16, bins


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_stage_is_resident(amps, n_time, ws):
    """Every output of the streamed stage, taken as ``simulate`` takes it
    (one shared kernel, every cut at the first amplitude's peak column),
    equals the resident stage bit for bit."""
    t_cond, kernel = None, None
    for w in ws:
        prof = temporal_profiles(amps[w], n_time=n_time, kernel=kernel)
        kernel = prof.kernel
        peak = prof.peak()
        if t_cond is None:
            t_cond = prof.t[peak[1]]
        ref = resident_temporal_stage(amps[w], n_time, t_cond)
        assert peak == ref["peak"]
        for key in ("p_signal", "norm", "parseval_ratio"):
            assert np.array_equal(_bits(getattr(prof, key)), _bits(ref[key]))
        assert np.array_equal(_bits(prof.conditional_cut(t_cond)[1]),
                              _bits(ref["cut"]))
    streamed = temporal_profiles(amps[ws[-1]], n_time=n_time)
    assert np.array_equal(_bits(streamed.conditional_cut(t_cond)[1]),
                          _bits(ref["cut"]))


@pytest.mark.parametrize("attribution", ["per-slot", "local-jump"])
@pytest.mark.parametrize("bins", [2, 3, 4, 5, 8, 12, 16, 32, 64, 128])
def test_streamed_stage_is_bitwise_the_resident_one(attribution, bins):
    cfg = load_config(SHIPPED)
    em = build_emission(cfg.structure, cfg.pump,
                        cfg.basis(bins, None)).attributed(attribution)
    amps = two_photon_amplitude(em, cfg.channel)
    ws = [w for w in ("SV", "V", "S") if np.max(np.abs(amps[w].matrix))]
    _assert_stage_is_resident(amps, cfg.time_points, ws)


@pytest.mark.parametrize("n_time", [128, 512])
@pytest.mark.parametrize("bins", [3, 8, 17, 28])
def test_streamed_stage_is_bitwise_the_resident_one_on_random_spectra(
        n_time, bins):
    amps = {seed: _random_jsa(seed, bins) for seed in (1, 2, 3)}
    _assert_stage_is_resident(amps, n_time, list(amps))


@pytest.mark.parametrize("half_shape, kernel_shape", [
    ((37, 12), (12, 700)),  # blocks of 23 rows, the last one partial
    ((300, 12), (12,)),  # one kernel column, as conditional_cut's
    ((12,), (12, 512)),  # one half row, as rows() of one index
    ((1, 12), (12, 512)),
    ((512, 12), (12, 512)),  # verify's time_normalization grid
])
def test_density_is_bitwise_abs_squared(half_shape, kernel_shape):
    """``_density`` writes |.|^2 / norm into the real half of the complex
    product; every entry is np.abs(half @ kernel_t) ** 2 / norm bit for
    bit."""
    rng = np.random.default_rng(5)
    half, kernel_t = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                      for s in (half_shape, kernel_shape))
    norm = 3.7e-3
    got = observables._density(half, kernel_t, norm)
    want = np.abs(half @ kernel_t) ** 2 / norm
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def test_slices_never_end_in_one_row():
    def spans(size, step):
        return [(s.start, s.stop) for s in observables._slices(size, step)]

    assert spans(1, 4) == [(0, 1)]
    assert spans(6, 3) == [(0, 3), (3, 6)]
    assert spans(7, 3) == [(0, 3), (3, 7)]
    assert spans(8, 3) == [(0, 3), (3, 6), (6, 8)]


def test_peak_block_slices_are_never_one_row(shipped_amplitudes,
                                             monkeypatch):
    """A slice budget that leaves rows.size % step == 1 merges the last
    row into the slice before it (a one-row product rounds differently)
    and gives the one-slice answer bit for bit."""
    n_time, amps = shipped_amplitudes
    prof = temporal_profiles(amps["SV"], n_time=n_time)
    blocks = []
    density = observables._density

    def recording_density(half, kernel_t, norm):
        out = density(half, kernel_t, norm)
        if half.ndim == 2:
            blocks.append(out)
        return out

    monkeypatch.setattr(observables, "_density", recording_density)
    monkeypatch.setattr(observables, "SLICE", 1 << 40)
    whole = prof.peak()
    (block,) = blocks
    rows, cols = block.shape
    step = min(d for d in range(3, rows - 1) if (rows - 1) % d == 0)
    assert prof.kernel.size > 2 * step * cols
    blocks.clear()
    monkeypatch.setattr(observables, "SLICE", step * cols)
    assert prof.peak() == whole
    assert [b.shape[0] for b in blocks] == [step] * (len(blocks) - 1) + [
        step + 1]
    assert np.array_equal(np.vstack(blocks), block)


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


_X5 = np.linspace(-1.0, 1.0, 5)


@pytest.mark.parametrize("x, y", [
    (_X5, np.array([4.0, 3.0, 1.0, 0.5, 0.0])),  # peak at the left end
    (_X5, np.array([0.0, 0.5, 1.0, 3.0, 4.0])),  # peak at the right end
    (_X5, np.array([4.0, 4.0, 2.0, 2.0, 2.0])),  # ends at half, left peak
    (_X5, np.array([1.0, 2.0, 4.0, 2.0, 1.0])),  # half maximum at one point
    (np.linspace(0.0, 1.0, 9),  # plateaus at exactly half maximum
     np.array([0.0, 1.5, 1.5, 1.5, 3.0, 1.5, 1.5, 0.5, 0.0])),
    (np.array([0.0, 1.0, 3.0]), np.array([1.0, 3.0, 1.0])),  # 3 points
    (np.array([0.0, 1.0, 3.0]), np.array([2.0, 1.0, 0.25])),
    (_X5, np.array([0.0, 1.0, np.nan, 1.0, 0.0])),  # nan: the width is nan
    (np.linspace(0, 10, 4001),  # two peaks: the global one's width
     np.exp(-(np.linspace(0, 10, 4001) - 3) ** 2 / 0.08)
     + 0.6 * np.exp(-(np.linspace(0, 10, 4001) - 7) ** 2 / 2.0)),
], ids=["left-end", "right-end", "left-end-half-tail", "one-point-half",
        "half-plateaus", "three-points", "three-points-left-end", "nan",
        "two-peaks"])
def test_width_fwhm_is_bitwise_the_loop_walk(x, y):
    for xs in (x, x[::-1]):
        got, want = np.float64([width_fwhm(xs, y), loop_width_fwhm(xs, y)])
        assert got.tobytes() == want.tobytes()


def test_width_fwhm_is_bitwise_the_loop_walk_on_temporal_curves():
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "gan_aln_20layer.json"))
    em = build_emission(cfg.structure, cfg.pump, cfg.basis(bins=16))
    amps = two_photon_amplitude(em, cfg.channel)
    for w in ("V", "S", "SV"):
        prof = temporal_profiles(amps[w], n_time=cfg.time_points)
        for y in (prof.p_signal, prof.conditional_cut(0.0)[1]):
            assert width_fwhm(prof.t, y) == loop_width_fwhm(prof.t, y)


def test_nan_amplitude_has_no_peak():
    """A nan entry gives a nan norm: NoPeak, not a profile whose peak()
    divides by it."""
    m = np.ones((4, 4), dtype=complex)
    m[1, 2] = np.nan
    jsa = _jsa_from_matrix(m, 0.4 * OMEGA_P0, 0.6 * OMEGA_P0)
    with pytest.raises(NoPeak, match="not finite"):
        temporal_profiles(jsa, n_time=256)


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
