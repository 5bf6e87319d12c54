"""Measurable pair quantities derived from the emission operators.

G_V and G_S are read as pair arrays (layout in ``matrixcore``), F as its
per-bin 2x2 maps per field.  F keeps the polarization and is diagonal in
the bin, so for an output channel (signal direction a, pol alpha; idler
direction b, pol beta) each branch contraction of contribution w sums
over the input direction of the scattered photon only:

* the signal-branch factor, the two-photon amplitude: pair born into the
  idler-creation rows, signal scattered linearly;
* the idler-branch factor: pair born into the signal rows, idler
  scattered linearly (conjugated).

Their products (plus conjugate) give the joint spectral photon-number
densities n^V, n^S and the interference term n^I; the three sum exactly
to the observable density of the complete process.  First-order
consistency makes the idler-branch factor the conjugate of the
signal-branch one, so the diagonal densities are nonnegative.

Signal and idler share one spectral basis, so every (signal bin, idler
bin) matrix here carries one frequency axis ``omega`` with bin widths
``widths`` for both of its axes.

Units: bin-matrix amplitudes are dimensionless; continuous amplitudes
carry s (per sqrt bin width per field) and continuous densities s^2.
Pair counts integrate the continuous density over both frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridTooCoarse, NoPeak
from .matrixcore import EmissionOperators
from .spectral import DIRS, POLS

CONTRIBUTIONS = ("V", "S")


def branch_amplitudes(emission: EmissionOperators, channel, w: str):
    """(idler-branch, signal-branch) bin matrices for one channel.

    channel = (a, b, alpha, beta).  Both are (signal bin, idler bin)
    arrays; the signal-branch factor is the two-photon amplitude of
    contribution w.
    """
    a, b = (DIRS.index(d) for d in channel[:2])
    alpha, beta = (POLS.index(p) for p in channel[2:])
    g = {"V": emission.g_volume, "S": emission.g_surface}[w]
    f = emission.scatter
    idler_branch = np.einsum("ckn,cn->kn", np.conj(g[0, a, alpha, :, beta]),
                             f["i"][b])
    signal_branch = np.einsum("ck,cnk->kn", f["s"][a],
                              np.conj(g[1, b, beta, :, alpha]))
    return idler_branch, signal_branch


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Two-photon amplitude over (signal bin, idler bin) for one channel."""

    channel: tuple
    contribution: str
    matrix: np.ndarray  # dimensionless bin matrix
    omega: np.ndarray  # bin centers of both axes
    widths: np.ndarray

    @property
    def continuous(self) -> np.ndarray:
        """Amplitude density, units s."""
        scale = np.sqrt(self.widths[:, None] * self.widths[None, :])
        return self.matrix / scale


def two_photon_amplitude(emission: EmissionOperators, channel):
    """Per-contribution and total two-photon amplitudes of one channel."""
    matrices = {w: branch_amplitudes(emission, channel, w)[1]
                for w in CONTRIBUTIONS}
    matrices["SV"] = matrices["V"] + matrices["S"]
    return {
        w: JointSpectralAmplitude(
            channel=channel, contribution=w, matrix=m,
            omega=emission.basis.centers, widths=emission.basis.widths,
        )
        for w, m in matrices.items()
    }


@dataclass(frozen=True)
class JointDensity:
    """Joint spectral photon-number densities of one output channel.

    Bin matrices (real); n_total = n_volume + n_surface + n_interf holds
    entrywise by construction.  continuous() converts to per-(rad/s)^2.
    """

    channel: tuple
    n_volume: np.ndarray
    n_surface: np.ndarray
    n_interf: np.ndarray
    omega: np.ndarray  # bin centers of both axes
    widths: np.ndarray

    @property
    def n_total(self) -> np.ndarray:
        return self.n_volume + self.n_surface + self.n_interf

    def bin_matrix(self, which: str) -> np.ndarray:
        return {
            "V": self.n_volume,
            "S": self.n_surface,
            "I": self.n_interf,
            "SV": self.n_total,
        }[which]

    def continuous(self, which: str) -> np.ndarray:
        area = self.widths[:, None] * self.widths[None, :]
        return self.bin_matrix(which) / area


def joint_density(emission: EmissionOperators, channel) -> JointDensity:
    """Joint densities n^V, n^S, n^I (and their sum) for one channel."""
    f1 = {}
    f2 = {}
    for w in CONTRIBUTIONS:
        f1[w], f2[w] = branch_amplitudes(emission, channel, w)

    def density(w, wp):
        return 2.0 * np.real(f1[w] * f2[wp])

    n_v = density("V", "V")
    n_s = density("S", "S")
    n_i = density("V", "S") + density("S", "V")
    return JointDensity(
        channel=channel,
        n_volume=n_v,
        n_surface=n_s,
        n_interf=n_i,
        omega=emission.basis.centers,
        widths=emission.basis.widths,
    )


ETA_FLOOR = 1e-12


def marginals_and_counts(jd: JointDensity):
    """Signal marginals, pair counts, surface/volume ratios.

    Returns a dict with per-contribution marginal densities n_s(w_s)
    (units s), counts N (per quantization area), the pointwise ratio
    eta_s with its validity mask, and R = N_S / N_V.
    """
    marginals = {}
    counts = {}
    for which in ("V", "S", "I", "SV"):
        cont = jd.continuous(which)
        marg = cont @ jd.widths
        marginals[which] = marg
        counts[which] = float(marg @ jd.widths)
    floor = ETA_FLOOR * max(np.max(np.abs(marginals["V"])), 1e-300)
    valid = np.abs(marginals["V"]) > floor
    eta = np.zeros_like(marginals["V"])
    eta[valid] = marginals["S"][valid] / marginals["V"][valid]
    tiny = 1e-300
    if abs(counts["V"]) > tiny:
        ratio = counts["S"] / counts["V"]
    else:
        ratio = 0.0 if abs(counts["S"]) <= tiny else float("inf")
    return {
        "marginals": marginals,
        "counts": counts,
        "eta_s": eta,
        "eta_valid": valid,
        "ratio_surface_volume": ratio,
    }


@dataclass(frozen=True)
class TemporalProfile:
    """Joint detection-time density on the alias-exact grid.

    p integrates to one over the grid; p_signal is its t_s marginal.
    """

    t: np.ndarray
    p: np.ndarray
    p_signal: np.ndarray
    dt: float
    parseval_ratio: float

    def conditional_cut(self, t_idler: float):
        idx = int(np.argmin(np.abs(self.t - t_idler)))
        cut = self.p[:, idx]
        norm = cut.sum() * self.dt
        return self.t, cut / norm if norm > 0 else cut


def default_time_grid(widths, n_time: int = 2048):
    """Alias-exact grid: n dt = 2 pi / dw, centered on zero.

    On this grid the discrete transform satisfies Parseval exactly for
    uniform bins, and the profile's periodicity equals the grid span.
    """
    widths = np.asarray(widths, dtype=float)
    if not np.allclose(widths, widths[0], rtol=1e-12):
        raise ConfigError("alias-exact time grid requires uniform bins")
    dw = widths[0]
    dt = 2.0 * np.pi / (n_time * dw)
    t = (np.arange(n_time) - n_time // 2) * dt
    return t


def temporal_profiles(jsa: JointSpectralAmplitude,
                      n_time: int = 2048) -> TemporalProfile:
    """Fourier-transform a two-photon amplitude to detection times.

    Uses the explicit kernel exp(-i w_s t_s - i w_i t_i) from the bin
    centers on the n_time-point alias-exact grid (see default_time_grid);
    raises GridTooCoarse when its dt exceeds pi / max(w).  The complex
    amplitude on the grid is not kept: only p is returned.
    """
    t = default_time_grid(jsa.widths, n_time)
    dt = float(t[1] - t[0])
    w_max = jsa.omega.max()
    if dt > np.pi / w_max:
        raise GridTooCoarse(
            f"dt = {dt:.3e} s exceeds Nyquist limit {np.pi / w_max:.3e} s"
        )
    cont = jsa.continuous
    kernel = np.exp(-1j * np.outer(t, jsa.omega)) * jsa.widths[None, :]
    amp = kernel @ cont @ kernel.T
    p = np.abs(amp) ** 2
    del amp
    norm = p.sum() * dt * dt
    if norm <= 0.0:
        raise NoPeak("two-photon amplitude is identically zero")
    p /= norm
    p_signal = p.sum(axis=1) * dt
    spectral_power = float(np.sum(np.abs(jsa.matrix) ** 2))
    parseval = (
        norm / (2.0 * np.pi) ** 2 / spectral_power
        if spectral_power > 0
        else float("nan")
    )
    return TemporalProfile(
        t=t, p=p, p_signal=p_signal, dt=dt, parseval_ratio=parseval,
    )


def width_fwhm(x, y) -> float:
    """Full width at half maximum of the global peak, by interpolation.

    The half-maximum crossings adjacent to the global maximum are found
    by linear interpolation; secondary peaks are ignored.  Raises NoPeak
    for flat or nonpositive curves.
    """
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


def antidiagonal_profile(matrix, omega, omega_sum: float):
    """Profile of a (signal bin, idler bin) matrix along w_s + w_i =
    omega_sum, on the bin centers omega of both axes.

    For every signal bin picks the idler bin closest to the difference;
    returns (omega_s, values) restricted to in-window idler partners.
    """
    half_bin = 0.5 * float(np.median(np.diff(omega))) if omega.size > 1 \
        else np.inf
    values = np.full(omega.size, np.nan)
    for k, ws in enumerate(omega):
        wi = omega_sum - ws
        if wi < omega[0] - half_bin or wi > omega[-1] + half_bin:
            continue
        n = int(np.argmin(np.abs(omega - wi)))
        values[k] = matrix[k, n]
    mask = np.isfinite(values)
    return omega[mask], values[mask]
