"""Measurable pair quantities derived from the emission operators.

G_V and G_S are read as signal-row blocks formed from parts (layout in
``matrixcore``), F as its per-bin 2x2 maps.  F keeps the polarization and
is diagonal in the bin, so for an output channel (signal direction a,
pol alpha; idler direction b, pol beta) each branch contraction of
contribution w sums over the input direction of the scattered photon
only:

* the signal-branch factor, the two-photon amplitude: pair born into the
  idler-creation rows, signal scattered linearly.  Those rows are the
  conjugated signal rows with the pols exchanged, so it reads the signal
  rows (b, alpha; c, beta) without conjugation;
* the idler-branch factor: pair born into the signal rows, idler
  scattered linearly by the idler-creation map conj(F), both conjugated.

Their products (plus conjugate) give the joint spectral photon-number
densities n^V, n^S and the interference term n^I; the three sum exactly
to the observable density of the complete process.  First-order
consistency makes the idler-branch factor of the total (V + S) the
conjugate of its signal-branch one, so the total density is
nonnegative.  The V and S factors alone are not conjugate, so n^V and
n^S may dip below zero; only their sum with n^I is observable.

Signal and idler share one spectral basis, so every (signal bin, idler
bin) matrix here carries one frequency axis ``omega`` with bin widths
``widths`` for both of its axes.  An emission built over a geometry grid
G (see ``matrixcore``) gives branch amplitudes and joint densities of
shape (*G, K, K) and counts and ratios of shape G, one per geometry;
with G = () they are single matrices and plain floats.

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

    channel = (a, b, alpha, beta).  Both are (*G, signal bin, idler bin)
    arrays; the signal-branch factor is the two-photon amplitude of
    contribution w.
    """
    a, b = (DIRS.index(d) for d in channel[:2])
    alpha, beta = (POLS.index(p) for p in channel[2:])
    g = emission.pairs(w, np.s_[[a, b], alpha, :, beta])
    f = emission.scatter
    idler_branch = np.einsum("c...kn,c...n->...kn", np.conj(g[0]),
                             np.conj(f[b]))
    signal_branch = np.einsum("c...k,c...nk->...kn", f[a], g[1])
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

    Bin matrices (real, shape (*G, K, K) over a geometry grid G);
    n_total = n_volume + n_surface + n_interf holds entrywise by
    construction.  continuous() converts to per-(rad/s)^2.
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


def _plain(a):
    """A plain float for a 0-d result, else the array."""
    return float(a) if np.ndim(a) == 0 else a


def marginals_and_counts(jd: JointDensity):
    """Signal marginals, pair counts, surface/volume ratios.

    Returns a dict with per-contribution marginal densities n_s(w_s)
    (units s), counts N (per quantization area), the pointwise ratio
    eta_s with its validity mask, and R = N_S / N_V.  Over a geometry
    grid G the marginals, eta_s and its mask have shape (*G, K) and the
    counts and R shape G; with G = () counts and R are plain floats.
    Each geometry's count is its own dot of its marginal with the bin
    widths, so it is bitwise that of a build of that geometry alone,
    whatever grid it sits in (one product over the (*G, K) stack
    rounds by a row's position in it).
    """
    marginals = {}
    counts = {}
    for which in ("V", "S", "I", "SV"):
        cont = jd.continuous(which)
        marg = cont @ jd.widths
        marginals[which] = marg
        dots = [m @ jd.widths for m in marg.reshape(-1, marg.shape[-1])]
        counts[which] = _plain(np.reshape(dots, marg.shape[:-1]))
    peak = np.abs(marginals["V"]).max(axis=-1, keepdims=True)
    valid = np.abs(marginals["V"]) > ETA_FLOOR * np.maximum(peak, 1e-300)
    eta = np.zeros_like(marginals["V"])
    eta[valid] = marginals["S"][valid] / marginals["V"][valid]
    tiny = 1e-300
    v, s = np.asarray(counts["V"]), np.asarray(counts["S"])
    emits = np.abs(v) > tiny
    ratio = _plain(np.where(
        emits, s / np.where(emits, v, 1.0),
        np.where(np.abs(s) <= tiny, 0.0, np.inf)))
    return {
        "marginals": marginals,
        "counts": counts,
        "eta_s": eta,
        "eta_valid": valid,
        "ratio_surface_volume": ratio,
    }


SLICE = 1 << 14  # entries of one peak block slice


def _density(half, kernel_t, norm):
    """The joint detection-time density |half @ kernel_t|^2 / norm on the
    rows of half and columns of kernel_t, bitwise np.abs(.) ** 2 / norm, as
    a view of the complex product's real half.  np.absolute writes there
    in blocks of SLICE entries: numpy copies an overlap of in and out."""
    amp = half @ kernel_t
    flat = amp.reshape(-1, amp.shape[-1])
    for rows in _slices(len(flat), max(1, SLICE // flat.shape[1])):
        np.absolute(flat[rows], out=flat[rows].real)
    density = amp.real
    return np.divide(np.square(density, out=density), norm, out=density)


def _slices(size: int, step: int):
    """Slices of range(size), step long; a trailing single row joins the
    one before, as a one-row product takes BLAS's matrix-vector path and
    rounds differently from the rows of a larger product."""
    bounds = list(range(0, max(size - 1, 1), step)) + [size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _halves(kernel, spectrum):
    """(rows, kernel[rows] @ spectrum) over chunks of 256 time rows."""
    for rows in _slices(kernel.shape[0], 256):
        yield rows, kernel[rows] @ spectrum


@dataclass(frozen=True)
class TemporalProfile:
    """Joint detection-time density on the alias-exact grid.

    The amplitude is half @ kernel.T, with ``kernel`` (t, bin) =
    exp(-i w t) dw, ``spectrum`` the continuous K x K amplitude and half
    = kernel @ spectrum the amplitude transformed over w_s only.  Its
    density |.|^2 / norm integrates to one over the grid.  The kernel is
    the only (n, K) array held: half is streamed in row chunks, and only
    ``rows``, the one column of ``conditional_cut`` and the candidate
    block of ``peak`` form density values.  norm, p_signal and the row
    sums sum_m |half[t, m]| dw_m that bound ``peak`` come from discrete
    Parseval over t_i (see temporal_profiles), with no n x n array.
    """

    t: np.ndarray
    kernel: np.ndarray
    spectrum: np.ndarray
    widths: np.ndarray
    norm: float
    p_signal: np.ndarray
    row_sums: np.ndarray
    dt: float
    parseval_ratio: float
    cut: tuple = (None, None)  # (t_i index, density column) of the pass

    def _half(self, idx):
        """half[idx] by one product of two or more rows (see _slices)."""
        pad = np.repeat(idx, 2) if idx.size == 1 else idx
        return (self.kernel[pad] @ self.spectrum)[:idx.size]

    def rows(self, idx) -> np.ndarray:
        """Joint density p[t_s, t_i] on the rows idx, over all t_i."""
        half = self._half(np.ravel(idx)).reshape(np.shape(idx) + (-1,))
        return _density(half, self.kernel.T, self.norm)

    def conditional_cut(self, t_idler: float):
        idx = int(np.argmin(np.abs(self.t - t_idler)))
        at, cut = self.cut
        if at != idx:
            cut = np.empty(self.t.size)
            for rows, half in _halves(self.kernel, self.spectrum):
                cut[rows] = _density(half, self.kernel[idx], self.norm)
        norm = cut.sum() * self.dt
        return self.t, cut / norm if norm > 0 else cut

    def peak(self):
        """(t_s, t_i) grid indices of the joint density's maximum.

        Exact block search.  An entry p[i, j] is computed row-first, as
        ``rows`` does: |sum_m half[i, m] kernel[j, m]|^2 / norm.  It is at
        most the row bound (sum_m |half[i, m]| dw_m)^2 / norm, and at most
        the column bound (sum_k |g[j, k]| dw_k + a)^2 / norm, where g =
        kernel @ spectrum.T is the w_i-first half transform.  Both orders
        compute the same exact amplitude; each of the two matmuls behind
        the row-first value errs by at most gamma_{K+4} sum_km |C_km| dw_k
        dw_m (C the spectrum, gamma_n = n eps / (1 - n eps), the bound of
        a complex dot product of K terms), and g by as much again, so the
        allowance a = 4 (K + 4) eps sum |C| dw dw' covers the gap.  Both
        bounds are also raised by the relative slack 1 + 8 (K + 4) eps,
        against the rounding of the bounds and of |.|^2 / norm.

        The full row with the top row bound gives a first maximum.  The
        block's matmul may round that row's entries differently, by less
        than a in amplitude (two row-first sums over the same terms, each
        within gamma_K sum_m |half[i, m]| dw_m of the exact one), so the
        threshold is the first maximum lowered by a in amplitude and by
        the slack.  Only entries whose row and column bounds both reach
        it can hold the maximum or a tie, and the block of those rows x
        columns holds the first maximum's own entry, so evaluating just
        that block is exact.  Its half rows come from one product and
        it is evaluated in row slices of 2 n K / cols rows, or of SLICE
        entries (never one row) where n K exceeds 2 SLICE.
        np.argmax of each slice in C order, over ascending rows and
        columns, with a later slice kept only when strictly larger, gives
        ties to the lowest (row, col), as np.argmax of the full grid.
        """
        k = self.kernel.shape[1]
        eps = np.finfo(float).eps
        grow = 1.0 + 8.0 * (k + 4) * eps
        slack = grow / self.norm
        allowance = 4.0 * (k + 4) * eps * (
            self.widths @ np.abs(self.spectrum) @ self.widths)
        row_bound = self.row_sums ** 2 * slack
        col_sums = np.empty(self.t.size)
        for rows, g in _halves(self.kernel, self.spectrum.T):
            col_sums[rows] = np.abs(g) @ self.widths
        col_bound = (col_sums + allowance) ** 2 * slack
        first = np.sqrt(self.rows(int(np.argmax(row_bound))).max() * self.norm)
        threshold = max(first - allowance, 0.0) ** 2 / (grow * self.norm)
        rows = np.flatnonzero(row_bound >= threshold)
        cols = np.flatnonzero(col_bound >= threshold)
        half = self._half(rows)
        kernel_t = self.kernel[cols].T
        step = (max(2, SLICE // cols.size) if self.kernel.size > 2 * SLICE
                else 2 * self.kernel.size // cols.size)
        top, at = -np.inf, 0
        for part in _slices(rows.size, step):
            block = _density(half[part], kernel_t, self.norm)
            flat = int(np.argmax(block))
            if block.flat[flat] > top:
                top, at = block.flat[flat], part.start * cols.size + flat
        i, j = divmod(at, cols.size)
        return int(rows[i]), int(cols[j])


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


def temporal_profiles(jsa: JointSpectralAmplitude, n_time: int = 2048,
                      kernel=None, t_idler=None) -> TemporalProfile:
    """Fourier-transform a two-photon amplitude to detection times.

    Uses the explicit kernel exp(-i w t) dw from the bin centers on the
    n_time-point alias-exact grid (see default_time_grid); raises
    GridTooCoarse when its dt exceeds pi / max(w).  The half transform
    over w_s, half = kernel @ spectrum, is streamed in row chunks and
    never held whole.  ``kernel`` may pass the ``kernel`` of an earlier
    profile on the same bins and n_time, so that amplitudes of one
    emission share one kernel; with ``t_idler`` the same pass forms the
    conditional cut there.

    The sum over t_i needs no second transform: on this grid (uniform
    bins, n dt dw = 2 pi) discrete Parseval gives
    sum_j |sum_m half[t, m] dw_m e^{-i w_m t_j}|^2 = n sum_m
    |half[t, m] dw_m|^2 exactly whenever n >= K, and the Nyquist guard
    already implies it: w_max >= (K - 1/2) dw, so n >= 2 w_max / dw >=
    2K - 1.  That row power gives the grid norm and p_signal at O(nK).
    parseval_ratio = norm / (2 pi)^2 / sum |matrix|^2 is therefore one
    up to rounding when the t_s transform preserves the spectral power;
    it tests that transform (the t_i one is exact by construction).
    """
    t = default_time_grid(jsa.widths, n_time)
    dt = float(t[1] - t[0])
    w_max = jsa.omega.max()
    if dt > np.pi / w_max:
        raise GridTooCoarse(
            f"dt = {dt:.3e} s exceeds Nyquist limit {np.pi / w_max:.3e} s"
        )
    if kernel is None:
        kernel = np.multiply.outer(t, -1j * jsa.omega)
        np.exp(kernel, out=kernel)
        kernel *= jsa.widths
    elif kernel.shape != (t.size, jsa.omega.size):
        raise ValueError(f"time kernel of shape {kernel.shape}, expected "
                         f"{(t.size, jsa.omega.size)}")
    spectrum = jsa.continuous
    col = None if t_idler is None else int(np.argmin(np.abs(t - t_idler)))
    row_power, row_sums, cut = np.zeros((3, t.size))
    for rows, half in _halves(kernel, spectrum):
        row_power[rows] = t.size * (np.abs(half * jsa.widths) ** 2).sum(axis=1)
        row_sums[rows] = np.abs(half) @ jsa.widths
        if col is not None:
            cut[rows] = np.abs(half @ kernel[col]) ** 2
    norm = float(row_power.sum() * dt * dt)
    if not 0.0 < norm < np.inf:  # a nan or inf amplitude: nan or inf norm
        raise NoPeak("two-photon amplitude is " + (
            "identically zero" if norm == 0.0 else "not finite"))
    spectral_power = float(np.sum(np.abs(jsa.matrix) ** 2))
    parseval = (
        norm / (2.0 * np.pi) ** 2 / spectral_power
        if spectral_power > 0
        else float("nan")
    )
    return TemporalProfile(
        t=t, kernel=kernel, spectrum=spectrum, widths=jsa.widths,
        norm=norm, p_signal=row_power * dt / norm, row_sums=row_sums, dt=dt,
        parseval_ratio=parseval, cut=(col, cut / norm),
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
    wi = omega_sum - omega
    outside = (wi < omega[0] - half_bin) | (wi > omega[-1] + half_bin)
    partner = np.argmin(np.abs(omega[None, :] - wi[:, None]), axis=1)
    values = np.where(outside, np.nan,
                      matrix[np.arange(omega.size), partner])
    mask = np.isfinite(values)
    return omega[mask], values[mask]
