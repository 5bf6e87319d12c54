"""Classical linear propagation through the stack at normal incidence.

Per frequency and polarization the problem is scalar: forward/backward
amplitudes per layer, joined by 2x2 interface relations and free phases.
Every amplitude is photon-flux normalized, A = sqrt(n) E for the
classical electric-field amplitude E (the normalization carried by the
per-photon amplitude), so the interface invariants are E = (A_F + A_B) /
sqrt(n) and, up to a constant, H = sqrt(n) (A_F - A_B), and the
scattering matrix is unitary for lossless stacks.  A field amplitude is
the flux amplitude times the E-row entry 1/sqrt(n) of the layer's
continuity rows.

All per-layer amplitudes are referenced at the layer's left boundary
(z_1 for the input medium, z_{N+1} for the output medium).

The one linear solve is ``field_maps``: one ``layer_transfers`` march,
the continuity rows of every layer (``continuity_rows``) and the
scattering form F (``input_output_map``) and feed W (``feed_in_map``) of
the total transfer, held in ``FieldMaps``.  It serves
``linear_transmission`` and ``spectral.bin_solve``, whose one march over
the bin centers and the lit bin sums gives the emission build and the
oracle both the maps on the centers and the pump (``pump_field``,
through ``layer_amplitudes``) on the sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, SingularMatrix
from .materials import refractive_index
from .structure import StructureSpec


def _crossing(n_from, n_to):
    """2x2 map of flux amplitudes (A_F, A_B) across one interface, per
    frequency: E = (A_F + A_B)/sqrt(n) and H = sqrt(n) (A_F - A_B) are
    continuous."""
    root_from, root_to = np.sqrt(n_from), np.sqrt(n_to)
    p = (1.0 / root_from) / (1.0 / root_to)
    q = root_from / root_to
    half_sum, half_dif = 0.5 * (p + q), 0.5 * (p - q)
    return np.array([[half_sum, half_dif], [half_dif, half_sum]])


def mat2_mul(a, b):
    """Product of 2x2 maps stacked over the trailing axes, which
    broadcast: the products a[i, j] b[j, k] in one broadcast multiply,
    summed over j in one add."""
    ndim = max(a.ndim, b.ndim)
    a, b = (m.reshape(m.shape[:2] + (1,) * (ndim - m.ndim) + m.shape[2:])
            for m in (a, b))
    p = a[:, :, None] * b[None]
    return np.add(p[:, 0], p[:, 1])


def mat2_inv(m, context=""):
    """Inverse of 2x2 maps stacked over the trailing axes (adjugate over
    determinant); raises SingularMatrix if any map is singular."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if np.any(det == 0.0) or not np.all(np.isfinite(det)):
        raise SingularMatrix(f"singular matrix {context}")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def layer_transfers(structure: StructureSpec, omega, n):
    """Cumulative 2x2 transfers from medium-0 amplitudes at z_1 into every
    layer, vectorized over omega, from the refractive index n of every
    layer at omega (one array per material, as ``per_material`` gives).

    Returns (at_left, at_right), each of shape (N+2, 2, 2, len(omega)):
    the amplitudes of layer l at its left boundary z_l and at its right
    boundary z_{l+1}.  The ambient media have zero length, so both
    coincide there; at_left[N+1] is the total transfer.  Layer lengths
    may be arrays over a geometry grid that broadcast together to a shape
    G; one march then serves every geometry, with G before the frequency
    axis: (N+2, 2, 2, *G, len(omega)).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n_tot = structure.n_layers + 2
    lengths = [structure.length(l) for l in range(n_tot)]
    grid = structure.grid
    at_left = np.zeros((n_tot, 2, 2) + grid + (omega.size,), dtype=complex)
    at_left[0, 0, 0] = at_left[0, 1, 1] = 1.0
    at_right = at_left.copy()
    # one crossing and phase per (material pair, length); n holds one
    # array per material, so the ids of its entries name them, and a
    # geometry-grid length is named by its array object
    steps = {}
    for l in range(1, n_tot):
        length = lengths[l]
        key = (id(n[l - 1]), id(n[l]),
               id(length) if isinstance(length, np.ndarray) else length)
        if key not in steps:
            n_from, n_to = n[l - 1] + 0j, n[l] + 0j
            phase = np.exp(1j * omega / CONSTANTS.c * n_to
                           * np.array(length, ndmin=len(grid))[..., None])
            steps[key] = (_crossing(n_from, n_to),
                          np.array([phase, 1.0 / phase])[:, None])
        crossing, propagate = steps[key]
        at_left[l] = mat2_mul(crossing, at_right[l - 1])
        at_right[l] = propagate * at_left[l]
    return at_left, at_right


def continuity_rows(n, omega):
    """Boundary-continuity map L of one layer of refractive index n(omega)
    per frequency: (E, H) rows from (F, B) flux amplitudes, shape (2, 2,
    len(omega)).  On the bin centers these are the diagonal
    single-frequency overlaps of the top-hat basis: 1/sqrt(n) in the E
    row, +-i k/sqrt(n) in the H row."""
    i_e = 1.0 / np.sqrt(n)
    i_h = 1j * omega / CONSTANTS.c * n / np.sqrt(n)
    return np.array([[i_e, i_e], [i_h, -i_h]])


def input_output_map(t):
    """Scattering form F of total transfers t, per frequency.

    Inputs are the forward mode at z_1 and the backward mode at z_{N+1};
    outputs the forward mode at z_{N+1} and the backward mode at z_1.
    """
    if np.any(np.abs(t[1, 1]) < 1e-300):
        raise SingularMatrix("degenerate stack: transfer M22 = 0")
    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    return np.array([[det, t[0, 1]], [-t[1, 0], np.ones_like(det)]]) / t[1, 1]


def feed_in_map(f):
    """W per frequency: medium-0 modes at z_1 from the inputs (the forward
    mode passes the input through, the backward mode is F's left-exit
    row)."""
    one = np.ones_like(f[0, 0])
    return np.array([[one, np.zeros_like(one)], f[1]])


@dataclass(frozen=True)
class FieldMaps:
    """Per-frequency 2x2 linear maps of one field sector.

    at_left[l] / at_right[l]: layer-l modes at z_l / z_{l+1} from medium-0
    modes at z_1 (stacks of shape (N+2, 2, 2, *G, K) over a geometry grid
    G, () for scalar lengths); interface[l]: the continuity rows L of
    layer l, the same for every geometry (unit G axes).  scatter: F;
    feed: W (shape (2, 2, *G, K)).  ``boundary_rows`` gives the E/H rows
    of every boundary and ``fed`` the modes of every layer edge;
    ``matrixcore.inverse_responses`` forms the boundary responses from
    those rows and t and r of F.
    """

    at_left: np.ndarray
    at_right: np.ndarray
    interface: np.ndarray
    scatter: np.ndarray
    feed: np.ndarray

    def conj(self) -> "FieldMaps":
        """The maps of the conjugated transfers and continuity rows, with F
        and W formed from them: the idler sector of the linear dumps."""
        return _solved(*(np.conj(a) for a in
                         (self.at_left, self.at_right, self.interface)))

    def boundary_rows(self, l):
        """L_l at_left[l]: E/H rows at boundary l of the medium-0 modes at
        z_1.  For an index array l the boundaries run along axis 2: shape
        (2, 2, len(l), *G, K)."""
        at_left, interface = (np.moveaxis(a, 0, 2)[:, :, l]
                              for a in (self.at_left, self.interface))
        return mat2_mul(interface, at_left)

    def select(self, bins) -> "FieldMaps":
        """The maps at the frequencies bins (an index or slice)."""
        return FieldMaps(*(a[..., bins] for a in vars(self).values()))

    def fed(self, edge: str):
        """Layer modes at their left or right edge from the inputs, every
        layer at once: shape (2, 2, N+2, *G, K)."""
        at = self.at_left if edge == "left" else self.at_right
        return mat2_mul(np.moveaxis(at, 0, 2), self.feed)


def _solved(at_left, at_right, interface) -> FieldMaps:
    scatter = input_output_map(at_left[-1])
    return FieldMaps(at_left, at_right, interface, scatter,
                     feed_in_map(scatter))


def field_maps(structure: StructureSpec, omega) -> FieldMaps:
    """The linear solve of a stack at the given frequencies: the transfers
    of one march, the continuity rows of every layer, F and W, from one
    evaluation of each material's refractive index."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))

    def solve(material):
        n = refractive_index(material, omega)
        return n, continuity_rows(n, omega)

    n, rows = zip(*structure.per_material(solve))
    at_left, at_right = layer_transfers(structure, omega, n)
    interface = np.array(rows)
    interface = interface.reshape(interface.shape[:3]
                                  + (1,) * len(structure.grid) + (-1,))
    return _solved(at_left, at_right, interface)


def layer_amplitudes(maps: FieldMaps, side="F", a_in=1.0):
    """Flux amplitudes of every layer, shape (N+2, 2, *G, K) with axis 1
    (F, B), for input a_in in the forward mode at z_1 (side 'F') or the
    backward mode at z_{N+1} (side 'B'); the other input is zero."""
    amps = np.einsum("lij...w,j...w->li...w", maps.at_left,
                     maps.feed[:, ("F", "B").index(side)] * a_in)
    # the undriven side is exactly dark; remove marching roundoff
    if side == "F":
        amps[-1, 1] = 0.0
    else:
        amps[0, 0] = 0.0
    return amps


def linear_transmission(structure: StructureSpec, omega, side="F"):
    """Complex t, r and intensity coefficients T, R at given frequencies.

    T = |t|^2 and R = |r|^2 are read from the unitary flux F, so T + R =
    1 for lossless stacks; t and r are returned as field-amplitude
    ratios.  Each is an array over (*G, len(omega)) for layer lengths
    over a geometry grid G (see ``layer_transfers``), and a plain number
    for scalar lengths and one frequency.
    """
    maps = field_maps(structure, omega)
    f, e_row = maps.scatter, maps.interface[:, 0, 0]
    if side == "F":
        t, r, ratio = f[0, 0], f[1, 0], e_row[-1] / e_row[0]
    elif side == "B":
        t, r, ratio = f[1, 1], f[0, 1], e_row[0] / e_row[-1]
    else:
        raise ConfigError(f"side must be 'F' or 'B', got {side!r}")
    big_t, big_r = np.abs(t) ** 2, np.abs(r) ** 2
    t = t * ratio  # the flux ratio as a field ratio: sqrt(n_in / n_out)
    if t.shape == (1,):
        return complex(t[0]), complex(r[0]), float(big_t[0]), float(big_r[0])
    return t, r, big_t, big_r


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian-spectrum classical pump.

    sigma is the spectral amplitude standard deviation (rad/s); the
    intensity FWHM in frequency is 2 sigma sqrt(ln 2).  energy_per_area
    is the pulse fluence in J/m^2; the spectral amplitude satisfies
    int |A(omega)|^2 domega = sqrt(mu0/eps0) E / pi.
    """

    omega0: float
    sigma: float
    energy_per_area: float
    polarization: str = "y"
    side: str = "F"
    cutoff_nsigma: float = 8.0

    def __post_init__(self):
        if self.sigma <= 0.0 or self.energy_per_area <= 0.0:
            raise ConfigError("pump sigma and energy must be positive")
        if self.polarization not in ("x", "y"):
            raise ConfigError("pump polarization must be 'x' or 'y'")
        if self.side not in ("F", "B"):
            raise ConfigError("pump side must be 'F' or 'B'")

    @property
    def peak_amplitude(self) -> float:
        z0 = (CONSTANTS.mu0 / (CONSTANTS.eps0 * np.pi)) ** 0.5
        return (z0 * self.energy_per_area / (np.pi * self.sigma)) ** 0.5

    def amplitude(self, omega):
        """Input spectral amplitude, V/m per (rad/s); zero past cutoff."""
        omega = np.asarray(omega, dtype=float)
        detune = (omega - self.omega0) / self.sigma
        amp = self.peak_amplitude * np.exp(-0.5 * detune**2)
        return np.where(np.abs(detune) <= self.cutoff_nsigma, amp, 0.0)

    def active_mask(self, omega):
        omega = np.asarray(omega, dtype=float)
        return np.abs(omega - self.omega0) <= self.cutoff_nsigma * self.sigma

    @staticmethod
    def from_wavelength(lambda0, fwhm_lambda, energy_per_area, **kw):
        """Build from central wavelength and intensity FWHM, both metres."""
        omega0 = 2.0 * np.pi * CONSTANTS.c / lambda0
        fwhm_omega = 2.0 * np.pi * CONSTANTS.c * fwhm_lambda / lambda0**2
        sigma = fwhm_omega / (2.0 * np.sqrt(np.log(2.0)))
        return PumpSpec(omega0=omega0, sigma=sigma,
                        energy_per_area=energy_per_area, **kw)


@dataclass(frozen=True)
class PumpField:
    """Pump spectral amplitudes per layer on a frequency grid.

    amps has shape (N+2, 2, *G, n_omega): layer, direction (F, B), the
    geometry grid G of the stack's layer lengths, frequency; referenced at
    each layer's left boundary.  Frequencies outside the pump cutoff
    carry exactly zero amplitude.
    """

    omega: np.ndarray
    amps: np.ndarray
    polarization: str
    mask: np.ndarray


def pump_field(pump: PumpSpec, omega, maps: FieldMaps) -> PumpField:
    """The pump on omega from ``maps``, the solve at its lit frequencies."""
    mask = pump.active_mask(omega)
    # field amplitude per flux amplitude: 1/sqrt(n) of each layer
    e_row = maps.interface[:, 0, 0]
    driven = 0 if pump.side == "F" else -1
    flux = layer_amplitudes(maps, pump.side,
                            pump.amplitude(omega[mask]) / e_row[driven])
    amps = np.zeros(flux.shape[:-1] + omega.shape, dtype=complex)
    amps[..., mask] = flux * e_row[:, None]
    return PumpField(omega, amps, pump.polarization, mask)
