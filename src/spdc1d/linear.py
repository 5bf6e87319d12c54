"""Classical linear propagation through the stack at normal incidence.

Per frequency and polarization the problem is scalar: forward/backward
amplitudes per layer, joined by 2x2 interface relations and free phases.
Two amplitude conventions are used:

* ``field``  - classical electric-field amplitudes; the interface
  invariants are (A_F + A_B) and n (A_F - A_B).  Used for the pump.
* ``flux``   - photon-flux-normalized amplitudes (field / sqrt(n), the
  normalization carried by the per-photon amplitude); invariants are
  (A_F + A_B)/sqrt(n) and sqrt(n) (A_F - A_B).  Used for the quantum
  signal/idler modes; the scattering matrix is unitary in this
  convention for lossless stacks.

All per-layer amplitudes are referenced at the layer's left boundary
(z_1 for the input medium, z_{N+1} for the output medium).

The one scattering solve is here: the scattering form F
(``input_output_map``) and the feed W (``feed_in_map``) of the total
transfer serve the pump, ``linear_transmission`` and ``matrixcore``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, SingularMatrix
from .materials import refractive_index
from .structure import StructureSpec

def _interface_weights(n, convention):
    if convention == "field":
        return np.ones_like(n), n
    if convention == "flux":
        return 1.0 / np.sqrt(n), np.sqrt(n)
    raise ConfigError(f"unknown amplitude convention {convention!r}")


def _crossing(n_from, n_to, convention):
    """2x2 map of (A_F, A_B) across one interface, per frequency."""
    w1, v1 = _interface_weights(n_from, convention)
    w2, v2 = _interface_weights(n_to, convention)
    p = w1 / w2
    q = v1 / v2
    half_sum = 0.5 * (p + q)
    half_dif = 0.5 * (p - q)
    out = np.empty((2, 2) + np.shape(p), dtype=complex)
    out[0, 0] = half_sum
    out[0, 1] = half_dif
    out[1, 0] = half_dif
    out[1, 1] = half_sum
    return out


def mat2_mul(a, b):
    """Product of 2x2 maps stacked over the trailing axes, which
    broadcast."""
    first = a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0]
    out = np.empty((2, 2) + first.shape, dtype=first.dtype)
    out[0, 0] = first
    out[0, 1] = a[0, 0] * b[0, 1] + a[0, 1] * b[1, 1]
    out[1, 0] = a[1, 0] * b[0, 0] + a[1, 1] * b[1, 0]
    out[1, 1] = a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]
    return out


def mat2_inv(m, context=""):
    """Inverse of 2x2 maps stacked over the trailing axes (adjugate over
    determinant); raises SingularMatrix if any map is singular."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if np.any(det == 0.0) or not np.all(np.isfinite(det)):
        raise SingularMatrix(f"singular matrix {context}")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def _layer_indices(structure: StructureSpec, omega):
    """Complex n of layers 0..N+1 on omega, once per distinct material."""
    return structure.per_material(
        lambda mat: refractive_index(mat, omega) + 0j)


def layer_transfers(structure: StructureSpec, omega, convention="field"):
    """Cumulative 2x2 transfers from medium-0 amplitudes at z_1 into every
    layer, vectorized over omega.

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
    n = _layer_indices(structure, omega)
    # one crossing and phase per (material pair, length); n holds one
    # array per material, so the ids of its entries name the materials,
    # and a geometry-grid length is named by its array object
    steps = {}
    for l in range(1, n_tot):
        length = lengths[l]
        key = (id(n[l - 1]), id(n[l]),
               id(length) if isinstance(length, np.ndarray) else length)
        if key not in steps:
            axes = (1,) * (len(grid) - np.ndim(length)) + np.shape(length)
            phase = np.exp(1j * omega / CONSTANTS.c * n[l]
                           * np.reshape(length, axes + (1,)))
            steps[key] = (_crossing(n[l - 1], n[l], convention),
                          np.array([phase, 1.0 / phase])[:, None])
        crossing, propagate = steps[key]
        at_left[l] = mat2_mul(crossing, at_right[l - 1])
        at_right[l] = propagate * at_left[l]
    return at_left, at_right


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


def scalar_layer_amplitudes(
    structure: StructureSpec, omega, convention="field", side="F", a_in=None
):
    """Solve the scattering problem and return per-layer amplitudes.

    Returns an array of shape (N+2, 2, *G, len(omega)); axis 1 is (F, B),
    amplitudes referenced at each layer's left boundary, G the geometry
    grid of the layer lengths (see ``layer_transfers``).  side='F' drives
    from the left with amplitude a_in (default 1), side='B' from the
    right; the opposite incoming amplitude is zero.
    """
    if side not in ("F", "B"):
        raise ConfigError(f"side must be 'F' or 'B', got {side!r}")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if a_in is None:
        a_in = np.ones_like(omega, dtype=complex)
    a_in = np.broadcast_to(np.asarray(a_in, dtype=complex), omega.shape)
    at_left = layer_transfers(structure, omega, convention)[0]
    feed = feed_in_map(input_output_map(at_left[-1]))
    amps = np.einsum("lij...w,j...w->li...w", at_left,
                     feed[:, ("F", "B").index(side)] * a_in)
    # the undriven side is exactly dark; remove marching roundoff
    if side == "F":
        amps[-1, 1] = 0.0
    else:
        amps[0, 0] = 0.0
    return amps


def linear_transmission(structure: StructureSpec, omega, side="F"):
    """Complex t, r and intensity coefficients T, R at given frequencies.

    t and r are field-amplitude ratios read from F; T includes the
    n_out/n_in flux factor so that T + R = 1 for lossless stacks.  Each
    is an array over (*G, len(omega)) for layer lengths over a geometry
    grid G (see ``layer_transfers``), and a plain number for scalar
    lengths and one frequency.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    f = input_output_map(layer_transfers(structure, omega, "field")[0][-1])
    n_in = refractive_index(structure.material(0), omega)
    n_out = refractive_index(structure.material(structure.n_layers + 1), omega)
    if side == "F":
        t, r = f[0, 0], f[1, 0]
        big_t = np.abs(t) ** 2 * n_out / n_in
    elif side == "B":
        t, r = f[1, 1], f[0, 1]
        big_t = np.abs(t) ** 2 * n_in / n_out
    else:
        raise ConfigError(f"side must be 'F' or 'B', got {side!r}")
    big_r = np.abs(r) ** 2
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


def propagate_pump(structure: StructureSpec, pump: PumpSpec, omega) -> PumpField:
    """Classical pump amplitudes in every layer at the given frequencies.

    Frequencies outside the pump's cutoff window are skipped entirely
    (amplitude zero, no material evaluation), so the grid may extend
    beyond material validity windows as long as the pump is dark there.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    mask = pump.active_mask(omega)
    amps = np.zeros((structure.n_layers + 2, 2) + structure.grid
                    + (omega.size,), dtype=complex)
    if np.any(mask):
        sub = omega[mask]
        a_in = pump.amplitude(sub)
        solved = scalar_layer_amplitudes(
            structure, sub, convention="field", side=pump.side, a_in=a_in
        )
        amps[..., mask] = solved
    return PumpField(
        omega=omega, amps=amps, polarization=pump.polarization, mask=mask
    )
