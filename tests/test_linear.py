import numpy as np
import pytest

from spdc1d.constants import CONSTANTS
from spdc1d.linear import (
    PumpSpec,
    linear_transmission,
    propagate_pump,
    scalar_layer_amplitudes,
)
from spdc1d.materials import constant_material
from spdc1d.structure import StructureSpec

from reference import boundaries, continuity_residual, z_reference

C = CONSTANTS.c


def _stack(layers, n_in=1.0, n_out=None):
    amb_in = constant_material("in", n_in)
    amb_out = amb_in if n_out is None else constant_material("out", n_out)
    return StructureSpec(tuple(layers), amb_in, amb_out)


def test_index_matched_stack_is_phase_only():
    m = constant_material("m", 2.0)
    st = _stack([(m, 100e-9, 1), (m, 250e-9, 1)], n_in=2.0)
    omega = np.array([2 * np.pi * C / 500e-9])
    pump = PumpSpec(omega0=omega[0], sigma=1e13, energy_per_area=1.0)
    field = propagate_pump(st, pump, omega)
    a_in = pump.amplitude(omega)[0]
    z = boundaries(st)
    for l in range(st.n_layers + 2):
        phase = np.exp(1j * omega[0] / C * 2.0 * (z_reference(st, l) - z[0]))
        assert field.amps[l, 0, 0] == pytest.approx(a_in * phase, rel=1e-12)
        assert abs(field.amps[l, 1, 0]) < 1e-12 * abs(a_in)
    t, r, big_t, big_r = linear_transmission(st, omega[0])
    assert abs(t) == pytest.approx(1.0, rel=1e-12)  # phase-only
    assert big_t == pytest.approx(1.0, abs=1e-12)
    assert abs(r) < 1e-14 and big_r < 1e-14


def test_single_boundary_fresnel():
    # thin far-detuned layer approximates a bare interface poorly; instead
    # test the analytic formulas through a two-media "stack" built from a
    # zero-thickness-like layer: use one layer of the output material.
    n1, n2 = 1.0, 2.0
    m2 = constant_material("m2", n2)
    st = _stack([(m2, 300e-9, 1)], n_in=n1, n_out=n2)
    omega = 2 * np.pi * C / 600e-9
    t, r, big_t, big_r = linear_transmission(st, omega)
    r_fresnel = (n1 - n2) / (n1 + n2)
    t_fresnel = 2 * n1 / (n1 + n2)
    k2 = omega / C * n2
    assert r == pytest.approx(r_fresnel, rel=1e-12)
    assert t == pytest.approx(t_fresnel * np.exp(1j * k2 * 300e-9), rel=1e-12)
    assert big_r == pytest.approx(r_fresnel**2, rel=1e-12)
    assert big_r == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert big_t + big_r == pytest.approx(1.0, abs=1e-12)


def test_quarter_wave_double_layer_against_interface_recursion():
    lam0 = 600e-9
    omega = 2 * np.pi * C / lam0
    n1, n2 = 2.0, 1.5
    len1, len2 = lam0 / (4 * n1), lam0 / (4 * n2)
    st = _stack([(constant_material("a", n1), len1, 1),
                 (constant_material("b", n2), len2, 1)])
    t, r, big_t, big_r = linear_transmission(st, omega)

    # independent evaluation: Airy recursion over interfaces
    def rho(na, nb):
        return (na - nb) / (na + nb)

    def tau(na, nb):
        return 2 * na / (na + nb)

    # combine rightmost interface upward
    def combine(r12, t12, t21, r21, phase, r_next):
        num = r12 + (t12 * t21 * r_next * phase**2) / (1 - r21 * r_next * phase**2)
        return num

    ns = [1.0, n1, n2, 1.0]
    lens = [len1, len2]
    r_eff = rho(ns[2], ns[3])
    for i in (1, 0):
        phase = np.exp(1j * omega / C * ns[i + 1] * lens[i])
        r_eff = combine(
            rho(ns[i], ns[i + 1]), tau(ns[i], ns[i + 1]),
            tau(ns[i + 1], ns[i]), rho(ns[i + 1], ns[i]), phase, r_eff
        )
    assert r == pytest.approx(r_eff, rel=1e-12, abs=1e-12)
    assert big_t + big_r == pytest.approx(1.0, abs=1e-12)


def test_twenty_layer_continuity_residual(stack20, pump400):
    omega = pump400.omega0 * np.linspace(0.9, 1.1, 7)
    pump = PumpSpec(omega0=pump400.omega0, sigma=pump400.sigma * 20,
                    energy_per_area=1e3)
    field = propagate_pump(stack20, pump, omega)
    res = continuity_residual(stack20, field.amps, omega, "field")
    assert res < 1e-10


def test_energy_conservation_and_reciprocity_random_stacks():
    rng = np.random.RandomState(7)
    for _ in range(25):
        n_layers = rng.randint(1, 8)
        layers = [
            (constant_material(f"m{i}", 1.0 + 2.5 * rng.rand()),
             (20 + 180 * rng.rand()) * 1e-9, 1)
            for i in range(n_layers)
        ]
        st = _stack(layers)
        omega = 2 * np.pi * C / ((350 + 600 * rng.rand()) * 1e-9)
        _, _, tf, rf = linear_transmission(st, omega, side="F")
        _, _, tb, rb = linear_transmission(st, omega, side="B")
        assert tf + rf == pytest.approx(1.0, abs=1e-10)
        assert tb + rb == pytest.approx(1.0, abs=1e-10)
        assert tf == pytest.approx(tb, abs=1e-10)  # reciprocity


def test_layer_splitting_leaves_t_r_unchanged(stack4):
    omega = 2 * np.pi * C / 650e-9
    t0, r0, _, _ = linear_transmission(stack4, omega)
    t1, r1, _, _ = linear_transmission(stack4.split_layer(2, 0.3), omega)
    assert t1 == pytest.approx(t0, rel=1e-12)
    assert r1 == pytest.approx(r0, rel=1e-12, abs=1e-14)


def test_pump_spectrum_normalization_identity():
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    omega = np.linspace(pump.omega0 - 10 * pump.sigma,
                        pump.omega0 + 10 * pump.sigma, 20001)
    integral = np.trapezoid(np.abs(pump.amplitude(omega)) ** 2, omega)
    expected = np.sqrt(CONSTANTS.mu0 / CONSTANTS.eps0) * 1e3 / np.pi
    assert integral == pytest.approx(expected, rel=1e-6)


def test_pump_fwhm_convention_gives_33fs_duration():
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    # transform-limited intensity duration: 2 sqrt(ln2) / sigma
    duration = 2 * np.sqrt(np.log(2.0)) / pump.sigma
    assert duration == pytest.approx(33.6e-15, rel=0.01)


def test_undriven_side_amplitudes_zero(stack4, pump400):
    omega = np.array([pump400.omega0])
    field = propagate_pump(stack4, pump400, omega)
    assert field.amps[-1, 1, 0] == 0.0  # no backward input on the right
    pump_b = PumpSpec(omega0=pump400.omega0, sigma=pump400.sigma,
                      energy_per_area=1e3, side="B")
    field_b = propagate_pump(stack4, pump_b, omega)
    assert field_b.amps[0, 0, 0] == 0.0


def test_flux_convention_unitary_scattering():
    rng = np.random.RandomState(3)
    layers = [
        (constant_material(f"m{i}", 1.0 + 2.0 * rng.rand()),
         (30 + 100 * rng.rand()) * 1e-9, 1)
        for i in range(5)
    ]
    st = _stack(layers, n_in=1.0, n_out=3.0)
    omega = np.array([2 * np.pi * C / 500e-9])
    amps_f = scalar_layer_amplitudes(st, omega, "flux", side="F")
    amps_b = scalar_layer_amplitudes(st, omega, "flux", side="B")
    t_f, r_f = amps_f[-1, 0, 0], amps_f[0, 1, 0]
    t_b, r_b = amps_b[0, 1, 0], amps_b[-1, 0, 0]
    s = np.array([[r_f, t_b], [t_f, r_b]])
    assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-12
