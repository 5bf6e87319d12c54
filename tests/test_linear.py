import numpy as np
import pytest

from spdc1d.constants import CONSTANTS
from spdc1d.linear import (
    PumpSpec,
    field_maps,
    layer_amplitudes,
    linear_transmission,
    mat2_mul,
    pump_field,
)
from spdc1d.materials import constant_material
from spdc1d.structure import StructureSpec

from reference import boundaries, continuity_residual, z_reference

C = CONSTANTS.c


def _pump(structure, pump, omega):
    """The pump on omega, from a solve at its lit frequencies only."""
    return pump_field(pump, omega,
                      field_maps(structure, omega[pump.active_mask(omega)]))


def _stack(layers, n_in=1.0, n_out=None):
    amb_in = constant_material("in", n_in)
    amb_out = amb_in if n_out is None else constant_material("out", n_out)
    return StructureSpec(tuple(layers), amb_in, amb_out)


def test_index_matched_stack_is_phase_only():
    m = constant_material("m", 2.0)
    st = _stack([(m, 100e-9, 1), (m, 250e-9, 1)], n_in=2.0)
    omega = np.array([2 * np.pi * C / 500e-9])
    pump = PumpSpec(omega0=omega[0], sigma=1e13, energy_per_area=1.0)
    field = _pump(st, pump, omega)
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
    field = _pump(stack20, pump, omega)
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
    field = _pump(stack4, pump400, omega)
    assert field.amps[-1, 1, 0] == 0.0  # no backward input on the right
    pump_b = PumpSpec(omega0=pump400.omega0, sigma=pump400.sigma,
                      energy_per_area=1e3, side="B")
    field_b = _pump(stack4, pump_b, omega)
    assert field_b.amps[0, 0, 0] == 0.0
    # unequal ambients, driven from either side: the driven input is the
    # pump's field amplitude in its own medium, and E and H are continuous
    st = _stack(stack4.layers, n_in=1.0, n_out=1.5)
    omega = pump400.omega0 * np.linspace(0.95, 1.05, 5)
    for side, driven in (("F", (0, 0)), ("B", (-1, 1))):
        pump = PumpSpec(omega0=pump400.omega0, sigma=pump400.sigma,
                        energy_per_area=1e3, side=side)
        amps = _pump(st, pump, omega).amps
        np.testing.assert_allclose(amps[driven], pump.amplitude(omega),
                                   rtol=1e-14, atol=0.0)
        assert continuity_residual(st, amps, omega, "field") < 1e-10


def test_flux_convention_unitary_scattering():
    rng = np.random.RandomState(3)
    layers = [
        (constant_material(f"m{i}", 1.0 + 2.0 * rng.rand()),
         (30 + 100 * rng.rand()) * 1e-9, 1)
        for i in range(5)
    ]
    st = _stack(layers, n_in=1.0, n_out=3.0)
    omega = np.array([2 * np.pi * C / 500e-9])
    maps = field_maps(st, omega)
    amps_f = layer_amplitudes(maps, "F")
    amps_b = layer_amplitudes(maps, "B")
    t_f, r_f = amps_f[-1, 0, 0], amps_f[0, 1, 0]
    t_b, r_b = amps_b[0, 1, 0], amps_b[-1, 0, 0]
    s = np.array([[r_f, t_b], [t_f, r_b]])
    assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-12


@pytest.mark.parametrize("side", ["F", "B"])
def test_geometry_grid_transmission_equals_per_structure_loop(gan, aln, air,
                                                              side):
    """Layer lengths over a (l1, l2) grid run as one transfer march whose
    t, r, T and R are bitwise those of one march per structure."""
    l1 = np.linspace(40e-9, 80e-9, 4)
    l2 = np.linspace(8e-9, 20e-9, 3)
    omega = np.linspace(0.9, 1.1, 5) * 2 * np.pi * C / 400e-9

    def pairs(a, b):
        return StructureSpec(((gan, a, 1), (aln, b, 1)) * 3, air, air)

    batched = linear_transmission(pairs(l1[:, None], l2[None, :]), omega,
                                  side)
    for got in batched:
        assert got.shape == (l1.size, l2.size, omega.size)
    for i, a in enumerate(l1):
        for j, b in enumerate(l2):
            single = linear_transmission(pairs(a, b), omega, side)
            for got, ref in zip(batched, single):
                assert np.array_equal(got[i, j], ref)


def _mat2_mul_explicit(a, b):
    """The 2x2 product entry by entry: a[i, 0] b[0, k] + a[i, 1] b[1, k]."""
    first = a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0]
    out = np.empty((2, 2) + first.shape, dtype=first.dtype)
    out[0, 0] = first
    out[0, 1] = a[0, 0] * b[0, 1] + a[0, 1] * b[1, 1]
    out[1, 0] = a[1, 0] * b[0, 0] + a[1, 1] * b[1, 0]
    out[1, 1] = a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]
    return out


@pytest.mark.parametrize("shape_a,shape_b,real_a", [
    ((17,), (17,), False),
    ((22, 17), (22, 17), False),
    ((17,), (5, 1, 17), False),  # broadcast with fewer trailing axes
    ((5, 3, 17), (17,), False),
    ((3, 1, 17), (1, 4, 17), True),  # a real map times complex ones
])
def test_mat2_mul_is_bitwise_the_explicit_product(shape_a, shape_b, real_a):
    """The broadcast product equals the explicit 2x2 formula bit for bit,
    signed zeros included: half of the parts are +-0, so some products
    are -0."""
    rng = np.random.default_rng(7)

    def stack(shape, real=False):
        parts = rng.standard_normal((2, 2, 2) + shape)
        zero = rng.random(parts.shape) < 0.5
        parts[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
        return parts[0] if real else parts[0] + 1j * parts[1]

    a, b = stack(shape_a, real_a), stack(shape_b)
    got, want = mat2_mul(a, b), _mat2_mul_explicit(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    parts = np.concatenate((want.real.ravel(), want.imag.ravel()))
    assert np.any(np.signbit(parts[parts == 0.0]))
