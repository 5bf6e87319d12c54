import numpy as np
import pytest

from spdc1d.constants import CONSTANTS
from spdc1d.errors import ConfigError
from spdc1d.linear import PumpSpec, propagate_pump
from spdc1d.materials import constant_material
from spdc1d.spectral import (
    DIRS,
    FIELDS,
    POLS,
    LayerCoupling,
    SpectralBasis,
    photon_amplitude_tau,
    project_to_basis,
)
from spdc1d.structure import StructureSpec

from reference import (
    eval_basis,
    phase_functions,
    polarized_kernels,
    z_reference,
)

C = CONSTANTS.c


def test_basis_orthonormal_and_covering():
    b = SpectralBasis(1e15, 3e15, 16)
    omega = np.linspace(1e15, 3e15, 200001)
    d = omega[1] - omega[0]
    for k in (0, 7, 15):
        fk = eval_basis(b, k, omega)
        for n in (0, 7, 15):
            fn = eval_basis(b, n, omega)
            overlap = np.sum(fk * fn) * d
            assert overlap == pytest.approx(1.0 if k == n else 0.0, abs=2e-4)
    assert b.edges[0] == 1e15 and b.edges[-1] == 3e15
    assert np.all(np.diff(b.edges) > 0)
    assert np.sum(b.widths) == pytest.approx(2e15, rel=1e-15)


def test_tau_scalings_and_value():
    m1 = constant_material("m1", 1.0)
    m4 = constant_material("m4", 4.0)
    omega = 2 * np.pi * C / 800e-9
    t1 = photon_amplitude_tau(m1, omega, 1.0)
    t4 = photon_amplitude_tau(m4, omega, 1.0)
    assert (t4 / t1) ** 2 == pytest.approx(0.25, rel=1e-12)
    m2 = constant_material("m2", 2.0)
    assert photon_amplitude_tau(m2, 2 * omega, 1.0) / photon_amplitude_tau(
        m2, omega, 1.0
    ) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    expected = np.sqrt(
        CONSTANTS.hbar * omega
        / (4 * np.pi * CONSTANTS.eps0 * C * 2.0 * 1.0)
    )
    assert photon_amplitude_tau(m2, omega, 1.0) == pytest.approx(
        expected, rel=1e-14
    )


def _toy(chi=4e-12, n=2.0, length=1e-6, bins=5, window=(0.3, 0.7),
         chi2=None):
    if chi2 is None:
        chi2 = {("y", "x", "y"): chi} if chi else {}
    mat = constant_material("nl", n, chi2=chi2)
    amb = constant_material("amb", n)
    st = StructureSpec(((mat, length, 1),), amb, amb)
    omega_p0 = 2 * np.pi * C / 400e-9
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    basis = SpectralBasis(window[0] * omega_p0, window[1] * omega_p0, bins)
    sums = np.unique((basis.centers[:, None] + basis.centers[None, :]).ravel())
    field = propagate_pump(st, pump, sums)
    return st, pump, basis, field


def test_coupling_zero_cases_and_linearity():
    st, pump, basis, field = _toy(chi=0.0)
    t = LayerCoupling(st, 1, basis, field).tstar("F", "x", "y")
    assert np.all(t == 0.0)

    st, pump, basis, field = _toy()
    coup = LayerCoupling(st, 1, basis, field)
    t1 = coup.tstar("F", "x", "y")[2, 2]
    assert t1 != 0.0
    # absent pol triple
    assert coup.tstar("F", "y", "y")[2, 2] == 0.0
    # backward pump amplitude vanishes in an index-matched stack
    assert coup.tstar("B", "x", "y")[2, 2] == 0.0
    # doubling the pump amplitude doubles |T| (energy x4)
    pump4 = PumpSpec(omega0=pump.omega0, sigma=pump.sigma,
                     energy_per_area=4e3)
    field4 = propagate_pump(st, pump4, field.omega)
    t4 = LayerCoupling(st, 1, basis, field4).tstar("F", "x", "y")[2, 2]
    assert abs(t4) == pytest.approx(2 * abs(t1), rel=1e-12)


def test_phase_function_vanishes_at_reference_point():
    st, pump, basis, field = _toy()
    coup = LayerCoupling(st, 1, basis, field)
    z0 = z_reference(st, 1)
    for a, z in (("F", z0), ("B", z0 + st.length(1))):
        phi, _ = phase_functions(coup, a, "F", "x", "y", z)
        assert np.max(np.abs(phi)) == 0.0


def test_phase_function_degenerate_mismatch_limit():
    # constant index, omega_p = omega_s + omega_i -> dk = 0 exactly
    st, pump, basis, field = _toy(n=2.0)
    coup = LayerCoupling(st, 1, basis, field)
    z = z_reference(st, 1) + 0.37 * st.length(1)
    phi, _ = phase_functions(coup, "F", "F", "x", "y", z)
    tst = coup.tstar("F", "x", "y")
    t_g = np.conj(tst)
    expected = -1j * t_g * (z - z_reference(st, 1))
    nz = np.abs(expected) > 0
    assert np.allclose(phi[nz], expected[nz], rtol=1e-9)


def test_phase_function_matches_green_function_quadrature(gan, aln, air,
                                                          pump400):
    st = StructureSpec(((gan, 80e-9, 1),), air, air)
    omega_p0 = pump400.omega0
    basis = SpectralBasis(0.4 * omega_p0, 0.6 * omega_p0, 4)
    sums = np.unique((basis.centers[:, None] + basis.centers[None, :]).ravel())
    field = propagate_pump(st, pump400, sums)
    coup = LayerCoupling(st, 1, basis, field)
    z_l = z_reference(st, 1)
    length = st.length(1)
    for a, z_a in (("F", z_l), ("B", z_l + length)):
        z = z_l + 0.61 * length
        phi, dphi = phase_functions(coup, a, "B", "x", "y", z)
        # quadrature of the defining convolution:
        # Phi*(z) e^{i k_sa (z - z_a)} = int_{z_a}^{z} e^{i k_sa (z - z')}
        #   [+-1]_a sum_g T*_g e^{i (k_pg - k_ib)(z' - z_l)} dz'
        sgn = 1.0 if a == "F" else -1.0
        zp = np.linspace(z_a, z, 20001)
        k_s = coup.k_signed(a)
        k_i = coup.k_signed("B")
        acc = np.zeros_like(phi)
        for g in ("F", "B"):
            tst = coup.tstar(g, "x", "y")
            if not np.any(tst):
                continue
            kp = coup.pump_k(g)
            integ = np.exp(
                1j * k_s[:, None, None] * (z - zp[None, None, :])
            ) * np.exp(
                1j * (kp[:, :, None] - k_i[None, :, None]) * (zp - z_l)
            )
            acc += sgn * tst * np.trapezoid(integ, zp, axis=2)
        phi_star_scaled = np.conj(phi) * np.exp(1j * k_s[:, None] * (z - z_a))
        nz = np.abs(acc) > 1e-6 * np.abs(acc).max()
        rel = np.abs(phi_star_scaled - acc)[nz] / np.abs(acc)[nz]
        assert rel.max() < 1e-8


def test_phase_function_derivative_matches_finite_difference():
    st, pump, basis, field = _toy(n=2.3, length=500e-9)
    coup = LayerCoupling(st, 1, basis, field)
    z = z_reference(st, 1) + 0.4 * st.length(1)
    h = 1e-12
    for a in ("F", "B"):
        phi_p, _ = phase_functions(coup, a, "F", "x", "y", z + h)
        phi_m, _ = phase_functions(coup, a, "F", "x", "y", z - h)
        _, dphi = phase_functions(coup, a, "F", "x", "y", z)
        fd = (phi_p - phi_m) / (2 * h)
        nz = np.abs(dphi) > 1e-9 * np.abs(dphi).max()
        assert np.max(np.abs(fd - dphi)[nz] / np.abs(dphi)[nz]) < 1e-6


def test_phase_function_derivative_finite_at_reference_point():
    st, pump, basis, field = _toy(n=2.3, length=500e-9)
    coup = LayerCoupling(st, 1, basis, field)
    h = 1e-12
    for a, z_a, sgn in (("F", z_reference(st, 1), 1.0),
                        ("B", z_reference(st, 1) + st.length(1), -1.0)):
        _, dphi = phase_functions(coup, a, "F", "x", "y", z_a)
        assert np.all(np.isfinite(dphi))
        assert np.max(np.abs(dphi)) > 0.0
        # one-sided second-order difference into the layer
        phi0, _ = phase_functions(coup, a, "F", "x", "y", z_a)
        phi1, _ = phase_functions(coup, a, "F", "x", "y", z_a + sgn * h)
        phi2, _ = phase_functions(coup, a, "F", "x", "y", z_a + sgn * 2 * h)
        fd = sgn * (4.0 * phi1 - phi2 - 3.0 * phi0) / (2 * h)
        nz = np.abs(dphi) > 1e-9 * np.abs(dphi).max()
        assert np.max(np.abs(fd - dphi)[nz] / np.abs(dphi)[nz]) < 1e-6


def test_project_to_basis_zero_for_linear_layer(aln, air, pump400):
    st = StructureSpec(((aln, 100e-9, 1),), air, air)
    basis = SpectralBasis(0.4 * pump400.omega0, 0.6 * pump400.omega0, 3)
    sums = np.unique((basis.centers[:, None] + basis.centers[None, :]).ravel())
    field = propagate_pump(st, pump400, sums)
    coup = LayerCoupling(st, 1, basis, field)
    (kernel, _, _), d = project_to_basis(coup, "right")
    assert kernel.shape == (2, 2, 3, 3) and d.shape == (2, 2, 2)
    assert np.all(d == 0.0)
    vol_e, vol_h, sur_h = polarized_kernels(project_to_basis(coup, "right"))
    assert vol_e.shape == (2, 2, 2, 2, 3, 3)
    assert np.all(vol_e == 0.0)
    assert np.all(vol_h + sur_h == 0.0)


def test_project_single_bin_identity():
    # two distinct couplings, so the idler rows must use d transposed;
    # (x, x) and (y, y) stay zero blocks
    chi2 = {("y", "x", "y"): 4e-12, ("y", "y", "x"): 1.5e-12}
    st, pump, basis, field = _toy(bins=1, window=(0.45, 0.55), chi2=chi2)
    coup = LayerCoupling(st, 1, basis, field)
    length = st.length(1)
    z_l = z_reference(st, 1)
    # forward rows exit at the right edge, backward rows at the left one;
    # chi is conj(Phi) at the exit with the kernel's reference phase
    for edge, a, z in (("right", "F", z_l + length), ("left", "B", z_l)):
        vol_e, _, _ = polarized_kernels(project_to_basis(coup, edge))
        assert vol_e.shape == (len(FIELDS), 2, 2, 2, 1, 1)
        nonzero = 0
        k_row = coup.k_signed(a)[0]
        for fi, row in enumerate(FIELDS):
            for bi, b in enumerate(DIRS):
                k_col = coup.k_signed(b)[0]
                phase = (k_row + k_col) * length if a == "F" else -k_row * length
                for pi, alpha in enumerate(POLS):
                    for qi, beta in enumerate(POLS):
                        phi, _ = phase_functions(coup, a, b, alpha, beta, z,
                                                 row_field=row)
                        chi = np.conj(phi[0, 0]) * np.exp(1j * phase)
                        lam = vol_e[fi, pi, bi, qi, 0, 0]
                        assert lam == pytest.approx(
                            chi * basis.widths[0], rel=1e-12
                        ), (edge, row, b, alpha, beta)
                        nonzero += lam != 0.0
        assert nonzero == 8  # (x, y) and (y, x) per row field and col dir


def test_projection_linear_in_pump_amplitude():
    st, pump, basis, field = _toy()
    coup1 = LayerCoupling(st, 1, basis, field)
    pump4 = PumpSpec(omega0=pump.omega0, sigma=pump.sigma, energy_per_area=4e3)
    field4 = propagate_pump(st, pump4, field.omega)
    coup2 = LayerCoupling(st, 1, basis, field4)
    ve1, vh1, sh1 = polarized_kernels(project_to_basis(coup1, "left"))
    ve2, vh2, sh2 = polarized_kernels(project_to_basis(coup2, "left"))
    assert np.allclose(ve2, 2.0 * ve1, rtol=1e-12)
    assert np.allclose(vh2 + sh2, 2.0 * (vh1 + sh1), rtol=1e-12)


def test_projection_refinement_error_model(gan, air, pump400):
    # midpoint-rule projection error vs a fine in-bin average is O(dw^2)
    st = StructureSpec(((gan, 70e-9, 1),), air, air)

    def lam_error(bins):
        basis = SpectralBasis(0.40 * pump400.omega0, 0.60 * pump400.omega0,
                              bins)
        sub = SpectralBasis(0.40 * pump400.omega0, 0.60 * pump400.omega0,
                            bins * 16)
        sums = np.unique(
            (sub.centers[:, None] + sub.centers[None, :]).ravel()
        )
        field = propagate_pump(st, pump400, sums)
        coarse = LayerCoupling(st, 1, basis,
                               propagate_pump(st, pump400, np.unique(
                                   basis.centers[:, None]
                                   + basis.centers[None, :]).ravel()))
        fine = LayerCoupling(st, 1, sub, field)
        block = (0, 0, 0, 1)  # signal rows, col dir F, pols (x, y)
        lam_c = (polarized_kernels(project_to_basis(coarse, "right"))[0][block]
                 / basis.widths[0])
        lam_f = (polarized_kernels(project_to_basis(fine, "right"))[0][block]
                 / sub.widths[0])
        # average the fine kernel over each coarse bin
        m = 16
        avg = lam_f.reshape(bins, m, bins, m).mean(axis=(1, 3))
        scale = np.abs(avg).max()
        return np.max(np.abs(lam_c - avg)) / scale

    e8 = lam_error(8)
    e16 = lam_error(16)
    assert e16 < e8  # refinement reduces the quadrature error
    assert e8 / e16 > 2.0  # consistent with second-order convergence


def test_basis_arrays_computed_once_and_read_only():
    b = SpectralBasis(1e15, 3e15, 8)
    for name in ("edges", "centers", "widths"):
        arr = getattr(b, name)
        assert getattr(b, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    assert b.edges[0] == 1e15 and b.widths[0] == pytest.approx(0.25e15)


def test_basis_validation():
    with pytest.raises(ConfigError):
        SpectralBasis(2e15, 1e15, 4)
    with pytest.raises(ConfigError):
        SpectralBasis(1e15, 2e15, 0)
