import numpy as np
import pytest

from spdc1d.constants import CONSTANTS
from spdc1d.errors import ConfigError, OutOfWindow
from spdc1d.linear import PumpSpec, field_maps, pump_field
from spdc1d.materials import constant_material, wavenumber
from spdc1d.runner import FIELDS
from spdc1d.spectral import (
    _BRACKET_SWITCH,
    DIRS,
    POLS,
    SpectralBasis,
    bin_solve,
    class_kernels,
    coupling_unit,
    pump_wavenumbers,
)
from spdc1d.structure import StructureSpec

from reference import (
    LayerView,
    attributed_kernels,
    einsum_class_kernels,
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
    """coupling_unit is -i (4 pi eps0 / hbar) tau_s tau_i with the photon
    amplitude tau = sqrt(hbar w / (4 pi eps0 c n A)) at A = 1 m^2; its
    diagonal reads tau^2."""
    omega = 2 * np.pi * C / 800e-9
    basis = SpectralBasis(0.5 * omega, 2.5 * omega, 2)  # centers w, 2 w
    assert np.allclose(basis.centers, [omega, 2 * omega], rtol=1e-15)

    def unit(n):
        return coupling_unit(constant_material(f"m{n}", n), basis)

    def tau_sq(n):
        return (1j * np.diag(unit(n)) * CONSTANTS.hbar
                / (4 * np.pi * CONSTANTS.eps0)).real

    assert tau_sq(4.0) / tau_sq(1.0) == pytest.approx([0.25] * 2, rel=1e-12)
    t2 = tau_sq(2.0)
    assert t2[1] / t2[0] == pytest.approx(2.0, rel=1e-12)
    expected = CONSTANTS.hbar * omega / (4 * np.pi * CONSTANTS.eps0 * C * 2.0)
    assert t2[0] == pytest.approx(expected, rel=1e-14)
    u = unit(2.0)
    assert u[0, 1] == u[1, 0]
    assert u[0, 1] ** 2 == pytest.approx(u[0, 0] * u[1, 1], rel=1e-14)


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
    _, field, _ = bin_solve(st, pump, basis)
    return st, pump, basis, field


def test_coupling_zero_cases_and_linearity():
    st, pump, basis, field = _toy(chi=0.0)
    t = LayerView(st, 1, basis, field).tstar("F", "x", "y")
    assert np.all(t == 0.0)

    st, pump, basis, field = _toy()
    coup = LayerView(st, 1, basis, field)
    t1 = coup.tstar("F", "x", "y")[2, 2]
    assert t1 != 0.0
    # absent pol triple
    assert coup.tstar("F", "y", "y")[2, 2] == 0.0
    # backward pump amplitude vanishes in an index-matched stack
    assert coup.tstar("B", "x", "y")[2, 2] == 0.0
    # doubling the pump amplitude doubles |T| (energy x4)
    pump4 = PumpSpec(omega0=pump.omega0, sigma=pump.sigma,
                     energy_per_area=4e3)
    _, field4, _ = bin_solve(st, pump4, basis)
    t4 = LayerView(st, 1, basis, field4).tstar("F", "x", "y")[2, 2]
    assert abs(t4) == pytest.approx(2 * abs(t1), rel=1e-12)


def test_bin_solve_index_reads_exact_bin_sums():
    """The pump is held once per distinct bin sum, and the one march over
    the bin centers and the lit sums gives the maps and the pump of
    separate solves on each grid, bit for bit."""
    st, pump, basis, _ = _toy()
    maps, got, index = bin_solve(st, pump, basis)
    assert index.shape == (basis.bins, basis.bins)
    sums = np.unique(basis.centers[:, None] + basis.centers[None, :])
    assert np.array_equal(got.omega, sums)
    assert np.array_equal(got.omega[index],
                          basis.centers[:, None] + basis.centers[None, :])
    lit = pump.active_mask(sums)
    assert 0 < np.count_nonzero(lit) < sums.size
    want = pump_field(pump, sums, field_maps(st, sums[lit]))
    assert np.array_equal(got.mask, lit)
    assert got.amps.tobytes() == want.amps.tobytes()
    centers = field_maps(st, basis.centers)
    for name, a in vars(maps).items():
        assert a.tobytes() == getattr(centers, name).tobytes(), name


def test_pump_wavenumbers_only_where_the_pump_is_lit():
    """The pump wave numbers are evaluated on the lit pump frequencies
    only, so a material valid there but not on every bin sum is fine,
    and the dark sums read zero."""
    st, pump, basis, field = _toy(bins=12, window=(0.05, 0.95))
    lit = field.mask
    assert lit.any() and not lit.all()
    narrow = constant_material("narrow", 2.0, window=(
        field.omega[lit].min(), field.omega[lit].max()))
    with pytest.raises(OutOfWindow):
        narrow.check_window(field.omega)
    k_p = pump_wavenumbers(narrow, field)
    assert k_p.shape == (2, field.omega.size)
    k = field.omega[lit] / C * 2.0
    assert np.array_equal(k_p[:, lit], [k, -k])
    assert np.all(k_p[:, ~lit] == 0.0)


def test_phase_function_vanishes_at_reference_point():
    st, pump, basis, field = _toy()
    coup = LayerView(st, 1, basis, field)
    z0 = z_reference(st, 1)
    for a, z in (("F", z0), ("B", z0 + st.length(1))):
        phi, _ = phase_functions(coup, a, "F", "x", "y", z)
        assert np.max(np.abs(phi)) == 0.0


def test_phase_function_degenerate_mismatch_limit():
    # constant index, omega_p = omega_s + omega_i -> dk = 0 exactly
    st, pump, basis, field = _toy(n=2.0)
    coup = LayerView(st, 1, basis, field)
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
    _, field, _ = bin_solve(st, pump400, basis)
    coup = LayerView(st, 1, basis, field)
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
    coup = LayerView(st, 1, basis, field)
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
    coup = LayerView(st, 1, basis, field)
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
    _, field, _ = bin_solve(st, pump400, basis)
    coup = LayerView(st, 1, basis, field)
    (kernel, _, _), d = coup.project("right")
    assert kernel.shape == (2, 2, 3, 3) and d.shape == (2, 2, 2)
    assert np.all(d == 0.0)
    vol_e, vol_h, sur_h = polarized_kernels(coup.project("right"))
    assert vol_e.shape == (2, 2, 2, 2, 3, 3)
    assert np.all(vol_e == 0.0)
    assert np.all(vol_h + sur_h == 0.0)


def test_project_single_bin_identity():
    # two distinct couplings, so the idler rows must use d transposed;
    # (x, x) and (y, y) stay zero blocks
    chi2 = {("y", "x", "y"): 4e-12, ("y", "y", "x"): 1.5e-12}
    st, pump, basis, field = _toy(bins=1, window=(0.45, 0.55), chi2=chi2)
    coup = LayerView(st, 1, basis, field)
    length = st.length(1)
    z_l = z_reference(st, 1)
    # forward rows exit at the right edge, backward rows at the left one;
    # chi is conj(Phi) at the exit with the kernel's reference phase
    for edge, a, z in (("right", "F", z_l + length), ("left", "B", z_l)):
        vol_e, _, _ = polarized_kernels(coup.project(edge))
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


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
@pytest.mark.parametrize("case", ["gan-k12", "gan-k64", "gan-grid",
                                  "slab-n2.4"])
def test_class_kernels_match_einsum_kernels(gan, air, pump400, case,
                                            convention):
    """chi and the surface kernel from separable phases on the pump's lit
    entries, and the magnetic volume row i k_a chi - surface that is no
    longer stored, against the kernels with one exponential per entry,
    within 1e-13 of each array's peak.  The n = 2.4 slab is phase matched in the forward rows (dk
    rounds to zero), so its series branch runs."""
    bins = {"gan-k12": 12, "gan-k64": 64}.get(case, 8)
    length = {"gan-grid": np.array([[10.0, 25.0], [40.0, 55.0],
                                    [70.0, 85.0]]) * 1e-9,
              "slab-n2.4": 400e-9}.get(case, 60e-9)
    mat = gan
    if case == "slab-n2.4":
        mat = constant_material("slab", 2.4, chi2={("y", "x", "y"): 4e-12})
    st = StructureSpec(((mat, length, 1),), air, air)
    basis = SpectralBasis(0.05 * pump400.omega0, 0.95 * pump400.omega0, bins)
    _, pump, index = bin_solve(st, pump400, basis)
    rows, cols = np.nonzero(pump.mask[index])
    lit = (rows, cols, index[rows, cols])
    assert 0 < rows.size < bins**2
    got = attributed_kernels(class_kernels(mat, length, basis, pump, lit),
                             convention)
    want = einsum_class_kernels(mat, length, basis, pump, lit, convention)
    for edge, (chi, surface, ik) in got.items():
        volume, surface_want = want[edge]
        hv = ik * chi - surface[:, None]
        for g, w in ((chi, volume[:, 0]), (hv, volume[:, 1]),
                     (surface, surface_want)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    if case == "slab-n2.4":
        k = wavenumber(mat, basis.centers, "F")
        dk = pump_wavenumbers(mat, pump)[0][index] - k[:, None] - k[None, :]
        assert np.any(np.abs(dk * length) < _BRACKET_SWITCH)


def test_pump_wavenumbers_exactly_symmetric_on_bin_sum_grid(gan, aln):
    """Idler rows reuse the signal rows' edge factors; that needs the pump
    wave numbers on the (signal bin, idler bin) grid to equal their
    transpose bitwise, for a dispersive material too."""
    amb = constant_material("amb", 1.0)
    st = StructureSpec(((gan, 60e-9, 1), (aln, 12e-9, 1)), amb, amb)
    omega_p0 = 2 * np.pi * C / 400e-9
    basis = SpectralBasis(0.05 * omega_p0, 0.95 * omega_p0, 64)
    _, field, _ = bin_solve(st, PumpSpec.from_wavelength(400e-9, 7e-9, 1e3),
                            basis)
    for l in (1, 2):
        coup = LayerView(st, l, basis, field)
        for g in DIRS:
            kp = coup.pump_k(g)
            assert np.any(kp)
            assert np.array_equal(kp, kp.T)


def test_projection_linear_in_pump_amplitude():
    st, pump, basis, field = _toy()
    coup1 = LayerView(st, 1, basis, field)
    pump4 = PumpSpec(omega0=pump.omega0, sigma=pump.sigma, energy_per_area=4e3)
    _, field4, _ = bin_solve(st, pump4, basis)
    coup2 = LayerView(st, 1, basis, field4)
    ve1, vh1, sh1 = polarized_kernels(coup1.project("left"))
    ve2, vh2, sh2 = polarized_kernels(coup2.project("left"))
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
        coarse = LayerView(st, 1, basis, bin_solve(st, pump400, basis)[1])
        fine = LayerView(st, 1, sub, bin_solve(st, pump400, sub)[1])
        block = (0, 0, 0, 1)  # signal rows, col dir F, pols (x, y)
        lam_c = (polarized_kernels(coarse.project("right"))[0][block]
                 / basis.widths[0])
        lam_f = (polarized_kernels(fine.project("right"))[0][block]
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
