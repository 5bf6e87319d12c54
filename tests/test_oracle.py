import numpy as np
import pytest

from spdc1d.constants import CONSTANTS
from spdc1d.errors import StepTooCoarse
from spdc1d.linear import PumpSpec
from spdc1d.materials import constant_material
from spdc1d.matrixcore import build_emission
from spdc1d import oracle
from spdc1d.oracle import compare_with_emission, reference_pair_amplitude
from spdc1d.spectral import SPLIT_CONVENTIONS, SpectralBasis
from spdc1d.structure import StructureSpec

from reference import full_chi2

C = CONSTANTS.c
OMEGA_P0 = 2 * np.pi * C / 400e-9


def test_zero_chi_gives_zero_amplitude(aln, air, pump400):
    st = StructureSpec(((aln, 80e-9, 1), (aln, 60e-9, 1)), air, air)
    basis = SpectralBasis(0.4 * OMEGA_P0, 0.6 * OMEGA_P0, 4)
    ref = reference_pair_amplitude(st, pump400, basis, step=2e-9)
    assert ref["s"] == {} and ref["i"] == {}
    em = build_emission(st, pump400, basis)
    assert compare_with_emission(ref, em) == 0.0


def test_index_matched_bulk_sinc_lineshape():
    n0 = 2.0
    mat = constant_material("bulk", n0, chi2={("y", "x", "y"): 4e-12})
    amb = constant_material("amb", n0)
    length = 1.5e-6
    st = StructureSpec(((mat, length, 1),), amb, amb)
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3)
    bins = 12
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, bins)
    ref = reference_pair_amplitude(st, pump, basis,
                                   step=length / 3000, richardson=True)
    got = ref["s"][("F", "x", "F", "y")]
    # analytic first-order bulk amplitude (flux normalization drops out
    # for index-matched media)
    from spdc1d.linear import propagate_pump
    from spdc1d.spectral import LayerCoupling

    sums = np.unique((basis.centers[:, None] + basis.centers[None, :]).ravel())
    field = propagate_pump(st, pump, sums)
    coup = LayerCoupling(st, 1, basis, field)
    tst = coup.tstar("F", "x", "y")
    ws, wi = basis.centers[:, None], basis.centers[None, :]
    dk = ((ws + wi) - ws - wi) * n0 / C  # exactly zero for constant index
    k_s = ws * n0 / C
    analytic = tst * np.exp(1j * k_s * length) * length * np.sinc(
        dk * length / 2 / np.pi
    )
    weight = np.sqrt(basis.widths[:, None] * basis.widths[None, :])
    analytic *= weight
    for k in range(bins):
        n = bins - 1 - k
        assert abs(got[k, n] - analytic[k, n]) / abs(analytic[k, n]) < 1e-6


def test_oracle_matches_pipeline_on_reflecting_stack(stack4, pump400):
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 8)
    em = build_emission(stack4, pump400, basis)
    ref = reference_pair_amplitude(stack4, pump400, basis, step=50e-9 / 20)
    assert compare_with_emission(ref, em) < 1e-4


@pytest.mark.parametrize("convention", SPLIT_CONVENTIONS)
def test_oracle_matches_pipeline_with_full_chi2_tensor(stack4, pump400,
                                                        convention):
    st = full_chi2(stack4)
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 8)
    em = build_emission(st, pump400, basis, convention=convention)
    ref = reference_pair_amplitude(st, pump400, basis, step=50e-9 / 20)
    # 4 pol pairs x 2 output dirs x 2 input dirs per row field
    assert len(ref["s"]) == len(ref["i"]) == 16
    assert compare_with_emission(ref, em) < 1e-4


def test_block_size_does_not_change_oracle(gan, aln, air, pump400,
                                           monkeypatch):
    # at step 2 nm and its Richardson half step the layers take 20/40,
    # 64/128 and 100/200 sub-steps: below, at and above BLOCK = 64, the
    # last not a multiple of it
    assert oracle.BLOCK == 64
    st = full_chi2(StructureSpec(
        ((gan, 40e-9, 1), (aln, 128e-9, 1), (gan, 200e-9, 1)), air, air))
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 4)
    blocked = reference_pair_amplitude(st, pump400, basis, step=2e-9)
    monkeypatch.setattr(oracle, "BLOCK", 1)
    stepwise = reference_pair_amplitude(st, pump400, basis, step=2e-9)
    for field in ("s", "i"):
        assert len(blocked[field]) == 16
        assert list(blocked[field]) == list(stepwise[field])
        for key, got in blocked[field].items():
            assert np.array_equal(got, stepwise[field][key]), (field, key)


def test_oracle_convergence_is_second_order(gan, aln, air, pump400):
    st = StructureSpec(((gan, 64e-9, 1), (aln, 48e-9, 1)), air, air)
    basis = SpectralBasis(0.40 * OMEGA_P0, 0.60 * OMEGA_P0, 4)
    em = build_emission(st, pump400, basis)

    def err(step):
        ref = reference_pair_amplitude(st, pump400, basis, step=step,
                                       richardson=False)
        return compare_with_emission(ref, em)

    e1 = err(3e-9)
    e2 = err(1.5e-9)
    assert e2 < e1
    assert 2.5 < e1 / e2 < 6.0  # ~4 for a second-order scheme


def test_partner_solutions_computed_once_per_input(stack4, pump400,
                                                   monkeypatch):
    """One linear solution per input side serves both row fields, both
    Richardson steps and the outgoing-wave corrections."""
    sides = []
    orig = oracle.scalar_layer_amplitudes

    def counting(structure, omega, convention="field", side="F", a_in=None):
        sides.append(side)
        return orig(structure, omega, convention, side, a_in)

    monkeypatch.setattr(oracle, "scalar_layer_amplitudes", counting)
    basis = SpectralBasis(0.45 * OMEGA_P0, 0.55 * OMEGA_P0, 2)
    ref = reference_pair_amplitude(stack4, pump400, basis, step=50e-9 / 16)
    assert ref["s"] and ref["i"]
    assert sorted(sides) == ["B", "F"]


def test_step_too_coarse_raises(stack4, pump400):
    basis = SpectralBasis(0.45 * OMEGA_P0, 0.55 * OMEGA_P0, 2)
    with pytest.raises(StepTooCoarse):
        reference_pair_amplitude(stack4, pump400, basis, step=10e-9)
