import inspect
import os
import tracemalloc

import numpy as np
import pytest

from spdc1d.config import load_config
from spdc1d.constants import CONSTANTS
from spdc1d.errors import ConfigError, StepTooCoarse
from spdc1d.linear import PumpSpec
from spdc1d.materials import constant_material
from spdc1d.matrixcore import build_emission
from spdc1d import oracle
from spdc1d.oracle import compare_with_emission, reference_pair_amplitude
from spdc1d.spectral import SPLIT_CONVENTIONS, SpectralBasis, bin_solve
from spdc1d.structure import StructureSpec

from reference import (assert_assemblies_are_builds, count_field_maps,
                       full_chi2, marched_pair_amplitude,
                       stepwise_pair_amplitude)

C = CONSTANTS.c
OMEGA_P0 = 2 * np.pi * C / 400e-9
SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")


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
    from reference import LayerView

    _, field, _ = bin_solve(st, pump, basis)
    coup = LayerView(st, 1, basis, field)
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
    em = build_emission(st, pump400, basis).attributed(convention)
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


def test_oracle_memory_is_bounded_in_k():
    """One oracle run of the shipped config at 64 bins, at the step that
    ``verify`` takes (its thinnest layer / 20), peaks below 24 MiB of
    tracemalloc: a class-sum chunk holds at most TERMS terms, where 64
    sub-steps of 8 K^2 terms each took 92.5 MiB."""
    cfg = load_config(SHIPPED)
    st = cfg.structure
    step = min(st.length(l) for l in range(1, st.n_layers + 1)) / 20.0
    tracemalloc.start()
    try:
        ref = reference_pair_amplitude(st, cfg.pump, cfg.basis(bins=64),
                                       step=step)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ref["s"] and peak_bytes <= 24 * 2**20


def _assert_matches_stepwise(st, pump, basis, step):
    got = reference_pair_amplitude(st, pump, basis, step=step)
    want = stepwise_pair_amplitude(st, pump, basis, step=step)
    for field in ("s", "i"):
        assert len(got[field]) == 16
        assert list(got[field]) == list(want[field])
        for key, ref in want[field].items():
            peak = np.max(np.abs(ref))
            assert peak > 0.0
            assert np.max(np.abs(got[field][key] - ref)) <= 1e-12 * peak, \
                (field, key)


def test_closed_form_march_matches_stepwise_reference(gan, aln, air,
                                                      pump400):
    st = full_chi2(StructureSpec(
        ((gan, 40e-9, 1), (aln, 128e-9, 1), (gan, 200e-9, 1)), air, air))
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 4)
    _assert_matches_stepwise(st, pump400, basis, step=2e-9)


@pytest.mark.parametrize("side", ["F", "B"])
def test_closed_form_march_shares_class_sums_across_layers(gan, aln, air,
                                                           side):
    # layers 1/3/5 and 2/4 are one (material, length) class each, with
    # opposite poling and, through the pump, different weights per layer
    st = full_chi2(StructureSpec(
        ((gan, 50e-9, 1), (aln, 30e-9, 1), (gan, 50e-9, -1),
         (aln, 30e-9, -1), (gan, 50e-9, 1)), air, air))
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3, polarization="y",
                                    side=side)
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 5)
    _assert_matches_stepwise(st, pump, basis, step=30e-9 / 20)


def _full_chi2_cases(gan, aln, air, stack4):
    """name -> (structure, basis, step): the full-chi2 stacks above."""
    return {
        "stack4": (full_chi2(stack4),
                   SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 8),
                   50e-9 / 20),
        "three-layer": (full_chi2(StructureSpec(
            ((gan, 40e-9, 1), (aln, 128e-9, 1), (gan, 200e-9, 1)), air, air)),
            SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 4), 2e-9),
        "shared-classes": (full_chi2(StructureSpec(
            ((gan, 50e-9, 1), (aln, 30e-9, 1), (gan, 50e-9, -1),
             (aln, 30e-9, -1), (gan, 50e-9, 1)), air, air)),
            SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, 5), 30e-9 / 20),
    }


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("side", ["F", "B"])
@pytest.mark.parametrize("case", ["stack4", "three-layer", "shared-classes"])
def test_one_march_is_bitwise_the_per_field_per_step_marches(
        gan, aln, air, stack4, case, side, richardson):
    """The one z-march over (step, row field) holds the bits of one march
    per row field and Richardson step (``marched_pair_amplitude``),
    signed zeros included, in the same key order."""
    st, basis, step = _full_chi2_cases(gan, aln, air, stack4)[case]
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3, polarization="y",
                                    side=side)
    got = reference_pair_amplitude(st, pump, basis, step, richardson)
    want = marched_pair_amplitude(st, pump, basis, step, richardson)
    for field in ("s", "i"):
        assert len(want[field]) == 16
        assert list(got[field]) == list(want[field])
        for key, ref in want[field].items():
            assert np.array_equal(got[field][key].view(np.int64),
                                  ref.view(np.int64)), (field, key)


def test_oracle_is_independent_of_the_emission_path():
    source = inspect.getsource(oracle)
    for name in ("class_kernels", "_class_pass", "weighted_kernels",
                 "_bracket", "build_emission"):
        assert name not in source, name
        assert not hasattr(oracle, name), name


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
    Richardson steps and the outgoing-wave corrections; it and the pump
    come from the oracle's one linear march, over the bin centers and
    the lit bin sums."""
    sides = []
    orig = oracle.layer_amplitudes

    def counting(maps, side="F", a_in=1.0):
        sides.append(side)
        return orig(maps, side, a_in)

    monkeypatch.setattr(oracle, "layer_amplitudes", counting)
    solves = count_field_maps(monkeypatch)
    basis = SpectralBasis(0.45 * OMEGA_P0, 0.55 * OMEGA_P0, 2)
    ref = reference_pair_amplitude(stack4, pump400, basis, step=50e-9 / 16)
    assert ref["s"] and ref["i"]
    assert sorted(sides) == ["B", "F"]
    lit = pump400.active_mask(np.unique(basis.centers[:, None]
                                        + basis.centers[None, :]))
    assert solves == [basis.bins + np.count_nonzero(lit)]


def test_step_too_coarse_raises(stack4, pump400):
    basis = SpectralBasis(0.45 * OMEGA_P0, 0.55 * OMEGA_P0, 2)
    with pytest.raises(StepTooCoarse):
        reference_pair_amplitude(stack4, pump400, basis, step=10e-9)


@pytest.mark.parametrize("step", [0.0, -1e-9, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_step_raises(stack4, pump400, step):
    basis = SpectralBasis(0.45 * OMEGA_P0, 0.55 * OMEGA_P0, 2)
    with pytest.raises(ConfigError, match="finite and positive"):
        reference_pair_amplitude(stack4, pump400, basis, step=step)


@pytest.mark.parametrize("case", ["stack4", "three-layer", "shared-classes"])
def test_pair_blocks_add_several_parts_as_the_expansion(gan, aln, air,
                                                        stack4, pump400,
                                                        case):
    """On the full-chi2 stacks the GaN and AlN parts both emit into the
    (y, x) block, so an entry sums two d P terms: every block the accessor
    forms, under both attributions and for every boundary, holds the bits
    of the zero-filled expansion."""
    st, basis, _ = _full_chi2_cases(gan, aln, air, stack4)[case]
    d = [d for d, _ in build_emission(st, pump400, basis).parts]
    assert len(d) == 2 and all(m[1, 0] for m in d)
    assert_assemblies_are_builds(st, pump400, basis)
