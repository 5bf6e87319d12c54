"""Randomized differential tests: the transfer-matrix emission maps
against the z-grid oracle on small random stacks.

Each example is a stack of 1-4 constant-index layers drawn from 1-3
(material, length) classes, so layers often repeat a class, with a full
random chi2 (every signal/idler polarization pair emits, d != d.T),
random poling, pump side and surface attribution.  All materials share
one name: both paths must key their classes on the material object.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc1d.constants import CONSTANTS
from spdc1d.linear import PumpSpec
from spdc1d.materials import constant_material
from spdc1d.matrixcore import build_emission
from spdc1d.oracle import compare_with_emission, reference_pair_amplitude
from spdc1d.spectral import SPLIT_CONVENTIONS, SpectralBasis
from spdc1d.structure import StructureSpec

OMEGA_P0 = 2 * np.pi * CONSTANTS.c / 400e-9
PAIRS = (("y", "x", "y"), ("y", "y", "x"), ("y", "x", "x"), ("y", "y", "y"))


@st.composite
def stacks(draw):
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        chi2 = {p: draw(st.sampled_from((-1.0, 1.0)))
                * draw(st.floats(0.5e-12, 5e-12)) for p in PAIRS}
        mat = constant_material("layer", draw(st.floats(1.3, 2.6)), chi2=chi2)
        classes.append((mat, draw(st.floats(30e-9, 400e-9))))
    picks = draw(st.lists(st.integers(0, len(classes) - 1),
                          min_size=1, max_size=4))
    layers = tuple(classes[i] + (draw(st.sampled_from((1, -1))),)
                   for i in picks)
    air = constant_material("air", 1.0)
    return StructureSpec(layers, air, air)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structure=stacks(), side=st.sampled_from("FB"),
       bins=st.integers(4, 6), convention=st.sampled_from(SPLIT_CONVENTIONS))
def test_emission_matches_oracle_on_random_stacks(structure, side, bins,
                                                  convention):
    pump = PumpSpec.from_wavelength(400e-9, 7e-9, 1e3, polarization="y",
                                    side=side)
    basis = SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, bins)
    emission = build_emission(structure, pump, basis, convention=convention)
    for f in emission.scatter.values():
        dev = np.abs(np.einsum("ijk,ljk->ilk", f, np.conj(f))
                     - np.eye(2)[:, :, None])
        assert dev.max() < 1e-9
    min_len = min(length for _, length, _ in structure.layers)
    ref = reference_pair_amplitude(structure, pump, basis,
                                   step=min(min_len / 20, 1e-9))
    assert compare_with_emission(ref, emission) < 1e-4
