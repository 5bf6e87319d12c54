"""Randomized differential tests: the transfer-matrix emission maps
against the z-grid oracle, against per-structure builds and against
their own invariances on small random stacks.

Each example is a stack of 1-4 constant-index layers drawn from 1-3
(material, length) classes, so layers often repeat a class, with a full
random chi2 (every signal/idler polarization pair emits, d != d.T),
random poling, pump side and surface attribution.  All materials share
one name: both paths must key their classes on the material object.
The geometry-grid examples give some classes a length array over 2-4
cells, so one build spans every cell.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc1d.constants import CONSTANTS
from spdc1d.linear import PumpSpec, linear_transmission
from spdc1d.materials import constant_material
from spdc1d.matrixcore import build_emission
from spdc1d.observables import branch_amplitudes, joint_density
from spdc1d.oracle import compare_with_emission, reference_pair_amplitude
from spdc1d.spectral import DIRS, POLS, SPLIT_CONVENTIONS, SpectralBasis
from spdc1d.structure import StructureSpec

from reference import (assert_assemblies_are_builds,
                       assert_attribution_is_the_build_time_one,
                       assert_bitwise_equal, assert_sources_bitwise_equal,
                       dense_emission, linear_maps)

OMEGA_P0 = 2 * np.pi * CONSTANTS.c / 400e-9
PAIRS = (("y", "x", "y"), ("y", "y", "x"), ("y", "x", "x"), ("y", "y", "y"))


LENGTHS = st.floats(30e-9, 400e-9)


def _layers(draw, classes):
    picks = draw(st.lists(st.integers(0, len(classes) - 1),
                          min_size=1, max_size=4))
    return tuple(classes[i] + (draw(st.sampled_from((1, -1))),)
                 for i in picks)


def _material(draw):
    chi2 = {p: draw(st.sampled_from((-1.0, 1.0)))
            * draw(st.floats(0.5e-12, 5e-12)) for p in PAIRS}
    return constant_material("layer", draw(st.floats(1.3, 2.6)), chi2=chi2)


@st.composite
def stacks(draw):
    classes = [(_material(draw), draw(LENGTHS))
               for _ in range(draw(st.integers(1, 3)))]
    air = constant_material("air", 1.0)
    return StructureSpec(_layers(draw, classes), air, air)


@st.composite
def grid_stacks(draw):
    """(stack over a grid of 2-4 cells, [the stack of each cell]): the
    first class's length spans the cells, the others' may."""
    cells = draw(st.integers(2, 4))
    classes = []
    for c in range(draw(st.integers(1, 3))):
        if c == 0 or draw(st.booleans()):
            length = np.array(draw(st.lists(LENGTHS, min_size=cells,
                                            max_size=cells)))
        else:
            length = draw(LENGTHS)
        classes.append((_material(draw), length))
    layers = _layers(draw, classes)
    if not any(np.ndim(length) for _, length, _ in layers):
        layers = (classes[0] + (1,),) + layers[:3]
    air = constant_material("air", 1.0)
    singles = [StructureSpec(tuple((m, length[c] if np.ndim(length)
                                    else length, p)
                                   for m, length, p in layers), air, air)
               for c in range(cells)]
    return StructureSpec(layers, air, air), singles


def _pump(side):
    return PumpSpec.from_wavelength(400e-9, 7e-9, 1e3, polarization="y",
                                    side=side)


def _basis(bins):
    return SpectralBasis(0.35 * OMEGA_P0, 0.65 * OMEGA_P0, bins)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structure=stacks(), side=st.sampled_from("FB"),
       bins=st.integers(4, 6), convention=st.sampled_from(SPLIT_CONVENTIONS))
def test_emission_matches_oracle_on_random_stacks(structure, side, bins,
                                                  convention):
    pump, basis = _pump(side), _basis(bins)
    emission = build_emission(structure, pump, basis).attributed(convention)
    f = emission.scatter
    dev = np.abs(np.einsum("ijk,ljk->ilk", f, np.conj(f))
                 - np.eye(2)[:, :, None])
    assert dev.max() < 1e-9
    min_len = min(length for _, length, _ in structure.layers)
    ref = reference_pair_amplitude(structure, pump, basis,
                                   step=min(min_len / 20, 1e-9))
    assert compare_with_emission(ref, emission) < 1e-4


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grid=grid_stacks(), side=st.sampled_from("FB"), bins=st.integers(4, 6),
       convention=st.sampled_from(SPLIT_CONVENTIONS))
def test_geometry_grid_matches_per_structure_builds(grid, side, bins,
                                                    convention):
    structure, singles = grid
    pump, basis = _pump(side), _basis(bins)
    batch = build_emission(structure, pump, basis).attributed(convention)
    ones = [build_emission(s, pump, basis).attributed(convention)
            for s in singles]
    pairs = [(getattr(batch, a), np.stack([getattr(e, a) for e in ones],
                                          axis=-3))
             for a in ("g_volume", "g_surface")]
    pairs += [(batch.scatter, np.stack([e.scatter for e in ones], axis=-2))]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(structure=stacks(), side=st.sampled_from("FB"), bins=st.integers(4, 6),
       split=st.tuples(st.integers(1, 4), st.floats(0.2, 0.8)),
       channel=st.tuples(st.sampled_from(DIRS), st.sampled_from(DIRS),
                         st.sampled_from(POLS), st.sampled_from(POLS)))
def test_split_invariance_and_total_branch_conjugacy(structure, side, bins,
                                                     split, channel):
    """Under local-jump G_V and G_S do not move when a layer is split in
    two, and the idler-branch factor of the total is the conjugate of its
    signal-branch one (the V and S factors alone are not)."""
    pump, basis = _pump(side), _basis(bins)
    emission = build_emission(structure, pump, basis)
    layer = min(split[0], structure.n_layers)
    halves = build_emission(structure.split_layer(layer, split[1]), pump,
                            basis)
    scale = np.linalg.norm(emission.g_volume + emission.g_surface)
    for a in ("g_volume", "g_surface"):
        diff = getattr(halves, a) - getattr(emission, a)
        assert np.linalg.norm(diff) <= 1e-12 * scale
    (f1v, f2v), (f1s, f2s) = (branch_amplitudes(emission, channel, w)
                              for w in "VS")
    total = f2v + f2s
    assert np.max(np.abs(f1v + f1s - np.conj(total))) <= (
        1e-12 * np.max(np.abs(total)))


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(structure=stacks(), side=st.sampled_from("FB"), bins=st.integers(4, 6),
       convention=st.sampled_from(SPLIT_CONVENTIONS),
       channel=st.tuples(st.sampled_from(DIRS), st.sampled_from(DIRS),
                         st.sampled_from(POLS), st.sampled_from(POLS)))
def test_energy_wronskian_and_decomposition_identities(structure, side, bins,
                                                       convention, channel):
    """Per bin T + R = 1 on both sides of the lossless stack; every
    boundary row map L_l at_left[l] of both fields has the Wronskian
    det(L_0); and n_total = n_V + n_S + n_I holds exactly and is the
    density of the total (V + S) branch factors."""
    basis = _basis(bins)
    for pump_side in "FB":
        _, _, big_t, big_r = linear_transmission(structure, basis.centers,
                                                 pump_side)
        assert np.max(np.abs(big_t + big_r - 1.0)) <= 1e-12
    for maps in linear_maps(structure, basis).values():
        det0 = _det2(maps.interface[0])
        for l in range(structure.n_layers + 2):
            dev = np.abs(_det2(maps.boundary_rows(l)) / det0 - 1.0)
            assert dev.max() <= 1e-12
    emission = build_emission(structure, _pump(side),
                              basis).attributed(convention)
    jd = joint_density(emission, channel)
    assert np.array_equal(jd.n_total,
                          jd.n_volume + jd.n_surface + jd.n_interf)
    (f1v, f2v), (f1s, f2s) = (branch_amplitudes(emission, channel, w)
                              for w in "VS")
    n_sv = 2.0 * np.real((f1v + f1s) * (f2v + f2s))
    assert np.max(np.abs(jd.n_total - n_sv)) <= 1e-12 * np.max(np.abs(n_sv))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structure=st.one_of(stacks(), grid_stacks().map(lambda g: g[0])),
       side=st.sampled_from("FB"), bins=st.integers(2, 12),
       convention=st.sampled_from(SPLIT_CONVENTIONS), keep=st.booleans())
def test_lit_entry_assembly_is_bitwise_the_dense_one(structure, side, bins,
                                                     convention, keep):
    """On random stacks, single and over geometry grids, the assembly on
    the pump's lit entries holds the same bits in F, G_V and G_S, and with
    keep in each boundary's build, as the K x K assembly on every entry
    (its sources kept one layer at a time)."""
    pump, basis = _pump(side), _basis(bins)
    assert_bitwise_equal(
        build_emission(structure, pump, basis).attributed(convention),
        dense_emission(structure, pump, basis, convention=convention))
    if keep:
        assert_sources_bitwise_equal(structure, pump, basis, convention)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(structure=st.one_of(stacks(), grid_stacks().map(lambda g: g[0])),
       side=st.sampled_from("FB"), bins=st.integers(2, 8))
def test_assemblies_of_one_solve_are_the_builds(structure, side, bins):
    """On random stacks, single and over geometry grids, each attribution
    and each boundary assembled from one shared solve holds the bits of
    its own build."""
    assert_assemblies_are_builds(structure, _pump(side), _basis(bins))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(structure=st.one_of(stacks(), grid_stacks().map(lambda g: g[0])),
       side=st.sampled_from("FB"), bins=st.integers(2, 8))
def test_read_time_attribution_matches_the_build_time_one(structure, side,
                                                          bins):
    """On random stacks, single and over geometry grids, G_V and G_S of
    the whole stack and of each boundary read from the slabs under each
    attribution are within 1e-14 of the assembly that signs the class
    kernels before its passes, on the scale of each array's peak or of
    its slabs' (a boundary between two layers of one class is
    fictitious: its local-jump surface source cancels to rounding)."""
    assert_attribution_is_the_build_time_one(structure, _pump(side),
                                             _basis(bins), of_slabs=True)
