"""One emission build over a geometry axis against one build per structure.

A stack whose layer lengths are arrays over C cells is built once; every
array then carries the cell axis before its bin axes.  Cell by cell it
must equal the build of the stack with that cell's scalar lengths, and
``runner.scan`` must give bitwise the same yields however it splits its
ridge cells into chunks, the last one partial.
"""

import csv
import io
import os
import tracemalloc

import numpy as np
import pytest

import spdc1d.runner as runner_mod
from spdc1d.config import load_config, parse_config
from spdc1d.matrixcore import build_emission
from spdc1d.observables import joint_density, marginals_and_counts
from spdc1d.structure import StructureSpec

from reference import full_chi2

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")
L1_NM = np.array([10.0, 25.0, 40.0, 55.0, 70.0, 85.0])
L2_NM = np.array([95.0, 15.0, 60.0, 30.0, 45.0, 80.0])
TOL = 1e-13  # of each array's peak
WHICH = ("V", "S", "I", "SV")


@pytest.fixture(scope="module")
def example():
    return load_config(EXAMPLE)


def _pair_stack(cfg):
    return lambda l1, l2: runner_mod._pair_stack(cfg, l1, l2)


def _mixed_full_chi2(cfg):
    """The example's pair stack with chi2 in both materials (distinct d,
    so two nonlinear classes) and poling that differs between layers of
    one class."""
    first = runner_mod._pair_stack(cfg, 1e-9, 1e-9)
    pair = full_chi2(StructureSpec(first.layers[:2], first.ambient_in,
                                   first.ambient_out))
    mat_a, mat_b = pair.material(1), pair.material(2)

    def make(l1, l2):
        layers = sum((((mat_a, l1, (-1) ** p), (mat_b, l2, (-1) ** (p // 3)))
                      for p in range(cfg.scan.pairs)), ())
        return StructureSpec(layers, first.ambient_in, first.ambient_out)

    return make


def _observables(emission, channel):
    stats = marginals_and_counts(joint_density(emission, channel))
    return ([stats["counts"][w] for w in WHICH]
            + [stats["ratio_surface_volume"]])


@pytest.mark.parametrize("convention", ["local-jump", "per-slot"])
@pytest.mark.parametrize("stack", [_pair_stack, _mixed_full_chi2])
def test_batched_build_matches_per_structure_builds(example, stack,
                                                    convention):
    cfg, make = example, stack(example)
    basis = cfg.basis(bins=cfg.scan.bins)
    k, cells = basis.bins, L1_NM.size
    batch = build_emission(make(L1_NM * 1e-9, L2_NM * 1e-9), cfg.pump,
                           basis).attributed(convention)
    singles = [build_emission(make(a * 1e-9, b * 1e-9), cfg.pump,
                              basis).attributed(convention)
               for a, b in zip(L1_NM, L2_NM)]
    assert batch.g_volume.shape == (2,) * 4 + (cells, k, k)
    assert batch.scatter.shape == (2, 2, cells, k)
    pairs = [
        (getattr(batch, attr), np.stack([getattr(e, attr) for e in singles],
                                        axis=-3))
        for attr in ("g_volume", "g_surface")
    ] + [(batch.scatter, np.stack([e.scatter for e in singles], axis=-2))]
    one = np.array([_observables(e, cfg.channel) for e in singles]).T
    pairs += list(zip(_observables(batch, cfg.channel), one))
    for got, want in pairs:
        assert got.shape == want.shape
        peak = np.max(np.abs(want))
        assert peak > 0.0
        assert np.max(np.abs(got - want)) <= TOL * peak


def test_batched_build_over_2d_grid_with_a_scalar_length_class(example):
    """l1 over a 3 x 2 grid and a scalar l2: the scalar-length class's
    kernels carry no geometry axes and broadcast over the grid."""
    make = _mixed_full_chi2(example)
    basis = example.basis(bins=6)
    l1 = L1_NM.reshape(3, 2) * 1e-9
    batch = build_emission(make(l1, 33e-9), example.pump, basis)
    got = [batch.g_volume, batch.g_surface] + _observables(batch,
                                                           example.channel)
    singles = [build_emission(make(l1[idx], 33e-9), example.pump, basis)
               for idx in np.ndindex(l1.shape)]
    want = [np.stack([e.g_volume for e in singles], axis=-3),
            np.stack([e.g_surface for e in singles], axis=-3)]
    want = [w.reshape(w.shape[:-3] + l1.shape + w.shape[-2:]) for w in want]
    want += list(np.array([_observables(e, example.channel)
                           for e in singles]).T.reshape(-1, *l1.shape))
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= TOL * np.max(np.abs(w))


def test_scalar_lengths_keep_plain_observables(example):
    """With no geometry axis the counts and R stay plain floats."""
    basis = example.basis(bins=4)
    em = build_emission(example.structure, example.pump,
                        basis).attributed(example.attribution)
    stats = marginals_and_counts(joint_density(em, example.channel))
    assert all(type(stats["counts"][w]) is float for w in WHICH)
    assert type(stats["ratio_surface_volume"]) is float


def _small_scan_config():
    return parse_config({
        "materials": {
            "nl": {"dispersion": {"type": "constant", "n": 2.3},
                   "chi2": [{"pol": "y;xy", "d_m_per_V": 4e-12}]},
            "lin": {"dispersion": {"type": "constant", "n": 1.7},
                    "chi2": []},
            "air": {"dispersion": {"type": "constant", "n": 1.0},
                    "chi2": []},
        },
        "structure": {
            "ambient_in": "air", "ambient_out": "air",
            "layers": [{"material": "nl", "length_nm": 60.0},
                       {"material": "lin", "length_nm": 35.0}],
        },
        "pump": {"wavelength_nm": 400.0, "fwhm_nm": 7.0,
                 "energy_J_per_m2": 1000.0},
        "basis": {"bins": 6, "window": [0.35, 0.65]},
        "scan": {"material_a": "nl", "material_b": "lin", "pairs": 3,
                 "l1_nm": [30.0, 90.0, 7], "l2_nm": [30.0, 90.0, 7],
                 "bins": 3},
    })


def _scan(cfg, out_dir, monkeypatch, cells_per_build=None):
    """``ridge_scan.csv``'s bytes and the build grids of a scan with
    ``_SCAN_CHUNK`` set to give cells_per_build cells per build (None:
    the shipped budget)."""
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[0].grid)
        return build_emission(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(runner_mod, "build_emission", counted)
        if cells_per_build is not None:
            per_cell = 2 * cfg.scan.pairs * cfg.scan.bins**2  # layers x K^2
            mp.setattr(runner_mod, "_SCAN_CHUNK", cells_per_build * per_cell)
        runner_mod.scan(cfg, out_dir, workers=1)
    with open(os.path.join(out_dir, "ridge_scan.csv"), "rb") as fh:
        return fh.read(), builds


def test_scan_chunks_with_partial_last_chunk(tmp_path, monkeypatch):
    """scan makes one build per chunk of ridge cells; with a chunk size
    that does not divide the cell count its yields still equal one build
    per structure, row by row and bit for bit."""
    cfg = _small_scan_config()
    text, builds = _scan(cfg, tmp_path / "scan", monkeypatch, 4)
    cells = sum(g[0] for g in builds)
    assert cells % 4 != 0 and cells > 4  # the last chunk is partial
    assert builds == [(4,)] * (cells // 4) + [(cells % 4,)]
    rows = list(csv.DictReader(io.StringIO(text.decode())))
    assert len(rows) == cells
    basis = cfg.basis(bins=cfg.scan.bins)
    keys = ("N_V_per_mm2", "N_S_per_mm2", "N_SV_per_mm2", "R")
    got = np.array([[float(r[key]) for key in keys] for r in rows])
    want = []
    for r in rows:
        st = runner_mod._pair_stack(cfg, float(r["l1_nm"]) * 1e-9,
                                    float(r["l2_nm"]) * 1e-9)
        stats = marginals_and_counts(joint_density(
            build_emission(st, cfg.pump, basis).attributed(cfg.attribution),
            cfg.channel))
        counts = stats["counts"]
        want.append([counts["V"] * 1e-6, counts["S"] * 1e-6,
                     counts["SV"] * 1e-6, stats["ratio_surface_volume"]])
    want = np.array(want)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("which", ["small", "shipped"])
def test_scan_yields_do_not_depend_on_the_chunk_size(example, tmp_path,
                                                     monkeypatch, which):
    """A cell's yields are bitwise the same whatever chunk it lands in:
    ``ridge_scan.csv`` is byte-identical at 1, 4 and all cells per
    build and at the shipped budget."""
    cfg = _small_scan_config() if which == "small" else example
    want, builds = _scan(cfg, tmp_path / "default", monkeypatch)
    cells = sum(g[0] for g in builds)
    for per_build in (1, 4, cells):
        got, builds = _scan(cfg, tmp_path / str(per_build), monkeypatch,
                            per_build)
        assert len(builds) == -(-cells // per_build)
        assert got == want, per_build


def test_shipped_scan_makes_six_builds(example, tmp_path, monkeypatch):
    """The shipped scan's 129 ridge cells go in 6 builds of at most 22
    cells, the last one partial."""
    _, builds = _scan(example, tmp_path, monkeypatch)
    assert builds == [(22,)] * 5 + [(19,)]


def test_shipped_scan_chunk_build_memory(example, tmp_path):
    """One full chunk build of the shipped scan (``ridge_yields`` on its
    first 22 ridge cells) peaks at no more than 5.5 MiB of tracemalloc
    (5.01 MiB measured, 4.95 MiB before the solve held every class's
    kernels through the assembly; 5.97 MiB while the layer march was held
    through the class passes).  The benchmark warm-up's ``verify --bins
    4`` peaks near 4.3 MiB, so this build, not the warm-up, sets the
    scan's peak."""
    runner_mod.scan(example, tmp_path, workers=1)
    with open(tmp_path / "ridge_scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))[:22]
    l1 = np.array([float(r["l1_nm"]) for r in rows])
    l2 = np.array([float(r["l2_nm"]) for r in rows])
    tracemalloc.start()
    try:
        runner_mod.ridge_yields(example, l1, l2)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak_bytes <= 5.5 * 2**20


def test_shipped_verify_memory(example):
    """``verify --bins 12`` on the shipped config peaks at no more than
    5.25 MiB of tracemalloc (4.58 MiB measured; 6.65 MiB when a float
    |.|^2 of the 512 x 512 time_normalization grid sat beside its complex
    product, 8.14 MiB when every boundary source of the split stack was
    expanded and held at once for the one the surface null reads)."""
    runner_mod.verify(example, bins=4)  # first calls, as the benchmark's
    tracemalloc.start()
    try:
        _, ok = runner_mod.verify(example, bins=12)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak_bytes <= 5.25 * 2**20
