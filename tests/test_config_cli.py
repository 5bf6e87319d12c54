import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdc1d.cli as cli_mod
import spdc1d.linear as linear_mod
import spdc1d.matrixcore as matrixcore_mod
import spdc1d.oracle as oracle_mod
import spdc1d.runner as runner_mod
from spdc1d.cli import main
from spdc1d.config import ConfigError, load_config, parse_config
from spdc1d.errors import NoPeak, NumericalBreakdown
from spdc1d.blockmatrix import MODE_CHANNELS, ROW_CHANNELS, labels
from spdc1d.matrixcore import outward_maps, propagator_bins
from spdc1d.observables import (
    antidiagonal_profile,
    branch_amplitudes,
    marginals_and_counts,
    temporal_profiles,
    two_photon_amplitude,
    width_fwhm,
)
from spdc1d.runner import (
    MATRIX_NAMES,
    simulate,
    track_ridges,
    transmission_map,
    verify,
    write_csv,
)

from reference import (count_field_maps, dense_bins, explicit_time_grid,
                       linear_maps, rowwise_write_csv, two_sector_dense,
                       two_sector_emission)

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "gan_aln_20layer.json")


def _tiny_config(**overrides):
    raw = {
        "materials": {
            "nl": {
                "dispersion": {"type": "constant", "n": 2.2},
                "chi2": [{"pol": "y;xy", "d_m_per_V": 4e-12}],
            },
            "lin": {"dispersion": {"type": "constant", "n": 1.8}, "chi2": []},
            "air": {"dispersion": {"type": "constant", "n": 1.0}, "chi2": []},
        },
        "structure": {
            "ambient_in": "air",
            "ambient_out": "air",
            "layers": [
                {"material": "nl", "length_nm": 70.0},
                {"material": "lin", "length_nm": 40.0},
            ],
        },
        "pump": {"wavelength_nm": 400.0, "fwhm_nm": 7.0,
                 "energy_J_per_m2": 1000.0},
        "basis": {"bins": 6, "window": [0.35, 0.65]},
        "observe": {"time_points": 256},
        "scan": {
            "material_a": "nl", "material_b": "lin", "pairs": 3,
            "l1_nm": [20.0, 100.0, 9], "l2_nm": [20.0, 100.0, 9],
            "bins": 4,
        },
    }
    raw.update(overrides)
    return raw


def test_example_config_loads():
    cfg = load_config(EXAMPLE)
    assert cfg.structure.n_layers == 20
    assert cfg.bins == 64
    assert cfg.attribution == "per-slot"
    assert cfg.channel == ("F", "F", "x", "y")


def test_parse_leaves_raw_unchanged():
    """Defaults are filled into the walked tree, never into raw, which
    config_hash reads."""
    raw = _tiny_config()
    del raw["observe"]
    before = json.dumps(raw, sort_keys=True)
    cfg = parse_config(raw)
    assert json.dumps(raw, sort_keys=True) == before
    assert cfg.raw is raw and cfg.time_points == 2048


def test_unknown_keys_rejected():
    raw = _tiny_config()
    raw["typo_section"] = {}
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(raw)
    raw = _tiny_config()
    raw["pump"]["bandwidth"] = 1.0
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(raw)


def test_missing_and_invalid_values_rejected():
    raw = _tiny_config()
    del raw["pump"]["wavelength_nm"]
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config(raw)
    raw = _tiny_config()
    raw["materials"]["nl"]["chi2"][0]["pol"] = "q;xy"
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _tiny_config()
    raw["structure"]["layers"][0]["material"] = "nope"
    with pytest.raises(ConfigError, match="unknown material"):
        parse_config(raw)
    for bad in ("bogus", "local-jump-flipped"):
        raw = _tiny_config()
        raw["surface_attribution"] = bad
        with pytest.raises(ConfigError, match="surface_attribution"):
            parse_config(raw)
    for bad in (1, 0, -5, "abc", 2.5, "256", True, None):
        raw = _tiny_config()
        raw["observe"]["time_points"] = bad
        with pytest.raises(ConfigError, match="observe.time_points"):
            parse_config(raw)
    for bad in (0, -1, "abc", 1.5, "6"):
        raw = _tiny_config()
        raw["basis"]["bins"] = bad
        with pytest.raises(ConfigError, match="basis.bins"):
            parse_config(raw)
        raw = _tiny_config()
        raw["scan"]["bins"] = bad
        with pytest.raises(ConfigError, match="scan.bins"):
            parse_config(raw)
    for bad in (0, -2, "abc", 2.5, "3", True, None):
        for section, key in (("scan", "pairs"), ("layer", "repeat")):
            raw = _tiny_config()
            if section == "scan":
                raw["scan"]["pairs"] = bad
            else:
                raw["structure"]["layers"] = [
                    {"repeat": bad, "layers": raw["structure"]["layers"]}]
            with pytest.raises(ConfigError, match=key):
                parse_config(raw)
    for bad in (-1, "abc", 1.5, "2", None):
        raw = _tiny_config()
        raw["scan"]["ridge_max_jump"] = bad
        with pytest.raises(ConfigError, match="scan.ridge_max_jump"):
            parse_config(raw)
    for bad in (0, 0.5, 2, -1.5, "abc", "1", True, None):
        raw = _tiny_config()
        raw["structure"]["layers"][0]["poling"] = bad
        with pytest.raises(ConfigError, match="poling"):
            parse_config(raw)
    nonfinite = ("abc", "400", True, None, float("nan"), float("inf"),
                 float("-inf"))
    pump_keys = ("wavelength_nm", "fwhm_nm", "energy_J_per_m2",
                 "cutoff_nsigma")
    for bad in nonfinite:
        for key in pump_keys:
            raw = _tiny_config()
            raw["pump"][key] = bad
            with pytest.raises(ConfigError, match=f"pump.{key}"):
                parse_config(raw)
        raw = _tiny_config()
        raw["structure"]["layers"][0]["length_nm"] = bad
        with pytest.raises(ConfigError, match="length_nm"):
            parse_config(raw)
        raw = _tiny_config()
        raw["basis"]["window"] = [0.35, bad]
        with pytest.raises(ConfigError, match="basis.window"):
            parse_config(raw)
        raw = _tiny_config()
        raw["materials"]["nl"]["chi2"][0]["d_m_per_V"] = bad
        with pytest.raises(ConfigError, match="d_m_per_V"):
            parse_config(raw)
        raw = _tiny_config()
        raw["materials"]["lin"]["dispersion"]["n"] = bad
        with pytest.raises(ConfigError, match="dispersion n"):
            parse_config(raw)
        raw = _tiny_config()
        raw["observe"]["conditional_t_idler_fs"] = bad
        if bad is not None:  # null means "use the default"
            with pytest.raises(ConfigError,
                               match="observe.conditional_t_idler_fs"):
                parse_config(raw)
    for bad in ([0.35], [0.35, 0.5, 0.65], "0.35"):
        raw = _tiny_config()
        raw["basis"]["window"] = bad
        with pytest.raises(ConfigError, match="basis.window"):
            parse_config(raw)
    for bad in ([20.0, 100.0], [20.0, "abc", 9], [20.0, 100.0, 9.5],
                [20.0, 100.0, 0], [float("nan"), 100.0, 9], "20,100,9"):
        for key in ("l1_nm", "l2_nm"):
            raw = _tiny_config()
            raw["scan"][key] = bad
            with pytest.raises(ConfigError, match=f"scan.{key}"):
                parse_config(raw)
    sellmeier = {"type": "sellmeier", "A": 2.0, "terms": [[1.0, 0.01]],
                 "window_um": [0.3, 9.0]}
    for key, bad in (("A", "abc"), ("A", float("nan")), ("terms", "abc"),
                     ("terms", [[1.0]]), ("terms", [[1.0, "x"]]),
                     ("window_um", [0.3, "x"]), ("window_um", [0.3]),
                     ("window_um", [0.0, 9.0])):
        raw = _tiny_config()
        raw["materials"]["sm"] = {"dispersion": dict(sellmeier, **{key: bad})}
        with pytest.raises(ConfigError, match=f"material sm {key}"):
            parse_config(raw)
    for bad in ([0.3, None], [0.0, 9.0], [9.0, 0.3]):
        raw = _tiny_config()
        raw["materials"]["lin"]["dispersion"]["window_um"] = bad
        with pytest.raises(ConfigError, match="material lin window_um"):
            parse_config(raw)


def test_nonlinear_ambient_rejected():
    raw = _tiny_config()
    raw["structure"]["ambient_in"] = "nl"
    with pytest.raises(ConfigError, match="linear"):
        parse_config(raw)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_simulate_writes_bundle_and_is_deterministic(tmp_path):
    cfg = parse_config(_tiny_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    summary1, _, _ = simulate(cfg, out1)
    summary2, _, _ = simulate(cfg, out2)
    names = sorted(os.listdir(out1))
    assert "summary.json" in names
    assert "joint_density.csv" in names
    assert "marginals.csv" in names
    assert "temporal_flux.csv" in names
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} not byte-identical"
    assert summary1["counts_per_mm2"]["SV"] > 0
    assert not summary1["no_emission"]


def test_write_csv_rows_are_round_trip_exact(tmp_path):
    values = np.array([0.0, -0.0, 1e-300, 1.2e17, 0.1, -1.0 / 3.0])
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [values, values[::-1]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1:3] == ["0,-0.33333333333333331", "-0,0.10000000000000001"]
    assert lines[4] == "1.2e+17,1e-300"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], values)
    block = runner_mod._CSV_CELLS // 2  # rows of one block of two columns
    for columns in ([values, values[:-1]], [values, np.append(values, 1.0)],
                    [np.zeros(block), np.zeros(block + 1)]):
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], columns)


_SIGNED = np.array([0.0, -0.0, 0.0, -0.0, 2.5, -0.0])
_SPECIAL = np.array([np.nan, np.inf, -np.inf, np.nan, 1.0, -np.inf])


@pytest.mark.parametrize("columns", [
    [_SIGNED, _SIGNED[::-1].copy()],
    [_SPECIAL, np.array([np.nan, -np.nan, 0.5, np.inf, -1e-300, 3.0])],
    [np.full(6, 0.1), np.full(6, -0.0), np.repeat([1.0, 2.0], 3)],
    [np.linspace(0.1, 1.7, 6), np.arange(6.0) / 7.0, -np.arange(6.0)],
    [np.zeros(0), np.zeros(0)],
    [np.array([-0.0]), np.array([np.nan]), np.array([1.0 / 3.0])],
], ids=["signed-zeros", "nan-inf", "all-repeated", "all-distinct",
        "zero-rows", "one-row"])
def test_write_csv_matches_rowwise_reference(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "fast.csv", header, columns)
    rowwise_write_csv(tmp_path / "ref.csv", header, columns)
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_write_csv_matches_rowwise_reference_on_run_outputs(tmp_path,
                                                           monkeypatch):
    """Every CSV of simulate --bins 16, scan and transmission-map, byte
    for byte.  An axis that simulate formats once for several files
    reaches write_csv as text: each format_cells call is held to the
    row-wise %.17g text of its values, every text cell must come from
    one, and the reference reads text columns back by float(), which
    %.17g round-trips exactly."""
    written, formatted = [], set()
    fast, fast_format = runner_mod.write_csv, runner_mod.format_cells

    def checked_format(values):
        text = fast_format(values)
        assert text.tolist() == ["%.17g" % v
                                 for v in np.asarray(values).tolist()]
        formatted.update(text.tolist())
        return text

    def both(path, header, columns):
        fast(path, header, columns)
        for col in columns:
            if col.dtype == object:
                assert formatted.issuperset(col.tolist())
        ref = tmp_path / f"ref{len(written)}.csv"
        rowwise_write_csv(ref, header, [np.asarray(col, dtype=float)
                                        for col in columns])
        written.append((os.path.basename(path), ref.read_bytes()
                        == open(path, "rb").read()))

    monkeypatch.setattr(runner_mod, "write_csv", both)
    monkeypatch.setattr(runner_mod, "format_cells", checked_format)
    cfg = load_config(EXAMPLE)
    simulate(cfg, tmp_path / "sim", bins=16)
    runner_mod.scan(cfg, tmp_path / "scan", workers=1)
    transmission_map(cfg, tmp_path / "tm")
    assert sorted(name for name, _ in written) == sorted([
        "joint_density.csv", "marginals.csv", "temporal_flux.csv",
        "temporal_conditional.csv", "antidiagonal.csv", "ridge_scan.csv",
        "transmission_map.csv", "transmission_map.csv"])
    assert all(same for _, same in written)
    assert formatted  # the shared axes went through format_cells


_CELL = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan, -np.nan])


@st.composite
def _csv_columns(draw):
    """1-5 equal columns of 0-24 rows: any cells, all repeated (a pool of
    at most three values), one constant or all distinct; each may be
    passed as text from format_cells."""
    rows = draw(st.integers(0, 24))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["any", "repeated", "constant",
                                     "distinct"]))
        if kind == "repeated":
            cell = st.sampled_from(draw(st.lists(_CELL, min_size=1,
                                                 max_size=3)))
        elif kind == "constant":
            cell = st.just(draw(_CELL))
        else:
            cell = _CELL if kind == "any" else st.floats(allow_nan=False)
        col = np.array(draw(st.lists(cell, min_size=rows, max_size=rows,
                                     unique=kind == "distinct")), dtype=float)
        columns.append(runner_mod.format_cells(col) if draw(st.booleans())
                       else col)
    return columns


# the 256-bin joint_density.csv grid: text frequency axes, pump-dark zeros
_K = 256
_GRID = [np.repeat(runner_mod.format_cells(np.linspace(1.1, 1.9, _K)), _K),
         np.tile(runner_mod.format_cells(np.linspace(1.1, 1.9, _K)), _K)] + [
    np.where(np.add.outer(np.arange(_K), np.arange(_K)).ravel() % 7 < 2,
             np.random.default_rng(seed).standard_normal(_K * _K), 0.0)
    for seed in range(4)]


@settings(max_examples=200, deadline=None)
@example(_GRID)
@example([np.zeros(0), runner_mod.format_cells(np.zeros(0))])
@example([np.array([-0.0]), runner_mod.format_cells([np.nan])])
@given(_csv_columns())
def test_write_csv_matches_rowwise_reference_on_generated_columns(columns):
    """The writer against the row-wise one on ±0, subnormals, ±inf, nan,
    repeated, constant and distinct columns, text columns, zero and one
    row, and the 65,536-row grid of a 256-bin joint density."""
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        fast, ref = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "ref.csv")
        write_csv(fast, header, columns)
        rowwise_write_csv(ref, header, [np.asarray(col, dtype=float)
                                        for col in columns])
        with open(fast, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()


def test_verify_gates_only_the_observable_density():
    """Under local-jump at 64 bins n_V dips to -8.8e-3 of the n_total
    peak; density_nonnegative reports that minimum and gates n_total."""
    with open(EXAMPLE) as fh:
        raw = json.load(fh)
    raw["surface_attribution"] = "local-jump"
    report, ok = verify(parse_config(raw), bins=64)
    check = report["checks"]["density_nonnegative"]
    assert ok
    assert check["error"] == 0.0 and check["tol"] == 1e-15
    assert check["n_volume_min"] < -1e-3 <= check["n_surface_min"]


def test_simulate_spectral_csvs_read_back_to_the_joint_density(tmp_path):
    """joint_density.csv, marginals.csv and antidiagonal.csv, whose
    frequency axis simulate formats once for all three, read back to the
    bits of the run's joint density, its marginals and its antidiagonal
    profiles.  The window is off-center, so that only signal bins 5-15
    have an in-window partner on the antidiagonal."""
    cfg = load_config(EXAMPLE)
    _, _, jd = simulate(cfg, tmp_path, bins=16, window=(0.3, 0.6))
    stats = marginals_and_counts(jd)
    anti = [antidiagonal_profile(jd.continuous(w), jd.omega, cfg.omega_p0)
            for w in ("V", "S", "SV")]
    k = jd.omega.size
    for name, rows, columns in (
        ("joint_density.csv", k * k,
         [np.repeat(jd.omega, k), np.tile(jd.omega, k)]
         + [jd.continuous(w).ravel() for w in ("V", "S", "I", "SV")]),
        ("marginals.csv", k, [jd.omega]
         + [stats["marginals"][w] for w in ("V", "S", "I", "SV")]
         + [stats["eta_s"], stats["eta_valid"]]),
        ("antidiagonal.csv", 11,
         [anti[0][0]] + [values for _, values in anti]),
    ):
        got = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        want = np.column_stack(columns).astype(float)
        assert got.shape == want.shape == (rows, len(columns))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_simulate_all_linear_flags_no_emission(tmp_path):
    raw = _tiny_config()
    raw["materials"]["nl"]["chi2"] = []
    cfg = parse_config(raw)
    summary, _, _ = simulate(cfg, tmp_path / "lin")
    assert summary["no_emission"]
    assert summary["counts_per_mm2"]["SV"] == 0.0


@pytest.mark.parametrize("cutoff", [0, 0.0, -1, -8.0])
def test_nonpositive_cutoff_nsigma_rejected_at_parse_time(cutoff):
    """A pump cut off at or below its center would light no frequency:
    it is a config error, not a silent N_SV = 0."""
    raw = _tiny_config()
    raw["pump"]["cutoff_nsigma"] = cutoff
    with pytest.raises(ConfigError,
                       match="pump.cutoff_nsigma must be positive"):
        parse_config(raw)
    raw["pump"]["cutoff_nsigma"] = 0.5
    assert parse_config(raw).pump.cutoff_nsigma == 0.5


def test_cli_no_emission_note_names_the_cause(tmp_path, capsys):
    """N_SV = 0 has three causes that the run can tell apart; the note
    names the one it sees, and the summary does not change with it."""
    cases = []
    raw = _tiny_config()
    raw["materials"]["nl"]["chi2"] = []
    cases.append((raw, [], "all-linear structure"))
    with open(EXAMPLE) as fh:
        shipped = json.load(fh)
    cases.append((shipped, ["--window-lo", "0.05", "--window-hi", "0.3"],
                  "no lit bin sum: the pump is dark over the window"))
    raw = _tiny_config()
    raw["observe"]["signal_pol"] = "y"  # the only chi2 entry is y;xy
    cases.append((raw, [], "no source couples into the observed channel"))
    for i, (raw, flags, cause) in enumerate(cases):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(cfg_path), "--bins", "8",
                     "--out-dir", str(out)] + flags) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"note: no emission ({cause})" in lines
        summary = json.loads((out / "summary.json").read_text())
        assert summary["no_emission"] and "note" not in summary


def test_transmission_map_single_material_is_unity(tmp_path):
    raw = _tiny_config()
    raw["materials"]["lin"]["dispersion"]["n"] = 2.2  # same as nl
    raw["structure"]["ambient_in"] = "lin2"
    raw["structure"]["ambient_out"] = "lin2"
    raw["materials"]["lin2"] = {
        "dispersion": {"type": "constant", "n": 2.2}, "chi2": []
    }
    cfg = parse_config(raw)
    _, _, tmap = transmission_map(cfg)
    assert np.allclose(tmap, 1.0, atol=1e-10)


def test_transmission_map_has_gaps_and_ridges(tmp_path):
    cfg = parse_config(_tiny_config())
    l1, l2, tmap = transmission_map(cfg, tmp_path)
    assert (tmap < 0.5).any()  # band-gap-like cells
    assert (tmap > 0.9).any()  # transmission ridges
    assert (tmp_path / "transmission_map.csv").exists()
    ridges = track_ridges(l1, l2, tmap)
    assert len(ridges) >= 1


def test_ridge_tracking_flags_lost():
    l1 = np.linspace(0, 1, 4)
    l2 = np.linspace(0, 1, 7)
    tmap = np.zeros((4, 7))
    tmap[0, 2] = 1.0
    tmap[1, 3] = 1.0
    tmap[2, 3] = 1.0  # then vanishes
    ridges = track_ridges(l1, l2, tmap, max_jump=2, floor=0.5)
    assert len(ridges) == 1
    assert ridges[0]["lost"]
    assert ridges[0]["points"] == [(0, 2), (1, 3), (2, 3)]


def test_verify_passes_on_small_config():
    cfg = parse_config(_tiny_config())
    report, ok = verify(cfg, bins=6)
    assert ok, report["checks"]


@pytest.mark.parametrize("attribution", ["local-jump", "per-slot"])
def test_verify_builds_each_emission_once(monkeypatch, attribution):
    """verify solves the stack and its split once each at `bins`.  The
    stack is assembled once, under either attribution: its slabs are read
    under the configured attribution and, for per-slot, under local-jump
    for the split-invariance check; the split stack's solve gives its
    full build and its fictitious boundary's source.  The bin-refinement
    study reuses the emission at `bins` and builds the other two
    levels."""
    cfg = parse_config(_tiny_config(surface_attribution=attribution))
    solved, assembled, built = [], [], []
    orig_solve = runner_mod.solve_emission
    orig_assemble = runner_mod.assemble_emission
    orig_build = runner_mod.build_emission

    def solving(structure, pump, basis):
        solved.append((structure.n_layers, basis.bins))
        return orig_solve(structure, pump, basis)

    def assembling(solve, boundary=None):
        assembled.append((solve.structure.n_layers, boundary))
        return orig_assemble(solve, boundary)

    def building(structure, pump, basis, *args, **kwargs):
        built.append((basis.bins, kwargs.get("boundary")))
        return orig_build(structure, pump, basis, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "solve_emission", solving)
    monkeypatch.setattr(runner_mod, "assemble_emission", assembling)
    monkeypatch.setattr(runner_mod, "build_emission", building)
    report, ok = verify(cfg, bins=6)
    assert ok, report["checks"]
    n = cfg.structure.n_layers
    mid = max(1, n // 2)
    assert solved == [(n, 6), (n + 1, 6)]
    assert assembled == [(n, None), (n + 1, None), (n + 1, mid + 1)]
    assert built == [(3, None), (12, None)]


def test_shipped_verify_solves_six_times_and_marches_once(monkeypatch):
    """One ``verify --bins 12`` of the shipped config makes 6 linear
    solves: the stack and its split at 12 bins, the refinement builds at
    6 and 24, the energy probe and the oracle's pump and partner modes.
    The oracle marches once, both row fields at both Richardson steps."""
    cfg = load_config(EXAMPLE)
    marches, oracles = [], []
    solves = count_field_maps(monkeypatch)
    orig_march = oracle_mod._march
    monkeypatch.setattr(oracle_mod, "_march", lambda *args: marches.append(
        args[-1]) or orig_march(*args))
    orig_oracle = runner_mod.reference_pair_amplitude
    monkeypatch.setattr(runner_mod, "reference_pair_amplitude",
                        lambda *args, **kwargs: oracles.append(args) or
                        orig_oracle(*args, **kwargs))
    report, ok = verify(cfg, bins=12)
    assert ok, report["checks"]
    assert len(solves) == 6
    assert len(oracles) == len(marches) == 1
    growth, weighted = next(iter(marches[0].values()))
    assert len(growth) == len(weighted) == 2  # the step and its half


def test_verify_detects_corrupted_kernels(monkeypatch):
    cfg = parse_config(_tiny_config())
    orig = matrixcore_mod.class_kernels

    def corrupted(*args, **kwargs):
        out = {}
        for edge, (chi, surface, ik) in orig(*args, **kwargs).items():
            out[edge] = (1.02 * chi, surface, ik)  # the arriving kernel
        return out

    monkeypatch.setattr(matrixcore_mod, "class_kernels", corrupted)
    report, ok = verify(cfg, bins=6)
    assert not ok
    assert report["checks"]["oracle_total_amplitude"]["error"] > 1e-4


def test_verify_detects_a_broken_interference_term(monkeypatch):
    """decomposition_identity holds n_V + n_S + n_I to the density of the
    summed branch factors, so an interference term that doubles one cross
    product instead of adding both fails it; every other check passes."""
    cfg = load_config(EXAMPLE)
    orig = runner_mod.joint_density

    def broken(emission, channel, *factors):
        f1, f2 = zip(*(branch_amplitudes(emission, channel, w) for w in "VS"))
        # density(V, S) counted twice, density(S, V) never
        return replace(orig(emission, channel, *factors),
                       n_interf=2.0 * (2.0 * np.real(f1[0] * f2[1])))

    monkeypatch.setattr(runner_mod, "joint_density", broken)
    report, ok = verify(cfg, bins=12)
    failed = [n for n, c in report["checks"].items() if c["error"] > c["tol"]]
    assert not ok
    assert failed == ["decomposition_identity"]


def test_verify_surface_null_detects_a_left_edge_surface_offset(monkeypatch):
    """verify splits the shipped stack's GaN layer 11, the first nonlinear
    layer from the middle on, so a class pass runs at the fictitious
    boundary: a left-edge surface kernel off by 1e-6 leaves a source there
    (2.3e-7 of the emission) and fails the surface null and the split
    invariance.  Split at the middle layer 10, linear AlN, no pass ran
    there, the null read exactly 0 and every check passed."""
    cfg = load_config(EXAMPLE)
    orig = matrixcore_mod.class_kernels

    def offset(*args, **kwargs):
        kernels = orig(*args, **kwargs)
        chi, surface, ik = kernels["left"]
        return {**kernels, "left": (chi, (1.0 + 1e-6) * surface, ik)}

    monkeypatch.setattr(matrixcore_mod, "class_kernels", offset)
    report, ok = verify(cfg, bins=12)
    failed = [n for n, c in report["checks"].items() if c["error"] > c["tol"]]
    assert not ok
    assert failed == ["split_invariance_GV", "split_invariance_GS",
                      "fictitious_surface_null"]


def test_verify_detects_non_unitary_scattering(monkeypatch):
    cfg = parse_config(_tiny_config())
    orig = linear_mod.input_output_map
    monkeypatch.setattr(linear_mod, "input_output_map",
                        lambda t: 1.001 * orig(t))
    report, ok = verify(cfg, bins=6)
    assert report["checks"]["scattering_unitary"]["error"] > 1e-9
    assert ok is False


def test_cli_simulate_and_dump_and_verify(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "summary.json").exists()
    rc = main(["dump-matrix", "--config", str(cfg_path), "--name", "F",
               "--out", str(tmp_path / "F.csv"), "--bins", "2"])
    assert rc == 0
    header = (tmp_path / "F.csv").read_text().splitlines()[0]
    assert "s/F/x/0" in header
    rc = main(["verify", "--config", str(cfg_path), "--bins", "4"])
    assert rc == 0
    rc = main(["simulate", "--config", str(tmp_path / "missing.json"),
               "--out-dir", str(out)])
    assert rc == 2


def _dump_reference(cfg, name, bins):
    """The dense form of dump ``name`` built independently of
    ``BlockMatrix``, by label lookups: the linear names from both sectors
    of ``linear_maps`` (``outward_maps`` for X, Y, Z) or from
    ``propagator_bins``, the pair names from a build that stores both row
    sectors: GV and GS from the full build, as ``simulate`` makes it,
    SV:l and SS:l from the build of boundary l."""
    key, _, text = name.partition(":")
    idx = int(text) if text else None
    basis, st = cfg.basis(bins), cfg.structure
    if key == "P":
        p = propagator_bins(st.material(idx), st.length(idx), basis)
        return dense_bins({"s": p, "i": np.conj(p)})
    if key in ("GV", "GS", "SV", "SS"):
        em = two_sector_emission(st, cfg.pump, basis, boundary=idx,
                                 convention=cfg.attribution)
        return two_sector_dense(em.g_volume if key in ("GV", "SV")
                                else em.g_surface)
    pick = {
        "T": lambda m: m.at_left[-1 if idx is None else idx],
        "L": lambda m: m.interface[idx],
        "F": lambda m: m.scatter,
        "W": lambda m: m.feed,
        "X": lambda m: outward_maps(m, idx)[0],
        "Y": lambda m: outward_maps(m, 1)[1],
        "Z": lambda m: outward_maps(m, 1)[2],
    }[key]
    return dense_bins({f: pick(m) for f, m in linear_maps(st, basis).items()},
                      ROW_CHANNELS if key == "L" else MODE_CHANNELS)


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_cli_dump_matrix_every_name(tmp_path, name):
    """Every dump, on the tiny config at 2 bins (index 1) and on the
    shipped one at 4 bins (index 2), has the labels of its channels and
    values bit-equal, signed zeros included, to ``_dump_reference``."""
    tiny = tmp_path / "cfg.json"
    tiny.write_text(json.dumps(_tiny_config()))
    for cfg_path, bins, index in ((str(tiny), 2, "1"), (EXAMPLE, 4, "2")):
        dump = name.replace(":l", ":" + index)
        out = tmp_path / "m.csv"
        rc = main(["dump-matrix", "--config", cfg_path, "--name", dump,
                   "--out", str(out), "--bins", str(bins)])
        assert rc == 0
        lines = [line.split(",") for line in out.read_text().splitlines()]
        rows = ROW_CHANNELS if name.startswith("L") else MODE_CHANNELS
        assert lines[0] == ["row\\col"] + labels(MODE_CHANNELS, bins)
        assert [line[0] for line in lines[1:]] == labels(rows, bins)
        values = np.array([[complex(v) for v in line[1:]]
                           for line in lines[1:]])
        assert np.all(np.isfinite(values))
        expected = _dump_reference(load_config(cfg_path), dump, bins)
        assert np.array_equal(values.view(np.int64),
                              expected.view(np.int64)), dump


@pytest.mark.parametrize("name", [
    "L", "X", "P", "SV", "SS",  # index missing
    "L:x", "P:1.5", "SV:", "T:one",  # index not an integer
    "T:-1", "T:99", "P:4", "L:4", "X:0", "SV:0", "SS:4",  # out of range
    "F:x", "W:1", "Y:1", "Z:1", "GV:1", "GS:0",  # index on a plain name
])
def test_cli_dump_matrix_bad_name_is_config_error(tmp_path, capsys, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))  # 2 layers
    out = tmp_path / "m.csv"
    rc = main(["dump-matrix", "--config", str(cfg_path), "--name", name,
               "--out", str(out), "--bins", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch, command):
    """An exception that is not an SpdcError is a fault of the program:
    exit 3, not verify's FAIL code 1, with one error line and no
    traceback."""
    def broken(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(cli_mod, command, broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    argv = [command, "--config", str(cfg_path)]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: internal: RuntimeError: planted fault\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["simulate", "--bins", "0"],
                                     ["verify", "--bins", "1"]])
def test_cli_too_few_bins_is_config_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    argv = command + ["--config", str(cfg_path)]
    if command[0] == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("content", [None, "{ not json }", "[1, 2]",
                                     '{"materials": 0}'])
def test_cli_bad_structure_file_is_config_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    structure = tmp_path / "structure.json"
    if content is not None:
        structure.write_text(content)
    for command in ("simulate", "transmission-map"):
        rc = main([command, "--config", str(cfg_path), "--structure",
                   str(structure), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "structure.json" in err
        assert err.count("\n") == 1
        if content == '{"materials": 0}':  # named, not a TypeError
            assert "materials must be a JSON object" in err


def test_cli_structure_file_unknown_key_is_config_error(tmp_path, capsys):
    raw = _tiny_config()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    structure = tmp_path / "structure.json"
    structure.write_text(json.dumps({"structur": raw["structure"]}))
    for command in (["simulate", "--out-dir", str(tmp_path / "out")],
                    ["transmission-map", "--out-dir", str(tmp_path / "map")]):
        rc = main(command + ["--config", str(cfg_path),
                             "--structure", str(structure)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "structur" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "map").exists()
    # the two known keys still apply
    structure.write_text(json.dumps({"structure": raw["structure"],
                                     "materials": raw["materials"]}))
    assert main(["transmission-map", "--config", str(cfg_path),
                 "--structure", str(structure),
                 "--out-dir", str(tmp_path / "map")]) == 0


@pytest.mark.parametrize("t_idler_fs", [None, 3.0])
def test_simulate_temporal_outputs_match_per_profile_reference(tmp_path,
                                                               t_idler_fs):
    """temporal_flux.csv, temporal_conditional.csv and summary["temporal"]
    equal a reference built from one temporal_profiles call per
    contribution, with every cut taken at the SV joint peak's idler time
    unless observe.conditional_t_idler_fs sets it."""
    raw = _tiny_config()
    if t_idler_fs is not None:
        raw["observe"]["conditional_t_idler_fs"] = t_idler_fs
    cfg = parse_config(raw)
    _, emission, _ = simulate(cfg, tmp_path)
    amps = two_photon_amplitude(emission, cfg.channel)
    ws = ("V", "S", "SV")
    profs = {w: temporal_profiles(amps[w], n_time=cfg.time_points) for w in ws}
    t = profs["SV"].t
    grids = {w: explicit_time_grid(amps[w], cfg.time_points) for w in ws}
    peaks = {w: np.unravel_index(np.argmax(grids[w]), grids[w].shape)
             for w in ws}
    t_cond = (t[peaks["SV"][1]] if t_idler_fs is None
              else cfg.conditional_t_idler)
    cuts = {w: profs[w].conditional_cut(t_cond)[1] for w in ws}
    if t_idler_fs is None:  # the cuts of V and S are not at their own peak
        assert peaks["V"][1] != peaks["SV"][1]

    for name, prefix, cols in (
        ("temporal_flux.csv", "p_s", {w: profs[w].p_signal for w in ws}),
        ("temporal_conditional.csv", "p_cond", cuts),
    ):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].split(",") == ["t_s"] + [f"{prefix}_{w}_per_s"
                                                 for w in ws]
        data = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        assert np.array_equal(data, np.column_stack([t] + [cols[w]
                                                           for w in ws]))

    temporal = json.loads((tmp_path / "summary.json").read_text())["temporal"]
    assert temporal["grid_points"] == cfg.time_points
    assert temporal["grid_span_fs"] == float((t[-1] - t[0]) * 1e15)
    assert temporal["conditional_t_idler_fs"] == float(t_cond * 1e15)
    for w in ws:
        assert temporal["peaks"][w] == {
            "joint_peak_t_s_fs": t[peaks[w][0]] * 1e15,
            "joint_peak_t_i_fs": t[peaks[w][1]] * 1e15,
            "flux_fwhm_fs": width_fwhm(t, profs[w].p_signal) * 1e15,
            "parseval_ratio": profs[w].parseval_ratio,
        }
        assert temporal["conditional_fwhm_fs"][w] == (
            width_fwhm(t, cuts[w]) * 1e15)


def test_cli_window_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out),
               "--bins", "4", "--window-lo", "0.4", "--window-hi", "0.6"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bins"] == 4


def test_scan_cli_and_worker_independence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    raw = _tiny_config()
    raw["scan"]["l1_nm"] = [30.0, 90.0, 5]
    raw["scan"]["l2_nm"] = [30.0, 90.0, 5]
    raw["scan"]["bins"] = 3
    cfg_path.write_text(json.dumps(raw))
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    rc = main(["scan", "--config", str(cfg_path), "--out-dir", str(out1)])
    assert rc == 0
    rc = main(["scan", "--config", str(cfg_path), "--out-dir", str(out2),
               "--workers", "2"])
    assert rc == 0
    assert (out1 / "ridge_scan.csv").read_bytes() == (
        out2 / "ridge_scan.csv"
    ).read_bytes()


def test_cli_scan_bins_overrides_scan_bins(tmp_path):
    """scan --bins N runs the ridge yields at N bins: its ridge_scan.csv is
    byte for byte that of a config with scan.bins = N, and not that of
    the config's own scan.bins."""
    raw = _tiny_config()
    raw["scan"].update({"l1_nm": [30.0, 90.0, 5], "l2_nm": [30.0, 90.0, 5]})
    paths = {}
    for name, bins in (("own", 4), ("three", 3)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(
            {**raw, "scan": {**raw["scan"], "bins": bins}}))
    runs = {"own": ["--config", str(paths["own"])],
            "three": ["--config", str(paths["three"])],
            "flag": ["--config", str(paths["own"]), "--bins", "3"]}
    csv_of = {}
    for name, argv in runs.items():
        assert main(["scan", "--out-dir", str(tmp_path / name)] + argv) == 0
        csv_of[name] = (tmp_path / name / "ridge_scan.csv").read_bytes()
    assert csv_of["flag"] == csv_of["three"]
    assert csv_of["flag"] != csv_of["own"]


def test_cli_transmission_map_bins_exits_2(tmp_path, capsys):
    """transmission-map has no spectral basis: --bins exits 2 with one
    error line naming the flag, before any output is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    rc = main(["transmission-map", "--config", str(cfg_path), "--out-dir",
               str(out), "--bins", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --bins ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["l1_nm", "l2_nm"])
def test_nonpositive_scan_range_end_rejected_at_parse_time(key):
    for bad in ([0.0, 100.0, 9], [20.0, -5.0, 9], [-20.0, 100.0, 1]):
        raw = _tiny_config()
        raw["scan"][key] = bad
        with pytest.raises(ConfigError, match=f"scan.{key} ends must be "
                                              "positive"):
            parse_config(raw)


@pytest.mark.parametrize("command", ["scan", "transmission-map"])
@pytest.mark.parametrize("flag,key", [("--l1-range", "l1_nm"),
                                      ("--l2-range", "l2_nm")])
def test_cli_nonpositive_scan_range_exits_2(tmp_path, capsys, command, flag,
                                            key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--out-dir", str(out),
               flag, "0", "90", "5"])
    assert rc == 2
    assert f"scan.{key} ends must be positive" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output is written


def test_backward_pump_and_backward_channel(tmp_path):
    raw = _tiny_config()
    raw["pump"]["side"] = "B"
    raw["observe"].update({"signal_dir": "B", "idler_dir": "B"})
    cfg = parse_config(raw)
    summary, _, _ = simulate(cfg, tmp_path / "bb")
    assert summary["pairs_per_pulse"]["SV"] > 0
    assert summary["channel"]["signal_dir"] == "B"
    # mirrored stack pumped from the other side: forward observation of
    # the mirror equals backward observation of the original
    raw2 = _tiny_config()
    raw2["pump"]["side"] = "F"
    raw2["structure"]["layers"] = list(reversed(raw2["structure"]["layers"]))
    raw2["observe"].update({"signal_dir": "F", "idler_dir": "F"})
    cfg2 = parse_config(raw2)
    summary2, _, _ = simulate(cfg2, tmp_path / "ff")
    a = summary["pairs_per_pulse"]["SV"]
    b = summary2["pairs_per_pulse"]["SV"]
    assert abs(a - b) / b < 1e-10


@pytest.mark.parametrize("fraction", ["0", "nan", "-20"])
def test_cli_verify_bad_step_fraction_exits_2(tmp_path, capsys, fraction):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "report.json"
    rc = main(["verify", "--config", str(cfg_path), "--bins", "4",
               "--step-fraction", fraction, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step fraction" in err
    assert not out.exists()


def test_cli_verify_long_slab_oracle_step(tmp_path, capsys):
    """A 400 nm n = 2.4 slab over the example config: the oracle step must
    resolve the pump phase across the slab, not only the thinnest layer
    (which is the slab itself), or the oracle misses the emission maps
    by about 1e-2."""
    slab = tmp_path / "slab.json"
    slab.write_text(json.dumps({
        "materials": {"slab": {"dispersion": {"type": "constant", "n": 2.4},
                               "chi2": [{"pol": "y;xy",
                                         "d_m_per_V": 4e-12}]}},
        "structure": {"ambient_in": "air", "ambient_out": "air",
                      "layers": [{"material": "slab", "length_nm": 400.0,
                                  "poling": 1}]}}))
    out = tmp_path / "report.json"
    rc = main(["verify", "--config", EXAMPLE, "--structure", str(slab),
               "--bins", "8", "--out", str(out)])
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert rc == 0 and report["ok"]
    assert report["checks"]["oracle_total_amplitude"]["error"] < 1e-5


def test_cli_window_lo_without_hi_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out),
               "--window-lo", "0.4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--window-hi" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "transmission-map"])
@pytest.mark.parametrize("flag", ["--l1-range", "--l2-range"])
def test_cli_scan_range_without_scan_section_exits_2(tmp_path, capsys,
                                                     command, flag):
    raw = _tiny_config()
    del raw["scan"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    argv = [command, "--config", str(cfg_path), "--out-dir"]
    # without the override it is already a config error, raised before
    # the output directory is made
    plain = tmp_path / "plain"
    assert main(argv + [str(plain)]) == 2
    assert "no 'scan' section" in capsys.readouterr().err
    assert not plain.exists()
    out = tmp_path / "out"
    assert main(argv + [str(out), flag, "30", "90", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no scan section" in err
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("verify", []),
    ("scan", ["--out-dir", "OUT"]),
    ("transmission-map", ["--out-dir", "OUT"]),
    ("dump-matrix", ["--name", "F", "--out", "OUT"]),
])
@pytest.mark.parametrize("flag", ["--window-lo", "--window-hi"])
def test_cli_window_flags_only_on_simulate(tmp_path, capsys, command, args,
                                           flag):
    """Only simulate reads the spectral window; elsewhere argparse rejects
    the flags (exit 2) instead of ignoring them."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    argv = ([command, "--config", str(cfg_path), "--bins", "2"]
            + [str(out) if a == "OUT" else a for a in args] + [flag, "0.4"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_scan_workers_below_one_exits_2(tmp_path, capsys, workers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "out"
    rc = main(["scan", "--config", str(cfg_path), "--out-dir", str(out),
               "--workers", workers])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers must be at least 1" in err
    assert not out.exists()


_MALFORMED = [  # (path of the entry, its bad value, what the error names)
    (("materials",), 0, "materials"),
    (("pump",), None, "pump"),
    (("observe",), [], "observe"),
    (("scan",), None, "scan"),
    (("structure", "layers", 0), 0.5, "structure.layers"),
    (("materials", "nl", "chi2"), 0, "material nl chi2"),
    (("materials", "nl", "chi2", 0, "pol"), 5, "pol triple"),
    (("materials", "nl", "chi2", 0, "pol"), "y;xyz", "material nl chi2 pol"),
    (("pump", "wavelength_nm"), 0, "pump.wavelength_nm"),
    (("pump", "fwhm_nm"), 0, "pump.fwhm_nm"),
    (("pump", "energy_J_per_m2"), -1, "pump.energy_J_per_m2"),
    (("pump", "cutoff_nsigma"), -1, "pump.cutoff_nsigma"),
]


@pytest.mark.parametrize("path,value,named", _MALFORMED,
                         ids=[named.replace(" ", "-")
                              for _, _, named in _MALFORMED])
def test_cli_malformed_config_exits_2(tmp_path, capsys, path, value, named):
    """A section or entry of the wrong type, or a nonpositive pump
    parameter, is one error line and exit 2, never a traceback."""
    raw = _tiny_config()
    entry = raw
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = main(["simulate", "--config", str(cfg_path), "--bins", "8",
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


def test_cli_pump_past_material_window_names_the_key(tmp_path, capsys):
    """A 28 nm FWHM pump on the shipped config: its 8 sigma cutoff reaches
    299.3 nm, past the 0.3 um end of GaN's window_um.  The band is checked
    when the config loads, so every bin count exits 2 with the same one
    error line naming that key, whether or not a lit bin sum of its grid
    lies past the end (at 35 bins one does).  The shipped pump and a
    20 nm one (band edge 322.5 nm) still load."""
    with open(EXAMPLE) as fh:
        raw = json.load(fh)
    raw["pump"]["fwhm_nm"] = 28.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    runs = [["simulate", "--out-dir", str(tmp_path / "out"), "--bins", b]
            for b in ("8", "17", "31", "35", "39", "64", "128")]
    runs += [["verify", "--bins", b] for b in ("12", "31")]
    errors = set()
    for run in runs:
        rc = main(run[:1] + ["--config", str(cfg_path)] + run[1:])
        err = capsys.readouterr().err
        assert rc == 2, run
        assert err.count("\n") == 1
        errors.add(err)
    (err,) = errors
    assert err.startswith("error: materials.GaN.dispersion.window_um: "
                          "pump band [")
    assert "outside validity window" in err
    raw["pump"]["fwhm_nm"] = 20.0
    parse_config(raw)


def test_pump_band_checked_on_every_material_a_run_lights(tmp_path, capsys):
    """The band check covers the layers, the ambients and the scan's
    materials, and a --structure override is checked as it loads; a
    material that no run evaluates at pump frequencies is not checked."""
    narrow = {"dispersion": {"type": "constant", "n": 1.5,
                             "window_um": [0.41, 2.0]}}
    raw = _tiny_config()
    raw["materials"]["narrow"] = narrow
    parse_config(raw)  # defined but unused
    for section, key in (("structure", "ambient_out"), ("scan", "material_b")):
        bad = _tiny_config()
        bad["materials"]["narrow"] = narrow
        bad[section] = {**bad[section], key: "narrow"}
        with pytest.raises(ConfigError,
                           match=r"^materials\.narrow\.dispersion\.window_um: "
                                 r"pump band "):
            parse_config(bad)
    cfg_path, override = tmp_path / "cfg.json", tmp_path / "st.json"
    cfg_path.write_text(json.dumps(raw))
    override.write_text(json.dumps({"structure": {
        "ambient_in": "air", "ambient_out": "air",
        "layers": [{"material": "narrow", "length_nm": 50.0}]}}))
    rc = main(["simulate", "--config", str(cfg_path), "--structure",
               str(override), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: materials.narrow.dispersion.window_um: ")
    assert err.count("\n") == 1


def test_nan_kernel_is_a_numerical_breakdown(tmp_path, monkeypatch,
                                            capsys):
    """A nan class kernel makes G non-finite: the assembly raises
    NumericalBreakdown, not ConfigError, and the CLI exits 2 with one
    error line."""
    orig = matrixcore_mod.class_kernels

    def planted(*args):
        kernels = orig(*args)
        kernels["right"][0].flat[0] = np.nan
        return kernels

    monkeypatch.setattr(matrixcore_mod, "class_kernels", planted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    with pytest.raises(NumericalBreakdown,
                       match="^non-finite entries in G$") as err:
        simulate(load_config(cfg_path), tmp_path / "sim")
    assert not isinstance(err.value, ConfigError)
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: non-finite entries in G\n"


def test_simulate_nan_amplitude_raises_no_peak(tmp_path, monkeypatch):
    """A nan two-photon amplitude is not skipped as dark: it stops the
    run with NoPeak."""
    orig = runner_mod.two_photon_amplitude

    def poisoned(*args):
        amps = orig(*args)
        amps["SV"].matrix[0, 0] = np.nan
        return amps

    monkeypatch.setattr(runner_mod, "two_photon_amplitude", poisoned)
    with pytest.raises(NoPeak, match="not finite"):
        simulate(parse_config(_tiny_config()), tmp_path / "out")
