import json
import os
from collections import Counter

import numpy as np
import pytest

import spdc1d.matrixcore as matrixcore_mod
import spdc1d.runner as runner_mod
import spdc1d.spectral as spectral_mod
from spdc1d.cli import main
from spdc1d.config import ConfigError, load_config, parse_config
from spdc1d.blockmatrix import BlockMatrix, mode_space, row_space
from spdc1d.matrixcore import build_emission
from spdc1d.observables import (
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
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [values, values[:-1]])


def test_simulate_all_linear_flags_no_emission(tmp_path):
    raw = _tiny_config()
    raw["materials"]["nl"]["chi2"] = []
    cfg = parse_config(raw)
    summary, _, _ = simulate(cfg, tmp_path / "lin")
    assert summary["no_emission"]
    assert summary["counts_per_mm2"]["SV"] == 0.0


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
    """The bin-refinement study reuses the main emission at `bins`; the
    other builds at `bins` are the split stack and, for per-slot, the
    local-jump reference of the split-invariance check."""
    cfg = parse_config(_tiny_config(surface_attribution=attribution))
    built = []
    orig = runner_mod.build_emission

    def counting(structure, pump, basis, *args, **kwargs):
        built.append(basis.bins)
        return orig(structure, pump, basis, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "build_emission", counting)
    report, ok = verify(cfg, bins=6)
    assert ok, report["checks"]
    at_bins = 3 if attribution == "per-slot" else 2
    assert Counter(built) == {3: 1, 6: at_bins, 12: 1}


def test_verify_detects_corrupted_kernels(monkeypatch):
    cfg = parse_config(_tiny_config())
    orig = spectral_mod._edge_kernels

    def corrupted(coupling, edge, convention="local-jump"):
        chi, hv, hs = orig(coupling, edge, convention)
        return 1.02 * chi, hv, hs

    monkeypatch.setattr(spectral_mod, "_edge_kernels", corrupted)
    report, ok = verify(cfg, bins=6)
    assert not ok
    assert report["checks"]["oracle_total_amplitude"]["error"] > 1e-4


def test_verify_detects_non_unitary_scattering(monkeypatch):
    cfg = parse_config(_tiny_config())
    orig = matrixcore_mod.input_output_map
    monkeypatch.setattr(matrixcore_mod, "input_output_map",
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


def _labels(space):
    return ["/".join(map(str, lab)) for lab in space.labels()]


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_cli_dump_matrix_every_name(tmp_path, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    name = name.replace(":l", ":1")  # boundary / layer 1 exists in the stack
    out = tmp_path / "m.csv"
    rc = main(["dump-matrix", "--config", str(cfg_path), "--name", name,
               "--out", str(out), "--bins", "2"])
    assert rc == 0
    lines = [line.split(",") for line in out.read_text().splitlines()]
    rows = row_space("r", 2) if name.startswith("L") else mode_space("r", 2)
    assert lines[0] == ["row\\col"] + _labels(mode_space("c", 2))
    assert [line[0] for line in lines[1:]] == _labels(rows)
    values = np.array([[complex(v) for v in line[1:]] for line in lines[1:]])
    assert np.all(np.isfinite(values))
    if name in ("F", "GV", "GS", "SV:1", "SS:1"):
        cfg = parse_config(_tiny_config())
        basis = cfg.basis(2)
        em = build_emission(cfg.structure, cfg.pump, basis,
                            keep_sources=True, convention=cfg.attribution)
        pairs = {"GV": em.g_volume, "GS": em.g_surface,
                 "SV:1": em.boundary_sources[1][0],
                 "SS:1": em.boundary_sources[1][1]}
        expected = em.f_linear if name == "F" else BlockMatrix.from_pairs(
            mode_space("r", 2), mode_space("c", 2), pairs[name])
        assert np.array_equal(values, expected.data)


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


@pytest.mark.parametrize("content", [None, "{ not json }", "[1, 2]"])
def test_cli_bad_structure_file_is_config_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    structure = tmp_path / "structure.json"
    if content is not None:
        structure.write_text(content)
    rc = main(["simulate", "--config", str(cfg_path), "--structure",
               str(structure), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "structure.json" in err


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
    peaks = {w: np.unravel_index(np.argmax(profs[w].p), profs[w].p.shape)
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
