"""High-level runs: single simulations, geometry scans, verification.

All outputs are deterministic: fixed float formatting, sorted JSON keys,
no randomness anywhere in the pipeline; scan cells are independent and
merged in index order regardless of worker scheduling.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .blockmatrix import BlockMatrix, mode_space, row_space
from .config import RunConfig
from .errors import ConfigError, NoPeak
from .linear import linear_transmission
from .matrixcore import (
    build_emission,
    linear_maps,
    outward_maps,
    propagator_bins,
)
from .observables import (
    antidiagonal_profile,
    branch_amplitudes,
    joint_density,
    marginals_and_counts,
    temporal_profiles,
    two_photon_amplitude,
    width_fwhm,
)
from .oracle import compare_with_emission, reference_pair_amplitude
from .structure import StructureSpec

M2_PER_MM2 = 1e-6  # counts per quantization area (1 m^2) -> per mm^2


def write_csv(path, header, columns):
    """Real-valued array columns, one %.17g-formatted row per line."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in
                      zip(*(col.tolist() for col in columns), strict=True))


def write_json(path, obj):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _fwhm_fs(t, y):
    """FWHM of y(t) in fs, or None when y has no usable peak."""
    try:
        return width_fwhm(t, y) * 1e15
    except NoPeak:
        return None


def _json_ratio(x):
    """Ratios must serialize without NaN/Inf; flag degenerate ones."""
    return float(x) if np.isfinite(x) else None


def simulate(cfg: RunConfig, out_dir, bins=None, window=None):
    """Full single-structure run; writes CSV arrays plus a JSON summary."""
    os.makedirs(out_dir, exist_ok=True)
    basis = cfg.basis(bins, window)
    emission = build_emission(cfg.structure, cfg.pump, basis,
                              convention=cfg.attribution)
    channel = cfg.channel
    jd = joint_density(emission, channel)
    decomp = np.max(
        np.abs(jd.n_total - (jd.n_volume + jd.n_surface + jd.n_interf))
    )
    assert decomp == 0.0  # identity by construction
    stats = marginals_and_counts(jd)

    k = basis.bins
    ws = np.repeat(jd.omega, k)
    wi = np.tile(jd.omega, k)
    write_csv(
        os.path.join(out_dir, "joint_density.csv"),
        ["omega_s_rad_s", "omega_i_rad_s", "n_V_s2", "n_S_s2", "n_I_s2",
         "n_SV_s2"],
        [ws, wi] + [jd.continuous(w).ravel() for w in ("V", "S", "I", "SV")],
    )
    write_csv(
        os.path.join(out_dir, "marginals.csv"),
        ["omega_s_rad_s", "n_s_V", "n_s_S", "n_s_I", "n_s_SV", "eta_s",
         "eta_valid"],
        [jd.omega]
        + [stats["marginals"][w] for w in ("V", "S", "I", "SV")]
        + [stats["eta_s"], stats["eta_valid"].astype(float)],
    )

    amps = two_photon_amplitude(emission, channel)
    curves, peaks, cond_widths = {}, {}, {}
    t_cond = cfg.conditional_t_idler
    for w in ("SV", "V", "S"):  # SV first: its joint peak sets t_cond
        if np.max(np.abs(amps[w].matrix)) == 0.0:
            continue
        prof = temporal_profiles(amps[w], n_time=cfg.time_points)
        t = prof.t
        peak = np.unravel_index(np.argmax(prof.p), prof.p.shape)
        if t_cond is None:
            t_cond = t[peak[1]]
        _, cut = prof.conditional_cut(t_cond)
        curves[w] = (prof.p_signal, cut)
        peaks[w] = {
            "joint_peak_t_s_fs": t[peak[0]] * 1e15,
            "joint_peak_t_i_fs": t[peak[1]] * 1e15,
            "flux_fwhm_fs": _fwhm_fs(t, prof.p_signal),
            "parseval_ratio": prof.parseval_ratio,
        }
        cond_widths[w] = _fwhm_fs(t, cut)
        del prof  # drop the time_points^2 grid before the next is built
    shown = [w for w in ("V", "S", "SV") if w in curves]
    if shown:
        write_csv(os.path.join(out_dir, "temporal_flux.csv"),
                  ["t_s"] + [f"p_s_{w}_per_s" for w in shown],
                  [t] + [curves[w][0] for w in shown])

    summary = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "bins": basis.bins,
        "window_rad_s": [basis.omega_min, basis.omega_max],
        "channel": {
            "signal_dir": channel[0], "idler_dir": channel[1],
            "signal_pol": channel[2], "idler_pol": channel[3],
        },
        "surface_attribution": cfg.attribution,
        "pairs_per_pulse": {
            w: stats["counts"][w] for w in ("V", "S", "I", "SV")
        },
        "counts_per_mm2": {
            w: stats["counts"][w] * M2_PER_MM2 for w in ("V", "S", "I", "SV")
        },
        "ratio_surface_volume": _json_ratio(stats["ratio_surface_volume"]),
        "warnings": list(emission.warnings),
        "no_emission": bool(stats["counts"]["SV"] == 0.0),
    }

    if "SV" in curves:
        write_csv(os.path.join(out_dir, "temporal_conditional.csv"),
                  ["t_s"] + [f"p_cond_{w}_per_s" for w in shown],
                  [t] + [curves[w][1] for w in shown])
        summary["temporal"] = {
            "grid_points": int(t.size),
            "grid_span_fs": float((t[-1] - t[0]) * 1e15),
            "conditional_t_idler_fs": float(t_cond * 1e15),
            "conditional_fwhm_fs": cond_widths,
            "peaks": peaks,
        }

    anti_ws, anti_v = antidiagonal_profile(jd.continuous("V"), jd.omega,
                                           cfg.omega_p0)
    if anti_ws.size:
        _, anti_s = antidiagonal_profile(jd.continuous("S"), jd.omega,
                                         cfg.omega_p0)
        _, anti_sv = antidiagonal_profile(jd.continuous("SV"), jd.omega,
                                          cfg.omega_p0)
        write_csv(
            os.path.join(out_dir, "antidiagonal.csv"),
            ["omega_s_rad_s", "n_V_s2", "n_S_s2", "n_SV_s2"],
            [anti_ws, anti_v, anti_s, anti_sv],
        )
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary, emission, jd


def _pair_stack(cfg, l1_m, l2_m):
    scan = cfg.scan
    mat_a = cfg.materials[scan.material_a]
    mat_b = cfg.materials[scan.material_b]
    layers = ((mat_a, l1_m, 1), (mat_b, l2_m, 1)) * scan.pairs
    return StructureSpec(layers, cfg.structure.ambient_in,
                         cfg.structure.ambient_out)


def transmission_map(cfg: RunConfig, out_dir=None):
    """Pump intensity transmission over the (l1, l2) geometry grid."""
    if cfg.scan is None:
        raise ConfigError("config has no 'scan' section")
    lo1, hi1, n1 = cfg.scan.l1_nm
    lo2, hi2, n2 = cfg.scan.l2_nm
    l1 = np.linspace(lo1, hi1, int(n1))
    l2 = np.linspace(lo2, hi2, int(n2))
    tmap = np.empty((l1.size, l2.size))
    for i, a in enumerate(l1):
        for j, b in enumerate(l2):
            st = _pair_stack(cfg, a * 1e-9, b * 1e-9)
            _, _, big_t, _ = linear_transmission(st, cfg.omega_p0)
            tmap[i, j] = big_t
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(
            os.path.join(out_dir, "transmission_map.csv"),
            ["l1_nm", "l2_nm", "T_p"],
            [np.repeat(l1, l2.size), np.tile(l2, l1.size), tmap.ravel()],
        )
    return l1, l2, tmap


def _local_maxima(row, floor):
    idx = []
    for j in range(1, row.size - 1):
        if row[j] > row[j - 1] and row[j] >= row[j + 1] and row[j] > floor:
            idx.append(j)
    return idx


def track_ridges(l1, l2, tmap, max_jump=2, floor=0.05):
    """Transmission-peak curves in the (l1, l2) plane.

    Nearest-maximum continuation with a bounded jump; a ridge whose peak
    vanishes or is claimed by an earlier ridge is flagged lost.
    """
    ridges = []
    active = {}
    for j in _local_maxima(tmap[0], floor):
        ridges.append({"points": [(0, j)], "lost": False})
        active[len(ridges) - 1] = j
    for i in range(1, l1.size):
        maxima = _local_maxima(tmap[i], floor)
        taken = set()
        for rid in sorted(active):
            j0 = active[rid]
            best = None
            for j in maxima:
                if j in taken or abs(j - j0) > max_jump:
                    continue
                if best is None or abs(j - j0) < abs(best - j0):
                    best = j
            if best is None:
                ridges[rid]["lost"] = True
                del active[rid]
            else:
                taken.add(best)
                ridges[rid]["points"].append((i, best))
                active[rid] = best
        for j in maxima:
            if j not in taken:
                ridges.append({"points": [(i, j)], "lost": False})
                active[len(ridges) - 1] = j
    return ridges


def _scan_cell(args):
    cfg, l1_nm, l2_nm = args
    st = _pair_stack(cfg, l1_nm * 1e-9, l2_nm * 1e-9)
    basis = cfg.basis(bins=cfg.scan.bins)
    emission = build_emission(st, cfg.pump, basis, convention=cfg.attribution)
    jd = joint_density(emission, cfg.channel)
    stats = marginals_and_counts(jd)
    return {
        "l1_nm": l1_nm,
        "l2_nm": l2_nm,
        "N_SV_per_mm2": stats["counts"]["SV"] * M2_PER_MM2,
        "N_V_per_mm2": stats["counts"]["V"] * M2_PER_MM2,
        "N_S_per_mm2": stats["counts"]["S"] * M2_PER_MM2,
        "R": stats["ratio_surface_volume"] if np.isfinite(
            stats["ratio_surface_volume"]) else -1.0,
    }


def scan(cfg: RunConfig, out_dir, workers=1, min_ridge_points=4):
    """Transmission map, ridge tracking, and SPDC yields along ridges."""
    os.makedirs(out_dir, exist_ok=True)
    l1, l2, tmap = transmission_map(cfg, out_dir)
    ridges = track_ridges(l1, l2, tmap, max_jump=cfg.scan.ridge_max_jump)
    jobs = []
    meta = []
    for rid, ridge in enumerate(ridges):
        if len(ridge["points"]) < min_ridge_points:
            continue
        for (i, j) in ridge["points"]:
            jobs.append((cfg, float(l1[i]), float(l2[j])))
            meta.append((rid, i, j, ridge["lost"]))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_cell, jobs))
    else:
        results = [_scan_cell(j) for j in jobs]
    rows = {
        "ridge": [], "lost_flag": [], "l1_nm": [], "l2_nm": [], "T_p": [],
        "N_SV_per_mm2": [], "N_V_per_mm2": [], "N_S_per_mm2": [], "R": [],
    }
    for (rid, i, j, lost), res in zip(meta, results):
        rows["ridge"].append(float(rid))
        rows["lost_flag"].append(float(lost))
        rows["l1_nm"].append(res["l1_nm"])
        rows["l2_nm"].append(res["l2_nm"])
        rows["T_p"].append(tmap[i, j])
        for key in ("N_SV_per_mm2", "N_V_per_mm2", "N_S_per_mm2", "R"):
            rows[key].append(res[key])
    write_csv(
        os.path.join(out_dir, "ridge_scan.csv"),
        list(rows.keys()),
        [np.asarray(v) for v in rows.values()],
    )
    summary = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "ridges_tracked": len(ridges),
        "ridges_scanned": len({m[0] for m in meta}),
        "cells": len(jobs),
    }
    write_json(os.path.join(out_dir, "scan_summary.json"), summary)
    return ridges, rows, summary


def verify(cfg: RunConfig, bins=16, step_fraction=20.0, out_path=None):
    """Consistency report: oracle match, invariances, unitarity, Parseval.

    Returns (report, ok); every check carries its measured error and
    tolerance.
    """
    if bins < 2:
        raise ConfigError("verify needs at least 2 bins: its refinement "
                          "study also runs at half the bin count")
    basis = cfg.basis(bins=bins)
    structure = cfg.structure
    checks = {}

    emission = build_emission(structure, cfg.pump, basis,
                              convention=cfg.attribution)
    # F is 2x2 per bin and field: check F F-dagger = 1 block by block
    dev = max(np.max(np.abs(np.einsum("ijk,ljk->ilk", f, np.conj(f))
                            - np.eye(2)[:, :, None]))
              for f in emission.scatter.values())
    checks["scattering_unitary"] = {"error": float(dev), "tol": 1e-9}

    omega_probe = np.linspace(basis.omega_min, basis.omega_max, 7)
    _, _, big_t, big_r = linear_transmission(structure, omega_probe)
    checks["energy_conservation"] = {
        "error": float(np.max(np.abs(big_t + big_r - 1.0))), "tol": 1e-10
    }

    mid = max(1, structure.n_layers // 2)
    em_split = build_emission(
        structure.split_layer(mid, 0.5), cfg.pump, basis,
        keep_sources=True, convention="local-jump",
    )
    if cfg.attribution != "local-jump":
        emission_lj = build_emission(structure, cfg.pump, basis,
                                     convention="local-jump")
    else:
        emission_lj = emission
    scale_g = max(np.linalg.norm(emission.g_volume + emission.g_surface),
                  1e-300)
    for name, attr in (("GV", "g_volume"), ("GS", "g_surface")):
        diff = getattr(em_split, attr) - getattr(emission_lj, attr)
        checks[f"split_invariance_{name}"] = {
            "error": float(np.linalg.norm(diff) / scale_g), "tol": 1e-9
        }
    s_s = em_split.boundary_sources[mid + 1][1]
    checks["fictitious_surface_null"] = {
        "error": float(np.linalg.norm(s_s) / scale_g), "tol": 1e-10
    }

    min_len = min(structure.length(l) for l in range(1, structure.n_layers + 1))
    ref = reference_pair_amplitude(
        structure, cfg.pump, basis, step=min_len / step_fraction
    )
    checks["oracle_total_amplitude"] = {
        "error": float(compare_with_emission(ref, emission)), "tol": 1e-4
    }

    amps = two_photon_amplitude(emission, cfg.channel)
    if np.max(np.abs(amps["SV"].matrix)) > 0.0:
        prof = temporal_profiles(amps["SV"], n_time=max(512, 4 * bins))
        checks["parseval"] = {
            "error": float(abs(prof.parseval_ratio - 1.0)), "tol": 1e-8
        }
        checks["time_normalization"] = {
            "error": float(abs(prof.p.sum() * prof.dt**2 - 1.0)), "tol": 1e-6
        }
    jd = joint_density(emission, cfg.channel)
    checks["decomposition_identity"] = {
        "error": float(
            np.max(np.abs(jd.n_total - (jd.n_volume + jd.n_surface
                                        + jd.n_interf)))
        ),
        "tol": 0.0,
    }
    f1v, f2v = branch_amplitudes(emission, cfg.channel, "V")
    f1s, f2s = branch_amplitudes(emission, cfg.channel, "S")
    tot1, tot2 = f1v + f1s, f2v + f2s
    scale = max(np.max(np.abs(tot2)), 1e-300)
    checks["branch_conjugacy_total"] = {
        "error": float(np.max(np.abs(tot1 - np.conj(tot2))) / scale), "tol": 1e-8
    }

    # bin-refinement study: pair counts converge as the midpoint rule;
    # the middle level is the emission already built at `bins`
    counts = []
    for k_ref in (bins // 2, bins, 2 * bins):
        if k_ref == bins:
            jd_k = jd
        else:
            jd_k = joint_density(
                build_emission(structure, cfg.pump, cfg.basis(bins=k_ref),
                               convention=cfg.attribution), cfg.channel)
        counts.append(marginals_and_counts(jd_k)["counts"]["SV"])
    d_coarse = abs(counts[1] - counts[0])
    d_fine = abs(counts[2] - counts[1])
    ratio = d_coarse / d_fine if d_fine > 0 else np.inf
    checks["bins_refinement"] = {
        "error": 0.0 if ratio > 1.5 else float(1.5 - ratio),
        "tol": 0.0,
        "ratio": float(min(ratio, 1e6)),
    }
    checks["density_nonnegative"] = {
        "error": float(
            max(0.0, -min(jd.n_volume.min(), jd.n_surface.min(),
                          jd.n_total.min()) / max(jd.n_total.max(), 1e-300))
        ),
        "tol": 1e-15,
    }

    ok = all(c["error"] <= max(c["tol"], 0.0) for c in checks.values())
    report = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "bins": bins,
        "checks": checks,
        "ok": bool(ok),
    }
    if out_path is not None:
        write_json(out_path, report)
    return report, ok


MATRIX_NAMES = (
    "T", "F", "W", "Z", "Y", "GV", "GS", "T:l", "P:l", "L:l", "X:l",
    "SV:l", "SS:l",
)
# first ':l' of the indexed names: layers 0..N+1, boundaries 1..N+1
INDEX_START = {"T": 0, "P": 0, "L": 0, "X": 1, "SV": 1, "SS": 1}


def dump_matrix(cfg: RunConfig, name: str, out_path, bins=None):
    """Write one named pipeline matrix with labeled rows/columns to CSV.

    The linear maps (T, P, L, F, W, Z, Y, X) are expanded from their
    per-bin 2x2 form into labelled diagonal blocks, the pair maps (GV,
    GS, SV, SS) from their pair arrays into dense signal-idler blocks.
    """
    basis = cfg.basis(bins)
    structure = cfg.structure
    key, colon, text = name.partition(":")
    key = key.upper()
    if key not in MATRIX_NAMES and key not in INDEX_START:
        raise ConfigError(
            f"unknown matrix {name!r}; known: {', '.join(MATRIX_NAMES)}"
        )
    idx = None
    if colon or key not in MATRIX_NAMES:  # T alone is the full transfer
        if key not in INDEX_START:
            raise ConfigError(f"matrix {key} takes no index, got {name!r}")
        lo, hi = INDEX_START[key], structure.n_layers + 1
        idx = int(text) if text.isdecimal() else -1
        if not lo <= idx <= hi:
            raise ConfigError(f"{name!r}: {key} needs an index in {lo}..{hi}")
    modes = mode_space("modes", basis.bins)
    picks = {  # per-bin maps of one field sector
        "T": lambda m: m.at_left[-1 if idx is None else idx],
        "L": lambda m: m.interface[idx],
        "F": lambda m: m.scatter,
        "W": lambda m: m.feed,
        "X": lambda m: outward_maps(m, idx)[0],
        "Y": lambda m: outward_maps(m, 1)[1],
        "Z": lambda m: outward_maps(m, 1)[2],
    }
    if key in picks:
        maps = linear_maps(structure, basis)
        rows = row_space("continuity", basis.bins) if key == "L" else modes
        mat = BlockMatrix.from_bins(
            rows, modes, {f: picks[key](m) for f, m in maps.items()}
        )
    elif key == "P":
        p = propagator_bins(structure.material(idx), structure.length(idx),
                            basis)
        mat = BlockMatrix.from_bins(modes, modes, {"s": p, "i": np.conj(p)})
    else:  # GV, GS, SV, SS
        emission = build_emission(
            structure, cfg.pump, basis, keep_sources=True,
            convention=cfg.attribution,
        )
        if key == "GV":
            pairs = emission.g_volume
        elif key == "GS":
            pairs = emission.g_surface
        else:
            pairs = emission.boundary_sources[idx][0 if key == "SV" else 1]
        mat = BlockMatrix.from_pairs(modes, modes, pairs)
    mat.write_csv(out_path)
    return out_path
