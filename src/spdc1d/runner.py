"""High-level runs: single simulations, geometry scans, verification.

All outputs are deterministic: fixed float formatting, sorted JSON keys,
no randomness anywhere in the pipeline; scan cells go in fixed chunks,
one emission build each, merged in index order regardless of worker
scheduling.
"""

from __future__ import annotations

import json
import os
from itertools import repeat

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ConfigError, NoPeak
from .linear import field_maps, linear_transmission
from .matrixcore import (
    assemble_emission,
    bin_entries,
    build_emission,
    dense_index,
    outward_maps,
    propagator_bins,
    solve_emission,
)
from .observables import (
    antidiagonal_profile,
    branch_factors,
    joint_density,
    marginals_and_counts,
    temporal_profiles,
    two_photon_amplitude,
    width_fwhm,
)
from .oracle import compare_with_emission, reference_pair_amplitude
from .spectral import chi2_matrix, pump_wavenumbers
from .structure import StructureSpec

M2_PER_MM2 = 1e-6  # counts per quantization area (1 m^2) -> per mm^2
# Bound on layers x cells x K^2 per emission build of a scan, trading a
# build's fixed work against its memory: the shipped scan (20 layers, 12
# bins) makes 6 builds of at most 22 cells, one peaking at 5.01 MiB of
# tracemalloc.  98304 (34 cells) raised a scanning process's peak RSS by
# 3.5 MiB and was no faster (2-core OpenBLAS host).
_SCAN_CHUNK = 65536
# ridges shorter than this many cells are tracked but not scanned
_MIN_RIDGE_POINTS = 4
# cells of one % in write_csv, which bounds its row template: at 256
# bins 4096 wrote 4 ms faster than 16384, 1024 8 ms slower (2-core host)
_CSV_CELLS = 1 << 12
_MAGNITUDE = np.int64(2**63 - 1)  # the bits of a double but its sign


def format_cells(values):
    """The %.17g text of each value, as an object array of str.

    Each distinct magnitude is formatted once; a negative value takes a
    "-" (-0.0 prints as -0), and a nan prints as nan whatever its sign
    bit.  An axis written to several files is formatted once this way."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    mags, inverse = np.unique(bits & _MAGNITUDE, return_inverse=True)
    text = np.array(["%.17g" % v for v in mags.view(float).tolist()],
                    dtype=object)[inverse]
    neg = (bits < 0) & ~np.isnan(bits.view(float))
    text[neg] = "-" + text[neg]
    return text


def write_csv(path, header, columns):
    """Equal-length columns, one %.17g-formatted row per line.

    A column is real or ``format_cells`` text.  A real column that
    repeats values is written as its ``format_cells`` text, an
    all-distinct one by the row template; each block of _CSV_CELLS cells
    is one %.  Columns of unequal length raise ValueError."""
    n, size = len(columns), len(columns[0]) if columns else 0
    lists, formats = [], []
    for col in map(np.asarray, columns):
        if col.dtype != object:
            bits = np.sort(col.astype(float).view(np.int64))
            col = format_cells(col) if np.any(bits[1:] == bits[:-1]) else col
        if col.size != size:
            raise ValueError(f"a column of {col.size} rows, not {size}")
        lists.append(col.tolist())
        formats.append("%s" if col.dtype == object else "%.17g")
    row, rows = ",".join(formats) + "\n", max(1, _CSV_CELLS // max(n, 1))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, size, rows):
            cells = [None] * (n * min(rows, size - start))
            for j, col in enumerate(lists):
                cells[j::n] = col[start:start + rows]
            fh.write(row * (len(cells) // n) % tuple(cells))


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
    emission = build_emission(cfg.structure, cfg.pump,
                              basis).attributed(cfg.attribution)
    channel = cfg.channel
    factors = branch_factors(emission, channel)
    jd = joint_density(emission, channel, factors)
    amps = two_photon_amplitude(emission, channel, factors)
    del factors  # drop the idler-branch halves before the temporal stage
    stats = marginals_and_counts(jd)

    k = basis.bins
    omega_text = format_cells(jd.omega)  # the frequency axis of 3 files
    write_csv(
        os.path.join(out_dir, "joint_density.csv"),
        ["omega_s_rad_s", "omega_i_rad_s", "n_V_s2", "n_S_s2", "n_I_s2",
         "n_SV_s2"],
        [np.repeat(omega_text, k), np.tile(omega_text, k)]
        + [jd.continuous(w).ravel() for w in ("V", "S", "I", "SV")],
    )
    write_csv(
        os.path.join(out_dir, "marginals.csv"),
        ["omega_s_rad_s", "n_s_V", "n_s_S", "n_s_I", "n_s_SV", "eta_s",
         "eta_valid"],
        [omega_text]
        + [stats["marginals"][w] for w in ("V", "S", "I", "SV")]
        + [stats["eta_s"], stats["eta_valid"].astype(float)],
    )

    curves, peaks, cond_widths = {}, {}, {}
    t_cond = cfg.conditional_t_idler
    kernel = None  # one time kernel for all three, one profile held at a time
    for w in ("SV", "V", "S"):  # SV first: its joint peak sets t_cond
        if np.max(np.abs(amps[w].matrix)) == 0.0:
            continue
        prof = temporal_profiles(amps[w], n_time=cfg.time_points,
                                 kernel=kernel)
        kernel = prof.kernel
        t = prof.t
        peak = prof.peak()
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
        del prof  # before the next profile's arrays are allocated
    shown = [w for w in ("V", "S", "SV") if w in curves]
    if shown:
        t_text = format_cells(t)  # the time axis of both temporal files
        write_csv(os.path.join(out_dir, "temporal_flux.csv"),
                  ["t_s"] + [f"p_s_{w}_per_s" for w in shown],
                  [t_text] + [curves[w][0] for w in shown])

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
                  [t_text] + [curves[w][1] for w in shown])
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
            [omega_text[np.searchsorted(jd.omega, anti_ws)], anti_v,
             anti_s, anti_sv],
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
    # one transfer march over the whole grid: l1 on rows, l2 on columns
    st = _pair_stack(cfg, l1[:, None] * 1e-9, l2[None, :] * 1e-9)
    tmap = linear_transmission(st, cfg.omega_p0)[2][..., 0]
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


def ridge_yields(cfg: RunConfig, l1_nm, l2_nm):
    """Pair yields of the scan's pair stacks with lengths (l1_nm[c],
    l2_nm[c]) nm, every cell c in one emission build over a geometry
    axis.  Returns {column: array over the cells} for the yield columns
    of ``ridge_scan.csv``; R is -1 where it is not finite."""
    st = _pair_stack(cfg, np.asarray(l1_nm) * 1e-9,
                     np.asarray(l2_nm) * 1e-9)
    emission = build_emission(st, cfg.pump, cfg.basis(
        bins=cfg.scan.bins)).attributed(cfg.attribution)
    stats = marginals_and_counts(joint_density(emission, cfg.channel))
    counts, ratio = stats["counts"], stats["ratio_surface_volume"]
    return {
        "N_SV_per_mm2": counts["SV"] * M2_PER_MM2,
        "N_V_per_mm2": counts["V"] * M2_PER_MM2,
        "N_S_per_mm2": counts["S"] * M2_PER_MM2,
        "R": np.where(np.isfinite(ratio), ratio, -1.0),
    }


def scan(cfg: RunConfig, out_dir, workers=1):
    """Transmission map, ridge tracking, and SPDC yields along ridges.

    The ridge cells go through ``ridge_yields`` in chunks of at most
    ``_SCAN_CHUNK`` // (layers K^2) cells (at least one; 22 on the
    shipped config), which bounds a build's memory; with workers > 1 a
    process pool maps over the chunks.  The chunks do not depend on the
    worker count, and each cell's yields are bitwise those of a build of
    that cell alone, whatever chunk it lands in.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    # transmission_map checks for a scan section before making out_dir
    l1, l2, tmap = transmission_map(cfg, out_dir)
    ridges = track_ridges(l1, l2, tmap, max_jump=cfg.scan.ridge_max_jump)
    cells = np.array([(rid, i, j, ridge["lost"])
                      for rid, ridge in enumerate(ridges)
                      if len(ridge["points"]) >= _MIN_RIDGE_POINTS
                      for (i, j) in ridge["points"]], dtype=int).reshape(-1, 4)
    rid, i, j, lost = cells.T
    per_chunk = max(1, _SCAN_CHUNK // (2 * cfg.scan.pairs * cfg.scan.bins**2))
    starts = range(0, len(cells), per_chunk)
    chunks = ([l1[i[s:s + per_chunk]] for s in starts],
              [l2[j[s:s + per_chunk]] for s in starts])
    if workers > 1 and len(starts) > 1:
        # imported here, so that a plain import of the package does not
        # load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            results = list(pool.map(ridge_yields, repeat(cfg), *chunks))
    else:
        results = list(map(ridge_yields, repeat(cfg), *chunks))
    rows = {"ridge": rid.astype(float), "lost_flag": lost.astype(float),
            "l1_nm": l1[i], "l2_nm": l2[j], "T_p": tmap[i, j]}
    for key in ("N_SV_per_mm2", "N_V_per_mm2", "N_S_per_mm2", "R"):
        rows[key] = (np.concatenate([r[key] for r in results]) if results
                     else np.zeros(0))
    write_csv(os.path.join(out_dir, "ridge_scan.csv"), list(rows.keys()),
              list(rows.values()))
    summary = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "ridges_tracked": len(ridges),
        "ridges_scanned": len(set(rid.tolist())),
        "cells": len(cells),
    }
    write_json(os.path.join(out_dir, "scan_summary.json"), summary)
    return ridges, rows, summary


def verify(cfg: RunConfig, bins=16, step_fraction=20.0, out_path=None):
    """Consistency report: oracle match, invariances, unitarity, Parseval.

    Returns (report, ok); every check carries its measured error and
    tolerance.  The split invariance compares the stack and the stack
    with its first nonlinear layer from the middle on split, both read
    under local-jump; the surface null reads that fictitious boundary's
    source.  Each stack is solved and assembled once: an assembly keeps
    the slabs T, S_R and S_L (``matrixcore``), so the stack's is read
    under the configured attribution and under local-jump (G_S = sigma
    S_R + S_L, G_V = T - G_S, sigma = +1 for local-jump and -1 for
    per-slot), and the split stack's solve also gives its source.
    ``density_nonnegative`` gates only n_total and reports the n_V and
    n_S minima (signed, see ``observables``) beside it, all relative to
    the n_total peak, as is ``decomposition_identity``: n_V + n_S + n_I
    against the density of the summed (V + S) branch factors.
    """
    if bins < 2:
        raise ConfigError("verify needs at least 2 bins: its refinement "
                          "study also runs at half the bin count")
    if not 0.0 < step_fraction < np.inf:
        raise ConfigError(
            f"step fraction must be finite and positive, got {step_fraction}")
    basis = cfg.basis(bins=bins)
    structure = cfg.structure
    checks = {}

    emission_lj = assemble_emission(solve_emission(structure, cfg.pump,
                                                   basis))
    emission = emission_lj.attributed(cfg.attribution)
    # F is 2x2 per bin: check F F-dagger = 1 block by block (its idler
    # sector conj(F) deviates by as much)
    f = emission.scatter
    dev = np.max(np.abs(np.einsum("ijk,ljk->ilk", f, np.conj(f))
                        - np.eye(2)[:, :, None]))
    checks["scattering_unitary"] = {"error": float(dev), "tol": 1e-9}

    omega_probe = np.linspace(basis.omega_min, basis.omega_max, 7)
    _, _, big_t, big_r = linear_transmission(structure, omega_probe)
    checks["energy_conservation"] = {
        "error": float(np.max(np.abs(big_t + big_r - 1.0))), "tol": 1e-10
    }

    # a nonlinear layer's split runs a class pass at its fictitious boundary
    mid = max(1, structure.n_layers // 2)
    mid = next((l for l in range(mid, structure.n_layers + 1) if np.any(
        chi2_matrix(structure.material(l), emission.pump.polarization))), mid)
    solve = solve_emission(structure.split_layer(mid, 0.5), cfg.pump, basis)
    em_split = assemble_emission(solve)
    # norms over the lit entries, which the split stack shares
    scale_g = max(np.linalg.norm(sum(emission.pairs(w, lit_only=True)
                                     for w in "VS")), 1e-300)
    for w in "VS":
        diff = (em_split.pairs(w, lit_only=True)
                - emission_lj.pairs(w, lit_only=True))
        checks[f"split_invariance_G{w}"] = {
            "error": float(np.linalg.norm(diff) / scale_g), "tol": 1e-9
        }
    s_s = assemble_emission(solve, boundary=mid + 1).pairs("S", lit_only=True)
    del solve, em_split
    checks["fictitious_surface_null"] = {
        "error": float(np.linalg.norm(s_s) / scale_g), "tol": 1e-10
    }

    # the z-step resolves the thinnest layer and the largest lit pump k
    k_p = max(k.max() for k in structure.per_material(
        lambda mat: pump_wavenumbers(mat, emission.pump))[1:-1])
    scale = min([structure.length(l) for l in range(1, structure.n_layers + 1)]
                + ([1.0 / k_p] if k_p > 0.0 else []))
    ref = reference_pair_amplitude(structure, cfg.pump, basis,
                                   step=scale / step_fraction)
    checks["oracle_total_amplitude"] = {
        "error": float(compare_with_emission(ref, emission)), "tol": 1e-4
    }

    factors = branch_factors(emission, cfg.channel)
    amps = two_photon_amplitude(emission, cfg.channel, factors)
    if np.max(np.abs(amps["SV"].matrix)) > 0.0:
        prof = temporal_profiles(amps["SV"], n_time=max(512, 4 * bins))
        checks["parseval"] = {
            "error": float(abs(prof.parseval_ratio - 1.0)), "tol": 1e-8
        }
        # the n x n grid stays whole: freeing it in one piece keeps glibc's
        # mmap threshold above the scan's working set
        checks["time_normalization"] = {
            "error": float(abs(prof.rows(np.arange(prof.t.size)).sum()
                               * prof.dt**2 - 1.0)),
            "tol": 1e-6,
        }
    jd = joint_density(emission, cfg.channel, factors)
    peak = max(jd.n_total.max(), 1e-300)
    (f1v, f2v), (f1s, f2s) = factors["V"], factors["S"]
    tot1, tot2 = f1v + f1s, f2v + f2s
    # n_V + n_S + n_I against the density of the summed factors
    checks["decomposition_identity"] = {
        "error": float(np.max(np.abs(jd.n_total - 2.0 * np.real(tot1 * tot2)))
                       / peak),
        "tol": 1e-13,
    }
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
            jd_k = joint_density(build_emission(
                structure, cfg.pump, cfg.basis(bins=k_ref)).attributed(
                    cfg.attribution), cfg.channel)
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
        "error": float(max(0.0, -jd.n_total.min() / peak)),
        "tol": 1e-15,
        "n_volume_min": float(jd.n_volume.min() / peak),
        "n_surface_min": float(jd.n_surface.min() / peak),
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
FIELDS = ("s", "i")  # 'i' entries carry idler creation-operator components
# label order of the mode channels (dir, pol), which label a dump's columns,
# and of the continuity rows (kind, pol) of L
MODE_CHANNELS = (("F", "x"), ("B", "x"), ("F", "y"), ("B", "y"))
ROW_CHANNELS = (("E", "x"), ("E", "y"), ("H", "x"), ("H", "y"))


def labels(channels, bins):
    """CSV labels field/c1/c2/bin in index order."""
    return [f"{f}/{c1}/{c2}/{k}" for f in FIELDS for c1, c2 in channels
            for k in range(bins)]


def _write_dump(path, channels, bins, entries):
    """A dump written row by row from the broadcastable (rows, cols,
    values) of its dense form: each value as the %.17g parts of its own
    bits, signed zeros included, and every other cell as 0+0j."""
    rows, cols, values = (a.ravel() for a in np.broadcast_arrays(*entries))
    order = np.argsort(rows)
    edges = np.searchsorted(rows, np.arange(8 * bins + 1), sorter=order)
    blank = ["0+0j"] * (8 * bins)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(["row\\col"] + labels(MODE_CHANNELS, bins)) + "\n")
        for label, lo, hi in zip(labels(channels, bins), edges, edges[1:]):
            cells, row = blank.copy(), order[lo:hi]
            for c, v in zip(cols[row].tolist(), values[row].tolist()):
                cells[c] = f"{v.real:.17g}{v.imag:+.17g}j"
            fh.write(label + "," + ",".join(cells) + "\n")


def dump_matrix(cfg: RunConfig, name: str, out_path, bins=None):
    """Write one named pipeline matrix with labeled rows/columns to CSV.

    Each row is written from the entries the map holds, and no dense form
    is built: a linear map (T, P, L, F, W, Z, Y, X) holds its per-bin 2x2
    entries in one bin of the row's field and polarization, a pair map
    (GV, GS, SV, SS) the row bin's lit entries; every other cell reads
    0+0j.  Each idler sector is the conjugate of the signal one.  SV:l
    and SS:l come from a build of boundary l alone.
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
    picks = {  # per-bin maps of one field sector
        "T": lambda m: m.at_left[-1 if idx is None else idx],
        "L": lambda m: m.interface[idx],
        "F": lambda m: m.scatter,
        "W": lambda m: m.feed,
        "X": lambda m: outward_maps(m, idx)[0],
        "Y": lambda m: outward_maps(m, 1)[1],
        "Z": lambda m: outward_maps(m, 1)[2],
    }
    k = basis.bins
    if key in picks:
        # the idler sector is formed from the conjugated transfers and
        # continuity rows, so its built 1 and 0 entries keep +0 parts
        signal = field_maps(structure, basis.centers)
        entries = bin_entries(np.array([picks[key](signal),
                                        picks[key](signal.conj())]),
                              continuity=key == "L")
    elif key == "P":
        p = propagator_bins(structure.material(idx), structure.length(idx),
                            basis)
        entries = bin_entries(np.array([p, np.conj(p)]))
    else:  # GV, GS, SV, SS
        emission = build_emission(structure, cfg.pump, basis,
                                  boundary=idx).attributed(cfg.attribution)
        lit = emission.pairs("V" if key in ("GV", "SV") else "S",
                             lit_only=True)
        # at lit entry (m, n), signal row s/a/alpha/m holds lit[a, alpha, b,
        # beta] at column i/b/beta/n, idler row i/a/beta/m its conjugate + 0
        # (no -0) at column s/b/alpha/n
        f, a, alpha, b, beta = (i[..., None] for i in np.indices((2,) * 5))
        m, n = emission.lit[:2]
        entries = (dense_index(f, np.where(f, beta, alpha), a, k, m),
                   dense_index(1 - f, np.where(f, alpha, beta), b, k, n),
                   np.stack([lit, np.conj(lit) + 0j]))
    _write_dump(out_path, ROW_CHANNELS if key == "L" else MODE_CHANNELS, k,
                entries)
    return out_path
