"""Command-line interface.

Subcommands: simulate, scan, transmission-map, verify, dump-matrix.
Every run is deterministic (no randomness anywhere).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, parse_config, with_structure_file
from .errors import ConfigError, SpdcError
from .runner import MATRIX_NAMES, dump_matrix, scan, simulate, transmission_map, verify


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--bins", type=int, default=None,
                   help="override basis bin count (scan: scan.bins)")
    p.add_argument("--structure", default=None,
                   help="JSON file whose 'structure' (and optional "
                        "'materials') sections override the config")


def _add_scan_ranges(p):
    for flag, key in (("--l1-range", "l1_nm"), ("--l2-range", "l2_nm")):
        p.add_argument(flag, type=float, nargs=3, metavar=("LO", "HI", "N"),
                       default=None, help=f"override scan.{key} (nm)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spdc1d",
        description="Photon-pair generation in 1D nonlinear layered media",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single-structure SPDC run")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--window-lo", type=float, default=None,
                   help="window lower edge as a fraction of the pump frequency")
    p.add_argument("--window-hi", type=float, default=None,
                   help="window upper edge as a fraction of the pump frequency")

    p = sub.add_parser("scan", help="(l1, l2) transmission map + ridge yields")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="processes over the chunks of ridge cells (>= 1)")
    _add_scan_ranges(p)

    p = sub.add_parser("transmission-map", help="pump transmission over (l1, l2)")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    _add_scan_ranges(p)

    p = sub.add_parser("verify", help="oracle and invariant checks")
    _add_common(p)
    p.add_argument("--out", default=None, help="write JSON report here")
    p.add_argument("--step-fraction", type=float, default=20.0,
                   help="z-step = min(thinnest layer, 1 / largest lit "
                        "pump wave number) / this")

    p = sub.add_parser("dump-matrix", help="dump one pipeline matrix to CSV")
    _add_common(p)
    p.add_argument("--name", required=True,
                   help=f"matrix name, one of: {', '.join(MATRIX_NAMES)}")
    p.add_argument("--out", required=True)
    return ap


def _window(args):
    if args.window_lo is None and args.window_hi is None:
        return None
    if args.window_lo is None or args.window_hi is None:
        raise ConfigError("--window-lo and --window-hi must be given together")
    return (args.window_lo, args.window_hi)


def _config(args):
    """The --config run config, with the --structure file's sections and
    the scan flags (ranges, scan's --bins) patched into its tree, parsed
    again whole: an override is checked as the file it patches."""
    if args.command == "transmission-map" and args.bins is not None:
        raise ConfigError("--bins does not apply to transmission-map: the "
                          "pump transmission has no spectral basis")
    cfg = load_config(args.config)
    raw = (cfg.raw if args.structure is None
           else with_structure_file(cfg.raw, args.structure))
    scan_bins = args.bins if args.command == "scan" else None
    for key, value in (("l1_nm", getattr(args, "l1_range", None)),
                       ("l2_nm", getattr(args, "l2_range", None)),
                       ("bins", scan_bins)):
        if value is not None:
            if "scan" not in raw:
                raise ConfigError("config has no scan section to override")
            raw = {**raw, "scan": {**raw["scan"], key: value}}
    return cfg if raw is cfg.raw else parse_config(raw)


def _dark_cause(cfg, emission) -> str:
    """Why a run emits nothing, as far as the stack and pump show it."""
    if all(mat.is_linear() for mat, _, _ in cfg.structure.layers):
        return "all-linear structure"
    if not emission.pump.mask.any():
        return "no lit bin sum: the pump is dark over the window"
    return "no source couples into the observed channel"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        if args.command == "simulate":
            summary, emission, _ = simulate(
                cfg, args.out_dir, bins=args.bins, window=_window(args))
            ratio = summary["ratio_surface_volume"]
            r_txt = "n/a" if ratio is None else f"{ratio:.4g}"
            print(f"N_SV = {summary['counts_per_mm2']['SV']:.6g} per mm^2, "
                  f"R = {r_txt}")
            if summary["no_emission"]:
                print(f"note: no emission ({_dark_cause(cfg, emission)})")
            for w in summary["warnings"]:
                print("warning:", w)
        elif args.command == "transmission-map":
            transmission_map(cfg, args.out_dir)
            print(f"transmission map written to {args.out_dir}")
        elif args.command == "scan":
            ridges, _, summary = scan(cfg, args.out_dir, workers=args.workers)
            lost = sum(1 for r in ridges if r["lost"])
            print(f"tracked {summary['ridges_tracked']} ridges "
                  f"({lost} flagged lost), scanned {summary['cells']} cells")
        elif args.command == "verify":
            bins = 16 if args.bins is None else args.bins
            report, ok = verify(cfg, bins=bins,
                                step_fraction=args.step_fraction,
                                out_path=args.out)
            for name, chk in report["checks"].items():
                status = "PASS" if chk["error"] <= max(chk["tol"], 0.0) else "FAIL"
                print(f"{status} {name}: error = {chk['error']:.3e} "
                      f"(tol {chk['tol']:.1e})")
            return 0 if ok else 1
        elif args.command == "dump-matrix":
            path = dump_matrix(cfg, args.name, args.out, bins=args.bins)
            print(f"wrote {path}")
    except SpdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # input files are read through ConfigError: a path here is an output
        if isinstance(exc, OSError) and exc.filename is not None:
            print(f"error: cannot write {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        # any other exception is a fault of the program, not of its input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
