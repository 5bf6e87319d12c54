"""Run configuration: JSON schema, validation, canonical hashing.

Unknown keys are rejected everywhere so that typos fail loudly.  All
geometry is given in nanometres and wavelengths in nanometres; the
loader converts to SI.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError
from .linear import PumpSpec
from .materials import MaterialModel, constant_material, sellmeier_material
from .spectral import SPLIT_CONVENTIONS, SpectralBasis
from .structure import StructureSpec


def _typed(value, kind, where: str):
    """value if it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        name = "a JSON object" if kind is dict else "a list"
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return value


def _require_keys(obj: dict, allowed, required, where: str):
    unknown = set(_typed(obj, dict, where)) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _integer(value, least: int, where: str) -> int:
    """A JSON integer >= least; anything else is a ConfigError."""
    whole = (isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer())
    if not whole or value < least:
        raise ConfigError(f"{where} must be an integer >= {least}, "
                          f"got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    """A finite JSON number; strings, booleans, NaN and inf are a
    ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, count: int, where: str) -> tuple:
    """A JSON list of exactly count finite numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ConfigError(f"{where} must be a list of {count} numbers, "
                          f"got {value!r}")
    return tuple(_number(x, where) for x in value)


def _window_um(value, where: str) -> tuple:
    """(lo, hi) validity window in um: 0 < lo < hi."""
    lo, hi = _numbers(value, 2, where)
    if not 0.0 < lo < hi:
        raise ConfigError(f"{where} must be increasing positive wavelengths, "
                          f"got {value!r}")
    return lo, hi


def _scan_range(value, where: str) -> tuple:
    """(lo, hi, count) of a geometry axis: finite positive ends (layer
    lengths), count >= 1."""
    lo, hi, count = _numbers(value, 3, where)
    if lo <= 0.0 or hi <= 0.0:
        raise ConfigError(f"{where} ends must be positive lengths, "
                          f"got {value!r}")
    return lo, hi, _integer(count, 1, f"{where} count")


def _positive(value, where: str) -> float:
    """A finite JSON number > 0."""
    if _number(value, where) <= 0.0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return float(value)


def _material(name, materials: dict, where: str):
    """The material a config entry names."""
    if not isinstance(name, str) or name not in materials:
        raise ConfigError(f"{where}: unknown material {name!r}")
    return materials[name]


def _poling(value, where: str) -> int:
    """A poling sign: exactly +1 or -1."""
    if isinstance(value, bool) or value not in (-1, 1):
        raise ConfigError(f"{where} poling must be +1 or -1, got {value!r}")
    return int(value)


def _parse_pol_triple(s: str):
    """'y;xy' -> ('y', 'x', 'y'): pump pol; signal pol, idler pol."""
    if not isinstance(s, str):
        raise ConfigError(f"bad chi2 pol triple {s!r}, expected 'g;ab'")
    try:
        gamma, rest = s.split(";")
        alpha, beta = rest[0], rest[1]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad chi2 pol triple {s!r}, expected 'g;ab'") from exc
    return gamma, alpha, beta


def parse_material(name: str, obj: dict) -> MaterialModel:
    _require_keys(obj, ("dispersion", "chi2"), ("dispersion",), f"material {name}")
    disp = _typed(obj["dispersion"], dict, f"material {name} dispersion")
    chi2 = {}
    for entry in _typed(obj.get("chi2", []), list, f"material {name} chi2"):
        _require_keys(entry, ("pol", "d_m_per_V"), ("pol", "d_m_per_V"),
                      f"material {name} chi2 entry")
        chi2[_parse_pol_triple(entry["pol"])] = _number(
            entry["d_m_per_V"], f"material {name} chi2 d_m_per_V")
    kind = disp.get("type")
    if kind == "constant":
        _require_keys(disp, ("type", "n", "window_um"), ("type", "n"),
                      f"material {name} dispersion")
        window = (0.0, np.inf)
        if "window_um" in disp:
            lo, hi = _window_um(disp["window_um"],
                                f"material {name} window_um")
            two_pi_c_um = 2 * np.pi * CONSTANTS.c * 1e6
            window = (two_pi_c_um / hi, two_pi_c_um / lo)
        return constant_material(
            name, _number(disp["n"], f"material {name} dispersion n"), chi2,
            window)
    if kind == "sellmeier":
        _require_keys(disp, ("type", "A", "terms", "window_um"),
                      ("type", "A", "terms", "window_um"),
                      f"material {name} dispersion")
        terms = _typed(disp["terms"], list, f"material {name} terms")
        return sellmeier_material(
            name, _number(disp["A"], f"material {name} A"),
            [_numbers(t, 2, f"material {name} terms") for t in terms],
            chi2, _window_um(disp["window_um"], f"material {name} window_um"),
        )
    raise ConfigError(f"material {name}: dispersion type must be "
                      f"'constant' or 'sellmeier', got {kind!r}")


def _expand_layers(items, materials, where="structure.layers"):
    out = []
    for item in _typed(items, list, where):
        if isinstance(item, dict) and "repeat" in item:
            _require_keys(item, ("repeat", "layers"), ("repeat", "layers"), where)
            for _ in range(_integer(item["repeat"], 1, f"{where} repeat")):
                out.extend(_expand_layers(item["layers"], materials, where))
            continue
        _require_keys(item, ("material", "length_nm", "poling"),
                      ("material", "length_nm"), where)
        out.append(
            (_material(item["material"], materials, where),
             _number(item["length_nm"], f"{where} length_nm") * 1e-9,
             _poling(item.get("poling", 1), where))
        )
    return out


@dataclass(frozen=True)
class ScanSpec:
    material_a: str
    material_b: str
    pairs: int
    l1_nm: tuple  # (lo, hi, count)
    l2_nm: tuple
    bins: int
    ridge_max_jump: int = 2


@dataclass(frozen=True)
class RunConfig:
    materials: dict
    structure: StructureSpec
    pump: PumpSpec
    bins: int
    window: tuple  # fractions of omega_p0
    channel: tuple  # (a, b, alpha, beta)
    attribution: str
    time_points: int
    conditional_t_idler: float | None
    scan: ScanSpec | None
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def omega_p0(self) -> float:
        return self.pump.omega0

    def basis(self, bins=None, window=None) -> SpectralBasis:
        bins = self.bins if bins is None else bins
        lo, hi = window or self.window
        return SpectralBasis(lo * self.omega_p0, hi * self.omega_p0, bins)

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


TOP_KEYS = ("materials", "structure", "pump", "basis", "observe", "scan",
            "surface_attribution", "notes")


def parse_config(raw: dict) -> RunConfig:
    _require_keys(raw, TOP_KEYS, ("materials", "structure", "pump", "basis"),
                  "config")
    materials = {name: parse_material(name, obj) for name, obj
                 in _typed(raw["materials"], dict, "materials").items()}
    st = raw["structure"]
    _require_keys(st, ("ambient_in", "ambient_out", "layers"),
                  ("ambient_in", "ambient_out", "layers"), "structure")
    ambient = [_material(st[amb], materials, f"structure.{amb}")
               for amb in ("ambient_in", "ambient_out")]
    layers = _expand_layers(st["layers"], materials)
    structure = StructureSpec(tuple(layers), *ambient)
    p = raw["pump"]
    _require_keys(
        p,
        ("wavelength_nm", "fwhm_nm", "energy_J_per_m2", "polarization",
         "side", "cutoff_nsigma"),
        ("wavelength_nm", "fwhm_nm", "energy_J_per_m2"),
        "pump",
    )
    pump = PumpSpec.from_wavelength(
        _positive(p["wavelength_nm"], "pump.wavelength_nm") * 1e-9,
        _positive(p["fwhm_nm"], "pump.fwhm_nm") * 1e-9,
        _positive(p["energy_J_per_m2"], "pump.energy_J_per_m2"),
        polarization=p.get("polarization", "y"),
        side=p.get("side", "F"),
        cutoff_nsigma=_number(p.get("cutoff_nsigma", 8.0),
                              "pump.cutoff_nsigma"),
    )
    b = raw["basis"]
    _require_keys(b, ("bins", "window"), ("bins", "window"), "basis")
    window = _numbers(b["window"], 2, "basis.window")
    if not (0.0 < window[0] < window[1]):
        raise ConfigError("basis.window must be increasing positive fractions")
    obs = raw.get("observe", {})
    _require_keys(
        obs,
        ("signal_dir", "idler_dir", "signal_pol", "idler_pol",
         "time_points", "conditional_t_idler_fs"),
        (),
        "observe",
    )
    channel = (
        obs.get("signal_dir", "F"),
        obs.get("idler_dir", "F"),
        obs.get("signal_pol", "x"),
        obs.get("idler_pol", "y"),
    )
    if channel[0] not in ("F", "B") or channel[1] not in ("F", "B"):
        raise ConfigError("observe directions must be 'F' or 'B'")
    if channel[2] not in ("x", "y") or channel[3] not in ("x", "y"):
        raise ConfigError("observe polarizations must be 'x' or 'y'")
    cond = obs.get("conditional_t_idler_fs")
    attribution = raw.get("surface_attribution", "local-jump")
    if attribution not in SPLIT_CONVENTIONS:
        raise ConfigError(
            f"surface_attribution must be 'local-jump' or 'per-slot', "
            f"got {attribution!r}"
        )
    scan = None
    if "scan" in raw:
        s = raw["scan"]
        _require_keys(
            s,
            ("material_a", "material_b", "pairs", "l1_nm", "l2_nm", "bins",
             "ridge_max_jump"),
            ("material_a", "material_b", "pairs", "l1_nm", "l2_nm"),
            "scan",
        )
        for m in (s["material_a"], s["material_b"]):
            _material(m, materials, "scan")
        scan = ScanSpec(
            material_a=s["material_a"],
            material_b=s["material_b"],
            pairs=_integer(s["pairs"], 1, "scan.pairs"),
            l1_nm=_scan_range(s["l1_nm"], "scan.l1_nm"),
            l2_nm=_scan_range(s["l2_nm"], "scan.l2_nm"),
            bins=_integer(s.get("bins", 12), 1, "scan.bins"),
            ridge_max_jump=_integer(s.get("ridge_max_jump", 2), 0,
                                    "scan.ridge_max_jump"),
        )
    return RunConfig(
        materials=materials,
        structure=structure,
        pump=pump,
        bins=_integer(b["bins"], 1, "basis.bins"),
        window=window,
        channel=channel,
        attribution=attribution,
        time_points=_integer(obs.get("time_points", 2048), 2,
                             "observe.time_points"),
        conditional_t_idler=None if cond is None else _number(
            cond, "observe.conditional_t_idler_fs") * 1e-15,
        scan=scan,
        raw=raw,
    )


def read_json(path, what: str = "config") -> dict:
    """The JSON object in a file; ConfigError if unreadable or not one."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return raw


def load_config(path) -> RunConfig:
    return parse_config(read_json(path))
