"""Run configuration: JSON schema, validation, canonical hashing.

Every section is checked by one walk (``_walk``) against a declarative
table of its keys, so unknown keys and values of the wrong kind fail
loudly, naming the key.  All geometry is given in nanometres and
wavelengths in nanometres; the loader converts to SI.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .linear import PumpSpec
from .materials import (MaterialModel, constant_material, sellmeier_material,
                        wavelength_window)
from .spectral import DIRS, POLS, SPLIT_CONVENTIONS, SpectralBasis
from .structure import StructureSpec

REQUIRED = object()  # the default of a key that must be given

# A kind is a tuple (tag, *args), checked by ``_walk``:
#   ("object", table)    a JSON object; table maps each key to (kind,
#                        default) or (kind, default, its name in messages)
#   ("union", key, tables)  an object walked with tables[its key]
#   ("either", key, a, b)   an object walked with table a if it has key,
#                        else with table b
#   ("map", noun, kind)  an object of named entries of kind
#   ("list", kind)       a list of items of kind
#   ("number", positive)  a finite number, > 0 if positive
#   ("integer", least)   an integer >= least
#   ("numbers", count, rule)  a list of count finite numbers; rule
#                        "window" asks 0 < lo < hi, "range" a (lo, hi,
#                        count) with lo, hi > 0 and an integer count >= 1
#   ("enum", options); ("pol",) a chi2 triple 'g;ab'; ("material",) a
#   material name; ("nullable", kind) null or kind; ("any",) unchecked
FINITE, POSITIVE = ("number", False), ("number", True)
WINDOW, RANGE = ("numbers", 2, "window"), ("numbers", 3, "range")
MATERIAL, DIR, POL = ("material",), ("enum", DIRS), ("enum", POLS)
COUNT = ("integer", 1)
_POL_TRIPLES = tuple(f"{g};{a}{b}" for g in POLS for a in POLS for b in POLS)

_DISPERSIONS = {  # by the dispersion's type
    "constant": {"type": (("enum", ("constant",)), REQUIRED),
                 "n": (FINITE, REQUIRED, "dispersion n"),
                 "window_um": (WINDOW, None)},
    "sellmeier": {"type": (("enum", ("sellmeier",)), REQUIRED),
                  "A": (FINITE, REQUIRED),
                  "terms": (("list", ("numbers", 2, None)), REQUIRED),
                  "window_um": (WINDOW, REQUIRED)},
}
_CHI2 = {"pol": (("pol",), REQUIRED), "d_m_per_V": (FINITE, REQUIRED)}
_MATERIAL = ("object", {
    "dispersion": (("union", "type", _DISPERSIONS), REQUIRED),
    "chi2": (("list", ("object", _CHI2)), []),
})
_LAYER = {"material": (MATERIAL, REQUIRED), "length_nm": (POSITIVE, REQUIRED),
          "poling": (("enum", (1, -1)), 1)}
_REPEAT = {"repeat": (COUNT, REQUIRED)}
_LAYERS = ("list", ("either", "repeat", _REPEAT, _LAYER))
_REPEAT["layers"] = (_LAYERS, REQUIRED)
_CONFIG = ("object", {
    "materials": (("map", "material", _MATERIAL), REQUIRED),
    "structure": (("object", {
        "ambient_in": (MATERIAL, REQUIRED),
        "ambient_out": (MATERIAL, REQUIRED),
        "layers": (_LAYERS, REQUIRED),
    }), REQUIRED),
    "pump": (("object", {
        "wavelength_nm": (POSITIVE, REQUIRED),
        "fwhm_nm": (POSITIVE, REQUIRED),
        "energy_J_per_m2": (POSITIVE, REQUIRED),
        "polarization": (POL, "y"),
        "side": (DIR, "F"),
        "cutoff_nsigma": (POSITIVE, 8.0),
    }), REQUIRED),
    "basis": (("object", {"bins": (COUNT, REQUIRED),
                          "window": (WINDOW, REQUIRED)}), REQUIRED),
    "observe": (("object", {
        "signal_dir": (DIR, "F"),
        "idler_dir": (DIR, "F"),
        "signal_pol": (POL, "x"),
        "idler_pol": (POL, "y"),
        "time_points": (("integer", 2), 2048),
        "conditional_t_idler_fs": (("nullable", FINITE), None),
    }), {}),
    "scan": (("object", {
        "material_a": (MATERIAL, REQUIRED),
        "material_b": (MATERIAL, REQUIRED),
        "pairs": (COUNT, REQUIRED),
        "l1_nm": (RANGE, REQUIRED),
        "l2_nm": (RANGE, REQUIRED),
        "bins": (COUNT, 12),
        "ridge_max_jump": (("integer", 0), 2),
    }), None),
    "surface_attribution": (("enum", SPLIT_CONVENTIONS), "local-jump"),
    "notes": (("any",), None),
})
_STRUCTURE_FILE = ("object", {"structure": (("any",), None),
                              "materials": (("map", "material", ("any",)), None)})


def _join(where: str, key: str) -> str:
    """The name of entry key of where: 'pump.fwhm_nm', 'material sm A'."""
    if where == "config":
        return key
    return f"{where}{' ' if ' ' in where else '.'}{key}"


def _walk(value, kind, where: str):
    """value checked against kind, numbers as float or int, absent keys
    filled with their defaults (an absent key whose default is None reads
    None).  The result is a new tree: value is never written into."""
    tag, *args = kind

    def fail(what):
        raise ConfigError(f"{where} {what}, got {value!r}")

    if tag in ("object", "union", "either", "map"):
        if not isinstance(value, dict):
            fail("must be a JSON object")
        if tag == "map":
            return {name: _walk(v, args[1], f"{args[0]} {name}")
                    for name, v in value.items()}
        table, prefix = args[0], where
        if tag == "union":  # its keys are named as its holder's
            key, tables = args
            pick = _walk(value.get(key), ("enum", tuple(tables)),
                         _join(where, key))
            table, prefix = tables[pick], where.rsplit(" ", 1)[0]
        elif tag == "either":
            table = args[1] if args[0] in value else args[2]
        unknown = set(value) - set(table)
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {k for k, (_, default, *_) in table.items()
                   if default is REQUIRED and k not in value}
        if missing:
            raise ConfigError(f"{where}: missing keys {sorted(missing)}")
        return {key: None if key not in value and default is None
                else _walk(value.get(key, default), sub,
                           _join(prefix, name[0] if name else key))
                for key, (sub, default, *name) in table.items()}
    if tag == "list":
        if not isinstance(value, list):
            fail("must be a list")
        return [_walk(item, args[0], where) for item in value]
    if tag == "number":
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail("must be a finite number")
        if args[0] and value <= 0.0:
            fail("must be positive")
        return float(value)
    if tag == "integer":
        whole = (isinstance(value, int) and not isinstance(value, bool)
                 or isinstance(value, float) and value.is_integer())
        if not whole or value < args[0]:
            fail(f"must be an integer >= {args[0]}")
        return int(value)
    if tag == "numbers":
        count, rule = args
        if not isinstance(value, (list, tuple)) or len(value) != count:
            fail(f"must be a list of {count} numbers")
        out = [_walk(x, FINITE, where) for x in value]
        if rule == "window" and not 0.0 < out[0] < out[1]:
            fail("must be increasing positive numbers")
        if rule == "range":
            if min(out[:2]) <= 0.0:
                fail("ends must be positive lengths")
            out[2] = _walk(value[2], COUNT, f"{where} count")
        return tuple(out)
    if tag == "enum":
        if isinstance(value, bool) or value not in args[0]:
            fail(f"must be one of {list(args[0])}")
        return args[0][args[0].index(value)]
    if tag == "pol":
        if value not in _POL_TRIPLES:
            fail("must be a chi2 pol triple 'g;ab' of x/y labels")
        return value[0], value[2], value[3]
    if tag == "material" and not isinstance(value, str):
        fail("must be a material name")
    if tag == "nullable" and value is not None:
        return _walk(value, args[0], where)
    return value


def _material(name: str, materials: dict, where: str) -> MaterialModel:
    """The material a walked config entry names."""
    if name not in materials:
        raise ConfigError(f"{where}: unknown material {name!r}")
    return materials[name]


def parse_material(name: str, walked: dict) -> MaterialModel:
    """The material of a walked ``materials`` entry."""
    disp = walked["dispersion"]
    chi2 = {entry["pol"]: entry["d_m_per_V"] for entry in walked["chi2"]}
    try:  # n < 1 or a Sellmeier pole over the window
        if disp["type"] == "constant":
            return constant_material(name, disp["n"], chi2,
                                     wavelength_window(disp["window_um"]))
        return sellmeier_material(name, disp["A"], disp["terms"], chi2,
                                  disp["window_um"])
    except ConfigError as exc:
        raise ConfigError(f"materials.{name}.dispersion: {exc}") from exc


def _check_pump_band(pump: PumpSpec, used) -> None:
    """Each material of used that has a window_um holds the pump's band
    omega0 +- cutoff_nsigma sigma, every frequency at which a run may
    evaluate it for the pump, whatever bin sums the run's grid lights."""
    reach = pump.cutoff_nsigma * pump.sigma
    lo, hi = pump.omega0 - reach, pump.omega0 + reach
    for mat in used:
        w_lo, w_hi = mat.window
        if (w_lo, w_hi) != (0.0, math.inf) and not w_lo <= lo <= hi <= w_hi:
            raise ConfigError(
                f"materials.{mat.name}.dispersion.window_um: pump band "
                f"[{lo:.4e}, {hi:.4e}] rad/s outside validity window "
                f"[{w_lo:.4e}, {w_hi:.4e}]")


def _expand_layers(items, materials, where="structure.layers"):
    """(material, length in m, poling) per layer of walked layer items,
    repeat blocks expanded inline."""
    out = []
    for item in items:
        if "repeat" in item:
            out += item["repeat"] * _expand_layers(item["layers"], materials,
                                                   f"{where}.layers")
        else:
            out.append((_material(item["material"], materials,
                                  f"{where}.material"),
                        item["length_nm"] * 1e-9, item["poling"]))
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


def parse_config(raw: dict) -> RunConfig:
    top = _walk(raw, _CONFIG, "config")
    materials = {name: parse_material(name, walked)
                 for name, walked in top["materials"].items()}
    st, p, basis, obs, scan = (top[k] for k in ("structure", "pump", "basis",
                                                "observe", "scan"))
    ambient = [_material(st[amb], materials, f"structure.{amb}")
               for amb in ("ambient_in", "ambient_out")]
    layers = tuple(_expand_layers(st["layers"], materials))
    if not layers:
        raise ConfigError("structure.layers must hold at least one layer")
    structure = StructureSpec(layers, *ambient)
    pump = PumpSpec.from_wavelength(
        p["wavelength_nm"] * 1e-9, p["fwhm_nm"] * 1e-9, p["energy_J_per_m2"],
        polarization=p["polarization"], side=p["side"],
        cutoff_nsigma=p["cutoff_nsigma"])
    used = structure.per_material(lambda mat: mat)
    if scan is not None:
        used += [_material(scan[key], materials, f"scan.{key}")
                 for key in ("material_a", "material_b")]
        scan = ScanSpec(**scan)
    _check_pump_band(pump, used)
    cond = obs["conditional_t_idler_fs"]
    return RunConfig(
        materials=materials, structure=structure, pump=pump,
        bins=basis["bins"], window=basis["window"],
        channel=tuple(obs[k] for k in ("signal_dir", "idler_dir",
                                       "signal_pol", "idler_pol")),
        attribution=top["surface_attribution"],
        time_points=obs["time_points"],
        conditional_t_idler=None if cond is None else cond * 1e-15,
        scan=scan, raw=raw)


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


def with_structure_file(raw: dict, path) -> dict:
    """The tree of a loaded config with a structure file's sections patched
    in: its structure replaces raw's, its materials join raw's.  raw
    itself is kept as it is."""
    override = read_json(path, "structure file")
    _walk(override, _STRUCTURE_FILE, f"structure file {path}")
    return {**raw, **override,
            "materials": {**raw["materials"], **override.get("materials", {})}}
