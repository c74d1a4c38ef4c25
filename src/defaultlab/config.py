"""Run configuration: JSON schema, validation, overrides, hashing.

A run config is a plain JSON document with a versioned schema.  Validation
is eager and field-addressed: every rejected value names the offending
path (``z.eps: ...``) so config errors are distinguishable from suite
failures by the caller.  The validated object carries both the constructed
domain objects and the canonical raw dict, whose hash stamps every output.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

from .coefficients import BumpSpec, CoefficientSpec, ComponentSpec, PlateauSpec
from .errors import ConfigurationError
from .grids import TimeGrid
from .survival import ZGeneratorConfig

SCHEMA_VERSION = 2

_BLOCK_KEYS = {
    "grid": {"horizon", "steps"},
    "z": {"z0", "rate", "jump_time", "jump_size", "sigma", "jump_scale", "eps"},
    "pair": {"components", "scale", "ladder_depth", "x_resolution"},
    "mc": {"paths", "seed"},
    "tree": {"depth", "with_coin"},
    "tolerances": {"exact", "sigma_multiplier", "atom_tol"},
    "outputs": {"directory", "formats"},
}

_COMPONENT_KEYS = {"bumps", "plateaus", "time_affine"}


def default_config() -> dict:
    """Built-in defaults; every subcommand runs out of the box."""
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": {"horizon": 1.0, "steps": 32},
        "z": {
            "z0": 0.5,
            "rate": 0.3,
            "jump_time": None,
            "jump_size": 0.0,
            "sigma": 0.5,
            "jump_scale": 0.3,
            "eps": 0.02,
        },
        "pair": {
            "components": [
                {"bumps": [[0.3, 0.25, 0.8], [0.7, 0.2, -0.5]], "plateaus": [], "time_affine": [1.0, 0.0]},
                {"bumps": [], "plateaus": [[0.2, 0.6, 0.2, 0.6]], "time_affine": [1.0, 0.1]},
            ],
            "scale": 1.0,
            "ladder_depth": 10,
            "x_resolution": 2048,
        },
        "mc": {"paths": 10000, "seed": 0},
        "tree": {"depth": 6, "with_coin": False},
        "tolerances": {"exact": 1e-12, "sigma_multiplier": 3.0, "atom_tol": 1e-12},
        "outputs": {"directory": "out", "formats": ["json", "csv"]},
    }


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc


def apply_overrides(raw: dict, seed=None, paths=None, out=None) -> dict:
    """Fold CLI flag overrides into a copy of the raw config."""
    raw = copy.deepcopy(raw)
    if seed is not None:
        raw.setdefault("mc", {})["seed"] = seed
    if paths is not None:
        raw.setdefault("mc", {})["paths"] = paths
    if out is not None:
        raw.setdefault("outputs", {})["directory"] = out
    return raw


def config_hash(raw: dict) -> str:
    """Hash of the run semantics; the outputs block only moves files."""
    body = {k: v for k, v in raw.items() if k != "outputs"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fail(field, msg):
    raise ConfigurationError(f"{field}: {msg}")


def _number(block, field, value, lo=None, hi=None, open_lo=False, open_hi=False):
    name = f"{block}.{field}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(name, f"expected a number, got {value!r}")
    v = float(value)
    if lo is not None and (v <= lo if open_lo else v < lo):
        _fail(name, f"must be {'>' if open_lo else '>='} {lo}, got {v}")
    if hi is not None and (v >= hi if open_hi else v > hi):
        _fail(name, f"must be {'<' if open_hi else '<='} {hi}, got {v}")
    return v


def _integer(block, field, value, lo=None, hi=None):
    name = f"{block}.{field}"
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(name, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _fail(name, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(name, f"must be <= {hi}, got {value}")
    return int(value)


def _block(raw, name) -> dict:
    blk = raw.get(name)
    if blk is None:
        _fail(name, "missing config block")
    if not isinstance(blk, dict):
        _fail(name, f"expected an object, got {type(blk).__name__}")
    unknown = set(blk) - _BLOCK_KEYS[name]
    if unknown:
        _fail(name, f"unknown keys {sorted(unknown)}; allowed {sorted(_BLOCK_KEYS[name])}")
    return blk


def _parse_component(i, comp) -> ComponentSpec:
    where = f"pair.components[{i}]"
    if not isinstance(comp, dict):
        _fail(where, "expected an object")
    unknown = set(comp) - _COMPONENT_KEYS
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    bumps = []
    for j, row in enumerate(comp.get("bumps", [])):
        if not (isinstance(row, list) and len(row) == 3):
            _fail(f"{where}.bumps[{j}]", "expected [center, width, height]")
        bumps.append(BumpSpec(*[float(v) for v in row]))
    plateaus = []
    for j, row in enumerate(comp.get("plateaus", [])):
        if not (isinstance(row, list) and len(row) == 4):
            _fail(f"{where}.plateaus[{j}]", "expected [lo, hi, ramp, height]")
        plateaus.append(PlateauSpec(*[float(v) for v in row]))
    ta = comp.get("time_affine", [1.0, 0.0])
    if not (isinstance(ta, list) and len(ta) == 2):
        _fail(f"{where}.time_affine", "expected [constant, slope]")
    return ComponentSpec(
        bumps=tuple(bumps), plateaus=tuple(plateaus), time_affine=(float(ta[0]), float(ta[1]))
    )


@dataclass
class RunConfig:
    """Validated configuration with constructed domain objects."""

    raw: dict
    grid: TimeGrid
    z: ZGeneratorConfig
    spec: CoefficientSpec
    scale: float
    ladder_depth: int
    paths: int
    seed: int
    tree_depth: int
    with_coin: bool
    tol_exact: float
    sigma_multiplier: float
    atom_tol: float
    out_dir: str
    formats: tuple

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def tree_grid(self) -> TimeGrid:
        return TimeGrid(horizon=self.grid.horizon, steps=self.tree_depth)


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw dict and construct the domain objects.

    Any invalid field raises ConfigurationError with a field-level message;
    construction errors from the domain objects are re-raised with the
    owning block prefixed.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("config: expected a JSON object at the top level")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail(
            "schema_version",
            f"expected {SCHEMA_VERSION}, got {version!r} (version 2 removed tree.b, mc.batch and pair.m)",
        )
    allowed = set(_BLOCK_KEYS) | {"schema_version"}
    unknown = set(raw) - allowed
    if unknown:
        _fail("config", f"unknown blocks {sorted(unknown)}")

    g = _block(raw, "grid")
    horizon = _number("grid", "horizon", g.get("horizon", 1.0), lo=0.0, open_lo=True)
    steps = _integer("grid", "steps", g.get("steps", 32), lo=1)
    grid = TimeGrid(horizon=horizon, steps=steps)

    zb = _block(raw, "z")
    jump_time = zb.get("jump_time")
    if jump_time is not None:
        jump_time = _number("z", "jump_time", jump_time, lo=0.0, open_lo=True)
    kwargs = {
        "z0": _number("z", "z0", zb.get("z0", 0.5), lo=0.0, hi=1.0, open_lo=True, open_hi=True),
        "rate": _number("z", "rate", zb.get("rate", 0.0), lo=0.0),
        "jump_time": jump_time,
        "jump_size": _number("z", "jump_size", zb.get("jump_size", 0.0), lo=0.0),
        "sigma": _number("z", "sigma", zb.get("sigma", 0.0), lo=0.0),
        "jump_scale": _number("z", "jump_scale", zb.get("jump_scale", 0.0), lo=0.0),
        "eps": _number("z", "eps", zb.get("eps", 0.02), lo=0.0, hi=0.5, open_lo=True, open_hi=True),
    }
    try:
        zcfg = ZGeneratorConfig(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"z: {exc}") from exc

    pb = _block(raw, "pair")
    comps = pb.get("components")
    if not isinstance(comps, list) or not comps:
        _fail("pair.components", "expected a nonempty list of component objects")
    components = tuple(_parse_component(i, c) for i, c in enumerate(comps))
    x_res = _integer("pair", "x_resolution", pb.get("x_resolution", 2048), lo=16)
    try:
        spec = CoefficientSpec(components=components, x_resolution=x_res)
    except ConfigurationError as exc:
        raise ConfigurationError(f"pair: {exc}") from exc
    scale = _number("pair", "scale", pb.get("scale", 1.0), lo=0.0)
    ladder_depth = _integer("pair", "ladder_depth", pb.get("ladder_depth", 10), lo=1, hi=40)

    mb = _block(raw, "mc")
    paths = _integer("mc", "paths", mb.get("paths", 10000), lo=1)
    seed = _integer("mc", "seed", mb.get("seed", 0), lo=0)

    tb = _block(raw, "tree")
    depth = _integer("tree", "depth", tb.get("depth", 6), lo=1, hi=12)
    with_coin = tb.get("with_coin", False)
    if not isinstance(with_coin, bool):
        _fail("tree.with_coin", f"expected true/false, got {with_coin!r}")

    tol = _block(raw, "tolerances")
    tol_exact = _number("tolerances", "exact", tol.get("exact", 1e-12), lo=0.0, open_lo=True)
    sigma_multiplier = _number(
        "tolerances", "sigma_multiplier", tol.get("sigma_multiplier", 3.0), lo=0.0, open_lo=True
    )
    atom_tol = _number("tolerances", "atom_tol", tol.get("atom_tol", 1e-12), lo=0.0, open_lo=True)

    ob = _block(raw, "outputs")
    out_dir = ob.get("directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("outputs.directory", "expected a nonempty string")
    formats = ob.get("formats", ["json", "csv"])
    if not isinstance(formats, list) or not formats:
        _fail("outputs.formats", "expected a nonempty list")
    for f in formats:
        if f not in ("json", "csv"):
            _fail("outputs.formats", f"unknown format {f!r}; allowed json, csv")

    return RunConfig(
        raw=raw,
        grid=grid,
        z=zcfg,
        spec=spec,
        scale=scale,
        ladder_depth=ladder_depth,
        paths=paths,
        seed=seed,
        tree_depth=depth,
        with_coin=with_coin,
        tol_exact=tol_exact,
        sigma_multiplier=sigma_multiplier,
        atom_tol=atom_tol,
        out_dir=out_dir,
        formats=tuple(formats),
    )
