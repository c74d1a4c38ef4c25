import json

import pytest

from defaultlab.config import (
    apply_overrides,
    config_hash,
    default_config,
    load_config,
    validate_config,
)
from defaultlab.errors import ConfigurationError


def test_default_config_validates():
    cfg = validate_config(default_config())
    assert cfg.grid.steps == 32
    assert cfg.tree_depth == 6
    assert cfg.spec.m == 2
    assert cfg.paths == 10000
    assert list(cfg.formats) == ["json", "csv"]
    assert cfg.tree_grid().steps == 6
    assert cfg.tree_grid().horizon == cfg.grid.horizon


def test_config_hash_stable_and_sensitive():
    raw = default_config()
    h1 = config_hash(raw)
    h2 = config_hash(json.loads(json.dumps(raw)))
    assert h1 == h2
    raw["outputs"]["directory"] = "elsewhere"
    assert config_hash(raw) == h1
    raw["mc"]["seed"] = 1
    assert config_hash(raw) != h1
    cfg = validate_config(raw)
    assert cfg.hash == config_hash(raw)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(default_config()))
    raw = load_config(str(p))
    assert validate_config(raw).seed == 0

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config(str(bad))
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.json"))


def test_apply_overrides_copies():
    raw = default_config()
    out = apply_overrides(raw, seed=7, paths=500, out="elsewhere")
    assert out["mc"]["seed"] == 7
    assert out["mc"]["paths"] == 500
    assert out["outputs"]["directory"] == "elsewhere"
    assert raw["mc"]["seed"] == 0
    assert raw["outputs"]["directory"] == "out"
    same = apply_overrides(raw)
    assert same == raw and same is not raw


def rejects(mutate, match=None):
    raw = default_config()
    mutate(raw)
    with pytest.raises(ConfigurationError, match=match):
        validate_config(raw)


def test_validate_rejects_bad_schema():
    rejects(lambda r: r.update(schema_version=3), "schema_version")
    rejects(lambda r: r.pop("schema_version"), "schema_version")
    rejects(lambda r: r.update(extra_block={}), "extra_block")
    rejects(lambda r: r.pop("grid"), "grid")
    rejects(lambda r: r["grid"].update(unknown=1), "unknown")


def test_saved_version_1_config_is_refused_by_its_version():
    # every version-1 config holds the removed keys tree.b and mc.batch
    raw = default_config()
    raw["schema_version"] = 1
    raw["tree"]["b"] = 3
    raw["mc"]["batch"] = 0
    msg = r"schema_version: expected 2, got 1 \(version 2 removed tree.b, mc.batch and pair.m\)"
    with pytest.raises(ConfigurationError, match=msg):
        validate_config(raw)


def test_validate_rejects_bad_values():
    rejects(lambda r: r["z"].update(eps=0.5), "eps")
    rejects(lambda r: r["z"].update(eps=0.0), "eps")
    rejects(lambda r: r["z"].update(z0=1.5), "z0")
    rejects(lambda r: r["z"].update(sigma=True), "sigma")
    rejects(lambda r: r["grid"].update(steps=0), "steps")
    rejects(lambda r: r["grid"].update(steps=2.5), "steps")
    rejects(lambda r: r["tree"].update(b=3), r"tree: unknown keys \['b'\]")
    rejects(lambda r: r["mc"].update(batch=0), r"mc: unknown keys \['batch'\]")
    rejects(lambda r: r["tree"].update(depth=13), "depth")
    rejects(lambda r: r["tree"].update(with_coin=1), "with_coin")
    rejects(lambda r: r["mc"].update(paths=-1), "paths")
    rejects(lambda r: r["outputs"].update(formats=["yaml"]), "formats")
    rejects(lambda r: r["outputs"].update(formats=[]), "formats")


def test_validate_rejects_bad_pair():
    rejects(lambda r: r["pair"].update(m=2), r"pair: unknown keys \['m'\]")
    rejects(lambda r: r["pair"].update(components=[]), "component")
    rejects(lambda r: r["pair"]["components"][0].update(unknown=1), "unknown")
    rejects(lambda r: r["pair"]["components"][0].update(bumps=[[0.3, 0.2]]), "bumps")
    rejects(lambda r: r["pair"]["components"][1].update(plateaus=[[0.2, 0.6, 0.2]]), "plateaus")
    rejects(lambda r: r["pair"]["components"][0].update(time_affine=[1.0]), "time_affine")
