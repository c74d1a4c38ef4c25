import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from defaultlab import cli, family as family_mod
from defaultlab.config import config_hash, default_config, validate_config
from defaultlab.default_measure import sample_tau
from defaultlab.family import build_family
from defaultlab.grids import philox_stream
from defaultlab.suites import build_mc_world, build_tree_world
from row_writer import write_rows


def write_cfg(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def small_raw(depth=4, steps=8, paths=600):
    raw = default_config()
    raw["tree"]["depth"] = depth
    raw["grid"]["steps"] = steps
    raw["mc"]["paths"] = paths
    return raw


def test_verify_tree_small_config(tmp_path):
    raw = small_raw()
    cfgp = write_cfg(tmp_path, raw)
    out = str(tmp_path / "out")
    assert cli.main(["verify-tree", "--config", cfgp, "--out", out]) == 0
    summary = json.loads((tmp_path / "out" / "verify-tree" / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["suite"] == "verify-tree"
    assert summary["seed"] == 0
    assert summary["config_hash"] == config_hash(raw)
    assert all(c["pass"] for c in summary["checks"])
    assert (tmp_path / "out" / "verify-tree" / "enlargement.csv").exists()


def test_verify_mc_small_and_failed_gate(tmp_path):
    raw = small_raw()
    out = str(tmp_path / "ok")
    assert cli.main(["verify-mc", "--config", write_cfg(tmp_path, raw), "--out", out]) == 0
    raw["tolerances"]["sigma_multiplier"] = 1e-9
    cfgp = write_cfg(tmp_path, raw, "tight.json")
    out2 = str(tmp_path / "fail")
    assert cli.main(["verify-mc", "--config", cfgp, "--out", out2]) == 1
    summary = json.loads((tmp_path / "fail" / "verify-mc" / "summary.json").read_text())
    assert summary["pass"] is False
    failed = [c["name"] for c in summary["checks"] if not c["pass"]]
    assert any(name.startswith("enlargement/") for name in failed)


def test_config_error_exits_2(tmp_path):
    raw = default_config()
    raw["z"]["eps"] = 0.5
    assert cli.main(["verify-tree", "--config", write_cfg(tmp_path, raw)]) == 2
    assert cli.main(["verify-tree", "--config", str(tmp_path / "missing.json")]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_seed_and_paths_overrides(tmp_path):
    raw = small_raw()
    cfgp = write_cfg(tmp_path, raw)
    out = str(tmp_path / "o")
    assert cli.main(["sample-tau", "--config", cfgp, "--out", out, "--seed", "9", "--paths", "50"]) == 0
    summary = json.loads((tmp_path / "o" / "sample-tau" / "summary.json").read_text())
    assert summary["seed"] == 9
    with open(tmp_path / "o" / "sample-tau" / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 51
    assert rows[0] == ["path", "tau_index", "tau_time", "uniform"]
    for _, tau_index, tau_time, uniform in rows[1:]:
        assert 0.0 <= float(uniform) < 1.0
        if int(tau_index) == -1:
            assert float(tau_time) == -1.0
        else:
            assert 0.0 <= float(tau_time) <= 1.0


def test_build_family_zero_forcing_matches_survival(tmp_path):
    raw = small_raw(depth=3)
    raw["pair"]["scale"] = 0.0
    raw["z"]["sigma"] = 0.0
    raw["z"]["jump_scale"] = 0.0
    cfgp = write_cfg(tmp_path, raw)
    out = str(tmp_path / "fam")
    assert cli.main(["build-family", "--config", cfgp, "--out", out]) == 0
    cfg = validate_config(raw)
    from defaultlab.suites import build_tree_world

    tree, model, pair = build_tree_world(cfg)
    with open(tmp_path / "fam" / "build-family" / "family.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for u, t, node, val in rows:
        u, t, node = int(u), int(t), int(node)
        ref = model.s[u][node // (3 ** (t - u))]
        assert float(val) == ref


def test_build_family_csv_is_the_row_writer_bytes(tmp_path):
    raw = small_raw(depth=4)
    out = tmp_path / "fam"
    assert cli.main(["build-family", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
    cfg = validate_config(raw)
    tree, model, pair = build_tree_world(cfg)
    family = build_family(pair, model, tol=cfg.tol_exact)
    rows = [
        (u, k, node, value)
        for u in family.u_indices
        for k in range(u, tree.depth + 1)
        for node, value in enumerate(family.values(u)[k])
    ]
    # every member u <= k has 3**k nodes at level k
    assert len(rows) == sum((k + 1) * 3**k for k in range(5))
    write_rows(tmp_path / "ref.csv", ("u_index", "t_index", "node", "value"), rows)
    got = (out / "build-family" / "family.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()


def test_sample_tau_csv_is_the_row_writer_bytes(tmp_path):
    raw = small_raw(steps=8, paths=700)
    raw["mc"]["seed"] = 4
    out = tmp_path / "tau"
    assert cli.main(["sample-tau", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
    cfg = validate_config(raw)
    bundle, model, pair = build_mc_world(cfg)
    family = build_family(pair, model, tol=cfg.tol_exact, keep="terminal")
    samples = sample_tau(family, model, philox_stream(4, "tau-samples"))
    tau = samples.tau_u()
    times = bundle.grid.times
    assert np.any(tau == -1) and np.any(tau >= 0)
    rows = [
        (p, int(tau[p]), times[tau[p]] if tau[p] >= 0 else -1.0, samples.uniform[p])
        for p in range(samples.n_paths)
    ]
    write_rows(tmp_path / "ref.csv", ("path", "tau_index", "tau_time", "uniform"), rows)
    got = (out / "sample-tau" / "samples.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()


def test_build_family_writes_the_failing_axiom_rows_and_exits_1(tmp_path, shifted_advance):
    out = tmp_path / "bad"
    code = cli.main(["build-family", "--config", write_cfg(tmp_path, small_raw()), "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "build-family" / "summary.json").read_text())
    assert summary["pass"] is False
    assert all(c["name"].startswith("family_axioms/") for c in summary["checks"])
    failing = [c for c in summary["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["family_axioms/martingale"]
    assert abs(failing[0]["value"] - 1e-9) < 1e-12
    assert os.listdir(out / "build-family") == ["summary.json"]


def test_sample_tau_writes_the_failing_axiom_rows_and_exits_1(tmp_path, monkeypatch):
    # members started 1e-9 above 1 - Z_u
    start = family_mod._start_level
    monkeypatch.setattr(family_mod, "_start_level", lambda *args: start(*args) + 1e-9)
    out = tmp_path / "bad"
    assert cli.main(["sample-tau", "--config", write_cfg(tmp_path, small_raw()), "--out", str(out)]) == 1
    summary = json.loads((out / "sample-tau" / "summary.json").read_text())
    row = {c["name"]: c for c in summary["checks"]}["family_axioms/starts_at_one_minus_z"]
    assert not row["pass"] and summary["pass"] is False
    assert os.listdir(out / "sample-tau") == ["summary.json"]


def test_polarize_handler_wiring(tmp_path, monkeypatch):
    seen = {}

    def stub(n_paths, seed, tol_exact):
        seen.update(paths=n_paths, seed=seed)
        return {
            "suite": "polarize",
            "checks": [{"name": "x", "value": 0.0, "pass": True}],
            "pass": True,
            "residuals": {"x": 0.0},
            "tables": {"interior_fraction": (("horizon", "fraction"), [(5.0, 0.4)])},
            "experiment": {"t_values": [5.0], "interior_fraction": [0.4]},
        }

    monkeypatch.setattr(cli.suites, "polarize_suite", stub)
    out = str(tmp_path / "pol")
    assert cli.main(["polarize", "--out", out, "--paths", "123", "--seed", "4"]) == 0
    assert seen == {"paths": 123, "seed": 4}
    exp = json.loads((tmp_path / "pol" / "polarize" / "experiment.json").read_text())
    assert exp["t_values"] == [5.0]
    assert (tmp_path / "pol" / "polarize" / "interior_fraction.csv").exists()


def test_polarize_failing_family_writes_its_rows_only(tmp_path, monkeypatch):
    # a family refused by its axioms leaves polarize_suite no experiment
    def stub(n_paths, seed, tol_exact):
        row = {"name": "family_axioms/nonnegative", "value": 1e-9, "tol": tol_exact, "pass": False}
        return {"suite": "polarize", "checks": [row], "pass": False,
                "residuals": {row["name"]: 1e-9}, "tables": {}}

    monkeypatch.setattr(cli.suites, "polarize_suite", stub)
    assert cli.main(["polarize", "--out", str(tmp_path / "pol")]) == 1
    assert os.listdir(tmp_path / "pol" / "polarize") == ["summary.json"]


def test_regularity_handler_merges(tmp_path, monkeypatch):
    def stub_reg(spec, seed, scale, ladder_depth):
        return {
            "suite": "regularity",
            "checks": [{"name": "jump_identity_max", "value": 0.0, "tol": 1e-10, "pass": True}],
            "pass": True,
            "residuals": {"jump_identity_max": 0.0},
            "tables": {"refinement": (("steps",), [(16,)])},
        }

    def stub_cor(spec, seed, ladder_depth):
        return {
            "suite": "corollary",
            "checks": [{"name": "atom_jump_stability", "value": 0.0, "tol": 1e-6, "pass": False}],
            "pass": False,
            "residuals": {"atom_jump_stability": 0.0},
            "tables": {"u_refinement": (("stride",), [(4,)])},
        }

    monkeypatch.setattr(cli.suites, "regularity_suite", stub_reg)
    monkeypatch.setattr(cli.suites, "corollary_suite", stub_cor)
    out = str(tmp_path / "reg")
    assert cli.main(["regularity", "--out", out]) == 1
    summary = json.loads((tmp_path / "reg" / "regularity" / "summary.json").read_text())
    names = [c["name"] for c in summary["checks"]]
    assert "jump_identity_max" in names
    assert "corollary/atom_jump_stability" in names
    assert summary["pass"] is False
    assert summary["residuals"]["corollary/atom_jump_stability"] == 0.0
    assert (tmp_path / "reg" / "regularity" / "refinement.csv").exists()
    assert (tmp_path / "reg" / "regularity" / "corollary_u_refinement.csv").exists()


def test_json_only_formats_skips_csv(tmp_path):
    raw = small_raw()
    raw["outputs"]["formats"] = ["json"]
    cfgp = write_cfg(tmp_path, raw)
    out = str(tmp_path / "jo")
    assert cli.main(["verify-tree", "--config", cfgp, "--out", out]) == 0
    files = sorted(os.listdir(tmp_path / "jo" / "verify-tree"))
    assert files == ["summary.json"]


def test_subprocess_determinism_and_console_module(tmp_path):
    cfgp = write_cfg(tmp_path, small_raw(paths=300))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "defaultlab.cli", "sample-tau",
             "--config", cfgp, "--out", str(out)],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for fname in ("summary.json", "samples.csv"):
        a = (outs[0] / "sample-tau" / fname).read_bytes()
        b = (outs[1] / "sample-tau" / fname).read_bytes()
        assert a == b
