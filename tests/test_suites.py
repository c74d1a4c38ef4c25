import numpy as np

from defaultlab import coefficients, default_measure, family

from defaultlab.config import default_config, validate_config
from defaultlab.grids import TimeGrid, sample_bundle, three_branch_model
from defaultlab.survival import ZGeneratorConfig, generate_z
from defaultlab.coefficients import build_y
from defaultlab.suites import (
    affine_identity_suite,
    build_mc_world,
    build_tree_world,
    corollary_suite,
    mc_suite,
    polarize_suite,
    regularity_suite,
    tree_suite,
)


def small_cfg(**over):
    raw = default_config()
    raw["tree"]["depth"] = 4
    raw["grid"]["steps"] = 8
    raw["mc"]["paths"] = 1500
    for key, sub in over.items():
        raw[key].update(sub)
    return validate_config(raw)


def check_map(rep):
    return {c["name"]: c for c in rep["checks"]}


def test_affine_identity_suite_small():
    rep = affine_identity_suite(n_instances=200, steps=400, seed=9)
    assert rep["pass"]
    assert rep["suite"] == "affine-identity"
    assert rep["residuals"]["affine_identity_max_abs"] <= 1e-12
    row = rep["checks"][0]
    assert row["tol"] == 1e-12 and row["pass"]


def test_tree_suite_small_with_coin():
    cfg = small_cfg(tree={"with_coin": True})
    tree, model, pair = build_tree_world(cfg)
    rep = tree_suite(tree, model, pair, cfg.tol_exact, atom_tol=cfg.atom_tol)
    assert rep["pass"]
    names = check_map(rep)
    assert names["product_measure_matches_family"]["value"] <= 1e-12
    assert names["enlargement/coin_immersion_exact"]["value"] == 0.0
    assert names["condition_i_min_slack"]["value"] > 0.0
    assert names["atom_identity_cells"]["value"] <= 1e-12
    header, rows = rep["tables"]["enlargement"]
    assert header == ("martingale", "step", "atom", "residual")
    marts = {r[0] for r in rows}
    assert "coin" in marts and "diff" in marts
    assert rep["residuals"]["flat_cell_mass"] == 0.0


def test_mc_suite_small():
    cfg = small_cfg()
    bundle, model, pair = build_mc_world(cfg)
    rep = mc_suite(bundle, model, pair, cfg.seed, sigma_mult=cfg.sigma_multiplier)
    assert rep["pass"]
    names = check_map(rep)
    assert names["tau_beyond_sigma_units"]["value"] <= 3.0
    assert names["enlargement/diff_functional_count"]["value"] >= 20
    assert names["atom_identity_one_step"]["value"] <= 1e-12
    header, rows = rep["tables"]["tau_cells"]
    counted = sum(r[2] for r in rows)
    assert counted <= bundle.n_paths
    # per-cell expected masses telescope to the default-by-horizon mass
    assert abs(sum(r[4] for r in rows) - np.mean(model.s[:, -1])) < 1e-9


def test_mc_suite_evaluates_f_once_per_member_step(monkeypatch):
    # deterministic count gate on the points passed to f: once per (member,
    # step) in the family pass, which also feeds the pair conditions; on
    # both density states per step in the enlargement pass, whatever the
    # number of test martingales; once per path and step in the one-step
    # atom identity; and once per path whose default cell ends inside the
    # horizon, when that cell is activated
    cfg = small_cfg(mc={"paths": 300})
    bundle, model, pair = build_mc_world(cfg)
    n, p = cfg.grid.steps, bundle.n_paths
    assert (n, p) == (8, 300)
    points = []
    real = coefficients.evaluate_f

    def counted(spec, t, x, ps):
        points.append(np.broadcast(np.asarray(x), np.asarray(ps)).size)
        return real(spec, t, x, ps)

    for mod in (coefficients, family, default_measure):
        monkeypatch.setattr(mod, "evaluate_f", counted)
    rep = mc_suite(bundle, model, pair, cfg.seed, sigma_mult=cfg.sigma_multiplier)
    assert rep["pass"]
    _, rows = rep["tables"]["tau_cells"]
    activated = sum(r[2] for r in rows if 1 <= r[0] <= n)
    assert activated > 0
    assert sum(points) == p * sum(n - u for u in range(n)) + 2 * n * p + n * p + activated


def test_mc_suite_all_pairs_subsumes_adjacent():
    cfg = small_cfg(mc={"paths": 400})
    bundle, model, pair = build_mc_world(cfg)
    adj = check_map(mc_suite(bundle, model, pair, cfg.seed))
    full = check_map(mc_suite(bundle, model, pair, cfg.seed, all_pairs=True))
    assert full["condition_iii_min_slack"]["pass"]
    assert full["condition_iii_min_slack"]["value"] <= adj["condition_iii_min_slack"]["value"]
    assert full["condition_i_min_slack"]["value"] == adj["condition_i_min_slack"]["value"]


def test_regularity_suite_small():
    cfg = validate_config(default_config())
    rep = regularity_suite(cfg.spec, refinements=2, n_paths=48, seed=5, fd_steps=32)
    names = check_map(rep)
    assert names["jump_identity_max"]["value"] <= 1e-10
    assert names["flow_fd_slope_0"]["pass"]
    header, rows = rep["tables"]["refinement"]
    assert [r[0] for r in rows] == [16, 32, 64]
    assert all(r[5] > 0.0 for r in rows)


def test_corollary_suite_small():
    cfg = validate_config(default_config())
    rep = corollary_suite(cfg.spec, steps=64, n_paths=400, tree_depth=4, seed=7)
    assert rep["pass"]
    names = check_map(rep)
    assert names["atom_jump_stability"]["value"] == 0.0
    assert names["tree_flat_cell_mass"]["value"] == 0.0
    assert names["continuous_jump_ratio_two_refinements"]["value"] >= 2.0
    header, rows = rep["tables"]["u_refinement"]
    assert [r[0] for r in rows] == [4, 2, 1]
    assert rows[0][1] > rows[2][1]


def test_polarize_suite_smoke():
    rep = polarize_suite(
        t_values=(2.0, 5.0), n_paths=500, seed=3, u_times=(0.0, 0.5, 1.0, 1.5)
    )
    names = check_map(rep)
    assert names["terminal_bounds_max_violation"]["value"] <= 1e-12
    assert rep["experiment"]["t_values"] == [2.0, 5.0]
    fr = rep["experiment"]["interior_fraction"]
    assert len(fr) == 2 and all(0.0 <= f <= 1.0 for f in fr)
    header, rows = rep["tables"]["histogram"]
    mass = sum(r[3] for r in rows if r[0] == 2.0)
    assert abs(mass - 1.0) < 1e-9
    hdr2, frac_rows = rep["tables"]["interior_fraction"]
    assert [r[0] for r in frac_rows] == [2.0, 5.0]


def test_polarization_experiment_decreases_small():
    from defaultlab.default_measure import polarization_experiment

    rep = polarization_experiment(
        t_values=(2.0, 8.0), n_paths=600, dt=0.1, seed=1, u_times=(0.0, 0.5, 1.0, 1.5)
    )
    assert rep["monotone_decreasing"]
    assert rep["interior_fraction"][1] < rep["interior_fraction"][0]
    assert len(rep["bin_edges"]) == 21
    assert max(rep["terminal_bound_violation"]) <= 1e-12
    for h in rep["histograms"]:
        assert abs(sum(h) - 1.0) < 1e-9


def test_polarize_terminal_bounds_negative_control(monkeypatch):
    # members shifted up by 1e-9: the u = T member starts at 1 - Z_T
    # bitwise, so the shift breaches the upper bound by 1e-9
    from defaultlab import default_measure

    solve = default_measure.solve_natural
    monkeypatch.setattr(default_measure, "solve_natural", lambda *args: solve(*args) + 1e-9)
    rep = polarize_suite(t_values=(2.0,), n_paths=200, seed=3, u_times=(0.0, 1.0, 2.0))
    check = check_map(rep)["terminal_bounds_max_violation"]
    assert not check["pass"] and not rep["pass"]
    assert abs(check["value"] - 1e-9) < 1e-12
    monkeypatch.setattr(default_measure, "solve_natural", solve)
    rep = polarize_suite(t_values=(2.0,), n_paths=200, seed=3, u_times=(0.0, 1.0, 2.0))
    assert check_map(rep)["terminal_bounds_max_violation"]["pass"]
