"""Verification suites shared by the command line and the test battery.

Each suite returns a plain dict: ``suite`` name, a flat list of ``checks``
({name, value, tol?, pass}), the overall ``pass`` flag, a ``residuals``
map with every numeric check value, and CSV-ready ``tables``.  Exact
checks carry absolute tolerances; statistical checks are expressed in
standard-error units so the sigma multiplier is the tolerance.  Nothing
here writes files or reads clocks; suites are deterministic functions of
their inputs.
"""

from __future__ import annotations

import numpy as np

from .calculus import affine_solve, affine_solve_product_form
from .coefficients import (
    CoefficientSpec,
    ComponentSpec,
    PlateauSpec,
    _CONDITIONS,
    _fold_conditions,
    _new_condition_agg,
    build_y,
    check_pair_conditions,
)
from .default_measure import (
    absolute_continuity_check,
    driver_martingale,
    enlargement_compensator,
    enlargement_compensators,
    polarization_experiment,
    sample_tau,
    sign_modulated_martingale,
)
from .errors import SolverInconsistencyError
from .family import (
    build_family,
    family_regularity,
    flow_solve,
    kappa_values,
    one_step_atom_residuals,
    solve_natural,
)
from .grids import TimeGrid, philox_stream, sample_bundle, three_branch_model
from .survival import ZGeneratorConfig, generate_z
from .tree import ScenarioTree, build_product_measure

__all__ = [
    "affine_identity_suite",
    "tree_suite",
    "mc_suite",
    "regularity_suite",
    "corollary_suite",
    "polarize_suite",
    "build_tree_world",
    "build_mc_world",
]


def _row(name, value, tol=None, passed=None):
    if passed is None:
        passed = bool(value <= tol)
    row = {"name": name, "value": value, "pass": bool(passed)}
    if tol is not None:
        row["tol"] = tol
    return row


def _suite(name, checks, tables=None):
    residuals = {}
    for c in checks:
        if isinstance(c["value"], (int, float)) and not isinstance(c["value"], bool):
            residuals[c["name"]] = float(c["value"])
    return {
        "suite": name,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "residuals": residuals,
        "tables": tables or {},
    }


def build_tree_world(cfg):
    """Tree, survival model, and pair from a validated run config."""
    grid = cfg.tree_grid()
    tree = ScenarioTree(grid, three_branch_model(with_coin=cfg.with_coin))
    model = generate_z(cfg.z, tree)
    pair = build_y(cfg.spec, model, seed=cfg.seed, scale=cfg.scale, ladder_depth=cfg.ladder_depth)
    return tree, model, pair


def build_mc_world(cfg):
    bundle = sample_bundle(cfg.grid, three_branch_model(), cfg.paths, cfg.seed)
    model = generate_z(cfg.z, bundle)
    pair = build_y(cfg.spec, model, seed=cfg.seed, scale=cfg.scale, ladder_depth=cfg.ladder_depth)
    return bundle, model, pair


# ---------------------------------------------------------------------------
# affine identity

def affine_identity_suite(n_instances=1000, steps=1000, seed=2024, tol=1e-12):
    """Explicit product formula vs direct recursion on random instances.

    Increments are drawn at the sqrt(dt) diffusion scaling the library
    drivers use; coarser increments inflate the dynamic range of the
    product-form partial sums and the comparison stops resolving at
    1e-12 for float64.
    """
    rng = philox_stream(seed, "affine-identity")
    sdt = 1.0 / np.sqrt(steps)
    a = rng.uniform(0.0, 1.0, n_instances)
    dw = rng.uniform(-1.5 * sdt, 1.5 * sdt, (n_instances, steps))
    dv = rng.uniform(-0.8 * sdt, 0.8 * sdt, (n_instances, steps))
    resid = float(np.max(np.abs(affine_solve(a, dw, dv) - affine_solve_product_form(a, dw, dv))))
    checks = [_row("affine_identity_max_abs", resid, tol)]
    return _suite("affine-identity", checks)


# ---------------------------------------------------------------------------
# pair-condition aggregation

def _condition_rows(agg):
    rows = []
    for key in _CONDITIONS:
        sub = agg[key]
        ms = sub["min_slack"]
        strict = ms is not None and ms > 0.0 and sub["violations"] == 0
        rows.append(_row(f"{key}_min_slack", ms if ms is not None else float("inf"), passed=strict))
    rows.append(_row("condition_iii_map_form_agrees", agg["agree"], passed=agg["agree"]))
    return rows


def _sigma_units(value, se):
    if se > 0.0:
        return abs(value) / se
    return 0.0 if value == 0.0 else float("inf")


# ---------------------------------------------------------------------------
# exact tree suite

def tree_suite(tree, model, pair, tol_exact=1e-12, tol_enlarge=1e-10, atom_tol=1e-12):
    """Exhaustive oracle battery: family axioms, product measure, pair
    strictness, atom identity, enlargement, absolute continuity."""
    checks = []
    tables = {}
    n = tree.depth
    try:
        family = build_family(pair, model, tol=tol_exact)
    except SolverInconsistencyError as exc:
        checks.append({"name": "family_axioms", "value": str(exc), "pass": False})
        return _suite("verify-tree", checks)
    for c in family.report["checks"]:
        checks.append(_row(f"family_axioms/{c['name']}", c["max_violation"], tol_exact))

    pm = build_product_measure(tree, family)
    worst = 0.0
    for i, u in enumerate(family.u_indices):
        for k in range(u, n + 1):
            diff = pm.cell_cdf_at_node(i, k) - family.values(u)[k]
            worst = max(worst, float(np.max(np.abs(diff))))
    checks.append(_row("product_measure_matches_family", worst, tol_exact))
    marginal = float(np.max(np.abs(pm.weights.sum(axis=0) - pm.leaf_probs)))
    checks.append(_row("path_marginal_matches_p", marginal, tol_exact))

    margin_a, margin_b = pair.min_margins()
    checks.append(_row("jump_margin_a_min", margin_a, passed=margin_a > 0.0))
    checks.append(_row("jump_margin_b_min", margin_b, passed=margin_b > 0.0))

    # exhaustive: every solution alone for (i)/(ii), every ordered pair
    # for (iii)
    agg = _new_condition_agg()
    for u in range(0, n):
        _fold_conditions(
            agg, check_pair_conditions(pair, model, family.values(u), None, window=(u + 1, n))
        )
        for up in range(0, u):
            _fold_conditions(
                agg,
                check_pair_conditions(
                    pair, model, family.values(u), family.values(up), window=(u + 1, n)
                ),
            )
    checks.extend(_condition_rows(agg))

    atom_fam = 0.0
    for k in range(1, n + 1):
        kap = kappa_values(pair, model, k)
        da = tree.lift(model.a_increments[k - 1])
        lhs = family.values(k)[k] - family.values(k - 1)[k]
        atom_fam = max(atom_fam, float(np.max(np.abs(lhs - kap * da))))
    checks.append(_row("atom_identity_cells", atom_fam, tol_exact))
    checks.append(
        _row("atom_identity_one_step", float(np.max(one_step_atom_residuals(pair, model))), tol_exact)
    )

    marts = [
        driver_martingale(tree, "diff"),
        driver_martingale(tree, "jump"),
        sign_modulated_martingale(tree, "diff", "jump"),
    ]
    has_coin = any(blk.name == "coin" for blk in tree.model.blocks)
    if has_coin:
        marts.append(driver_martingale(tree, "coin"))
    enl_rows = []
    for mart in marts:
        rep = enlargement_compensator(pair, model, family, mart, tol=tol_enlarge, atom_tol=atom_tol)
        checks.append(_row(f"enlargement/{mart.name}", rep.max_residual, tol_enlarge))
        for e in rep.entries:
            enl_rows.append((mart.name, e["step"], e["atom"], e["residual"]))
        if mart.name == "coin":
            checks.append(
                _row("enlargement/coin_immersion_exact", rep.max_residual, passed=rep.max_residual == 0.0)
            )
    tables["enlargement"] = (("martingale", "step", "atom", "residual"), enl_rows)

    ac = absolute_continuity_check(family, model, t=n, tol=tol_exact)
    checks.append(_row("flat_cell_mass", ac["zero_mass_max"], tol_exact))
    has_mass_cells = ac["cells"] > ac["zero_cells"]
    checks.append(
        _row("density_ratio_min", ac["ratio_min"], passed=(not has_mass_cells) or ac["ratio_min"] > 0.0)
    )
    return _suite("verify-tree", checks, tables)


# ---------------------------------------------------------------------------
# statistical Monte Carlo suite

def mc_suite(
    bundle,
    model,
    pair,
    seed,
    tol_exact=1e-12,
    sigma_mult=3.0,
    atom_tol=1e-12,
    tol_enlarge=1e-10,
    all_pairs=False,
):
    """Pathwise and statistical battery at Monte Carlo scale.

    Invariant checks (bounds, conditions, atom identity) are hard pathwise
    assertions; distributional checks (sampled CDF, beyond-horizon mass,
    compensated-increment correlations) are scored in standard-error units
    against the sigma multiplier.
    """
    checks = []
    tables = {}
    n = bundle.grid.steps
    s = model.s
    try:
        family = build_family(pair, model, tol=tol_exact, keep="terminal")
    except SolverInconsistencyError as exc:
        checks.append({"name": "family_axioms", "value": str(exc), "pass": False})
        return _suite("verify-mc", checks)
    for c in family.report["checks"]:
        checks.append(_row(f"family_axioms/{c['name']}", c["max_violation"], tol_exact))

    margin_a, margin_b = pair.min_margins()
    checks.append(_row("jump_margin_a_min", margin_a, passed=margin_a > 0.0))
    checks.append(_row("jump_margin_b_min", margin_b, passed=margin_b > 0.0))

    if all_pairs:
        # every solution alone and every ordered pair, pathwise; all
        # solutions stay resident, so memory is (steps+1) full solutions
        agg = _new_condition_agg()
        sols = [solve_natural(pair, model, u, s[:, u]) for u in range(n)]
        for u in range(0, n):
            _fold_conditions(
                agg, check_pair_conditions(pair, model, sols[u], None, window=(u + 1, n))
            )
            for up in range(0, u):
                _fold_conditions(
                    agg,
                    check_pair_conditions(pair, model, sols[u], sols[up], window=(u + 1, n)),
                )
        del sols
    else:
        # adjacent pairs plus one wide witness pair, folded in by
        # build_family from its own solve
        agg = family.conditions
    checks.extend(_condition_rows(agg))

    checks.append(
        _row("atom_identity_one_step", float(np.max(one_step_atom_residuals(pair, model))), tol_exact)
    )

    samples = sample_tau(family, model, philox_stream(seed, "tau-samples"))
    z_term = 1.0 - s[:, n]
    expected = float(np.mean(z_term))
    observed = float(np.mean(samples.beyond))
    se = float(np.sqrt(max(expected * (1.0 - expected), 0.0) / samples.n_paths))
    checks.append(_row("tau_beyond_sigma_units", _sigma_units(observed - expected, se), sigma_mult))

    counts = np.bincount(samples.cell, minlength=len(family.u_indices) + 1)
    cum = np.cumsum(counts) / samples.n_paths
    worst_units = 0.0
    for i, u in enumerate(family.u_indices):
        exp_u = float(np.mean(family.terminal(u)))
        se_u = float(np.sqrt(max(exp_u * (1.0 - exp_u), 0.0) / samples.n_paths))
        worst_units = max(worst_units, _sigma_units(cum[i] - exp_u, se_u))
    checks.append(_row("tau_cdf_sigma_units", worst_units, sigma_mult))
    tables["tau_cells"] = (
        ("cell", "u_index", "count", "frequency", "expected"),
        [
            (i, u, int(counts[i]), counts[i] / samples.n_paths, float(np.mean(family.terminal(u)) - (np.mean(family.terminal(family.u_indices[i - 1])) if i else 0.0)))
            for i, u in enumerate(family.u_indices)
        ],
    )

    enl_rows = []
    marts = [driver_martingale(bundle, "diff"), sign_modulated_martingale(bundle, "jump", "diff")]
    reports = enlargement_compensators(
        pair, model, family, marts, samples=samples, tol=tol_enlarge, atom_tol=atom_tol
    )
    for mart, rep in zip(marts, reports):
        units = 0.0
        for e in rep.entries:
            eu = _sigma_units(e["estimate"], e["se"])
            units = max(units, eu)
            enl_rows.append((mart.name, e["functional"], e["anchor"], e["estimate"], e["se"], eu))
        checks.append(_row(f"enlargement/{mart.name}_sigma_units", units, sigma_mult))
        checks.append(
            _row(
                f"enlargement/{mart.name}_functional_count",
                len(rep.entries),
                passed=len(rep.entries) >= 20,
            )
        )
    tables["enlargement"] = (
        ("martingale", "functional", "anchor", "estimate", "se", "sigma_units"),
        enl_rows,
    )
    return _suite("verify-mc", checks, tables)


# ---------------------------------------------------------------------------
# regularity: refinement sweeps, jump identity, flow derivative

def _tame_plateau_spec():
    # single wide plateau: f is exactly quadratic in x on [0, 1], so the
    # composed flow has mild curvature and refinement limits resolve
    comp = ComponentSpec(plateaus=(PlateauSpec(-0.5, 1.5, 0.5, 1.0),), time_affine=(1.0, 0.15))
    return CoefficientSpec(components=(comp,))


def regularity_suite(
    spec,
    horizon=1.0,
    base_steps=16,
    refinements=4,
    n_paths=128,
    seed=5,
    scale=1.0,
    ladder_depth=10,
    jump_time=0.5,
    quot_time=0.25,
    obs_time=0.4375,
    vol=0.5,
    tol_jump=1e-10,
    fd_h=(1e-3, 1e-4, 1e-5),
    fd_steps=64,
):
    """Time-grid refinement behavior of the family around one atom.

    The refinement sweep runs in a controlled world: a wide-plateau pair
    with driver scale vol * sqrt(dt).  Without the sqrt(dt) scaling the
    ladder saturates the admissibility margin at every step and the world
    has no continuum limit for the quotients to converge in.  Per level
    the jump identity must hold pathwise at the atom and the one-cell
    quotients at a continuity point must approach the flow-derivative
    predictions (residuals decreasing in at least refinements - 1 of the
    halvings).  The flow derivative itself is checked against central
    finite differences on the caller's pair, where no limit is involved.
    """
    tame = _tame_plateau_spec()
    checks = []
    rows = []
    jump_resids, left_resids, right_resids = [], [], []
    for level in range(refinements + 1):
        steps = base_steps * 2**level
        grid = TimeGrid(horizon=horizon, steps=steps)
        dt = horizon / steps
        bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
        z_config = ZGeneratorConfig(
            z0=0.5, rate=0.4, jump_time=jump_time, jump_size=0.3,
            sigma=0.3, jump_scale=0.2, eps=0.005,
        )
        model = generate_z(z_config, bundle)
        pair = build_y(tame, model, seed=seed, scale=vol * np.sqrt(dt), ladder_depth=ladder_depth)
        v_jump = grid.index_of(jump_time)
        v_quot = grid.index_of(quot_time)
        t_obs = grid.index_of(obs_time)
        u_idx = sorted({v_jump - 1, v_jump, v_jump + 1, v_quot - 1, v_quot, v_quot + 1})
        family = build_family(pair, model, u_indices=u_idx)
        rep_jump = family_regularity(pair, model, family, v_jump, steps)
        rep_quot = family_regularity(pair, model, family, v_quot, t_obs)
        jump_resids.append(rep_jump["jump_identity_residual"])
        left_resids.append(rep_quot["left_quotient_residual"])
        right_resids.append(rep_quot["right_quotient_residual"])
        rows.append(
            (
                steps,
                dt,
                rep_jump["jump_identity_residual"],
                rep_quot["left_quotient_residual"],
                rep_quot["right_quotient_residual"],
                rep_quot["kappa_min"],
            )
        )
    checks.append(_row("jump_identity_max", float(np.max(jump_resids)), tol_jump))
    left_dec = sum(1 for a, b in zip(left_resids[:-1], left_resids[1:]) if b < a)
    right_dec = sum(1 for a, b in zip(right_resids[:-1], right_resids[1:]) if b < a)
    need = max(1, refinements - 1)
    checks.append(_row("left_quotient_decreasing_count", left_dec, passed=left_dec >= need))
    checks.append(_row("right_quotient_decreasing_count", right_dec, passed=right_dec >= need))
    checks.append(
        _row("left_quotient_total_reduction", left_resids[0] / left_resids[-1],
             passed=left_resids[-1] < left_resids[0])
    )

    grid = TimeGrid(horizon=horizon, steps=fd_steps)
    bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
    z_config = ZGeneratorConfig(
        z0=0.5, rate=0.4, jump_time=jump_time, jump_size=0.3,
        sigma=0.3, jump_scale=0.2, eps=0.005,
    )
    model = generate_z(z_config, bundle)
    pair = build_y(spec, model, seed=seed, scale=scale, ladder_depth=ladder_depth)
    v_quot = grid.index_of(quot_time)
    x0 = model.s[:, v_quot]
    flow = flow_solve(pair, model, v_quot, x0)
    deriv = flow.deriv_at(fd_steps)
    fd_errs = []
    for h in fd_h:
        hi = flow_solve(pair, model, v_quot, x0 + h).at(fd_steps)
        lo = flow_solve(pair, model, v_quot, x0 - h).at(fd_steps)
        fd_errs.append(float(np.max(np.abs(deriv - (hi - lo) / (2.0 * h)))))
    floor = 1e-9
    for i, (ha, hb) in enumerate(zip(fd_h[:-1], fd_h[1:])):
        decade = float(np.log10(ha / hb))
        if fd_errs[i + 1] > 0.0:
            slope = float(np.log10(fd_errs[i] / fd_errs[i + 1])) / decade
        else:
            slope = float("inf")
        ok = 1.6 <= slope <= 2.4 or max(fd_errs[i], fd_errs[i + 1]) < floor
        checks.append(_row(f"flow_fd_slope_{i}", slope, passed=ok))
    tables = {
        "refinement": (
            ("steps", "dt", "jump_identity", "left_quotient", "right_quotient", "kappa_min"),
            rows,
        ),
        "flow_fd": (("h", "max_abs_error"), list(zip(fd_h, fd_errs))),
    }
    return _suite("regularity", checks, tables)


# ---------------------------------------------------------------------------
# corollary checks: u-grid refinement and flat-cell mass

def corollary_suite(
    spec,
    horizon=1.0,
    steps=256,
    n_paths=2000,
    seed=7,
    vol=0.5,
    ladder_depth=10,
    z0=0.5,
    rate=0.3,
    sigma=0.3,
    jump_scale=0.2,
    jump_time=0.5,
    jump_size=0.4,
    strides=(4, 2, 1),
    tree_depth=6,
    tol_exact=1e-12,
    tol_stable=1e-6,
    scale=None,
):
    """Continuity corollary: u-jumps shrink without an atom, persist with
    one, and the family puts exactly zero mass on flat compensator cells.

    Driver scale follows vol * sqrt(dt) like the refinement sweeps unless
    an explicit scale is given.
    """
    checks = []
    grid = TimeGrid(horizon=horizon, steps=steps)
    v_atom = grid.index_of(jump_time)
    for stride in strides:
        if v_atom % stride:
            raise ValueError("atom index must sit on every u-subgrid")
    scale_path = vol * float(np.sqrt(horizon / steps)) if scale is None else scale
    scale_tree = vol * float(np.sqrt(horizon / tree_depth)) if scale is None else scale

    # continuous compensator: the largest u-cell increment of the terminal
    # slice must shrink as the u-grid refines
    bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
    model = generate_z(
        ZGeneratorConfig(z0=z0, rate=rate, sigma=sigma, jump_scale=jump_scale, eps=0.005),
        bundle,
    )
    pair = build_y(spec, model, seed=seed, scale=scale_path, ladder_depth=ladder_depth)
    family = build_family(pair, model, keep="terminal")
    jumps = []
    for stride in strides:
        sub = list(range(0, steps + 1, stride))
        worst = 0.0
        prev = family.terminal(sub[0])
        for u in sub[1:]:
            cur = family.terminal(u)
            worst = max(worst, float(np.max(cur - prev)))
            prev = cur
        jumps.append(worst)
    dec = all(b < a for a, b in zip(jumps[:-1], jumps[1:]))
    checks.append(_row("continuous_max_jump_decreasing", dec, passed=dec))
    ratio = jumps[0] / jumps[-1] if jumps[-1] > 0.0 else float("inf")
    checks.append(_row("continuous_jump_ratio_two_refinements", ratio, passed=ratio >= 2.0))

    # predictable atom: the jump across the atom cell must not depend on
    # how fine the surrounding u-grid is
    model_a = generate_z(
        ZGeneratorConfig(
            z0=z0, rate=0.0, jump_time=jump_time, jump_size=jump_size,
            sigma=sigma, jump_scale=jump_scale, eps=0.005,
        ),
        bundle,
    )
    pair_a = build_y(spec, model_a, seed=seed, scale=scale_path, ladder_depth=ladder_depth)
    u_need = sorted({v_atom} | {v_atom - s for s in strides})
    fam_a = build_family(pair_a, model_a, u_indices=u_need, keep="terminal")
    top = fam_a.terminal(v_atom)
    jump_ref = top - fam_a.terminal(v_atom - strides[-1])
    stability = 0.0
    for stride in strides[:-1]:
        j = top - fam_a.terminal(v_atom - stride)
        stability = max(stability, float(np.max(np.abs(j - jump_ref))))
    checks.append(_row("atom_jump_stability", stability, tol_stable))
    checks.append(_row("atom_jump_min", float(np.min(jump_ref)), passed=float(np.min(jump_ref)) > 0.0))

    # exact zero mass on flat cells, enumerated on a tree
    tgrid = TimeGrid(horizon=horizon, steps=tree_depth)
    tree = ScenarioTree(tgrid, three_branch_model())
    model_t = generate_z(
        ZGeneratorConfig(
            z0=z0, rate=0.0, jump_time=jump_time, jump_size=jump_size,
            sigma=sigma, jump_scale=jump_scale, eps=0.005,
        ),
        tree,
    )
    pair_t = build_y(spec, model_t, seed=seed, scale=scale_tree, ladder_depth=ladder_depth)
    fam_t = build_family(pair_t, model_t)
    ac = absolute_continuity_check(fam_t, model_t, t=tree_depth, tol=tol_exact)
    checks.append(_row("tree_flat_cell_mass", ac["zero_mass_max"], tol_exact))
    checks.append(_row("tree_flat_cells_nonvacuous", ac["zero_cells"], passed=ac["zero_cells"] >= 1))
    tables = {
        "u_refinement": (("stride", "max_jump"), list(zip(strides, jumps))),
    }
    return _suite("corollary", checks, tables)


# ---------------------------------------------------------------------------
# polarization

def polarize_suite(
    t_values=(5.0, 10.0, 20.0, 40.0),
    n_paths=10_000,
    dt=0.1,
    eta=0.05,
    seed=0,
    n_bins=20,
    u_times=None,
    tol_exact=1e-12,
):
    rep = polarization_experiment(
        t_values=t_values, n_paths=n_paths, dt=dt, u_times=u_times,
        eta=eta, seed=seed, n_bins=n_bins,
    )
    checks = [
        _row(
            "interior_fraction_strictly_decreasing",
            rep["monotone_decreasing"],
            passed=rep["monotone_decreasing"],
        ),
        _row(
            "terminal_bounds_max_violation",
            float(np.max(rep["terminal_bound_violation"])),
            tol_exact,
        ),
    ]
    hist_rows = []
    edges = rep["bin_edges"]
    for t, hist in zip(rep["t_values"], rep["histograms"]):
        for i, frac in enumerate(hist):
            hist_rows.append((t, edges[i], edges[i + 1], frac))
    tables = {
        "interior_fraction": (
            ("horizon", "interior_fraction"),
            list(zip(rep["t_values"], rep["interior_fraction"])),
        ),
        "histogram": (("horizon", "bin_lo", "bin_hi", "fraction"), hist_rows),
    }
    out = _suite("polarize", checks, tables)
    out["experiment"] = {k: rep[k] for k in ("t_values", "dt", "eta", "u_times", "n_paths", "seed", "interior_fraction", "monotone_decreasing")}
    return out
