import dataclasses

import numpy as np
import pytest

from defaultlab.calculus import doleans_exponential
from defaultlab.coefficients import (
    BumpSpec,
    CoefficientSpec,
    ComponentSpec,
    PlateauSpec,
    build_y,
    check_pair_conditions,
    evaluate_f,
)
from defaultlab import coefficients, suites
from defaultlab.errors import ConfigurationError, GridMismatchError, SolverInconsistencyError
from defaultlab.family import (
    build_family,
    family_regularity,
    flow_solve,
    kappa_values,
    one_step_atom_residuals,
    solve_natural,
)
from defaultlab.grids import TimeGrid, sample_bundle, three_branch_model
from defaultlab.survival import ZGeneratorConfig, generate_z
from defaultlab.tree import ScenarioTree, build_product_measure


def mixed_spec():
    c1 = ComponentSpec(bumps=(BumpSpec(0.3, 0.25, 0.8), BumpSpec(0.7, 0.2, -0.5)))
    c2 = ComponentSpec(plateaus=(PlateauSpec(0.2, 0.6, 0.2, 0.6),), time_affine=(1.0, 0.1))
    return CoefficientSpec(components=(c1, c2))


def zero_spec():
    return CoefficientSpec(components=(ComponentSpec(),))


def tree_setup(steps=4, spec=None, seed=3, **kw):
    grid = TimeGrid(horizon=1.0, steps=steps)
    tree = ScenarioTree(grid, three_branch_model())
    cfg = ZGeneratorConfig(**{"z0": 0.5, "rate": 0.3, "sigma": 0.5, "jump_scale": 0.3, **kw})
    model = generate_z(cfg, tree)
    pair = build_y(spec or mixed_spec(), model, seed=seed)
    return tree, model, pair


def bundle_setup(steps=8, n_paths=500, spec=None, seed=11, **kw):
    grid = TimeGrid(horizon=1.0, steps=steps)
    bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
    cfg = ZGeneratorConfig(**{"z0": 0.5, "rate": 0.3, "sigma": 0.5, "jump_scale": 0.3, **kw})
    model = generate_z(cfg, bundle)
    pair = build_y(spec or mixed_spec(), model, seed=seed + 1)
    return bundle, model, pair


def reference_solution(pair, model, u, x0):
    # independent regrouped recursion x_k = x_{k-1} (1 + dm) + sum f_j dy_j
    grid = pair.carrier.grid
    n = grid.steps
    if isinstance(pair.carrier, ScenarioTree):
        tree = pair.carrier
        levels = [None] * u + [np.full(tree.n_nodes(u), x0)]
        for k in range(u + 1, n + 1):
            x = levels[-1]
            f = evaluate_f(pair.spec, grid.times[k], x, model.pred_one_minus_z[k - 1])
            dy = pair.y_step(k)
            acc = tree.lift(x) * (1.0 + model.tilde_m_increments[k - 1])
            for j in range(f.shape[0]):
                acc = acc + tree.lift(f[j]) * dy[j]
            levels.append(acc)
        return levels
    out = np.full((pair.carrier.n_paths, n + 1), np.nan)
    out[:, u] = x0
    for k in range(u + 1, n + 1):
        x = out[:, k - 1]
        f = evaluate_f(pair.spec, grid.times[k], x, model.pred_one_minus_z[:, k - 1])
        dy = pair.y_step(k)
        acc = x * (1.0 + model.tilde_m_increments[:, k - 1])
        for j in range(f.shape[0]):
            acc = acc + f[j] * dy[j]
        out[:, k] = acc
    return out


# ---------------------------------------------------------------------------
# solve_natural against independent recursions

def test_solver_matches_regrouped_recursion_on_tree():
    tree, model, pair = tree_setup(steps=4)
    got = solve_natural(pair, model, 1, 0.6)
    want = reference_solution(pair, model, 1, 0.6)
    assert got[0] is None
    for k in range(1, 5):
        np.testing.assert_allclose(got[k], want[k], rtol=1e-13, atol=1e-15)


def test_solver_matches_regrouped_recursion_on_bundle():
    bundle, model, pair = bundle_setup(steps=6, n_paths=300)
    got = solve_natural(pair, model, 2, 0.4)
    want = reference_solution(pair, model, 2, 0.4)
    assert np.all(np.isnan(got[:, :2]))
    np.testing.assert_allclose(got[:, 2:], want[:, 2:], rtol=1e-13, atol=1e-15)


def test_zero_start_is_absorbed_exactly():
    tree, model, pair = tree_setup(steps=4)
    sol = solve_natural(pair, model, 0, 0.0)
    for lvl in sol:
        assert np.all(lvl == 0.0)
    bundle, model_b, pair_b = bundle_setup(steps=5, n_paths=100)
    sol_b = solve_natural(pair_b, model_b, 0, 0.0)
    assert np.all(sol_b == 0.0)


def test_scalar_and_array_starts_agree_bitwise():
    tree, model, pair = tree_setup(steps=3)
    a = solve_natural(pair, model, 1, 0.25)
    b = solve_natural(pair, model, 1, np.full(tree.n_nodes(1), 0.25))
    for k in range(1, 4):
        np.testing.assert_array_equal(a[k], b[k])


def test_start_validation():
    tree, model, pair = tree_setup(steps=3)
    with pytest.raises(ConfigurationError):
        solve_natural(pair, model, 7, 0.1)
    with pytest.raises(GridMismatchError):
        solve_natural(pair, model, 1, np.zeros(5))


def test_zero_coefficient_reduces_to_multiplicative_solution():
    bundle, model, pair = bundle_setup(steps=6, n_paths=200, spec=zero_spec())
    sol = solve_natural(pair, model, 0, 0.7)
    ref = 0.7 * doleans_exponential(model.tilde_m_increments)
    np.testing.assert_allclose(sol, ref, rtol=5e-14, atol=0.0)


# ---------------------------------------------------------------------------
# the family and its invariants

def test_family_axioms_hold_on_tree():
    tree, model, pair = tree_setup(steps=5)
    fam = build_family(pair, model)
    assert fam.report["pass"]
    worst = max(c["max_violation"] for c in fam.report["checks"])
    assert worst <= 1e-12
    names = {c["name"] for c in fam.report["checks"]}
    assert "martingale" in names and "nondecreasing_in_u" in names


def test_family_starts_bitwise_at_survival_complement():
    tree, model, pair = tree_setup(steps=4)
    fam = build_family(pair, model)
    for u in fam.u_indices:
        np.testing.assert_array_equal(fam.values(u)[u], model.s[u])
    bundle, model_b, pair_b = bundle_setup(steps=6, n_paths=150)
    fam_b = build_family(pair_b, model_b, u_indices=[0, 3, 6])
    for u in fam_b.u_indices:
        np.testing.assert_array_equal(fam_b.values(u)[:, u], model_b.s[:, u])


def test_family_bundle_invariants_and_subset():
    bundle, model, pair = bundle_setup(steps=8, n_paths=400)
    fam = build_family(pair, model, u_indices=[0, 2, 4, 6, 8])
    assert fam.report["pass"]
    assert fam.u_indices == [0, 2, 4, 6, 8]
    term = fam.terminal(8)
    np.testing.assert_array_equal(term, model.s[:, 8])
    assert np.all(fam.terminal_infinity() == 1.0)


def test_family_bundle_report_same_for_full_and_terminal_storage():
    bundle, model, pair = bundle_setup(steps=8, n_paths=300)
    full = build_family(pair, model)
    term = build_family(pair, model, keep="terminal")
    assert full.report == term.report
    assert [c["name"] for c in full.report["checks"]] == [
        "starts_at_one_minus_z",
        "nonnegative",
        "bounded_by_one_minus_z",
        "nondecreasing_in_u",
        "terminal_normalization",
    ]
    for u in full.u_indices:
        np.testing.assert_array_equal(full.terminal(u), term.terminal(u))
    # a drift broken by +0.5 at step 2 lifts members above 1 - Z: both
    # storage modes must refuse the family
    bad_dm = model.tilde_m_increments.copy()
    bad_dm[:, 1] += 0.5
    bad = dataclasses.replace(model, tilde_m_increments=bad_dm)
    for keep in ("full", "terminal"):
        with pytest.raises(SolverInconsistencyError):
            build_family(pair, bad, keep=keep)


def test_empty_u_grid_is_refused_on_both_carriers():
    for _, model, pair in (tree_setup(steps=4), bundle_setup(steps=4, n_paths=100)):
        with pytest.raises(ConfigurationError):
            build_family(pair, model, u_indices=[])


def rolling_sweep(pair, model):
    # the pair-condition sweep of mc_suite without the fused family pass:
    # every member solved again and checked through check_pair_conditions,
    # adjacent pairs plus the witness pair (n // 2, 0), whose member's (i)
    # and (ii) are already counted, so only its (iii) is folded
    s, n = model.s, pair.carrier.grid.steps
    agg = coefficients._new_condition_agg()
    sols = [solve_natural(pair, model, u, s[:, u]) for u in range(n)]
    rep = check_pair_conditions(pair, model, sols[0], None, window=(1, n))
    coefficients._fold_conditions(agg, rep)
    for u in range(1, n):
        rep = check_pair_conditions(pair, model, sols[u], sols[u - 1], window=(u + 1, n))
        coefficients._fold_conditions(agg, rep)
    mid = n // 2
    if mid >= 1:
        rep = check_pair_conditions(pair, model, sols[mid], sols[0], window=(mid + 1, n))
        unchecked = {"checked": 0, "min_slack": None, "violations": 0}
        coefficients._fold_conditions(agg, {**rep, "condition_i": unchecked, "condition_ii": unchecked})
    return agg


def test_fused_pair_conditions_equal_the_rolling_sweep():
    for steps in (1, 2, 7, 8):
        bundle, model, pair = bundle_setup(steps=steps, n_paths=300)
        want = rolling_sweep(pair, model)
        for keep in ("full", "terminal"):
            assert build_family(pair, model, keep=keep).conditions == want
        assert want["condition_i"]["checked"] > 0 and want["agree"]
        if steps > 1:
            assert want["condition_iii"]["checked"] > 0
            assert want["condition_iii"]["violations"] == 0
    # each member's (i) states counted once: 300 paths on sum_{u<8} (8 - u) steps
    assert want["condition_i"]["checked"] == 300 * 36
    tree, model, pair = tree_setup(steps=3)
    assert build_family(pair, model).conditions is None


def test_fused_pair_conditions_see_a_seeded_defect():
    # Y increments scaled up 10x at step 4 break the pair conditions: the
    # fused aggregate and the rolling sweep must both count violations (the
    # family invariants would refuse the family, so their tolerance is
    # lifted to read the aggregate)
    bundle, model, pair = bundle_setup(steps=8, n_paths=300)
    bad_y = pair.y_increments.copy()
    bad_y[:, :, 3] *= 10.0
    bad = dataclasses.replace(pair, y_increments=bad_y)
    with pytest.raises(SolverInconsistencyError):
        build_family(bad, model)
    fused = build_family(bad, model, tol=np.inf).conditions
    assert fused == rolling_sweep(bad, model)
    assert fused["condition_i"]["violations"] > 0
    assert fused["condition_iii"]["violations"] > 0
    assert not all(row["pass"] for row in suites._condition_rows(fused))


def test_family_negative_control_broken_drift_raises():
    tree, model, pair = tree_setup(steps=4)
    bad_dm = [dm.copy() for dm in model.tilde_m_increments]
    bad_dm[1] = bad_dm[1] + 1e-6
    bad = dataclasses.replace(model, tilde_m_increments=bad_dm)
    with pytest.raises(SolverInconsistencyError):
        build_family(pair, bad)


def test_family_collapses_bitwise_without_compensator_mass():
    # rate 0 means dA = 0.0 at every step, so every member equals 1 - Z
    tree, model, pair = tree_setup(steps=4, rate=0.0)
    assert all(np.all(da == 0.0) for da in model.a_increments)
    fam = build_family(pair, model)
    for u in fam.u_indices:
        for k in range(u, 5):
            np.testing.assert_array_equal(fam.values(u)[k], model.s[k])
    pm = build_product_measure(tree, fam)
    # mass splits between the initial default event and beyond the horizon;
    # every u-cell inside the horizon is bitwise empty
    assert np.all(pm.weights[1:-1] == 0.0)
    np.testing.assert_allclose(pm.weights[0].sum(), 1.0 - model.config.z0, atol=1e-12)
    np.testing.assert_allclose(pm.total_mass(), 1.0, atol=1e-12)


def test_family_mass_lands_only_on_the_predictable_jump():
    tree, model, pair = tree_setup(steps=4, rate=0.0, jump_time=0.5, jump_size=0.4)
    fam = build_family(pair, model)
    pm = build_product_measure(tree, fam)
    cells = pm.weights.sum(axis=1)
    assert model.jump_index == 2
    # cell 0 holds the initial default mass, cell 2 the predictable jump,
    # every other in-horizon cell is bitwise empty
    assert cells[2] > 1e-3
    for i in (1, 3, 4):
        assert np.all(pm.weights[i] == 0.0)


# ---------------------------------------------------------------------------
# one-step atom identity and kappa

def test_one_step_atom_identity_tree_and_bundle():
    tree, model, pair = tree_setup(steps=5)
    assert np.max(one_step_atom_residuals(pair, model)) <= 1e-12
    bundle, model_b, pair_b = bundle_setup(steps=8, n_paths=400)
    assert np.max(one_step_atom_residuals(pair_b, model_b)) <= 1e-12


def test_atom_identity_is_bitwise_zero_without_mass():
    tree, model, pair = tree_setup(steps=4, rate=0.0)
    res = one_step_atom_residuals(pair, model)
    assert np.all(res == 0.0)


def test_kappa_strictly_positive_with_positive_margins():
    tree, model, pair = tree_setup(steps=5)
    a, b = pair.min_margins()
    assert a > 0.0 and b > 0.0
    for k in range(1, 6):
        assert np.min(kappa_values(pair, model, k)) > 0.0
    bundle, model_b, pair_b = bundle_setup(steps=8, n_paths=400)
    for k in range(1, 9):
        assert np.min(kappa_values(pair_b, model_b, k)) > 0.0


def test_survival_complement_satisfies_affine_recursion():
    # the auxiliary process (1-Z) - M^u solves the affine equation driven
    # by dm with source da (1 + dm) - f' dY; checked by direct residual
    bundle, model, pair = bundle_setup(steps=6, n_paths=200)
    fam = build_family(pair, model, u_indices=[2])
    m = fam.values(2)
    r = model.s - m
    grid = bundle.grid
    for k in range(3, 7):
        f = evaluate_f(pair.spec, grid.times[k], m[:, k - 1], model.pred_one_minus_z[:, k - 1])
        fdy = np.zeros(bundle.n_paths)
        for j in range(f.shape[0]):
            fdy = fdy + f[j] * pair.y_step(k)[j]
        dm = model.tilde_m_increments[:, k - 1]
        da = model.a_increments[:, k - 1]
        pred = r[:, k - 1] + (r[:, k - 1] + da) * dm + da - fdy
        np.testing.assert_allclose(r[:, k], pred, atol=1e-13)


# ---------------------------------------------------------------------------
# flows

def test_flow_from_survival_start_reproduces_family_bitwise():
    tree, model, pair = tree_setup(steps=5)
    fam = build_family(pair, model, u_indices=[2])
    flow = flow_solve(pair, model, 2, model.s[2])
    for k in range(2, 6):
        np.testing.assert_array_equal(flow.at(k), fam.values(2)[k])
    bundle, model_b, pair_b = bundle_setup(steps=6, n_paths=200)
    fam_b = build_family(pair_b, model_b, u_indices=[3])
    flow_b = flow_solve(pair_b, model_b, 3, model_b.s[:, 3])
    np.testing.assert_array_equal(flow_b.values[:, 3:], fam_b.values(3)[:, 3:])


def test_flow_derivative_reduces_to_multiplicative_solution():
    bundle, model, pair = bundle_setup(steps=6, n_paths=200, spec=zero_spec())
    flow = flow_solve(pair, model, 0, 0.5)
    ref = doleans_exponential(model.tilde_m_increments)
    np.testing.assert_array_equal(flow.deriv, ref)


def test_flow_derivative_matches_central_differences():
    tree, model, pair = tree_setup(steps=4)
    x0 = model.s[1]
    flow = flow_solve(pair, model, 1, x0)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        up = flow_solve(pair, model, 1, x0 + h)
        dn = flow_solve(pair, model, 1, x0 - h)
        fd = (up.at(4) - dn.at(4)) / (2.0 * h)
        errs.append(float(np.max(np.abs(fd - flow.deriv_at(4)))))
    assert errs[0] < 1e-3
    assert errs[1] < errs[0] / 20.0
    assert errs[2] < errs[1]


# ---------------------------------------------------------------------------
# regularity around a grid time

def test_regularity_report_jump_identity_and_quotients():
    tree, model, pair = tree_setup(steps=5, rate=0.4, jump_time=0.6, jump_size=0.3)
    fam = build_family(pair, model)
    rep = family_regularity(pair, model, fam, v=model.jump_index, t=5)
    assert rep["jump_identity_residual"] <= 1e-10
    assert rep["kappa_min"] > 0.0
    assert rep["left_quotient_residual"] < 1.0
    assert rep["right_quotient_residual"] < 1.0


def test_regularity_requires_family_members_and_mass():
    tree, model, pair = tree_setup(steps=4)
    fam = build_family(pair, model, u_indices=[0, 1, 2])
    with pytest.raises(ConfigurationError):
        family_regularity(pair, model, fam, v=3, t=4)
    tree0, model0, pair0 = tree_setup(steps=4, rate=0.0)
    fam0 = build_family(pair0, model0)
    with pytest.raises(ConfigurationError):
        family_regularity(pair0, model0, fam0, v=2, t=4)


def test_quotient_residuals_shrink_under_grid_refinement():
    lefts, rights = [], []
    for steps in (8, 16, 32):
        bundle, model, pair = bundle_setup(
            steps=steps, n_paths=256, seed=5, rate=0.4, sigma=0.4, jump_scale=0.2
        )
        fam = build_family(pair, model, u_indices=[steps // 2 - 1, steps // 2, steps // 2 + 1])
        rep = family_regularity(pair, model, fam, v=steps // 2, t=steps)
        lefts.append(rep["left_quotient_residual"])
        rights.append(rep["right_quotient_residual"])
    assert lefts[1] < lefts[0] and lefts[2] < lefts[1]
    assert rights[1] < rights[0] and rights[2] < rights[1]
