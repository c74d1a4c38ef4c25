import dataclasses

import numpy as np
import pytest

from defaultlab import coefficients
from defaultlab.coefficients import (
    BumpSpec,
    CoefficientSpec,
    ComponentSpec,
    PlateauSpec,
    build_y,
    check_pair_conditions,
    evaluate_f,
    evaluate_f_x,
    smooth_clamp,
    smooth_clamp_deriv,
    smoothstep,
    smoothstep_deriv,
)
from defaultlab.errors import ConfigurationError, GridMismatchError
from defaultlab.grids import TimeGrid, sample_bundle, three_branch_model
from defaultlab.survival import ZGeneratorConfig, generate_z
from defaultlab.tree import ScenarioTree
from margin_scan import jump_set_margin


def wide_plateau_spec(height=1.0):
    # g identically `height` on [-0.5, 1.5], smooth ramps outside
    comp = ComponentSpec(plateaus=(PlateauSpec(-0.5, 1.5, 0.5, height),))
    return CoefficientSpec(components=(comp,))


def two_component_spec():
    c1 = ComponentSpec(bumps=(BumpSpec(0.3, 0.25, 0.8), BumpSpec(0.7, 0.2, -0.5)))
    c2 = ComponentSpec(plateaus=(PlateauSpec(0.2, 0.6, 0.2, 0.6),), time_affine=(1.0, 0.1))
    return CoefficientSpec(components=(c1, c2))


def tree_survival(steps=4, with_coin=False, **kw):
    grid = TimeGrid(horizon=1.0, steps=steps)
    tree = ScenarioTree(grid, three_branch_model(with_coin=with_coin))
    cfg = ZGeneratorConfig(**{"z0": 0.5, "rate": 0.3, "sigma": 0.5, "jump_scale": 0.3, **kw})
    return tree, generate_z(cfg, tree)


def bundle_survival(steps=8, n_paths=2000, seed=7, **kw):
    grid = TimeGrid(horizon=1.0, steps=steps)
    bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
    cfg = ZGeneratorConfig(**{"z0": 0.5, "rate": 0.3, "sigma": 0.5, "jump_scale": 0.3, **kw})
    return bundle, generate_z(cfg, bundle)


# ---------------------------------------------------------------------------
# smooth primitives

def test_smoothstep_endpoints_and_midpoint_exact():
    u = np.array([-1.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(smoothstep(u), [0.0, 0.0, 1.0, 1.0])
    assert smoothstep(np.array([0.5]))[0] == 0.5
    vals = smoothstep(np.linspace(-0.5, 1.5, 401))
    assert np.all(np.diff(vals) >= 0.0)


def test_smoothstep_deriv_matches_fd():
    u = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (smoothstep(u + h) - smoothstep(u - h)) / (2 * h)
    np.testing.assert_allclose(smoothstep_deriv(u), fd, rtol=1e-7, atol=1e-9)
    assert np.all(smoothstep_deriv(np.array([-0.1, 0.0, 1.0, 1.1])) == 0.0)


def test_smooth_clamp_identity_region_is_bitwise():
    x = np.array([0.0, 0.1, -0.3, 0.9999999, -1.0, 1.0, 0.7 - 0.3])
    np.testing.assert_array_equal(smooth_clamp(x), x)
    assert smooth_clamp(0.0) == 0.0
    np.testing.assert_array_equal(smooth_clamp_deriv(x), np.ones(x.size))


def test_smooth_clamp_shape_and_bounds():
    x = np.linspace(-6.0, 6.0, 5001)
    v = smooth_clamp(x)
    assert np.all(np.abs(v) <= 2.0)
    assert np.all(np.abs(v) <= np.abs(x) + 1e-15)
    assert np.all(np.diff(v) >= 0.0)
    np.testing.assert_array_equal(smooth_clamp(-x), -v)
    assert abs(smooth_clamp(5.0) - 2.0) < 1e-6
    assert abs(smooth_clamp(3.0) - 2.0) < 1e-6
    assert smooth_clamp_deriv(3.5) == 0.0


def test_smooth_clamp_deriv_matches_table_slope_in_tail():
    x = np.linspace(1.05, 2.95, 39)
    h = 2e-3
    fd = (smooth_clamp(x + h) - smooth_clamp(x - h)) / (2 * h)
    np.testing.assert_allclose(smooth_clamp_deriv(x), fd, atol=2e-3)


def _clamp_where(x):
    # the closed form on every point, tail included
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    tail = np.sign(x) * np.interp(a, coefficients._TAIL_T, coefficients._TAIL_PHI)
    out = np.where(a <= 1.0, x, tail)
    return out if out.ndim else float(out)


def _clamp_deriv_where(x):
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.where(a <= 1.0, 1.0, 1.0 - smoothstep((a - 1.0) / 2.0))
    return out if out.ndim else float(out)


def test_smooth_clamp_tail_only_path_is_bitwise_the_closed_form():
    rng = np.random.default_rng(4)
    one_up = np.nextafter(1.0, 2.0)
    special = [0.0, -0.0, 1.0, -1.0, one_up, -one_up, 3.0, -7.5, np.inf, -np.inf, np.nan]
    pairs = ((smooth_clamp, _clamp_where), (smooth_clamp_deriv, _clamp_deriv_where))
    for x in (rng.normal(0.0, 2.0, 20_000), rng.uniform(-1.0, 1.0, 1000), np.array(special)):
        with np.errstate(invalid="ignore"):
            for fast, ref in pairs:
                got, want = fast(x), ref(x)
                assert got.dtype == want.dtype and got.shape == want.shape
                # compare bit patterns so -0.0 and nan payloads count too
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    with np.errstate(invalid="ignore"):
        for v in special + [0.25, 2.0]:
            for fast, ref in pairs:
                got = fast(v)
                assert type(got) is float
                assert np.float64(got).view(np.int64) == np.float64(ref(v)).view(np.int64)


# ---------------------------------------------------------------------------
# g pieces

def test_plateau_exact_height_inside_and_zero_outside():
    p = PlateauSpec(lo=0.2, hi=0.6, ramp=0.1, height=0.75)
    inside = np.array([0.2, 0.35, 0.5, 0.6])
    np.testing.assert_array_equal(p.value(inside), np.full(4, 0.75))
    outside = np.array([0.05, 0.09999, 0.7001, 1.0])
    np.testing.assert_array_equal(p.value(outside), np.zeros(4))
    np.testing.assert_array_equal(p.deriv(inside), np.zeros(4))


def test_bump_peak_and_support():
    b = BumpSpec(center=0.4, width=0.2, height=0.9)
    assert b.value(np.array([0.4]))[0] == pytest.approx(0.9, rel=1e-15)
    np.testing.assert_array_equal(b.value(np.array([0.2, 0.6, 1.0])), np.zeros(3))
    np.testing.assert_allclose(b.support(), (0.2, 0.6), rtol=1e-15)


def test_piece_derivs_match_fd():
    b = BumpSpec(center=0.4, width=0.2, height=0.9)
    p = PlateauSpec(lo=0.2, hi=0.6, ramp=0.1, height=0.75)
    x = np.linspace(0.21, 0.59, 41)
    h = 1e-6
    for piece in (b, p):
        fd = (piece.value(x + h) - piece.value(x - h)) / (2 * h)
        np.testing.assert_allclose(piece.deriv(x), fd, rtol=1e-6, atol=1e-7)


def test_component_time_weight():
    c = ComponentSpec(plateaus=(PlateauSpec(0.0, 1.0, 0.5, 2.0),), time_affine=(1.0, 0.5))
    assert c.value(2.0, np.array([0.5]))[0] == pytest.approx(4.0, rel=1e-15)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CoefficientSpec(components=())
    with pytest.raises(ConfigurationError):
        CoefficientSpec(components=(ComponentSpec(),), x_resolution=4)
    with pytest.raises(ConfigurationError):
        BumpSpec(center=0.0, width=0.0, height=1.0)
    with pytest.raises(ConfigurationError):
        PlateauSpec(lo=0.5, hi=0.2, ramp=0.1, height=1.0)


# ---------------------------------------------------------------------------
# f evaluation

def test_evaluate_f_hand_value():
    # g == 1 around the state, phi acts as identity: f = (pS - x) * x
    spec = wide_plateau_spec()
    f = evaluate_f(spec, 0.0, 0.3, 0.7)
    assert f.shape == (1,)
    assert f[0] == (0.7 - 0.3) * 0.3
    np.testing.assert_allclose(f[0], 0.12, rtol=1e-15)


def test_evaluate_f_vanishes_at_tube_boundaries():
    spec = two_component_spec()
    ps = 0.55
    np.testing.assert_array_equal(evaluate_f(spec, 0.3, 0.0, ps), np.zeros(2))
    f_top = evaluate_f(spec, 0.3, ps, ps)
    np.testing.assert_allclose(f_top, np.zeros(2), atol=1e-16)


def test_evaluate_f_x_matches_fd():
    spec = two_component_spec()
    xs = np.linspace(-0.2, 1.2, 29)
    h = 1e-6
    for ps in (0.3, 0.7):
        fd = (evaluate_f(spec, 0.5, xs + h, ps) - evaluate_f(spec, 0.5, xs - h, ps)) / (2 * h)
        np.testing.assert_allclose(evaluate_f_x(spec, 0.5, xs, ps), fd, rtol=1e-5, atol=1e-7)


def test_f_lipschitz_bound_dominates_difference_quotients():
    spec = two_component_spec()
    t = 0.4
    bound = spec.lipschitz_bound(t)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 2.0, size=4000)
    xp = rng.uniform(-1.0, 2.0, size=4000)
    for ps in (0.2, 0.55, 0.9):
        df = evaluate_f(spec, t, x, ps) - evaluate_f(spec, t, xp, ps)
        quot = np.abs(df) / np.abs(x - xp)
        assert np.max(quot) <= bound + 1e-9


# ---------------------------------------------------------------------------
# jump margins

def test_margin_zero_vector_equals_one_plus_dm():
    spec = two_component_spec()
    ma, mb = jump_set_margin(spec, 0.5, dm=-0.125, z=np.zeros(2), pred_one_minus_z=0.6)
    assert ma == 1.0 - 0.125
    assert mb == 1.0 - 0.125


def test_margin_single_bump_hand_value():
    # sup 2|g z| = 2 |z| height at the bump center (odd grid hits it exactly)
    spec = CoefficientSpec(components=(ComponentSpec(bumps=(BumpSpec(0.5, 0.2, 0.8),)),))
    ma, _ = jump_set_margin(spec, 0.0, 0.0, np.array([0.25]), 0.5, n_grid=2049)
    assert ma == pytest.approx(1.0 - 2.0 * 0.25 * 0.8, rel=1e-12)


def test_margin_grid_refinement_is_nested_and_stable():
    spec = two_component_spec()
    z = np.array([0.3, -0.2])
    coarse = jump_set_margin(spec, 0.5, 0.02, z, 0.6, n_grid=2049)
    fine = jump_set_margin(spec, 0.5, 0.02, z, 0.6, n_grid=4097)
    # nested grids: the finer sup/inf can only tighten the margins
    assert fine[0] <= coarse[0] + 1e-15
    assert fine[1] <= coarse[1] + 1e-15
    assert abs(fine[0] - coarse[0]) < 5e-5
    assert abs(fine[1] - coarse[1]) < 5e-5


def test_margin_scaling_is_exact_in_rho():
    spec = two_component_spec()
    z = np.array([0.4, 0.1])
    ma1, mb1 = jump_set_margin(spec, 0.2, 0.01, z, 0.55)
    ma2, mb2 = jump_set_margin(spec, 0.2, 0.01, 0.5 * z, 0.55)
    one = 1.0 + 0.01
    np.testing.assert_allclose(ma2, one - 0.5 * (one - ma1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(mb2, one - 0.5 * (one - mb1), rtol=0, atol=1e-15)


def test_margin_rejects_wrong_component_count():
    spec = two_component_spec()
    with pytest.raises(GridMismatchError):
        jump_set_margin(spec, 0.0, 0.0, np.array([1.0]), 0.5)


def test_margin_oversized_jump_goes_negative():
    spec = wide_plateau_spec()
    ma, _ = jump_set_margin(spec, 0.0, 0.0, np.array([3.0]), 0.5)
    assert ma < 0.0


# ---------------------------------------------------------------------------
# build_y

def test_build_y_tree_margins_and_ladder():
    tree, model = tree_survival(steps=4)
    pair = build_y(two_component_spec(), model, seed=11)
    ma, mb = pair.min_margins()
    assert ma > 0.0 and mb > 0.0
    allowed = {2.0**-j for j in range(11)} | {0.0}
    for rho in pair.rho:
        assert set(np.unique(rho)).issubset(allowed)


def test_build_y_tree_exact_zero_conditional_mean():
    tree, model = tree_survival(steps=4)
    pair = build_y(two_component_spec(), model, seed=11)
    for k in range(1, tree.depth + 1):
        dy = pair.y_step(k)
        for j in range(pair.m):
            cm = tree.step_expectation(dy[j])
            assert np.all(cm == 0.0)


def test_build_y_tree_with_coin_block():
    tree, model = tree_survival(steps=3, with_coin=True)
    pair = build_y(two_component_spec(), model, seed=5)
    assert pair.min_margins()[0] > 0.0
    for k in range(1, tree.depth + 1):
        dy = pair.y_step(k)
        assert dy.shape == (2, tree.n_nodes(k))
        for j in range(pair.m):
            assert np.all(tree.step_expectation(dy[j]) == 0.0)


def test_build_y_candidates_in_another_block_than_dm():
    # the coin block carries Y while dm lives on the tri block: the bundle
    # bound must cover every joint (dm branch, coin branch) outcome
    grid = TimeGrid(horizon=1.0, steps=4)
    cfg = ZGeneratorConfig(z0=0.5, rate=0.3, sigma=0.5, jump_scale=0.3)
    for carrier in (
        ScenarioTree(grid, three_branch_model(with_coin=True)),
        sample_bundle(grid, three_branch_model(with_coin=True), 500, 3),
    ):
        model = generate_z(cfg, carrier)
        pair = build_y(two_component_spec(), model, seed=5, drivers=("coin",))
        ma, mb = pair.min_margins()
        assert ma > 0.0 and mb > 0.0
        assert carrier.flat(pair.rho).max() > 0.0


def test_build_y_tree_margins_match_direct_recomputation():
    tree, model = tree_survival(steps=3)
    spec = two_component_spec()
    pair = build_y(spec, model, seed=2)
    k = 2
    parent, child = 1, 5  # child index at level k, parent = child // branching
    rho = pair.rho[k - 1][parent]
    z = rho * pair.candidates[k - 1, :, child % tree.branching]
    dm = model.tilde_m_increments[k - 1][child]
    ps = model.pred_one_minus_z[k - 1][parent]
    ma, mb = jump_set_margin(spec, tree.grid.times[k], dm, z, ps)
    np.testing.assert_allclose(pair.margin_a[k - 1][child], ma, atol=1e-12)
    np.testing.assert_allclose(pair.margin_b[k - 1][child], mb, atol=1e-12)


def test_build_y_zero_g_gives_full_scale():
    tree, model = tree_survival(steps=3)
    spec = CoefficientSpec(components=(ComponentSpec(),))
    pair = build_y(spec, model, seed=1)
    for rho in pair.rho:
        assert np.all(rho == 1.0)


def test_build_y_large_scale_forces_small_rungs():
    tree, model = tree_survival(steps=3)
    spec = wide_plateau_spec(height=2.0)
    big = build_y(spec, model, seed=3, scale=64.0)
    small = build_y(spec, model, seed=3, scale=1.0)
    assert big.min_margins()[0] > 0.0
    assert max(float(np.max(r)) for r in big.rho) < max(float(np.max(r)) for r in small.rho)


def test_build_y_single_driver_candidates():
    tree, model = tree_survival(steps=3)
    pair = build_y(two_component_spec(), model, seed=9, drivers=("diff",))
    # jump branch of the diff pattern carries no movement
    for k in range(1, tree.depth + 1):
        dy = pair.y_step(k).reshape(2, tree.n_nodes(k - 1), tree.branching)
        np.testing.assert_array_equal(dy[:, :, 2], np.zeros_like(dy[:, :, 2]))
        assert np.all(tree.step_expectation(pair.y_step(k)[0]) == 0.0)


def test_build_y_driver_linear_representation_close():
    tree, model = tree_survival(steps=4)
    pair = build_y(two_component_spec(), model, seed=11)
    for k in range(1, tree.depth + 1):
        rebuilt = 0.0
        for d in pair.drivers:
            coeff = pair.y_coeffs[d][k - 1]  # (m, parents)
            step = tree.driver_step(d)
            rebuilt = rebuilt + np.repeat(coeff, tree.branching, axis=1) * np.tile(
                step, tree.n_nodes(k - 1)
            )
        np.testing.assert_allclose(rebuilt, pair.y_step(k), atol=1e-15)


def test_build_y_bundle_margins_and_determinism():
    bundle, model = bundle_survival(steps=6, n_paths=500)
    spec = two_component_spec()
    pair = build_y(spec, model, seed=21)
    again = build_y(spec, model, seed=21)
    np.testing.assert_array_equal(pair.y_increments, again.y_increments)
    ma, mb = pair.min_margins()
    assert ma > 0.0 and mb > 0.0
    assert pair.rho.shape == (500, 6)
    allowed = {2.0**-j for j in range(11)} | {0.0}
    assert set(np.unique(pair.rho)).issubset(allowed)


def test_build_y_bundle_candidates_exactly_recentred():
    bundle, model = bundle_survival(steps=6, n_paths=200)
    pair = build_y(two_component_spec(), model, seed=21)
    blk = bundle.model.block_of("diff")
    for k in range(bundle.grid.steps):
        for j in range(pair.m):
            acc = 0.0
            for p, v in zip(blk.probs, pair.candidates[k, j]):
                acc += p * v
            assert acc == 0.0


def test_build_y_bundle_margins_sound_vs_exact_scan():
    # the table path must never report a larger margin_b than the exact scan
    bundle, model = bundle_survival(steps=4, n_paths=100)
    spec = two_component_spec()
    pair = build_y(spec, model, seed=13)
    k = 3
    for path in (0, 17, 63):
        rho = pair.rho[path, k - 1]
        bk = bundle.branches["tri"][path, k - 1]
        z = rho * pair.candidates[k - 1, :, bk]
        dm = model.tilde_m_increments[path, k - 1]
        ps = model.pred_one_minus_z[path, k - 1]
        ma, mb = jump_set_margin(spec, bundle.grid.times[k], dm, z, ps)
        np.testing.assert_allclose(pair.margin_a[path, k - 1], ma, atol=1e-12)
        assert pair.margin_b[path, k - 1] <= mb + 1e-12


# ---------------------------------------------------------------------------
# pair conditions

def canonical_solution(pair, model, x0):
    """One-step map recursion x -> (x + x dm) + f(x)'dY on either carrier."""
    spec = pair.spec
    grid = pair.carrier.grid
    if isinstance(pair.carrier, ScenarioTree):
        tree = pair.carrier
        levels = [np.full(1, x0)]
        for k in range(1, tree.depth + 1):
            x = levels[-1]
            f = evaluate_f(spec, grid.times[k], x, model.pred_one_minus_z[k - 1])
            xc = tree.lift(x)
            dm = model.tilde_m_increments[k - 1]
            drift = xc + xc * dm
            fdy = np.zeros_like(xc)
            dy = pair.y_step(k)
            for j in range(pair.m):
                fdy = fdy + tree.lift(f[j]) * dy[j]
            levels.append(drift + fdy)
        return levels
    n = grid.steps
    x = np.empty((pair.carrier.n_paths, n + 1))
    x[:, 0] = x0
    for k in range(1, n + 1):
        f = evaluate_f(spec, grid.times[k], x[:, k - 1], model.pred_one_minus_z[:, k - 1])
        dm = model.tilde_m_increments[:, k - 1]
        fdy = np.zeros(x.shape[0])
        dy = pair.y_step(k)
        for j in range(pair.m):
            fdy = fdy + f[j] * dy[j]
        x[:, k] = (x[:, k - 1] + x[:, k - 1] * dm) + fdy
    return x


def test_check_pair_conditions_pass_on_tree():
    tree, model = tree_survival(steps=4)
    pair = build_y(two_component_spec(), model, seed=11)
    x = canonical_solution(pair, model, 0.2)
    xp = canonical_solution(pair, model, 0.1)
    report = check_pair_conditions(pair, model, x, xp)
    assert report["pass"]
    assert report["condition_i"]["min_slack"] > 0.0
    assert report["condition_ii"]["violations"] == 0
    assert report["condition_iii"]["violations"] == 0
    assert report["monotone_map_agrees"]
    assert report["condition_iii"]["checked"] > 0


def test_check_pair_conditions_pass_on_bundle():
    bundle, model = bundle_survival(steps=6, n_paths=400)
    pair = build_y(two_component_spec(), model, seed=21)
    x = canonical_solution(pair, model, 0.2)
    xp = canonical_solution(pair, model, 0.05)
    report = check_pair_conditions(pair, model, x, xp)
    assert report["pass"]
    assert report["condition_ii_strict"]


def test_check_pair_conditions_zero_solution_skips_ratio_checks():
    tree, model = tree_survival(steps=3)
    pair = build_y(two_component_spec(), model, seed=2)
    x = canonical_solution(pair, model, 0.0)
    report = check_pair_conditions(pair, model, x)
    assert report["condition_ii"]["checked"] == 0
    assert report["pass"]


def test_check_pair_conditions_flags_fabricated_violation():
    tree, model = tree_survival(steps=3)
    pair = build_y(two_component_spec(), model, seed=2)
    x = canonical_solution(pair, model, 0.2)
    bad_dm = [np.array(v) for v in model.tilde_m_increments]
    bad_dm[1] = bad_dm[1] - 1.5
    broken = dataclasses.replace(model, tilde_m_increments=bad_dm)
    report = check_pair_conditions(pair, broken, x)
    assert not report["pass"]
    assert report["condition_ii"]["violations"] > 0


def test_check_pair_conditions_window():
    tree, model = tree_survival(steps=4)
    pair = build_y(two_component_spec(), model, seed=11)
    x = canonical_solution(pair, model, 0.2)
    report = check_pair_conditions(pair, model, x, window=(3, 4))
    assert report["pass"]
    full = check_pair_conditions(pair, model, x)
    assert report["condition_i"]["checked"] < full["condition_i"]["checked"]
