import numpy as np
import pytest

from defaultlab.coefficients import (
    BumpSpec,
    CoefficientSpec,
    ComponentSpec,
    PlateauSpec,
    build_y,
    evaluate_f,
    evaluate_f_x,
)
from defaultlab.default_measure import (
    DefaultSamples,
    EnlargementReport,
    TestMartingale,
    absolute_continuity_check,
    driver_martingale,
    enlargement_compensator,
    enlargement_compensators,
    p_kernel,
    sample_tau,
    sign_modulated_martingale,
)
from defaultlab.errors import (
    ConfigurationError,
    InvalidFamilyError,
    UnsupportedProcessError,
)
from defaultlab.family import build_family
from defaultlab.grids import TimeGrid, philox_stream, sample_bundle, three_branch_model
from defaultlab.survival import ZGeneratorConfig, generate_z
from defaultlab.tree import ScenarioTree, build_product_measure


def mixed_spec():
    c1 = ComponentSpec(bumps=(BumpSpec(0.3, 0.25, 0.8), BumpSpec(0.7, 0.2, -0.5)))
    c2 = ComponentSpec(plateaus=(PlateauSpec(0.2, 0.6, 0.2, 0.6),), time_affine=(1.0, 0.1))
    return CoefficientSpec(components=(c1, c2))


def zero_spec():
    return CoefficientSpec(components=(ComponentSpec(),))


def tree_world(steps=4, spec=None, seed=3, with_coin=False, **kw):
    grid = TimeGrid(horizon=1.0, steps=steps)
    tree = ScenarioTree(grid, three_branch_model(with_coin=with_coin))
    cfg = ZGeneratorConfig(**{"z0": 0.5, "rate": 0.3, "sigma": 0.5, "jump_scale": 0.3, **kw})
    model = generate_z(cfg, tree)
    pair = build_y(spec or mixed_spec(), model, seed=seed)
    fam = build_family(pair, model)
    return tree, model, pair, fam


def bundle_world(steps=8, n_paths=2000, spec=None, seed=11, keep="full", u_indices=None, **kw):
    grid = TimeGrid(horizon=1.0, steps=steps)
    bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
    cfg = ZGeneratorConfig(**{"z0": 0.5, "rate": 0.3, "sigma": 0.5, "jump_scale": 0.3, **kw})
    model = generate_z(cfg, bundle)
    pair = build_y(spec or mixed_spec(), model, seed=seed + 1)
    fam = build_family(pair, model, u_indices=u_indices, keep=keep)
    return bundle, model, pair, fam


# ---------------------------------------------------------------------------
# sampling the default time

def test_sample_tau_cells_match_uniform_inversion():
    bundle, model, pair, fam = bundle_world(steps=6, n_paths=500)
    rng = philox_stream(0, "tau-test")
    samples = sample_tau(fam, model, rng)
    cdf = np.stack([fam.terminal(u) for u in fam.u_indices])
    for i in (0, 17, 499):
        c = samples.cell[i]
        if c < len(fam.u_indices):
            assert cdf[c, i] >= samples.uniform[i]
            if c > 0:
                assert cdf[c - 1, i] < samples.uniform[i]
        else:
            assert cdf[-1, i] < samples.uniform[i]


def test_sample_tau_survival_frequency_matches_expected_mass():
    bundle, model, pair, fam = bundle_world(steps=8, n_paths=20_000)
    samples = sample_tau(fam, model, philox_stream(1, "tau-freq"))
    z_term = 1.0 - model.s[:, -1]
    expected = float(np.mean(z_term))
    observed = float(np.mean(samples.beyond))
    se = np.sqrt(expected * (1.0 - expected) / samples.n_paths)
    assert abs(observed - expected) <= 3.0 * se + 1e-12


def test_sample_tau_deterministic_cdf_when_z_deterministic():
    bundle, model, pair, fam = bundle_world(
        steps=6, n_paths=4000, spec=zero_spec(), sigma=0.0, jump_scale=0.0
    )
    cdf = np.stack([fam.terminal(u) for u in fam.u_indices])
    assert np.max(np.abs(cdf - cdf[:, :1])) == 0.0
    samples = sample_tau(fam, model, philox_stream(2, "tau-det"))
    probs = np.diff(np.concatenate([[0.0], cdf[:, 0], [1.0]]))
    counts = np.bincount(samples.cell, minlength=len(fam.u_indices) + 1)
    freq = counts / samples.n_paths
    se = np.sqrt(probs * (1.0 - probs) / samples.n_paths) + 1e-12
    assert np.all(np.abs(freq - probs) <= 4.0 * se)


def test_sample_tau_rejects_trees_and_bad_families():
    tree, model, pair, fam = tree_world(steps=3)
    with pytest.raises(ConfigurationError):
        sample_tau(fam, model, philox_stream(0, "x"))
    bundle, model_b, pair_b, fam_b = bundle_world(steps=4, n_paths=50)
    fam_b.values_by_u[0][:, -1] = 2.0  # corrupt the terminal slice
    with pytest.raises(InvalidFamilyError):
        sample_tau(fam_b, model_b, philox_stream(0, "x"))


# ---------------------------------------------------------------------------
# p-kernel

def test_p_kernel_matches_quadratic_closed_form():
    # on the identity range f_j = g_j(t,x) x (ps - x); with g constant in x
    # the quotient is g (ps - (a + b)) and the derivative g (ps - 2b)
    spec = CoefficientSpec(components=(ComponentSpec(plateaus=(PlateauSpec(-0.5, 1.5, 0.5, 1.0),)),))
    tree, model, pair, fam = tree_world(steps=4, spec=spec)
    k, v = 3, 1
    kern = p_kernel(spec, fam, k, v)
    b = fam.values(v)[k - 1]
    a = fam.values(v - 1)[k - 1]
    ps = model.pred_one_minus_z[k - 1]
    np.testing.assert_allclose(kern[0], ps - (a + b), rtol=1e-10, atol=1e-12)


def test_p_kernel_uses_derivative_on_empty_cells():
    tree, model, pair, fam = tree_world(steps=4, rate=0.0)
    k, v = 3, 1
    kern = p_kernel(pair.spec, fam, k, v)
    b = fam.values(v)[k - 1]
    ps = model.pred_one_minus_z[k - 1]
    want = evaluate_f_x(pair.spec, tree.grid.times[k], b, ps)
    np.testing.assert_array_equal(kern, want)


def test_p_kernel_first_cell_uses_zero_floor():
    tree, model, pair, fam = tree_world(steps=4)
    k = 2
    kern = p_kernel(pair.spec, fam, k, 0)
    b = fam.values(0)[k - 1]
    ps = model.pred_one_minus_z[k - 1]
    f_b = evaluate_f(pair.spec, tree.grid.times[k], b, ps)
    np.testing.assert_allclose(kern, f_b / b, rtol=1e-12)


def test_p_kernel_validates_indices():
    tree, model, pair, fam = tree_world(steps=3)
    with pytest.raises(ConfigurationError):
        p_kernel(pair.spec, fam, 2, 2)
    with pytest.raises(ConfigurationError):
        p_kernel(pair.spec, fam, 2, 17)


def test_p_kernel_quotient_approaches_derivative_as_cells_shrink():
    gaps, errs = [], []
    for steps in (8, 16, 32):
        bundle, model, pair, fam = bundle_world(steps=steps, n_paths=64, seed=9, rate=0.4)
        k, v = steps // 2 + 1, steps // 2
        kern = p_kernel(pair.spec, fam, k, v)
        b = fam.values(v)[:, k - 1]
        ps = model.pred_one_minus_z[:, k - 1]
        deriv = evaluate_f_x(pair.spec, bundle.grid.times[k], b, ps)
        a = fam.values(v - 1)[:, k - 1]
        gaps.append(float(np.max(b - a)))
        errs.append(float(np.max(np.abs(kern - deriv))))
    assert gaps[2] < gaps[1] < gaps[0]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 2.0 * gaps[2] * errs[0] / gaps[0] / 0.5


# ---------------------------------------------------------------------------
# test martingales

def test_test_martingale_unknown_driver_rejected():
    grid = TimeGrid(horizon=1.0, steps=3)
    tree = ScenarioTree(grid, three_branch_model())
    with pytest.raises(UnsupportedProcessError):
        TestMartingale(tree, "bad", 0.0, {"nosuch": [1.0, 1.0, 1.0]})


def test_test_martingale_steps_have_zero_conditional_mean():
    grid = TimeGrid(horizon=1.0, steps=4)
    tree = ScenarioTree(grid, three_branch_model(with_coin=True))
    model = generate_z(ZGeneratorConfig(z0=0.5, rate=0.3, sigma=0.4), tree)
    for mart in (
        driver_martingale(tree, "diff"),
        driver_martingale(tree, "coin"),
        sign_modulated_martingale(tree, "jump", "diff"),
    ):
        for k in range(1, 5):
            resid = tree.step_expectation(mart.step_increments(k))
            assert np.max(np.abs(resid)) <= 1e-15


def test_sign_modulated_coefficients_are_bounded_and_predictable():
    grid = TimeGrid(horizon=1.0, steps=5)
    bundle = sample_bundle(grid, three_branch_model(), 300, 7)
    mart = sign_modulated_martingale(bundle, "diff", "jump")
    for k in range(1, 6):
        c = mart.coeff_at("diff", k)
        assert np.all(np.abs(c) == 1.0)
    inc = bundle.driver_increments("jump", 2)
    np.testing.assert_array_equal(mart.coeff_at("diff", 3), np.sign(inc) + (inc == 0.0))


# ---------------------------------------------------------------------------
# enlargement compensator

def test_enlargement_tree_exhaustive_conditional_means_vanish():
    tree, model, pair, fam = tree_world(steps=5)
    for mart in (
        driver_martingale(tree, "diff"),
        driver_martingale(tree, "jump"),
        sign_modulated_martingale(tree, "diff", "jump"),
    ):
        rep = enlargement_compensator(pair, model, fam, mart)
        assert isinstance(rep, EnlargementReport)
        assert rep.kind == "tree"
        assert rep.passed, rep.max_residual
        assert rep.max_residual <= 1e-10


def test_enlargement_immersion_coin_compensator_identically_zero():
    tree, model, pair, fam = tree_world(steps=4, with_coin=True)
    mart = driver_martingale(tree, "coin")
    rep = enlargement_compensator(pair, model, fam, mart)
    assert rep.max_residual == 0.0
    for pre in rep.extras["pre_parts"]:
        assert np.all(pre == 0.0)
    for step_posts in rep.extras["post_parts"]:
        for post in step_posts:
            assert np.all(post == 0.0)


def test_enlargement_tree_requires_full_grid_family():
    tree, model, pair, _ = tree_world(steps=4)
    partial = build_family(pair, model, u_indices=[0, 2, 4])
    mart = driver_martingale(tree, "diff")
    with pytest.raises(ConfigurationError):
        enlargement_compensator(pair, model, partial, mart)


def test_enlargement_mc_functionals_within_three_se():
    bundle, model, pair, fam = bundle_world(steps=8, n_paths=20_000, keep="terminal")
    samples = sample_tau(fam, model, philox_stream(3, "tau-enl"))
    for mart in (
        driver_martingale(bundle, "diff"),
        sign_modulated_martingale(bundle, "jump", "diff"),
    ):
        rep = enlargement_compensator(pair, model, fam, mart, samples=samples)
        assert rep.kind == "mc"
        assert len(rep.entries) >= 20
        failed = [e for e in rep.entries if not e["pass"]]
        assert rep.passed, failed


def test_enlargement_list_form_equals_one_at_a_time():
    # one pass serving several martingales must give each the report it
    # gets alone, bit for bit
    bundle, model, pair, fam = bundle_world(steps=6, n_paths=2000, keep="terminal")
    samples = sample_tau(fam, model, philox_stream(5, "tau-list"))
    tree, model_t, pair_t, fam_t = tree_world(steps=3)
    cases = [
        ((pair, model, fam), [driver_martingale(bundle, "diff"),
                              sign_modulated_martingale(bundle, "jump", "diff")], samples),
        ((pair_t, model_t, fam_t), [driver_martingale(tree, "diff"),
                                    driver_martingale(tree, "jump")], None),
    ]
    for world, marts, smp in cases:
        together = enlargement_compensators(*world, marts, samples=smp)
        assert len(together) == len(marts)
        for mart, rep in zip(marts, together):
            alone = enlargement_compensator(*world, mart, samples=smp)
            for attr in ("kind", "martingale", "passed", "max_residual"):
                assert getattr(rep, attr) == getattr(alone, attr)
            assert rep.entries == alone.entries
            assert rep.extras.keys() == alone.extras.keys()
            if rep.kind == "mc":
                for key, arr in alone.extras.items():
                    got = rep.extras[key]
                    np.testing.assert_array_equal(got.view(np.int64), arr.view(np.int64))


def test_enlargement_mc_needs_samples():
    bundle, model, pair, fam = bundle_world(steps=4, n_paths=100)
    mart = driver_martingale(bundle, "diff")
    with pytest.raises(ConfigurationError):
        enlargement_compensator(pair, model, fam, mart)


def test_enlargement_mc_kernel_matches_standalone_p_kernel():
    bundle, model, pair, fam = bundle_world(steps=6, n_paths=3000)
    samples = sample_tau(fam, model, philox_stream(4, "tau-kern"))
    mart = driver_martingale(bundle, "diff")
    rep = enlargement_compensator(pair, model, fam, mart, samples=samples)
    tau_u = samples.tau_u()
    k = 5
    for v in (1, 2, 3):
        in_cell = (~samples.beyond) & (tau_u == v)
        if not np.any(in_cell):
            continue
        kern = p_kernel(pair.spec, fam, k, v)
        byx_kern_post = rep.extras["post"][in_cell, k - 1]
        # recompute the post part from the standalone kernel for these paths
        from defaultlab.default_measure import _step_brackets

        br = _step_brackets(pair, model, mart, k)
        kby = np.zeros(bundle.n_paths)
        for j in range(pair.m):
            kby = kby + kern[j] * br["byx"][j]
        want = (br["post_base"] + kby)[in_cell]
        np.testing.assert_allclose(byx_kern_post, want, rtol=1e-12, atol=1e-14)


def test_tower_consistency_product_measure_vs_family_densities():
    tree, model, pair, fam = tree_world(steps=4)
    pm = build_product_measure(tree, fam)
    k = 2
    nodes = tree.n_nodes(k)
    w_level = pm.weights.reshape(pm.weights.shape[0], nodes, -1).sum(axis=2)
    node_probs = tree.node_probs(k)
    for v in range(k + 1):
        hi = fam.values(v)[k]
        lo = fam.values(v - 1)[k] if v > 0 else 0.0
        dens = (hi - lo) * node_probs
        np.testing.assert_allclose(w_level[v], dens, atol=1e-15)


# ---------------------------------------------------------------------------
# absolute continuity of the family in u

def test_absolute_continuity_ratio_is_one_in_independent_regime():
    bundle, model, pair, fam = bundle_world(
        steps=6, n_paths=200, spec=zero_spec(), sigma=0.0, jump_scale=0.0
    )
    rep = absolute_continuity_check(fam, model, t=6)
    assert rep["zero_cells"] == 0
    np.testing.assert_allclose([rep["ratio_min"], rep["ratio_max"]], 1.0, rtol=1e-12)


def test_absolute_continuity_zero_mass_cells_are_exact():
    tree, model, pair, fam = tree_world(steps=4, rate=0.0, jump_time=0.5, jump_size=0.4)
    rep = absolute_continuity_check(fam, model, t=4)
    assert rep["zero_cells"] == 3
    assert rep["zero_mass_max"] == 0.0
    assert rep["pass"]
    assert rep["ratio_min"] > 0.0


def test_absolute_continuity_full_model_bounds():
    tree, model, pair, fam = tree_world(steps=5)
    rep = absolute_continuity_check(fam, model, t=5)
    assert rep["zero_cells"] == 0
    assert 0.0 < rep["ratio_min"] <= rep["ratio_max"]
    assert rep["pass"]
