import numpy as np
import pytest

from defaultlab.errors import (
    BoundaryError,
    ConfigurationError,
    GridMismatchError,
    InvalidFamilyError,
    NotSupermartingaleError,
)
from defaultlab.grids import TimeGrid, three_branch_model
from defaultlab.tree import (
    ScenarioTree,
    build_product_measure,
    build_tree_z,
    conditional_expectation,
    doob_decompose_exact,
    tree_from_json,
    tree_to_json,
)
from im_axioms import verify_im_axioms


def small_tree(steps=4, with_coin=False):
    return ScenarioTree(TimeGrid(1.0, steps), three_branch_model(with_coin=with_coin))


def test_tree_structure():
    t = small_tree()
    assert t.branching == 3
    assert t.n_nodes(4) == 81
    np.testing.assert_array_equal(t.child_probs, [0.25, 0.25, 0.5])
    assert t.node_probs(2).sum() == 1.0
    np.testing.assert_array_equal(t.driver_step("diff"), [1.0, -1.0, 0.0])


def test_tree_with_coin_block_structure():
    t = small_tree(steps=3, with_coin=True)
    assert t.branching == 6
    # coin block is most significant, tri least significant
    np.testing.assert_array_equal(t.driver_step("coin"), [1, 1, 1, -1, -1, -1])
    np.testing.assert_array_equal(t.driver_step("diff"), [1, -1, 0, 1, -1, 0])
    assert t.child_probs.sum() == 1.0


def test_conditional_expectation_constant_and_terminal():
    t = small_tree()
    leaves = np.full(81, 3.25)
    np.testing.assert_array_equal(conditional_expectation(t, leaves, 2), np.full(9, 3.25))
    x = np.arange(81.0)
    np.testing.assert_array_equal(conditional_expectation(t, x, 4), x)


def test_conditional_expectation_matches_full_enumeration():
    # brute force: for each level-k node, sum P(leaf|node) * X(leaf) over
    # its descendant block of leaves
    t = small_tree()
    rng = np.random.default_rng(3)
    x = rng.normal(size=81)
    sub_probs = t.node_probs(2)  # conditional law of the remaining 2 steps
    for k in [0, 1, 2, 3]:
        got = conditional_expectation(t, x, k)
        want = []
        span = 3 ** (4 - k)
        cond = t.node_probs(4 - k)
        for i in range(t.n_nodes(k)):
            want.append(np.dot(x[i * span : (i + 1) * span], cond))
        np.testing.assert_allclose(got, np.array(want), rtol=1e-13, atol=1e-15)
    assert sub_probs.shape == (9,)


def test_tower_property():
    t = small_tree()
    rng = np.random.default_rng(4)
    x = rng.uniform(1.0, 2.0, size=81)
    full = t.expectation(x)
    for k in [1, 2, 3]:
        via_k = t.expectation(conditional_expectation(t, x, k))
        assert abs(via_k - full) < 1e-14


def test_predictable_times_pattern_has_exactly_zero_mean():
    # the load-bearing exactness lemma: coefficient known at the parent
    # times a {0,+1,-1} driver pattern averages to exactly 0.0
    for with_coin in [False, True]:
        t = small_tree(steps=3, with_coin=with_coin)
        rng = np.random.default_rng(11)
        coeff = rng.normal(size=t.n_nodes(2)) * 1.7e-3
        for drv in ["diff", "jump"] + (["coin"] if with_coin else []):
            child_vals = np.repeat(coeff, t.branching) * t.driver_increments(drv, 3)
            e = t.step_expectation(child_vals)
            assert np.all(e == 0.0), drv


def test_recenter_children_exact_zero_mean():
    for with_coin in [False, True]:
        t = small_tree(steps=2, with_coin=with_coin)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=t.n_nodes(2))
        centered = t.recenter_children(vals)
        assert np.all(t.step_expectation(centered) == 0.0)
        # only the innermost block's last branch is touched
        inner = t.model.blocks[-1].n_branches
        np.testing.assert_array_equal(
            centered.reshape(-1, inner)[:, : inner - 1], vals.reshape(-1, inner)[:, : inner - 1]
        )


def test_doob_martingale_case_gives_zero_compensator():
    t = small_tree()
    z = build_tree_z(t, np.zeros(4), seed=5, eps=0.1)
    dec = doob_decompose_exact(t, z, tol=0.0)
    for da in dec.a_increments:
        assert np.all(da == 0.0)
    for m, zl in zip(dec.m, z):
        np.testing.assert_array_equal(m, zl)


def test_doob_deterministic_decreasing():
    t = small_tree(steps=3)
    zs = [0.9, 0.8, 0.6, 0.5]
    z = [np.full(t.n_nodes(k), zs[k]) for k in range(4)]
    dec = doob_decompose_exact(t, z)
    np.testing.assert_allclose(dec.m[3], np.full(27, 0.9), atol=1e-15)
    np.testing.assert_allclose(dec.a[3], np.full(27, 0.4), atol=1e-15)


def test_doob_recompose_and_exact_martingale_increments():
    t = small_tree()
    profile = np.array([0.02, 0.0, 0.05, 0.0])
    z = build_tree_z(t, profile, seed=9, eps=0.15)
    dec = doob_decompose_exact(t, z, tol=0.0)
    # recomposition M - A = Z to machine precision
    for k in range(5):
        np.testing.assert_allclose(dec.m[k] - dec.a[k], z[k], atol=1e-15)
    # increments of M have exactly zero conditional mean in the order
    # (E[Z_k|node] - Z_{k-1}) + dA_k
    for k in range(1, 5):
        e = t.step_expectation(z[k])
        resid = (e - z[k - 1]) + dec.a_increments[k - 1]
        assert np.all(resid == 0.0)
    # steps with zero profile have exactly zero compensator increments
    assert np.all(dec.a_increments[1] == 0.0)
    assert np.all(dec.a_increments[3] == 0.0)
    assert np.all(dec.a_increments[0] > 0.0)


def test_doob_rejects_submartingale():
    t = small_tree(steps=2)
    z = [np.full(t.n_nodes(k), 0.3 + 0.2 * k) for k in range(3)]
    with pytest.raises(NotSupermartingaleError):
        doob_decompose_exact(t, z)


def test_build_tree_z_validation():
    t = small_tree(steps=3)
    with pytest.raises(ConfigurationError):
        build_tree_z(t, np.zeros(2))
    with pytest.raises(ConfigurationError):
        build_tree_z(t, np.array([0.1, -0.1, 0.0]))
    with pytest.raises(BoundaryError):
        build_tree_z(t, np.array([0.5, 0.5, 0.5]), eps=0.2)


class FamilyStub:
    """Hand-built family carrier for the axiom checker and measure builder."""

    def __init__(self, u_indices, levels_by_u, one_minus_z):
        self.u_indices = u_indices
        self._levels = levels_by_u
        self.one_minus_z = one_minus_z

    def values(self, u):
        return self._levels[u]

    def terminal(self, u):
        return self._levels[u][-1]


def martingale_family_from_z(t, z):
    # family M^u_k = E[1 - Z_u applied as terminal payoff ...]: simplest
    # valid family on a tree: M^u_k = E[1 - Z_u | F_k] for k >= u is
    # constant in k equal to lifted 1 - Z_u; increasing in u iff Z
    # decreases in u, so use a deterministic decreasing Z here.
    n = t.depth
    one_minus_z = [1.0 - zl for zl in z]
    levels_by_u = {}
    for u in range(n + 1):
        vals = [None] * (n + 1)
        cur = one_minus_z[u]
        vals[u] = cur
        for k in range(u + 1, n + 1):
            cur = t.lift(cur)
            vals[k] = cur
        levels_by_u[u] = vals
    return FamilyStub(list(range(n + 1)), levels_by_u, one_minus_z)


def test_verify_im_axioms_passes_on_valid_family():
    t = small_tree(steps=3)
    zs = [0.9, 0.7, 0.5, 0.4]
    z = [np.full(t.n_nodes(k), zs[k]) for k in range(4)]
    fam = martingale_family_from_z(t, z)
    report = verify_im_axioms(t, fam)
    assert report["pass"]
    names = {c["name"] for c in report["checks"]}
    assert "martingale" in names and "nondecreasing_in_u" in names


def test_verify_im_axioms_flags_monotonicity_violation():
    t = small_tree(steps=3)
    zs = [0.9, 0.7, 0.5, 0.4]
    z = [np.full(t.n_nodes(k), zs[k]) for k in range(4)]
    fam = martingale_family_from_z(t, z)
    # corrupt: lower the u=2 solution below the u=1 one at the terminal level
    fam._levels[2][3] = fam._levels[1][3] - 0.05
    report = verify_im_axioms(t, fam)
    assert not report["pass"]
    bad = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "nondecreasing_in_u" in bad


def test_product_measure_weights_and_marginals():
    t = small_tree(steps=3)
    zs = [0.9, 0.7, 0.5, 0.4]
    z = [np.full(t.n_nodes(k), zs[k]) for k in range(4)]
    fam = martingale_family_from_z(t, z)
    pm = build_product_measure(t, fam)
    assert pm.weights.shape == (5, 27)
    assert np.all(pm.weights >= 0.0)
    assert abs(pm.total_mass() - 1.0) < 1e-12
    # leaf marginal equals the tree's path probabilities: Q = P on F_inf
    marg = pm.weights.sum(axis=0)
    np.testing.assert_allclose(marg, pm.leaf_probs, rtol=0, atol=1e-15)
    # survival atom mass is E[Z_N]
    assert abs(pm.weights[-1].sum() - 0.4) < 1e-12
    # conditional CDF at interior nodes equals the family values
    for i_cell, u in enumerate(fam.u_indices):
        for k in range(u, 4):
            got = pm.cell_cdf_at_node(i_cell, k)
            np.testing.assert_allclose(got, fam.values(u)[k], atol=1e-12)


def test_product_measure_rejects_non_monotone_family():
    t = small_tree(steps=2)
    zs = [0.9, 0.6, 0.5]
    z = [np.full(t.n_nodes(k), zs[k]) for k in range(3)]
    fam = martingale_family_from_z(t, z)
    fam._levels[2][2] = fam._levels[1][2] - 0.2
    with pytest.raises(InvalidFamilyError):
        build_product_measure(t, fam)


def test_json_round_trip():
    t = small_tree(steps=2)
    z = build_tree_z(t, np.array([0.01, 0.0]), seed=2, eps=0.1)
    text = tree_to_json(t, {"z": z})
    t2, procs = tree_from_json(text)
    assert t2.depth == 2 and t2.branching == 3
    for a, b in zip(z, procs["z"]):
        np.testing.assert_array_equal(a, b)
    # serialization is deterministic
    assert text == tree_to_json(t, {"z": z})


def test_conditional_expectation_input_validation():
    t = small_tree(steps=2)
    with pytest.raises(GridMismatchError):
        conditional_expectation(t, np.zeros(5), 1)
    with pytest.raises(GridMismatchError):
        conditional_expectation(t, np.zeros(9), 7)
