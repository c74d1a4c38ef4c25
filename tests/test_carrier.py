"""The tree and the path bundle are two carriers of one model.

A bundle whose 27 paths enumerate the leaves of a depth-3 tree (branch
digits in base 3, first step most significant, the tree's node order)
must give, path by path, exactly what the tree gives node by node.
"""

import numpy as np
import pytest

from defaultlab.calculus import predictable_bracket
from defaultlab.default_measure import driver_martingale, sign_modulated_martingale
from defaultlab.grids import PathBundle, TimeGrid, three_branch_model
from defaultlab.survival import ZGeneratorConfig, generate_z
from defaultlab.tree import ScenarioTree, tree_path_matrix

DEPTH = 3


@pytest.fixture
def carriers():
    grid = TimeGrid(horizon=1.0, steps=DEPTH)
    tree = ScenarioTree(grid, three_branch_model())
    leaves = np.arange(3**DEPTH)
    digits = np.stack([(leaves // 3 ** (DEPTH - k)) % 3 for k in range(1, DEPTH + 1)], axis=1)
    bundle = PathBundle(grid, three_branch_model(), {"tri": digits.astype(np.int8)})
    return tree, bundle


def bundle_matrix(per_step):
    """(paths, steps) matrix of per-step bundle results."""
    return np.stack([per_step(k) for k in range(1, DEPTH + 1)], axis=1)


def tree_matrix(tree, per_step):
    """The same layout from per-step child-level tree results."""
    return tree_path_matrix(tree, [per_step(k) for k in range(1, DEPTH + 1)])


def test_driver_increments_agree(carriers):
    tree, bundle = carriers
    for drv in ("diff", "jump"):
        on_tree = tree_matrix(tree, lambda k: tree.driver_increments(drv, k))
        on_bundle = bundle_matrix(lambda k: bundle.driver_increments(drv, k))
        np.testing.assert_array_equal(on_tree, on_bundle)


def test_step_slicing_agrees(carriers):
    tree, bundle = carriers
    rng = np.random.default_rng(1)
    levels = [rng.normal(size=3**k) for k in range(DEPTH + 1)]
    matrix = np.empty((3**DEPTH, DEPTH + 1))
    matrix[:, 0] = levels[0][0]
    matrix[:, 1:] = tree_path_matrix(tree, levels[1:])
    on_tree = tree_matrix(tree, lambda k: tree.at(levels, k))
    np.testing.assert_array_equal(on_tree, bundle_matrix(lambda k: bundle.at(matrix, k)))
    np.testing.assert_array_equal(tree.at(levels, 0), bundle.at(matrix, 0)[:1])


def test_lifting_agrees(carriers):
    tree, bundle = carriers
    rng = np.random.default_rng(2)
    parents = [rng.normal(size=3 ** (k - 1)) for k in range(1, DEPTH + 1)]
    predictable = tree_path_matrix(tree, parents, predictable=True)
    on_tree = tree_matrix(tree, lambda k: tree.lift(parents[k - 1]))
    on_bundle = bundle_matrix(lambda k: bundle.lift(predictable[:, k - 1]))
    np.testing.assert_array_equal(on_tree, on_bundle)


def test_realizing_agrees(carriers):
    tree, bundle = carriers
    blk = tree.model.blocks[0]
    rng = np.random.default_rng(3)
    per_branch = [rng.normal(size=(2, 3 ** (k - 1), 3)) for k in range(1, DEPTH + 1)]
    for comp in range(2):
        on_tree = tree_matrix(tree, lambda k: tree.realize(per_branch[k - 1], blk, k)[comp])

        def realized(k):
            rows = np.repeat(per_branch[k - 1], 3 ** (DEPTH - k + 1), axis=1)
            return bundle.realize(rows, blk, k)[comp]

        np.testing.assert_array_equal(on_tree, bundle_matrix(realized))
    # a single row of branch values broadcasts over every parent
    row = rng.normal(size=(1, 3))
    on_tree = tree_matrix(tree, lambda k: tree.realize(row, blk, k))
    np.testing.assert_array_equal(on_tree, bundle_matrix(lambda k: bundle.realize(row, blk, k)))


def test_generate_z_agrees(carriers):
    tree, bundle = carriers
    cfg = ZGeneratorConfig(
        z0=0.45, rate=0.4, jump_time=2.0 / 3.0, jump_size=0.2, sigma=0.5, jump_scale=0.3
    )
    mt, mb = generate_z(cfg, tree), generate_z(cfg, bundle)
    # the tree recentres dm on the last branch, the bundle does not: at most
    # an ulp apart
    np.testing.assert_allclose(tree_path_matrix(tree, mt.s[1:]), mb.s[:, 1:], rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(
        tree_path_matrix(tree, mt.tilde_m_increments), mb.tilde_m_increments, rtol=0.0, atol=1e-14
    )
    np.testing.assert_allclose(
        tree_path_matrix(tree, mt.pred_one_minus_z, predictable=True),
        mb.pred_one_minus_z,
        rtol=0.0,
        atol=1e-14,
    )
    np.testing.assert_allclose(tree_path_matrix(tree, mt.a[1:]), mb.a[:, 1:], rtol=0.0, atol=1e-14)


def test_test_martingales_and_brackets_agree(carriers):
    tree, bundle = carriers
    for make in (
        lambda c: driver_martingale(c, "diff", x0=0.5),
        lambda c: sign_modulated_martingale(c, "jump", "diff"),
    ):
        xt, xb = make(tree), make(bundle)
        np.testing.assert_array_equal(tree_path_matrix(tree, xt.increments()), xb.increments())
        np.testing.assert_array_equal(tree_path_matrix(tree, xt.values()[1:]), xb.values()[:, 1:])
        bt, bb = predictable_bracket(xt, xt), predictable_bracket(xb, xb)
        np.testing.assert_array_equal(tree_path_matrix(tree, bt[1:]), bb[:, 1:])
