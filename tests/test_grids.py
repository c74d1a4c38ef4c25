import numpy as np
import pytest

from defaultlab.default_measure import TestMartingale
from defaultlab.errors import ConfigurationError, GridMismatchError, UnsupportedProcessError
from defaultlab.grids import (
    DriverBlock,
    IncrementModel,
    PathBundle,
    TimeGrid,
    philox_stream,
    sample_bundle,
    three_branch_model,
)


def test_grid_times_and_dt():
    g = TimeGrid(horizon=2.0, steps=4)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.index_of(1.5) == 3
    assert g.index_of(0.0) == 0


def test_grid_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        TimeGrid(horizon=-1.0, steps=4)
    with pytest.raises(ConfigurationError):
        TimeGrid(horizon=1.0, steps=0)
    with pytest.raises(ConfigurationError):
        TimeGrid(horizon=1.0, steps=10).index_of(0.123)


def test_driver_block_recentring_is_exactly_mean_zero():
    blk = DriverBlock("b", (0.25, 0.25, 0.5))
    # deliberately nasty values; the mean must still cancel to exactly 0.0
    v = blk.add_pattern("p", [0.1, 0.3, 99.0])
    assert blk.conditional_mean("p") == 0.0
    # the first branches are kept untouched
    assert v[0] == 0.1 and v[1] == 0.3


def test_driver_block_rejects_non_dyadic_probs():
    with pytest.raises(ConfigurationError):
        DriverBlock("b", (0.3, 0.3, 0.4))
    with pytest.raises(ConfigurationError):
        DriverBlock("b", (0.25, 0.25))  # does not sum to one
    with pytest.raises(ConfigurationError):
        DriverBlock("b", (1.0,))


def test_canonical_model_patterns():
    m = three_branch_model()
    np.testing.assert_array_equal(m.pattern("diff"), [1.0, -1.0, 0.0])
    np.testing.assert_array_equal(m.pattern("jump"), [1.0, 1.0, -1.0])
    assert m.block_of("diff").conditional_mean("diff") == 0.0
    assert m.block_of("jump").conditional_mean("jump") == 0.0


def test_canonical_model_moments():
    m = three_branch_model(with_coin=True)
    # E[diff^2] = 1/4 + 1/4 = 0.5, E[jump^2] = 1/4 + 1/4 + 1/2 = 1.0
    assert m.cov("diff", "diff") == 0.5
    assert m.cov("jump", "jump") == 1.0
    # E[diff*jump] = 1/4 - 1/4 + 0 = 0; orthogonal inside the block
    assert m.cov("diff", "jump") == 0.0
    # different blocks are independent
    assert m.cov("diff", "coin") == 0.0
    assert m.cov("coin", "coin") == 1.0


def test_model_rejects_duplicate_drivers():
    with pytest.raises(ConfigurationError):
        IncrementModel(
            [
                DriverBlock("a", (0.5, 0.5), {"w": np.array([1.0, -1.0])}),
                DriverBlock("b", (0.5, 0.5), {"w": np.array([2.0, -2.0])}),
            ]
        )
    m = three_branch_model()
    with pytest.raises(UnsupportedProcessError):
        m.block_of("nope")


def test_sample_bundle_reproducible_and_distributed():
    grid = TimeGrid(1.0, 200)
    m = three_branch_model(with_coin=True)
    b1 = sample_bundle(grid, m, 500, seed=7)
    b2 = sample_bundle(grid, m, 500, seed=7)
    np.testing.assert_array_equal(b1.branches["tri"], b2.branches["tri"])
    np.testing.assert_array_equal(b1.branches["coin"], b2.branches["coin"])
    b3 = sample_bundle(grid, m, 500, seed=8)
    assert np.any(b1.branches["tri"] != b3.branches["tri"])
    # empirical branch frequencies close to (1/4, 1/4, 1/2)
    freq = np.bincount(b1.branches["tri"].ravel(), minlength=3) / b1.branches["tri"].size
    np.testing.assert_allclose(freq, [0.25, 0.25, 0.5], atol=0.01)


def test_philox_stream_tag_separation():
    a = philox_stream(3, "alpha").random(8)
    b = philox_stream(3, "beta").random(8)
    a2 = philox_stream(3, "alpha").random(8)
    np.testing.assert_array_equal(a, a2)
    assert np.any(a != b)


def test_bundle_shape_validation():
    grid = TimeGrid(1.0, 4)
    m = three_branch_model()
    with pytest.raises(GridMismatchError):
        PathBundle(grid, m, {"tri": np.zeros((3, 5), dtype=np.int8)})


def test_driver_linear_values_and_increments():
    grid = TimeGrid(1.0, 3)
    m = three_branch_model()
    # one path with branches [0, 1, 2]: diff increments (1, -1, 0)
    bundle = PathBundle(grid, m, {"tri": np.array([[0, 1, 2]], dtype=np.int8)})
    x = TestMartingale(bundle, "x", 2.0, {"diff": np.array([1.0, 2.0, 3.0])})
    np.testing.assert_array_equal(x.increments(), [[1.0, -2.0, 0.0]])
    np.testing.assert_array_equal(x.values(), [[2.0, 3.0, 1.0, 1.0]])
    # jump driver on same branches gives (1, 1, -1)
    y = TestMartingale(bundle, "y", 0.0, {"jump": np.ones(3)})
    np.testing.assert_array_equal(y.values(), [[0.0, 1.0, 2.0, 1.0]])
