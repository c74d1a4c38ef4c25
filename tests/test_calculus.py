import numpy as np
import pytest

from defaultlab.calculus import (
    affine_solve,
    affine_solve_product_form,
    doleans_exponential,
    predictable_bracket,
    stochastic_integral,
)
from defaultlab.errors import DomainError, GridMismatchError
from defaultlab.default_measure import TestMartingale
from defaultlab.grids import TimeGrid, sample_bundle, three_branch_model


def test_stochastic_integral_hand_values():
    # H = (1, 2), dX = (0.1, -0.2): I = (0, 0.1, -0.3)
    h = np.array([1.0, 2.0])
    dx = np.array([0.1, -0.2])
    np.testing.assert_allclose(stochastic_integral(h, dx), [0.0, 0.1, -0.3])


def test_stochastic_integral_is_linear_and_additive():
    rng = np.random.default_rng(0)
    h1, h2 = rng.normal(size=(2, 4, 30))
    dx = rng.normal(size=(4, 30))
    lhs = stochastic_integral(h1 + 2.0 * h2, dx)
    rhs = stochastic_integral(h1, dx) + 2.0 * stochastic_integral(h2, dx)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_doleans_hand_values():
    # dW = (0.5, -0.2) from the start: E = (1, 1.5, 1.2)
    e = doleans_exponential(np.array([0.5, -0.2]))
    np.testing.assert_allclose(e, [1.0, 1.5, 1.2])


def test_doleans_start_index():
    dw = np.array([0.5, 0.5, 0.5])
    e = doleans_exponential(dw, start_index=2)
    np.testing.assert_allclose(e, [1.0, 1.0, 1.0, 1.5])


def test_doleans_zero_crossing_is_allowed():
    # a factor hitting exactly zero absorbs, and going past -1 flips sign;
    # neither is an error for the multiplicative solution
    e = doleans_exponential(np.array([-1.0, 5.0, 2.0]))
    np.testing.assert_array_equal(e, [1.0, 0.0, 0.0, 0.0])
    e2 = doleans_exponential(np.array([-2.0, 1.0]))
    np.testing.assert_allclose(e2, [1.0, -1.0, -2.0])


def test_affine_solve_one_step_hand_value():
    # x1 = a + (a + dv) dw + dv = 0.3 + (0.3 + 0.5) * 1.0 + 0.5 = 1.6
    x = affine_solve(0.3, np.array([1.0]), np.array([0.5]))
    np.testing.assert_allclose(x, [0.3, 1.6])


def test_affine_solve_zero_driver_reduces_to_running_sum():
    x = affine_solve(0.3, np.zeros(2), np.array([0.1, 0.2]))
    np.testing.assert_allclose(x, [0.3, 0.4, 0.6])


def test_affine_solve_rejects_increment_at_or_below_minus_one():
    with pytest.raises(DomainError):
        affine_solve(1.0, np.array([-1.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        affine_solve_product_form(1.0, np.array([0.0, -1.5]), np.zeros(2))


def test_affine_recursion_matches_product_form_at_machine_precision():
    rng = np.random.default_rng(42)
    n = 1000
    dw = rng.uniform(-0.9, 1.5, size=(8, n))
    dv = rng.normal(scale=0.05, size=(8, n))
    a = rng.uniform(-1.0, 1.0, size=8)
    rec = affine_solve(a, dw, dv)
    prod = affine_solve_product_form(a, dw, dv)
    scale = np.maximum(1.0, np.abs(prod))
    assert np.max(np.abs(rec - prod) / scale) < 1e-11


def test_affine_positivity_preserved():
    # with a >= 0, dv >= 0 and 1 + dw > 0 every state stays >= 0:
    # x_k = x_{k-1} (1 + dw_k) + dv_k (1 + dw_k) is a sum of nonnegatives
    rng = np.random.default_rng(5)
    dw = rng.uniform(-0.99, 1.0, size=(20, 200))
    dv = rng.uniform(0.0, 0.1, size=(20, 200))
    x = affine_solve(0.5, dw, dv)
    assert np.all(x >= 0.0)


def test_affine_mismatched_steps_raise():
    with pytest.raises(GridMismatchError):
        affine_solve(0.0, np.zeros(3), np.zeros(4))


def test_bracket_of_independent_drivers_is_zero():
    grid = TimeGrid(1.0, 50)
    model = three_branch_model(with_coin=True)
    bundle = sample_bundle(grid, model, 40, seed=1)
    x = TestMartingale(bundle, "x", 0.0, {"diff": np.full(50, 1.3)})
    y = TestMartingale(bundle, "y", 0.0, {"coin": np.full(50, 0.7)})
    np.testing.assert_array_equal(predictable_bracket(x, y), np.zeros((40, 51)))


def test_bracket_variance_telescopes_with_constant_coefficient():
    # X = c * diff-walk: B_k = k * c^2 * E[diff^2] = k * c^2 * 0.5
    grid = TimeGrid(1.0, 10)
    model = three_branch_model()
    bundle = sample_bundle(grid, model, 3, seed=2)
    x = TestMartingale(bundle, "x", 0.0, {"diff": np.full(10, 2.0)})
    b = predictable_bracket(x, x)
    np.testing.assert_allclose(b[0], 2.0 * np.arange(11))


def test_bracket_bilinear_in_coefficients():
    grid = TimeGrid(1.0, 30)
    model = three_branch_model(with_coin=True)
    bundle = sample_bundle(grid, model, 12, seed=3)
    rng = np.random.default_rng(9)
    c1 = rng.normal(size=(12, 30))
    c2 = rng.normal(size=(12, 30))
    x = TestMartingale(bundle, "x", 0.0, {"diff": c1, "jump": c2})
    y = TestMartingale(bundle, "y", 1.0, {"diff": c2, "coin": c1})
    b = predictable_bracket(x, y)
    # only the diff*diff term survives: gamma = 0.5
    expect = np.zeros((12, 31))
    expect[:, 1:] = np.cumsum(0.5 * c1 * c2, axis=1)
    np.testing.assert_allclose(b, expect, atol=1e-14)


def test_bracket_matches_sample_covariance_of_martingale_increments():
    # law of large numbers cross-check on a fat bundle
    grid = TimeGrid(1.0, 8)
    model = three_branch_model()
    bundle = sample_bundle(grid, model, 200_000, seed=11)
    x = TestMartingale(bundle, "x", 0.0, {"diff": np.full(8, 0.8), "jump": np.full(8, 0.1)})
    inc = x.increments()
    b = predictable_bracket(x, x)
    sample = np.mean(inc**2, axis=0)
    np.testing.assert_allclose(sample, np.diff(b, axis=1)[0], rtol=0.02)
