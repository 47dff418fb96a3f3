"""Adam optimizer behaviour."""

import numpy as np
import pytest

from arn.optim import AdamState, adam_step
from arn.tensor import GradientMissingError, Tensor


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_zero_gradients_leave_parameters_unchanged():
    p = make_param([1.0, -2.0, 3.0])
    params = {"p": p}
    state = AdamState.for_params(params)
    before = p.data.copy()
    for _ in range(3):
        p.grad = np.zeros_like(p.data)
        adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(p.data, before)
    assert state.step_count == 3


def test_zero_lr_leaves_parameters_unchanged():
    rng = np.random.default_rng(1)
    p = make_param(rng.standard_normal(6))
    params = {"p": p}
    state = AdamState.for_params(params)
    before = p.data.copy()
    for _ in range(5):
        p.grad = rng.standard_normal(6)
        adam_step(params, state, lr=0.0)
    np.testing.assert_array_equal(p.data, before)
    assert state.step_count == 5


def test_first_step_moves_by_lr_times_sign():
    # with bias correction, m_hat = g and v_hat = g^2 on step one, so the
    # update collapses to -lr * sign(g) as epsilon -> 0
    p = make_param([5.0, -1.0])
    params = {"p": p}
    state = AdamState.for_params(params, epsilon=1e-12)
    p.grad = np.array([0.7, -0.2])
    adam_step(params, state, lr=0.01)
    np.testing.assert_allclose(p.data, [5.0 - 0.01, -1.0 + 0.01], atol=1e-9)


def test_converges_on_quadratic():
    rng = np.random.default_rng(7)
    theta_star = rng.standard_normal(8)
    theta = make_param(theta_star + rng.uniform(-0.5, 0.5, 8))
    params = {"theta": theta}
    state = AdamState.for_params(params)
    for _ in range(200):
        theta.grad = 2.0 * (theta.data - theta_star)
        adam_step(params, state, lr=0.01)
    assert np.linalg.norm(theta.data - theta_star) < 1e-2


def test_missing_gradient_rejected():
    params = {"a": make_param([1.0]), "b": make_param([2.0])}
    state = AdamState.for_params(params)
    params["a"].grad = np.array([0.5])
    with pytest.raises(GradientMissingError):
        adam_step(params, state, lr=0.1)


def test_gradients_cleared_after_step():
    p = make_param([1.0])
    params = {"p": p}
    state = AdamState.for_params(params)
    p.grad = np.array([1.0])
    adam_step(params, state, lr=0.1)
    assert p.grad is None


def test_moments_track_gradient_statistics():
    p = make_param([0.0])
    params = {"p": p}
    state = AdamState.for_params(params)
    p.grad = np.array([2.0])
    adam_step(params, state, lr=0.0)  # lr 0 isolates the moment update
    np.testing.assert_allclose(state.m["p"], [0.1 * 2.0])
    np.testing.assert_allclose(state.v["p"], [0.001 * 4.0])
    np.testing.assert_array_equal(p.data, [0.0])
