import math

import numpy as np
import pytest

from dsae.numeric import optim
from dsae.numeric.optim import (AdamState, LbfgsConfig, adam_step, adam_train,
                                lbfgs_minimize)
from dsae.numeric.params import ParamVector
from dsae.numeric.rng import Rng


# ----------------------------------------------------------------------- Adam

def test_adam_quadratic_convergence():
    # acceptance criterion: ||x|| < 1e-2 within 500 steps on a quadratic
    x = np.array([3.0, -2.0, 1.5, -0.5])
    state = AdamState(lr=0.05)
    for _ in range(500):
        x = adam_step(x, 2.0 * x, state)
    assert float(np.linalg.norm(x)) < 1e-2


def test_adam_bias_correction_first_step():
    # after one step the update is exactly lr * sign(grad) regardless of scale
    state = AdamState(lr=0.1)
    x = adam_step(np.zeros(3), np.array([1e-4, -5.0, 2.0]), state)
    assert np.allclose(x, [-0.1, 0.1, -0.1], atol=1e-4)


def test_adam_decoupled_weight_decay():
    plain = adam_step(np.full(2, 10.0), np.ones(2), AdamState(lr=0.1))
    decayed = adam_step(np.full(2, 10.0), np.ones(2), AdamState(lr=0.1, weight_decay=0.5))
    assert np.all(np.abs(decayed) < np.abs(plain))


def test_adam_nonfinite_gradient_names_slice():
    grads = np.array([0.0, np.nan, 0.0])
    names = [("alpha", 0, 1), ("beta", 1, 3)]
    with pytest.raises(FloatingPointError, match="beta"):
        adam_step(np.zeros(3), grads, AdamState(), slice_names=names)


def reference_adam_step(params, grads, state):
    """The textbook update with a new array for every intermediate."""
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    mhat = state.m / (1.0 - state.beta1 ** state.t)
    vhat = state.v / (1.0 - state.beta2 ** state.t)
    out = params - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    if state.weight_decay:
        out = out - state.lr * state.weight_decay * out
    return out


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_step_in_place_equals_reference(weight_decay):
    rng = Rng(4, stream=3)
    x = rng.normal((300,))
    expected = x.copy()
    state = AdamState(lr=0.01, weight_decay=weight_decay)
    ref_state = AdamState(lr=0.01, weight_decay=weight_decay)
    buffers = None
    for _ in range(50):
        grads = rng.normal((300,), scale=3.0)
        assert adam_step(x, grads, state) is x
        expected = reference_adam_step(expected, grads, ref_state)
        assert np.array_equal(x, expected)
        assert np.array_equal(state.m, ref_state.m)
        assert np.array_equal(state.v, ref_state.v)
        # every step reuses the moment and scratch vectors of the first
        step_buffers = (state.m, state.v, state.step, state.denom)
        assert buffers is None or all(a is b for a, b in zip(step_buffers, buffers))
        buffers = step_buffers


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(4), AdamState())


# ---------------------------------------------------------- minibatch trainer

TARGETS = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0], [2.0, 2.0]])


def quadratic_loss(params):
    """Instance i's loss is 0.5 * ||x - TARGETS[i]||^2; a batch's is the sum."""
    def loss_and_grad(batch, grad):
        diff = params["x"] - TARGETS[batch]
        grad["x"] += diff.sum(axis=0)
        return 0.5 * float(np.sum(diff * diff))

    return loss_and_grad


def test_adam_train_hands_each_permutation_over_in_batches():
    params = ParamVector({"x": (2,)})
    batches = []
    loss = quadratic_loss(params)

    def recording(batch, grad):
        batches.append(list(batch))
        return loss(batch, grad)

    adam_train(params, len(TARGETS), recording, epochs=2, batch_size=3, lr=0.1,
               weight_decay=0.0, rng=Rng(0, stream=3))
    rng = Rng(0, stream=3)
    expected = []
    for _ in range(2):
        order = list(rng.permutation(len(TARGETS)))
        expected += [order[:3], order[3:]]
    assert batches == expected


def test_adam_train_hands_a_zero_gradient_to_every_batch():
    params = ParamVector({"x": (2,)})
    loss = quadratic_loss(params)
    seen = []

    def checking(batch, grad):
        assert np.all(grad.data == 0.0)
        seen.append(grad)
        return loss(batch, grad)

    adam_train(params, len(TARGETS), checking, epochs=3, batch_size=3, lr=0.1,
               weight_decay=0.0, rng=Rng(0, stream=3))
    assert len(seen) == 6


def test_adam_train_restores_best_epoch():
    params = ParamVector({"x": (2,)})
    scores = iter([0.2, 0.9, 0.5, 0.9, 0.1])
    seen = []

    def dev_score():
        seen.append(params.data.copy())
        return next(scores)

    adam_train(params, len(TARGETS), quadratic_loss(params), epochs=5, batch_size=3,
               lr=0.1, weight_decay=0.0, rng=Rng(0, stream=3), dev_score=dev_score)
    assert len(seen) == 5
    assert not np.array_equal(seen[1], seen[-1])
    # epoch 1 scored best; epoch 3 only tied it
    assert np.array_equal(params.data, seen[1])


def test_adam_train_records_each_epoch_and_the_chosen_one():
    """The record holds each epoch's summed loss, its mean gradient norm
    before clipping and its dev score, and the epoch whose parameters are
    kept."""
    params = ParamVector({"x": (2,)})
    params["x"] = np.array([50.0, -50.0])
    loss = quadratic_loss(params)
    losses, norms = [], []

    def recording(batch, grad):
        value = loss(batch, grad)
        losses.append(value)
        norms.append(float(np.linalg.norm(grad.data)) / len(batch))
        return value

    scores = iter([0.2, 0.9, 0.5])
    record = adam_train(params, len(TARGETS), recording, epochs=3, batch_size=3, lr=0.1,
                        weight_decay=0.0, rng=Rng(0, stream=3), clip_norm=0.5,
                        dev_score=lambda: next(scores))
    per_epoch = len(losses) // 3
    assert record["loss"] == [sum(losses[k:k + per_epoch], 0.0)
                              for k in range(0, len(losses), per_epoch)]
    assert record["grad_norm"] == pytest.approx(
        [sum(norms[k:k + per_epoch]) / per_epoch for k in range(0, len(norms), per_epoch)])
    assert min(record["grad_norm"]) > 0.5  # measured before clipping to 0.5
    assert record["dev_score"] == [0.2, 0.9, 0.5]
    assert record["chosen_epoch"] == 1


@pytest.mark.parametrize("epochs, chosen", [(0, None), (2, 1)])
def test_adam_train_without_dev_keeps_the_last_epoch(epochs, chosen):
    params = ParamVector({"x": (2,)})
    record = adam_train(params, len(TARGETS), quadratic_loss(params), epochs=epochs,
                        batch_size=3, lr=0.1, weight_decay=0.0, rng=Rng(0, stream=3))
    assert record["dev_score"] is None and record["chosen_epoch"] == chosen
    assert len(record["loss"]) == len(record["grad_norm"]) == epochs


def test_adam_train_clip_norm_bounds_step_gradient(monkeypatch):
    norms = []

    def recording_step(params, grads, state, slice_names=None):
        norms.append(float(np.linalg.norm(grads)))
        return adam_step(params, grads, state, slice_names)

    monkeypatch.setattr(optim, "adam_step", recording_step)
    for clip in (math.inf, 0.5):
        params = ParamVector({"x": (2,)})
        params["x"] = np.array([50.0, -50.0])
        adam_train(params, len(TARGETS), quadratic_loss(params), epochs=3,
                   batch_size=2, lr=0.1, weight_decay=0.0, rng=Rng(0, stream=3),
                   clip_norm=clip)
    unclipped, clipped = norms[:6], norms[6:]
    assert min(unclipped) > 0.5
    assert len(clipped) == 6
    assert max(clipped) == pytest.approx(0.5)


# --------------------------------------------------------------------- L-BFGS

def rosenbrock(x):
    a, b = 1.0, 100.0
    v = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
        2 * b * (x[1] - x[0] ** 2),
    ])
    return float(v), g


def test_lbfgs_rosenbrock():
    # acceptance criterion: reach (1,1) within 1e-4 in at most 200 iterations
    result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                            LbfgsConfig(max_iter=200, tol=1e-8))
    assert result.iterations <= 200
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-4)


def test_lbfgs_quadratic_exact():
    A = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, -2.0, 3.0])

    def quad(x):
        return float(0.5 * x @ A @ x - b @ x), A @ x - b

    result = lbfgs_minimize(quad, np.zeros(3), LbfgsConfig(tol=1e-5))
    assert result.converged
    assert np.allclose(result.x, np.linalg.solve(A, b), atol=1e-6)


def test_owlqn_scalar_soft_threshold_to_exact_zero():
    # min 0.5*(x-0.3)^2 + 1*|x|  ->  x = 0 exactly (since |0.3| < c1)
    def f(x):
        return float(0.5 * (x[0] - 0.3) ** 2), np.array([x[0] - 0.3])

    result = lbfgs_minimize(f, np.array([2.0]), LbfgsConfig(c1=1.0, tol=1e-10))
    assert result.x[0] == 0.0


def test_owlqn_scalar_soft_threshold_shrinkage():
    # min 0.5*(x-2)^2 + 0.5*|x|  ->  x = 1.5 exactly
    def f(x):
        return float(0.5 * (x[0] - 2.0) ** 2), np.array([x[0] - 2.0])

    result = lbfgs_minimize(f, np.array([0.0]), LbfgsConfig(c1=0.5, tol=1e-10))
    assert result.x[0] == pytest.approx(1.5, abs=1e-6)


def test_owlqn_sparse_least_squares_produces_exact_zeros():
    rng = Rng(0, stream=2)
    A = rng.normal((40, 30))
    x_true = np.zeros(30)
    x_true[:5] = rng.normal((5,))
    y = A @ x_true

    def f(x):
        r = A @ x - y
        return float(0.5 * r @ r), A.T @ r

    result = lbfgs_minimize(f, np.zeros(30), LbfgsConfig(c1=2.0, max_iter=500, tol=1e-8))
    n_zero = int(np.sum(result.x == 0.0))
    assert n_zero >= 20  # strong L1 forces most coordinates exactly to zero


def test_lbfgs_l2_fold():
    # min 0.5*x^2 (objective) + 0.5*c2*x^2 with a linear pull
    def f(x):
        return float(0.5 * x @ x - x[0]), x - np.array([1.0, 0.0])

    result = lbfgs_minimize(f, np.zeros(2), LbfgsConfig(c2=1.0, tol=1e-10))
    assert result.x[0] == pytest.approx(0.5, abs=1e-6)


def test_lbfgs_monotone_best_value():
    result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iter=50))
    v0, _ = rosenbrock(np.array([-1.2, 1.0]))
    assert result.value <= v0


def counted(objective):
    """objective, and a list that grows by one on each of its calls."""
    calls = []

    def wrapped(x):
        calls.append(1)
        return objective(x)
    return wrapped, calls


def test_lbfgs_reports_convergence_at_the_start():
    quad, calls = counted(lambda x: (float(x @ x), 2 * x))
    result = lbfgs_minimize(quad, np.zeros(3), LbfgsConfig(tol=1e-8))
    assert result.stop == optim.CONVERGED and result.converged
    assert result.iterations == 0 and result.evaluations == len(calls) == 1


def test_lbfgs_reports_convergence_after_steps():
    quad, calls = counted(lambda x: (float(x @ x), 2 * x))
    result = lbfgs_minimize(quad, np.ones(3), LbfgsConfig(tol=1e-8))
    assert result.stop == optim.CONVERGED
    assert result.iterations >= 1 and result.evaluations == len(calls) > result.iterations


def test_lbfgs_reports_max_iter():
    objective, calls = counted(rosenbrock)
    result = lbfgs_minimize(objective, np.array([-1.2, 1.0]), LbfgsConfig(max_iter=3))
    assert result.stop == optim.MAX_ITER and not result.converged
    assert result.iterations == 3 and result.evaluations == len(calls)


def test_lbfgs_reports_line_search_failure():
    # the gradient points the wrong way: no step along -g lowers the value
    objective, calls = counted(lambda x: (float(x @ x), -2 * x))
    result = lbfgs_minimize(objective, np.ones(2), LbfgsConfig(max_iter=10))
    assert result.stop == optim.LINE_SEARCH_FAILED and not result.converged
    assert result.iterations == 0
    assert result.evaluations == len(calls) == 1 + optim._MAX_LS
    assert np.array_equal(result.x, np.ones(2))


def test_lbfgs_reports_no_descent_direction():
    # a zero gradient never passes a zero tolerance, and gives no direction
    objective, calls = counted(lambda x: (float(x @ x), 2 * x))
    result = lbfgs_minimize(objective, np.zeros(2), LbfgsConfig(tol=0.0))
    assert result.stop == optim.NO_DESCENT and not result.converged
    assert result.iterations == 0 and result.evaluations == len(calls) == 1
