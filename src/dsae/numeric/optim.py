"""Optimization kernels: Adam and the minibatch Adam trainer, and L-BFGS
with elastic net (orthant-wise L1).

Everything is float64 and deterministic; objectives are callables
returning ``(value, gradient)``. ``adam_train`` hands its loss callback one
minibatch of instance indices at a time, and ``adam_step`` updates the
parameters and moment buffers in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ParamVector
from .rng import Rng

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class AdamState:
    """Moment buffers for one parameter vector."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # scratch vectors of the update, kept between steps
    step: np.ndarray | None = None
    denom: np.ndarray | None = None


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              slice_names=None) -> np.ndarray:
    """One bias-corrected Adam update with decoupled weight decay.

    Updates ``params`` and the moments in ``state`` in place and returns
    ``params``.
    """
    if params.shape != grads.shape:
        raise ValueError("params and grads length mismatch")
    if not np.all(np.isfinite(grads)):
        where = "params"
        if slice_names:
            bad = int(np.argmin(np.isfinite(grads)))
            for name, lo, hi in slice_names:
                if lo <= bad < hi:
                    where = name
                    break
        raise FloatingPointError(f"non-finite gradient in slice '{where}'")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state.step = np.empty_like(params)
        state.denom = np.empty_like(params)
    state.t += 1
    m, v, step, denom = state.m, state.v, state.step, state.denom
    # the operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    # p -= lr mhat / (sqrt(vhat) + eps), p -= lr wd p, in their usual order
    np.multiply(grads, 1.0 - state.beta1, out=step)
    m *= state.beta1
    m += step
    np.multiply(grads, 1.0 - state.beta2, out=step)
    step *= grads
    v *= state.beta2
    v += step
    np.divide(m, 1.0 - state.beta1 ** state.t, out=step)
    step *= state.lr
    np.divide(v, 1.0 - state.beta2 ** state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    params -= step
    if state.weight_decay:
        np.multiply(params, state.lr * state.weight_decay, out=step)
        params -= step
    return params


def adam_train(params: ParamVector, n: int,
               loss_and_grad: Callable[[np.ndarray, ParamVector], float], *,
               epochs: int, batch_size: int, lr: float, weight_decay: float,
               rng: Rng, clip_norm: float = math.inf,
               dev_score: Callable[[], float] | None = None) -> dict:
    """Minibatch Adam over instances ``0..n-1``, training ``params`` in place.

    Each epoch visits one ``rng.permutation(n)`` in batches.
    ``loss_and_grad(batch, grad)`` gets the batch's instance indices in
    permutation order, returns their summed loss and adds their summed
    gradient into ``grad``, one vector zeroed before every batch; the step
    uses its mean, rescaled to norm ``clip_norm`` when longer. With
    ``dev_score``, the parameters after the epoch with the highest score
    (the first, on ties) are restored at the end.

    Returns the training record, which holds no timings: per epoch, the
    summed loss (``loss``), the mean over its batches of the gradient norm
    before clipping (``grad_norm``) and the dev score (``dev_score``, None
    without ``dev_score``); and ``chosen_epoch``, the epoch whose parameters
    are kept (None when none is).
    """
    state = AdamState(lr=lr, weight_decay=weight_decay)
    names = params.slice_names()
    grad = params.zeros_like()
    best_score = -math.inf
    best = None
    record = {"loss": [], "grad_norm": [], "dev_score": None if dev_score is None else [],
              "chosen_epoch": None}
    for epoch in range(epochs):
        order = rng.permutation(n)
        starts = range(0, len(order), batch_size)
        total = norms = 0.0
        for lo in starts:
            batch = order[lo:lo + batch_size]
            grad.data.fill(0.0)
            loss = loss_and_grad(batch, grad)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {lo // batch_size}")
            total += float(loss)
            grad.data /= len(batch)
            norm = float(np.linalg.norm(grad.data))
            norms += norm
            if norm > clip_norm:
                grad.data *= clip_norm / norm
            adam_step(params.data, grad.data, state, names)
        record["loss"].append(total)
        record["grad_norm"].append(norms / len(starts) if starts else 0.0)
        if dev_score is None:
            record["chosen_epoch"] = epoch
        else:
            score = float(dev_score())
            record["dev_score"].append(score)
            if score > best_score:
                best_score = score
                best = params.copy()
                record["chosen_epoch"] = epoch
    if best is not None:
        params.set_data(best.data)
    return record


# backtracking line search: sufficient-decrease constant, step shrink
# factor, and trials before giving up
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_LS = 30


@dataclass
class LbfgsConfig:
    memory: int = 10
    max_iter: int = 200
    tol: float = 1e-5
    c1: float = 0.0  # L1 coefficient, handled orthant-wise
    c2: float = 0.0  # L2 coefficient, folded into the smooth objective


# why lbfgs_minimize stopped
CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_FAILED = "line search failed"
NO_DESCENT = "no descent direction"
STOP_REASONS = (CONVERGED, MAX_ITER, LINE_SEARCH_FAILED, NO_DESCENT)


@dataclass
class LbfgsResult:
    """The best point seen and its value; ``iterations`` counts the steps
    taken, ``evaluations`` the objective calls, and ``stop`` is one of
    CONVERGED, MAX_ITER, LINE_SEARCH_FAILED and NO_DESCENT."""

    x: np.ndarray
    value: float
    iterations: int
    evaluations: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == CONVERGED

    def record(self) -> dict:
        """The training record of a model fitted by this run: everything
        but the point, which the model holds."""
        return {"stop": self.stop, "steps": self.iterations,
                "evaluations": self.evaluations, "objective": float(self.value)}


def _pseudo_gradient(x, g, c1):
    right, left = g + c1, g - c1
    # at zero, the one-sided derivative that descends, if one does
    at_zero = np.where(right < 0, right, np.where(left > 0, left, 0.0))
    return np.where(x > 0, right, np.where(x < 0, left, at_zero))


def lbfgs_minimize(objective: Objective, x0: np.ndarray,
                   config: LbfgsConfig | None = None) -> LbfgsResult:
    """Limited-memory BFGS with backtracking Armijo line search.

    With ``config.c1 > 0`` the L1 term is handled in the OWL-QN manner:
    pseudo-gradient, direction projected onto the pseudo-gradient orthant,
    iterates projected so coordinates never cross zero. This produces
    exactly-zero coordinates at the solution.
    """
    cfg = config or LbfgsConfig()
    c1, c2 = cfg.c1, cfg.c2
    evaluations = 0

    def full(x):
        nonlocal evaluations
        evaluations += 1
        v, g = objective(x)
        if c2:
            v = v + 0.5 * c2 * float(np.dot(x, x))
            g = g + c2 * x
        return v + c1 * float(np.sum(np.abs(x))), g  # g is the smooth part

    x = np.array(x0, dtype=np.float64)
    f, g = full(x)
    best_x, best_f = x.copy(), f
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    steps = 0
    while True:
        pg = _pseudo_gradient(x, g, c1) if c1 else g
        if float(np.max(np.abs(pg))) < cfg.tol:
            stop = CONVERGED
            break
        if steps == cfg.max_iter:
            stop = MAX_ITER
            break
        # two-loop recursion on the pseudo-gradient
        q = pg.copy()
        alphas = []
        for s, y in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / float(np.dot(y, s))
            a = rho * float(np.dot(s, q))
            alphas.append((a, rho))
            q -= a * y
        if s_hist:
            s, y = s_hist[-1], y_hist[-1]
            q *= float(np.dot(s, y)) / float(np.dot(y, y))
        for (a, rho), s, y in zip(reversed(alphas), s_hist, y_hist):
            b = rho * float(np.dot(y, q))
            q += (a - b) * s
        d = -q
        if c1:
            # keep only components that agree with steepest descent
            d[d * (-pg) <= 0] = 0.0
        deriv = float(np.dot(pg, d))
        if deriv >= 0:  # not a descent direction; restart from steepest
            d = -pg
            deriv = float(np.dot(pg, d))
            s_hist.clear()
            y_hist.clear()
            if deriv >= 0:
                stop = NO_DESCENT
                break
        orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
        step = 1.0
        for _ in range(_MAX_LS):
            x_new = x + step * d
            if c1:
                x_new[x_new * orthant < 0] = 0.0
            f_new, g_new = full(x_new)
            if f_new <= f + _ARMIJO_C * step * deriv:
                break
            step *= _SHRINK
        else:
            stop = LINE_SEARCH_FAILED
            break
        steps += 1
        s = x_new - x
        y = g_new - g
        if float(np.dot(s, y)) > 1e-12:
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0)
                y_hist.pop(0)
        else:
            # Armijo-only steps can violate curvature; a stale memory would
            # freeze the direction, so restart from steepest descent.
            s_hist.clear()
            y_hist.clear()
        x, f, g = x_new, f_new, g_new
        if f < best_f:
            best_f, best_x = f, x.copy()
    return LbfgsResult(x=best_x, value=best_f, iterations=steps, evaluations=evaluations,
                       stop=stop)
