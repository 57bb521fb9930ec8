"""Bidirectional LSTM encoder with a CRF output layer and hand-written
forward/backward passes.

Per-direction hidden size is 64 (128 concatenated), gate order is
(input, forget, cell, output). No dropout anywhere, matching the model
this reimplements. Training runs the shared minibatch Adam loop
(``numeric.optim.adam_train``) with gradient-norm clipping; a dev split
selects the epoch by exact-span F1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..annotation import BIO_LABELS
from ..evaluate import exact_bio_f1
from ..numeric import kernels
from ..numeric.optim import adam_train
from ..numeric.params import ParamVector
from ..numeric.rng import Rng
from .crf import viterbi


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _param_shapes(d: int, hidden: int, n_labels: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for direction in ("fwd", "bwd"):
        shapes[f"Wx_{direction}"] = (d, 4 * hidden)
        shapes[f"Wh_{direction}"] = (hidden, 4 * hidden)
        shapes[f"b_{direction}"] = (4 * hidden,)
    shapes["Wp"] = (2 * hidden, n_labels)
    shapes["bp"] = (n_labels,)
    shapes["T"] = (n_labels, n_labels)
    return shapes


@dataclass
class LstmCrfConfig:
    hidden: int = 64
    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    clip_norm: float = 5.0
    seed: int = 0


@dataclass
class LstmCrfModel:
    labels: tuple[str, ...]
    input_dim: int
    hidden: int
    params: ParamVector
    hyperparameters: dict = field(default_factory=dict)

    @classmethod
    def init(cls, input_dim: int, hidden: int, labels, seed: int) -> "LstmCrfModel":
        params = ParamVector(_param_shapes(input_dim, hidden, len(labels)))
        rng = Rng(seed, stream=23)
        for direction in ("fwd", "bwd"):
            r = np.sqrt(6.0 / (input_dim + 4 * hidden))
            params[f"Wx_{direction}"][:] = (rng.uniform((input_dim, 4 * hidden)) * 2 - 1) * r
            Wh = params[f"Wh_{direction}"]
            for gate in range(4):
                Wh[:, gate * hidden:(gate + 1) * hidden] = _orthogonal(hidden, rng)
            b = params[f"b_{direction}"]
            b[:] = 0.0
            b[hidden:2 * hidden] = 1.0  # forget-gate bias
        r = np.sqrt(6.0 / (2 * hidden + len(labels)))
        params["Wp"][:] = (rng.uniform((2 * hidden, len(labels))) * 2 - 1) * r
        return cls(labels=tuple(labels), input_dim=input_dim, hidden=hidden, params=params)


def _orthogonal(n: int, rng: Rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal((n, n)))
    return q * np.sign(np.diag(r))


def _lstm_direction(X: np.ndarray, Wx, Wh, b, hidden: int):
    """Run one direction over X (already time-ordered); returns h plus the
    caches needed for BPTT."""
    L = X.shape[0]
    H = hidden
    gates = np.empty((L, 4 * H))
    cs = np.empty((L, H))
    hs = np.empty((L, H))
    h = np.zeros(H)
    c = np.zeros(H)
    pre = X @ Wx + b
    for t in range(L):
        a = pre[t] + h @ Wh
        i = _sigmoid(a[:H])
        f = _sigmoid(a[H:2 * H])
        g = np.tanh(a[2 * H:3 * H])
        o = _sigmoid(a[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates[t, :H] = i
        gates[t, H:2 * H] = f
        gates[t, 2 * H:3 * H] = g
        gates[t, 3 * H:] = o
        cs[t] = c
        hs[t] = h
    return hs, gates, cs


def _lstm_direction_backward(X, hs, gates, cs, Wx, Wh, dH, hidden,
                             gWx, gWh, gb):
    L = X.shape[0]
    H = hidden
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(L - 1, -1, -1):
        i = gates[t, :H]
        f = gates[t, H:2 * H]
        g = gates[t, 2 * H:3 * H]
        o = gates[t, 3 * H:]
        c = cs[t]
        c_prev = cs[t - 1] if t > 0 else np.zeros(H)
        h_prev = hs[t - 1] if t > 0 else np.zeros(H)
        tc = np.tanh(c)
        dh = dH[t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        da = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ])
        gWx += np.outer(X[t], da)
        gWh += np.outer(h_prev, da)
        gb += da
        dh_next = Wh @ da
        dc_next = dc * f


def _forward_scores(params: ParamVector, X: np.ndarray, hidden: int):
    h_fwd, gates_f, cs_f = _lstm_direction(
        X, params["Wx_fwd"], params["Wh_fwd"], params["b_fwd"], hidden)
    Xr = X[::-1]
    h_bwd_r, gates_b, cs_b = _lstm_direction(
        Xr, params["Wx_bwd"], params["Wh_bwd"], params["b_bwd"], hidden)
    Hcat = np.concatenate([h_fwd, h_bwd_r[::-1]], axis=1)  # L x 2H
    scores = Hcat @ params["Wp"] + params["bp"]
    cache = (h_fwd, gates_f, cs_f, Xr, h_bwd_r, gates_b, cs_b, Hcat)
    return scores, cache


def nll_and_grad(params: ParamVector, X: np.ndarray, y: np.ndarray,
                 hidden: int, grad: ParamVector | None = None) -> float:
    """CRF negative log-likelihood of the gold path plus, when ``grad`` is
    given, accumulation of the full-model gradient."""
    scores, cache = _forward_scores(params, X, hidden)
    value, dscores, dT = kernels.crf_layer(scores[None], params["T"], y[None],
                                           np.ones((1, len(y)), dtype=bool))
    if grad is None:
        return value

    dscores = dscores[0]
    grad["T"] += dT
    h_fwd, gates_f, cs_f, Xr, h_bwd_r, gates_b, cs_b, Hcat = cache
    grad["Wp"] += Hcat.T @ dscores
    grad["bp"] += dscores.sum(axis=0)
    dHcat = dscores @ params["Wp"].T
    H = hidden
    _lstm_direction_backward(X, h_fwd, gates_f, cs_f,
                             params["Wx_fwd"], params["Wh_fwd"],
                             dHcat[:, :H], H,
                             grad["Wx_fwd"], grad["Wh_fwd"], grad["b_fwd"])
    _lstm_direction_backward(Xr, h_bwd_r, gates_b, cs_b,
                             params["Wx_bwd"], params["Wh_bwd"],
                             dHcat[::-1, H:], H,
                             grad["Wx_bwd"], grad["Wh_bwd"], grad["b_bwd"])
    return value


def lstm_crf_objective(model: LstmCrfModel, X: np.ndarray, y: np.ndarray):
    """Flat-parameter objective for one instance, for gradient checking."""
    template = model.params

    def objective(flat: np.ndarray):
        p = ParamVector(template.shapes)
        p.set_data(flat)
        g = p.zeros_like()
        value = nll_and_grad(p, X, y, model.hidden, g)
        return value, g.data.copy()

    return objective


def lstm_crf_train(train, config: LstmCrfConfig | None = None, dev=None,
                   labels: tuple[str, ...] = BIO_LABELS) -> LstmCrfModel:
    """train/dev: lists of (X: L x d float array, gold label strings).

    The dev split, when given, selects the best epoch by exact-span F1.
    """
    cfg = config or LstmCrfConfig()
    if not train:
        raise ValueError("empty training set")
    d = train[0][0].shape[1]
    model = LstmCrfModel.init(d, cfg.hidden, labels, cfg.seed)
    packed = [(np.asarray(X, dtype=np.float64),
               np.asarray([labels.index(lab) for lab in y], dtype=np.int64))
              for X, y in train if len(y) > 0]

    def loss_and_grad(i, grad):
        X, y = packed[i]
        return nll_and_grad(model.params, X, y, cfg.hidden, grad)

    def dev_score():
        preds = [lstm_crf_decode(model, np.asarray(X, dtype=np.float64)) for X, _ in dev]
        return exact_bio_f1([y for _, y in dev], preds)

    adam_train(model.params, len(packed), loss_and_grad, epochs=cfg.epochs,
               batch_size=cfg.batch_size, lr=cfg.lr, weight_decay=cfg.weight_decay,
               rng=Rng(cfg.seed, stream=29), clip_norm=cfg.clip_norm,
               dev_score=dev_score if dev else None)
    model.hyperparameters = {
        "hidden": cfg.hidden, "epochs": cfg.epochs, "batch_size": cfg.batch_size,
        "lr": cfg.lr, "weight_decay": cfg.weight_decay, "clip_norm": cfg.clip_norm,
        "seed": cfg.seed,
    }
    return model


def lstm_crf_decode(model: LstmCrfModel, X: np.ndarray) -> list[str]:
    if X.shape[0] == 0:
        return []
    scores, _ = _forward_scores(model.params, X, model.hidden)
    path, _ = viterbi(scores, model.params["T"])
    return [model.labels[i] for i in path]
