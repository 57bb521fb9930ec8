"""Bidirectional LSTM encoder with a CRF output layer and hand-written
forward/backward passes.

Per-direction hidden size is 64 (128 concatenated), gate order is
(input, forget, cell, output). No dropout anywhere, matching the model
this reimplements.

Both passes run over a zero-padded (B, L, d) batch of sequences, after
the minibatched BiLSTM-CRF of Lample et al. 2016 (arXiv:1603.01360). Each
direction steps all B sequences at once; the backward one reads each
sequence reversed within its own length, so in both directions the padding
comes after a sequence and never reaches it. The B score matrices go
through one masked ``kernels.crf_layer`` call, and BPTT stores every
step's gate gradients so that each weight gradient is one matrix product.
Training runs the shared minibatch Adam loop (``numeric.optim.adam_train``)
with gradient-norm clipping, whose batch callback is ``nll_and_grad``; a
dev split selects the epoch by exact-span F1. Dev scoring and
``lstm_crf_decode`` use the same padded forward pass.
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


# sequences per forward pass when decoding many at once
_DECODE_BATCH = 32


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


def _pad(seqs: list[np.ndarray], L: int) -> np.ndarray:
    """Zero-padded (B, L, d) batch of (L_b, d) arrays."""
    out = np.zeros((len(seqs), L, seqs[0].shape[1]))
    for row, X in zip(out, seqs):
        row[:len(X)] = X
    return out


def _reverse_within(A: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Each row of the (B, L, ...) batch A reversed within its sequence's
    length, zero in the padding."""
    out = np.zeros_like(A)
    for b, n in enumerate(lengths):
        out[b, :n] = A[b, n - 1::-1]
    return out


def _lstm_direction(X: np.ndarray, Wx, Wh, b, hidden: int):
    """Run one direction over the time-ordered (B, L, d) batch X; returns the
    (B, L, H) hidden states plus the caches needed for BPTT."""
    B, L, _ = X.shape
    H = hidden
    gates = np.empty((B, L, 4 * H))
    cs = np.empty((B, L, H))
    tanh_cs = np.empty((B, L, H))
    hs = np.empty((B, L, H))
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    pre = X @ Wx + b
    for t in range(L):
        a = pre[:, t] + h @ Wh
        gate = gates[:, t]
        gate[:] = _sigmoid(a)  # input, forget, output gates
        gate[:, 2 * H:3 * H] = np.tanh(a[:, 2 * H:3 * H])  # cell candidate
        c = gate[:, H:2 * H] * c + gate[:, :H] * gate[:, 2 * H:3 * H]
        tc = np.tanh(c)
        h = gate[:, 3 * H:] * tc
        cs[:, t] = c
        tanh_cs[:, t] = tc
        hs[:, t] = h
    return hs, (gates, cs, tanh_cs)


def _lstm_direction_backward(X, hs, cache, Wh, dH, hidden, gWx, gWh, gb):
    """BPTT over the (B, L) batch. Padding follows each sequence and has
    zero ``dH``, so no gradient reaches it or flows out of it."""
    gates, cs, tanh_cs = cache
    B, L, d = X.shape
    H = hidden
    dA = np.empty((B, L, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(L - 1, -1, -1):
        gate = gates[:, t]
        i = gate[:, :H]
        f = gate[:, H:2 * H]
        g = gate[:, 2 * H:3 * H]
        o = gate[:, 3 * H:]
        tc = tanh_cs[:, t]
        dh = dH[:, t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        da = dA[:, t]
        da[:, :H] = dc * g * i * (1.0 - i)
        c_prev = cs[:, t - 1] if t > 0 else 0.0
        da[:, H:2 * H] = dc * c_prev * f * (1.0 - f)
        da[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
        da[:, 3 * H:] = do * o * (1.0 - o)
        dh_next = da @ Wh.T
        dc_next = dc * f
    dA = dA.reshape(B * L, 4 * H)
    gWx += X.reshape(B * L, d).T @ dA
    # the state each step started from: zero, then the previous output
    h_prev = np.zeros((B, L, H))
    h_prev[:, 1:] = hs[:, :-1]
    gWh += h_prev.reshape(B * L, H).T @ dA
    gb += dA.sum(axis=0)


def _forward_scores(params: ParamVector, Xs: list[np.ndarray], hidden: int):
    """Padded (B, L, K) label scores of the sequences ``Xs`` plus the cache
    for backprop. Each sequence's scores fill the first rows of its slice."""
    lengths = [len(X) for X in Xs]
    L = max(lengths)
    X = _pad(Xs, L)
    Xr = _reverse_within(X, lengths)
    h_fwd, cache_f = _lstm_direction(
        X, params["Wx_fwd"], params["Wh_fwd"], params["b_fwd"], hidden)
    h_bwd_r, cache_b = _lstm_direction(
        Xr, params["Wx_bwd"], params["Wh_bwd"], params["b_bwd"], hidden)
    Hcat = np.empty((len(Xs), L, 2 * hidden))
    Hcat[..., :hidden] = h_fwd
    Hcat[..., hidden:] = _reverse_within(h_bwd_r, lengths)
    scores = Hcat @ params["Wp"] + params["bp"]
    cache = (lengths, X, h_fwd, cache_f, Xr, h_bwd_r, cache_b, Hcat)
    return scores, cache


def nll_and_grad(params: ParamVector, Xs: list[np.ndarray], ys: list[np.ndarray],
                 hidden: int, grad: ParamVector | None = None) -> float:
    """Summed CRF negative log-likelihood of the gold paths of a batch of
    non-empty sequences plus, when ``grad`` is given, accumulation of the
    full-model gradient."""
    scores, cache = _forward_scores(params, Xs, hidden)
    lengths, X, h_fwd, cache_f, Xr, h_bwd_r, cache_b, Hcat = cache
    B, L, _ = scores.shape
    mask = np.arange(L) < np.asarray(lengths)[:, None]
    y = np.zeros((B, L), dtype=np.int64)
    y[mask] = np.concatenate(ys)
    value, dscores, dT = kernels.crf_layer(scores, params["T"], y, mask)
    if grad is None:
        return value

    grad["T"] += dT
    flat = dscores.reshape(B * L, -1)
    grad["Wp"] += Hcat.reshape(B * L, -1).T @ flat
    grad["bp"] += flat.sum(axis=0)
    dHcat = dscores @ params["Wp"].T
    H = hidden
    _lstm_direction_backward(X, h_fwd, cache_f, params["Wh_fwd"], dHcat[..., :H], H,
                             grad["Wx_fwd"], grad["Wh_fwd"], grad["b_fwd"])
    _lstm_direction_backward(Xr, h_bwd_r, cache_b, params["Wh_bwd"],
                             _reverse_within(dHcat[..., H:], lengths), H,
                             grad["Wx_bwd"], grad["Wh_bwd"], grad["b_bwd"])
    return value


def lstm_crf_objective(model: LstmCrfModel, X: np.ndarray, y: np.ndarray):
    """Flat-parameter objective for one instance, for gradient checking."""
    template = model.params

    def objective(flat: np.ndarray):
        p = ParamVector(template.shapes)
        p.set_data(flat)
        g = p.zeros_like()
        value = nll_and_grad(p, [X], [y], model.hidden, g)
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

    def loss_and_grad(batch, grad):
        return nll_and_grad(model.params, [packed[i][0] for i in batch],
                            [packed[i][1] for i in batch], cfg.hidden, grad)

    def dev_score():
        preds = _decode_all(model, [np.asarray(X, dtype=np.float64) for X, _ in dev])
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
    return _decode_all(model, [X])[0]


def _decode_all(model: LstmCrfModel, Xs: list[np.ndarray]) -> list[list[str]]:
    """Best label sequence of each input, scored _DECODE_BATCH at a time."""
    out: list[list[str]] = [[] for _ in Xs]
    live = [k for k, X in enumerate(Xs) if len(X)]
    for lo in range(0, len(live), _DECODE_BATCH):
        chunk = live[lo:lo + _DECODE_BATCH]
        scores, _ = _forward_scores(model.params, [Xs[k] for k in chunk], model.hidden)
        for k, row in zip(chunk, scores):
            path, _ = viterbi(row[:len(Xs[k])], model.params["T"])
            out[k] = [model.labels[i] for i in path]
    return out
