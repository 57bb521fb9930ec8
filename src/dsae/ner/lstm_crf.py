"""Bidirectional LSTM encoder with a CRF output layer and hand-written
forward/backward passes.

Per-direction hidden size is 64 (128 concatenated), gate order is
(input, forget, cell, output). No dropout anywhere, matching the model
this reimplements. ``Wx`` (2, d, 4H), ``Wh`` (2, H, 4H) and ``b`` (2, 4H)
stack direction 0, which reads each sequence in order, and direction 1,
which reads it reversed within its own length.

Both passes run over a zero-padded batch, after Lample et al. 2016
(arXiv:1603.01360): each step advances both directions of all B sequences
as one (2, B, H) recursion, with the padding after every sequence. One
masked ``kernels.crf_layer`` call scores the batch, and one ``viterbi``
call decodes it. BPTT computes every factor that does not depend on the
recursion up front, so the steps carry only ``dh`` and ``dc``; each weight
gradient is one batched product.
Inputs are row ids (``TokenRows``), gathered per minibatch and decode
batch; training runs ``numeric.optim.adam_train`` with ``nll_and_grad``
as its batch callback, and a dev split selects the epoch by exact-span F1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..annotation import BIO_LABELS, label_ids
from ..embeddings import TokenRows, shared_table
from ..evaluate import exact_bio_f1
from ..numeric import kernels
from ..numeric.optim import adam_train
from ..numeric.params import ParamVector
from ..numeric.rng import Rng
from .crf import viterbi


# sequences per forward pass when decoding many at once
_DECODE_BATCH = 32


def _param_shapes(d: int, hidden: int, n_labels: int) -> dict[str, tuple[int, ...]]:
    return {
        "Wx": (2, d, 4 * hidden),
        "Wh": (2, hidden, 4 * hidden),
        "b": (2, 4 * hidden),
        "Wp": (2 * hidden, n_labels),
        "bp": (n_labels,),
        "T": (n_labels, n_labels),
    }


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
    training: dict | None = None  # the record adam_train returns

    @classmethod
    def init(cls, input_dim: int, hidden: int, labels, seed: int) -> "LstmCrfModel":
        params = ParamVector(_param_shapes(input_dim, hidden, len(labels)))
        rng = Rng(seed, stream=23)
        r = np.sqrt(6.0 / (input_dim + 4 * hidden))
        for k in range(2):  # forward, then backward
            params["Wx"][k] = (rng.uniform((input_dim, 4 * hidden)) * 2 - 1) * r
            for gate in range(4):
                params["Wh"][k, :, gate * hidden:(gate + 1) * hidden] = _orthogonal(hidden, rng)
        params["b"][:, hidden:2 * hidden] = 1.0  # forget-gate bias
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


def _lstm(inp: np.ndarray, Wx, Wh, b):
    """Run both directions over the stacked (2, L, B, d) inputs. Returns
    the time-major (L + 1, 2, B, H) hidden states, whose first row is the
    zero start state, and the caches BPTT needs."""
    _, L, B, d = inp.shape
    H = Wh.shape[1]
    pre = np.matmul(inp.reshape(2, L * B, d), Wx)
    pre += b[:, None]
    # each step reads its pre-activations, then stores its gates over them
    gates = pre.reshape(2, L, B, 4 * H).transpose(1, 0, 2, 3)
    cs = np.zeros((L + 1, 2, B, H))
    tanh_cs = np.empty((L, 2, B, H))
    hs = np.zeros((L + 1, 2, B, H))
    for t in range(L):
        a = np.matmul(hs[t], Wh)
        a += gates[t]
        # the sigmoid 1 / (1 + exp(-a)) of the input, forget and output gates
        gate = np.negative(a)
        np.exp(gate, out=gate)
        gate += 1.0
        np.divide(1.0, gate, out=gate)
        np.tanh(a[..., 2 * H:3 * H], out=gate[..., 2 * H:3 * H])  # cell candidate
        c = cs[t + 1]
        np.multiply(gate[..., H:2 * H], cs[t], out=c)
        c += gate[..., :H] * gate[..., 2 * H:3 * H]
        np.tanh(c, out=tanh_cs[t])
        np.multiply(gate[..., 3 * H:], tanh_cs[t], out=hs[t + 1])
        gates[t] = gate
    return hs, (inp, hs, gates, cs, tanh_cs)


def _lstm_backward(cache, Wh, dH, grad: ParamVector) -> None:
    """BPTT of both directions, given the time-major (L, 2, B, H) gradient
    ``dH`` of the hidden states. Padding follows each sequence and has zero
    ``dH``, so no gradient reaches it or flows out of it."""
    inp, hs, gates, cs, tanh_cs = cache
    _, L, B, d = inp.shape
    H = Wh.shape[1]
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    # d a / d c of the input, forget and cell gates, and d a / d h of the
    # output gate, for the whole sequence at once
    factors = np.empty((L, 2, B, 4, H))
    factors[..., 0, :] = g * i * (1.0 - i)
    factors[..., 1, :] = cs[:-1] * f * (1.0 - f)
    factors[..., 2, :] = i * (1.0 - g * g)
    factors[..., 3, :] = tanh_cs * o * (1.0 - o)
    dc_dh = o * (1.0 - tanh_cs * tanh_cs)
    WhT = Wh.transpose(0, 2, 1)
    dA = np.empty((2, L, B, 4, H))
    dh_next = dc_next = np.zeros((2, B, H))
    for t in range(L - 1, -1, -1):
        dh = dH[t] + dh_next
        dc = dh * dc_dh[t]
        dc += dc_next
        da = dA[:, t]
        np.multiply(dc[:, :, None], factors[t, :, :, :3], out=da[:, :, :3])
        np.multiply(dh, factors[t, :, :, 3], out=da[:, :, 3])
        dh_next = np.matmul(da.reshape(2, B, 4 * H), WhT)
        dc_next = dc * f[t]
    dA = dA.reshape(2, L * B, 4 * H)
    grad["Wx"] += np.matmul(inp.reshape(2, L * B, d).transpose(0, 2, 1), dA)
    # the state each step started from: zero, then the previous output
    h_prev = hs[:-1].transpose(1, 0, 2, 3).reshape(2, L * B, H)
    grad["Wh"] += np.matmul(h_prev.transpose(0, 2, 1), dA)
    grad["b"] += dA.sum(axis=1)


def _forward_scores(params: ParamVector, Xs: list[np.ndarray], hidden: int):
    """Padded (B, L, K) label scores of the sequences ``Xs`` plus the cache
    for backprop. Each sequence's scores fill the first rows of its slice."""
    lengths = np.array([len(X) for X in Xs])
    B, L, H = len(Xs), lengths.max(), hidden
    X = _pad(Xs, L).transpose(1, 0, 2)
    # reverses each sequence within its length, padding in place; self-inverse
    t = np.arange(L)[:, None]
    rev = np.where(t < lengths, lengths - 1 - t, t), np.arange(B)
    inp = np.empty((2, L, B, X.shape[2]))
    inp[0] = X
    inp[1] = X[rev]
    hs, lstm_cache = _lstm(inp, params["Wx"], params["Wh"], params["b"])
    Hcat = np.empty((B, L, 2 * H))
    Hcat[..., :H] = hs[1:, 0].transpose(1, 0, 2)
    Hcat[..., H:] = hs[1:, 1][rev].transpose(1, 0, 2)
    scores = Hcat @ params["Wp"] + params["bp"]
    return scores, (lengths, rev, lstm_cache, Hcat)


def nll_and_grad(params: ParamVector, Xs: list[np.ndarray], ys: list[np.ndarray],
                 hidden: int, grad: ParamVector | None = None) -> float:
    """Summed CRF negative log-likelihood of the gold paths of a batch of
    non-empty sequences plus, when ``grad`` is given, accumulation of the
    full-model gradient."""
    scores, cache = _forward_scores(params, Xs, hidden)
    lengths, rev, lstm_cache, Hcat = cache
    B, L, _ = scores.shape
    mask = np.arange(L) < lengths[:, None]
    y = np.zeros((B, L), dtype=np.int64)
    y[mask] = np.concatenate(ys)
    value, dscores, dT = kernels.crf_layer(scores, params["T"], y, mask)
    if grad is None:
        return value

    grad["T"] += dT
    flat = dscores.reshape(B * L, -1)
    grad["Wp"] += Hcat.reshape(B * L, -1).T @ flat
    grad["bp"] += flat.sum(axis=0)
    dHcat = (dscores @ params["Wp"].T).transpose(1, 0, 2)
    dH = np.empty((L, 2, B, hidden))
    dH[:, 0] = dHcat[..., :hidden]
    dH[:, 1] = dHcat[rev + (slice(hidden, None),)]
    _lstm_backward(lstm_cache, params["Wh"], dH, grad)
    return value


def lstm_crf_train(train, config: LstmCrfConfig | None = None, dev=None) -> LstmCrfModel:
    """train/dev: lists of (TokenRows, gold label strings), all one table.

    The dev split, when given, selects the best epoch by exact-span F1.
    """
    cfg = config or LstmCrfConfig()
    if not train:
        raise ValueError("empty training set")
    table = shared_table([X for X, _ in train + (dev or [])])
    model = LstmCrfModel.init(table.shape[1], cfg.hidden, BIO_LABELS, cfg.seed)
    packed = [(X.rows, np.asarray(label_ids(y, BIO_LABELS), dtype=np.int64))
              for X, y in train if len(y) > 0]

    def loss_and_grad(batch, grad):
        return nll_and_grad(model.params, [table[packed[i][0]] for i in batch],
                            [packed[i][1] for i in batch], cfg.hidden, grad)

    def dev_score():
        return exact_bio_f1([y for _, y in dev], lstm_crf_decode(model, [X for X, _ in dev]))

    model.training = adam_train(
        model.params, len(packed), loss_and_grad, epochs=cfg.epochs,
        batch_size=cfg.batch_size, lr=cfg.lr, weight_decay=cfg.weight_decay,
        rng=Rng(cfg.seed, stream=29), clip_norm=cfg.clip_norm,
        dev_score=dev_score if dev else None)
    model.hyperparameters = asdict(cfg)
    return model


def lstm_crf_decode(model: LstmCrfModel, inputs: list[TokenRows]) -> list[list[str]]:
    """Best label sequence of each input, scored and decoded _DECODE_BATCH at a time."""
    out: list[list[str]] = [[] for _ in inputs]
    live = [k for k, X in enumerate(inputs) if len(X)]
    for lo in range(0, len(live), _DECODE_BATCH):
        chunk = live[lo:lo + _DECODE_BATCH]
        table = shared_table([inputs[k] for k in chunk])
        Xs = [table[inputs[k].rows] for k in chunk]
        scores, (lengths, *_) = _forward_scores(model.params, Xs, model.hidden)
        paths, _ = viterbi(scores, model.params["T"], lengths)
        for k, path in zip(chunk, paths):
            out[k] = [model.labels[i] for i in path]
    return out
