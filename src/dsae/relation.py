"""Relation classification between supplement and event mentions.

Instances are encoded as token vectors with sentinel entity markers and
two relative-position sequences; the classifier is a single convolutional
layer (256 filters, width 3, ReLU) with max-over-time pooling, dropout,
and a softmax over {NoRelation, Indication, AdverseEvent}. Label ties
break toward NoRelation (first index). Entity markers, position
embeddings and inverse-frequency class weighting are always on.

The forward and backward passes take a batch of instances padded to its
longest, after the position-feature CNN of Zeng et al. 2014 (COLING): one
window matrix product, max-over-time pooling that never picks a padding
row, one (B, 256) block of dropout draws per batch (the draws the B
instances would make one after another), and the pooled gradient routed
back through a (B, L, 256) matrix that holds it at each filter's argmax.
Training runs the shared minibatch Adam loop (``numeric.optim.adam_train``),
whose batch callback is ``cnn_loss_and_grad``; a dev split selects the
epoch by macro per-label F1. ``classify_pairs`` scores all of a document's
pairs in one batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .annotation import EVENT_TYPES, RELATION_LABELS, RelationInstance
from .embeddings import EmbeddingTable
from .evaluate import macro_f1
from .ner.predict import doc_matrix
from .normalize import NormalizedDoc
from .numeric.optim import adam_train
from .numeric.params import ParamVector
from .numeric.rng import Rng

logger = logging.getLogger(__name__)

MARKERS = ("<h>", "</h>", "<t>", "</t>")
POS_DIM = 5
N_FILTERS = 256
KERNEL = 3
# instances per forward pass when scoring many at once
_SCORE_BATCH = 32


@dataclass
class EncodedInstance:
    tokens: np.ndarray        # L x d word vectors (markers filled later)
    marker_ids: np.ndarray    # L ints, -1 for real tokens, 0..3 for markers
    pos_head: np.ndarray      # L ints in [0, 2*max_len]
    pos_tail: np.ndarray      # L ints in [0, 2*max_len]
    label: int | None = None
    doc_id: str = ""
    head_span: tuple[int, int] = (0, 0)
    tail_span: tuple[int, int] = (0, 0)


def _relative(index: np.ndarray, spans, max_len: int) -> np.ndarray:
    """Offsets of token indices from each span [start, end), one row per
    span: 0 inside it, clamped to +-max_len and shifted by max_len."""
    starts = np.array([[start] for start, _ in spans])
    lasts = np.array([[end - 1] for _, end in spans])
    rel = np.minimum(index - starts, 0) + np.maximum(index - lasts, 0)
    return np.minimum(np.maximum(rel, -max_len), max_len) + max_len


def encode_instance(instance: RelationInstance, doc: NormalizedDoc,
                    embeddings: EmbeddingTable, max_len: int = 64) -> EncodedInstance:
    return _encode(instance, doc_matrix(doc, embeddings), max_len)


def _encode(instance: RelationInstance, rows: np.ndarray, max_len: int) -> EncodedInstance:
    """Encode one instance of a document whose token rows (word vector plus
    OOV flag) are ``rows``."""
    n = len(rows)
    hs, he = instance.head.token_start, instance.head.token_end
    ts, te = instance.tail.token_start, instance.tail.token_end
    if he > n or te > n:
        raise ValueError("entity span outside the document")

    lo, hi = 0, n
    budget = max_len - 4  # room for the four markers
    if n > budget:
        # truncation window centered on the two entities
        span_lo = min(hs, ts)
        span_hi = max(he, te)
        mid = (span_lo + span_hi) // 2
        lo = max(0, min(mid - budget // 2, n - budget))
        hi = lo + budget
        lo = min(lo, span_lo)
        hi = max(hi, span_hi)
        hi = min(hi, lo + budget)
        lo = max(0, hi - budget)

    # (index into MARKERS, or -1 for a token; pre-marker token index)
    items: list[tuple[int, int]] = []
    for idx in range(lo, hi):
        if idx == hs:
            items.append((0, hs))
        if idx == ts:
            items.append((2, ts))
        items.append((-1, idx))
        if idx == he - 1:
            items.append((1, he - 1))
        if idx == te - 1:
            items.append((3, te - 1))

    marker_ids = np.array([marker for marker, _ in items], dtype=np.int64)
    index = np.array([idx for _, idx in items], dtype=np.int64)
    real = marker_ids < 0
    tokens = np.zeros((len(items), rows.shape[1]))
    tokens[real] = rows[index[real]]
    pos_head, pos_tail = _relative(index, [(hs, he), (ts, te)], max_len)
    return EncodedInstance(
        tokens=tokens, marker_ids=marker_ids, pos_head=pos_head, pos_tail=pos_tail,
        label=RELATION_LABELS.index(instance.label) if instance.label else None,
        doc_id=instance.doc_id, head_span=(hs, he), tail_span=(ts, te),
    )


def _cnn_shapes(d: int, max_len: int) -> dict[str, tuple[int, ...]]:
    width = d + 2 * POS_DIM
    return {
        "markers": (len(MARKERS), d),
        "pos_head": (2 * max_len + 1, POS_DIM),
        "pos_tail": (2 * max_len + 1, POS_DIM),
        "conv_W": (N_FILTERS, KERNEL * width),
        "conv_b": (N_FILTERS,),
        "out_W": (len(RELATION_LABELS), N_FILTERS),
        "out_b": (len(RELATION_LABELS),),
    }


@dataclass
class CnnReConfig:
    max_len: int = 64
    dropout: float = 0.2
    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-4
    weight_decay: float = 1e-5
    seed: int = 0


@dataclass
class CnnReModel:
    input_dim: int  # word-vector dim + oov flag
    max_len: int
    params: ParamVector
    dropout: float = 0.2
    labels: tuple[str, ...] = RELATION_LABELS
    hyperparameters: dict = field(default_factory=dict)

    @classmethod
    def init(cls, input_dim: int, cfg: CnnReConfig) -> "CnnReModel":
        params = ParamVector(_cnn_shapes(input_dim, cfg.max_len))
        rng = Rng(cfg.seed, stream=31)
        width = input_dim + 2 * POS_DIM
        params["markers"][:] = rng.normal((len(MARKERS), input_dim), scale=0.1)
        params["pos_head"][:] = rng.normal(params["pos_head"].shape, scale=0.1)
        params["pos_tail"][:] = rng.normal(params["pos_tail"].shape, scale=0.1)
        r = np.sqrt(6.0 / (KERNEL * width + N_FILTERS))
        params["conv_W"][:] = (rng.uniform(params["conv_W"].shape) * 2 - 1) * r
        r = np.sqrt(6.0 / (N_FILTERS + len(RELATION_LABELS)))
        params["out_W"][:] = (rng.uniform(params["out_W"].shape) * 2 - 1) * r
        return cls(input_dim=input_dim, max_len=cfg.max_len, params=params,
                   dropout=cfg.dropout)


def _forward(model: CnnReModel, encs: list[EncodedInstance], train_mode: bool = False,
             rng: Rng | None = None):
    """(B, 3) label probabilities of a batch of instances plus a cache for
    backprop. With dropout on, one (B, 256) block of ``rng`` draws is used,
    row b for instance b."""
    p = model.params
    d = model.input_dim
    lengths = [len(enc.marker_ids) for enc in encs]
    B, L = len(encs), max(lengths)
    width = d + 2 * POS_DIM
    # the input rows of every instance, one after another: token or marker
    # vector plus the two position vectors
    marker_ids = _joined(encs, "marker_ids")
    pos_head = _joined(encs, "pos_head")
    pos_tail = _joined(encs, "pos_tail")
    is_marker = marker_ids >= 0
    x = np.empty((len(marker_ids), width))
    x[:, :d] = _joined(encs, "tokens")
    x[is_marker, :d] = p["markers"][marker_ids[is_marker]]
    x[:, d:d + POS_DIM] = p["pos_head"][pos_head]
    x[:, d + POS_DIM:] = p["pos_tail"][pos_tail]
    # same-padding windows of width 3 over each instance's rows; an instance
    # shorter than L is followed by zero rows, and ``real`` marks its own
    if len(x) == B * L:
        real = None
        x = x.reshape(B, L, width)
    else:
        real = np.arange(L) < np.array(lengths)[:, None]
        padded = np.zeros((B, L, width))
        padded[real] = x
        x = padded
    windows = np.zeros((B, L, KERNEL * width))
    windows[:, 1:, :width] = x[:, :-1]
    windows[:, :, width:2 * width] = x
    windows[:, :-1, 2 * width:] = x[:, 1:]
    relu = windows.reshape(B * L, -1) @ p["conv_W"].T + p["conv_b"]
    np.maximum(relu, 0.0, out=relu)
    relu = relu.reshape(B, L, N_FILTERS)
    if real is not None:
        # padding never wins the max, so ties still go to the first real row
        np.copyto(relu, -1.0, where=~real[..., None])
    argmax = np.argmax(relu, axis=1)
    pooled = relu.max(axis=1)
    if train_mode and model.dropout > 0.0:
        if rng is None:
            raise ValueError("train_mode dropout needs an Rng")
        keep = (rng.uniform((B, N_FILTERS)) >= model.dropout).astype(np.float64)
        dropped = pooled * keep / (1.0 - model.dropout)
    else:
        keep = None
        dropped = pooled
    logits = dropped @ p["out_W"].T + p["out_b"]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    cache = (marker_ids, is_marker, pos_head, pos_tail, real, windows, argmax,
             pooled, keep, dropped)
    return probs, cache


def _joined(encs: list[EncodedInstance], field: str) -> np.ndarray:
    """The instances' arrays ``field``, one after another."""
    if len(encs) == 1:
        return getattr(encs[0], field)
    return np.concatenate([getattr(enc, field) for enc in encs])


def _backward(model: CnnReModel, cache, dlogits: np.ndarray, grad: ParamVector) -> None:
    p = model.params
    (marker_ids, is_marker, pos_head, pos_tail, real, windows, argmax,
     pooled, keep, dropped) = cache
    B, L, _ = windows.shape
    d = model.input_dim
    width = d + 2 * POS_DIM
    grad["out_W"] += dlogits.T @ dropped
    grad["out_b"] += dlogits.sum(axis=0)
    ddropped = dlogits @ p["out_W"]
    dpooled = ddropped * keep / (1.0 - model.dropout) if keep is not None else ddropped
    dpooled = dpooled * (pooled > 0.0)  # ReLU at the pooled positions
    grad["conv_b"] += dpooled.sum(axis=0)
    # route through the argmax positions: dpooled at (argmax, filter)
    routed = np.zeros((B, L, N_FILTERS))
    np.put_along_axis(routed, argmax[:, None], dpooled[:, None], axis=1)
    grad["conv_W"] += routed.reshape(B * L, N_FILTERS).T @ windows.reshape(B * L, -1)
    dwindows = routed @ p["conv_W"]
    # windows -> x rows (window slot k covers x row t+k-1)
    dx = np.zeros((B, L, width))
    dx[:, :L - 1] += dwindows[:, 1:, 0:width]
    dx += dwindows[:, :, width:2 * width]
    dx[:, 1:] += dwindows[:, :L - 1, 2 * width:]
    dx = dx.reshape(B * L, width) if real is None else dx[real]
    _add_rows(grad["markers"], marker_ids[is_marker], dx[is_marker, :d])
    _add_rows(grad["pos_head"], pos_head, dx[:, d:d + POS_DIM])
    _add_rows(grad["pos_tail"], pos_tail, dx[:, d + POS_DIM:])


def _add_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """table[ids[k]] += rows[k] for every k."""
    n, k = table.shape
    flat = (ids[:, None] * k + np.arange(k)).ravel()
    table += np.bincount(flat, weights=rows.ravel(), minlength=n * k).reshape(n, k)


def cnn_forward(model: CnnReModel, enc: EncodedInstance):
    """Label probabilities of one instance plus the forward cache of its
    batch of one."""
    probs, cache = _forward(model, [enc])
    return probs[0], cache


def _probabilities(model: CnnReModel, encs: list[EncodedInstance]) -> np.ndarray:
    """(N, 3) label probabilities of N >= 1 instances, _SCORE_BATCH per
    forward pass."""
    return np.concatenate([_forward(model, encs[lo:lo + _SCORE_BATCH])[0]
                           for lo in range(0, len(encs), _SCORE_BATCH)])


def cnn_loss_and_grad(model: CnnReModel, encs: list[EncodedInstance], weights,
                      grad: ParamVector | None, train_mode: bool = False,
                      rng: Rng | None = None) -> float:
    """Summed weighted cross-entropy of a batch of labelled instances
    (``weights[b]`` scales instance b's term) plus, when ``grad`` is given,
    accumulation of its gradient."""
    probs, cache = _forward(model, encs, train_mode=train_mode, rng=rng)
    labels = [enc.label for enc in encs]
    loss = 0.0
    for row, label, weight in zip(probs.tolist(), labels, weights):
        loss -= weight * math.log(max(row[label], 1e-300))
    if grad is not None:
        rows = np.arange(len(encs))
        weights = np.asarray(weights, dtype=np.float64)
        dlogits = weights[:, None] * probs
        dlogits[rows, labels] -= weights
        _backward(model, cache, dlogits, grad)
    return loss


def class_weights(labels: list[int]) -> np.ndarray:
    """Inverse-frequency weights, normalized so a balanced set gives 1."""
    n_labels = len(RELATION_LABELS)
    counts = np.bincount(labels, minlength=n_labels).astype(np.float64)
    missing = [RELATION_LABELS[k] for k in range(n_labels) if counts[k] == 0]
    if missing:
        logger.warning("labels absent from the training set: %s", ", ".join(missing))
    weights = np.ones(n_labels)
    present = counts > 0
    weights[present] = counts[present].sum() / (present.sum() * counts[present])
    return weights


def cnn_train(instances: list[EncodedInstance], config: CnnReConfig | None = None,
              dev: list[EncodedInstance] | None = None) -> CnnReModel:
    cfg = config or CnnReConfig()
    if not instances:
        raise ValueError("empty instance set")
    d = instances[0].tokens.shape[1]
    model = CnnReModel.init(d, cfg)
    weights = class_weights([enc.label for enc in instances])
    drop_rng = Rng(cfg.seed, stream=41)

    def loss_and_grad(batch, grad):
        encs = [instances[i] for i in batch]
        return cnn_loss_and_grad(model, encs, weights[[enc.label for enc in encs]],
                                 grad, train_mode=True, rng=drop_rng)

    def dev_score():
        return macro_f1([enc.label for enc in dev], _probabilities(model, dev))

    adam_train(model.params, len(instances), loss_and_grad, epochs=cfg.epochs,
               batch_size=cfg.batch_size, lr=cfg.lr, weight_decay=cfg.weight_decay,
               rng=Rng(cfg.seed, stream=37), dev_score=dev_score if dev else None)
    model.hyperparameters = {
        "max_len": cfg.max_len, "dropout": cfg.dropout, "epochs": cfg.epochs,
        "batch_size": cfg.batch_size, "lr": cfg.lr, "weight_decay": cfg.weight_decay,
        "seed": cfg.seed,
    }
    return model


def classify_pairs(doc: NormalizedDoc, entities, model: CnnReModel,
                   embeddings: EmbeddingTable) -> list[RelationInstance]:
    """Classify every (Supplement, event) pair in one batch; NoRelation
    predictions are dropped from the result."""
    pairs = [(head, tail) for head in entities if head.etype == "Supplement"
             for tail in entities if tail.etype in EVENT_TYPES]
    if not pairs:
        return []
    rows = doc_matrix(doc, embeddings)
    encs = [_encode(RelationInstance(doc.doc_id, head, tail, "NoRelation"), rows,
                    model.max_len) for head, tail in pairs]
    # first max: NoRelation wins ties
    preds = np.argmax(_probabilities(model, encs), axis=1)
    return [RelationInstance(doc.doc_id, head, tail, model.labels[k])
            for (head, tail), k in zip(pairs, preds) if model.labels[k] != "NoRelation"]


def cnn_objective(model: CnnReModel, enc: EncodedInstance, weight: float = 1.0):
    """Flat-parameter objective (dropout off) for gradient checking."""
    template = model.params

    def objective(flat: np.ndarray):
        p = ParamVector(template.shapes)
        p.set_data(flat)
        m = CnnReModel(input_dim=model.input_dim, max_len=model.max_len, params=p,
                       dropout=0.0)
        g = p.zeros_like()
        value = cnn_loss_and_grad(m, [enc], [weight], g)
        return value, g.data.copy()

    return objective
