"""Relation classification between supplement and event mentions.

Instances are encoded as token vectors with sentinel entity markers and
two relative-position sequences; the classifier is a single convolutional
layer (256 filters, width 3, ReLU) with max-over-time pooling, dropout,
and a softmax over {NoRelation, Indication, AdverseEvent}. Label ties
break toward NoRelation (first index). Entity markers, position
embeddings and inverse-frequency class weighting are always on. Training
runs the shared minibatch Adam loop (``numeric.optim.adam_train``); a dev
split selects the epoch by macro per-label F1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .annotation import EVENT_TYPES, RELATION_LABELS, RelationInstance
from .embeddings import EmbeddingTable
from .evaluate import macro_f1
from .normalize import NormalizedDoc
from .numeric.optim import adam_train
from .numeric.params import ParamVector
from .numeric.rng import Rng

logger = logging.getLogger(__name__)

MARKERS = ("<h>", "</h>", "<t>", "</t>")
POS_DIM = 5
N_FILTERS = 256
KERNEL = 3


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


def _relative(idx: int, start: int, end: int, max_len: int) -> int:
    if start <= idx < end:
        rel = 0
    elif idx < start:
        rel = idx - start
    else:
        rel = idx - (end - 1)
    return max(-max_len, min(max_len, rel)) + max_len


def encode_instance(instance: RelationInstance, doc: NormalizedDoc,
                    embeddings: EmbeddingTable, max_len: int = 64) -> EncodedInstance:
    n = len(doc.tokens)
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

    items: list[tuple[str | None, int, int]] = []  # (marker, pre-marker idx, kind)
    for idx in range(lo, hi):
        if idx == hs:
            items.append(("<h>", hs, -1))
        if idx == ts:
            items.append(("<t>", ts, -1))
        items.append((None, idx, -1))
        if idx == he - 1:
            items.append(("</h>", he - 1, -1))
        if idx == te - 1:
            items.append(("</t>", te - 1, -1))

    d = embeddings.dim + 1
    L = len(items)
    tokens = np.zeros((L, d))
    marker_ids = np.full(L, -1, dtype=np.int64)
    pos_head = np.empty(L, dtype=np.int64)
    pos_tail = np.empty(L, dtype=np.int64)
    for row, (marker, idx, _) in enumerate(items):
        if marker is None:
            vec, oov = embeddings.lookup(doc.tokens[idx].surface)
            tokens[row, :embeddings.dim] = vec
            tokens[row, -1] = 1.0 if oov else 0.0
        else:
            marker_ids[row] = MARKERS.index(marker)
        pos_head[row] = _relative(idx, hs, he, max_len)
        pos_tail[row] = _relative(idx, ts, te, max_len)
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


def _build_input(model: CnnReModel, enc: EncodedInstance):
    """L x (d + 2p) input rows: token/marker vector plus position vectors."""
    p = model.params
    L = enc.tokens.shape[0]
    x = np.empty((L, model.input_dim + 2 * POS_DIM))
    x[:, :model.input_dim] = enc.tokens
    mask = enc.marker_ids >= 0
    x[mask, :model.input_dim] = p["markers"][enc.marker_ids[mask]]
    x[:, model.input_dim:model.input_dim + POS_DIM] = p["pos_head"][enc.pos_head]
    x[:, model.input_dim + POS_DIM:] = p["pos_tail"][enc.pos_tail]
    return x


def cnn_forward(model: CnnReModel, enc: EncodedInstance, train_mode: bool = False,
                rng: Rng | None = None):
    """Probabilities over the three labels plus a cache for backprop."""
    p = model.params
    x = _build_input(model, enc)
    L, width = x.shape
    # same-padding windows of width 3
    padded = np.zeros((L + 2, width))
    padded[1:L + 1] = x
    windows = np.concatenate([padded[:L], padded[1:L + 1], padded[2:L + 2]], axis=1)
    z = windows @ p["conv_W"].T + p["conv_b"]
    relu = np.maximum(z, 0.0)
    argmax = np.argmax(relu, axis=0)
    pooled = relu[argmax, np.arange(N_FILTERS)]
    if train_mode and model.dropout > 0.0:
        if rng is None:
            raise ValueError("train_mode dropout needs an Rng")
        keep = (rng.uniform(N_FILTERS) >= model.dropout).astype(np.float64)
        dropped = pooled * keep / (1.0 - model.dropout)
    else:
        keep = None
        dropped = pooled
    logits = p["out_W"] @ dropped + p["out_b"]
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    cache = (x, windows, z, argmax, pooled, keep, dropped, probs)
    return probs, cache


def cnn_backward(model: CnnReModel, enc: EncodedInstance, cache, dlogits: np.ndarray,
                 grad: ParamVector) -> None:
    p = model.params
    x, windows, z, argmax, pooled, keep, dropped, probs = cache
    L, width = x.shape
    grad["out_W"] += np.outer(dlogits, dropped)
    grad["out_b"] += dlogits
    ddropped = p["out_W"].T @ dlogits
    dpooled = ddropped * keep / (1.0 - model.dropout) if keep is not None else ddropped
    dpooled = dpooled * (pooled > 0.0)  # ReLU at the pooled positions
    # route through the argmax positions
    grad["conv_b"] += dpooled
    grad["conv_W"] += dpooled[:, None] * windows[argmax]
    dwindows = np.zeros_like(windows)
    np.add.at(dwindows, argmax, dpooled[:, None] * p["conv_W"])
    # windows -> padded rows -> x rows (window slot k covers x row t+k-1)
    dx = np.zeros_like(x)
    dx[:L - 1] += dwindows[1:, 0:width]
    dx += dwindows[:, width:2 * width]
    dx[1:] += dwindows[:L - 1, 2 * width:]
    mask = enc.marker_ids >= 0
    np.add.at(grad["markers"], enc.marker_ids[mask], dx[mask, :model.input_dim])
    np.add.at(grad["pos_head"], enc.pos_head, dx[:, model.input_dim:model.input_dim + POS_DIM])
    np.add.at(grad["pos_tail"], enc.pos_tail, dx[:, model.input_dim + POS_DIM:])


def cnn_loss_and_grad(model: CnnReModel, enc: EncodedInstance, weight: float,
                      grad: ParamVector | None, train_mode: bool = False,
                      rng: Rng | None = None) -> float:
    probs, cache = cnn_forward(model, enc, train_mode=train_mode, rng=rng)
    loss = -weight * float(np.log(max(probs[enc.label], 1e-300)))
    if grad is not None:
        dlogits = weight * probs.copy()
        dlogits[enc.label] -= weight
        cnn_backward(model, enc, cache, dlogits, grad)
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

    def loss_and_grad(i, grad):
        enc = instances[i]
        return cnn_loss_and_grad(model, enc, float(weights[enc.label]),
                                 grad, train_mode=True, rng=drop_rng)

    def dev_score():
        return macro_f1([enc.label for enc in dev],
                        [cnn_forward(model, enc)[0] for enc in dev])

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
    """Classify every (Supplement, event) pair; NoRelation predictions are
    dropped from the result."""
    out = []
    for head in entities:
        if head.etype != "Supplement":
            continue
        for tail in entities:
            if tail.etype not in EVENT_TYPES:
                continue
            probe = RelationInstance(doc.doc_id, head, tail, "NoRelation")
            enc = encode_instance(probe, doc, embeddings, model.max_len)
            probs, _ = cnn_forward(model, enc)
            pred = int(np.argmax(probs))  # first max: NoRelation wins ties
            if model.labels[pred] != "NoRelation":
                out.append(RelationInstance(doc.doc_id, head, tail, model.labels[pred]))
    return out


def cnn_objective(model: CnnReModel, enc: EncodedInstance, weight: float = 1.0):
    """Flat-parameter objective (dropout off) for gradient checking."""
    template = model.params

    def objective(flat: np.ndarray):
        p = ParamVector(template.shapes)
        p.set_data(flat)
        m = CnnReModel(input_dim=model.input_dim, max_len=model.max_len, params=p,
                       dropout=0.0)
        g = p.zeros_like()
        value = cnn_loss_and_grad(m, enc, weight, g)
        return value, g.data.copy()

    return objective
