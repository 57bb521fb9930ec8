"""Relation classification between supplement and event mentions.

An instance is, like every model input, a ``TokenRows`` (row ids into the
embedding table's shared row matrix, never a copy of its rows), plus
sentinel entity markers and two relative-position sequences. The
classifier is a single convolutional layer (256 filters, width 3, ReLU)
with max-over-time pooling, dropout, and a softmax over {NoRelation,
Indication, AdverseEvent}. Label ties break toward NoRelation (first
index). Entity markers, position embeddings and inverse-frequency class
weighting are always on.

The forward and backward passes take a batch of instances padded to its
longest, after the position-feature CNN of Zeng et al. 2014 (COLING): one
window matrix product, max-over-time pooling that never picks a padding
row (padding holds -1), and one (B, 256) block of dropout draws per batch
(the draws the B instances would make one after another). Both passes
write into a workspace of ``np.empty`` buffers: ``cnn_train`` builds one
for all its training and dev-scoring batches, and any other call builds
one for its own batch. The forward pass fills the workspace's input rows with one
gather of the table at the batch's row numbers. The backward pass turns
the conv output in place into the routed gradient: each filter's pooled
gradient goes to the rows that equal its max, and only to the first of
them when several do, as an argmax would route it. Word vectors are
frozen, so the gradient is carried back onto the input rows only where it
reaches parameters: the position columns of every row and the word
columns of the marker rows.
Training runs the shared minibatch Adam loop (``numeric.optim.adam_train``),
whose batch callback is ``cnn_loss_and_grad``; a dev split selects the
epoch by macro per-label F1. ``classify_pairs`` scores all of a document's
pairs in one batch.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .annotation import RELATION_LABELS, RelationInstance, candidate_pairs
from .embeddings import EmbeddingTable, TokenRows, shared_table
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
# instances per forward pass when scoring many at once
_SCORE_BATCH = 32


@dataclass
class EncodedInstance(TokenRows):
    """L rows of ``table``: the kept tokens', and any row at a marker."""
    marker_ids: np.ndarray    # L ints, -1 for real tokens, 0..3 for markers
    pos_head: np.ndarray      # L ints in [0, 2*max_len]
    pos_tail: np.ndarray      # L ints in [0, 2*max_len]
    label: int | None = None


def _relative(index: np.ndarray, spans, max_len: int) -> np.ndarray:
    """Offsets of token indices from each span [start, end), one row per
    span: 0 inside it, clamped to +-max_len and shifted by max_len."""
    starts = np.array([[start] for start, _ in spans])
    lasts = np.array([[end - 1] for _, end in spans])
    rel = np.minimum(index - starts, 0) + np.maximum(index - lasts, 0)
    return np.minimum(np.maximum(rel, -max_len), max_len) + max_len


def encode_instance(instance: RelationInstance, doc: NormalizedDoc,
                    embeddings: EmbeddingTable, max_len: int = 64) -> EncodedInstance:
    return _encode(instance, embeddings.tokens(doc.surfaces()), max_len)


def _encode(instance: RelationInstance, tokens: TokenRows, max_len: int) -> EncodedInstance:
    """Encode one instance of the document ``tokens`` in at most
    ``max_len`` rows: up to ``max_len - 4`` tokens and the four markers,
    each once."""
    n = len(tokens)
    hs, he = instance.head.token_start, instance.head.token_end
    ts, te = instance.tail.token_start, instance.tail.token_end
    if he > n or te > n:
        raise ValueError("entity span outside the document")

    lo, hi = 0, n
    budget = max_len - 4  # room for the four markers
    kept = None  # every token of lo..hi - 1
    span_lo = min(hs, ts)
    span_hi = max(he, te)
    if span_hi - span_lo > budget:
        # no window holds both entities: keep the tokens of both, their
        # edges first, then the tokens between them nearest an entity
        lo, hi = span_lo, span_hi
        spans = ((hs, he), (ts, te))

        def rank(idx: int) -> tuple[int, int, int]:
            inside = [min(idx - s, e - 1 - idx) for s, e in spans if s <= idx < e]
            if inside:
                return 0, min(inside), idx
            return 1, min(max(s - idx, idx - e + 1) for s, e in spans), idx

        kept = set(sorted(range(lo, hi), key=rank)[:budget])
    elif n > budget:
        # the window of budget tokens centred on the two entities, moved
        # inside the document; it holds both, as they span at most budget
        mid = (span_lo + span_hi) // 2
        lo = max(0, min(mid - budget // 2, n - budget))
        hi = lo + budget

    # (index into MARKERS, or -1 for a token; pre-marker token index)
    items: list[tuple[int, int]] = []
    for idx in range(lo, hi):
        if idx == hs:
            items.append((0, hs))
        if idx == ts:
            items.append((2, ts))
        if kept is None or idx in kept:
            items.append((-1, idx))
        if idx == he - 1:
            items.append((1, he - 1))
        if idx == te - 1:
            items.append((3, te - 1))

    marker_ids = np.array([marker for marker, _ in items], dtype=np.int64)
    index = np.array([idx for _, idx in items], dtype=np.int64)
    pos_head, pos_tail = _relative(index, [(hs, he), (ts, te)], max_len)
    # a marker keeps its pre-marker token's row, which its vector overwrites
    return EncodedInstance(
        tokens.rows[index], tokens.table, marker_ids=marker_ids, pos_head=pos_head,
        pos_tail=pos_tail,
        label=RELATION_LABELS.index(instance.label) if instance.label else None)


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
    training: dict | None = None  # the record adam_train returns

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


class _Workspace:
    """Work buffers for batches of up to ``rows`` padded rows (B * L) of
    input dimension ``d``. A batch writes views of their first rows. The
    input rows, the conv output and the position back-product each keep a
    zero row at index ``rows``, which gathers read outside an instance.
    The buffers are plain ``np.empty`` arrays, freed with the workspace."""

    def __init__(self, rows: int, d: int):
        width = d + 2 * POS_DIM
        self.rows = rows
        self.x = np.empty((rows + 1, width))
        self.windows = np.empty((rows, KERNEL * width))
        # the conv output, overwritten by its gradient in the backward pass
        self.conv = np.empty((rows + 1, N_FILTERS))
        self.dpos = np.empty((rows + 1, KERNEL * 2 * POS_DIM))
        for buffer in (self.x, self.conv, self.dpos):
            buffer[rows] = 0.0
        self.dconv_W = np.empty((N_FILTERS, KERNEL * width))


def _batch_index(lengths: tuple[int, ...], zero: int):
    """Index arrays of a batch of instances of ``lengths``, whose input
    rows follow one another and whose windows are padded to the longest, L:

    - ``source`` (B, L, 3): the input row in slot k of window t of instance
      b, its row t + k - 1, or row ``zero`` outside the instance;
    - ``covering`` (3, n): the window b * L + t + 1 - k that holds input
      row r (row t of instance b) in slot k, or ``zero`` where none does;
    - ``padding`` (B, L): the windows past an instance's end, or None.

    Those of a single instance come from a cache: scoring one pair and
    gradient checks repeat them, where training batches do not repeat."""
    if len(lengths) == 1:
        return _instance_index(lengths[0], zero)
    return _index_arrays(lengths, zero)


@functools.lru_cache(maxsize=64)
def _instance_index(n: int, zero: int):
    return _index_arrays((n,), zero)


def _index_arrays(lengths: tuple[int, ...], zero: int):
    sizes = np.array(lengths)
    B, L, n = len(lengths), max(lengths), sum(lengths)
    starts = np.cumsum(sizes) - sizes
    t = np.arange(L)[:, None] + np.arange(-1, KERNEL - 1)
    source = np.where((t >= 0) & (t < sizes[:, None, None]), starts[:, None, None] + t, zero)
    b = np.repeat(np.arange(B), sizes)
    window = (np.arange(n) - starts[b]) + np.arange(1, 1 - KERNEL, -1)[:, None]
    covering = np.where((window >= 0) & (window < L), b * L + window, zero)
    padding = np.arange(L) >= sizes[:, None] if n < B * L else None
    for array in (source, covering, padding):
        if array is not None:
            array.flags.writeable = False
    return source, covering, padding


@dataclass
class _Cache:
    """What the backward pass needs of a forward pass."""

    work: _Workspace
    shape: tuple[int, int]  # B instances, padded to L rows
    covering: np.ndarray
    marker_ids: np.ndarray
    pos_head: np.ndarray
    pos_tail: np.ndarray
    pooled: np.ndarray
    keep: np.ndarray | None
    dropped: np.ndarray


def _forward(model: CnnReModel, encs: list[EncodedInstance], train_mode: bool = False,
             rng: Rng | None = None, work: _Workspace | None = None):
    """(B, 3) label probabilities of a batch of instances plus a cache for
    backprop, computed in ``work`` (a workspace of the batch's own size
    when None). With dropout on, one (B, 256) block of ``rng`` draws is
    used, row b for instance b."""
    p = model.params
    d = model.input_dim
    width = d + 2 * POS_DIM
    lengths = tuple(map(len, encs))
    B, L = len(encs), max(lengths)
    if work is None:
        work = _Workspace(B * L, d)
    elif B * L > work.rows:
        raise ValueError(f"batch of {B} x {L} rows exceeds a workspace of {work.rows}")
    source, covering, padding = _batch_index(lengths, work.rows)
    # the input rows of every instance, one after another: token or marker
    # vector plus the two position vectors
    marker_ids = _joined(encs, "marker_ids")
    pos_head = _joined(encs, "pos_head")
    pos_tail = _joined(encs, "pos_tail")
    x = work.x[:len(marker_ids)]
    x[:, :d] = shared_table(encs)[_joined(encs, "rows")]
    is_marker = marker_ids >= 0
    x[is_marker, :d] = p["markers"][marker_ids[is_marker]]
    x[:, d:d + POS_DIM] = p["pos_head"][pos_head]
    x[:, d + POS_DIM:] = p["pos_tail"][pos_tail]
    # same-padding windows of width 3, one matrix product over all of them
    windows = work.windows[:B * L]
    np.take(work.x, source, axis=0, out=windows.reshape(B, L, KERNEL, width), mode="clip")
    relu = work.conv[:B * L]
    np.matmul(windows, p["conv_W"].T, out=relu)
    relu += p["conv_b"]
    np.maximum(relu, 0.0, out=relu)
    relu = relu.reshape(B, L, N_FILTERS)
    if padding is not None:
        # padding rows hold -1, below every pooled max
        relu[padding] = -1.0
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
    return probs, _Cache(work, (B, L), covering, marker_ids, pos_head, pos_tail, pooled, keep,
                         dropped)


def _joined(encs: list[EncodedInstance], field: str) -> np.ndarray:
    """The instances' arrays ``field``, one after another."""
    if len(encs) == 1:
        return getattr(encs[0], field)
    return np.concatenate([getattr(enc, field) for enc in encs])


def _backward(model: CnnReModel, cache: _Cache, dlogits: np.ndarray,
              grad: ParamVector) -> None:
    p = model.params
    work, covering = cache.work, cache.covering
    d = model.input_dim
    width = d + 2 * POS_DIM
    grad["out_W"] += dlogits.T @ cache.dropped
    grad["out_b"] += dlogits.sum(axis=0)
    dpooled = dlogits @ p["out_W"]
    if cache.keep is not None:
        dpooled = dpooled * cache.keep / (1.0 - model.dropout)
    dpooled = dpooled * (cache.pooled > 0.0)  # ReLU at the pooled positions
    grad["conv_b"] += dpooled.sum(axis=0)
    # route dpooled to the rows that hold the pooled max, over the conv
    # output; a column with one such row sums to dpooled exactly, and a max
    # held by several rows goes to the first of them alone, as argmax has it
    B, L = cache.shape
    routed = work.conv[:B * L].reshape(B, L, N_FILTERS)
    np.equal(routed, cache.pooled[:, None], out=routed)
    routed *= dpooled[:, None]
    tied = routed.sum(axis=1) != dpooled
    if tied.any():
        bs, fs = np.nonzero(tied)
        first = np.argmax(routed[bs, :, fs] != 0.0, axis=1)
        routed[bs, :, fs] = 0.0
        routed[bs, first, fs] = dpooled[bs, fs]
    routed = routed.reshape(B * L, N_FILTERS)
    grad["conv_W"] += np.matmul(routed.T, work.windows[:B * L], out=work.dconv_W)
    # the input-row gradient reaches parameters only in the position
    # columns of every row and the word columns of marker rows; a row's is
    # the sum over the three windows that cover it
    conv_W = p["conv_W"].reshape(N_FILTERS, KERNEL, width)
    np.matmul(routed, conv_W[:, :, d:].reshape(N_FILTERS, -1), out=work.dpos[:B * L])
    dpos = work.dpos.reshape(-1, KERNEL, 2 * POS_DIM)
    dx = dpos[covering[0], 0]
    for k in range(1, KERNEL):
        dx += dpos[covering[k], k]
    _add_rows(grad["pos_head"], cache.pos_head, dx[:, :POS_DIM])
    _add_rows(grad["pos_tail"], cache.pos_tail, dx[:, POS_DIM:])
    # the marker rows: per slot, the windows over each marker summed first
    markers = np.flatnonzero(cache.marker_ids >= 0)
    if len(markers):
        which = (cache.marker_ids[markers] == np.arange(len(MARKERS))[:, None]).astype(np.float64)
        for k in range(KERNEL):
            grad["markers"] += (which @ work.conv[covering[k, markers]]) @ conv_W[:, k, :d]


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


def _probabilities(model: CnnReModel, encs: list[EncodedInstance],
                   work: _Workspace | None = None) -> np.ndarray:
    """(N, 3) label probabilities of N >= 1 instances, _SCORE_BATCH per
    forward pass."""
    return np.concatenate([_forward(model, encs[lo:lo + _SCORE_BATCH], work=work)[0]
                           for lo in range(0, len(encs), _SCORE_BATCH)])


def cnn_loss_and_grad(model: CnnReModel, encs: list[EncodedInstance], weights,
                      grad: ParamVector | None, train_mode: bool = False,
                      rng: Rng | None = None, *, work: _Workspace | None = None) -> float:
    """Summed weighted cross-entropy of a batch of labelled instances
    (``weights[b]`` scales instance b's term) plus, when ``grad`` is given,
    accumulation of its gradient. Both passes run in ``work``, or in a
    workspace of the batch's own size."""
    probs, cache = _forward(model, encs, train_mode=train_mode, rng=rng, work=work)
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
    d = instances[0].table.shape[1]
    model = CnnReModel.init(d, cfg)
    weights = class_weights([enc.label for enc in instances])
    drop_rng = Rng(cfg.seed, stream=41)
    # one workspace for every training and dev-scoring batch of this call
    longest = max(len(enc) for encs in (instances, dev or []) for enc in encs)
    work = _Workspace(max(cfg.batch_size, _SCORE_BATCH) * longest, d)

    def loss_and_grad(batch, grad):
        encs = [instances[i] for i in batch]
        return cnn_loss_and_grad(model, encs, weights[[enc.label for enc in encs]],
                                 grad, train_mode=True, rng=drop_rng, work=work)

    def dev_score():
        return macro_f1([enc.label for enc in dev], _probabilities(model, dev, work))

    model.training = adam_train(
        model.params, len(instances), loss_and_grad, epochs=cfg.epochs,
        batch_size=cfg.batch_size, lr=cfg.lr, weight_decay=cfg.weight_decay,
        rng=Rng(cfg.seed, stream=37), dev_score=dev_score if dev else None)
    model.hyperparameters = asdict(cfg)
    return model


def classify_pairs(doc: NormalizedDoc, entities, model: CnnReModel,
                   embeddings: EmbeddingTable) -> list[RelationInstance]:
    """Classify every (Supplement, event) pair in one batch; NoRelation
    predictions are dropped from the result."""
    embeddings.check_width(model.input_dim)
    pairs = candidate_pairs(entities)
    if not pairs:
        return []
    tokens = embeddings.tokens(doc.surfaces())
    encs = [_encode(RelationInstance(doc.doc_id, head, tail, "NoRelation"), tokens,
                    model.max_len) for head, tail in pairs]
    # first max: NoRelation wins ties
    preds = np.argmax(_probabilities(model, encs), axis=1)
    return [RelationInstance(doc.doc_id, head, tail, model.labels[k])
            for (head, tail), k in zip(pairs, preds) if model.labels[k] != "NoRelation"]
