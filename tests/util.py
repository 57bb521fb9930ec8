"""Shared helpers for the test suite: documents and spans, and the
references the tests check the program against (brute-force paths,
finite-difference gradients, the per-document CRF likelihood)."""

from __future__ import annotations

import dataclasses

import numpy as np

from dsae.annotation import AnnotatedDoc, EntitySpan, label_ids
from dsae.embeddings import TokenRows
from dsae.ner import crf
from dsae.ner.features import DocFeatures, FeatureRegistry, index_features
from dsae.ner.lstm_crf import LstmCrfModel, nll_and_grad
from dsae.normalize import NormalizedDoc, Token
from dsae.numeric import kernels
from dsae.numeric.params import ParamVector
from dsae.numeric.rng import Rng
from dsae.relation import cnn_loss_and_grad


def make_doc(doc_id: str, words: list[str]) -> NormalizedDoc:
    """A NormalizedDoc from plain words, single-space joined."""
    tokens = []
    cursor = 0
    for w in words:
        if tokens:
            cursor += 1
        tokens.append(Token(w, cursor, cursor + len(w)))
        cursor += len(w)
    return NormalizedDoc(
        doc_id=doc_id,
        original_text=" ".join(words),
        normalized_text=" ".join(words),
        tokens=tuple(tokens),
    )


def span(doc: NormalizedDoc, eid: str, etype: str, tok_start: int, tok_end: int,
         **kw) -> EntitySpan:
    return EntitySpan(
        id=eid, etype=etype,
        char_start=doc.tokens[tok_start].start,
        char_end=doc.tokens[tok_end - 1].end,
        token_start=tok_start, token_end=tok_end, **kw,
    )


def brute_force_paths(unary: np.ndarray, transitions: np.ndarray):
    """All label paths with their scores, by exhaustive enumeration."""
    L, K = unary.shape
    paths = [([], 0.0)]
    for t in range(L):
        nxt = []
        for path, score in paths:
            for k in range(K):
                s = score + unary[t, k]
                if path:
                    s += transitions[path[-1], k]
                nxt.append((path + [k], s))
        paths = nxt
    return paths


def grad_check(objective, x: np.ndarray, eps: float = 1e-5, value_fn=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``value_fn``, when given, evaluates the objective value without computing
    the analytic gradient; it makes the sweep much cheaper for objectives
    whose gradient costs more than the value.
    """
    x = np.array(x, dtype=np.float64)  # private copy, perturbed in place
    _, g = objective(x)
    if value_fn is None:
        value_fn = lambda z: objective(z)[0]
    worst = 0.0
    for i in range(x.size):
        xi = x[i]
        x[i] = xi + eps
        fp = value_fn(x)
        x[i] = xi - eps
        fm = value_fn(x)
        x[i] = xi
        fd = (fp - fm) / (2.0 * eps)
        err = abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i]))
        worst = max(worst, err)
    return worst


def flat_objective(model, *batch):
    """The loss a neural model's trainer minimises on one batch, as a
    function of the model's flat parameters returning (value, gradient);
    its ``value`` attribute computes the value alone. A BiLSTM-CRF's batch
    is (Xs, ys) for ``nll_and_grad``; a CNN's is (encs, weights) for
    ``cnn_loss_and_grad``, with dropout off."""

    def loss(flat, grad):
        params = ParamVector(model.params.shapes)
        params.set_data(flat)
        if isinstance(model, LstmCrfModel):
            return nll_and_grad(params, *batch, model.hidden, grad)
        return cnn_loss_and_grad(dataclasses.replace(model, params=params, dropout=0.0),
                                 *batch, grad)

    def objective(flat):
        grad = ParamVector(model.params.shapes)
        return loss(flat, grad), grad.data

    objective.value = lambda flat: loss(flat, None)
    return objective


def token_rows(blocks: list[np.ndarray]) -> list[TokenRows]:
    """Dense (n, d) blocks as the row-id input the models read: the rows of
    all blocks stacked into one shared, read-only table, and each block a
    run of row ids into it."""
    table = np.concatenate(blocks)
    table.flags.writeable = False
    ends = np.cumsum([len(block) for block in blocks], dtype=np.intp)
    return [TokenRows(np.arange(end - len(block), end), table)
            for block, end in zip(blocks, ends)]


def doc_features(blocks: list[np.ndarray], names: list[list[tuple[str, ...]]]
                 ) -> list[DocFeatures]:
    """The DocFeatures of documents with the given dense blocks and
    indicator names, all reading one table (``token_rows``)."""
    return [DocFeatures(x.rows, x.table, n) for x, n in zip(token_rows(blocks), names)]


def first_seen_registry(docs: list[DocFeatures]) -> FeatureRegistry:
    """Reference: the registry of the indicator names of docs, each name
    given the next column as a token loop first meets it."""
    index: dict[str, int] = {}
    for features in docs:
        for names in features.names:
            for name in names:
                index.setdefault(name, len(index))
    return FeatureRegistry(docs[0].table.shape[1], index)


def unseen_docs(features: DocFeatures) -> list[DocFeatures]:
    """A document's features reordered and cut, and with a token whose
    indicators were all unseen in training (on the table's last row, an
    embedding table's unknown word)."""
    def pick(order):
        return DocFeatures(features.rows[list(order)], features.table,
                           [features.names[i] for i in order])

    n = len(features)
    blank = DocFeatures(np.array([len(features.table) - 1]), features.table,
                        [("w[0]=gave", "pre3=gav")])
    rest = pick(range(2, n))
    return [features, pick(range(n - 1, -1, -1)), pick([1, 2]),
            DocFeatures(np.concatenate([blank.rows, rest.rows]), features.table,
                        blank.names + rest.names), blank]


def crf_objective(model, features, gold):
    """The objective ``crf_train`` hands L-BFGS, on the one document
    (features, gold) under the model's registry: the NLL of the gold path
    and its gradient, over the flat weights W then T."""
    dense, indicators = index_features(features, model.registry)
    y = np.array([label_ids(gold, model.labels)])
    return crf._nll_objective(dense, indicators, y, np.ones(y.shape, dtype=bool),
                              len(model.labels))


def crf_neg_log_likelihood(model, features, gold_labels) -> tuple[float, np.ndarray]:
    """Value and flat gradient (over W then T) of one document's NLL, by one
    ``kernels.crf_layer`` call: the per-document reference of the batched
    training objective."""
    if len(features) != len(gold_labels) or not features:
        raise ValueError("need equally many features and labels, at least one")
    dense, indicators = index_features(features, model.registry)
    W, dim = model.W, model.registry.dense_dim
    y = np.asarray([label_ids(gold_labels, model.labels)], dtype=np.int64)
    value, (dscores,), dT = kernels.crf_layer(
        (dense @ W[:, :dim].T + indicators @ W[:, dim:].T)[None], model.T, y,
        np.ones_like(y, dtype=bool))
    dW = np.hstack([dscores.T @ dense, (indicators.T @ dscores).T])
    return value, np.concatenate([dW.ravel(), dT.ravel()])


def drop_entities(docs: list[AnnotatedDoc], fraction: float, seed: int) -> list[AnnotatedDoc]:
    """The documents with a random fraction of their entities removed, and
    no relations: degraded concept extraction, for an ``OracleNer``."""
    rng = Rng(seed, stream=61)
    return [AnnotatedDoc(d.doc, tuple(e for e in d.entities if rng.uniform() >= fraction), ())
            for d in docs]
