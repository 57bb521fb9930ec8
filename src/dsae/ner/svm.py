"""Linear SVM token-classification baseline: one-vs-rest hinge loss with
L2 regularization, trained by seeded SGD. Prediction is the argmax margin,
ties toward the lowest label index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..annotation import BIO_LABELS
from ..numeric.rng import Rng
from .features import FeatureRegistry, TokenFeatures, index_features, token_scores


@dataclass
class SvmModel:
    labels: tuple[str, ...]
    registry: FeatureRegistry
    W: np.ndarray  # labels x feature dims
    b: np.ndarray  # labels
    hyperparameters: dict = field(default_factory=dict)

    def decode(self, features: list[TokenFeatures]) -> list[str]:
        return svm_predict(self, features)


def _token_rows(X):
    """(column indices, values) of each row of a CSR token matrix."""
    for lo, hi in zip(X.indptr[:-1], X.indptr[1:]):
        yield X.indices[lo:hi], X.data[lo:hi]


def svm_train(train_docs, epochs: int = 5, lr: float = 0.1, l2: float = 1e-4,
              seed: int = 0, labels: tuple[str, ...] = BIO_LABELS) -> SvmModel:
    """train_docs: list of (features, gold label strings) pairs."""
    if not train_docs:
        raise ValueError("empty training set")
    dense_dim = train_docs[0][0][0].dense.shape[0] if train_docs[0][0] else 0
    if any(len(features) != len(gold) for features, gold in train_docs):
        raise ValueError("every document needs one gold label per token")
    registry = FeatureRegistry(dense_dim)
    # one feature matrix for the whole training set, a row per token
    X = index_features([tok for features, _ in train_docs for tok in features], registry)
    registry.freeze()
    y = [labels.index(lab) for _, gold in train_docs for lab in gold]
    instances = [(idx, val, k) for (idx, val), k in zip(_token_rows(X), y)]

    K = len(labels)
    # The weights are scale * V: the L2 shrink of every step scales one
    # number instead of the whole matrix.
    V = np.zeros((K, registry.total_dim))
    scale = 1.0
    b = np.zeros(K)
    rng = Rng(seed, stream=11)
    n = len(instances)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for pos in order:
            idx, val, y = instances[pos]
            m = scale * (V[:, idx] @ val) + b
            scale *= 1.0 - lr * l2
            if scale < 1e-9:  # fold a vanishing scale back into V
                V *= scale
                scale = 1.0
            for k in range(K):
                sign = 1.0 if k == y else -1.0
                if sign * m[k] < 1.0:
                    V[k, idx] += (lr * sign / scale) * val
                    b[k] += lr * sign
    W = scale * V
    return SvmModel(labels=tuple(labels), registry=registry, W=W, b=b,
                    hyperparameters={"epochs": epochs, "lr": lr, "l2": l2, "seed": seed})


def svm_predict(model: SvmModel, features: list[TokenFeatures]) -> list[str]:
    margins = token_scores(features, model.registry, model.W) + model.b
    return [model.labels[k] for k in margins.argmax(axis=1)]  # first max = lowest index
