"""Linear SVM token-classification baseline: one-vs-rest hinge loss with
L2 regularization, trained by seeded SGD. Prediction is the argmax margin,
ties toward the lowest label index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..annotation import BIO_LABELS
from ..numeric.rng import Rng
from .features import DocFeatures, FeatureRegistry, index_training_set, token_scores


@dataclass
class SvmModel:
    labels: tuple[str, ...]
    registry: FeatureRegistry
    W: np.ndarray  # labels x feature dims
    b: np.ndarray  # labels
    hyperparameters: dict = field(default_factory=dict)

    def decode(self, features: DocFeatures) -> list[str]:
        return svm_predict(self, features)


# tokens whose margins are computed in one go; a hinge violation or a scale
# fold ends a block early, and the next one starts right after that token
BLOCK = 32


def svm_train(train_docs, epochs: int = 5, lr: float = 0.1, l2: float = 1e-4,
              seed: int = 0) -> SvmModel:
    """train_docs: list of (features, gold label strings) pairs; documents
    without tokens are skipped."""
    Xd, indicators, _, y, registry = index_training_set(train_docs)
    dim = registry.dense_dim
    F = registry.total_dim
    n = len(y)
    # indicator columns of each token, padded with F, a row of V kept at zero
    n_ind = np.diff(indicators.indptr)
    cols = np.full((n, n_ind.max(initial=0)), F, dtype=np.int64)
    cols[np.arange(cols.shape[1]) < n_ind[:, None]] = indicators.indices + dim

    K = len(BIO_LABELS)
    signs = np.full((n, K), -1.0)
    signs[np.arange(n), y] = 1.0
    # The weights are scale * V, V stored feature-major: the L2 shrink of
    # every step scales one number instead of the whole matrix. The margins
    # of a block come from the same V until a token violates a hinge, so
    # the tokens before it only shrink the scale.
    V = np.zeros((F + 1, K))
    scale = 1.0
    b = np.zeros(K)
    shrink = np.full(BLOCK, 1.0 - lr * l2)
    rng = Rng(seed, stream=11)
    for epoch in range(epochs):
        order = rng.permutation(n)
        co, so = cols[order], signs[order]
        pos = 0
        while pos < n:
            end = min(pos + BLOCK, n)
            # scales[j] is the scale token pos + j sees, scales[j + 1] the
            # scale after its shrink
            scales = np.cumprod(np.concatenate(([scale], shrink[:end - pos])))
            raw = Xd[order[pos:end]] @ V[:dim] + V[co[pos:end]].sum(axis=1)
            viol = so[pos:end] * (scales[:-1, None] * raw + b) < 1.0
            # the block ends at its first token that violates a hinge or
            # takes the scale below 1e-9, or else at its last token
            stop = viol.any(axis=1) | (scales[1:] < 1e-9)
            stop[-1] = True
            j = int(stop.argmax())
            scale = scales[j + 1]
            if scale < 1e-9:  # fold a vanishing scale back into V
                V *= scale
                scale = 1.0
            ks = np.flatnonzero(viol[j])
            if len(ks):
                row = order[pos + j]
                lo, hi = indicators.indptr[row], indicators.indptr[row + 1]
                step = lr * so[pos + j, ks]
                V[:dim, ks] += np.outer(Xd[row], step / scale)
                V[(dim + indicators.indices[lo:hi])[:, None], ks] += step / scale
                b[ks] += step
            pos += j + 1
    W = np.ascontiguousarray(scale * V[:F].T)
    return SvmModel(labels=BIO_LABELS, registry=registry, W=W, b=b,
                    hyperparameters={"epochs": epochs, "lr": lr, "l2": l2, "seed": seed})


def svm_predict(model: SvmModel, features: DocFeatures) -> list[str]:
    margins = token_scores(features, model.registry, model.W) + model.b
    return [model.labels[k] for k in margins.argmax(axis=1)]  # first max = lowest index
