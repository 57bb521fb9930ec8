"""Linear-chain CRF over BIO labels, trained with L-BFGS + elastic net.

Unary scores are linear in the token features: the rows of one sparse
token matrix times the weights in training, ``token_scores`` in decoding.
The transition matrix is shared across positions. Training evaluates the
whole training set as one padded batch of the shared CRF layer
(``kernels.crf_layer``); decoding is Viterbi with ties broken toward the
lowest label index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..annotation import BIO_LABELS
from ..numeric import kernels
from ..numeric.optim import LbfgsConfig, lbfgs_minimize
from .features import FeatureRegistry, TokenFeatures, index_features, token_scores

logger = logging.getLogger(__name__)


def viterbi(unary: np.ndarray, transitions: np.ndarray) -> tuple[list[int], float]:
    """Best-scoring label path; empty input decodes to an empty path."""
    unary = np.ascontiguousarray(unary, dtype=np.float64)
    if unary.shape[0] == 0:
        return [], 0.0
    return kernels.viterbi_kernel(unary, np.ascontiguousarray(transitions, dtype=np.float64))


@dataclass
class CrfConfig:
    c1: float = 0.1
    c2: float = 0.1
    max_iter: int = 200
    tol: float = 1e-5
    memory: int = 10


@dataclass
class CrfModel:
    labels: tuple[str, ...]
    registry: FeatureRegistry
    W: np.ndarray  # labels x feature dims
    T: np.ndarray  # labels x labels
    converged: bool = True
    hyperparameters: dict = field(default_factory=dict)

    def decode(self, features: list[TokenFeatures]) -> list[str]:
        if not features:
            return []
        path, _ = viterbi(token_scores(features, self.registry, self.W), self.T)
        return [self.labels[i] for i in path]


def _nll_grad(W: np.ndarray, T: np.ndarray, X: sp.csr_array, y: np.ndarray,
              mask: np.ndarray) -> tuple[float, np.ndarray]:
    """NLL of the gold paths y and its flat gradient over (W, T). The rows of
    the token matrix X are the True positions of mask, in row-major order."""
    scores = np.zeros(mask.shape + (W.shape[0],))
    scores[mask] = X @ W.T
    value, dscores, dT = kernels.crf_layer(scores, T, y, mask)
    return value, np.concatenate([(dscores[mask].T @ X).ravel(), dT.ravel()])


def crf_neg_log_likelihood(model: CrfModel, features: list[TokenFeatures],
                           gold_labels: list[str]) -> tuple[float, np.ndarray]:
    """Value and flat gradient (over W then T) for one instance."""
    if len(features) != len(gold_labels) or not features:
        raise ValueError("need equally many features and labels, at least one")
    X = index_features(features, model.registry)
    y = np.asarray([[model.labels.index(lab) for lab in gold_labels]], dtype=np.int64)
    return _nll_grad(model.W, model.T, X, y, np.ones(y.shape, dtype=bool))


def crf_train(train_docs, config: CrfConfig | None = None,
              labels: tuple[str, ...] = BIO_LABELS) -> CrfModel:
    """train_docs: list of (features, gold label strings) pairs."""
    cfg = config or CrfConfig()
    docs = [(features, gold) for features, gold in train_docs if features]
    if not docs:
        raise ValueError("empty training set")
    if any(len(features) != len(gold) for features, gold in docs):
        raise ValueError("every document needs one gold label per token")
    registry = FeatureRegistry(docs[0][0][0].dense.shape[0])
    # one feature matrix for the whole training set, a row per token
    X = index_features([tok for features, _ in docs for tok in features], registry)
    registry.freeze()
    lengths = np.array([len(features) for features, _ in docs], dtype=np.int64)
    mask = np.arange(lengths.max()) < lengths[:, None]
    y = np.zeros(mask.shape, dtype=np.int64)
    y[mask] = [labels.index(lab) for _, gold in docs for lab in gold]

    K = len(labels)
    F = registry.total_dim
    nW = K * F

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        return _nll_grad(x[:nW].reshape(K, F), x[nW:].reshape(K, K), X, y, mask)

    result = lbfgs_minimize(
        objective, np.zeros(nW + K * K),
        LbfgsConfig(memory=cfg.memory, max_iter=cfg.max_iter, tol=cfg.tol,
                    c1=cfg.c1, c2=cfg.c2))
    if not result.converged:
        logger.warning("crf_train: L-BFGS stopped after %d iterations without converging "
                       "(max_iter=%d, tol=%g)", result.iterations, cfg.max_iter, cfg.tol)
    W = result.x[:nW].reshape(K, F)
    T = result.x[nW:].reshape(K, K)
    return CrfModel(
        labels=tuple(labels), registry=registry, W=W, T=T,
        converged=result.converged,
        hyperparameters={"c1": cfg.c1, "c2": cfg.c2, "max_iter": cfg.max_iter,
                         "tol": cfg.tol, "memory": cfg.memory},
    )
