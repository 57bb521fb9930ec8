"""Linear-chain CRF over BIO labels, trained with L-BFGS + elastic net.

Unary scores are linear in the token features. Training indexes the
training set into a dense block of word vectors and a 0/1 indicator matrix
(kept with its transpose for the gradient), and builds one
``kernels.CrfBatch`` from the document lengths and gold labels that the
index gives; each L-BFGS evaluation only multiplies and runs the batch's
forward-backward. Decoding scores tokens with ``token_scores`` and runs
``viterbi``, the batched max-product decoder the BiLSTM-CRF shares. The
transition matrix is shared across positions.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..annotation import BIO_LABELS
from ..numeric import kernels
from ..numeric.optim import CONVERGED, LbfgsConfig, lbfgs_minimize
from .features import DocFeatures, FeatureRegistry, index_training_set, token_scores

logger = logging.getLogger(__name__)


def viterbi(scores: np.ndarray, T: np.ndarray, lengths) -> tuple[list[list[int]], list[float]]:
    """Best label path of each sequence of a padded batch, and its score.

    scores: (N >= 1, L, K) unary scores; T: (K, K), T[i, j] scores label i
    followed by label j; lengths: the N sequence lengths, each from 1 to L.
    Padded entries of scores are ignored. Ties go to the lowest label index:
    of the best paths, the one with the lowest last label, then the lowest
    label before it, and so on. This is the max-product recursion of
    Sutton & McCallum, *An Introduction to Conditional Random Fields* (2012).
    """
    scores = np.asarray(scores, dtype=np.float64)
    N, L, K = scores.shape
    lengths = list(map(int, lengths))
    if N == 0 or len(lengths) != N or not 1 <= min(lengths) <= max(lengths) <= L:
        raise ValueError(f"need a length from 1 to {L} for each of the {N} >= 1 sequences")
    # longest first, so the sequences still running at step t are the first n rows
    order = sorted(range(N), key=lengths.__getitem__, reverse=True)
    steps = [lengths[r] for r in order]
    # delta_t overwrites the scores of step t, in a time-major view of a copy
    grid = scores.take(order, axis=0).transpose(1, 0, 2)
    to_from = np.asarray(T, dtype=np.float64).T
    back = [None]  # back[t][r][j]: the best label at t - 1 before label j at t
    n = N
    for t in range(1, steps[0]):
        while steps[n - 1] <= t:
            n -= 1
        # m[r, j, i]: label i at t - 1, then j; each step reduces over the last axis
        m = grid[t - 1, :n, None] + to_from
        back.append(m.argmax(axis=2).tolist())  # first max -> lowest label index
        delta = grid[t, :n]
        delta += m.max(axis=2)
    paths, best = [[]] * N, [0.0] * N
    for r, (row, length) in enumerate(zip(order, steps)):
        delta = grid[length - 1, r].tolist()
        path = [delta.index(max(delta))]
        for t in range(length - 1, 0, -1):
            path.append(back[t][r][path[-1]])
        paths[row], best[row] = path[::-1], delta[path[0]]
    return paths, best


@dataclass
class CrfConfig(LbfgsConfig):
    """The L-BFGS config of CRF training, with the CRF's elastic net."""
    c1: float = 0.1
    c2: float = 0.1


@dataclass
class CrfModel:
    labels: tuple[str, ...]
    registry: FeatureRegistry
    W: np.ndarray  # labels x feature dims
    T: np.ndarray  # labels x labels
    hyperparameters: dict = field(default_factory=dict)
    # LbfgsResult.record() of the training run; None for a model built otherwise
    training: dict | None = None

    @property
    def converged(self) -> bool:
        return self.training is None or self.training["stop"] == CONVERGED

    def decode(self, features: DocFeatures) -> list[str]:
        if not features:
            return []
        (path,), _ = viterbi(token_scores(features, self.registry, self.W)[None], self.T,
                             [len(features)])
        return [self.labels[i] for i in path]


def _nll_objective(dense: np.ndarray, indicators, lengths: np.ndarray, y: np.ndarray,
                   K: int):
    """The training objective: the function of the flat weights (W then T)
    that gives the NLL of the gold paths y and its flat gradient. The rows
    of the two blocks and the entries of y are the positions of sequences
    of the given lengths, one sequence after another. What does not depend
    on the weights is built once, here."""
    dim = dense.shape[1]
    by_column = indicators.T.tocsr()
    batch = kernels.CrfBatch(lengths, y, K)
    F = dim + indicators.shape[1]
    nW = K * F

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        W, T = x[:nW].reshape(K, F), x[nW:].reshape(K, K)
        scores = dense @ W[:, :dim].T
        scores += indicators @ W[:, dim:].T
        value, dscores, dT = batch.evaluate(scores, T)
        grad = np.empty_like(x)
        dW = grad[:nW].reshape(K, F)
        dW[:, :dim] = dscores.T @ dense
        dW[:, dim:] = (by_column @ dscores).T
        grad[nW:] = dT.ravel()
        return value, grad

    return objective


def crf_train(train_docs, config: CrfConfig | None = None) -> CrfModel:
    """train_docs: list of (features, gold label strings) pairs."""
    cfg = config or CrfConfig()
    dense, indicators, lengths, y, registry = index_training_set(train_docs)
    K = len(BIO_LABELS)
    # one objective over the whole training set, a row per token
    objective = _nll_objective(dense, indicators, lengths, y, K)
    F = registry.total_dim
    nW = K * F
    result = lbfgs_minimize(objective, np.zeros(nW + K * K), cfg)
    if not result.converged:
        logger.warning("crf_train: L-BFGS stopped without converging: %s (steps %d, "
                       "objective evaluations %d, max_iter %d, tol %g)", result.stop,
                       result.iterations, result.evaluations, cfg.max_iter, cfg.tol)
    W = result.x[:nW].reshape(K, F)
    T = result.x[nW:].reshape(K, K)
    return CrfModel(
        labels=BIO_LABELS, registry=registry, W=W, T=T,
        hyperparameters=asdict(cfg), training=result.record(),
    )
