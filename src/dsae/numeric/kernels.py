"""The linear-chain CRF output layer shared by the feature CRF and the
BiLSTM-CRF, and single-sequence Viterbi decoding.

``crf_layer`` runs the log-domain forward-backward recursions of Sutton &
McCallum, *An Introduction to Conditional Random Fields*
(arXiv:1011.4088), section 4.1, over a padded batch of sequences at once.
"""

from __future__ import annotations

import numpy as np


def crf_layer(scores: np.ndarray, T: np.ndarray, y: np.ndarray,
              mask: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative log-likelihood of the gold label paths and its gradients.

    scores: (N, L, K) unary scores. T: (K, K), T[i, j] scores label i
    followed by label j. y: (N, L) gold label indices. mask: (N, L) bool,
    True on the positions of each sequence; they come first in its row, and
    every sequence has at least one. Padded entries of scores and y are
    ignored. Returns the NLL summed over the batch (log Z minus the gold path
    score), d NLL / d scores (zero at padding) and d NLL / d T.
    """
    N, L, K = scores.shape
    # longest sequences first: the ones that have a position t are then the
    # first live[t] rows
    lengths = mask.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    lengths, mask, scores = lengths[order], mask[order], scores[order]
    live = (lengths[:, None] > np.arange(L)).sum(axis=0)
    y = np.where(mask, y[order], 0)
    gold_onehot = (np.arange(K) == y[..., None]) & mask[..., None]

    # alpha[n, t, j]: log-sum of the scores of all prefixes ending in label j at t
    alpha = np.zeros((N, L, K))
    alpha[:, 0] = scores[:, 0]
    for t in range(1, L):
        n = live[t]
        alpha[:n, t] = np.logaddexp.reduce(alpha[:n, t - 1, :, None] + T, axis=1) + scores[:n, t]
    logz = np.logaddexp.reduce(alpha[np.arange(N), lengths - 1], axis=1)[:, None, None]

    pairs = mask[:, 1:]
    gold = np.sum(scores, where=gold_onehot) + T[y[:, :-1], y[:, 1:]][pairs].sum()

    # beta[n, t, i]: log-sum of the scores of all suffixes after label i at t,
    # zero at a sequence's last position. The pairwise marginals of positions
    # (t - 1, t) are summed into dT one step at a time.
    beta = np.zeros((N, L, K))
    dT = np.zeros((K, K))
    for t in range(L - 1, 0, -1):
        n = live[t]
        nxt = (scores[:n, t] + beta[:n, t])[:, None, :] + T  # (n, K from, K to)
        dT += np.exp(alpha[:n, t - 1, :, None] + nxt - logz[:n]).sum(axis=0)
        beta[:n, t - 1] = np.logaddexp.reduce(nxt, axis=2)
    # the position marginals, computed in place of beta; alpha and beta are
    # both zero in the padding
    real = mask[..., None]
    beta += alpha
    np.subtract(beta, logz, out=beta, where=real)
    marginals = np.exp(beta, out=beta, where=real)
    marginals -= gold_onehot
    dscores = np.empty_like(marginals)
    dscores[order] = marginals
    dT -= np.bincount(K * y[:, :-1][pairs] + y[:, 1:][pairs],
                      minlength=K * K).reshape(K, K)
    return float(logz.sum() - gold), dscores, dT


def viterbi_kernel(scores: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, float]:
    """Best label path of one (L >= 1, K) sequence and its score; ties go to
    the lowest label index."""
    L, K = scores.shape
    delta = np.empty((L, K))
    bp = np.zeros((L, K), dtype=np.int64)
    delta[0] = scores[0]
    for t in range(1, L):
        m = delta[t - 1][:, None] + T
        bp[t] = np.argmax(m, axis=0)  # first max -> lowest label index
        delta[t] = m[bp[t], np.arange(K)] + scores[t]
    best_j = int(np.argmax(delta[-1]))
    path = np.empty(L, dtype=np.int64)
    path[-1] = best_j
    for t in range(L - 1, 0, -1):
        path[t - 1] = bp[t, path[t]]
    return path, float(delta[-1, best_j])
