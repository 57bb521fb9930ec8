"""The linear-chain CRF output layer shared by the feature CRF and the
BiLSTM-CRF, and single-sequence Viterbi decoding.

``crf_layer`` runs the forward-backward recursions of Sutton & McCallum,
*An Introduction to Conditional Random Fields* (arXiv:1011.4088), section
4.1, over a padded batch of sequences at once. Each step is one (n, K) @
(K, K) product of shifted exponentials, alpha_t = log(exp(alpha_{t-1} - m)
@ exp(T - max_i T)) + m + max_i T + s_t with m the row max of alpha_{t-1},
and the pairwise marginals are one product after the recursions. The label
holding the max adds at least exp(-ptp(T)) to each shifted sum, so up to
ptp(T) = 500 nothing underflows; a wider T takes the log-sum-exp recursion.
"""

from __future__ import annotations

import numpy as np

# Widest T the product recursion takes: its sums stay above exp(-500) and its
# pair factors c below exp(500), far inside float64's exp range of +-708.
_PRODUCT_PTP = 500.0


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

    # alpha[n, t, j]: log-sum of the scores of all prefixes ending in label j
    # at t; beta[n, t, i]: of all suffixes after label i at t, zero at a
    # sequence's last position. Both stay zero in the padding.
    alpha, beta = np.zeros((2, N, L, K))
    alpha[:, 0] = scores[:, 0]
    passes = _product_passes if np.ptp(T) <= _PRODUCT_PTP else _logsumexp_passes
    logz, dT = passes(alpha, beta, scores, T, live, lengths)

    pairs = mask[:, 1:]
    gold = np.sum(scores, where=gold_onehot) + T[y[:, :-1], y[:, 1:]][pairs].sum()
    # the position marginals, computed in place of beta
    real = mask[..., None]
    beta += alpha
    np.subtract(beta, logz[:, None, None], out=beta, where=real)
    marginals = np.exp(beta, out=beta, where=real)
    marginals -= gold_onehot
    dscores = np.empty_like(marginals)
    dscores[order] = marginals
    dT -= np.bincount(K * y[:, :-1][pairs] + y[:, 1:][pairs],
                      minlength=K * K).reshape(K, K)
    return float(logz.sum() - gold), dscores, dT


# The passes fill alpha and beta over the batch sorted longest first and
# return log Z per sequence and the expected transition counts.

def _product_passes(alpha, beta, scores, T, live, lengths):
    N, L, K = scores.shape
    colmax, rowmax, tmax = T.max(axis=0), T.max(axis=1), T.max()
    to_next, to_prev = np.exp(T - colmax), np.exp(T - rowmax[:, None]).T
    next_scores = scores + colmax
    # on the rows of the pairs (t - 1, t), zero elsewhere: m[t - 1] is the row
    # max of alpha_{t-1}, p[t - 1] = exp(alpha_{t-1} - m[t - 1]) and cq[t - 1]
    # = exp(s_t + beta_t + m[t - 1] + max T - log Z)
    p, cq = np.zeros((2, L - 1, N, K))
    m = np.zeros((L - 1, N, 1))
    for t in range(1, L):
        n = live[t]
        prev, mt, pt = alpha[:n, t - 1], m[t - 1, :n], p[t - 1, :n]
        prev.max(axis=1, keepdims=True, out=mt)
        np.exp(prev - mt, out=pt)
        alpha[:n, t] = np.log(pt @ to_next) + mt + next_scores[:n, t]
    logz = np.logaddexp.reduce(alpha[np.arange(N), lengths - 1], axis=1)
    # pair (i, j) has marginal p_i cq_j exp(T_ij - max T), and cq is at most
    # exp(ptp(T)). It is taken on real rows only: in the padding log Z may lie
    # far below m, and exp(m - log Z) would overflow.
    m += tmax - logz[:, None]
    for t in range(L - 1, 0, -1):
        n = live[t]
        v = scores[:n, t] + beta[:n, t]
        mv = v.max(axis=1, keepdims=True)
        beta[:n, t - 1] = np.log(np.exp(v - mv) @ to_prev) + mv + rowmax
        np.exp(v + m[t - 1, :n], out=cq[t - 1, :n])
    return logz, np.exp(T - tmax) * (p.reshape(-1, K).T @ cq.reshape(-1, K))


def _logsumexp_passes(alpha, beta, scores, T, live, lengths):
    N, L, K = scores.shape
    for t in range(1, L):
        n = live[t]
        alpha[:n, t] = np.logaddexp.reduce(alpha[:n, t - 1, :, None] + T, axis=1) + scores[:n, t]
    logz = np.logaddexp.reduce(alpha[np.arange(N), lengths - 1], axis=1)
    dT = np.zeros((K, K))
    for t in range(L - 1, 0, -1):
        n = live[t]
        nxt = (scores[:n, t] + beta[:n, t])[:, None, :] + T  # (n, K from, K to)
        dT += np.exp(alpha[:n, t - 1, :, None] + nxt - logz[:n, None, None]).sum(axis=0)
        beta[:n, t - 1] = np.logaddexp.reduce(nxt, axis=2)
    return logz, dT


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
