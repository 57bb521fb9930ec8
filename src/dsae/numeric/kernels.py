"""The linear-chain CRF output layer shared by the feature CRF and the
BiLSTM-CRF: the training objective and its gradients.

``CrfBatch`` runs the forward-backward recursions of Sutton & McCallum,
*An Introduction to Conditional Random Fields* (arXiv:1011.4088), section
4.1, over a padded batch of sequences at once. What depends only on the
lengths and the gold labels (the longest-first order, where each real
position sits in the padded grid, the gold counts) is built once; each
evaluation scatters the scores into the grid, runs the passes and gathers
the gradient back. ``crf_layer`` builds a batch and evaluates it in one
call. Each step is one (n, K) @ (K, K) product of shifted exponentials,
alpha_t = log(exp(alpha_{t-1} - m) @ exp(T - max_i T)) + m + max_i T + s_t
with m the row max of alpha_{t-1}, and the pairwise marginals are one
product after the recursions. The label holding the max adds at least
exp(-ptp(T)) to each shifted sum, so up to ptp(T) = 500 nothing underflows;
a wider T takes the log-sum-exp recursion. Reductions over the few labels
run as chains of column operations, which give numpy's results exactly.
"""

from __future__ import annotations

import numpy as np

# Widest T the product recursion takes: its sums stay above exp(-500) and its
# pair factors c below exp(500), far inside float64's exp range of +-708.
_PRODUCT_PTP = 500.0


class CrfBatch:
    """The part of the CRF objective that depends only on the sequence
    lengths and the gold labels, built once and evaluated at many (scores,
    T) pairs.

    y: (N, L) gold label indices below K. mask: (N, L) bool, True on the
    positions of each sequence; they come first in its row, and every
    sequence has at least one. Padded entries of y are ignored. The batch
    holds the longest-first order of the sequences, the place of each real
    position in the padded (L, N) grid of that order, and the gold labels
    and transition counts.
    """

    def __init__(self, y: np.ndarray, mask: np.ndarray, K: int):
        N, L = mask.shape
        self.shape = (L, N, K)
        # longest sequences first: the ones that have a position t are then
        # the first live[t] of the grid's time step t
        lengths = mask.sum(axis=1)
        order = np.argsort(-lengths, kind="stable")
        rank = np.empty(N, dtype=np.intp)
        rank[order] = np.arange(N)
        self.live = (lengths[:, None] > np.arange(L)).sum(axis=0)
        self.last = lengths[order] - 1, np.arange(N)
        rows, t = np.nonzero(mask)
        # real position k (row-major in mask) sits at grid[t, rank[row]]
        self.grid_index = t * N + rank[rows]
        self.sequence = rank[rows]
        self.gold = np.arange(rows.size), y[mask]
        pairs = mask[:, 1:]
        self.transitions = np.bincount(K * y[:, :-1][pairs] + y[:, 1:][pairs],
                                       minlength=K * K).reshape(K, K).astype(np.float64)
        # the (L, N, K) grids every evaluation reuses: the scores, alpha,
        # beta, and the product passes' p and cq. An evaluation writes only
        # the entries it reads, so each stays zero in the padding.
        self.work = np.zeros((5,) + self.shape)

    def evaluate(self, scores: np.ndarray, T: np.ndarray
                 ) -> tuple[float, np.ndarray, np.ndarray]:
        """Negative log-likelihood of the gold label paths and its gradients.

        scores: (n, K) unary scores of the real positions, row-major in
        mask. T: (K, K), T[i, j] scores label i followed by label j.
        Returns the NLL summed over the batch (log Z minus the gold path
        score), d NLL / d scores and d NLL / d T.
        """
        K = self.shape[2]
        grid, alpha, beta = self.work[:3]
        grid.reshape(-1, K)[self.grid_index] = scores
        # alpha[t, n, j]: log-sum of the scores of all prefixes ending in
        # label j at t; beta[t, n, i]: of all suffixes after label i at t,
        # zero at a sequence's last position
        alpha[0] = grid[0]
        passes = _product_passes if np.ptp(T) <= _PRODUCT_PTP else _logsumexp_passes
        logz, dT = passes(self.work, T, self.live, self.last)

        # the position marginals, minus the gold one-hots
        dscores = beta.reshape(-1, K)[self.grid_index]
        dscores += alpha.reshape(-1, K)[self.grid_index]
        dscores -= logz[self.sequence, None]
        np.exp(dscores, out=dscores)
        dscores[self.gold] -= 1.0
        dT -= self.transitions
        gold = scores[self.gold].sum() + np.sum(T * self.transitions)
        return float(logz.sum() - gold), dscores, dT


def crf_layer(scores: np.ndarray, T: np.ndarray, y: np.ndarray,
              mask: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``CrfBatch(y, mask, K).evaluate`` on a padded batch, in one call.

    scores: (N, L, K) unary scores; y and mask as for ``CrfBatch``. Padded
    entries of scores are ignored. Returns the summed NLL, d NLL / d scores
    (zero at padding) and d NLL / d T.
    """
    value, dreal, dT = CrfBatch(y, mask, scores.shape[2]).evaluate(scores[mask], T)
    dscores = np.zeros_like(scores)
    dscores[mask] = dreal
    return value, dscores, dT


# Rows from which a chain of column operations beats numpy's own reduction
# over the few labels; below it the reduction is faster. Both give the same
# result, bit for bit.
_CHAIN_ROWS = 32


def _max_columns(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` into out, for many rows as ``np.maximum`` calls
    over the K columns of a."""
    if a.size < _CHAIN_ROWS * a.shape[-1]:
        return np.maximum.reduce(a, axis=-1, out=out)
    np.copyto(out, a[..., 0])
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """``np.logaddexp.reduce(a, axis=-1)``, a left fold, for many rows as
    ``np.logaddexp`` calls over the K columns of a."""
    if a.size < _CHAIN_ROWS * a.shape[-1]:
        return np.logaddexp.reduce(a, axis=-1)
    out = a[..., 0] + 0.0  # the reduction starts from -inf, which turns -0 into 0
    for j in range(1, a.shape[-1]):
        np.logaddexp(out, a[..., j], out=out)
    return out


# The passes fill alpha and beta of a batch's work grids, sorted longest
# first, and return log Z per sequence and the expected transition counts.

def _product_passes(work, T, live, last):
    scores, alpha, beta, p, cq = work
    L, N, K = scores.shape
    colmax, rowmax, tmax = T.max(axis=0), T.max(axis=1), T.max()
    to_next, to_prev = np.exp(T - colmax), np.exp(T - rowmax[:, None]).T
    next_scores = scores + colmax
    # on the rows of the pairs (t - 1, t), zero elsewhere: m[t - 1] is the row
    # max of alpha_{t-1}, p[t - 1] = exp(alpha_{t-1} - m[t - 1]) and cq[t - 1]
    # = exp(s_t + beta_t + m[t - 1] + max T - log Z)
    p, cq = p[:-1], cq[:-1]
    m = np.zeros((L - 1, N, 1))
    for t in range(1, L):
        n = live[t]
        prev, mt, pt, at = alpha[t - 1, :n], m[t - 1, :n], p[t - 1, :n], alpha[t, :n]
        _max_columns(prev, mt[:, 0])
        np.subtract(prev, mt, out=pt)
        np.exp(pt, out=pt)
        np.matmul(pt, to_next, out=at)
        np.log(at, out=at)
        at += mt
        at += next_scores[t, :n]
    logz = _logsumexp_columns(alpha[last])
    # pair (i, j) has marginal p_i cq_j exp(T_ij - max T), and cq is at most
    # exp(ptp(T)). It is taken on real rows only: in the padding log Z may lie
    # far below m, and exp(m - log Z) would overflow.
    m += tmax - logz[:, None]
    v_all, mv_all = np.empty((N, K)), np.empty((N, 1))
    for t in range(L - 1, 0, -1):
        n = live[t]
        v, mv, bt, ct = v_all[:n], mv_all[:n], beta[t - 1, :n], cq[t - 1, :n]
        np.add(scores[t, :n], beta[t, :n], out=v)
        np.add(v, m[t - 1, :n], out=ct)
        np.exp(ct, out=ct)
        _max_columns(v, mv[:, 0])
        v -= mv
        np.exp(v, out=v)
        np.matmul(v, to_prev, out=bt)
        np.log(bt, out=bt)
        bt += mv
        bt += rowmax
    return logz, np.exp(T - tmax) * (p.reshape(-1, K).T @ cq.reshape(-1, K))


def _logsumexp_passes(work, T, live, last):
    scores, alpha, beta = work[:3]
    L, N, K = scores.shape
    for t in range(1, L):
        n = live[t]
        to = alpha[t - 1, :n, None, :] + T.T  # (n, K to, K from)
        alpha[t, :n] = _logsumexp_columns(to) + scores[t, :n]
    logz = _logsumexp_columns(alpha[last])
    dT = np.zeros((K, K))
    for t in range(L - 1, 0, -1):
        n = live[t]
        nxt = (scores[t, :n] + beta[t, :n])[:, None, :] + T  # (n, K from, K to)
        dT += np.exp(alpha[t - 1, :n, :, None] + nxt - logz[:n, None, None]).sum(axis=0)
        beta[t - 1, :n] = _logsumexp_columns(nxt)
    return logz, dT

