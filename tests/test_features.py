import numpy as np

from dsae.embeddings import EmbeddingTable
from dsae.ner.features import FeatureRegistry, featurize, index_features
from dsae.numeric.rng import Rng

from util import make_doc


def loop_rows(features, registry):
    """Reference: a token's non-zero dense values, then 1.0 per resolved
    indicator in name order."""
    rows = []
    for feat in features:
        cols = [int(k) for k in np.nonzero(feat.dense)[0]]
        vals = [float(feat.dense[k]) for k in cols]
        for name in feat.names:
            col = registry.resolve(name)
            if col is not None:
                cols.append(col)
                vals.append(1.0)
        rows.append((cols, vals))
    return rows


def csr_rows(X):
    return [(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist())
            for lo, hi in zip(X.indptr[:-1], X.indptr[1:])]


def test_index_features_matches_per_token_loop():
    matrix = Rng(0, stream=16).normal((3, 4))
    matrix[1, 2] = 0.0  # an exact zero inside a word vector is left out
    emb = EmbeddingTable(4, {"vitamin": 0, "c": 1, "nausea": 2}, matrix)
    train = featurize(make_doc("a", ["took", "vitamin", "c", "nausea", "!"]), emb)
    unseen = featurize(make_doc("b", ["c", "gave", "me", "nausea"]), emb)
    fast, slow = FeatureRegistry(5), FeatureRegistry(5)

    X = index_features(train, fast)
    assert csr_rows(X) == loop_rows(train, slow)
    assert fast.index == slow.index and X.shape == (5, fast.total_dim)
    fast.freeze()
    slow.freeze()
    assert csr_rows(index_features(unseen, fast)) == loop_rows(unseen, slow)
    assert fast.index == slow.index
    assert index_features([], fast).shape == (0, fast.total_dim)
